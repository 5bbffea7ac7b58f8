"""Enumeration, Durfee chains, the Rogers-Ramanujan predicate, and marks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partition_oracles
from qspt.identities import _strict_rr
from qspt.partitions import (
    Partition,
    enumerate_partitions,
    frequency,
    is_rogers_ramanujan,
    marks,
    partition_count,
    successive_durfee,
    successive_lower_durfee,
)
from qspt.series import inv_pochhammer_inf

FIGURE = Partition((9, 8, 8, 8, 8, 6, 6, 5, 4, 4, 3))


class TestPartitionType:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize("parts", [(1, 2), (2, 0), (1, 2, 0), (0,), (3, -1)])
    def test_rejection_message_matches_loop(self, parts):
        with pytest.raises(ValueError) as expected:
            partition_oracles.check_parts(parts)
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            Partition(parts)

    def test_n_and_len(self):
        p = Partition((3, 2, 2))
        assert p.n == 7
        assert len(p) == 3

    def test_conjugate(self):
        assert Partition((3, 2, 2)).conjugate() == (3, 3, 1)
        assert Partition(()).conjugate() == ()


class TestEnumeration:
    def test_order_of_four(self):
        got = [p.parts for p in enumerate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_empty(self):
        got = list(enumerate_partitions(0))
        assert len(got) == 1 and got[0].parts == ()

    def test_count_nine(self):
        assert sum(1 for _ in enumerate_partitions(9)) == 30

    @pytest.mark.parametrize("n", range(21))
    def test_counts_match_series(self, n):
        gf = inv_pochhammer_inf(1, 20)
        assert sum(1 for _ in enumerate_partitions(n)) == gf.coefficient(n)
        assert partition_count(n) == gf.coefficient(n)

    def test_no_duplicates(self):
        seen = set()
        for p in enumerate_partitions(12):
            assert p.parts not in seen
            assert p.n == 12
            seen.add(p.parts)

    def test_zs1_matches_rescanning_enumerator(self):
        for n in range(31):
            got = [p.parts for p in enumerate_partitions(n)]
            assert got == list(partition_oracles.partition_tuples(n)), n

    def test_partition_count_sixty(self):
        assert partition_count(60) == 966467


class TestDurfeeChains:
    def test_figure_upper(self):
        assert successive_durfee(FIGURE) == (6, 4, 1)

    def test_figure_lower(self):
        assert successive_lower_durfee(FIGURE) == (3, 5, 3)

    def test_singleton(self):
        assert successive_durfee(Partition((1,))) == (1,)
        assert successive_lower_durfee(Partition((1,))) == (1,)

    def test_square(self):
        assert successive_durfee(Partition((2, 2))) == (2,)
        assert successive_lower_durfee(Partition((2, 2))) == (2,)

    def test_wj_example_lower(self):
        assert successive_lower_durfee(Partition((4, 4, 3, 3, 2)))[:2] == (2, 3)

    def test_empty_chains(self):
        assert successive_durfee(Partition(())) == ()
        assert successive_lower_durfee(Partition(())) == ()

    def test_upper_weakly_decreasing(self):
        for n in range(1, 16):
            for p in enumerate_partitions(n):
                s = successive_durfee(p)
                assert all(a >= b for a, b in zip(s, s[1:]))

    def test_lower_monotone_except_last(self):
        # d_i <= d_{i+1} may fail only at the final step
        for n in range(1, 26):
            for p in enumerate_partitions(n):
                s = successive_lower_durfee(p)
                assert all(a <= b for a, b in zip(s[:-1], s[1:-1]))

    def test_upper_square_sum_bound(self):
        for n in range(1, 16):
            for p in enumerate_partitions(n):
                sides = successive_durfee(p)
                total = sum(d * d for d in sides)
                assert total <= n
                if total == n:
                    # a stack of exact squares: parts are the sides repeated
                    expected = tuple(d for d in sides for _ in range(d))
                    assert p.parts == expected


# weakly decreasing tuples of parts <= 40, at most 40 of them
decreasing_parts = st.lists(st.integers(1, 40), max_size=40).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


class TestChainsAgainstSlicing:
    @given(parts=decreasing_parts)
    @settings(max_examples=300, deadline=None)
    def test_sides_match_slicing(self, parts):
        p = Partition(parts)
        assert successive_durfee(p) == partition_oracles.upper_sides(parts)
        assert successive_lower_durfee(p) == partition_oracles.lower_sides(parts)

    @given(parts=decreasing_parts, s=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_rogers_ramanujan_matches_slicing(self, parts, s):
        p = Partition(parts)
        try:
            expected = partition_oracles.is_rogers_ramanujan(parts, s)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                is_rogers_ramanujan(p, s)
        else:
            assert is_rogers_ramanujan(p, s) is expected


class TestRogersRamanujan:
    def test_spec_example(self):
        assert is_rogers_ramanujan(Partition((2, 2, 1)), 1) is False

    def test_square_is_rr(self):
        assert is_rogers_ramanujan(Partition((3, 3, 3)), 1) is True

    def test_full_chain_vacuous(self):
        p = Partition((4, 4, 3, 3, 2))
        s = len(successive_lower_durfee(p))
        assert is_rogers_ramanujan(p, s) is True

    def test_too_many_squares_rejected(self):
        with pytest.raises(ValueError):
            is_rogers_ramanujan(Partition((1,)), 2)


class TestMarks:
    def test_worked_example(self):
        p = Partition((5, 5, 4, 3, 3, 3))
        assert marks(p) == ((5, 1), (5, 2), (4, 1), (3, 1), (3, 2), (3, 3))

    def test_distinct_parts(self):
        assert marks(Partition((4, 2, 1))) == ((4, 1), (2, 1), (1, 1))

    def test_repeated_ones(self):
        assert marks(Partition((1, 1, 1, 1))) == ((1, 1), (1, 2), (1, 3), (1, 4))


class TestFrequency:
    def test_present(self):
        assert frequency(Partition((3, 3, 2)), 3) == 2

    def test_absent(self):
        assert frequency(Partition((3, 3, 2)), 5) == 0

    def test_conservation(self):
        for p in enumerate_partitions(10):
            values = set(p.parts)
            assert sum(frequency(p, t) * t for t in values) == 10


def _rr_with_full_chain(p):
    # every part consumed by the first s-1 lower squares is at most d_s
    sides = successive_lower_durfee(p)
    if len(sides) <= 1:
        return True
    consumed = sum(sides[:-1])
    return sorted(p.parts)[consumed - 1] <= sides[-1]


class TestChainLemmas:
    def test_lower_equals_reversed_upper_for_rr(self):
        # the lower-Durfee squares of a Rogers-Ramanujan partition form its
        # Durfee squares
        for n in range(1, 31):
            for p in enumerate_partitions(n):
                if not _rr_with_full_chain(p):
                    continue
                lower = successive_lower_durfee(p)
                upper = successive_durfee(p)
                assert tuple(reversed(lower)) == upper, p

    def test_chain_lengths_always_agree(self):
        for n in range(1, 31):
            for p in enumerate_partitions(n):
                assert len(successive_lower_durfee(p)) == len(successive_durfee(p)), p

    def test_lemma_predicate_matches_sorted_copy(self):
        for n in range(1, 23):
            for p in enumerate_partitions(n):
                assert _strict_rr(p, successive_lower_durfee(p)) == _rr_with_full_chain(p), p

    def test_rr_examples(self):
        assert _rr_with_full_chain(Partition((2, 2, 1)))
        assert not _rr_with_full_chain(Partition((2, 2, 2, 1)))
