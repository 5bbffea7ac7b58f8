"""Enumeration, Durfee chains, the Rogers-Ramanujan predicate, and marks."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partition_oracles
from qspt.identities import _count_bad, _strict_rr, verify
from qspt.partitions import (
    Partition,
    _durfee_sides,
    _lower_durfee_sides,
    _walk,
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

    def test_repr(self):
        assert repr(Partition((3, 1, 1))) == "Partition(parts=(3, 1, 1))"
        assert repr(Partition(())) == "Partition(parts=())"

    def test_equality_and_hash(self):
        a, b, c = Partition((2, 1)), Partition((2, 1)), Partition((2, 1, 1))
        assert a == b and hash(a) == hash(b)
        assert a != c and not a == c
        assert {a, b, c} == {a, c}
        assert {a: 1, c: 2}[b] == 1

    @pytest.mark.parametrize("other", [(2, 1), [2, 1], ((2, 1),), "21", None])
    def test_unequal_to_other_types(self, other):
        p = Partition((2, 1))
        assert p != other and not p == other
        assert p.__eq__(other) is NotImplemented

    def test_immutable(self):
        p = Partition((2, 1))
        for attempt in (lambda: setattr(p, "parts", (3,)), lambda: delattr(p, "parts")):
            with pytest.raises(AttributeError):
                attempt()
        assert p.parts == (2, 1)

    def test_new_attribute_raises_attribute_error(self):
        # a frozen slots dataclass raised TypeError here, from its super() call
        with pytest.raises(AttributeError):
            Partition((2, 1)).other = 1

    def test_keyword_construction(self):
        assert Partition(parts=(2, 1)) == Partition((2, 1))
        with pytest.raises(ValueError):
            Partition(parts=(1, 2))

    def test_slots_and_no_dict(self):
        p = Partition((2, 1))
        assert not hasattr(p, "__dict__")
        assert "parts" in Partition.__slots__

    def test_copies_and_pickles(self):
        p = Partition((3, 3, 1))
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and type(twin) is Partition

    def test_n_and_len(self):
        p = Partition((3, 2, 2))
        assert p.n == 7
        assert len(p) == 3

    def test_conjugate(self):
        assert Partition((3, 2, 2)).conjugate() == (3, 3, 1)
        assert Partition(()).conjugate() == ()
        for n in range(16):  # conjugation is an involution
            for p in enumerate_partitions(n):
                assert Partition(p.conjugate()).conjugate() == p.parts


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


class TestWalk:
    """The ZS1 walk and the chain cores that read its working list."""

    def test_matches_rescanning_enumerator(self):
        for n in range(31):
            got = [tuple(a[:m]) for a, m, _ in _walk(n)]
            assert got == list(partition_oracles.partition_tuples(n)), n

    def test_h_is_the_last_part_above_one(self):
        for n in range(31):
            for a, m, h in _walk(n):
                assert -1 <= h < m
                assert all(part > 1 for part in a[:h + 1]), (n, a[:m])
                assert all(part == 1 for part in a[h + 1:m]), (n, a[:m])

    def test_list_past_the_last_part_above_one_is_all_ones(self):
        # the whole working list, not only a[:m]: the one-walk rows read
        # a[:h + 1 + r] for every r up to the order minus the parts > 1
        for n in range(21):
            for a, m, h in _walk(n):
                assert len(a) == n and all(part == 1 for part in a[h + 1:]), (n, a)

    def test_heads_and_ones_give_every_partition_of_every_n_once(self):
        for order in range(21):
            got = {}
            for a, m, h in _walk(order):
                s = sum(a[:h + 1])
                for r in range(order - s + 1):
                    parts = tuple(a[:h + 1 + r])
                    assert parts not in got.setdefault(s + r, set()), parts
                    got[s + r].add(parts)
            assert got == {n: set(partition_oracles.partition_tuples(n))
                           for n in range(order + 1)}, order

    def test_core_chains_match_slicing(self):
        # n = 0 and 1 included; every n ends in its all-ones partition
        for n in range(31):
            for a, m, h in _walk(n):
                parts = tuple(a[:m])
                assert tuple(_durfee_sides(a, m)) == partition_oracles.upper_sides(parts)
                assert tuple(_lower_durfee_sides(a, m)) == partition_oracles.lower_sides(parts)

    @pytest.mark.parametrize("ones", [0, 1, 2, 7, 40])
    def test_all_ones_and_trailing_ones(self, ones):
        for head in ((), (2,), (5, 3, 3), (4, 4, 4, 4, 2)):
            parts = head + (1,) * ones
            assert tuple(_durfee_sides(parts, len(parts))) == partition_oracles.upper_sides(parts)
            assert tuple(_lower_durfee_sides(parts, len(parts))) == \
                partition_oracles.lower_sides(parts)

    def test_trailing_ones_are_unit_squares(self):
        # what the lemma counts and the weight rows rest on: dropping the ones
        # drops the same unit squares from the end of both chains
        for n in range(31):
            for a, m, h in _walk(n):
                ones = [1] * (m - h - 1)
                assert _durfee_sides(a, m) == _durfee_sides(a, h + 1) + ones
                assert _lower_durfee_sides(a, m) == ones + _lower_durfee_sides(a, h + 1)
                assert _strict_rr(a, _lower_durfee_sides(a, m)) == \
                    _strict_rr(a, _lower_durfee_sides(a, h + 1)), a[:m]


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

    def test_matches_counted_marks(self):
        for n in range(21):
            for p in enumerate_partitions(n):
                assert marks(p) == partition_oracles.marks(p.parts), p


class TestFrequency:
    def test_present(self):
        assert frequency(Partition((3, 3, 2)), 3) == 2

    def test_absent(self):
        assert frequency(Partition((3, 3, 2)), 5) == 0

    def test_conservation(self):
        for p in enumerate_partitions(10):
            values = set(p.parts)
            assert sum(frequency(p, t) * t for t in values) == 10


class TestChainLemmas:
    def test_lower_equals_reversed_upper_for_rr(self):
        # the lower-Durfee squares of a Rogers-Ramanujan partition form its
        # Durfee squares
        for n in range(1, 31):
            for p in enumerate_partitions(n):
                if not partition_oracles.strict_rr(p.parts):
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
                lower = successive_lower_durfee(p)
                assert _strict_rr(p.parts, lower) == partition_oracles.strict_rr(p.parts), p

    def test_rr_examples(self):
        assert partition_oracles.strict_rr((2, 2, 1))
        assert not partition_oracles.strict_rr((2, 2, 2, 1))

    @pytest.mark.parametrize("identity,is_bad", [
        ("lemma31", partition_oracles.lemma31_bad),
        ("lemma32", partition_oracles.lemma32_bad),
    ])
    def test_lemma_rows_match_partition_count(self, identity, is_bad):
        _, rows, _ = verify(identity, order=30)
        assert [row[1] for row in rows] == \
            [partition_oracles.count_bad(n, is_bad) for n in range(1, 31)]

    def test_count_over_the_parts_above_one(self):
        # the lemma counts read only the partitions without a part 1; with
        # predicates that hold on some partitions, their rows still count
        # every partition of n
        def strict_rr(a, m):
            return _strict_rr(a, _lower_durfee_sides(a, m))

        def chains_match(a, m):
            return _lower_durfee_sides(a, m)[::-1] == _durfee_sides(a, m)

        for is_bad, oracle in (
            (strict_rr, lambda p: partition_oracles.strict_rr(p.parts)),
            (chains_match, lambda p: partition_oracles.lower_sides(p.parts)[::-1]
             == partition_oracles.upper_sides(p.parts)),
        ):
            counts = [row[1] for row in _count_bad(30, is_bad)]
            assert counts == [partition_oracles.count_bad(n, oracle) for n in range(1, 31)]
            assert counts[-1] > 0
