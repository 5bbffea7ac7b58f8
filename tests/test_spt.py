"""The four smallest-part families: weights, generating functions, relations."""

import copy
import functools
import pickle
import sys
import time

import pytest

import partition_oracles
import tuple_sums
from qspt import spt as sptmod
from qspt import stats
from qspt.partitions import Partition, enumerate_partitions, partition_count
from qspt.series import TruncSeries, inv_pochhammer_inf, read_down
from qspt.spt import (
    FAMILIES,
    WEIGHT_N_MAX,
    SptRequest,
    _spt_weight_row,
    appbp_sides,
    chain_weight,
    gf_genn1_lhs,
    gf_genn1_rhs,
    gf_jspt_k,
    gf_np,
    gf_spt,
    gf_spt_j,
    gf_spt_k,
    jspt_k,
    mark_weight,
    relation_sum,
    split_chain_weight,
    spt_j,
    spt_k,
    spt_weight,
    verify_appbp,
)
from qspt.stats import moment, sym_mu


@functools.lru_cache(maxsize=None)
def _count_min_parts_recursive(v, lo):
    """The former recursive count, kept as the oracle for the iterative table."""
    if v == 0:
        return 1
    if lo > v:
        return 0
    return _count_min_parts_recursive(v - lo, lo) + _count_min_parts_recursive(v, lo + 1)


class TestSptWeight:
    def test_small_values(self):
        assert [spt_weight(n) for n in (1, 2, 3, 4, 5)] == [1, 3, 5, 10, 14]

    def test_min_part_counts_match_recursion(self):
        for v in range(301):
            for lo in (1, 2, 3, v // 2 + 1, v, v + 1, v + 2):
                if lo >= 1:
                    assert partition_oracles.count_min_parts(v, lo) == \
                        _count_min_parts_recursive(v, lo), (v, lo)

    def test_matches_recursive_oracle(self):
        for n in range(1, 301):
            expected = sum(m * _count_min_parts_recursive(n - m * s, s + 1)
                           for s in range(1, n + 1) for m in range(1, n // s + 1))
            assert spt_weight(n) == expected, n

    def test_large_n(self):
        # the recursive count overflowed the stack from n = 494
        assert spt_weight(600) == 8888411766488029369776182

    def test_matches_enumeration(self):
        for n in range(1, 26):
            direct = 0
            for p in enumerate_partitions(n):
                smallest = p.parts[-1]
                direct += sum(1 for x in p.parts if x == smallest)
            assert spt_weight(n) == direct, n

    def test_gf_agrees(self):
        # route "all" raises DiscrepancyError where the weight and gf routes differ
        values = SptRequest("spt", 1000, route="all").values()
        assert values == list(gf_spt(1000).coeffs[1:])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            spt_weight(0)

    def test_row_matches_min_part_table(self):
        row = _spt_weight_row(1, 600)
        for n in range(1, 601):
            assert row.coefficient(n) == partition_oracles.spt_weight(n), n

    def test_request_builds_row_once(self):
        _spt_weight_row.cache_clear()
        SptRequest("spt", 600).values()
        assert _spt_weight_row.cache_info().misses == 1

    def test_read_order_does_not_matter(self):
        _spt_weight_row.cache_clear()
        ascending = [spt_weight(n) for n in range(1, 201)]
        _spt_weight_row.cache_clear()
        descending = [spt_weight(n) for n in range(200, 0, -1)]
        assert ascending == descending[::-1]


class TestMarkWeight:
    def test_figure_example(self):
        p = Partition((9, 8, 8, 8, 8, 6, 6, 5, 4, 4, 3))
        assert mark_weight(p, 3) == 17

    def test_second_example(self):
        assert mark_weight(Partition((4, 4, 3, 3, 2)), 3) == 7

    def test_third_example(self):
        assert mark_weight(Partition((4, 4)), 3) == 3

    def test_j1_is_smallest_multiplicity(self):
        for p in enumerate_partitions(9):
            smallest = p.parts[-1]
            assert mark_weight(p, 1) == sum(1 for x in p.parts if x == smallest)

    def test_empty(self):
        assert mark_weight(Partition(()), 2) == 0

    def test_matches_marks_tuple(self):
        # every level, the cut top block and the levels past the last square
        for n in range(1, 15):
            for p in enumerate_partitions(n):
                for j in range(1, len(partition_oracles.lower_sides(p.parts)) + 3):
                    assert mark_weight(p, j) == partition_oracles.mark_weight(p, j), (p, j)


class TestSptJ:
    def test_spt1_is_spt(self):
        for n in range(1, 31):
            assert spt_j(1, n, "moments") == spt_weight(n)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_three_routes(self, j):
        for n in range(1, 23):
            assert spt_j(j, n, "all") == spt_j(j, n, "moments")

    def test_gf_extended_range(self):
        for j in (1, 2, 3, 4):
            tuple_sums.clear_memos()
            gf = gf_spt_j(j, 120)
            for n in range(1, 121):
                assert gf.coefficient(n) == spt_j(j, n, "moments"), (j, n)

    def test_large_j_is_np(self):
        assert spt_j(5, 4, "moments") == 4 * partition_count(4)
        for n in range(1, 13):
            assert spt_j(n + 1, n, "moments") == n * partition_count(n)

    def test_monotone_in_j(self):
        for n in range(1, 15):
            values = [spt_j(j, n, "moments") for j in range(1, n + 2)]
            assert values == sorted(values)
            assert values[-1] == n * partition_count(n)

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            spt_j(1, 3, "magic")


class TestGenn1:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_sides_equal(self, j):
        tuple_sums.clear_memos()
        assert gf_genn1_lhs(j, 300) == gf_genn1_rhs(j, 300) == gf_spt_j(j, 300)

    def test_rhs_equals_spt_sum(self):
        for j in (1, 2, 3):
            assert gf_genn1_rhs(j, 20) == gf_spt_j(j, 20)

    def test_np_series(self):
        # oracle: 1/(q)_inf * sum n q^n/(1-q^n), the divisor sums by a sieve
        order = 300
        sigma = [0] * (order + 1)
        for n in range(1, order + 1):
            for e in range(n, order + 1, n):
                sigma[e] += n
        expected = TruncSeries(sigma) * inv_pochhammer_inf(1, order)
        for o in (10, order):
            assert gf_np(o) == expected.truncate(o)

    def test_large_j_coefficients(self):
        gf = gf_genn1_rhs(9, 9)
        for n in range(1, 9):
            assert gf.coefficient(n) == n * partition_count(n)

    @pytest.mark.parametrize("j", [0, -3])
    def test_rejects_nonpositive_j(self, j):
        # at j = 0 the left side was nonzero and the right side zero, so the
        # sides disagreed silently; at j = -3 the right side failed on a shift
        for builder in (gf_genn1_lhs, gf_genn1_rhs):
            with pytest.raises(ValueError, match="j must be >= 1"):
                builder(j, 5)

    def test_one_expansion_of_the_symmetrized_sum(self, monkeypatch):
        # stats._sym_mu_column alone expands the symmetrized-moment sum: with it
        # broken, its series and the genn1 and appbp right sides fail, and the
        # genn1 left side and the Spt_j sum, the independent sides, still build
        def broken(*args):
            raise RuntimeError("symmetrized column")

        column, patched = stats._sym_mu_column, set()
        for name, mod in list(sys.modules.items()):
            if name.startswith("qspt") and getattr(mod, "_sym_mu_column", None) is column:
                monkeypatch.setattr(mod, "_sym_mu_column", broken)
                patched.add(name)
        assert patched >= {"qspt.stats", "qspt.spt"}
        tuple_sums.clear_memos()  # so that every builder runs with the broken column
        for j in (1, 2, 3):
            for call in (lambda: stats.gf_sym_mu(j, 1, 20), lambda: gf_genn1_rhs(j, 20),
                         lambda: appbp_sides(j, 2, 20)):
                with pytest.raises(RuntimeError, match="symmetrized column"):
                    call()
            gf_genn1_lhs(j, 20)
            gf_spt_j(j, 20)


class TestChainWeight:
    def test_k1_is_multiplicity(self):
        for p in enumerate_partitions(8):
            smallest = p.parts[-1]
            assert chain_weight(p, 1) == sum(1 for x in p.parts if x == smallest)

    def test_pair_of_ones(self):
        # only the composition (2) with t_1 = 1 contributes: binom(2+1, 3) = 1
        assert chain_weight(Partition((1, 1)), 2) == 1

    def test_sum_matches_moment_difference(self):
        for k in (1, 2, 3):
            for n in range(1, 13):
                total = partition_oracles.spt_k_weight(k, n)
                assert total == sym_mu(1, 2 * k, n) - sym_mu(2, 2 * k, n), (k, n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chain_weight(Partition(()), 1)


class TestSptK:
    def test_k1_is_spt(self):
        assert gf_spt_k(1, 25) == gf_spt(25)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_three_routes(self, k):
        for n in range(1, 17):
            assert spt_k(k, n, "all") == spt_k(k, n, "moments")

    def test_row_matches_enumeration(self):
        for k in range(1, 7):
            row = _spt_weight_row(k, 30)
            for n in range(1, 31):
                assert row.coefficient(n) == partition_oracles.spt_k_weight(k, n), (k, n)

    def test_row_at_k_near_n(self):
        # spt_n(n) = 1 (the one partition n = 1 + ... + 1); spt_k(n) = 0 for k > n
        for n in range(1, 31):
            for k in (n, n + 1):
                expected = partition_oracles.spt_k_weight(k, n)
                assert _spt_weight_row(k, n).coefficient(n) == expected == int(k == n), (k, n)

    def test_row_matches_gf(self):
        for k in (1, 2, 3):
            assert _spt_weight_row(k, 300) == gf_spt_k(k, 300), k

    def test_row_with_k_above_the_order_is_zero_at_once(self):
        start = time.perf_counter()
        assert _spt_weight_row(10 ** 12, 300) == TruncSeries.zero(300)
        assert time.perf_counter() - start < 1


class TestSplitChainWeight:
    def test_j1_reduces_to_chain_weight(self):
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                for k in (1, 2):
                    assert split_chain_weight(p, 1, k) == chain_weight(p, k)

    def test_telescoping_recovers_mark_weight(self):
        # summing the k=1 split weights over j = 1..s+1 tiles the diagram
        # bottom-up and reproduces the mark weight
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                for j in (1, 2, 3):
                    total = sum(split_chain_weight(p, ell, 1) for ell in range(1, j + 1))
                    assert total == mark_weight(p, j), (p, j)

    def test_empty(self):
        assert split_chain_weight(Partition(()), 2, 1) == 0

    def test_level_ranges_read_the_same_levels(self):
        # s squares give s + 1 levels, none read past them; the k = 1 levels
        # sum every mark; any range lo..hi is that slice of the full read
        for n in range(13):
            for p in enumerate_partitions(n):
                parts, m = p.parts, len(p.parts)
                levels = len(partition_oracles.lower_sides(parts)) + 1
                for k in (1, 2, 3):
                    full = sptmod._level_weights(parts, m, k, 1, 10**12)
                    assert len(full) == levels, (p, k)
                    if k == 1:
                        assert sum(full) == sum(c for _, c in partition_oracles.marks(parts))
                    for lo in range(1, levels + 2):
                        for hi in range(lo - 1, levels + 2):
                            assert sptmod._level_weights(parts, m, k, lo, hi) == \
                                full[lo - 1:hi], (p, k, lo, hi)


class TestJsptK:
    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_three_routes(self, j, k):
        for n in range(1, 13):
            assert jspt_k(j, k, n, "all") == jspt_k(j, k, n, "moments")

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_both_gf_forms(self, j, k):
        tuple_sums.clear_memos()
        nested = gf_jspt_k(j, k, 80, "nested")
        assert nested == gf_jspt_k(j, k, 80, "binomial")
        for n in range(1, 81):
            assert nested.coefficient(n) == jspt_k(j, k, n, "moments"), n

    def test_both_gf_forms_order_200(self):
        tuple_sums.clear_memos()
        nested = gf_jspt_k(3, 2, 200, "nested")
        assert nested == gf_jspt_k(3, 2, 200, "binomial")
        for n in range(1, 201):
            assert nested.coefficient(n) == jspt_k(3, 2, n, "moments"), n

    def test_j1_is_spt_k(self):
        for k in (1, 2, 3):
            assert gf_jspt_k(1, k, 18) == gf_spt_k(k, 18)

    def test_lowest_nonzero_coefficient(self):
        # the minimal exponent of the nested sum is (j-1) + k, attained once
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                start = k + j - 1
                gf = gf_jspt_k(j, k, start + 2)
                for n in range(1, start):
                    assert gf.coefficient(n) == 0, (j, k, n)
                assert gf.coefficient(start) == 1, (j, k)

    def test_moment_route_values(self):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                for n in range(1, 16):
                    expected = sym_mu(j, 2 * k, n) - sym_mu(j + 1, 2 * k, n)
                    assert jspt_k(j, k, n, "moments") == expected

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            gf_jspt_k(1, 1, 5, "other")


class TestAppbp:
    @pytest.mark.parametrize("r,k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_identity(self, r, k):
        assert verify_appbp(r, k, 16)

    @pytest.mark.parametrize("r,k", [(1, 2), (2, 3)])
    def test_identity_order_100(self, r, k):
        tuple_sums.clear_memos()
        assert verify_appbp(r, k, 100)

    def test_sides_share_low_coefficients(self):
        lhs, rhs = appbp_sides(2, 1, 10)
        assert lhs.coefficient(0) == rhs.coefficient(0) == 0


class TestRelations:
    def test_relation_sum(self):
        for j in (1, 2, 3):
            for n in range(1, 13):
                assert relation_sum(j, n) == spt_j(j, n, "moments")

    def test_relation_sum_at_huge_j_stops_at_n(self, monkeypatch):
        # lspt_1(n) = 0 for l > n: the telescoping sum reads at most n terms
        calls, real = [], sptmod.jspt_k

        def counted(*args):
            calls.append(args)
            if len(calls) > 100:
                raise AssertionError("relation_sum read jspt_k past l = n")
            return real(*args)

        monkeypatch.setattr(sptmod, "jspt_k", counted)
        assert relation_sum(10 ** 12, 30) == 30 * partition_count(30)
        assert len(calls) <= 30

    def test_jspt1_is_spt_difference(self):
        for j in (2, 3):
            for n in range(1, 16):
                expected = spt_j(j, n, "moments") - spt_j(j - 1, n, "moments")
                assert jspt_k(j, 1, n, "moments") == expected

    def test_spt_difference_via_moments(self):
        for j in (2, 3):
            for n in range(1, 21):
                diff = moment(j, 2, n) - moment(j + 1, 2, n)
                assert diff % 2 == 0
                lhs = spt_j(j, n, "moments") - spt_j(j - 1, n, "moments")
                assert lhs == diff // 2

    def test_nonnegative_values(self):
        for j in (1, 2):
            for k in (1, 2):
                for n in range(1, 16):
                    assert jspt_k(j, k, n, "moments") >= 0


class TestWeightRoutesAgainstOracles:
    """The weight routes read one row per order, built by one walk of the
    order's partitions; the oracles sum the plain weights over the Partition
    objects of each n (tests/partition_oracles.py).  At j = 4 and 5 many
    partitions have fewer than j - 1 lower-Durfee squares."""

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_spt_j_weight_route(self, j):
        route = FAMILIES["Spt_j"].routes["weight"]
        for n in range(1, 31):
            assert route(j, n) == partition_oracles.spt_j_weight(j, n), (j, n)

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_jspt_k_weight_route(self, j):
        route = FAMILIES["jspt_k"].routes["weight"]
        for n in range(1, 31):
            expected = partition_oracles.jspt_k_weights(j, n, range(1, 7))
            assert [route(j, k, n) for k in range(1, 7)] == expected, (j, n)

    @pytest.mark.parametrize("j,k", [(2, 3), (3, 1)])
    def test_jspt_k_weight_route_at_the_limit(self, j, k):
        route = FAMILIES["jspt_k"].routes["weight"]
        expected = partition_oracles.jspt_k_weights(j, WEIGHT_N_MAX, [k])
        assert [route(j, k, WEIGHT_N_MAX)] == expected

    def test_spt_j_weight_route_at_the_limit(self):
        route = FAMILIES["Spt_j"].routes["weight"]
        assert route(3, WEIGHT_N_MAX) == partition_oracles.spt_j_weight(3, WEIGHT_N_MAX)

    @pytest.mark.parametrize("j", [2, 5, 41, 10**12])
    def test_weight_routes_at_the_limit_at_any_level(self, j):
        # from j = 5 on, many states weigh their levels past h + 2 as one
        tuple_sums.clear_memos()
        assert spt_j(j, WEIGHT_N_MAX, "weight") == \
            partition_oracles.spt_j_weight(j, WEIGHT_N_MAX)
        assert jspt_k(j, 2, WEIGHT_N_MAX, "weight") == \
            partition_oracles.jspt_k_weights(j, WEIGHT_N_MAX, [2])[0]

    def test_levels_past_every_square_weigh_once_per_state(self, monkeypatch):
        # a[:h + 1] has at most h + 2 levels, so no level from h + 3 on holds a
        # split part: at most one core call per state of the walk, for no level
        # past h + 2, where each level was weighed on its own in 215,308 calls
        calls, real = [], sptmod._level_weights

        def counted(a, m, k, lo, hi):
            calls.append((m, lo, hi))
            return real(a, m, k, lo, hi)

        monkeypatch.setattr(sptmod, "_level_weights", counted)
        tuple_sums.clear_memos()
        for family, params in (("Spt_j", (10**12,)), ("jspt_k", (10**12, 2))):
            calls.clear()
            route = FAMILIES[family].routes["weight"]
            values = read_down(lambda n: route(*params, n), 1, WEIGHT_N_MAX)
            assert len(calls) <= partition_count(WEIGHT_N_MAX), family
            assert all(hi <= m + 1 for m, lo, hi in calls), family  # h + 2 = m + 1
        # every split level lies past h + 2: no state is weighed at all
        assert values == [0] * WEIGHT_N_MAX and calls == []

    @pytest.mark.parametrize("family,params", [("Spt_j", (2,)), ("Spt_j", (5,)),
                                               ("jspt_k", (2, 3)), ("jspt_k", (4, 6))])
    def test_read_down_and_ascending_agree(self, family, params):
        # a row built at 30 answers every smaller n; one extended to each n in
        # turn, or by a jump past j, gives the same values
        route = FAMILIES[family].routes["weight"]
        tuple_sums.clear_memos()
        down = [route(*params, n) for n in range(30, 0, -1)][::-1]
        tuple_sums.clear_memos()
        assert [route(*params, n) for n in range(1, 31)] == down
        tuple_sums.clear_memos()
        reads = (3, 13, 12, 30)
        assert [route(*params, n) for n in reads] == [down[n - 1] for n in reads]

    def test_ascending_reads_walk_no_order_above_the_one_asked(self, monkeypatch):
        # a miss builds the row at the order asked, never at twice the order
        # held as series.memo does: p(80) is about 1.6e7 partitions
        asked, walk = [], sptmod._walk
        monkeypatch.setattr(sptmod, "_walk", lambda n: asked.append(n) or walk(n))
        tuple_sums.clear_memos()
        for n in range(1, 41):
            spt_j(2, n, "weight")
        assert asked and max(asked) <= 40

    @pytest.mark.parametrize("stop", ["_walk", "_level_weights"])
    @pytest.mark.parametrize("family,params", [("Spt_j", (2,)), ("jspt_k", (2, 3))])
    def test_an_interrupted_build_keeps_the_row_it_had(self, family, params, stop,
                                                       monkeypatch):
        # a build stopped partway through the walk or inside the weight core
        # (Ctrl-C, a MemoryError) stores nothing: the next read builds again
        route = FAMILIES[family].routes["weight"]
        oracle = {"Spt_j": partition_oracles.spt_j_weight,
                  "jspt_k": lambda j, k, n: partition_oracles.jspt_k_weights(j, n, [k])[0]}
        tuple_sums.clear_memos()
        route(*params, 12)
        real = getattr(sptmod, stop)

        def walk_stopped(n):
            for i, state in enumerate(real(n)):
                if i == 300:
                    raise MemoryError
                yield state

        calls = []

        def weight_stopped(*args):
            calls.append(args)
            if len(calls) == 300:
                raise MemoryError
            return real(*args)

        monkeypatch.setattr(sptmod, stop, walk_stopped if stop == "_walk" else weight_stopped)
        with pytest.raises(MemoryError):
            route(*params, 25)
        monkeypatch.undo()
        for n in (25, 20, 12, 13, 30):
            assert route(*params, n) == oracle[family](*params, n), n


class TestLargerPartSweep:
    """A partition's ones are its first lower-Durfee squares, each of side 1: the
    Spt_j and jspt_k weight rows read the smallest-part sweep for the partitions
    with at least j - 1 ones and weigh each set of parts > 1 once for the rest."""

    def test_ones_shift_the_weights_down(self):
        # every P into parts > 1 with r ones: below level j the ones only move the
        # weight down r levels (and add their marks 1..r); from level j on the one
        # split part is a one, which weighs as in spt_k with r - j + 1 ones
        for s in range(17):
            for p in enumerate_partitions(s):
                if 1 in p.parts:
                    continue
                for r in range(8):
                    with_ones = Partition(p.parts + (1,) * r)
                    for j in range(1, 7):
                        if r < j:
                            assert mark_weight(with_ones, j) == \
                                mark_weight(p, j - r) + r * (r + 1) // 2, (p, r, j)
                        for k in range(1, 5):
                            expected = (split_chain_weight(p, j - r, k) if r < j else
                                        chain_weight(Partition(p.parts + (1,) * (r - j + 1)), k))
                            assert split_chain_weight(with_ones, j, k) == expected, (p, r, j, k)

    def test_mark_weight_row_reads_no_larger_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Spt_j weight row read _larger_product")

        monkeypatch.setattr(sptmod, "_larger_product", refuse)
        tuple_sums.clear_memos()
        assert spt_j(3, WEIGHT_N_MAX, "weight") == spt_j(3, WEIGHT_N_MAX, "moments")

    def test_huge_k_builds_at_most_order_over_2_plus_1_rows(self):
        # k above the order builds no row of the sweep at all
        tuple_sums.clear_memos()
        assert jspt_k(2, 10 ** 12, WEIGHT_N_MAX, "weight") == 0
        assert _spt_weight_row(10 ** 12, WEIGHT_N_MAX) == TruncSeries.zero(WEIGHT_N_MAX)

    def test_j_1_walks_no_partition(self, monkeypatch):
        # at j = 1 every partition has at least j - 1 ones: the spt and spt_k rows
        def refuse(n):
            raise AssertionError("a weight route at j = 1 walked the partitions")

        monkeypatch.setattr(sptmod, "_walk", refuse)
        tuple_sums.clear_memos()
        assert spt_j(1, WEIGHT_N_MAX, "weight") == spt_j(1, WEIGHT_N_MAX, "moments")
        assert jspt_k(1, 3, WEIGHT_N_MAX, "weight") == jspt_k(1, 3, WEIGHT_N_MAX, "moments")

    def test_j_2_weighs_each_set_of_parts_above_1_once(self, monkeypatch):
        # at j = 2 only the partitions without a one are weighed: the P of every
        # sum s <= 40, as many as the partitions of 40, by one core call each but
        # for the empty P, which has no level 2; at k = 3 neither are the 39 P of
        # one part nor the 361 of two, whose split weights are all 0
        weight = sptmod._level_weights
        tuple_sums.clear_memos()
        for family, params, fewest, count in (("Spt_j", (2,), 1, 37337),
                                              ("jspt_k", (2, 3), 3, 36937)):
            sets = []

            def counted(a, m, k, lo, hi):
                sets.append(tuple(a[:m]))
                return weight(a, m, k, lo, hi)

            monkeypatch.setattr(sptmod, "_level_weights", counted)
            routes = FAMILIES[family].routes
            assert routes["weight"](*params, WEIGHT_N_MAX) == \
                routes["moments"](*params, WEIGHT_N_MAX)
            assert len(set(sets)) == len(sets) == count
            assert min(map(min, sets)) == 2 and min(map(len, sets)) == fewest, family
        assert partition_count(WEIGHT_N_MAX) - 1 == 37337 == 36937 + 39 + 361

    def test_k_above_every_set_of_parts_weighs_no_state(self, monkeypatch):
        # a split term's degree in x is at most the number of parts of P, so no
        # state of the walk has a nonzero split weight at k = 10**12
        calls, weight = [], sptmod._level_weights
        monkeypatch.setattr(sptmod, "_level_weights",
                            lambda *args: calls.append(args) or weight(*args))
        tuple_sums.clear_memos()
        route = FAMILIES["jspt_k"].routes["weight"]
        assert [route(2, 10**12, n) for n in range(1, 13)] == [0] * 12
        assert route(2, 10**12, WEIGHT_N_MAX) == 0 and calls == []
        monkeypatch.undo()
        # the row skips no state whose parts reach k: pinned to the oracle at each k
        for k in range(1, 7):
            tuple_sums.clear_memos()
            assert [route(3, k, n) for n in range(1, 13)] == \
                [partition_oracles.jspt_k_weights(3, n, [k])[0] for n in range(1, 13)], k


class TestCompositions:
    def test_oracle_enumerates_every_composition(self):
        for k in range(1, 9):
            comps = list(partition_oracles.all_compositions(k))
            assert len(set(comps)) == len(comps) == 2 ** (k - 1)
            assert all(sum(c) == k and min(c) >= 1 for c in comps)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_weights_match_unbounded_enumeration(self, k):
        # the oracle sums every composition of k; at j = 1 its one split part
        # is the bottom smallest part, so it is also chain_weight's oracle.
        # Every level, the cut top block and the levels past the last square.
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                for j in range(1, len(partition_oracles.lower_sides(p.parts)) + 3):
                    expected = partition_oracles.split_chain_weight(p, j, k)
                    assert split_chain_weight(p, j, k) == expected, (p, j, k)
                    if j == 1:
                        assert chain_weight(p, k) == expected, (p, k)

    def test_k_above_the_number_of_parts_is_zero(self):
        # of the 2**19 compositions of 20, none has at most 3 pieces <= 3
        for p in enumerate_partitions(3):
            assert chain_weight(p, 20) == 0 and split_chain_weight(p, 1, 20) == 0
        assert spt_k(1100, 2, "weight") == 0
        # the product is cut at the degree the larger parts can reach, not at k
        assert split_chain_weight(Partition((3, 2, 2, 1)), 2, 10 ** 12) == 0


class TestChainRecursions:
    """Each nested-sum builder, built from empty memos, equals the per-tuple sum
    it replaced (tests/tuple_sums.py)."""

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_spt_j_and_genn1_lhs(self, j):
        tuple_sums.clear_memos()
        assert gf_spt_j(j, 30) == tuple_sums.gf_spt_j(j, 30)
        tuple_sums.clear_memos()
        assert gf_genn1_lhs(j, 30) == tuple_sums.gf_genn1_lhs(j, 30)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_jspt_k_forms_and_appbp_sides(self, j, k):
        for form in ("nested", "binomial"):
            tuple_sums.clear_memos()
            assert gf_jspt_k(j, k, 30, form) == tuple_sums.gf_jspt_k(j, k, 30, form)
        tuple_sums.clear_memos()
        lhs, rhs = appbp_sides(j, k, 30)  # r = j
        chain_lhs, chain_rhs = tuple_sums.appbp_chain_sums(j, k, 30)
        correction = tuple_sums.signed_sum(
            lambda n: n * (n - 1) // 2 + j * n * n + k * n, 2 * k, 30)
        assert lhs == chain_lhs and rhs == chain_rhs + correction

    def test_chains_longer_than_the_order(self):
        # a square chain from 0 takes any number of leading zeros: more levels
        # than the order change nothing, so j = 1000 costs no more than j = 6
        for j in (8, 9):
            tuple_sums.clear_memos()
            assert gf_spt_j(j, 6) == tuple_sums.gf_spt_j(j, 6)
            assert gf_genn1_lhs(j, 6) == tuple_sums.gf_genn1_lhs(j, 6)
        assert list(gf_spt_j(1000, 5).coeffs[1:]) == [spt_j(1000, n, "moments")
                                                      for n in range(1, 6)]
        # every chain of indices >= 1 weighs at least its length
        assert gf_spt_k(1100, 300) == TruncSeries.zero(300)
        assert gf_jspt_k(1000, 2, 5) == gf_jspt_k(7, 2, 5, "binomial") == TruncSeries.zero(5)


class TestSptRequest:
    def test_repr(self):
        assert repr(SptRequest("Spt_j", 4, j=2)) == \
            "SptRequest(family='Spt_j', n_max=4, j=2, k=None, route='moments')"
        assert repr(SptRequest("jspt_k", 5, j=2, k=1, route="gf")) == \
            "SptRequest(family='jspt_k', n_max=5, j=2, k=1, route='gf')"

    def test_equality_and_hash(self):
        a = SptRequest("spt_k", 6, k=2)
        b = SptRequest("spt_k", 6, k=2, route="moments")  # the default, spelled out
        c = SptRequest("spt_k", 6, k=2, route="gf")
        assert a == b and hash(a) == hash(b)
        assert a != c and not a == c
        assert SptRequest("spt_k", 7, k=2) != a and SptRequest("spt_k", 6, k=3) != a
        assert {a, b, c} == {a, c}
        assert {a: 1, c: 2}[b] == 1

    @pytest.mark.parametrize("other", [("spt", 5, None, None, "weight"), "spt", None])
    def test_unequal_to_other_types(self, other):
        req = SptRequest("spt", 5)
        assert req != other and not req == other
        assert req.__eq__(other) is NotImplemented

    def test_immutable(self):
        req = SptRequest("spt", 5)
        for attempt in (lambda: setattr(req, "n_max", 6), lambda: delattr(req, "route"),
                        lambda: setattr(req, "other", 1)):
            with pytest.raises(AttributeError):
                attempt()
        assert (req.n_max, req.route) == (5, "weight")

    def test_copies_and_pickles(self):
        req = SptRequest("jspt_k", 5, j=2, k=1, route="gf")
        for twin in (copy.copy(req), copy.deepcopy(req), pickle.loads(pickle.dumps(req))):
            assert twin == req and type(twin) is SptRequest

    def test_keyword_and_positional_construction(self):
        by_keyword = SptRequest(family="jspt_k", n_max=5, j=2, k=1, route="gf")
        assert by_keyword == SptRequest("jspt_k", 5, 2, 1, "gf")
        assert (by_keyword.family, by_keyword.n_max, by_keyword.j, by_keyword.k) == \
            ("jspt_k", 5, 2, 1)

    @pytest.mark.parametrize("family,params,route", [
        ("p", {}, "recurrence"), ("spt", {}, "weight"), ("spt_k", {"k": 2}, "moments"),
        ("Spt_j", {"j": 2}, "moments"), ("jspt_k", {"j": 2, "k": 1}, "moments"),
    ])
    def test_route_default_resolution(self, family, params, route):
        for req in (SptRequest(family, 5, **params), SptRequest(family, 5, route=None, **params)):
            assert req.route == route
        assert SptRequest(family, 5, route="all", **params).route == "all"

    def test_valid(self):
        req = SptRequest("Spt_j", 4, j=1)
        assert req.values() == [1, 3, 5, 10]

    def test_p_family(self):
        assert SptRequest("p", 4).values() == [1, 2, 3, 5]

    def test_jspt_values(self):
        got = SptRequest("jspt_k", 5, j=2, k=1).values()
        expected = [
            spt_j(2, n, "moments") - spt_j(1, n, "moments") for n in range(1, 6)
        ]
        assert got == expected

    def test_rejects_inconsistent_parameters(self):
        with pytest.raises(ValueError):
            SptRequest("spt", 5, j=1)
        with pytest.raises(ValueError):
            SptRequest("Spt_j", 5)
        with pytest.raises(ValueError):
            SptRequest("jspt_k", 5, j=1)
        with pytest.raises(ValueError):
            SptRequest("Spt_j", 5, j=0)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            SptRequest("other", 5)

    def test_rejects_bad_route(self):
        with pytest.raises(ValueError):
            SptRequest("spt", 5, route="magic")

    @pytest.mark.parametrize("family,route", [
        ("spt", "moments"), ("p", "moments"), ("p", "gf"),
    ])
    def test_rejects_route_family_lacks(self, family, route):
        with pytest.raises(ValueError):
            SptRequest(family, 5, route=route)

    @pytest.mark.parametrize("family,params", [
        ("Spt_j", {"j": 2}), ("jspt_k", {"j": 2, "k": 1}),
    ])
    def test_enumerating_routes_are_limited(self, family, params):
        for route in ("weight", "all"):
            SptRequest(family, WEIGHT_N_MAX, route=route, **params)  # built, not run
            with pytest.raises(ValueError, match="enumerates partitions"):
                SptRequest(family, WEIGHT_N_MAX + 1, route=route, **params)
        assert SptRequest(family, WEIGHT_N_MAX + 1, route="gf", **params).route == "gf"

    def test_spt_weight_route_is_not_limited(self):
        n_max = WEIGHT_N_MAX + 1
        assert SptRequest("spt", n_max, route="weight").values() == \
            SptRequest("spt", n_max, route="gf").values()
        assert SptRequest("spt_k", n_max, k=2, route="weight").values() == \
            SptRequest("spt_k", n_max, k=2, route="gf").values()

    def test_default_route_is_first(self):
        for family, fam in FAMILIES.items():
            params = {name: 1 for name in fam.params}
            assert SptRequest(family, 3, **params).route == next(iter(fam.routes))

    @pytest.mark.parametrize("family,params", [
        ("p", {}), ("spt", {}), ("spt_k", {"k": 2}), ("Spt_j", {"j": 2}),
        ("jspt_k", {"j": 2, "k": 1}),
    ])
    def test_every_route_agrees(self, family, params):
        default = SptRequest(family, 10, **params).values()
        for route in (*FAMILIES[family].routes, "all"):
            assert SptRequest(family, 10, route=route, **params).values() == default
