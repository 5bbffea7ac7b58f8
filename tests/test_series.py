"""Ring axioms, inversion, Pochhammer and Gaussian-binomial oracles, the memo."""

import functools
import importlib.util
import inspect
import itertools
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qspt
from cli_runner import CliRunner
from qspt import cli, identities, laurent, partitions, series, spt, stats
from qspt.series import (
    TruncSeries,
    gauss_binomial,
    inv_one_minus,
    inv_pochhammer_finite,
    inv_pochhammer_inf,
    pochhammer_finite,
    pochhammer_inf,
)
from tuple_sums import (
    chain_gf_per_end,
    difference_link,
    link_sum,
    link_sums_per_end,
    weighted_tuples,
)

ORDER = 8

series_strategy = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=ORDER + 1, max_size=ORDER + 1
).map(TruncSeries)


def naive_convolution(a, b):
    n = min(a.order, b.order)
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return TruncSeries(out)


class TestRingAxioms:
    @given(series_strategy, series_strategy)
    @settings(max_examples=60)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(series_strategy, series_strategy)
    @settings(max_examples=60)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=60)
    def test_mul_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=60)
    def test_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(series_strategy, series_strategy)
    @settings(max_examples=60)
    def test_mul_matches_naive_convolution(self, a, b):
        assert a * b == naive_convolution(a, b)

    @given(series_strategy)
    @settings(max_examples=30)
    def test_identities(self, a):
        assert a + TruncSeries.zero(ORDER) == a
        assert a * TruncSeries.one(ORDER) == a
        assert a - a == TruncSeries.zero(ORDER)


class TestBasicOps:
    def test_add_example(self):
        a = TruncSeries([1, 1, 0])
        b = TruncSeries([1, -1, 0])
        assert (a + b).coeffs == (2, 0, 0)

    def test_sub_example(self):
        a = TruncSeries([1, -1, -1, 1])
        b = TruncSeries([1, -1, 0, 0])
        assert (a - b).coeffs == (0, 0, -1, 1)

    def test_mul_example(self):
        a = TruncSeries([1, -1, 0, 0])
        b = TruncSeries([1, 0, -1, 0])
        assert (a * b).coeffs == (1, -1, -1, 1)

    def test_min_order_rule(self):
        a = TruncSeries([1, 2, 3])
        b = TruncSeries([1, 1, 1, 1, 1])
        assert (a + b).order == 2
        assert (a * b).order == 2

    def test_shift(self):
        a = TruncSeries([1, 2, 3])
        assert a.shift(1).coeffs == (0, 1, 2)
        assert a.shift(5).coeffs == (0, 0, 0)

    def test_coefficient_out_of_range(self):
        with pytest.raises(IndexError):
            TruncSeries([1, 2]).coefficient(2)

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError):
            TruncSeries([1, 2]).truncate(5)


class TestInverse:
    def test_geometric(self):
        a = TruncSeries([1, -1, 0, 0, 0])
        assert a.inverse().coeffs == (1, 1, 1, 1, 1)

    def test_one(self):
        assert TruncSeries.one(4).inverse() == TruncSeries.one(4)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries([2, 1]).inverse()

    def test_partition_numbers(self):
        # 1/(q)_inf enumerates partitions
        inv = inv_pochhammer_inf(1, 10)
        assert inv.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

    @given(series_strategy)
    @settings(max_examples=60)
    def test_mul_by_inverse_is_one(self, a):
        coeffs = list(a.coeffs)
        coeffs[0] = 1
        unit = TruncSeries(coeffs)
        assert unit * unit.inverse() == TruncSeries.one(ORDER)

    def test_inf_product_times_inverse(self):
        order = 6
        assert pochhammer_inf(1, order) * inv_pochhammer_inf(1, order) == TruncSeries.one(order)

    @given(a_exp=st.integers(1, 6), n=st.integers(0, 40), order=st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_division_passes_match_general_inverse(self, a_exp, n, order):
        clear_memos()
        assert inv_pochhammer_finite(a_exp, n, order) == pochhammer_finite(a_exp, n, order).inverse()
        assert inv_pochhammer_inf(a_exp, order) == pochhammer_inf(a_exp, order).inverse()

    def test_inverse_rejects_bad_arguments(self):
        for call in (lambda: inv_pochhammer_finite(0, 2, 5),
                     lambda: inv_pochhammer_finite(1, -1, 5), lambda: inv_pochhammer_inf(0, 5)):
            with pytest.raises(ValueError):
                call()


class TestPochhammer:
    def test_finite_two_factors(self):
        assert pochhammer_finite(1, 2, 3).coeffs == (1, -1, -1, 1)

    def test_finite_zero_factors(self):
        assert pochhammer_finite(1, 0, 4) == TruncSeries.one(4)

    def test_finite_shifted(self):
        # (q^2; q)_3 = (1-q^2)(1-q^3)(1-q^4)
        got = pochhammer_finite(2, 3, 9)
        assert got.coeffs == (1, 0, -1, -1, -1, 1, 1, 1, 0, -1)

    def test_pentagonal_pattern(self):
        got = pochhammer_inf(1, 12)
        assert got.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)

    def test_pentagonal_large_order(self):
        got = pochhammer_inf(1, 200)
        expected = [0] * 201
        expected[0] = 1
        k = 1
        while k * (3 * k - 1) // 2 <= 200:
            sign = -1 if k % 2 == 1 else 1
            for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if e <= 200:
                    expected[e] = sign
            k += 1
        assert got.coeffs == tuple(expected)

    def test_all_factors_beyond_order(self):
        assert pochhammer_inf(8, 7) == TruncSeries.one(7)

    def test_shifted_infinite(self):
        # signed count of partitions into distinct parts >= 2; the q^5 and
        # q^6 coefficients vanish ({5} cancels {2,3}, {6} cancels {2,4})
        assert pochhammer_inf(2, 6).coeffs == (1, 0, -1, -1, -1, 0, 0)

    def test_rejects_zero_start(self):
        with pytest.raises(ValueError):
            pochhammer_inf(0, 5)

    def test_inv_one_minus_powers(self):
        assert inv_one_minus(1, 4, 1).coeffs == (1, 1, 1, 1, 1)
        assert inv_one_minus(1, 4, 2).coeffs == (1, 2, 3, 4, 5)
        assert inv_one_minus(2, 6, 2).coeffs == (1, 0, 2, 0, 3, 0, 4)


class TestGaussBinomial:
    def test_four_choose_two(self):
        assert gauss_binomial(4, 2, 4).coeffs == (1, 1, 2, 1, 1)

    def test_choose_zero(self):
        for n in range(6):
            assert gauss_binomial(n, 0, 3) == TruncSeries.one(3)

    def test_out_of_range_is_zero(self):
        assert gauss_binomial(3, 5, 4) == TruncSeries.zero(4)
        assert gauss_binomial(3, -1, 4) == TruncSeries.zero(4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_division_oracle(self, n):
        # [n, m] must equal (q)_n / ((q)_m (q)_{n-m}) as a series
        order = n * n
        for m in range(n + 1):
            denom = pochhammer_finite(1, m, order) * pochhammer_finite(1, n - m, order)
            expected = pochhammer_finite(1, n, order) * denom.inverse()
            assert gauss_binomial(n, m, order) == expected

    def test_q_pascal_oracle(self):
        # every [n, m] with n < 40 against the recurrence run over plain rows
        order = 12
        rows = [[TruncSeries.one(order)]]
        for n in range(1, 40):
            prev = rows[-1] + [TruncSeries.zero(order)]
            rows.append([TruncSeries.one(order)] + [
                prev[m] + prev[m - 1].shift(n - m) for m in range(1, n + 1)])
        for n in range(40):
            for m in range(n + 1):
                gauss_binomial.cache_clear()
                assert gauss_binomial(n, m, order) == rows[n][m], (n, m)

    @pytest.mark.parametrize("m,expected", [
        (1, (1, 1, 1, 1, 1, 1)),
        (300, (1, 1, 2, 3, 5, 7)),  # partition numbers: p(i) for i <= 5 <= min(m, n - m)
    ])
    def test_cold_call_does_not_recurse(self, m, expected):
        gauss_binomial.cache_clear()
        try:
            assert gauss_binomial(600, m, 5).coeffs == expected
        finally:
            gauss_binomial.cache_clear()

    @pytest.mark.parametrize("n", range(9))
    def test_symmetry_nonnegativity_degree(self, n):
        order = n * n + 1
        for m in range(n + 1):
            a = gauss_binomial(n, m, order)
            assert a == gauss_binomial(n, n - m, order)
            assert all(c >= 0 for c in a.coeffs)
            nonzero = [i for i, c in enumerate(a.coeffs) if c]
            assert max(nonzero) == m * (n - m)


# The chain link of each form, one dense link product from the lower to the upper index.
LINKS = {"nested": difference_link, "binomial": gauss_binomial}


class TestWeightedTuples:
    """The chain recursions sum over the same index sets as the brute force:
    weakly increasing tuples lo <= t_1 <= ..., the first n_square entries
    weighing t**2 and the rest t, of total weight <= bound."""

    @staticmethod
    def brute_force(n_square, n_linear, bound, lo, form="binomial"):
        # each tuple contributes q**weight, the form's links from 0 through its
        # square entries to the first linear one c, (q)_c**power and
        # 1/(1 - q**t)**2 per linear entry: the chain sums before 1/(q)_inf
        power = spt._FORMS[form][1]
        acc = TruncSeries.zero(bound)
        for tup in weighted_tuples(n_square, n_linear, bound, lo):
            if 0 in tup[n_square:]:
                continue  # the linear entries run from 1
            term = TruncSeries.monomial(sum(v * v for v in tup[:n_square]) + sum(tup[n_square:]),
                                        bound)
            for a, b in zip((0,) + tup[:n_square], tup[: n_square + 1]):
                term = term * LINKS[form](b, a, bound)
            for v in tup[n_square:]:
                term = term * inv_one_minus(v, bound, 2)
            for _ in range(power if n_linear else 0):
                term = term * pochhammer_finite(1, tup[n_square], bound)
            acc = acc + term
        return acc

    @pytest.mark.parametrize("lo", [0, 1])
    @pytest.mark.parametrize("n_square,n_linear",
                             [(s, d - s) for d in range(5) for s in range(d + 1)])
    def test_matches_brute_force(self, n_square, n_linear, lo):
        # the test's enumerator: every weakly increasing tuple over lo..30
        plain = [t for t in itertools.combinations_with_replacement(range(lo, 31), n_square + n_linear)
                 if sum(v * v for v in t[:n_square]) + sum(t[n_square:]) <= 30]
        assert list(weighted_tuples(n_square, n_linear, 30, lo)) == plain
        for form, (step, _) in spt._FORMS.items():
            expected = self.brute_force(n_square, n_linear, 30, lo, form)
            for bound in range(31):
                clear_memos()
                if n_linear:  # _chain_gf divides by (q)_inf
                    got = pochhammer_inf(1, bound) * spt._chain_gf(n_square, lo, form, n_linear,
                                                                    bound)
                else:
                    chain = series._square_chain(n_square, step, bound, lo)
                    got = sum(chain.values(), TruncSeries.zero(bound))
                assert got == expected.truncate(bound), (form, bound)


class TestChainPower:
    """The linear chain carries the forms' (q)_c**power as 1/(q**(c+1))_inf**power,
    so the builders need no product with 1/(q)_inf: each equals the formula it
    replaced, 1/(q)_inf times the chain sum whose every end carries (q)_c**power
    (tuple_sums.chain_gf_per_end)."""

    @pytest.mark.parametrize("lo", [0, 1])
    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("levels", range(4))
    @pytest.mark.parametrize("form", sorted(spt._FORMS))
    def test_chain_gf_matches_per_end_power(self, form, levels, k, lo):
        for bound in range(31):
            clear_memos()
            expected = inv_pochhammer_inf(1, bound) * chain_gf_per_end(levels, lo, form, k, bound)
            assert spt._chain_gf(levels, lo, form, k, bound) == expected, bound

    @given(data=st.data(), order=st.integers(0, 30), k=st.integers(1, 4),
           power=st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_linear_chain_matches_brute_force(self, data, order, k, power):
        # seeds[a] reaches order - k * a; some a have no seed
        seeds = {a: data.draw(st.lists(st.integers(-9, 9), min_size=order - k * a + 1,
                                       max_size=order - k * a + 1))
                 for a in data.draw(st.sets(st.integers(1, max(order // k, 1))))
                 if k * a <= order}
        got = series._linear_chain((seeds.get(a, []) for a in range(1, order + 1)), k, order,
                                   power)
        expected = TruncSeries.zero(order)
        for tup in weighted_tuples(0, k, order):
            if tup[0] not in seeds:
                continue
            term = TruncSeries(seeds[tup[0]] + [0] * (k * tup[0])).shift(sum(tup))
            for v in tup:
                term = term * inv_one_minus(v, order, 2)
            for _ in range(power):
                term = term * inv_pochhammer_inf(tup[0] + 1, order)
            expected = expected + term
        assert got == expected
        # the formula it replaced: (q)_a**power on each seed, 1/(q)_inf**power after
        carried = {}
        for a, s in seeds.items():
            seed = TruncSeries(s + [0] * (k * a))
            for _ in range(power):
                seed = seed * pochhammer_finite(1, a, order)
            carried[a] = seed.coeffs
        old = series._linear_chain((carried.get(a, []) for a in range(1, order + 1)), k, order)
        for _ in range(power):
            old = inv_pochhammer_inf(1, order) * old
        assert got == old

    # (builder, its parameters, the _chain_gf arguments of the formula it replaced)
    BUILDERS = [
        *[(spt.gf_spt_j, (j,), (j - 1, 0, "binomial", 1)) for j in (1, 2, 3)],
        *[(spt.gf_genn1_lhs, (j,), (j - 1, 0, "nested", 1)) for j in (1, 2, 3)],
        *[(lambda j, k, n, f=form: spt.gf_jspt_k(j, k, n, f), (j, k), (j - 1, 1, form, k))
          for form in ("nested", "binomial") for j in (1, 2, 3) for k in (1, 2)],
    ]

    @pytest.mark.parametrize("order", [0, 1, 9, 40, 80])
    def test_builders_match_the_old_formula(self, order):
        for builder, params, chain_args in self.BUILDERS:
            clear_memos()
            expected = inv_pochhammer_inf(1, order) * chain_gf_per_end(*chain_args, order)
            assert builder(*params, order) == expected, (params, chain_args)
        for r, k in itertools.product((1, 2, 3), (1, 2, 3)):
            clear_memos()
            lhs, _ = spt.appbp_sides(r, k, order)
            assert lhs == chain_gf_per_end(r - 1, 0, "nested", k, order), (r, k)

    def test_gf_routes_read_no_moments_kernel(self, monkeypatch):
        # the gf routes are independent of the moments routes: no 1/(q)_inf, no stats kernel
        def refuse(*args):
            raise AssertionError("a gf route read a moments-route kernel")

        for mod in (series, spt, stats):
            for name in ("inv_pochhammer_inf", "gf_sym_mu", "_sym_mu_column", "sym_mu",
                         "moment", "gf_njm", "_njm_column"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        clear_memos()
        spt.gf_spt_j(3, 60)
        spt.gf_genn1_lhs(3, 60)
        for form in spt._FORMS:
            spt.gf_jspt_k(2, 2, 60, form)

    def test_enumerating_routes_read_no_series_kernel(self, monkeypatch):
        # the weight rows of Spt_j and jspt_k and the lemma verifiers count
        # partitions on the walk: no p(n) table, no moments route, no series
        # product and no gf chain recursion
        def refuse(*args):
            raise AssertionError("an enumerating route read a series kernel")

        for mod in (partitions, series, spt, stats, identities):
            for name in ("partition_count", "gf_sym_mu", "_linear_chain", "_square_chain",
                         "_link_sums"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        monkeypatch.setattr(TruncSeries, "__mul__", refuse)
        clear_memos()
        spt._level_sums.cache_clear()
        assert spt.spt_j(3, 30, "weight") > 0
        assert spt.jspt_k(2, 3, 30, "weight") > 0
        for identity in ("lemma31", "lemma32"):
            _, rows, _ = identities.verify(identity, order=30)
            assert len(rows) == 30 and all(row[3] for row in rows)


class TestLinkSums:
    """The running link sums equal one dense link product per pair of chain
    ends (tuple_sums.link_sum), for both steps, ascending and descending; so do
    the oracle's per-end sums (tuple_sums.link_sums_per_end) times (q)_x**power."""

    @given(data=st.data(), order=st.integers(0, 30), form=st.sampled_from(sorted(LINKS)),
           lo=st.integers(0, 1), descending=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_pair_products(self, data, order, form, lo, descending):
        step, link = spt._FORMS[form][0], LINKS[form]
        top = isqrt(order)
        ends = data.draw(st.sets(st.integers(lo, top)) if lo <= top else st.just(set()))
        # each chain end y carries the factor q**(y*y), as the chain recursions' do
        chain = {y: TruncSeries([0] * (y * y) + data.draw(st.lists(
            st.integers(-9, 9), min_size=order - y * y + 1, max_size=order - y * y + 1)))
            for y in ends}
        power = 0
        if descending:
            xs, weight = range(top, lo - 1, -1), "square"
        else:
            # every end is reached from at most one index below it
            power = data.draw(st.integers(0, 2))
            start = 1 if power else data.draw(st.integers(lo, lo + 1))
            weight = data.draw(st.sampled_from(["square", 1, 2, 3]))
            stop = top if weight == "square" else order // weight
            xs = range(start, stop + 1)
        reach = (lambda x: order - x * x) if weight == "square" else (lambda x: order - weight * x)
        got = dict(zip(xs, series._link_sums(chain, step, xs, reach)))
        per_end = link_sums_per_end(chain, step, xs, reach, power)
        assert list(got) == list(per_end) == list(xs)
        for x in xs:
            expected = link_sum(x, chain, link, reach(x), descending=descending)
            assert TruncSeries(got[x]) == expected, x
            for _ in range(power):
                expected = expected * pochhammer_finite(1, x, reach(x))
            assert TruncSeries(per_end[x]) == expected, x


# Every memoized builder, with sample arguments: (builder, before order, after order).
SERIES_BUILDERS = [
    (series.pochhammer_finite, (2, 5), ()),
    (series.pochhammer_inf, (1,), ()),
    (series.inv_pochhammer_inf, (1,), ()),
    (series.inv_pochhammer_finite, (1, 4), ()),
    (series.inv_one_minus, (3,), (2,)),
    (series.gauss_binomial, (7, 3), ()),
    (stats.gf_njm, (2, 1), ()),
    (stats.gf_sym_mu, (3, 2), ()),
    (stats._central_factorials, (3,), ()),
    (spt.gf_np, (), ()),
    (spt._spt_weight_row, (2,), ()),
    (spt.gf_spt_j, (2,), ()),
    (spt.gf_genn1_lhs, (2,), ()),
    (spt.gf_genn1_rhs, (3,), ()),
    (spt.gf_jspt_k, (2, 1), ("nested",)),
    (spt.gf_jspt_k, (2, 2), ("binomial",)),
]
BISERIES_BUILDERS = [
    (laurent.build_crank_gf, (), ()),
    (laurent.build_jrank_gf, (2,), ("nested",)),
    (laurent.build_jrank_gf, (2,), ("bilateral",)),
    (laurent.build_jrank_gf, (3,), ("counts",)),
]


def _ids(cases):
    return [f"{fn.__name__}{before + after}" for fn, before, after in cases]


def memoized():
    """Every memoized function defined in the package."""
    mods = (series, stats, spt, laurent)
    return {v for m in mods for v in vars(m).values()
            if hasattr(v, "cache_info") and v.__module__ == m.__name__}


def clear_memos():
    for fn in memoized():
        fn.cache_clear()


def read(case, order):
    fn, before, after = case
    return fn(*before, order, *after)


def fresh(case, order):
    clear_memos()
    return read(case, order)


def read_value(case, order):
    fn, before, after = case
    return fn.read(*before, order, *after)


def stored_orders(fn):
    """The order of each series a memoized builder holds, by its key."""
    return {key: s.order for key, s in inspect.getclosurevars(fn).nonlocals["built"].items()}


def load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


class TestMemo:
    def test_every_memoized_builder_is_tested(self):
        assert memoized() == {fn for fn, _, _ in SERIES_BUILDERS + BISERIES_BUILDERS}

    @pytest.mark.parametrize("case", SERIES_BUILDERS, ids=_ids(SERIES_BUILDERS))
    @given(orders=st.lists(st.integers(min_value=0, max_value=24), min_size=1, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_reads_match_fresh_builds(self, case, orders):
        # whatever was read before, a read equals a build at that order alone
        expected = {order: fresh(case, order) for order in set(orders)}
        clear_memos()
        for order in orders:
            got = read(case, order)
            assert got == expected[order] and got.order == order

    @pytest.mark.parametrize("case", BISERIES_BUILDERS, ids=_ids(BISERIES_BUILDERS))
    def test_bivariate_reads_match_fresh_builds(self, case):
        small, large = 6, 9
        expected_small, expected_large = fresh(case, small), fresh(case, large)
        clear_memos()
        read(case, large)
        assert read(case, small) == expected_small  # a truncation of the order-9 build
        clear_memos()
        read(case, small)
        assert read(case, large) == expected_large  # rebuilt at max(9, 2 * 6)

    @pytest.mark.parametrize("case", SERIES_BUILDERS, ids=_ids(SERIES_BUILDERS))
    def test_ascending_reads_keep_one_entry(self, case):
        # each builder's own memo holds only the arguments it is called with
        clear_memos()
        for order in range(1, 41):
            read(case, order)
        info = case[0].cache_info()
        assert info.currsize == 1
        # built at orders 1, 2, 4, ..., 64 and read by truncation in between
        assert (info.misses, info.hits) == (7, 33)

    @pytest.mark.parametrize("case", SERIES_BUILDERS + BISERIES_BUILDERS,
                             ids=_ids(SERIES_BUILDERS + BISERIES_BUILDERS))
    @pytest.mark.parametrize("built", [None, 12], ids=["empty", "filled"])
    def test_negative_order_raises(self, case, built):
        # a hit once answered by slicing from the end: gf_spt_j(2, -3) read an
        # order-8 series off the order-10 build, where a miss raised
        clear_memos()
        if built:
            read(case, built)
        for order in (-1, -4):
            for read_at in (read, read_value):
                with pytest.raises(ValueError, match=f"order {order} is negative"):
                    read_at(case, order)

    def test_spellings_of_one_call_share_an_entry(self):
        clear_memos()
        calls = [inv_one_minus(3, 10), inv_one_minus(3, 10, 1),
                 inv_one_minus(3, order=10), inv_one_minus(exp=3, power=1, order=10)]
        assert all(c == calls[0] for c in calls)
        assert inv_one_minus.cache_info()[:2] == (3, 1)  # hits, misses
        assert inv_one_minus.cache_info().currsize == 1

    @pytest.mark.parametrize("case", SERIES_BUILDERS, ids=_ids(SERIES_BUILDERS))
    def test_every_spelling_shares_one_entry(self, case):
        # positional, keyword, mixed and defaulted spellings of one call, each
        # read whole and by value: one build, and every other read a hit
        fn, before, after = case
        args = before + (9,) + after
        params = inspect.signature(fn).parameters
        names = list(params)
        spellings = [(args, {}), ((), dict(zip(names, args))),
                     (args[:1], dict(zip(names[1:], args[1:])))]
        # the trailing arguments that equal their defaults left out
        short = len(args)
        while short and params[names[short - 1]].default == args[short - 1]:
            short -= 1
        if short < len(args):
            spellings.append((args[:short], {}))
        clear_memos()
        expected = fresh(case, 9)
        clear_memos()
        for call_args, call_kwargs in spellings:
            assert fn(*call_args, **call_kwargs) == expected
            assert fn.read(*call_args, **call_kwargs) == expected.coeffs[-1]
        assert fn.cache_info() == (2 * len(spellings) - 1, 1, None, 1)

    @pytest.mark.parametrize("case", SERIES_BUILDERS, ids=_ids(SERIES_BUILDERS))
    def test_bad_calls_raise_type_error(self, case):
        # each call that Signature.bind refuses, refused by the wrapper, by its
        # reader, before the memo is read or written
        fn, before, after = case
        params = inspect.signature(fn).parameters
        full = before + (9,) + after
        full += tuple(p.default for p in list(params.values())[len(full):])
        bad = [
            (before, {}),  # no order
            (full, {"bogus": 1}),  # an unexpected keyword
            (full, {"order": 9}),  # a second value for the order
            (full + (0,), {}),  # too many positionals
        ]
        clear_memos()
        for args, kwargs in bad:
            with pytest.raises(TypeError):
                inspect.signature(fn).bind(*args, **kwargs)
            for call in (fn, fn.read):
                with pytest.raises(TypeError):
                    call(*args, **kwargs)
        assert fn.cache_info() == (0, 0, None, 0)

    @pytest.mark.parametrize("builder", [
        lambda order, *rest: None,
        lambda j, *, order: None,
        lambda j, order, *, form="nested": None,
        lambda order, **options: None,
        lambda j, /, order: None,
    ], ids=["varargs", "keyword-only order", "keyword-only option", "varkeywords",
            "positional-only"])
    def test_memo_refuses_other_parameter_kinds(self, builder):
        with pytest.raises(TypeError, match="positional-or-keyword"):
            series.memo(builder)

    @pytest.mark.parametrize("case", SERIES_BUILDERS, ids=_ids(SERIES_BUILDERS))
    @given(reads=st.lists(st.tuples(st.integers(0, 24), st.booleans()), min_size=1, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_value_reads_match_coefficients(self, case, reads):
        # value and whole-series reads in any order: a value read is the
        # coefficient that a build at its order alone ends in
        expected = {order: fresh(case, order).coefficient(order) for order, _ in reads}
        clear_memos()
        for order, whole in reads:
            got = read(case, order).coefficient(order) if whole else read_value(case, order)
            assert got == expected[order], order

    def test_value_reads_share_the_entry_of_every_spelling(self):
        clear_memos()
        reads = [inv_one_minus.read(3, 12),  # the one miss
                 inv_one_minus.read(3, 12, 1),
                 inv_one_minus.read(3, order=12),
                 inv_one_minus.read(exp=3, power=1, order=12),
                 inv_one_minus.read(3, 11)]
        assert reads == [1, 1, 1, 1, 0]
        assert inv_one_minus.cache_info() == (4, 1, None, 1)

    def test_value_reads_build_as_truncating_reads_do(self, monkeypatch):
        # a lib-session call sequence read through each builder's reader builds
        # every series at the orders, and as often, as one whose every value
        # read is builder(..., n).coefficient(n), the truncated copy
        calls = load_workloads().lib_calls(1)[:300]

        def replay():
            clear_memos()
            values = [getattr(qspt, fn)(*args) for fn, args in calls]
            return values, {fn: (fn.cache_info(), stored_orders(fn)) for fn in memoized()}

        by_value = replay()

        def truncating(builder):
            def read(*args, **kwargs):
                built = builder(*args, **kwargs)
                return built.coefficient(built.order)
            return read

        for fn in memoized():
            monkeypatch.setattr(fn, "read", truncating(fn))
        assert replay() == by_value

    def test_bilateral_sums_build_no_inv_one_minus(self):
        # the symmetrized-moment sums are written into one list, with no
        # 1/(1 - q^n)^(2k) series built and kept per n
        clear_memos()
        stats.gf_sym_mu(2, 2, 100)
        spt.gf_genn1_rhs(2, 100)
        spt.appbp_sides(1, 2, 100)
        assert series.inv_one_minus.cache_info().currsize == 0

    def test_cache_clear_resets(self):
        series.inv_one_minus(2, 10)
        series.inv_one_minus.cache_clear()
        assert series.inv_one_minus.cache_info() == (0, 0, None, 0)

    def test_request_builds_its_series_once(self):
        clear_memos()
        values = spt.SptRequest("Spt_j", 60, j=2, route="gf").values()
        assert spt.gf_spt_j.cache_info().misses == 1
        assert values == [spt.spt_j(2, n, "moments") for n in range(1, 61)]


def _table(kind, index):
    def run():
        result = CliRunner().invoke(cli.main, ["table", "--kind", kind, "--j", "2",
                                               "--index", str(index), "--n-max", "120"])
        assert result.exit_code == 0, result.output
    return run


# Every reader of values over n: each verifier at its default order and at 35,
# each family's default route and each table kind at 120.
READERS = [
    *(pytest.param(lambda name=name, order=order: identities.verify(name, order=order),
                   id=f"verify-{name}-{order or 'default'}")
      for name in identities.IDENTITIES for order in (None, 35)),
    *(pytest.param(lambda family=family, params=params:
                   spt.SptRequest(family, 120, **params).values(), id=f"compute-{family}")
      for family, params in {"p": {}, "spt": {}, "spt_k": {"k": 2}, "Spt_j": {"j": 2},
                             "jspt_k": {"j": 2, "k": 2}}.items()),
    *(pytest.param(_table(kind, index), id=f"table-{kind}")
      for kind, index in (("count", 3), ("moment", 4), ("symmetrized", 4))),
]


class TestOneBuildPerKey:
    @pytest.mark.parametrize("reader", READERS)
    def test_reader_builds_each_series_once(self, reader):
        # a reader that reads n upward rebuilds each series at doubling orders
        clear_memos()
        reader()
        rebuilt = {fn.__qualname__: fn.cache_info() for fn in memoized()
                   if fn.cache_info().misses != fn.cache_info().currsize}
        assert not rebuilt


# Every value reader of the library with j, k <= 4: each route of each family, and the
# moments, symmetrized moments, counts and smallest-part weights.  The weight routes of
# Spt_j and jspt_k walk every partition of each order they extend to, so they read to 24.
HIT_N_MAX, WALK_N_MAX = 60, 24
VALUE_READERS = [
    *(pytest.param(functools.partial(spt._evaluate, family, params, route=route),
                   WALK_N_MAX if route == "weight" and family in spt.ENUMERATING_WEIGHT
                   else HIT_N_MAX, id=f"{family}{params}-{route}")
      for family, fam in spt.FAMILIES.items() for route in fam.routes
      for params in itertools.product(range(1, 5), repeat=len(fam.params))),
    *(pytest.param(functools.partial(stats.moment, j, t), HIT_N_MAX, id=f"moment({j}, {t})")
      for j in range(1, 5) for t in range(0, 9, 2)),
    *(pytest.param(functools.partial(stats.sym_mu, j, k), HIT_N_MAX, id=f"sym_mu({j}, {k})")
      for j in range(1, 5) for k in range(1, 9)),
    *(pytest.param(functools.partial(stats.count_njm, j, m), HIT_N_MAX,
                   id=f"count_njm({j}, {m})") for j in range(1, 5) for m in range(-4, 5)),
    pytest.param(spt.spt_weight, HIT_N_MAX, id="spt_weight"),
]


class TestHitPath:
    @pytest.mark.parametrize("reader, n_max", VALUE_READERS)
    def test_upward_reads_match_downward_reads(self, reader, n_max):
        # upward, each series is built at doubling orders and read by hits between
        # them; a second upward pass is all hits
        clear_memos()
        spt._level_sums.cache_clear()
        upward = [reader(n=n) for n in range(1, n_max + 1)]
        before = {fn: fn.cache_info() for fn in memoized()}
        assert [reader(n=n) for n in range(1, n_max + 1)] == upward
        after = {fn: fn.cache_info() for fn in memoized()}
        for fn, info in after.items():
            assert info.hits >= before[fn].hits, fn.__qualname__
            assert info[1:] == before[fn][1:], fn.__qualname__  # misses, maxsize, currsize
        clear_memos()
        assert series.read_down(lambda n: reader(n=n), 1, n_max) == upward

    def test_a_miss_calls_the_builder_by_its_module_name(self, monkeypatch):
        # a wrapper bound in the builder's place, as a tracer binds one, sees
        # every build that a value read makes, and no hit
        clear_memos()
        builder, calls = stats.gf_sym_mu, []

        @functools.wraps(builder)
        def traced(*args, **kwargs):
            calls.append(args)
            return builder(*args, **kwargs)

        monkeypatch.setattr(stats, "gf_sym_mu", traced)
        reads = [stats.sym_mu(2, 4, n) for n in (20, 10, 30)]
        assert calls == [(2, 2, 20), (2, 2, 30)]
        assert builder.cache_info()[:2] == (1, 2)
        assert reads == [builder(2, 2, n).coefficient(n) for n in (20, 10, 30)]

    def test_a_miss_skips_a_module_name_bound_elsewhere(self, monkeypatch):
        # a name rebound to a function without this reader is not called
        clear_memos()
        builder = spt.gf_spt_j
        monkeypatch.setattr(spt, "gf_spt_j", lambda j, order: pytest.fail("called"))
        assert builder.read(2, 10) == builder(2, 10).coefficient(10)
        assert builder.cache_info()[:2] == (1, 1)
