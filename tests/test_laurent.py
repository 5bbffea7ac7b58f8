"""Bivariate series, the crank/rank/j-rank generating functions, extractions."""

import json
import sys
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuple_sums
from cli_runner import CliRunner
from qspt import identities, laurent, stats
from qspt.cli import main
from qspt.laurent import (
    BiSeries,
    LaurentPoly,
    SymRows,
    _add_shifted,
    _div_q_inf,
    _div_q_inf_cubed,
    _from_columns,
    _kn1_correction,
    _triple_product_rows,
    build_crank_gf,
    build_jrank_gf,
    build_kn1_sides,
    build_rank_gf,
    dz_at_1,
    falling_factorial,
    integer_binomial,
    symmetrized_extract,
)
from qspt.partitions import enumerate_partitions
from qspt.series import DiscrepancyError, TruncSeries, inv_pochhammer_inf, pochhammer_inf
from qspt.stats import crank, gf_sym_mu, rank
from tuple_sums import clear_memos, from_series, to_bi, to_rows


def lp(d):
    return LaurentPoly(d)


def factor(z_exp, q_exp, order):
    """The one-term factor (1 - z**z_exp * q**q_exp) as a dense BiSeries."""
    rows = [lp({0: 1})] + [lp({})] * order
    if q_exp <= order:
        rows[q_exp] = rows[q_exp] - lp({z_exp: 1})
    return BiSeries(rows)


def bi_pochhammer(z_exp, q_start, n_factors, order):
    """Product of (1 - z**z_exp * q**(q_start + i)), i < n_factors, by factor passes.

    ``n_factors=None`` gives the infinite product; factors whose q-exponent
    exceeds the order are dropped.
    """
    stop = order + 1 if n_factors is None else min(q_start + n_factors, order + 1)
    out = BiSeries.one(order)
    for e in range(q_start, stop):
        out = tuple_sums.mul_factor(out, z_exp, e)
    return out


def z_inverse(a):
    """The BiSeries a with z -> 1/z in every coefficient."""
    return BiSeries([lp({-m: c for m, c in row.terms.items()}) for row in a.coeffs])


# Dense constructions by full BiSeries products and inverses: the oracles the
# factor kernels replace.

def dense_pochhammer(z_exp, q_start, n_factors, order):
    stop = order + 1 if n_factors is None else min(q_start + n_factors, order + 1)
    out = BiSeries.one(order)
    for e in range(q_start, stop):
        out = out * factor(z_exp, e, order)
    return out


def dense_sym_pochhammer(n, q_start, order):
    return dense_pochhammer(1, q_start, n, order) * dense_pochhammer(-1, q_start, n, order)


def dense_crank_gf(order):
    denom = dense_pochhammer(1, 1, None, order) * dense_pochhammer(-1, 1, None, order)
    return denom.inverse().mul_series(pochhammer_inf(1, order))


def dense_kn1_sides(j, order):
    lhs = BiSeries.zero(order)
    for outer, scalar in tuple_sums.kn1_scalars(j, order).items():
        lhs = lhs + dense_sym_pochhammer(outer, 0, order).mul_series(scalar)
    prefactor = dense_sym_pochhammer(order, 1, order).mul_series(
        inv_pochhammer_inf(1, order) * inv_pochhammer_inf(1, order))
    correction = BiSeries.one(order)
    n = 1
    while n * ((2 * j + 1) * n + 1) // 2 <= order:
        e = n * ((2 * j + 1) * n + 1) // 2
        sign = -1 if n % 2 == 1 else 1
        ratio = dense_sym_pochhammer(n, 0, order) * dense_sym_pochhammer(n, 1, order).inverse()
        one_plus = TruncSeries.one(order) + TruncSeries.monomial(n, order)
        correction = correction + ratio.shift(e).mul_series(one_plus.scale(sign))
        n += 1
    return lhs, prefactor * correction


laurent_polys = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4).map(lp)
bi_series = st.lists(laurent_polys, min_size=1, max_size=11).map(BiSeries)
int_series = st.lists(st.integers(-9, 9), min_size=1, max_size=11).map(TruncSeries)
laurent_units = st.builds(lambda m, c: lp({m: c}), st.integers(-4, 4), st.sampled_from([1, -1]))


class TestIntegerBinomial:
    def test_ordinary(self):
        assert integer_binomial(5, 2) == 10

    def test_negative_argument(self):
        assert integer_binomial(-1, 2) == 1
        assert integer_binomial(-2, 3) == -4

    def test_below_degree(self):
        assert integer_binomial(1, 2) == 0

    def test_huge_degree_is_zero_at_once(self):
        # binom(m + k - 1, 2k) for |m| <= 5 and k = 10**5: each m gives 0 <= x < 2k
        assert symmetrized_extract(build_jrank_gf(1, 5), 10**5) == TruncSeries.zero(5)

    def test_falling_factorial(self):
        assert falling_factorial(4, 2) == 12
        assert falling_factorial(-1, 3) == -6
        assert falling_factorial(7, 0) == 1


class TestLaurentPoly:
    def test_drops_zero_terms(self):
        assert lp({2: 0, 1: 3}).terms == {1: 3}

    def test_mul_with_negative_exponents(self):
        a = lp({1: 1, -1: 1})
        assert (a * a).terms == {2: 1, 0: 2, -2: 1}

    def test_unit_inverse(self):
        assert lp({3: -1}).unit_inverse() == lp({-3: -1})
        with pytest.raises(ValueError):
            lp({0: 2}).unit_inverse()
        with pytest.raises(ValueError):
            lp({0: 1, 1: 1}).unit_inverse()

    def test_truth_value_is_nonzero(self):
        assert not lp({}) and not lp({3: 0})
        assert lp({-1: 2}) and lp({0: -1})


class TestAddShifted:
    @given(a=laurent_polys, b=laurent_polys, z_exp=st.integers(-4, 4), c=st.integers(-3, 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_arithmetic(self, a, b, z_exp, c):
        expected = dict(a.terms)
        for m, v in b.terms.items():
            expected[m + z_exp] = expected.get(m + z_exp, 0) + c * v
        got = _add_shifted(a, b, z_exp, c)
        assert got.terms == {m: v for m, v in expected.items() if v}
        assert 0 not in got.terms.values()

    @given(b=laurent_polys, z_exp=st.integers(-4, 4), c=st.integers(-3, 3))
    def test_cancellation_leaves_no_zero_term(self, b, z_exp, c):
        # a is exactly -c z^z_exp b, so every term cancels
        a = lp({m + z_exp: -c * v for m, v in b.terms.items()})
        assert _add_shifted(a, b, z_exp, c).terms == {}

    def test_zero_addend_or_factor_returns_a(self):
        a = lp({1: 2})
        assert _add_shifted(a, lp({}), 3, 2) is a
        assert _add_shifted(a, lp({0: 5}), 3, 0) is a

    def test_add_is_the_kernel(self):
        # a row sum costs one call, not a method that forwards to the kernel
        assert LaurentPoly.__add__ is _add_shifted
        a = lp({1: 2})
        assert a + lp({}) is a


class TestBiSeries:
    def test_finite_geometric_product(self):
        # (1 - zq) * (1 + zq + z^2 q^2) = 1 - z^3 q^3
        a = BiSeries([lp({0: 1}), lp({1: -1}), lp({}), lp({})])
        b = BiSeries([lp({0: 1}), lp({1: 1}), lp({2: 1}), lp({})])
        got = a * b
        assert got == BiSeries([lp({0: 1}), lp({}), lp({}), lp({3: -1})])

    def test_inverse_geometric(self):
        a = BiSeries([lp({0: 1}), lp({1: -1}), lp({}), lp({})])
        inv = a.inverse()
        assert inv == BiSeries([lp({0: 1}), lp({1: 1}), lp({2: 1}), lp({3: 1})])

    def test_pochhammer_product_oracle(self):
        # (zq; q)_2 (z^{-1}q; q)_2 against the direct 4-factor expansion
        order = 6
        got = bi_pochhammer(1, 1, 2, order) * bi_pochhammer(-1, 1, 2, order)
        expected = BiSeries.one(order)
        for z_exp, q_exp in ((1, 1), (1, 2), (-1, 1), (-1, 2)):
            factor = [lp({0: 1})] + [lp({})] * order
            factor[q_exp] = lp({z_exp: -1})
            expected = expected * BiSeries(factor)
        assert got == expected

    @pytest.mark.parametrize("series", [TruncSeries.one(4), BiSeries.one(4)],
                             ids=["TruncSeries", "BiSeries"])
    def test_negative_shift_raises(self, series):
        # BiSeries.shift(-2) once returned the series unshifted
        with pytest.raises(ValueError, match="shift exponent must be nonnegative"):
            series.shift(-2)

    @pytest.mark.parametrize("cls", [TruncSeries, BiSeries])
    @pytest.mark.parametrize("order", [-1, -3])
    def test_negative_truncation_raises(self, cls, order):
        # truncate(-3) once sliced from the end: an order-5 series came back at order 2
        with pytest.raises(ValueError, match=f"truncation order {order} is negative"):
            cls.one(5).truncate(order)

    def test_mul_series_matches_full_mul(self):
        a = to_bi(build_crank_gf(6))
        s = pochhammer_inf(1, 6)
        assert a.mul_series(s) == a * from_series(s)


class TestSharedAlgebra:
    """TruncSeries and BiSeries share one product and one inverse loop
    (qspt.series._Series); each is pinned to the loop its ring had of its own
    (tuple_sums), the int product also through the dict loop of BiSeries."""

    @given(a=bi_series, b=bi_series)
    @settings(max_examples=200, deadline=None)
    def test_bi_product_matches_dict_loop(self, a, b):
        assert a * b == tuple_sums.bi_product(a, b)

    @given(a=bi_series, lead=laurent_units)
    @settings(max_examples=200, deadline=None)
    def test_bi_inverse_matches_own_loop(self, a, lead):
        unit = BiSeries((lead,) + a.coeffs[1:])
        assert unit.inverse() == tuple_sums.bi_inverse(unit)

    @given(a=int_series, b=int_series)
    @settings(max_examples=200, deadline=None)
    def test_int_product_matches_dict_loop(self, a, b):
        lifted = tuple_sums.bi_product(from_series(a), from_series(b))
        assert from_series(a * b) == lifted

    @given(a=int_series, lead=st.sampled_from([1, -1]))
    @settings(max_examples=200, deadline=None)
    def test_int_inverse_matches_own_loop(self, a, lead):
        unit = TruncSeries((lead,) + a.coeffs[1:])
        assert unit.inverse() == tuple_sums.int_inverse(unit)

    @pytest.mark.parametrize("series", [TruncSeries([0, 1]),
                                        BiSeries([lp({0: 1, 1: 1}), lp({})]),
                                        BiSeries([lp({}), lp({0: 1})])])
    def test_non_unit_lead_rejected(self, series):
        with pytest.raises(ValueError):
            series.inverse()

    def test_rings_do_not_compare_equal(self):
        assert TruncSeries.one(3) != BiSeries.one(3)
        assert BiSeries.one(3) != TruncSeries.one(3)


class TestFactorKernels:
    @given(a=bi_series, z_exp=st.integers(-3, 3), q_exp=st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_mul_factor_matches_product(self, a, z_exp, q_exp):
        assert tuple_sums.mul_factor(a, z_exp, q_exp) == a * factor(z_exp, q_exp, a.order)

    @given(a=bi_series, z_exp=st.integers(-3, 3), q_exp=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_div_factor_matches_inverse(self, a, z_exp, q_exp):
        assert tuple_sums.div_factor(a, z_exp, q_exp) == a * factor(z_exp, q_exp, a.order).inverse()

    @given(a=bi_series, z_exp=st.integers(-3, 3), q_exp=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_div_then_mul_round_trips(self, a, z_exp, q_exp):
        assert tuple_sums.mul_factor(tuple_sums.div_factor(a, z_exp, q_exp), z_exp, q_exp) == a

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            tuple_sums.mul_factor(BiSeries.one(3), 1, -1)
        with pytest.raises(ValueError):
            tuple_sums.div_factor(BiSeries.one(3), 1, 0)

    @pytest.mark.parametrize("order", [0, 1, 7, 16])
    def test_pochhammers_match_dense(self, order):
        for z_exp in (-2, 1):
            assert bi_pochhammer(z_exp, 1, None, order) == dense_pochhammer(z_exp, 1, None, order)

    @pytest.mark.parametrize("order", [0, 1, 7, 16])
    def test_crank_gf_matches_dense(self, order):
        assert to_bi(build_crank_gf(order)) == dense_crank_gf(order)

    @pytest.mark.parametrize("j,order", [(1, 16), (2, 16), (3, 16), (2, 5)])
    def test_kn1_sides_match_dense(self, j, order):
        assert tuple(map(to_bi, build_kn1_sides(j, order))) == dense_kn1_sides(j, order)


def _statistic_poly(n, stat):
    out = {}
    for p in enumerate_partitions(n):
        m = stat(p)
        out[m] = out.get(m, 0) + 1
    return lp(out)


class TestCrankGf:
    def test_q0(self):
        assert build_crank_gf(5).coefficient(0) == lp({0: 1})

    def test_q1_anomaly(self):
        assert build_crank_gf(5).coefficient(1) == lp({1: 1, 0: -1, -1: 1})

    def test_matches_combinatorial_crank(self):
        gf = build_crank_gf(12)
        for n in range(2, 13):
            assert gf.coefficient(n) == _statistic_poly(n, crank), n

    def test_times_denominator_recovers_numerator(self):
        order = 10
        denom = bi_pochhammer(1, 1, None, order) * bi_pochhammer(-1, 1, None, order)
        got = to_bi(build_crank_gf(order)) * denom
        assert got == from_series(pochhammer_inf(1, order))


class TestRankGf:
    def test_q1(self):
        assert build_rank_gf(5).coefficient(1) == lp({0: 1})

    def test_q3(self):
        assert build_rank_gf(5).coefficient(3) == lp({2: 1, 0: 1, -2: 1})

    def test_matches_combinatorial_rank(self):
        gf = build_rank_gf(12)
        for n in range(1, 13):
            assert gf.coefficient(n) == _statistic_poly(n, rank), n

    def test_equals_jrank_two(self):
        assert build_rank_gf(20) == build_jrank_gf(2, 20)


class TestJrankGf:
    def test_j1_is_crank(self):
        assert build_jrank_gf(1, 15) == build_crank_gf(15)

    def test_j3_q2(self):
        assert build_jrank_gf(3, 8).coefficient(2) == lp({0: 1})

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_three_forms_agree(self, j):
        order = 16
        nested = build_jrank_gf(j, order, "nested")
        assert nested == build_jrank_gf(j, order, "bilateral")
        assert nested == build_jrank_gf(j, order, "counts")

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_three_forms_agree_order_50(self, j):
        clear_memos()
        nested = build_jrank_gf(j, 50, "nested")
        assert nested == build_jrank_gf(j, 50, "bilateral")
        assert nested == build_jrank_gf(j, 50, "counts")

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_three_forms_agree_order_120(self, j):
        clear_memos()
        nested = build_jrank_gf(j, 120, "nested")
        assert nested == build_jrank_gf(j, 120, "bilateral")
        assert nested == build_jrank_gf(j, 120, "counts")

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_z_symmetry(self, j):
        a = to_bi(build_jrank_gf(j, 12))
        assert a == z_inverse(a)

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            build_jrank_gf(2, 5, "other")

    def test_one_expansion_of_the_bilateral_sum(self, monkeypatch):
        # stats._njm_column alone expands the bilateral sum: with it broken, both
        # non-nested forms, the count series and the kn1 right side fail, and the
        # nested form, the independent side of the three-form check, still builds
        def broken(*args):
            raise RuntimeError("bilateral column")

        column, patched = stats._njm_column, set()
        for name, mod in list(sys.modules.items()):
            if name.startswith("qspt") and getattr(mod, "_njm_column", None) is column:
                monkeypatch.setattr(mod, "_njm_column", broken)
                patched.add(name)
        assert patched >= {"qspt.stats", "qspt.laurent"}
        clear_memos()  # so that every builder runs with the broken column
        for j in (1, 2, 3):
            for call in (lambda: build_jrank_gf(j, 20, "bilateral"),
                         lambda: build_jrank_gf(j, 20, "counts"),
                         lambda: stats.gf_njm(j, 1, 20), lambda: build_kn1_sides(j, 20)):
                with pytest.raises(RuntimeError, match="bilateral column"):
                    call()
            build_jrank_gf(j, 20, "nested")

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_nested_matches_tuple_sum(self, j):
        clear_memos()
        nested = build_jrank_gf(j, 30, "nested")
        expected = BiSeries.one(30)
        for first, scalar in tuple_sums.jrank_scalars(j, 30).items():
            expected = expected + dense_sym_pochhammer(first, 1, 30).inverse().mul_series(scalar)
        assert to_bi(nested) == expected


class TestExtractions:
    def test_first_derivative_vanishes(self):
        for builder in (build_crank_gf, build_rank_gf):
            assert dz_at_1(builder(10), 1) == TruncSeries.zero(10)
        assert dz_at_1(build_jrank_gf(3, 10), 1) == TruncSeries.zero(10)

    def test_derivative_of_constant(self):
        assert dz_at_1(SymRows([[1]] + [[0]] * 4), 2) == TruncSeries.zero(4)

    def test_second_derivative_rank_q3(self):
        # sum of m(m-1) over ranks {2, 0, -2} of the partitions of 3 = 2 + 6
        assert dz_at_1(build_rank_gf(5), 2).coefficient(3) == 8

    def test_symmetrized_crank_q1(self):
        assert symmetrized_extract(build_crank_gf(5), 1).coefficient(1) == 1

    def test_symmetrized_small_n_vanishes(self):
        a = symmetrized_extract(build_rank_gf(8), 3)
        for n in range(3):
            assert a.coefficient(n) == 0

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_symmetrized_matches_closed_form(self, j, k):
        order = 16
        got = symmetrized_extract(build_jrank_gf(j, order), k)
        assert got == gf_sym_mu(j, k, order)

    @pytest.mark.parametrize("name,extract", [("integer_binomial", symmetrized_extract),
                                              ("falling_factorial", dz_at_1)])
    def test_each_weight_once_per_extraction(self, monkeypatch, name, extract):
        # one weight per z-exponent -30..30 of the rows, not one per term
        a = build_jrank_gf(2, 30)
        expected = extract(a, 2)
        calls = []
        weight = getattr(laurent, name)
        monkeypatch.setattr(laurent, name, lambda *args: calls.append(args) or weight(*args))
        assert extract(a, 2) == expected
        assert len(calls) == len(set(calls)) == 61

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_symmetrized_matches_closed_form_order_60(self, j):
        clear_memos()
        a = build_jrank_gf(j, 60)
        for k in (1, 2, 3):
            assert symmetrized_extract(a, k) == gf_sym_mu(j, k, 60), k


class TestKn1:
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_sides_equal(self, j):
        lhs, rhs = build_kn1_sides(j, 16)
        assert lhs == rhs

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_sides_equal_order_60(self, j):
        clear_memos()
        lhs, rhs = build_kn1_sides(j, 60)
        assert lhs == rhs

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_sides_equal_order_150(self, j):
        clear_memos()
        lhs, rhs = build_kn1_sides(j, 150)
        assert lhs == rhs

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_lhs_matches_tuple_sum(self, j):
        clear_memos()
        lhs, _ = build_kn1_sides(j, 30)
        scalars = tuple_sums.kn1_scalars(j, 30)
        expected = BiSeries.zero(30)
        mul_factor = tuple_sums.mul_factor
        for outer in range(max(scalars), -1, -1):  # Horner over the outer index
            expected = mul_factor(mul_factor(expected, 1, outer), -1, outer)
            expected = expected + from_series(scalars[outer])
        assert to_bi(lhs) == expected

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_correction_columns_match_per_n_terms(self, j):
        # the bivariate term per n that the column layout replaced
        assert to_bi(SymRows(_kn1_correction(j, 150))) == tuple_sums.kn1_correction(j, 150)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_correction_column_0_matches_column_sum(self, j):
        # one bilateral column in place of the sum over the N other columns
        for order in [*range(41), 90, 150, 300]:
            col0 = [row[0] for row in _kn1_correction(j, order)]
            assert col0 == tuple_sums.kn1_column0(j, order), order

    def test_constant_terms(self):
        lhs, rhs = build_kn1_sides(2, 8)
        assert lhs.coefficient(0) == lp({0: 1})
        assert rhs.coefficient(0) == lp({0: 1})


class TestKn1Builders:
    """The left side on z-columns and the right side by the triple product, pinned
    side by side to the factor-pass builder they replaced (tuple_sums)."""

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_each_side_matches_factor_passes(self, j):
        for order in range(61):
            lhs, rhs = build_kn1_sides(j, order)
            want_lhs, want_rhs = tuple_sums.kn1_sides_by_factors(j, order)
            assert to_bi(lhs) == want_lhs, order
            assert to_bi(rhs) == want_rhs, order

    def test_each_side_matches_factor_passes_order_150(self):
        lhs, rhs = build_kn1_sides(2, 150)
        want_lhs, want_rhs = tuple_sums.kn1_sides_by_factors(2, 150)
        assert to_bi(lhs) == want_lhs
        assert to_bi(rhs) == want_rhs

    @pytest.mark.parametrize("order", [*range(25), 120, 500])
    def test_jacobi_cube_identity(self, order):
        # (q)_inf^3 = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2): dividing its cube leaves 1
        p = pochhammer_inf(1, order)
        rows = [[c] for c in (p * p * p).coeffs]
        _div_q_inf_cubed(rows)
        assert rows == [[1]] + [[0]] * order

    def test_triple_product_columns(self):
        # column k is T_k = sum_{n>k} (-1)^(n+1) q^(n(n-1)/2), and the columns times
        # 1/(q)_inf are prod_{e>=1} (1 - zq^e)(1 - z^{-1}q^e), by factor passes
        mul_factor = tuple_sums.mul_factor
        for order in range(61):
            one = [[1]] + [[0] * (i + 1) for i in range(1, order + 1)]
            cols = list(zip_longest(*_triple_product_rows(one), fillvalue=0))
            for k, col in enumerate(cols):
                t_k = [0] * (order + 1)
                for n in range(k + 1, order + 2):
                    if n * (n - 1) // 2 <= order:
                        t_k[n * (n - 1) // 2] = (-1) ** (n + 1)
                assert list(col) == t_k, (order, k)
            product = BiSeries.one(order)
            for e in range(1, order + 1):
                product = mul_factor(mul_factor(product, 1, e), -1, e)
            got = to_bi(SymRows(_from_columns(cols))).mul_series(inv_pochhammer_inf(1, order))
            assert got == product, order

    def test_builds_without_bivariate_products(self, monkeypatch):
        # every builder, extraction and bivariate verifier runs on int rows alone
        def refuse(*args):
            raise AssertionError("a BiSeries product or inverse, or a Laurent row sum")

        for name in ("__mul__", "inverse", "mul_series"):
            monkeypatch.setattr(BiSeries, name, refuse)
        monkeypatch.setattr(laurent, "_add_shifted", refuse)
        monkeypatch.setattr(LaurentPoly, "__add__", refuse)  # bound to it in the class body
        clear_memos()
        for j in (1, 2, 3):
            lhs, rhs = build_kn1_sides(j, 40)
            assert lhs == rhs
            forms = [build_jrank_gf(j, 40, form) for form in ("nested", "bilateral", "counts")]
            assert forms[0] == forms[1] == forms[2]
            assert symmetrized_extract(forms[0], 2) == gf_sym_mu(j, 2, 40)
        assert build_crank_gf(40) == build_jrank_gf(1, 40)
        assert dz_at_1(build_rank_gf(40), 1) == TruncSeries.zero(40)
        for name in ("kn1", "genjmu2k", "Rk-forms", "relos"):
            for order in (None, 40):
                _, rows, _ = identities.verify(name, order=order)
                assert all(row[-1] for row in rows), (name, order)

    def test_forms_share_no_row_division(self, monkeypatch):
        # the nested form, the counts form and the crank are the independent sides of
        # the Rk-forms check: none divides its rows by a pure-q series
        def refuse(*args):
            raise AssertionError("the pure-q row division")

        monkeypatch.setattr(laurent, "_div_rows", refuse)
        clear_memos()
        with pytest.raises(AssertionError, match="pure-q row division"):
            build_jrank_gf(2, 40, "bilateral")
        for j in (1, 2, 3, 4):
            assert build_jrank_gf(j, 40, "nested") == build_jrank_gf(j, 40, "counts")
        build_crank_gf(60)

    @pytest.mark.parametrize("order", [-1, -4])
    def test_negative_order_raises(self, order):
        # it raised IndexError from the column Horner; the memoized builders say this
        with pytest.raises(ValueError, match=f"order {order} is negative"):
            build_kn1_sides(2, order)


# symmetric rows, as the row kernels see them: row i lists z^0..z^i
sym_rows = st.integers(0, 8).flatmap(lambda order: st.tuples(
    *(st.lists(st.integers(-9, 9), min_size=i + 1, max_size=i + 1) for i in range(order + 1))))


class TestRowKernels:
    """The two in-place kernels on int rows, pinned to the dict-row algebra."""

    @given(rows=sym_rows, t=st.integers(1, 5), start=st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_pair_division_matches_factor_passes(self, rows, t, start):
        # rows below ``start`` zero and each row cut after its last nonzero term, as the
        # crank and the nested form hold them; the slice from ``start`` is divided
        rows = [[0]] * min(start, len(rows)) + list(rows[start:])
        want = to_bi(SymRows(rows))
        want = tuple_sums.div_factor(tuple_sums.div_factor(want, 1, t), -1, t)
        cut = [row[:max((m + 1 for m, c in enumerate(row) if c), default=1)] for row in rows]
        laurent._div_pair(cut[start:], t)
        assert all(len(row) <= i + 1 for i, row in enumerate(cut))
        assert to_bi(SymRows(cut)) == want

    @given(rows=sym_rows)
    @settings(max_examples=200, deadline=None)
    def test_q_inf_divisions_match_mul_series(self, rows):
        inv = inv_pochhammer_inf(1, len(rows) - 1)
        want = to_bi(SymRows(rows)).mul_series(inv)
        got = [list(row) for row in rows]
        _div_q_inf(got)
        assert to_bi(SymRows(got)) == want
        _div_q_inf_cubed(got)
        assert to_bi(SymRows(got)) == want.mul_series(inv * inv * inv)

    @pytest.mark.parametrize("order", [*range(25), 120, 500])
    def test_euler_pentagonal_division(self, order):
        rows = [[c] for c in pochhammer_inf(1, order).coeffs]
        _div_q_inf(rows)
        assert rows == [[1]] + [[0]] * order

    def test_coefficient_is_the_edge(self):
        a = SymRows([[1], [2, 3], [4, 0, 5]])
        assert a.coefficient(2) == lp({-2: 5, 0: 4, 2: 5})
        assert a.coefficient(1) == lp({-1: 3, 0: 2, 1: 3})
        for n in (-1, 3):
            with pytest.raises(IndexError):
                a.coefficient(n)
        assert SymRows([[1], [2], [4]]).rows == ((1,), (2, 0), (4, 0, 0))  # padded


class TestRowBuilders:
    """Each row builder pinned to the dict-row builder it replaced (tuple_sums) at every
    order <= 120: each oracle is built once at 120 and compared by its truncations, and
    the row builder runs at each order, past its memo."""

    def test_crank(self):
        want = to_rows(tuple_sums.crank_gf(120))
        for order in range(121):
            assert build_crank_gf.__wrapped__(order) == want.truncate(order), order

    @pytest.mark.parametrize("form", ["nested", "bilateral", "counts"])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_jrank_forms(self, j, form):
        want = to_rows(tuple_sums.jrank_gf(j, 120, form))
        for order in range(121):
            assert build_jrank_gf.__wrapped__(j, order, form) == want.truncate(order), order

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_kn1_sides(self, j):
        want = [to_rows(side) for side in tuple_sums.kn1_sides_by_factors(j, 120)]
        for order in range(121):
            got = build_kn1_sides(j, order)
            assert got == tuple(side.truncate(order) for side in want), order


class TestRowPrinter:
    """A row prints itself as the Laurent polynomial the verifiers printed before through
    ``SymRows.coefficient`` (tuple_sums.poly_str): every row of each series built at 120."""

    @staticmethod
    def assert_prints_as_before(a):
        for n in range(a.order + 1):
            assert str(a.rows[n]) == tuple_sums.poly_str(a.coefficient(n)), n

    def test_crank(self):
        self.assert_prints_as_before(build_crank_gf(120))

    @pytest.mark.parametrize("form", ["nested", "bilateral", "counts"])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_jrank_forms(self, j, form):
        self.assert_prints_as_before(build_jrank_gf(j, 120, form))

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_kn1_sides(self, j):
        for side in build_kn1_sides(j, 120):
            self.assert_prints_as_before(side)

    def test_hand_rows(self):
        a = SymRows([[-3], [0, 0], [0, 0, 0], [0, 2, 0, -1], [5, 0, 0, 0, 1]])
        assert [str(row) for row in a.rows] == [
            "-3z^0", "0", "0", "-1z^-3+2z^-1+2z^1-1z^3", "1z^-4+5z^0+1z^4"]
        self.assert_prints_as_before(a)

    def test_rows_compare_as_int_tuples(self):
        a = SymRows([[1], [2, -3]])
        assert a.rows == ((1,), (2, -3)) and a.rows[1] == (2, -3)
        assert hash(a.rows[1]) == hash((2, -3)) and repr(a.rows[1]) == "(2, -3)"


class TestPrintedOnlyByTheCli:
    """The bivariate verifiers compare int rows and build no LaurentPoly; a row is made
    text only when the CLI writes it, so a plain PASS formats none."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a LaurentPoly or a printed row")

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("identity", ["kn1", "Rk-forms", "genjmu2k", "relos"])
    def test_no_laurent_poly(self, monkeypatch, identity, fmt):
        monkeypatch.setattr(LaurentPoly, "__init__", self.refuse)
        clear_memos()
        result = CliRunner().invoke(main, ["verify", identity, "--format", fmt])
        assert result.exit_code == 0, result.output
        if fmt == "plain":
            assert result.output.startswith(f"PASS {identity} ")
        elif fmt == "json":
            assert all(row["ok"] for row in json.loads(result.output))
        else:
            assert all(line.endswith(",True") for line in result.output.splitlines()[1:])

    @pytest.mark.parametrize("args", [["kn1"], ["kn1", "--j", "1"], ["Rk-forms"],
                                      ["Rk-forms", "--j", "1"]])
    def test_pass_prints_no_row(self, monkeypatch, args):
        monkeypatch.setattr(laurent.SymRow, "__str__", self.refuse)
        result = CliRunner().invoke(main, ["verify", *args])
        assert result.exit_code == 0, result.output
        assert result.output.startswith(f"PASS {args[0]} ")
        # the patch holds: csv writes every row
        assert CliRunner().invoke(main, ["verify", *args, "--format", "csv"]).exit_code == 3


class TestFromColumns:
    def test_reads_row_n_off_columns_0_to_n(self):
        got = _from_columns([[1, 2, 3], [0, 4, 5]])  # column z^2 and on are zero
        assert got == [[1], [2, 4], [3, 5, 0]]
        assert to_bi(SymRows(got)) == BiSeries([lp({0: 1}), lp({-1: 4, 0: 2, 1: 4}),
                                                lp({-1: 5, 0: 3, 1: 5})])

    def test_term_below_its_column_raises(self):
        # z^2 q^1 lies in no row 0..n, n >= |m|: it must not vanish silently
        with pytest.raises(DiscrepancyError, match=r"column z\^2 is nonzero below q\^2"):
            _from_columns([[1, 0, 0], [0, 1, 0], [0, 7, 1]])

    def test_bad_kn1_column_exits_1(self, monkeypatch):
        columns = laurent._kn1_lhs_columns

        def with_stray_term(j, order):
            cols = columns(j, order)
            return cols + [[0, 1] + [0] * (order - 1)]  # z^len(cols) at q^1

        monkeypatch.setattr(laurent, "_kn1_lhs_columns", with_stray_term)
        result = CliRunner().invoke(main, ["verify", "kn1", "--n-max", "12"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "is nonzero below q^" in result.stderr
