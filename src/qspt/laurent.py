"""Laurent polynomials in z and bivariate series in q with Laurent coefficients.

This module houses the two-variable generating functions for the crank, the
rank and the j-rank, together with the z-derivative and symmetrized-moment
extractions that turn them into single-variable series.

The crank and nested j-rank builders divide by one-term factors
(1 - z**a * q**e) with the factor kernel ``BiSeries.div_factor``: one pass over
the rows, O(N * width), where a general ``BiSeries`` inverse costs
O(N**2 * width**2).  The general ``__mul__`` and ``inverse`` are those of the
series algebra ``qspt.series._Series``, which ``BiSeries`` shares with
``TruncSeries``; the tests pin the kernels and builders to them.  The nested
j-rank sum meets its factors by Horner over its first index t, two division
passes per t (the rank function is its j = 2 case).  The kn1 identity is built
on plain int lists: its left side by a Horner over z-columns, its right side
by Jacobi's triple product and one division by (q)_inf^3 on q-rows, so neither
side takes a factor pass.  The bilateral and count forms and both kn1 sides
lay their z^|m| columns out as rows through one layout, ``_from_columns``,
which raises on a term that no row could show.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate, repeat, zip_longest
from operator import add, mul, neg, sub

from .series import (
    DiscrepancyError,
    TruncSeries,
    _Series,
    _difference_step,
    _link_sums,
    _square_chain,
    inv_pochhammer_inf,
    memo,
    pochhammer_inf,
)
from .stats import _bilateral_column, _njm_column, gf_njm


def falling_factorial(x: int, t: int) -> int:
    """x * (x-1) * ... * (x-t+1) for integer x (possibly negative)."""
    out = 1
    for i in range(t):
        out *= x - i
    return out


def integer_binomial(x: int, k: int) -> int:
    """binom(x, k) as the falling-factorial polynomial, valid for negative x.

    The product of k consecutive integers is always divisible by k!, so the
    result is exact.  For 0 <= x < k the product holds the factor x - x, so
    the result is 0 without multiplying out the other factors.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if 0 <= x < k:
        return 0
    num = falling_factorial(x, k)
    den = math.factorial(k)
    q, r = divmod(num, den)
    if r:
        raise DiscrepancyError(f"{num} is not divisible by {k}!")
    return q


def _add_shifted(a: LaurentPoly, b: LaurentPoly, z_exp: int = 0, c: int = 1) -> LaurentPoly:
    """a + c * z**z_exp * b: the one loop that adds a Laurent row into another.

    Sums, differences, negation and scaling of rows, the factor kernels and
    ``BiSeries.mul_series`` all step through it; ``a`` comes back unchanged
    when ``b`` is zero or ``c == 0``.
    """
    if not b.terms or not c:
        return a
    acc = dict(a.terms)
    get = acc.get
    for m, v in b.terms.items():
        m += z_exp
        v = get(m, 0) + c * v
        if v:
            acc[m] = v
        else:
            del acc[m]  # c * v != 0, so the sum is 0 only when it cancels a present term
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = acc  # zero-free by construction
    return out


class LaurentPoly:
    """A finite-support Laurent polynomial in z over the integers.

    Stored as a map from z-exponent to nonzero coefficient; negative
    exponents are allowed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    __add__ = _add_shifted

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _add_shifted(self, other, 0, -1)

    def __neg__(self) -> "LaurentPoly":
        return _add_shifted(_LP_ZERO, self, 0, -1)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                k = m1 + m2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly(out)

    def scale(self, c: int) -> "LaurentPoly":
        return _add_shifted(_LP_ZERO, self, 0, c)

    def unit_inverse(self) -> "LaurentPoly":
        """Inverse of a monomial +-z^m; anything else is not invertible."""
        if len(self.terms) != 1:
            raise ValueError("not an invertible Laurent polynomial")
        ((m, c),) = self.terms.items()
        if c not in (1, -1):
            raise ValueError("not an invertible Laurent polynomial")
        return LaurentPoly({-m: c})

    def weighted_sum(self, weight) -> int:
        """Sum of coeff * weight(exponent) over the support."""
        return sum(c * weight(m) for m, c in self.terms.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentPoly(0)"
        body = " + ".join(f"{c}*z^{m}" for m, c in sorted(self.terms.items()))
        return f"LaurentPoly({body})"


_LP_ZERO = LaurentPoly()
_LP_ONE = LaurentPoly.const(1)


class BiSeries(_Series):
    """A series in q truncated at order N whose coefficients are Laurent polynomials."""

    __slots__ = ()
    _zero, _one = _LP_ZERO, _LP_ONE
    _unit_inverse = staticmethod(LaurentPoly.unit_inverse)
    # perfbench/layers.py patches each traced method in its own class's
    # __dict__, so the traced methods are bound here as well as in _Series
    __mul__ = _Series.__mul__
    inverse = _Series.inverse

    @classmethod
    def from_series(cls, s: TruncSeries) -> "BiSeries":
        return cls([LaurentPoly.const(c) for c in s.coeffs])

    def mul_series(self, s: TruncSeries) -> "BiSeries":
        """Multiply by a pure-q series (much cheaper than a full product)."""
        n = min(self.order, s.order)
        out: list[LaurentPoly] = [_LP_ZERO] * (n + 1)
        for j, c in enumerate(s.coeffs[: n + 1]):
            if c == 0:
                continue
            for i in range(n + 1 - j):
                out[i + j] = _add_shifted(out[i + j], self.coeffs[i], 0, c)
        return BiSeries(out)

    def div_factor(self, z_exp: int, q_exp: int) -> "BiSeries":
        """Divide by the one-term factor (1 - z**z_exp * q**q_exp), q_exp >= 1.

        One ascending pass: row i of the quotient is row i of ``self`` plus
        quotient row i - q_exp shifted by z**z_exp.
        """
        if q_exp < 1:
            raise ValueError("q_exp must be >= 1")
        out = list(self.coeffs)
        for i in range(q_exp, len(out)):
            out[i] = _add_shifted(out[i], out[i - q_exp], z_exp, 1)
        return BiSeries(out)

    def __repr__(self) -> str:
        return f"BiSeries(order={self.order})"


@memo
def build_crank_gf(order: int) -> BiSeries:
    """The two-variable crank generating function (q)_inf / ((zq)_inf (z^{-1}q)_inf)."""
    out = BiSeries.one(order)
    for e in range(1, order + 1):
        out = out.div_factor(1, e).div_factor(-1, e)
    return out.mul_series(pochhammer_inf(1, order))


def build_rank_gf(order: int) -> BiSeries:
    """The two-variable rank generating function: :func:`build_jrank_gf` at j = 2.

    Sum over n >= 0 of q**(n*n) / ((zq)_n (z^{-1}q)_n); the n = 0 term
    contributes the constant 1 for the empty partition.
    """
    return build_jrank_gf(2, order)


def _from_columns(cols: list) -> BiSeries:
    """The series symmetric in z whose z^m column is cols[|m|], zero past the last;
    row n is read off columns 0..n, so a column m nonzero below q^m raises."""
    for m, col in enumerate(cols):
        if any(col[:m]):
            raise DiscrepancyError(f"column z^{m} is nonzero below q^{m}")
    top = len(cols) - 1
    return BiSeries(LaurentPoly({m: cols[abs(m)][n] for m in range(-min(n, top), min(n, top) + 1)})
                    for n in range(len(cols[0])))


@memo
def build_jrank_gf(j: int, order: int, form: str = "nested") -> BiSeries:
    """The two-variable j-rank generating function, normalized to constant term 1.

    Forms: "nested" expands the multiple Durfee-square sum, "bilateral"
    expands the single bilateral sum, and "counts" rebuilds the series from
    the per-residue count generating functions.  All three agree (tested).
    For j = 1 the function is the crank generating function by convention.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if form == "nested":
        if j == 1:
            # The nested sum degenerates at depth 0; by convention the
            # 1-rank is the crank (their count series coincide).
            return build_crank_gf(order)
        # the scalar series S_t of the chains 1 <= t_1 <= ... <= t_{j-1}, by
        # their first index t = t_1, every t in 1..isqrt(order); summed by Horner,
        # acc = (S_t + acc) / ((1 - zq^t)(1 - z^{-1}q^t)) from the largest t down
        chain = _square_chain(j - 1, _difference_step, order, lo=1, descending=True)
        acc = BiSeries.zero(order)
        for first in sorted(chain, reverse=True):
            acc = (acc + BiSeries.from_series(chain[first])).div_factor(1, first)
            acc = acc.div_factor(-1, first)
        return BiSeries.one(order) + acc
    if form not in ("bilateral", "counts"):
        raise ValueError(f"unknown form {form!r}")
    # one column per |m|, as the sum is symmetric in z, each read once: "counts"
    # reads the count series, "bilateral" the raw columns and divides its rows
    # once by (q)_inf; for j >= 2 the sum has no q^0 term: add the empty partition
    out = _from_columns([gf_njm(j, m, order).coeffs if form == "counts"
                         else _njm_column(j, m, order) for m in range(order + 1)])
    if form == "bilateral":
        out = out.mul_series(inv_pochhammer_inf(1, order))
    return out + BiSeries.one(order) if j >= 2 else out


def dz_at_1(a: BiSeries, t: int) -> TruncSeries:
    """The t-th z-derivative evaluated at z = 1, coefficient by coefficient."""
    if t < 0:
        raise ValueError("derivative order must be nonnegative")
    weight = functools.cache(lambda m: falling_factorial(m, t))  # once per exponent
    return TruncSeries([c.weighted_sum(weight) for c in a.coeffs])


def symmetrized_extract(a: BiSeries, k: int) -> TruncSeries:
    """Apply the symmetrized-moment weight binom(m+k-1, 2k) to each z-exponent m.

    Equals (1/(2k)!) (d/dz)^{2k} z^{k-1} a(z, q) at z = 1, which for the
    j-rank series is the generating function of the 2k-th symmetrized moments.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    weight = functools.cache(lambda m: integer_binomial(m + k - 1, 2 * k))  # once per exponent
    return TruncSeries([c.weighted_sum(weight) for c in a.coeffs])


def _kn1_correction(j: int, order: int) -> BiSeries:
    """The kn1 correction sum 1 + sum_{n>=1} (-1)^n q^e (1+x) R_n, x = q^n, e = n((2j+1)n+1)/2,
    where each term's ratio R_n = (z)_n (z^{-1})_n / ((zq)_n (z^{-1}q)_n) telescopes to
    (1-z)(1-z^{-1}) / ((1-zx)(1-z^{-1}x)).  By columns, as (1+x) R_n = 2 - (1-x) sum_{m != 0}
    x^(|m|-1) z^m: column m != 0 is _njm_column(j+1, |m|), and column 0, 1 + 2 sum (-1)^n q^e,
    is 1 - 2 * the (j+1)-rank bilateral sum at a = 1 with the weight w = 1."""
    col0 = [1] + [-2 * c for c in _bilateral_column(j + 1, 1, (1,), order)[1:]]
    return _from_columns([col0] + [_njm_column(j + 1, m, order) for m in range(1, order + 1)])


def _kn1_lhs_columns(j: int, order: int) -> list:
    """The kn1 left side sum_o (z)_o (z^{-1})_o S_o as columns, S_o the scalar series of
    the terms with outer index n_j = o (q^o times the link sum to o of the chains 0 <=
    n_1 <= ... <= n_{j-1}), by a Horner suffix sum over o: the step o multiplies by
    (1-zq^o)(1-z^{-1}q^o), col_m += q^(2o) col_m - q^o (col_{m-1} + col_{m+1}) (column
    0's neighbours both column 1), and adds S_o.  After step o, column m has no term
    below q^(o(m+1) + m(m+1)/2), the least degree of z^m in (zq^o)_(p-o) (z^{-1}q^o)_(p-o)
    q^p over p >= o + m: it is kept from there, and dropped if that is past the order."""
    chain = _square_chain(j - 1, _difference_step, order)
    sums = list(_link_sums(chain, _difference_step, range(order + 1), lambda o: order - o))
    cols: list = []
    for o in range(order, -1, -1):
        old, cols = cols + [[], []], []
        m = 0
        while (start := o * (m + 1) + m * (m + 1) // 2) <= order:
            # old columns m - 1, m and m + 1 land at 0, m + 1 (and m + 1 + 2o) and 2o + 2m + 3
            size = order + 1 - start
            col = list(map(neg, old[m - 1][:size])) if m else [0] * size
            for at in (m + 1, m + 1 + 2 * o):
                col[at:] = map(add, col[at:], old[m])
            for _ in range(1 if m else 2):
                col[2 * o + 2 * m + 3:] = map(sub, col[2 * o + 2 * m + 3:], old[m + 1])
            cols.append(col)
            m += 1
        cols[0] = list(map(add, cols[0], sums[o]))
    return [[0] * (m * (m + 1) // 2) + col for m, col in enumerate(cols)]


def _triple_product_rows(rows: list) -> list:
    """A series symmetric in z times sum_k z^k T_|k|, T_k = sum_{n>k} (-1)^(n+1) q^(n(n-1)/2),
    which is (q)_inf prod_{e>=1} (1-zq^e)(1-z^{-1}q^e) by Jacobi's triple product.  Row i
    lists z^0..z^i, in and out; it adds its box sums z^(1-n) + ... + z^(n-1), read off one
    prefix-sum list, into row i + n(n-1)/2."""
    out = [[0] * (i + 1) for i in range(len(rows))]
    for i, row in enumerate(rows):
        reach = (math.isqrt(8 * (len(rows) - 1 - i) + 1) + 1) // 2  # the largest n that lands
        pre = [0] * reach + list(accumulate(row[:0:-1] + row, initial=0))
        pre += pre[-1:] * (2 * reach)
        base = i + 1 + reach  # pre[base + x] sums the row over z^-i..z^x
        for n in range(1, reach + 1):
            width = i + n  # z^0..z^(i+n-1)
            box = map(sub, pre[base + n - 1: base + n - 1 + width], pre[base - n: base - n + width])
            target = out[i + n * (n - 1) // 2]
            target[:width] = map(add if n % 2 else sub, target, box)
    return out


def _div_q_inf_cubed(rows: list) -> None:
    """Divide rows (row i lists z^0..z^i) in place by (q)_inf^3 = sum_{n>=0} (-1)^n
    (2n+1) q^(n(n+1)/2), Jacobi's identity: one recurrence along q, each of its
    O(sqrt(N)) terms per row one slice operation across z."""
    for i, row in enumerate(rows):
        for n in range(1, (math.isqrt(8 * i + 1) + 1) // 2):  # n(n+1)/2 <= i
            prev = rows[i - n * (n + 1) // 2]
            row[:len(prev)] = map(add if n % 2 else sub, row, map(mul, prev, repeat(2 * n + 1)))


def build_kn1_sides(j: int, order: int) -> tuple[BiSeries, BiSeries]:
    """Both sides of the nested-sum / bilateral-product identity at depth j.

    The left side is the nested sum over n_j >= ... >= n_1 >= 0 with numerator
    (z)_{n_j} (z^{-1})_{n_j}; the right side is the correction sum times
    prod_{e>=1} (1-zq^e)(1-z^{-1}q^e) / (q)_inf^2, its triple product rows over
    (q)_inf^3.  The sides share no kernel; callers assert equality.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    rows = _triple_product_rows([[p.terms.get(m, 0) for m in range(i + 1)]
                                 for i, p in enumerate(_kn1_correction(j, order).coeffs)])
    _div_q_inf_cubed(rows)
    rhs = _from_columns(list(zip_longest(*rows, fillvalue=0)))
    return _from_columns(_kn1_lhs_columns(j, order)), rhs
