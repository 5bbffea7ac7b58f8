"""The crank, rank and j-rank generating functions in two variables, and the
z-derivative and symmetrized-moment extractions that make them q-series.

Each series built here is symmetric in z and held as ``SymRows``, int rows of
z^0..z^n, built by two in-place kernels: ``_div_pair`` divides by (1 - zq^t)
(1 - z^{-1}q^t), ``_div_rows`` by a pure-q series of few terms; a row prints itself.
``LaurentPoly`` and ``BiSeries`` are the general bivariate algebra, which the tests
pin the builders to; rows meet it only in the accessor ``SymRows.coefficient``.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, mul, neg, sub

from .series import (
    DiscrepancyError,
    TruncSeries,
    _Series,
    _difference_step,
    _link_sums,
    _square_chain,
    memo,
    pochhammer_inf,
)
from .stats import _bilateral_column, _njm_column, gf_njm


def falling_factorial(x: int, t: int) -> int:
    """x * (x-1) * ... * (x-t+1) for integer x (possibly negative)."""
    return math.prod(range(x, x - t, -1))


def integer_binomial(x: int, k: int) -> int:
    """binom(x, k) as the falling-factorial polynomial, valid for negative x: exact, as k!
    divides the product of k consecutive integers, and 0 for 0 <= x < k without multiplying
    out the product, which then holds the factor x - x."""
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
    """a + c * z**z_exp * b: the one loop that adds a Laurent row into another, for sums,
    differences, negation and scaling of rows and ``BiSeries.mul_series``; ``a`` comes back
    unchanged when ``b`` is zero or ``c == 0``."""
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
    """A finite-support Laurent polynomial in z over the integers: a map from z-exponent,
    negative exponents allowed, to nonzero coefficient."""

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

    def __repr__(self) -> str:
        return f"BiSeries(order={self.order})"


class SymRow(tuple):
    """A row of ``SymRows``, printed as the Laurent polynomial whose z^m term is row[|m|]."""

    __slots__ = ()

    def __str__(self) -> str:
        terms = zip(range(1 - len(self), len(self)), self[:0:-1] + self)
        return "+".join(f"{c}z^{m}" for m, c in terms if c).replace("+-", "-") or "0"


class SymRows:
    """A series in q truncated at order N, symmetric in z, with int coefficients: row n
    is the ``SymRow`` of the coefficients of z^0..z^n in the q^n term, padded with zeros."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows: tuple = tuple(SymRow(tuple(row) + (0,) * (n + 1 - len(row)))
                                 for n, row in enumerate(rows))

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def truncate(self, order: int) -> "SymRows":
        if not 0 <= order <= self.order:
            raise ValueError(f"truncation order {order} is outside 0..{self.order}")
        return SymRows(self.rows[: order + 1])

    def coefficient(self, n: int) -> LaurentPoly:
        """The q^n coefficient as a Laurent polynomial in z."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 0..{self.order}")
        return LaurentPoly(dict(zip(range(-n, n + 1), self.rows[n][:0:-1] + self.rows[n])))

    def weighted(self, weight) -> TruncSeries:
        """sum_m weight(m) [z^m]: per row, one dot product with weight(0) at m = 0 and
        weight(m) + weight(-m) at m > 0, each weight computed once."""
        w = [weight(0)] + [weight(m) + weight(-m) for m in range(1, len(self.rows))]
        return TruncSeries([sum(map(mul, row, w)) for row in self.rows])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymRows) and self.rows == other.rows


def _div_pair(rows: list, t: int) -> None:
    """Divide rows in place by (1 - zq^t)(1 - z^{-1}q^t): y_i = x_i + (z + z^{-1}) y_(i-t) -
    y_(i-2t), z^{-1} y_(i-t) read at m = 0 as its z^1 term.  Row i may stop short of z^i and
    grows only as far as y_i reaches; only lengths are read, so rows may start past zeros."""
    for i in range(t, len(rows)):
        row, prev = rows[i], rows[i - t]
        before = rows[i - 2 * t] if i >= 2 * t else ()
        row += [0] * (max(len(prev) + 1, len(before)) - len(row))
        row[1:len(prev) + 1] = map(add, row[1:], prev)
        row[:len(prev) - 1] = map(add, row, prev[1:])
        if len(prev) > 1:
            row[0] += prev[1]
        row[:len(before)] = map(sub, row, before)


def _div_rows(rows: list, terms) -> None:
    """Divide rows (row i lists z^0..z^i) in place by 1 + sum c q^e over the terms (e, c),
    e ascending from 1: y_i = x_i - sum c y_(i-e), one slice operation per term and row."""
    for i, row in enumerate(rows):
        for e, c in terms:
            if e > i:
                break
            prev = rows[i - e]
            scaled = prev if abs(c) == 1 else map(abs(c).__mul__, prev)
            row[:len(prev)] = map(sub if c > 0 else add, row, scaled)


def _div_q_inf(rows: list) -> None:
    """Divide rows by (q)_inf = sum_k (-1)^k q^(k(3k-1)/2), Euler's pentagonal theorem."""
    _div_rows(rows, [(k * (3 * k + s) // 2, (-1) ** k)
                     for k in range(1, len(rows)) for s in (-1, 1)])


def _div_q_inf_cubed(rows: list) -> None:
    """Divide rows by (q)_inf^3 = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2), Jacobi's identity."""
    _div_rows(rows, [(n * (n + 1) // 2, (-1) ** n * (2 * n + 1)) for n in range(1, len(rows))])


@memo
def build_crank_gf(order: int) -> SymRows:
    """The two-variable crank generating function (q)_inf / ((zq)_inf (z^{-1}q)_inf):
    column 0 seeded with (q)_inf, then divided by the pair of every e."""
    rows = [[c] for c in pochhammer_inf(1, order).coeffs]
    for e in range(order, 0, -1):  # after the pairs of e and up, row i reaches z^(i // e)
        _div_pair(rows, e)
    return SymRows(rows)


def build_rank_gf(order: int) -> SymRows:
    """The two-variable rank generating function, sum_{n>=0} q**(n*n) / ((zq)_n (z^{-1}q)_n)
    (the n = 0 term is the empty partition): :func:`build_jrank_gf` at j = 2."""
    return build_jrank_gf(2, order)


def _from_columns(cols: list) -> list:
    """The rows (row n lists z^0..z^n) of the series symmetric in z whose z^m column is
    cols[|m|], zero past the last: a transpose, so a column m nonzero below q^m raises."""
    for m, col in enumerate(cols):
        if any(col[:m]):
            raise DiscrepancyError(f"column z^{m} is nonzero below q^{m}")
    top = len(cols) - 1
    return [list(row[:n + 1]) + [0] * (n - top) for n, row in enumerate(zip(*cols))]


@memo
def build_jrank_gf(j: int, order: int, form: str = "nested") -> SymRows:
    """The two-variable j-rank generating function, normalized to constant term 1, the crank
    at j = 1.  Forms: "nested" expands the multiple Durfee-square sum, "bilateral" the single
    bilateral sum, and "counts" the per-residue count series.  All three agree (tested)."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if form == "nested" and j == 1:
        return build_crank_gf(order)  # by convention, as their count series coincide
    if form == "nested":
        # the scalar series S_t of the chains 1 <= t_1 <= ... <= t_{j-1}, by their first
        # index t = t_1 <= isqrt(order), summed by Horner from the largest t down:
        # acc = (S_t + acc) / ((1 - zq^t)(1 - z^{-1}q^t)), zero below q^(t*t)
        chain = _square_chain(j - 1, _difference_step, order, lo=1, descending=True)
        rows = [[0] for _ in range(order + 1)]
        for first in sorted(chain, reverse=True):
            for row, c in zip(rows, chain[first].coeffs):
                row[0] += c
            _div_pair(rows[first * first:], first)
    elif form in ("bilateral", "counts"):
        # one column per |m|, each read once: "counts" reads the count series,
        # "bilateral" the raw columns and divides its rows once by (q)_inf
        rows = _from_columns([gf_njm(j, m, order).coeffs if form == "counts"
                              else _njm_column(j, m, order) for m in range(order + 1)])
        if form == "bilateral":
            _div_q_inf(rows)
    else:
        raise ValueError(f"unknown form {form!r}")
    if j >= 2:  # the empty partition, which the crank's sum holds already
        rows[0][0] += 1
    return SymRows(rows)


def dz_at_1(a: SymRows, t: int) -> TruncSeries:
    """The t-th z-derivative evaluated at z = 1, coefficient by coefficient."""
    if t < 0:
        raise ValueError("derivative order must be nonnegative")
    return a.weighted(lambda m: falling_factorial(m, t))


def symmetrized_extract(a: SymRows, k: int) -> TruncSeries:
    """Apply the symmetrized-moment weight binom(m+k-1, 2k) to each z-exponent m: (1/(2k)!)
    (d/dz)^{2k} z^{k-1} a(z, q) at z = 1, for a j-rank series the 2k-th symmetrized moments."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return a.weighted(lambda m: integer_binomial(m + k - 1, 2 * k))


def _kn1_correction(j: int, order: int) -> list:
    """The rows of the kn1 correction sum 1 + sum_{n>=1} (-1)^n q^e (1+x) R_n, x = q^n, e =
    n((2j+1)n+1)/2, R_n = (z)_n (z^{-1})_n / ((zq)_n (z^{-1}q)_n) = (1-z)(1-z^{-1}) / ((1-zx)
    (1-z^{-1}x)).  As (1+x) R_n = 2 - (1-x) sum_{m != 0} x^(|m|-1) z^m, column m != 0 is
    _njm_column(j+1, |m|) and column 0, 1 + 2 sum (-1)^n q^e, a (j+1)-rank bilateral sum."""
    col0 = [1] + [-2 * c for c in _bilateral_column(j + 1, 1, (1,), order)[1:]]
    return _from_columns([col0] + [_njm_column(j + 1, m, order) for m in range(1, order + 1)])


def _kn1_lhs_columns(j: int, order: int) -> list:
    """The kn1 left side sum_o (z)_o (z^{-1})_o S_o as columns, S_o the scalar series of the
    terms with outer index n_j = o, by a Horner suffix sum over o: the step o multiplies by
    (1-zq^o)(1-z^{-1}q^o), col_m += q^(2o) col_m - q^o (col_{m-1} + col_{m+1}) (column 0's
    neighbours both column 1), and adds S_o.  After step o, column m is kept from q^(o(m+1) +
    m(m+1)/2), the least degree of z^m in (zq^o)_(p-o) (z^{-1}q^o)_(p-o) q^p over p >= o + m,
    and dropped if that is past the order."""
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
    """Rows times sum_k z^k T_|k|, T_k = sum_{n>k} (-1)^(n+1) q^(n(n-1)/2), which is (q)_inf
    prod_{e>=1} (1-zq^e)(1-z^{-1}q^e) by Jacobi's triple product: row i adds its box sums
    z^(1-n) + ... + z^(n-1), read off one prefix-sum list, into row i + n(n-1)/2."""
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


def build_kn1_sides(j: int, order: int) -> tuple[SymRows, SymRows]:
    """Both sides of the nested-sum / bilateral-product identity at depth j: the nested sum
    over n_j >= ... >= n_1 >= 0 with numerator (z)_{n_j} (z^{-1})_{n_j}, and the correction
    sum times prod_{e>=1} (1-zq^e)(1-z^{-1}q^e) / (q)_inf^2, its triple product rows over
    (q)_inf^3.  The sides share no kernel; callers assert equality."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if order < 0:
        raise ValueError(f"order {order} is negative")
    rhs = _triple_product_rows(_kn1_correction(j, order))
    _div_q_inf_cubed(rhs)
    return SymRows(_from_columns(_kn1_lhs_columns(j, order))), SymRows(rhs)
