"""Exact truncated power series in the variable q.

All generating functions in the package are expanded with :class:`TruncSeries`:
a series truncated at a fixed order N whose coefficients are plain Python
integers.  Arithmetic is exact, never touches floating point, and never
promotes the truncation order -- combining two series yields the minimum of
the two orders.
"""

from __future__ import annotations

import functools
import inspect
from collections import namedtuple
from math import comb, isqrt
from typing import Iterable


class DiscrepancyError(ArithmeticError):
    """A mathematical discrepancy: an inexact division or disagreeing routes.

    Raised explicitly, so the exactness checks hold under ``python -O`` too.
    """


class TruncSeries:
    """A power series in q truncated at order N, with exact int coefficients.

    ``coeffs[i]`` is the coefficient of ``q**i``; the length is always N+1.
    Instances are immutable and hashable, so builders can be memoized.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs: tuple[int, ...] = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the q^0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([1] + [0] * order)

    @classmethod
    def monomial(cls, exp: int, order: int, coeff: int = 1) -> "TruncSeries":
        """The series ``coeff * q**exp`` (zero if exp exceeds the order)."""
        if exp < 0:
            raise ValueError("monomial exponent must be nonnegative")
        c = [0] * (order + 1)
        if exp <= order:
            c[exp] = coeff
        return cls(c)

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncSeries":
        """Drop coefficients above ``order``; silent promotion is forbidden."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[: order + 1])

    def shift(self, exp: int) -> "TruncSeries":
        """Multiply by ``q**exp``, keeping the truncation order."""
        if exp < 0:
            raise ValueError("shift exponent must be nonnegative")
        n = self.order
        if exp > n:
            return TruncSeries.zero(n)
        return TruncSeries([0] * exp + list(self.coeffs[: n + 1 - exp]))

    def scale(self, c: int) -> "TruncSeries":
        return TruncSeries([c * a for a in self.coeffs])

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-a for a in self.coeffs])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                if b:
                    out[i + j] += a * b
        return TruncSeries(out)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; the constant term must be +1 or -1."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(f"constant term {c0} is not a unit")
        n = self.order
        out = [0] * (n + 1)
        out[0] = c0
        for i in range(1, n + 1):
            acc = 0
            for j in range(1, i + 1):
                if self.coeffs[j]:
                    acc += self.coeffs[j] * out[i - j]
            out[i] = -c0 * acc
        return TruncSeries(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = [f"{c}*q^{i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"TruncSeries({body}; order={self.order})"


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def memo(builder):
    """Memoize a series builder by its arguments other than ``order``.

    Only the largest-order series built for each argument tuple is kept, and
    any order at or below it is answered by ``.truncate(order)``: truncated
    series agree on every coefficient they share.  A miss builds at
    ``max(order, 2 * largest)``, so reading orders in ascending sequence
    costs O(log order) builds.  ``cache_info()`` and ``cache_clear()`` work
    as on the functools caches; ``holds(*args)`` says whether a call with
    those arguments would be a hit, without making it.
    """
    sig = inspect.signature(builder)
    at = list(sig.parameters).index("order")
    built: dict[tuple, object] = {}
    counts = [0, 0]  # hits, misses

    def positional(args, kwargs):
        """The arguments of a call as one positional tuple, defaults filled in."""
        if kwargs or len(args) != len(sig.parameters):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        return args

    @functools.wraps(builder)
    def wrapper(*args, **kwargs):
        if kwargs or len(args) != len(sig.parameters):
            args = positional(args, kwargs)
        order = args[at]
        key = args[:at] + args[at + 1 :]
        series = built.get(key)
        if series is not None and series.order >= order:
            counts[0] += 1
        else:
            counts[1] += 1
            size = order if series is None else max(order, 2 * series.order)
            series = built[key] = builder(*args[:at], size, *args[at + 1 :])
        return series if series.order == order else series.truncate(order)

    def holds(*args, **kwargs) -> bool:
        """Whether this call would be answered from the memo, without making it."""
        args = positional(args, kwargs)
        series = built.get(args[:at] + args[at + 1 :])
        return series is not None and series.order >= args[at]

    wrapper.holds = holds
    wrapper.cache_info = lambda: CacheInfo(counts[0], counts[1], None, len(built))

    def cache_clear() -> None:
        built.clear()
        counts[:] = [0, 0]

    wrapper.cache_clear = cache_clear
    return wrapper


def _mul_one_minus(coeffs: list[int], exp: int) -> None:
    """In-place multiply a coefficient list by (1 - q**exp)."""
    for i in range(len(coeffs) - 1, exp - 1, -1):
        coeffs[i] -= coeffs[i - exp]


def _div_one_minus(coeffs: list[int], exp: int) -> None:
    """In-place divide a coefficient list by (1 - q**exp), exp >= 1."""
    for i in range(exp, len(coeffs)):
        coeffs[i] += coeffs[i - exp]


def _pochhammer(a_exp: int, n: int, order: int, step) -> TruncSeries:
    """(q**a_exp; q)_n as n in-place one-term passes: ``step`` is
    ``_mul_one_minus`` for the product and ``_div_one_minus`` for its inverse."""
    if a_exp < 1:
        raise ValueError("a_exp must be a positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = [1] + [0] * order
    # factors whose exponent exceeds the order cannot touch the coefficients
    for e in range(a_exp, min(a_exp + n, order + 1)):
        step(out, e)
    return TruncSeries(out)


@memo
def pochhammer_finite(a_exp: int, n: int, order: int) -> TruncSeries:
    """(q**a_exp; q)_n = product of (1 - q**(a_exp+i)) for i = 0..n-1."""
    return _pochhammer(a_exp, n, order, _mul_one_minus)


def pochhammer_inf(a_exp: int, order: int) -> TruncSeries:
    """(q**a_exp; q)_infinity truncated at ``order``.

    Factors whose exponent exceeds the order are omitted; they cannot affect
    the retained coefficients.  a_exp = 0 would make the product vanish
    identically, so it is rejected.
    """
    return pochhammer_finite(a_exp, order + 1, order)


@memo
def inv_pochhammer_inf(a_exp: int, order: int) -> TruncSeries:
    """1 / (q**a_exp; q)_infinity, memoized (used by nearly every builder)."""
    return _pochhammer(a_exp, order + 1, order, _div_one_minus)


@memo
def inv_pochhammer_finite(a_exp: int, n: int, order: int) -> TruncSeries:
    return _pochhammer(a_exp, n, order, _div_one_minus)


@memo
def inv_one_minus(exp: int, order: int, power: int = 1) -> TruncSeries:
    """1 / (1 - q**exp)**power as a truncated series, for exp >= 1."""
    if exp < 1 or power < 1:
        raise ValueError("exp and power must be positive")
    out = [0] * (order + 1)
    t = 0
    while t * exp <= order:
        out[t * exp] = comb(t + power - 1, power - 1)
        t += 1
    return TruncSeries(out)


@memo
def gauss_binomial(n: int, m: int, order: int) -> TruncSeries:
    """The Gaussian binomial coefficient [n, m] truncated at ``order``.

    Built by the q-Pascal recurrence [n, m] = [n-1, m] + q**(n-m) * [n-1, m-1];
    the zero series when m < 0 or m > n.  Every entry the recurrence reaches
    is memoized.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 0 or m > n:
        return TruncSeries.zero(order)
    if m == 0 or m == n:
        return TruncSeries.one(order)
    if not ((m == 1 or gauss_binomial.holds(n - 1, m - 1, order))
            and (m == n - 1 or gauss_binomial.holds(n - 1, m, order))):
        # Read the interior of the triangle below [n, m] row by row, so that
        # each entry finds its interior parents memoized: a cold call does not
        # recurse n - m deep.
        for r in range(2, n):
            for c in range(max(1, m - (n - r)), min(m, r - 1) + 1):
                gauss_binomial(r, c, order)
    return gauss_binomial(n - 1, m, order) + gauss_binomial(n - 1, m - 1, order).shift(n - m)


def _difference_link(hi: int, lo: int, order: int) -> TruncSeries:
    """1 / (q)_{hi - lo}: the chain link of the difference-product forms."""
    return inv_pochhammer_finite(1, hi - lo, order)


def _link_sum(x: int, chain: dict[int, TruncSeries], link, order: int,
              shift: int = 0, descending: bool = False) -> TruncSeries:
    """q**shift * the sum of link(max(x, y), min(x, y)) * chain[y] over the ends
    y <= x of ``chain`` (y >= x if descending), truncated at ``order``; each
    product is taken only to the order it can reach."""
    reach = order - shift
    acc = [0] * (order + 1)
    for y, s in chain.items():  # chain[y] carries the factor q**(y*y)
        if y * y <= reach and (y >= x if descending else y <= x):
            term = s.truncate(reach) * link(max(x, y), min(x, y), s.order)
            for i, c in enumerate(term.coeffs, shift):
                acc[i] += c
    return TruncSeries(acc)


def _square_chain(levels: int, link, order: int, lo: int = 0,
                  descending: bool = False) -> dict[int, TruncSeries]:
    """The chains lo <= n_1 <= ... <= n_levels, weighing q**(n_1**2 + ... + n_levels**2),
    summed by their free end: one link sum per end x, x*x <= order, per level.

    Ascending, the free end is n_levels and the links are link(n_1, 0),
    link(n_2, n_1), ...; no levels leave {0: 1}.  Descending, the free end is
    n_1 and there is no link to 0.
    """
    if levels * lo * lo > order:
        return {}  # every chain weighs more than the order
    if lo == 0:  # longer chains of weight <= order start with 0, and link(0, 0) = 1
        levels = min(levels, order)
    ends = range(lo, isqrt(order) + 1)
    chain = {0: TruncSeries.one(order)}
    if descending:
        chain, levels = {x: TruncSeries.monomial(x * x, order) for x in ends}, levels - 1
    for _ in range(levels):
        chain = {x: _link_sum(x, chain, link, order, x * x, descending) for x in ends}
    return chain


def _linear_chain(seeds: dict[int, TruncSeries], k: int, order: int) -> TruncSeries:
    """sum over 1 <= n_1 <= ... <= n_k of seeds[n_1] * prod q**n_i / (1 - q**n_i)**2.

    The sums S_r(a) over the chains with n_r <= a follow S_0(a) = seeds[a] and
    S_r(a) = S_r(a - 1) + q**a / (1 - q**a)**2 * S_{r-1}(a); the k - r indices
    after n_r are each >= a, so S_r(a) is needed only to order - (k - r) * a.
    """
    if k > order:
        return TruncSeries.zero(order)  # every chain weighs at least k
    runs = [[0] * (order + 1) for _ in range(k)]
    for a in range(1, order + 1):
        src = seeds[a].coeffs if a in seeds else ()
        for r, run in enumerate(runs):
            reach = order - (k - r) * a
            if reach >= 0 and src:
                term = list(src[: reach + 1])
                _div_one_minus(term, a)
                _div_one_minus(term, a)
                for i, c in enumerate(term, a):  # a + reach <= order
                    run[i] += c
            src = run
    return TruncSeries(runs[-1])
