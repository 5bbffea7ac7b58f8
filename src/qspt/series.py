"""Exact truncated power series in the variable q.

All generating functions in the package are expanded with :class:`TruncSeries`:
a series truncated at a fixed order N whose coefficients are plain Python
integers.  Arithmetic is exact, never touches floating point, and never
promotes the truncation order -- combining two series yields the minimum of
the two orders.  The algebra itself lives in ``_Series``, once for both
coefficient rings: ``qspt.laurent.BiSeries`` is the same series over Laurent
polynomials in z.
"""

from __future__ import annotations

import functools
import sys
from collections import namedtuple
from math import comb, isqrt
from operator import add
from typing import Iterable, Iterator, TypeVar


class DiscrepancyError(ArithmeticError):
    """A mathematical discrepancy: an inexact division or disagreeing routes.

    Raised explicitly, so the exactness checks hold under ``python -O`` too.
    """


_S = TypeVar("_S", bound="_Series")


class _Series:
    """The truncated power series algebra over a coefficient ring.

    ``coeffs[i]`` is the coefficient of ``q**i``; the length is always N+1.
    A subclass names its ring by ``_zero``, ``_one`` and ``_unit_inverse``
    (the inverse of a unit, ValueError for anything else); the ring's zero is
    the one falsy element.  Sums and products keep the smaller of the two
    orders.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs: tuple = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the q^0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls: type[_S], order: int) -> _S:
        return cls([cls._zero] * (order + 1))

    @classmethod
    def one(cls: type[_S], order: int) -> _S:
        return cls([cls._one] + [cls._zero] * order)

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def truncate(self: _S, order: int) -> _S:
        """Drop coefficients above ``order``; silent promotion is forbidden."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < 0:
            raise ValueError(f"truncation order {order} is negative")
        return type(self)(self.coeffs[: order + 1])

    def shift(self: _S, exp: int) -> _S:
        """Multiply by ``q**exp``, keeping the truncation order."""
        if exp < 0:
            raise ValueError("shift exponent must be nonnegative")
        n = self.order
        if exp > n:
            return self.zero(n)
        return type(self)((self._zero,) * exp + self.coeffs[: n + 1 - exp])

    def __add__(self: _S, other: _S) -> _S:
        return type(self)([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self: _S, other: _S) -> _S:
        return type(self)([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self: _S) -> _S:
        return type(self)([-a for a in self.coeffs])

    def __mul__(self: _S, other: _S) -> _S:
        n = min(self.order, other.order)
        out = [self._zero] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                if b:
                    out[i + j] += a * b
        return type(self)(out)

    def inverse(self: _S) -> _S:
        """Multiplicative inverse; the constant term must be a unit."""
        lead_inv = self._unit_inverse(self.coeffs[0])
        n = self.order
        out = [lead_inv] + [self._zero] * n
        for i in range(1, n + 1):
            acc = self._zero
            for j in range(1, i + 1):
                if self.coeffs[j]:
                    acc += self.coeffs[j] * out[i - j]
            out[i] = -(lead_inv * acc)
        return type(self)(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self.coeffs == other.coeffs


class TruncSeries(_Series):
    """A power series in q truncated at order N, with exact int coefficients.

    Instances are immutable and hashable, so builders can be memoized.
    """

    __slots__ = ()
    _zero, _one = 0, 1
    # perfbench/layers.py patches each traced method in its own class's
    # __dict__, so the traced methods are bound here as well as in _Series
    __mul__ = _Series.__mul__
    __add__ = _Series.__add__
    __sub__ = _Series.__sub__
    shift = _Series.shift
    inverse = _Series.inverse

    @staticmethod
    def _unit_inverse(c0: int) -> int:
        if c0 not in (1, -1):
            raise ValueError(f"constant term {c0} is not a unit")
        return c0

    @classmethod
    def monomial(cls, exp: int, order: int, coeff: int = 1) -> "TruncSeries":
        """The series ``coeff * q**exp`` (zero if exp exceeds the order)."""
        if exp < 0:
            raise ValueError("monomial exponent must be nonnegative")
        c = [0] * (order + 1)
        if exp <= order:
            c[exp] = coeff
        return cls(c)

    def scale(self, c: int) -> "TruncSeries":
        return TruncSeries([c * a for a in self.coeffs])

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
    costs O(log order) builds.  A caller that needs one coefficient reads it
    with ``.read``, which indexes the held series: only a build costs more than
    a lookup.  ``cache_info()`` and ``cache_clear()`` work as on the functools
    caches.  The builder's parameters, read off its
    code object, must be positional-or-keyword: a call that does not pass each
    by position is bound to them first, and raises TypeError where the builder
    would.
    """
    code = builder.__code__
    # 0x0C is CO_VARARGS | CO_VARKEYWORDS
    if code.co_flags & 0x0C or code.co_kwonlyargcount or code.co_posonlyargcount:
        raise TypeError(f"memo needs positional-or-keyword parameters: {builder.__qualname__}")
    names = code.co_varnames[: code.co_argcount]
    width, at = len(names), names.index("order")
    tail = builder.__defaults__ or ()
    defaults = dict(zip(names[width - len(tail):], tail))
    built: dict[tuple, object] = {}
    counts = [0, 0]  # hits, misses
    last = at == width - 1  # then the key is args[:at], one slice
    module, name = sys.modules.get(builder.__module__), builder.__name__

    def bind(args: tuple, kwargs: dict) -> tuple:
        """The call's arguments as one positional tuple over every parameter."""
        left = width - len(args)  # the parameters not passed by position
        if not kwargs and 0 <= left <= len(tail):
            return args + tail[len(tail) - left:]
        rest, bound = names[len(args):], {**defaults, **kwargs}
        if left < 0 or not kwargs.keys() <= set(rest) or not bound.keys() >= set(rest):
            raise TypeError(f"{builder.__name__}() takes ({', '.join(names)}), not "
                            f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword")
        return args + tuple(map(bound.__getitem__, rest))

    @functools.wraps(builder)
    def wrapper(*args, **kwargs):
        if kwargs or len(args) != width:
            args = bind(args, kwargs)
        order = args[at]
        if order < 0:  # before the lookup, so that a hit raises as a miss does
            raise ValueError(f"order {order} is negative")
        key = args[:at] if last else args[:at] + args[at + 1 :]
        series = built.get(key)
        held = -1 if series is None else series.order
        if held >= order:
            counts[0] += 1
            return series if held == order else series.truncate(order)
        counts[1] += 1
        size = max(order, 2 * held)
        series = built[key] = builder(*args[:at], size, *args[at + 1 :])
        return series if size == order else series.truncate(order)

    def read(*args, **kwargs):
        """``wrapper(*args, **kwargs).coefficient(order)``, counted as that call.

        For builders of :class:`TruncSeries`.  A hit indexes the held tuple,
        checked by its length (``order`` is a property, so a call), with no
        truncated copy.  A miss calls the builder by its module's name for it
        when that name still carries this reader, so that a wrapper made in
        its place by functools.wraps (a tracer's) sees every build.  The
        lookup of ``wrapper`` is written out again: a value read is the hot path.
        """
        if kwargs or len(args) != width:
            args = bind(args, kwargs)
        order = args[at]
        if order < 0:
            raise ValueError(f"order {order} is negative")
        series = built.get(args[:at] if last else args[:at] + args[at + 1 :])
        if series is not None:
            coeffs = series.coeffs
            if order < len(coeffs):
                counts[0] += 1
                return coeffs[order]
        entry = getattr(module, name, None)
        return (entry if getattr(entry, "read", None) is read else wrapper)(*args).coeffs[-1]

    # functools.wraps copies these onto any wrapper around this one
    wrapper.read = read
    wrapper.cache_info = lambda: CacheInfo(counts[0], counts[1], None, len(built))

    def cache_clear() -> None:
        built.clear()
        counts[:] = [0, 0]

    wrapper.cache_clear = cache_clear
    return wrapper


def read_down(f, lo: int, hi: int) -> list:
    """``[f(n) for n = lo..hi]``, evaluated from ``hi`` down: the first read of
    each memoized series is then at its largest order, so it is built once."""
    return [f(n) for n in range(hi, lo - 1, -1)][::-1]


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


@memo
def pochhammer_inf(a_exp: int, order: int) -> TruncSeries:
    """(q**a_exp; q)_infinity truncated at ``order``.

    Factors whose exponent exceeds the order are omitted; they cannot affect
    the retained coefficients.  a_exp = 0 would make the product vanish
    identically, so it is rejected.
    """
    return _pochhammer(a_exp, order + 1, order, _mul_one_minus)


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

    [n, m] = prod_{i=1..m} (1 - q**(n-m+i)) / (1 - q**i), built as one multiply
    and one divide pass per factor with m replaced by min(m, n - m); the zero
    series when m < 0 or m > n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 0 or m > n:
        return TruncSeries.zero(order)
    m = min(m, n - m)
    out = [1] + [0] * order
    for i in range(1, m + 1):
        _mul_one_minus(out, n - m + i)
        _div_one_minus(out, i)
    return TruncSeries(out)


def _difference_step(run: list[int], x: int, y: int) -> None:
    """Move the link 1/(q)_{|x - y|} on as x moves one index away from y."""
    _div_one_minus(run, abs(x - y))


def _binomial_step(run: list[int], x: int, y: int) -> None:
    """Move the link [max(x, y), min(x, y)] on as x moves one index away from y:
    [x, y] = [x - 1, y] (1 - q**x) / (1 - q**(x - y)) for x > y, and
    [y, x] = [y, x + 1] (1 - q**(x + 1)) / (1 - q**(y - x)) for x < y; [x, 0] = 1."""
    if y:
        _mul_one_minus(run, x if x > y else x + 1)
        _div_one_minus(run, abs(x - y))


def _link_sums(chain: dict[int, TruncSeries], step, xs: range, reach) -> Iterator[list[int]]:
    """For each x of ``xs`` in turn, the sum of link(max(x, y), min(x, y)) * chain[y]
    over the ends y of ``chain`` that x has reached, as a coefficient list
    truncated at ``reach(x)``.

    ``xs`` runs up (y is reached when y <= x) or down (when y >= x) by one,
    from no further than one index short of the nearest end.  chain[y] carries
    the factor q**(y*y), so each end keeps one running list from q**(y*y) on,
    moved from the previous x to x in place by ``step(run, x, y)``, where
    link(y, y) = 1.  The reach of an ascending pass falls as x grows, so its
    lists are cut to it as they go, and an end with y*y above it is skipped.
    """
    descending = xs.step < 0
    runs = {y: list(s.coeffs[y * y:]) for y, s in chain.items()}
    for x in xs:
        top = reach(x) + 1
        acc = None
        for y, run in runs.items():
            yy = y * y
            if y < x if descending else y > x or yy >= top:
                continue
            if not descending:
                del run[top - yy:]
            if y != x:
                step(run, x, y)
            if acc is None:
                acc = ([0] * yy + run)[:top]
            else:
                acc[yy:] = map(add, acc[yy:], run)
        yield acc or [0] * top


def _square_chain(levels: int, step, order: int, lo: int = 0,
                  descending: bool = False) -> dict[int, TruncSeries]:
    """The chains lo <= n_1 <= ... <= n_levels, weighing q**(n_1**2 + ... + n_levels**2),
    summed by their free end: one running link sum over the ends x, x*x <= order,
    per level, its links moved on by ``step``.

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
        ends = ends[::-1]
    for _ in range(levels):
        chain = {x: TruncSeries([0] * (x * x) + acc)
                 for x, acc in zip(ends, _link_sums(chain, step, ends, lambda x: order - x * x))}
    return chain


def _linear_chain(seeds: Iterable[list[int]], k: int, order: int, power: int = 0) -> TruncSeries:
    """sum over 1 <= n_1 <= ... <= n_k of seeds[n_1] * prod q**n_i / (1 - q**n_i)**2
    / (q**(n_1 + 1))_inf**power, for power <= 2.

    ``seeds`` yields seeds[1], seeds[2], ... in turn, so that only one is held
    at a time; each is a coefficient list reaching order - k * a at least, or
    empty (as are those after the last) where there is no seed.  The
    sums S_r(a) over the chains with n_r <= a, each over (q**(n_1 + 1))_a**power,
    follow S_0(a) = seeds[a] and S_r(a) = (S_r(a - 1) + q**a * S_{r-1}(a) /
    (1 - q**a)**(2 - power)) / (1 - q**a)**power; the k - r indices after n_r
    are each >= a, so S_r(a) is needed only to order - (k - r) * a.
    """
    if k > order:
        return TruncSeries.zero(order)  # every chain weighs at least k
    runs = [[0] * (order + 1) for _ in range(k)]
    seeds = iter(seeds)
    for a in range(1, order + 1):
        src = next(seeds, ())
        for r, run in enumerate(runs):
            reach = order - (k - r) * a  # runs[r] is needed to a + reach
            if reach >= 0:
                del run[a + reach + 1:]
                term = list(src[: reach + 1]) or [0] * (reach + 1)
                for _ in range(2 - power):
                    _div_one_minus(term, a)
                if power:  # add q**a * term and divide by 1 - q**a in one pass
                    for i, c in enumerate(term, a):
                        run[i] += c + run[i - a]
                else:
                    run[a:] = map(add, run[a:], term)
                for _ in range(power - 1):
                    _div_one_minus(run, a)
            src = run
    return TruncSeries(runs[-1])
