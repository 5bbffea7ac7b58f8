"""The four smallest-part families and their inter-relations.

Each family is computable by several independent routes -- generating
function, combinatorial weight over partitions, and moment differences --
and the routes are required to agree.  Every division along the way is on a
provably divisible integer and is checked exact.  The weights of spt and
spt_k are summed by one sweep over the smallest part.  The per-partition
weights are the levels of one reading of the lower-Durfee blocks
(_level_weights): jspt_k reads one level, Spt_j the sum of the first j at
k = 1.  A partition's ones only move its weight down that many lower-Durfee
squares, so the weight routes of Spt_j and jspt_k read the sweep's row for the
partitions with at least j - 1 ones, and for the rest one table per (j, k) of
the running level sums of the sets of parts > 1 by their sum, each set weighed
once, all its levels by one call, on one walk of the order.
The generating functions are nested sums over chains of Durfee-square sides;
each is summed by one recursion over the levels of its chain, not one index
tuple at a time.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from math import comb
from operator import mul
from typing import Callable, NamedTuple

from .partitions import Partition, _Record, _lower_durfee_sides, _walk, partition_count
from .series import (
    DiscrepancyError,
    TruncSeries,
    _binomial_step,
    _difference_step,
    _link_sums,
    _linear_chain,
    _square_chain,
    memo,
    pochhammer_inf,
    read_down,
)
from .stats import _sym_mu_column, gf_sym_mu, moment, sym_mu


# ---------------------------------------------------------------------------
# spt_k(n), spt = spt_1: one counting row per k and order.  Summed over the
# multiplicity f of a part value t, the weight's factor sum_m C(f+m, 2m) x**m
# is 1/((1 - q**t)(1 - x*y_t)) with y_t = q**t/(1 - q**t)**2, and the smallest
# part s adds x*y_s/(1 - x*y_s).  A sweep over s, from the order down to 1,
# keeps rows[d] = [x**d] of the product over the part values >= s.  The
# partitions with smallest part s weigh the last w: [x**k] of x*y_s/(1 - x*y_s)
# times the product over the values > s.


@memo
def _spt_weight_row(k: int, order: int) -> TruncSeries:
    """spt_k(n) for every n <= order, by one sweep over the smallest part."""
    total = [0] * (order + 1)
    if k > order:  # spt_k(n) = 0 for k > n
        return TruncSeries(total)
    rows = [[1] + [0] * order] + [[0] * (order + 1) for _ in range(k - 1)]
    for s in range(order, 0, -1):
        w = [0] * (order + 1)
        for d in range(min(k, order // s + 1)):  # a row with d*s > order is still zero
            row, last = rows[d], d == k - 1
            # one pass: row = (row + w)/(1 - q**s), then w = q**s*row/(1 - q**s)
            for i in range(s * max(d, 1), order + 1):
                row[i] += w[i] + row[i - s]
                w[i] = row[i - s] + w[i - s]
                if last:
                    total[i] += w[i]
    return TruncSeries(total)


def spt_weight(n: int) -> int:
    """Total appearances of smallest parts over all partitions of n.

    Read from a counting row built once per order: a partition with smallest
    part s occurring m times contributes m, and there are exactly
    count(n - m*s, parts > s) of them.  Pure integer counting, independent of
    any series expansion.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _spt_weight_row.read(1, n)


def gf_spt(order: int) -> TruncSeries:
    """sum_{m>=1} q^m / ((1-q^m)^2 (q^(m+1); q)_inf), truncated: gf_spt_j at j = 1."""
    return gf_spt_j(1, order)


# ---------------------------------------------------------------------------
# combinatorial weights, read by one core off a[:m], a partition or the parts
# > 1 of a state of partitions._walk


def _level_weights(a, m: int, k: int, lo: int, hi: int) -> list[int]:
    """The split weights of a[:m] at the levels lo..hi, none past its last level.

    Level 1 is the smallest part; level L >= 2 is the block of the (L-1)st
    lower-Durfee square, moved up one row, the top block cut at the first part.
    So s squares give s + 1 levels, which tile the parts bottom-up.  A split
    part with mark c weighs the x**k coefficient of sum_{d>=1} C(c + d - 1, 2d - 1) x**d
    times the _larger_product of the parts above it: at k = 1 its mark, so levels
    1..j sum the mark weight.  The split parts of one value have the marks b..e, and
    sum_{c=b..e} C(c + d - 1, 2d - 1) = C(e + d, 2d) - C(b + d - 1, 2d).
    """
    sizes = [1, *_lower_durfee_sides(a, m)]  # of the levels' blocks, bottom-up
    i, weights = m - 1 - sum(sizes[:lo - 1]), []  # i: the lowest part of the next block
    larger = _larger_product(a, m, k) if k > 1 else None
    for size in sizes[lo - 1:hi]:
        total, top = 0, max(i - size + 1, 0)
        while i >= top:  # one value at a time, upward: its parts a[low:i + 1]
            first = a.index(a[i])  # a[:first] are the parts larger than a[i]
            low = first if first > top else top
            b, e = low - first + 1, i - first + 1  # the marks
            if k == 1:
                total += (e - b + 1) * (b + e) // 2
            else:
                rest = larger[first]
                total += sum(rest[k - d] * (comb(e + d, 2 * d) - comb(b + d - 1, 2 * d))
                             for d in range(max(1, k + 1 - len(rest)), min(k, e) + 1))
            i = low - 1
        weights.append(total)
    return weights


def mark_weight(p: Partition, j: int) -> int:
    """Sum of the marks of the designated bottom parts (weight behind Spt_j)."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return sum(_level_weights(p.parts, len(p.parts), 1, 1, j))


def chain_weight(p: Partition, k: int) -> int:
    """Higher-order smallest-part weight: an x**k coefficient of a part-value product.

    It is :func:`split_chain_weight` at j = 1, whose one split part is the
    bottom smallest part, marked with the multiplicity of the smallest part.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not p.parts:
        raise ValueError("weight of the empty partition is undefined")
    return split_chain_weight(p, 1, k)


def _larger_product(a, m: int, k: int) -> dict[int, list[int]]:
    """By the index ``first`` of the top part of each value of a[:m], the product over
    the values of a[:first], with frequency f, of 1 + sum_{e>=1} C(f + e, 2e) x**e,
    truncated below x**k and above x**first: one pass down the values."""
    products, rest, first = {}, [1] + [0] * min(k - 1, m), 0
    for _, run in groupby(a[:m]):
        products[first] = rest[:first + 1]
        f = len(list(run))
        first += f
        factor = [comb(f + e, 2 * e) for e in range(1, min(f, len(rest) - 1) + 1)]
        for d in range(len(rest) - 1, 0, -1) if first < m else ():
            rest[d] += sum(map(mul, factor, rest[d - 1::-1]))  # e = 1..: rest[d - e]
    return products


def split_chain_weight(p: Partition, j: int, k: int) -> int:
    """Generalized weight of the split parts at level j: one polynomial coefficient each.

    A split part t_1 with mark c contributes the x**k coefficient of
    sum_{c'>=1} binom(c + c' - 1, 2c' - 1) x**c' times the product, over the
    part values t > t_1 with frequency f_t, of
    1 + sum_{m>=1} binom(f_t + m, 2m) x**m.  Each term of that product is one
    composition of k laid along one increasing chain of larger part values; a
    piece above the mark or the frequency has a zero binomial.  j = 1 reduces
    to :func:`chain_weight`.  Every binomial has a positive top
    (mark + c' - 1, f_t + m), so ``math.comb`` is the falling-factorial
    binomial there.
    """
    if j < 1 or k < 1:
        raise ValueError("j and k must be >= 1")
    return sum(_level_weights(p.parts, len(p.parts), k, j, j))


# A set P of parts > 1 with r ones has r ones for its first lower-Durfee squares: at
# level j it weighs what P weighs at level j - r for r <= j - 2, and for r >= j - 1 what
# P with r - j + 1 ones weighs in spt_k.  So, over the P of sum n - r (spt_k(m) = 0, m <= 0),
#   jspt_k(n) = spt_k(n - j + 1) + sum_{r <= j - 2} sum_P split_chain_weight(P, j - r, k),
#   Spt_j(n) = sum_{r < j} spt(n - r) + sum_{r <= j - 2} sum_P (levels 2..j - r of P at k = 1),
# the second the first summed over 1..j at k = 1: mark_weight(P, j - r) less its level 1.

# (j, k) -> the columns of _level_sums, held up to the largest order built
_LEVEL_SUMS: dict[tuple[int, int], list[list[int]]] = {}


def _level_sums(order: int, j: int, k: int) -> list[list[int]]:
    """cols[s][L], s <= order: the sum over the P of sum s of their levels 2..L at k,
    L <= min(j, (s + 2) // 4 + 1), past which no P has a level: each lower-Durfee square
    of P but a last one of side 1 has a side d >= 2 and takes d parts >= d.

    Each P of sum s, a[:h + 1] of the state of _walk(order) with order - s ones, weighs
    its levels 2..min(j, h + 2) by one _level_weights call, unless it has fewer than k
    parts, the highest degree in x of a split term.  A larger order weighs only the P of
    the sums past the columns held, on one walk of that order, not of twice the order
    held as series.memo builds, and stores them only once the walk is complete.
    """
    cols = _LEVEL_SUMS.get((j, k), [])
    done = len(cols)
    if done > order:
        return cols
    new = [[0] * (min(j, (s + 2) // 4 + 1) + 1) for s in range(done, order + 1)]
    for a, m, h in _walk(order):
        s = order - m + h + 1
        if s >= done and h >= k - 1:
            for level, w in enumerate(_level_weights(a, h + 1, k, 2, min(j, h + 2)), 2):
                new[s - done][level] += w
    cols = _LEVEL_SUMS[j, k] = cols + [list(accumulate(col)) for col in new]
    return cols


_level_sums.cache_clear = _LEVEL_SUMS.clear


def _shifted_levels(j: int, k: int, n: int, top: int) -> int:
    """The sum over r <= min(j - 2, n) and the P of sum n - r of their levels
    j - r - top + 1..j - r at k (Spt_j reads top = j, jspt_k top = 1), but for the
    r whose lowest level lies past (n - r + 2) // 4 + 1, the last of a sum n - r:
    r < (4 * (j - top) - n - 2) / 3.  The table is built to the largest sum read, if any."""
    rs = range(max(-((n + 2 - 4 * (j - top)) // 3), 0), min(j - 2, n) + 1)
    cols = _level_sums(n - rs.start, j, k) if rs else ()
    # a level past the last of a column reads its total
    return sum(col[min(L, len(col) - 1)] - col[min(max(L - top, 0), len(col) - 1)]
               for col, L in ((cols[n - r], j - r) for r in rs))


# ---------------------------------------------------------------------------
# nested-sum generating functions


@memo
def gf_np(order: int) -> TruncSeries:
    """Generating function of n*p(n), read off the table of p(n)."""
    return TruncSeries(n * partition_count(n) for n in range(order + 1))


# The step that moves each form's chain link one index on, and the power of
# (q)_c the form carries.
_FORMS = {"nested": (_difference_step, 2), "binomial": (_binomial_step, 1)}


def _chain_gf(levels: int, lo: int, form: str, k: int, order: int) -> TruncSeries:
    """The nested sum behind the smallest-part generating functions: over
    lo <= n_1 <= ... <= n_levels <= c = m_1 <= ... <= m_k, c >= 1, of
    q**(n_1**2 + ... + n_levels**2) link(n_1, 0) ... link(c, n_levels) (q)_c**power
    / (q)_inf prod q**m_i / (1 - q**m_i)**2, with the link and power of ``form``:
    the linear chain carries (q)_c**power / (q)_inf**power = 1/(q**(c+1))_inf**power,
    so the nested form (power 2) ends in one sparse product with (q)_inf.
    """
    step, power = _FORMS[form]
    chain = _square_chain(levels, step, order, lo)
    # m_2, ..., m_k weigh at least c each
    seeds = _link_sums(chain, step, range(1, order // k + 1), lambda c: order - k * c)
    out = _linear_chain(seeds, k, order, power)
    return out if power == 1 else pochhammer_inf(1, order) * out


@memo
def gf_spt_j(j: int, order: int) -> TruncSeries:
    """The defining Gaussian-binomial sum for the Spt_j family."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return _chain_gf(j - 1, 0, "binomial", 1, order)


@memo
def gf_genn1_lhs(j: int, order: int) -> TruncSeries:
    """Left side of the depth-j smallest-part identity, in telescoped form.

    Same sum as :func:`gf_spt_j` but with the binomials expanded as
    (q)_{n_j} over the difference products -- a structurally different
    expansion used to cross-check it.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    return _chain_gf(j - 1, 0, "nested", 1, order)


@memo
def gf_genn1_rhs(j: int, order: int) -> TruncSeries:
    """Right side: n*p(n) minus the second symmetrized (j+1)-rank moments."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return gf_np(order) - gf_sym_mu(j + 1, 1, order)


def _half_moment(j: int, n: int) -> int:
    """Half the ordinary second j-rank moment, even as N_j(m, n) = N_j(-m, n); checked
    exact.  The sptdiff and fdyson verifiers read it."""
    half, rem = divmod(moment(j, 2, n), 2)
    if rem:
        raise DiscrepancyError(f"second moment of the {j}-rank is odd at n={n}")
    return half


def spt_j(j: int, n: int, route: str = "moments") -> int:
    """Spt_j(n) by the requested route ("moments", "gf", "weight" or "all")."""
    if j < 1 or n < 1:
        raise ValueError("j and n must be >= 1")
    return _evaluate("Spt_j", (j,), n, route)


def gf_spt_k(k: int, order: int) -> TruncSeries:
    """Nested-sum generating function of the order-k smallest-part family.

    It is the j = 1 case of the binomial form of :func:`gf_jspt_k`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return gf_jspt_k(1, k, order, "binomial")


def spt_k(k: int, n: int, route: str = "moments") -> int:
    """spt_k(n) by the requested route."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    return _evaluate("spt_k", (k,), n, route)


@memo
def gf_jspt_k(j: int, k: int, order: int, form: str = "nested") -> TruncSeries:
    """Generating function of the two-parameter smallest-part family.

    ``form="nested"`` expands the chained-difference display; ``form="binomial"``
    the equivalent Gaussian-binomial display.  Both must agree (tested).  For
    j >= 2 they are different computations; at j = 1 the chain has no levels
    and both reduce to the same one-term passes, so there the moments route
    is the independent check.
    """
    if j < 1 or k < 1:
        raise ValueError("j and k must be >= 1")
    if form not in _FORMS:
        raise ValueError(f"unknown form {form!r}")
    return _chain_gf(j - 1, 1, form, k, order)


def jspt_k(j: int, k: int, n: int, route: str = "moments") -> int:
    """The two-parameter smallest-part value by the requested route."""
    if j < 1 or k < 1 or n < 1:
        raise ValueError("j, k and n must be >= 1")
    return _evaluate("jspt_k", (j, k), n, route)


# ---------------------------------------------------------------------------
# identity checks


def appbp_sides(r: int, k: int, order: int) -> tuple[TruncSeries, TruncSeries]:
    """Both sides of the specialized Bailey-pair series identity."""
    if r < 1 or k < 1:
        raise ValueError("r and k must be >= 1")
    lhs = pochhammer_inf(1, order) * _chain_gf(r - 1, 0, "nested", k, order)
    rhs = _linear_chain([[1] + [0] * order] * order, k, order)
    # the correction's exponent n(n-1)/2 + rn^2 + kn is the (r+1)-rank one
    rhs = rhs - TruncSeries(_sym_mu_column(r + 1, k, order))
    return lhs, rhs


def verify_appbp(r: int, k: int, order: int) -> bool:
    """Check the specialized Bailey-pair series identity to the given order."""
    lhs, rhs = appbp_sides(r, k, order)
    return lhs == rhs


def relation_sum(j: int, n: int) -> int:
    """Spt_j(n) via the telescoping relations; all three expressions must agree."""
    if j < 1 or n < 1:
        raise ValueError("j and n must be >= 1")
    via_moments = spt_j(j, n, "moments")
    # lspt_1(n) = 0 for l > n, as sym_mu(l, 2, n) is
    via_telescope = 0
    for ell in range(1, min(j, n) + 1):
        via_telescope += jspt_k(ell, 1, n, "moments")
    via_sym = sym_mu(1, 2, n) - sym_mu(j + 1, 2, n)
    if not via_moments == via_telescope == via_sym:
        raise DiscrepancyError(
            f"relation mismatch at (j={j}, n={n}): "
            f"{via_moments}, {via_telescope}, {via_sym}"
        )
    return via_moments


# ---------------------------------------------------------------------------
# request plumbing


class Family(NamedTuple):
    """One smallest-part family: the parameters it takes before n, and its routes.

    Every route is a function of (*params, n); the first route is the default.
    """

    params: tuple[str, ...]
    routes: dict[str, Callable[..., int]]


# The routes are lambdas so that they look up the module's functions when
# called, not when this table is built.  A route that reads one coefficient
# reads it with the memoized builder's own ``read``, every argument by position:
# gf_spt_j for gf_spt, gf_jspt_k's binomial form for gf_spt_k.  The moments route
# of Spt_j is n*p(n) - N_{j+1,2}(n)/2, and as N_{j+1}(m, n) = N_{j+1}(-m, n) that
# half is the symmetrized second moment sym_mu(j + 1, 2, n): one series read.
FAMILIES: dict[str, Family] = {
    "p": Family((), {"recurrence": lambda n: partition_count(n)}),
    "spt": Family((), {
        "weight": lambda n: spt_weight(n),
        "gf": lambda n: gf_spt_j.read(1, n),
    }),
    "spt_k": Family(("k",), {
        "moments": lambda k, n: sym_mu(1, 2 * k, n) - sym_mu(2, 2 * k, n),
        "gf": lambda k, n: gf_jspt_k.read(1, k, n, "binomial"),
        "weight": lambda k, n: _spt_weight_row.read(k, n),
    }),
    "Spt_j": Family(("j",), {
        "moments": lambda j, n: n * partition_count(n) - sym_mu(j + 1, 2, n),
        "gf": lambda j, n: gf_spt_j.read(j, n),
        "weight": lambda j, n: (sum(_spt_weight_row(1, n).coeffs[max(n - j + 1, 0):])
                                + _shifted_levels(j, 1, n, j)),
    }),
    "jspt_k": Family(("j", "k"), {
        "moments": lambda j, k, n: sym_mu(j, 2 * k, n) - sym_mu(j + 1, 2 * k, n),
        "gf": lambda j, k, n: gf_jspt_k.read(j, k, n, "nested"),
        "weight": lambda j, k, n: ((_spt_weight_row(k, n).coeffs[n - j + 1] if j <= n else 0)
                                   + _shifted_levels(j, k, n, 1)),
    }),
}

# The weight routes of these families enumerate the partitions of the order, one
# walk for every n up to it (p(40) = 37338, p(50) = 204226); SptRequest refuses them,
# and "all", beyond WEIGHT_N_MAX; those of spt and spt_k read a counting row instead.
ENUMERATING_WEIGHT = ("Spt_j", "jspt_k")
WEIGHT_N_MAX = 40

# Every route name of some family, plus "all" (every route of the family,
# checked to agree).
ROUTES: tuple[str, ...] = (
    *dict.fromkeys(route for fam in FAMILIES.values() for route in fam.routes), "all"
)


def _check_route(family: str, route: str) -> None:
    routes = FAMILIES[family].routes
    if route != "all" and route not in routes:
        raise ValueError(
            f"family {family} has no route {route!r}; known: {', '.join(routes)}, all"
        )


def _evaluate(family: str, args: tuple[int, ...], n: int, route: str) -> int:
    """One family value by one route, or by every route ("all") checked to agree."""
    routes = FAMILIES[family].routes
    fn = routes.get(route)
    if fn is not None:
        return fn(*args, n)
    _check_route(family, route)  # "all", or no such route
    vals = {name: fn(*args, n) for name, fn in routes.items()}
    if len(set(vals.values())) != 1:
        label = ", ".join(str(a) for a in (*args, n))
        raise DiscrepancyError(f"route disagreement for {family}({label}): {vals}")
    return next(iter(vals.values()))


class SptRequest(_Record):
    """A validated, immutable computation request for one of the families in FAMILIES.

    ``route=None`` selects the family's default route.
    """

    __slots__ = ("family", "n_max", "j", "k", "route")

    def __init__(self, family: str, n_max: int, j: int | None = None, k: int | None = None,
                 route: str | None = None) -> None:
        fam = FAMILIES.get(family)
        if fam is None:
            raise ValueError(f"unknown family {family!r}")
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        for name, value in (("j", j), ("k", k)):
            if (name in fam.params) != (value is not None):
                raise ValueError(f"family {family} and {name} parameter are inconsistent")
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        route = next(iter(fam.routes)) if route is None else route
        _check_route(family, route)
        if route in ("weight", "all") and family in ENUMERATING_WEIGHT and n_max > WEIGHT_N_MAX:
            raise ValueError(f"route {route!r} of family {family} enumerates "
                             f"partitions; n_max must be <= {WEIGHT_N_MAX}")
        for name, value in zip(self.__slots__, (family, n_max, j, k, route)):
            object.__setattr__(self, name, value)

    def values(self) -> list[int]:
        """Values for n = 1..n_max."""
        args = tuple(getattr(self, name) for name in FAMILIES[self.family].params)
        return read_down(lambda n: _evaluate(self.family, args, n, self.route), 1, self.n_max)
