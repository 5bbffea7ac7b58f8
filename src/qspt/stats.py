"""Rank, crank and j-rank statistics, their counts, and moment tables.

Counts and moments are coefficients of the single-variable generating
functions; counting over enumerated partitions is kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition, successive_durfee
from .series import DiscrepancyError, TruncSeries, _signed_sum, inv_pochhammer_inf, memo


def rank(p: Partition) -> int:
    """Largest part minus the number of parts."""
    if not p.parts:
        raise ValueError("rank of the empty partition is undefined")
    return p.parts[0] - len(p.parts)


def crank(p: Partition) -> int:
    """Largest part if there are no ones; otherwise (#parts > #ones) - #ones."""
    if not p.parts:
        raise ValueError("crank of the empty partition is undefined")
    ones = sum(1 for part in p.parts if part == 1)
    if ones == 0:
        return p.parts[0]
    bigger = sum(1 for part in p.parts if part > ones)
    return bigger - ones


def jrank(p: Partition, j: int) -> int | None:
    """The j-rank, or None when the partition has fewer than j-1 Durfee squares.

    Counts the columns to the right of the first Durfee square whose length
    is at most the (j-1)st Durfee side, minus the number of parts below the
    (j-1)st Durfee square.  For j = 2 this is the ordinary rank.
    """
    if j < 2:
        raise ValueError("jrank needs j >= 2; j = 1 is the crank")
    chain = successive_durfee(p)
    if len(chain) < j - 1:
        return None
    sides = chain.sides
    d1 = sides[0]
    limit = sides[j - 2]
    cols = 0
    for c in range(d1 + 1, p.parts[0] + 1 if p.parts else 0):
        length = sum(1 for part in p.parts if part >= c)
        if length <= limit:
            cols += 1
    below = len(p.parts) - sum(sides[: j - 1])
    return cols - below


@memo
def gf_njm(j: int, m: int, order: int) -> TruncSeries:
    """Generating function of the count of partitions with j-rank m.

    j = 1 gives the crank count series (with its well-known n = 1 anomaly),
    j = 2 the rank count series.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    am = abs(m)
    acc = TruncSeries.zero(order)
    n = 1
    while True:
        e = n * ((2 * j - 1) * n - 1) // 2 + am * n
        if e > order:
            break
        sign = 1 if n % 2 == 1 else -1
        acc = acc + TruncSeries.monomial(e, order, sign)
        if e + n <= order:
            acc = acc - TruncSeries.monomial(e + n, order, sign)
        n += 1
    return acc * inv_pochhammer_inf(1, order)


def count_njm(j: int, m: int, n: int) -> int:
    """N_j(m, n), read from the count generating function (symmetric in m)."""
    if n < 0 or abs(m) > n:
        return 0
    return gf_njm(j, abs(m), n).coefficient(n)


def moment(j: int, t: int, n: int) -> int:
    """The t-th ordinary j-rank moment: sum of m**t * N_j(m, n) over m in [-n, n]."""
    if t % 2 == 1:
        return 0
    if t == 0:
        return sum(count_njm(j, m, n) for m in range(-n, n + 1))
    return moment_via_sym(j, t // 2, n)


def sym_mu(j: int, k: int, n: int) -> int:
    """The k-th symmetrized j-rank moment, binom(m + floor((k-1)/2), k)-weighted."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 2 == 1 or n < 0:  # an odd k weighs m oddly, so the symmetric counts cancel
        return 0
    return gf_sym_mu(j, k // 2, n).coefficient(n)


@memo
def gf_sym_mu(j: int, k: int, order: int) -> TruncSeries:
    """Closed-form generating function of the 2k-th symmetrized j-rank moments.

    Bilateral sum with the negative half rewritten in nonnegative q-powers:
    1/(q)_inf * sum_{n>=1} (-1)^(n-1)
        (q^(n((2j-1)n+1)/2 + kn) + q^(n((2j-1)n-1)/2 + kn)) / (1-q^n)^(2k).
    """
    # the negative-half exponents; _signed_sum's sign is (-1)^n
    acc = _signed_sum(lambda n: n * ((2 * j - 1) * n - 1) // 2 + k * n, 2 * k, order)
    return -acc * inv_pochhammer_inf(1, order)


def g_poly(k: int) -> tuple[int, ...]:
    """Coefficients (index = x-exponent) of g_k(x) = prod_{i=0}^{k-1} (x^2 - i^2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coeffs = [1]  # polynomial in y = x^2
    for i in range(k):
        sq = i * i
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] -= sq * c
        coeffs = nxt
    out = [0] * (2 * k + 1)
    for d, c in enumerate(coeffs):
        out[2 * d] = c
    return tuple(out)


@dataclass(frozen=True)
class StirlingStarTable:
    """Change-of-basis integers: x^(2n) = sum_k values[n][k] * g_k(x).

    ``values[n][k]`` is stored for 1 <= k <= n <= size; rows are padded with
    zeros below index 1.
    """

    size: int
    values: tuple[tuple[int, ...], ...]

    def value(self, n: int, k: int) -> int:
        if not 1 <= k <= n <= self.size:
            raise IndexError(f"(n, k) = ({n}, {k}) outside the table")
        return self.values[n][k]


def stirling_star(size: int) -> StirlingStarTable:
    """Solve the triangular change of basis from x^(2n) to the g_k exactly."""
    if size < 1:
        raise ValueError("size must be >= 1")
    g = {k: g_poly(k) for k in range(1, size + 1)}
    rows: list[tuple[int, ...]] = [()]
    for n in range(1, size + 1):
        residual = [0] * (2 * n + 1)
        residual[2 * n] = 1
        row = [0] * (n + 1)
        for k in range(n, 0, -1):
            c = residual[2 * k]  # g_k is monic in x^(2k)
            row[k] = c
            if c:
                for d, gc in enumerate(g[k]):
                    residual[d] -= c * gc
        if any(residual):
            raise DiscrepancyError("change of basis did not close")
        rows.append(tuple(row))
    return StirlingStarTable(size, tuple(rows))


def moment_via_sym(j: int, k: int, n: int) -> int:
    """The 2k-th ordinary moment recovered from symmetrized moments.

    Uses the factorial-weighted change of basis; :func:`moment` takes this
    route, and the tests hold it to sums straight over the counts.
    """
    import math

    table = stirling_star(k)
    total = 0
    for t in range(1, k + 1):
        total += math.factorial(2 * t) * table.value(k, t) * sym_mu(j, 2 * t, n)
    return total


@dataclass(frozen=True)
class MomentTable:
    """A memoized block of exact statistic values indexed by n.

    ``kind`` is one of "count", "moment", "symmetrized"; ``index`` is the m,
    t or k parameter; ``source`` records which route produced the values.
    """

    kind: str
    j: int
    index: int
    values: tuple[int, ...]
    source: str

    @classmethod
    def build(cls, kind: str, j: int, index: int, n_max: int) -> "MomentTable":
        stat = {"count": count_njm, "moment": moment, "symmetrized": sym_mu}.get(kind)
        if stat is None:
            raise ValueError(f"unknown table kind {kind!r}")
        # descending, so each series behind the table is built once, at n_max
        vals = tuple(reversed([stat(j, index, n) for n in range(n_max, -1, -1)]))
        return cls(kind, j, index, vals, "generating-function")
