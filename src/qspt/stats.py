"""Rank, crank and j-rank statistics, their counts, and their moments.

Counts and symmetrized moments are coefficients of the single-variable
generating functions, whose bilateral sums only the column writers
``_njm_column`` and ``_sym_mu_column`` expand; the ordinary moments follow
from the symmetrized ones by the central-factorial change of basis.
Counting over enumerated partitions is kept as a test oracle.
"""

from __future__ import annotations

import math

from .partitions import Partition, successive_durfee
from .series import TruncSeries, inv_pochhammer_inf, memo

# The largest ordinary moment order t (2k for relos and genineq) the CLI accepts.  Its
# cost grows about as t**2, as the central-factorial entries and the moments of n grow
# like n**t: at t = 300000 and --n-max 3 each of the three requests took 3.7-6.6 s on a
# shared 2-vCPU KVM guest (Python 3.11).
MOMENT_ORDER_MAX = 300_000


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
    sides = successive_durfee(p)
    if len(sides) < j - 1:
        return None
    cols = sum(1 for length in p.conjugate()[sides[0]:] if length <= sides[j - 2])
    return cols - (len(p.parts) - sum(sides[: j - 1]))  # minus the parts below


def _bilateral_column(j: int, a: int, w, order: int) -> list[int]:
    """sum_{n>=1} (-1)^(n-1) q^e w(q^n), e = n((2j-1)n-1)/2 + an, w(x) = sum_t w[t] x^t,
    as one coefficient list: a bilateral j-rank sum, its negative half folded on."""
    coeffs = [0] * (order + 1)
    n = 1
    while (e := n * ((2 * j - 1) * n - 1) // 2 + a * n) <= order:
        sign = 1 if n % 2 == 1 else -1
        for i, c in zip(range(e, order + 1, n), w):
            coeffs[i] += sign * c
        n += 1
    return coeffs


def _njm_column(j: int, am: int, order: int) -> list[int]:
    """The column z^am, am >= 0, of the bilateral j-rank sum before 1/(q)_inf.

    z * sum_{n != 0} (-1)^(n-1) q^(n((2j-1)n+1)/2) (1-q^n)/(1-zq^n) is symmetric in
    z: at n = -m the z factor cancels, and (1-q^n)/(1-z^d q^n) = sum_{t>=0} z^(dt)
    (q^(nt) - q^(n(t+1))) gives both halves (-1)^(n-1) (q^e - q^(e+n)) per n at z^am.
    """
    return _bilateral_column(j, am, (1, -1), order)


@memo
def gf_njm(j: int, m: int, order: int) -> TruncSeries:
    """Generating function of the count of partitions with j-rank m.

    j = 1 gives the crank count series (with its well-known n = 1 anomaly),
    j = 2 the rank count series.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    return TruncSeries(_njm_column(j, abs(m), order)) * inv_pochhammer_inf(1, order)


def count_njm(j: int, m: int, n: int) -> int:
    """N_j(m, n), read from the count generating function (symmetric in m)."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if n < 0 or abs(m) > n:
        return 0
    return gf_njm.read(j, abs(m), n)


def moment(j: int, t: int, n: int) -> int:
    """The t-th ordinary j-rank moment: sum of m**t * N_j(m, n) over m in [-n, n]."""
    if j < 1 or t < 0:
        raise ValueError("j must be >= 1" if j < 1 else "t must be >= 0")
    if t % 2 == 1:
        return 0
    if t == 0:
        return sum(count_njm(j, m, n) for m in range(-n, n + 1))
    return moment_via_sym(j, t // 2, n)


def sym_mu(j: int, k: int, n: int) -> int:
    """The k-th symmetrized j-rank moment, binom(m + floor((k-1)/2), k)-weighted."""
    if j < 1 or k < 1:
        raise ValueError("j and k must be >= 1")
    if k % 2 == 1 or n < j - 1 + k // 2:  # odd k cancels; the column starts at q**(j-1+k/2)
        return 0
    return gf_sym_mu.read(j, k // 2, n)


def _sym_mu_column(j: int, k: int, order: int) -> list[int]:
    """The bilateral sum of the 2k-th symmetrized j-rank moments before 1/(q)_inf, its
    negative half folded on: sum_{n>=1} (-1)^(n-1) (q^e + q^(e+n)) / (1-q^n)^(2k), e =
    n((2j-1)n-1)/2 + kn; [x^t] (1+x)/(1-x)^(2k) = C(t+2k-1, 2k-1) + C(t+2k-2, 2k-1)."""
    w = [math.comb(t + 2 * k - 1, 2 * k - 1) + math.comb(t + 2 * k - 2, 2 * k - 1)
         for t in range(order - (j - 1 + k) + 1)]  # the least e is e(1) = j - 1 + k
    return _bilateral_column(j, k, w, order)


@memo
def gf_sym_mu(j: int, k: int, order: int) -> TruncSeries:
    """Closed-form generating function of the 2k-th symmetrized j-rank moments:
    the bilateral sum :func:`_sym_mu_column` times 1/(q)_inf."""
    if j < 1 or k < 1:
        raise ValueError("j must be >= 1" if j < 1 else "k must be >= 1")
    return TruncSeries(_sym_mu_column(j, k, order)) * inv_pochhammer_inf(1, order)


@memo
def _central_factorials(k: int, order: int) -> TruncSeries:
    """The central factorial numbers T(k, t) for t <= order, zero for t > k."""
    row = [1] + [0] * order  # T(0, t)
    for i in range(1, k + 1):
        for t in range(min(i, order), 0, -1):
            row[t] = row[t - 1] + t * t * row[t]
        row[0] = 0
    return TruncSeries(row)


def moment_via_sym(j: int, k: int, n: int) -> int:
    """The 2k-th ordinary moment recovered from symmetrized moments.

    x^(2k) = sum_t T(k, t) g_t(x) with g_t(x) = prod_{i<t} (x^2 - i^2), and
    the count sum of g_t(m) is (2t)! times the 2t-th symmetrized moment, which
    vanishes for t > n.  The central factorial numbers T(k, t) (Garvan, Adv.
    Math. 228, 2011) follow T(k, t) = T(k-1, t-1) + t^2 T(k-1, t), because
    x^2 g_t = g_{t+1} + t^2 g_t.  :func:`moment` takes this route, and the
    tests hold it to sums straight over the counts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    top = k if k < n else n
    if top < 1:
        return 0
    row = _central_factorials(k, top).coeffs
    total = 0
    for t in range(1, top + 1):
        total += math.factorial(2 * t) * row[t] * sym_mu(j, 2 * t, n)
    return total
