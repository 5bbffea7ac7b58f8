"""The partition layer as it was before the one-pass kernels: their oracles.

``qspt.partitions`` enumerates by ZS1 and reads each Durfee chain, the mark
weight and the split-chain weight off the working list of the walk, with the
trailing ones counted in closed form; ``qspt.spt`` reads marks by position,
binomials from ``math.comb`` and each chain weight as one coefficient of a
truncated polynomial product.  The functions here are the plain versions
those kernels replaced: an enumerator that rescans the trailing ones, chains
that slice (and sort) the parts once per square, a validity loop, the marks
tuple, the falling-factorial binomials, every composition of k laid along
every increasing chain of larger part values, the product weight read off a
``Partition`` with a Counter over all its parts, and the lemma predicates
and weight sums over ``Partition`` objects.  ``qspt.spt`` reads spt(n) and
spt_k(n) off one counting row per k and order; ``spt_weight`` here re-sums
spt(n) for each n from a 2-D table of partition counts by smallest allowed
part, and ``spt_k_weight`` sums the chain weight over every partition of n.
Nothing here calls the walk or its tuple-level cores.
"""

import itertools
from collections import Counter
from math import comb

from qspt.laurent import integer_binomial
from qspt.partitions import Partition


def partitions(n):
    """Partition objects of n, in the oracle enumerator's order."""
    return (Partition(parts) for parts in partition_tuples(n))


def partition_tuples(n):
    """Partitions of n in reverse lexicographic order, by descending compositions."""
    if n == 0:
        yield ()
        return
    a = [n]
    while True:
        yield tuple(a)
        # find rightmost entry > 1
        i = len(a) - 1
        ones = 0
        while i >= 0 and a[i] == 1:
            ones += 1
            i -= 1
        if i < 0:
            return
        a[i] -= 1
        rem = ones + 1
        del a[i + 1:]
        cap = a[i]
        while rem > 0:
            step = min(cap, rem)
            a.append(step)
            rem -= step


def check_parts(parts):
    """Raise the ValueError a Partition of these parts must raise, if any."""
    prev = None
    for p in parts:
        if p < 1:
            raise ValueError("parts must be positive")
        if prev is not None and p > prev:
            raise ValueError("parts must be weakly decreasing")
        prev = p


def upper_sides(parts):
    """Successive Durfee sides, slicing off each square's rows."""
    sides = []
    parts = list(parts)
    while parts:
        d = 0
        while d < len(parts) and parts[d] >= d + 1:
            d += 1
        sides.append(d)
        parts = parts[d:]
    return tuple(sides)


def lower_sides(parts):
    """Successive lower-Durfee sides, from a sorted copy sliced once per square."""
    sides = []
    remaining = sorted(parts)
    while remaining:
        d = min(remaining[0], len(remaining))
        sides.append(d)
        remaining = remaining[d:]
    return tuple(sides)


def is_rogers_ramanujan(parts, s):
    """Every part above the s-th lower-Durfee square is <= its side, by slicing."""
    sides = lower_sides(parts)
    if len(sides) < s:
        raise ValueError(f"partition has only {len(sides)} lower-Durfee squares")
    remaining = sorted(parts)[sum(sides[:s]):]
    return all(part <= sides[s - 1] for part in remaining)


def strict_rr(parts):
    """Every part consumed by the first s-1 lower squares is at most d_s, by a sorted copy."""
    sides = lower_sides(parts)
    if len(sides) <= 1:
        return True
    consumed = sum(sides[:-1])
    return sorted(parts)[consumed - 1] <= sides[-1]


def lemma31_bad(p):
    """A strict Rogers-Ramanujan partition whose reversed lower chain is not its Durfee chain."""
    return strict_rr(p.parts) and lower_sides(p.parts)[::-1] != upper_sides(p.parts)


def lemma32_bad(p):
    """A partition whose two chains differ in length."""
    return len(lower_sides(p.parts)) != len(upper_sides(p.parts))


def count_bad(n, is_bad):
    """The partitions of n that violate a lemma, one Partition at a time."""
    return sum(1 for p in partitions(n) if is_bad(p))


def split_point_count(parts, j):
    """The d+1 smallest parts, d the size of the first j-1 lower squares, capped."""
    sides = lower_sides(parts)
    if len(sides) < j - 1:
        return len(parts)
    return min(sum(sides[: j - 1]) + 1, len(parts))


def split_positions(parts, j):
    """Positions, from the bottom, of the parts right above the (j-1)st lower square."""
    if j == 1:
        return [0] if parts else []
    sides = lower_sides(parts)
    if len(sides) < j - 1:
        return []
    start = sum(sides[: j - 2])
    return [i for i in range(start + 1, start + sides[j - 2] + 1) if i < len(parts)]


def marks(parts):
    """(part, mark) pairs, each mark counted up as the equal parts go by."""
    seen = Counter()
    out = []
    for part in parts:
        seen[part] += 1
        out.append((part, seen[part]))
    return tuple(out)


def mark_weight(p, j):
    """The marks of the bottom split-point parts, summed from the marks tuple."""
    if not p.parts:
        return 0
    bottom_up = marks(p.parts)[::-1]
    return sum(mark for _, mark in bottom_up[: split_point_count(p.parts, j)])


def all_compositions(k):
    """Every composition of k, one per choice of cuts between its k units."""
    for cuts in itertools.product((False, True), repeat=k - 1):
        comp, piece = [], 1
        for cut in cuts:
            if cut:
                comp.append(piece)
                piece = 0
            piece += 1
        yield tuple(comp + [piece])


def chain_sum(freqs, larger, pieces):
    """Sum over increasing chains t_2 < ... < t_r drawn from larger of the
    products of binom(f_t + m, 2m), one factor per piece m."""
    total = 0
    for combo in itertools.combinations(larger, len(pieces)):
        prod = 1
        for t, m in zip(combo, pieces):
            prod *= integer_binomial(freqs[t] + m, 2 * m)
        total += prod
    return total


def split_chain_weight(p, j, k):
    """Every composition of k times every chain of larger parts, by integer_binomial."""
    if not p.parts:
        return 0
    bottom_up = marks(p.parts)[::-1]
    freqs = Counter(p.parts)
    values = sorted(freqs)
    total = 0
    for i in split_positions(p.parts, j):
        t1, mark = bottom_up[i]
        larger = [v for v in values if v > t1]
        for comp in all_compositions(k):
            head = integer_binomial(mark + comp[0] - 1, 2 * comp[0] - 1)
            total += head * chain_sum(freqs, larger, comp[1:])
    return total


def product_chain_weights(p, j, ks):
    """The split-chain weights for each k in ks as truncated products, read off a Partition.

    Each split part takes its mark by a scan for its value, and one product,
    cut below x**max(ks), over every larger value of a Counter of all the parts.
    """
    parts = p.parts
    freqs = Counter(parts)
    totals = [0] * len(ks)
    for i in split_positions(parts, j):
        top = len(parts) - 1 - i
        t1, mark = parts[top], top - parts.index(parts[top]) + 1
        rest = [1] + [0] * min(max(ks) - 1, parts.index(t1))
        for t, f in freqs.items():
            if t > t1:
                for d in range(len(rest) - 1, 0, -1):
                    rest[d] += sum(comb(f + m, 2 * m) * rest[d - m]
                                   for m in range(1, min(d, f) + 1))
        for at, k in enumerate(ks):
            totals[at] += sum(comb(mark + c - 1, 2 * c - 1) * rest[k - c]
                                 for c in range(max(1, k + 1 - len(rest)), min(k, mark) + 1))
    return totals


def spt_j_weight(j, n):
    """Spt_j(n) for one n: the mark weight summed over every partition of n."""
    return sum(mark_weight(p, j) for p in partitions(n))


def jspt_k_weights(j, n, ks):
    """jspt_k(n) for each k in ks: the product weights summed over every partition of n."""
    totals = [0] * len(ks)
    for p in partitions(n):
        totals = [a + b for a, b in zip(totals, product_chain_weights(p, j, ks))]
    return totals


# _MIN_PART_COLUMNS[v][lo] = number of partitions of v with every part >= lo,
# for 1 <= lo <= v + 1.  Columns are appended in ascending v, so filling the
# table never recurses and a loop over n = 1..N builds it once.
_MIN_PART_COLUMNS = [[1, 1]]


def count_min_parts(v, lo):
    """Number of partitions of v with every part >= lo (lo >= 1)."""
    if lo > v:
        return int(v == 0)
    cols = _MIN_PART_COLUMNS
    for w in range(len(cols), v + 1):
        col = [0] * (w + 2)
        for low in range(w, 0, -1):
            # partitions with no part equal to low, plus those with one removed
            rest = w - low
            col[low] = col[low + 1] + (cols[rest][low] if low <= rest else int(rest == 0))
        cols.append(col)
    return cols[v][lo]


def spt_weight(n):
    """spt(n) for one n: a partition with smallest part s occurring m times
    contributes m, and there are count(n - m*s, parts > s) of them."""
    total = 0
    for s in range(1, n + 1):
        m = 1
        while m * s <= n:
            total += m * count_min_parts(n - m * s, s + 1)
            m += 1
    return total


def spt_k_weight(k, n):
    """spt_k(n) for one n: the chain weight summed over every partition of n."""
    return jspt_k_weights(1, n, [k])[0]
