"""Integer partitions and their Ferrers-diagram machinery.

Covers enumeration (ZS1: Zoghbi and Stojmenovic, Int. J. Comput. Math. 70,
1998), successive Durfee squares (from the top-left corner) and lower-Durfee
squares (from the bottom-left corner), each chain one index walk over the
parts that returns the tuple of its sides, the Rogers-Ramanujan predicate,
part marks and part frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = self.parts
        if not parts or (parts[-1] >= 1 and all(map(ge, parts, parts[1:]))):
            return
        prev = None
        for p in self.parts:
            if p < 1:
                raise ValueError("parts must be positive")
            if prev is not None and p > prev:
                raise ValueError("parts must be weakly decreasing")
            prev = p

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> tuple[int, ...]:
        """Column lengths of the Ferrers diagram, largest first."""
        if not self.parts:
            return ()
        out = []
        for c in range(1, self.parts[0] + 1):
            out.append(sum(1 for p in self.parts if p >= c))
        return tuple(out)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in reverse lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for parts in _partition_tuples(n):
        yield Partition(parts)


def _partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    # ZS1: a holds the current partition in a[:m], followed by ones, and h
    # is the index of its last part > 1, so no step rescans the trailing ones.
    if n == 0:
        yield ()
        return
    a = [n] + [1] * (n - 1)
    m, h = 1, 0
    yield (n,)
    while a[0] != 1:
        if a[h] == 2:
            a[h] = 1
            m, h = m + 1, h - 1
        else:
            # split a[h] - 1 off the last part > 1 and refill the rest with it
            r = a[h] - 1
            t = m - h
            a[h] = r
            while t >= r:
                h += 1
                a[h] = r
                t -= r
            if t > 1:
                h += 1
                a[h] = t
            m = h + 2 if t == 1 else h + 1  # a last part 1 is already in place
        yield tuple(a[:m])


# _PARTITION_COUNTS[m] = p(m), grown in place, so each p(m) is computed once.
_PARTITION_COUNTS: list[int] = [1]


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence (exact)."""
    if n < 0:
        return 0
    table = _PARTITION_COUNTS
    for m in range(len(table), n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table.append(total)
    return table[n]


def successive_durfee(p: Partition) -> tuple[int, ...]:
    """The successive Durfee square sides, from the top-left corner down."""
    sides = []
    d = 0  # rows of the square being grown
    for part in p.parts:
        if part > d:  # the part reaches the square's next column: it grows
            d += 1
        else:  # the square is complete, and this part starts the next one
            sides.append(d)
            d = 1
    if d:
        sides.append(d)
    return tuple(sides)


def successive_lower_durfee(p: Partition) -> tuple[int, ...]:
    """The successive lower-Durfee square sides, from the bottom-left corner up."""
    parts = p.parts
    sides = []
    rest = len(parts)  # the parts no square has consumed yet are parts[:rest]
    while rest:
        # the largest d whose d smallest remaining parts are all >= d: the
        # smallest of them, parts[rest - 1], or every remaining part
        d = parts[rest - 1]
        if d > rest:
            d = rest
        sides.append(d)
        rest -= d
    return tuple(sides)


def is_rogers_ramanujan(p: Partition, s: int) -> bool:
    """True iff every part above the s-th lower-Durfee square is <= its side.

    The parts "above" the s-th square are the parts left over once the s
    bottom squares have consumed the smallest parts.  Requires the partition
    to have at least s lower-Durfee squares.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    sides = successive_lower_durfee(p)
    if len(sides) < s:
        raise ValueError(f"partition has only {len(sides)} lower-Durfee squares")
    # the parts left over are the largest, so they are all <= d_s iff parts[0] is
    return sum(sides[:s]) == len(p.parts) or p.parts[0] <= sides[s - 1]


def marks(p: Partition) -> tuple[tuple[int, int], ...]:
    """(part, mark) pairs in decreasing part order.

    Repeated parts are marked 1, 2, ... from the top row down, so the mark of
    a part equals the number of equal parts at or above it in the diagram.
    """
    seen: dict[int, int] = {}
    out = []
    for part in p.parts:
        seen[part] = seen.get(part, 0) + 1
        out.append((part, seen[part]))
    return tuple(out)


def frequency(p: Partition, t: int) -> int:
    """Multiplicity of the part value t."""
    return sum(1 for part in p.parts if part == t)
