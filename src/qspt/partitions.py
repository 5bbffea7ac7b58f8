"""Integer partitions and their Ferrers-diagram machinery.

Covers enumeration, successive Durfee squares (from the top-left corner),
successive lower-Durfee squares (from the bottom-left corner), the
Rogers-Ramanujan predicate, part marks and part frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class DurfeeChain:
    """Sides of a chain of squares tiling a prefix of the diagram.

    ``kind`` is "upper" (successive Durfee squares, listed first to last) or
    "lower" (successive lower-Durfee squares, listed bottom to top).
    """

    sides: tuple[int, ...]
    kind: str

    def __len__(self) -> int:
        return len(self.sides)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in reverse lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for parts in _partition_tuples(n):
        yield Partition(parts)


def _partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    # Iterative descending-composition enumeration; reverse lex order.
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
        del a[i + 1 :]
        cap = a[i]
        while rem > 0:
            step = min(cap, rem)
            a.append(step)
            rem -= step


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


def _lower_side(increasing: list[int]) -> int:
    # Largest d such that the d smallest parts are all >= d: since the list
    # is increasing this is min(smallest part, number of parts).
    return min(increasing[0], len(increasing))


def successive_durfee(p: Partition) -> DurfeeChain:
    """Successive Durfee squares from the top-left corner, first to last."""
    sides = []
    parts = list(p.parts)
    while parts:
        d = 0
        while d < len(parts) and parts[d] >= d + 1:
            d += 1
        sides.append(d)
        parts = parts[d:]
    return DurfeeChain(tuple(sides), "upper")


def successive_lower_durfee(p: Partition) -> DurfeeChain:
    """Successive lower-Durfee squares from the bottom-left corner, bottom to top."""
    sides = []
    remaining = sorted(p.parts)
    while remaining:
        d = _lower_side(remaining)
        sides.append(d)
        remaining = remaining[d:]
    return DurfeeChain(tuple(sides), "lower")


def is_rogers_ramanujan(p: Partition, s: int) -> bool:
    """True iff every part above the s-th lower-Durfee square is <= its side.

    The parts "above" the s-th square are the parts left over once the s
    bottom squares have consumed the smallest parts.  Requires the partition
    to have at least s lower-Durfee squares.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    chain = successive_lower_durfee(p)
    if len(chain) < s:
        raise ValueError(f"partition has only {len(chain)} lower-Durfee squares")
    consumed = sum(chain.sides[:s])
    remaining = sorted(p.parts)[consumed:]
    d_s = chain.sides[s - 1]
    return all(part <= d_s for part in remaining)


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
