"""Integer partitions and their Ferrers-diagram machinery.

Covers enumeration (ZS1: Zoghbi and Stojmenovic, Int. J. Comput. Math. 70,
1998), successive Durfee squares (from the top-left corner) and lower-Durfee
squares (from the bottom-left corner), the Rogers-Ramanujan predicate, part
marks and part frequencies.  Each chain is read off the walk's working list
by one pass over the parts it is given; a part 1 is a square of side 1.
"""

from __future__ import annotations

from operator import ge
from typing import Iterator


class Partition:
    """A weakly decreasing tuple of positive parts, compared and hashed by them."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        if parts and not (parts[-1] >= 1 and all(map(ge, parts, parts[1:]))):
            i = next(i for i, p in enumerate(parts) if p < 1 or i and p > parts[i - 1])
            raise ValueError(f"parts must be {'positive' if parts[i] < 1 else 'weakly decreasing'}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: {name} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self.parts,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(parts={self.parts!r})"

    def __eq__(self, other: object):
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> tuple[int, ...]:
        """Column lengths of the Ferrers diagram, largest first."""
        parts = self.parts
        return tuple(sum(p >= c for p in parts) for c in range(1, parts[0] + 1)) if parts else ()


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in reverse lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for a, m, _ in _walk(n):
        yield Partition(tuple(a[:m]))


def _walk(n: int) -> Iterator[tuple[list[int], int, int]]:
    """ZS1 over the partitions of n, building no tuple and no object.

    Yields the working list a, the number of parts m and the index h of the
    last part > 1: the partition is a[:m], and its m - h - 1 trailing ones,
    which no step rescans, follow a[h].  The list changes after each yield.
    At every yield all of a[h + 1:] is ones: with s = sum(a[:h + 1]), the
    a[:h + 1 + r], r <= n - s, are every partition of every n' <= n once.
    """
    if n == 0:
        yield [], 0, -1
        return
    a = [n] + [1] * (n - 1)
    m, h = 1, 0 if n > 1 else -1
    yield a, m, h
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
        yield a, m, h


# _PARTITION_COUNTS[m] = p(m), grown in place, so each p(m) is computed once.
_PARTITION_COUNTS: list[int] = [1]


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence (exact)."""
    if n < 0:
        return 0
    table = _PARTITION_COUNTS
    for m in range(len(table), n + 1):
        # p(m) = sum_k (-1)^(k-1) (p(m - g) + p(m - g - k)), g = k(3k-1)/2
        total, k, sign = 0, 1, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            total += sign * (table[m - g] + (table[m - g - k] if g + k <= m else 0))
            k, sign = k + 1, -sign
        table.append(total)
    return table[n]


def _durfee_sides(a, m: int) -> list[int]:
    """Successive Durfee sides of a[:m]."""
    sides = []
    d = 0  # rows of the square being grown
    for part in a[:m]:
        if part > d:  # the part reaches the square's next column: it grows
            d += 1
        else:  # the square is complete, and this part starts the next one
            sides.append(d)
            d = 1
    if d:
        sides.append(d)
    return sides


def _lower_durfee_sides(a, m: int) -> list[int]:
    """Successive lower-Durfee sides of a[:m]."""
    sides = []
    rest = m  # the parts no square has consumed yet are a[:rest]
    while rest:
        # the largest d whose d smallest remaining parts are all >= d: the
        # smallest of them, a[rest - 1], or every remaining part
        d = a[rest - 1]
        if d > rest:
            d = rest
        sides.append(d)
        rest -= d
    return sides


def successive_durfee(p: Partition) -> tuple[int, ...]:
    """The successive Durfee square sides, from the top-left corner down."""
    return tuple(_durfee_sides(p.parts, len(p.parts)))


def successive_lower_durfee(p: Partition) -> tuple[int, ...]:
    """The successive lower-Durfee square sides, from the bottom-left corner up."""
    return tuple(_lower_durfee_sides(p.parts, len(p.parts)))


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
    parts = p.parts
    return tuple((part, i - parts.index(part) + 1) for i, part in enumerate(parts))


def frequency(p: Partition, t: int) -> int:
    """Multiplicity of the part value t."""
    return p.parts.count(t)
