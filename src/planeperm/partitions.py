"""Integer partitions and the split/merge combinatorics built on them.

Partitions show up in two roles: as cycle types of permutations and as
index sets of the counting recurrences.  Parts are stored in
non-increasing order, so two partitions are equal exactly when they are
equal as multisets.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator


def exact_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b``, raising if the division leaves a remainder.

    Every division in this package is expected to be exact; a remainder
    indicates a real bug rather than a rounding concern, hence the loud
    failure.
    """
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


def _int_token(token: str, fault: str = "invalid literal for int() with base 10") -> int:
    """``int(token)`` for an optional sign then ASCII digits only, else ``fault``;
    ``int`` alone also reads underscores, surrounding spaces and non-ASCII digits."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{fault}: {token!r}")
    return int(token)


def binomial(m: int, r: int) -> int:
    """Binomial coefficient for ``m >= 0``; zero for ``r < 0`` or ``r > m``.

    >>> binomial(5, 2), binomial(3, 5), binomial(4, -1)
    (10, 0, 0)
    """
    return math.comb(m, r) if r >= 0 else 0


@dataclass(frozen=True)
class Partition:
    """A partition of a non-negative integer, parts non-increasing."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be non-increasing: {self.parts}")

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        """Build a partition from parts in any order."""
        return cls(tuple(sorted(parts, reverse=True)))

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse either the ``"4+2+1"`` or the ``"1^1 2^1 4^1"`` form.

        >>> Partition.from_string("6+2")
        Partition(parts=(6, 2))
        >>> Partition.from_string("1^2 2^1") == Partition.of([2, 1, 1])
        True
        """
        text = text.strip()
        if not text:
            return cls(())
        parts: list[int] = []
        try:
            if "^" in text:
                for chunk in text.split():
                    value, _, count = chunk.partition("^")
                    if _int_token(count) < 1:
                        raise ValueError
                    parts.extend([_int_token(value)] * int(count))
            else:
                parts = [_int_token(tok.strip()) for tok in text.split("+")]
        except ValueError:
            where = f"partition chunk: {chunk!r}" if "^" in text else f"partition: {text!r}"
            raise ValueError(f"bad {where}") from None
        return cls.of(parts)

    @property
    def n(self) -> int:
        """The integer being partitioned."""
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def multiplicities(self) -> dict[int, int]:
        """Map each distinct part to how many times it occurs, ascending."""
        out: dict[int, int] = {}
        for p in sorted(self.parts):
            out[p] = out.get(p, 0) + 1
        return out

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)


def _partition_tuples(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of ``n`` in decreasing lexicographic order.

    >>> [str(p) for p in partitions_of(4)]
    ['4', '3+1', '2+2', '2+1+1', '1+1+1+1']
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    for parts in _partition_tuples(n, n):
        yield Partition(parts)


def q_lambda(lam: Partition) -> int:
    """Number of permutations of ``lam.n`` symbols whose cycle type is ``lam``.

    >>> q_lambda(Partition.of([2, 1]))
    3
    """
    denom = 1
    for value, count in lam.multiplicities().items():
        denom *= value**count * math.factorial(count)
    return exact_div(math.factorial(lam.n), denom)


def splits(eta: Partition, pieces: int) -> tuple[Partition, ...]:
    """Partitions obtained from ``eta`` by splitting one part into ``pieces`` parts.

    Splitting different copies of an equal part gives the same multiset,
    so the result lists each outcome once.

    >>> [p.parts for p in splits(Partition.of([3, 1]), 3)]
    [(1, 1, 1, 1)]
    """
    if pieces < 1:
        raise ValueError("pieces must be positive")
    seen: set[Partition] = set()
    for value in sorted(set(eta.parts)):
        rest = list(eta.parts)
        rest.remove(value)
        for frag in _partition_tuples(value, value):
            if len(frag) == pieces:
                seen.add(Partition.of(rest + list(frag)))
    return tuple(sorted(seen, key=lambda p: p.parts, reverse=True))


def kappa(mu: Partition, eta: Partition) -> int:
    """Number of ways to merge parts of ``mu`` into one part and obtain ``eta``.

    Exactly ``len(mu) - len(eta) + 1`` parts are merged.  Equal parts
    count as distinguishable copies, so choosing three of the ``a+3``
    ones in ``1^(a+3) 2^b`` contributes ``binomial(a+3, 3)`` ways.  With
    ``mu == eta`` nothing moves; that degenerate merge counts once.

    The merged part is some part ``v`` of ``eta``, and the rest of ``eta``
    is what ``mu`` keeps; so each ``v`` whose rest fits inside ``mu``
    contributes the ways to choose the kept copies of every part.
    """
    if mu.n != eta.n:
        raise ValueError("partitions must have the same weight")
    take = len(mu) - len(eta) + 1
    if take < 2:
        return int(take == 1 and mu == eta)
    have = Counter(mu.parts)
    total = 0
    for v in set(eta.parts):
        kept = Counter(eta.parts)
        kept[v] -= 1
        if kept <= have:
            total += math.prod(math.comb(have[j], c) for j, c in kept.items())
    return total


# Two consecutive rows of the triangle, the only ones kept; higher rows grow from them.
_STIRLING_PAIR: list[tuple[int, ...]] = [(), (1,)]


def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of ``n``
    symbols with exactly ``k`` cycles.

    >>> stirling_first(5, 2)
    50
    """
    if n < 0 or k < 0:
        return 0
    row = _STIRLING_PAIR[1]
    if len(row) != n + 1:
        below, row = _STIRLING_PAIR if len(row) <= n + 2 else ((), (1,))
        while len(row) <= n:
            m = len(row)
            below, row = row, (0, *(row[j - 1] + (m - 1) * row[j] for j in range(1, m)), 1)
        _STIRLING_PAIR[:] = below, row
        if len(row) > n + 1:
            row = below
    return row[k] if k < len(row) else 0
