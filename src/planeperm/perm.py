"""Permutations of arbitrary finite label sets.

Labels are integers but need not be ``1..n``; the signed-distance code
works on sets like ``{-n, ..., n}``.  Composition is right-to-left,
``(f * g)(x) == f(g(x))``, so the right factor acts first.  Cycle
decompositions are canonical (each cycle starts at its smallest label,
cycles sorted by that label, fixed points included), which makes the
string form of a permutation unambiguous.

>>> f = Permutation.from_cycles([(0, 2), (1, 3)])
>>> g = Permutation.from_cycles([(0, 3, 2, 1)])
>>> str((f * g).cycles())
'(0 1 2 3)'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .partitions import Partition

__all__ = [
    "CycleDecomposition",
    "Permutation",
    "array_cycle_counts",
    "count_cycles",
    "cycle_from_sequence",
    "parse_cycles",
    "parse_sequence",
]


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles of a permutation in canonical order."""

    cycles: tuple[tuple[int, ...], ...]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.cycles)

    def __len__(self) -> int:
        return len(self.cycles)

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles)


@dataclass(frozen=True)
class Permutation:
    """A bijection of a finite set of integer labels onto itself.

    ``labels`` is sorted ascending and ``images[i]`` is the image of
    ``labels[i]``.
    """

    labels: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a >= b for a, b in zip(self.labels, self.labels[1:])):
            raise ValueError("labels must be strictly increasing")
        if sorted(self.images) != list(self.labels):
            raise ValueError("images must be a rearrangement of the labels")

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, labels: Iterable[int]) -> "Permutation":
        labels = tuple(sorted(labels))
        return cls(labels, labels)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> "Permutation":
        labels = tuple(sorted(mapping))
        return cls(labels, tuple(mapping[x] for x in labels))

    @classmethod
    def from_one_line(cls, images: Sequence[int]) -> "Permutation":
        """Permutation of ``1..n`` sending ``i`` to the ``i``-th entry.

        >>> Permutation.from_one_line([3, 2, 1])(1)
        3
        """
        n = len(images)
        return cls(tuple(range(1, n + 1)), tuple(images))

    @classmethod
    def from_cycles(
        cls, cycles: Iterable[Sequence[int]], labels: Iterable[int] | None = None
    ) -> "Permutation":
        """Build from disjoint cycles; extra ``labels`` become fixed points."""
        mapping: dict[int, int] = {}
        for cyc in cycles:
            if not cyc:
                raise ValueError("empty cycle")
            for x, y in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                if x in mapping:
                    raise ValueError(f"label {x} appears in two cycles")
                mapping[x] = y
        if labels is not None:
            for x in labels:
                mapping.setdefault(x, x)
        return cls.from_mapping(mapping)

    @classmethod
    def from_cycle_type(
        cls, shape: Partition, labels: Iterable[int] | None = None
    ) -> "Permutation":
        """A representative of the given cycle type.

        Consecutive labels are grouped into cycles, largest part first:
        the type ``3+2`` on ``1..5`` gives ``(1 2 3)(4 5)``.
        """
        labels = tuple(range(1, shape.n + 1)) if labels is None else tuple(sorted(labels))
        if len(labels) != shape.n:
            raise ValueError("label count must match the partition weight")
        cycles = []
        start = 0
        for part in shape.parts:
            cycles.append(labels[start : start + part])
            start += part
        return cls.from_cycles(cycles)

    # -- the bijection --------------------------------------------------

    @cached_property
    def _slot(self) -> dict[int, int]:
        return {x: i for i, x in enumerate(self.labels)}

    def __call__(self, x: int) -> int:
        return self.images[self._slot[x]]

    def compose(self, other: "Permutation") -> "Permutation":
        """``self`` after ``other``."""
        if self.labels != other.labels:
            raise ValueError("permutations act on different label sets")
        return Permutation(self.labels, tuple(self(y) for y in other.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.labels)
        for x, y in zip(self.labels, self.images):
            inv[self._slot[y]] = x
        return Permutation(self.labels, tuple(inv))

    def updated(self, patch: Mapping[int, int]) -> "Permutation":
        """A copy with the images of the given labels replaced.

        The patch must leave the whole map a bijection.
        """
        images = list(self.images)
        for x, y in patch.items():
            images[self._slot[x]] = y
        return Permutation(self.labels, tuple(images))

    def conjugate_by(self, alpha: "Permutation") -> "Permutation":
        """``alpha * self * alpha.inverse()``; relabels every cycle by ``alpha``."""
        return alpha * self * alpha.inverse()

    # -- structure ------------------------------------------------------

    def cycles(self) -> CycleDecomposition:
        """Canonical cycle decomposition.

        >>> str(Permutation.from_one_line([3, 2, 1]).cycles())
        '(1 3)(2)'
        """
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for x in self.labels:
            if x in seen:
                continue
            cyc = [x]
            seen.add(x)
            y = self(x)
            while y != x:
                cyc.append(y)
                seen.add(y)
                y = self(y)
            out.append(tuple(cyc))
        return CycleDecomposition(tuple(out))

    def cycle_counts(self) -> tuple[int, int, int]:
        """``(cycles, odd cycles, even cycles)`` without building the cycles."""
        seen: set[int] = set()
        total = odd = 0
        for x in self.labels:
            if x in seen:
                continue
            length = 0
            y = x
            while y not in seen:
                seen.add(y)
                y = self(y)
                length += 1
            total += 1
            odd += length % 2
        return total, odd, total - odd

    def cycle_type(self) -> Partition:
        return Partition.of(len(c) for c in self.cycles())

    def same_cycle(self, x: int, y: int) -> bool:
        """Whether ``x`` and ``y`` lie in one cycle."""
        z = self(x)
        while z != x:
            if z == y:
                return True
            z = self(z)
        return x == y

    def __str__(self) -> str:
        return str(self.cycles())


def count_cycles(images: Sequence[int]) -> int:
    """Number of cycles of a permutation of 0..n-1 given as an image array."""
    seen = [False] * len(images)
    count = 0
    for start in range(len(images)):
        if not seen[start]:
            count += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
    return count


def _array_cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of a 0-based image array, largest first."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if not seen[start]:
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
                length += 1
            lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def array_cycle_counts(images: Sequence[int]) -> tuple[int, int, int]:
    """``(cycles, odd cycles, even cycles)`` of a 0-based image array."""
    lengths = _array_cycle_type(images)
    odd = sum(length % 2 for length in lengths)
    return len(lengths), odd, len(lengths) - odd


def cycle_from_sequence(seq: Sequence[int]) -> Permutation:
    """The cyclic permutation sending each entry of ``seq`` to the next.

    >>> str(cycle_from_sequence([0, 3, 2, 1]).cycles())
    '(0 3 2 1)'
    """
    if not seq:
        raise ValueError("empty sequence")
    return Permutation.from_cycles([tuple(seq)])


def parse_sequence(text: str) -> tuple[int, ...]:
    """Whitespace separated integers."""
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise ValueError(f"bad sequence {text!r}: {exc}") from None


_CYCLES_SHAPE = re.compile(r"(?:\s*\([^()]*\))+\s*")


def parse_cycles(text: str, labels: Iterable[int] | None = None) -> Permutation:
    """Parse cycle notation such as ``"(0 2)(1 3)"``.

    Commas may be used instead of spaces.  Labels listed in ``labels``
    but absent from the text become fixed points.
    """
    if not _CYCLES_SHAPE.fullmatch(text):
        raise ValueError(f"bad cycle notation: {text!r}")
    body = text.replace(",", " ")
    cycles = [
        tuple(int(tok) for tok in chunk.split())
        for chunk in re.findall(r"\(([^()]*)\)", body)
    ]
    if any(not c for c in cycles):
        raise ValueError(f"empty cycle in {text!r}")
    return Permutation.from_cycles(cycles, labels)
