"""Plane permutations and block-interchange surgery on them.

A plane permutation is a pair ``(s, pi)``: a sequence ``s`` listing an
n-cycle starting from a chosen anchor, and an arbitrary permutation
``pi`` of the same labels.  The written order of ``s`` induces a linear
order on the labels, and that order drives everything here: exceedances
of ``pi``, the distinguished anti-exceedance of each ``pi``-cycle, and
the case analysis of transposes.  Because the anchor matters, ``s`` is
kept as an explicit sequence; re-anchoring is always a visible
``rotate``, never an implicit normalization.

The third row of the picture, the diagonal ``D(x) = s(pi^-1(x))``, is
determined by the other two.  A block interchange moves two disjoint
blocks of ``s`` past each other while keeping the diagonal fixed, which
forces a small pointwise patch of ``pi``; how the patch reshapes the
cycles of ``pi`` is captured by :func:`PlanePermutation.classify`.

Slicing at a non-trivial anti-exceedance splits one ``pi``-cycle into
three by a transpose; gluing merges three chosen cycles back.  The two
operations are mutually inverse and power the counting identities in
:mod:`planeperm.enumeration`.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Callable, Iterable, Iterator, Sequence

from .perm import Permutation, count_cycles, cycle_from_sequence
from .report import VerifyReport, merge_reports, pmap

__all__ = [
    "BlockInterchange",
    "PlanePermutation",
    "SliceResult",
    "TransposeCase",
    "invariant_sweep",
    "swap_blocks",
]


class TransposeCase(enum.Enum):
    """How a block interchange reshapes the cycles of the bottom row.

    Cases 1 through 6 classify transposes (adjacent blocks) by where the
    three affected labels sit among the cycles of ``pi``; cases A
    through E are the configurations in which a general block
    interchange gains two cycles.  ``NON_INCREASING`` collects every
    remaining configuration, all of which lose two cycles or break even.
    """

    CASE_1 = "1"
    CASE_2 = "2"
    CASE_3 = "3"
    CASE_4 = "4"
    CASE_5 = "5"
    CASE_6 = "6"
    CASE_A = "a"
    CASE_B = "b"
    CASE_C = "c"
    CASE_D = "d"
    CASE_E = "e"
    NON_INCREASING = "non-increasing"

    @property
    def cycle_delta(self) -> int | None:
        """Change in cycle count, or None when only a range is known."""
        if self is TransposeCase.CASE_1:
            return -2
        if self in _GAINING_CASES:
            return 2
        if self is TransposeCase.NON_INCREASING:
            return None
        return 0


_GAINING_CASES = frozenset(
    {
        TransposeCase.CASE_2,
        TransposeCase.CASE_A,
        TransposeCase.CASE_B,
        TransposeCase.CASE_C,
        TransposeCase.CASE_D,
        TransposeCase.CASE_E,
    }
)


@dataclass(frozen=True)
class BlockInterchange:
    """Swap the blocks at positions ``i..j`` and ``k..l`` (inclusive).

    Positions are indices into the written sequence and must satisfy
    ``1 <= i <= j < k <= l <= n - 1``, so the anchor at position 0 never
    moves.  ``k == j + 1`` means the blocks are adjacent; that special
    case is called a transpose.
    """

    i: int
    j: int
    k: int
    l: int

    def __post_init__(self) -> None:
        if not 1 <= self.i <= self.j < self.k <= self.l:
            raise ValueError(f"bad block interchange {(self.i, self.j, self.k, self.l)}")

    @property
    def is_transpose(self) -> bool:
        return self.k == self.j + 1

    def validate(self, n: int) -> None:
        if self.l > n - 1:
            raise ValueError(f"{self} does not fit a sequence of length {n}")

    def __str__(self) -> str:
        return f"({self.i},{self.j},{self.k},{self.l})"


def swap_blocks(seq: Sequence[int], move: BlockInterchange) -> tuple[int, ...]:
    """The sequence with the two blocks of ``move`` exchanged."""
    move.validate(len(seq))
    seq = tuple(seq)
    i, j, k, l = move.i, move.j, move.k, move.l
    return seq[:i] + seq[k : l + 1] + seq[j + 1 : k] + seq[i : j + 1] + seq[l + 1 :]


@dataclass(frozen=True)
class SliceResult:
    """Outcome of slicing: the new plane permutation, the three cycles the
    old one split into (each written from its top-row minimum, ordered by
    those minima), and the label that stays distinguished when the middle
    fragment failed to close up cleanly (None otherwise)."""

    plane: "PlanePermutation"
    cycles: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    distinguished: int | None

    @property
    def minima(self) -> tuple[int, int, int]:
        return (self.cycles[0][0], self.cycles[1][0], self.cycles[2][0])

    def glue_anchors(self) -> tuple[int, int, int]:
        """Arguments that make :meth:`PlanePermutation.glue` undo this slice."""
        m1, m2, m3 = self.minima
        if self.distinguished is None:
            return (m1, m2, m3)
        return (m1, m2, self.plane.pi(self.distinguished))


@dataclass(frozen=True)
class PlanePermutation:
    """A cyclic top row together with an arbitrary bottom permutation."""

    s: tuple[int, ...]
    pi: Permutation

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", tuple(self.s))
        if not self.s:
            raise ValueError("top row must be non-empty")
        if len(set(self.s)) != len(self.s):
            raise ValueError("top row labels must be distinct")
        if set(self.s) != set(self.pi.labels):
            raise ValueError("top row and bottom permutation use different labels")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, top: Sequence[int], bottom: Sequence[int]) -> "PlanePermutation":
        """Build from the two written rows, ``pi`` sending top to bottom."""
        if len(top) != len(bottom):
            raise ValueError("rows differ in length")
        return cls(tuple(top), Permutation.from_mapping(dict(zip(top, bottom))))

    @classmethod
    def from_diagonal(cls, s: Sequence[int], diag: Permutation) -> "PlanePermutation":
        """The unique plane permutation with top row ``s`` and diagonal ``diag``."""
        return cls(tuple(s), diag.inverse() * cycle_from_sequence(s))

    # -- basic structure ------------------------------------------------

    def __len__(self) -> int:
        return len(self.s)

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {x: t for t, x in enumerate(self.s)}

    def position(self, x: int) -> int:
        return self._pos[x]

    @cached_property
    def diagonal(self) -> Permutation:
        """``D(x) = s(pi^-1(x))``, the third row of the triple."""
        return cycle_from_sequence(self.s) * self.pi.inverse()

    def bottom_row(self) -> tuple[int, ...]:
        return tuple(self.pi(x) for x in self.s)

    def rotate(self, r: int) -> "PlanePermutation":
        """Re-anchor the top row ``r`` places to the left."""
        r %= len(self.s)
        return PlanePermutation(self.s[r:] + self.s[:r], self.pi)

    def rotations(self) -> Iterator["PlanePermutation"]:
        for r in range(len(self.s)):
            yield self.rotate(r)

    # -- exceedances ----------------------------------------------------

    def exceedances(self) -> tuple[int, ...]:
        """Labels moved strictly later in the top-row order, listed in that order."""
        pos = self._pos
        return tuple(x for x in self.s if pos[x] < pos[self.pi(x)])

    def anti_exceedances(self) -> tuple[int, ...]:
        """Labels moved earlier or fixed; complement of the exceedances."""
        pos = self._pos
        return tuple(x for x in self.s if pos[x] >= pos[self.pi(x)])

    def exceedance_count(self) -> int:
        return len(self.exceedances())

    def cycle_of(self, x: int) -> tuple[int, ...]:
        """The ``pi``-cycle through ``x``, walked from ``x``."""
        out = [x]
        y = self.pi(x)
        while y != x:
            out.append(y)
            y = self.pi(y)
        return tuple(out)

    def s_min(self, labels) -> int:
        """The earliest of ``labels`` in the top-row order."""
        pos = self._pos
        return min(labels, key=pos.__getitem__)

    def cycles_by_position(self) -> tuple[tuple[int, ...], ...]:
        """All ``pi``-cycles, each walked from its top-row minimum, sorted
        by where those minima sit in the top row."""
        seen: set[int] = set()
        out = []
        for x in self.s:
            if x in seen:
                continue
            cyc = self.cycle_of(x)
            seen.update(cyc)
            out.append(cyc)
        return tuple(out)

    def trivial_anti_exceedances(self) -> tuple[int, ...]:
        """One anti-exceedance per cycle: the preimage of the cycle's
        top-row minimum.  Listed in top-row order."""
        pi_inv = {self.pi(x): x for x in self.s}
        found = [pi_inv[cyc[0]] for cyc in self.cycles_by_position()]
        pos = self._pos
        return tuple(sorted(found, key=pos.__getitem__))

    def ntaes(self) -> tuple[int, ...]:
        """Non-trivial anti-exceedances, in top-row order."""
        trivial = set(self.trivial_anti_exceedances())
        return tuple(x for x in self.anti_exceedances() if x not in trivial)

    # -- block interchanges ---------------------------------------------

    def apply(self, move: BlockInterchange) -> "PlanePermutation":
        """Apply a block interchange to the top row, keeping the diagonal.

        Only the labels just before each moved block and at the end of
        each block change their image under ``pi``; everything else is
        untouched.
        """
        move.validate(len(self.s))
        patch = _patch(_move_points(self.s, move), self.pi)
        return PlanePermutation(swap_blocks(self.s, move), self.pi.updated(patch))

    def classify(self, move: BlockInterchange) -> TransposeCase:
        """Which of the cycle-change cases ``move`` falls into."""
        move.validate(len(self.s))
        tables = _cycle_tables(self.pi.labels, self.pi)
        return _classify_points(*tables, _move_points(self.s, move))

    # -- slice and glue -------------------------------------------------

    def slice(self, eps: int) -> SliceResult:
        """Split the cycle through ``eps`` into three by one transpose.

        ``eps`` must be a non-trivial anti-exceedance.  The transpose
        swaps the block from just after the cycle's top-row minimum up to
        ``pi(eps)`` with the following block, which ends at the earliest
        label (in top-row order) that the walk from the minimum to
        ``eps`` visits beyond ``pi(eps)``.  The result always gains two
        cycles.  When the middle fragment's first label is not its
        minimum, ``eps`` stays distinguished and the slice lands in the
        decorated family rather than the plain one.
        """
        pos = self._pos
        if eps not in pos:
            raise ValueError(f"{eps} is not a label of this plane permutation")
        target = self.pi(eps)
        if pos[eps] < pos[target]:
            raise ValueError(f"{eps} is an exceedance, not an anti-exceedance")
        cycle = self.cycle_of(self.s_min(self.cycle_of(eps)))
        if target == cycle[0]:
            raise ValueError(f"{eps} is the trivial anti-exceedance of its cycle")
        walked = cycle[1 : cycle.index(eps) + 1]
        split_end = self.s_min(z for z in walked if pos[z] > pos[target])
        move = BlockInterchange(
            pos[cycle[0]] + 1, pos[target], pos[target] + 1, pos[split_end]
        )
        out = self.apply(move)
        fragments = sorted(
            (out.cycle_of(out.s_min(out.cycle_of(x))) for x in (cycle[0], target, split_end)),
            key=lambda c: out.position(c[0]),
        )
        middle = next(c for c in fragments if target in c)
        distinguished = eps if middle[0] != target else None
        return SliceResult(out, (fragments[0], fragments[1], fragments[2]), distinguished)

    def glue(self, x1: int, x2: int, x3: int) -> tuple["PlanePermutation", int]:
        """Merge three cycles into one by a single transpose.

        ``x1`` and ``x2`` must be the top-row minima of their cycles with
        ``x1`` earlier than ``x2``; the third cycle must lie entirely
        after ``x2`` in the top-row order, and ``x3`` is either its
        minimum or the image of a non-trivial anti-exceedance inside it.
        Returns the merged plane permutation together with the label
        whose slice undoes the merge.
        """
        pos = self._pos
        for x in (x1, x2, x3):
            if x not in pos:
                raise ValueError(f"{x} is not a label of this plane permutation")
        c1, c2, c3 = self.cycle_of(x1), self.cycle_of(x2), self.cycle_of(x3)
        if len({frozenset(c) for c in (c1, c2, c3)}) != 3:
            raise ValueError("glue needs three distinct cycles")
        if not pos[x1] < pos[x2] < pos[x3]:
            raise ValueError("glue anchors must be increasing in the top-row order")
        if x1 != self.s_min(c1) or x2 != self.s_min(c2):
            raise ValueError("first two glue anchors must be their cycles' minima")
        if pos[self.s_min(c3)] < pos[x2]:
            raise ValueError("third cycle must lie after the second anchor")
        if x3 != self.s_min(c3) and pos[c3[-1]] < pos[x3]:
            raise ValueError(
                f"{x3} is neither its cycle's minimum nor the image of an anti-exceedance"
            )
        move = BlockInterchange(pos[x1] + 1, pos[x2], pos[x2] + 1, pos[x3])
        merged = self.apply(move)
        inv = {merged.pi(x): x for x in merged.s}
        return merged, inv[x3]

    # -- rendering ------------------------------------------------------

    def two_row_str(self) -> str:
        top = [str(x) for x in self.s]
        bottom = [str(y) for y in self.bottom_row()]
        widths = [max(len(a), len(b)) for a, b in zip(top, bottom)]
        return "\n".join(
            " ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in (top, bottom)
        )

    def to_json_obj(self) -> dict:
        return {"s": list(self.s), "pi_bottom": list(self.bottom_row())}

    def __str__(self) -> str:
        return self.two_row_str()


# -- block-interchange internals -----------------------------------------


def _move_points(s: Sequence[int], move: BlockInterchange) -> tuple[int, ...]:
    """The labels whose image a move patches: the label just before each
    block and the last label of each block (three for a transpose)."""
    i, j, k, l = move.i, move.j, move.k, move.l
    if move.is_transpose:
        return (s[i - 1], s[j], s[l])
    return (s[i - 1], s[j], s[k - 1], s[l])


def _patch(pts: tuple[int, ...], image: Callable[[int], int]) -> dict[int, int]:
    """New images at ``pts`` that keep the diagonal fixed: a transpose
    rotates three images, a block interchange swaps two pairs."""
    if len(pts) == 3:
        x, y, z = pts
        return {x: image(y), y: image(z), z: image(x)}
    w, x, y, z = pts
    return {w: image(y), x: image(z), y: image(w), z: image(x)}


def _cycle_tables(labels: Iterable[int], image: Callable[[int], int]):
    """Per label: cycle id, index within the cycle walk, cycle length."""
    cid: dict[int, int] = {}
    cpos: dict[int, int] = {}
    clen: dict[int, int] = {}
    next_id = 0
    for x in labels:
        if x in cid:
            continue
        y, steps = x, 0
        while y not in cid:
            cid[y] = next_id
            cpos[y] = steps
            y = image(y)
            steps += 1
        clen[next_id] = steps
        next_id += 1
    return cid, cpos, clen


def _classify_points(cid, cpos, clen, pts) -> TransposeCase:
    if len(pts) == 3:
        x, y, z = pts
        ids = {cid[x], cid[y], cid[z]}
        if len(ids) == 3:
            return TransposeCase.CASE_1
        if len(ids) == 1:
            length = clen[cid[x]]
            rel_y = (cpos[y] - cpos[x]) % length
            rel_z = (cpos[z] - cpos[x]) % length
            return TransposeCase.CASE_2 if rel_z < rel_y else TransposeCase.CASE_3
        if cid[x] == cid[y]:
            return TransposeCase.CASE_4
        if cid[y] == cid[z]:
            return TransposeCase.CASE_5
        return TransposeCase.CASE_6
    w, x, y, z = pts
    ids = {cid[w], cid[x], cid[y], cid[z]}
    if len(ids) == 2 and cid[w] == cid[y] and cid[x] == cid[z]:
        return TransposeCase.CASE_E
    if len(ids) == 1:
        length = clen[cid[w]]
        order = tuple(
            lab
            for _, lab in sorted(
                ((cpos[lab] - cpos[w]) % length, lab) for lab in (x, y, z)
            )
        )
        if order == (x, z, y):
            return TransposeCase.CASE_A
        if order == (y, x, z):
            return TransposeCase.CASE_B
        if order == (y, z, x):
            return TransposeCase.CASE_C
        if order == (z, x, y):
            return TransposeCase.CASE_D
    return TransposeCase.NON_INCREASING


# -- exhaustive and randomized invariant sweeps --------------------------


@lru_cache(maxsize=None)
def _all_moves(n: int) -> tuple[BlockInterchange, ...]:
    return tuple(
        BlockInterchange(i, j, k, l)
        for i in range(1, n)
        for j in range(i, n - 1)
        for k in range(j + 1, n)
        for l in range(k, n)
    )


def _row_tables(row: Sequence[int]) -> tuple[list[int], list[int]]:
    """Position and successor of each label of a top row on 0..n-1."""
    pos = [0] * len(row)
    succ = [0] * len(row)
    prev = row[-1]
    for t, x in enumerate(row):
        pos[x] = t
        succ[prev] = x
        prev = x
    return pos, succ


def _anchored_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Every top row on 0..n-1 written from the anchor 0: (n-1)! of them."""
    for rest in permutations(range(1, n)):
        yield (0, *rest)


def _check_structure(rep: VerifyReport, n, s, pi, pos, succ, moves) -> None:
    """All per-pair invariants, on 0-based arrays for speed."""
    diag = [0] * n
    for x in range(n):
        diag[pi[x]] = succ[x]
    exc = sum(1 for x in range(n) if pos[x] < pos[pi[x]])
    aex_diag = sum(1 for x in range(n) if pos[x] >= pos[diag[x]])

    def ctx() -> str:
        return f"n={n} s={s} pi={pi}"

    rep.check(exc == aex_diag - 1, lambda: f"{ctx()}: exceedance/diagonal mismatch")
    c_pi = count_cycles(pi)
    c_diag = count_cycles(diag)
    rep.check(c_pi + c_diag <= n + 1, lambda: f"{ctx()}: cycle bound broken")
    rep.check((c_pi + c_diag - (n - 1)) % 2 == 0, lambda: f"{ctx()}: cycle parity broken")
    rotation_ok = all(
        sum(1 for x in range(n) if (pos[x] - r) % n < (pos[pi[x]] - r) % n) == exc
        for r in range(1, n)
    )
    rep.check(rotation_ok, lambda: f"{ctx()}: exceedance count not rotation invariant")

    image = pi.__getitem__
    tables = _cycle_tables(range(n), image)
    for move in moves:
        pts = _move_points(s, move)
        patched = list(pi)
        for x, y in _patch(pts, image).items():
            patched[x] = y
        case = _classify_points(*tables, pts)
        delta = count_cycles(patched) - c_pi
        want = case.cycle_delta
        ok = delta in (-2, 0) if want is None else delta == want
        if move.is_transpose:
            ok = ok and case.value in "123456"
        # ``check`` formats a failure at once, so the closure sees this move.
        rep.check(ok, lambda: f"{ctx()} move={move}: case={case.value} delta={delta}")


def _sweep_block(args) -> VerifyReport:
    n, s = args
    rep = VerifyReport(f"invariants n={n}")
    pos, succ = _row_tables(s)
    moves = _all_moves(n)
    for pi in permutations(range(n)):
        _check_structure(rep, n, s, pi, pos, succ, moves)
    return rep


def invariant_sweep(
    n_max: int = 6,
    random_cases: int = 0,
    random_n: int = 12,
    seed: int = 0,
    jobs: int = 1,
) -> VerifyReport:
    """Check the structural invariants on every plane permutation up to
    ``n_max`` labels, plus randomized larger cases.

    Exhaustive coverage runs over anchored top rows; every other written
    form is a relabeling of one of these, and the invariants are
    relabeling covariant.  The randomized part draws arbitrary anchors.
    """
    blocks = [(n, row) for n in range(1, n_max + 1) for row in _anchored_rows(n)]
    total = merge_reports("invariant-sweep", pmap(_sweep_block, blocks, jobs))
    rng = random.Random(seed)
    rand = VerifyReport("invariants random")
    for _ in range(random_cases):
        n = rng.randint(4, random_n)
        s = list(range(n))
        rng.shuffle(s)
        pi = list(range(n))
        rng.shuffle(pi)
        pos, succ = _row_tables(s)
        i = rng.randint(1, n - 2)
        j = rng.randint(i, n - 2)
        k = rng.randint(j + 1, n - 1)
        l = rng.randint(k, n - 1)
        _check_structure(
            rand, n, tuple(s), tuple(pi), pos, succ, (BlockInterchange(i, j, k, l),)
        )
    total.absorb(rand)
    total.info["random_cases"] = random_cases
    return total
