"""Sorting distances for sequences and signed permutations.

Everything here is driven by one encoding: a sequence to be sorted is wrapped
into a plane permutation whose diagonal is a fixed rotation, and the number of
cycles in the vertical permutation measures how far the sequence is from
sorted.  Block interchanges move the count up by at most two per step, which
yields exact formulas (block-interchange distance), constructive sorters, and
lower bounds (transposition and reversal distance).

Unsigned sequences are tuples containing 1..n; signed permutations are tuples
of nonzero integers whose magnitudes are a permutation of 1..n, rendered in
text as ``"-3 +1 +2"`` with mandatory signs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .partitions import exact_div, stirling_first
from .perm import Permutation, array_cycle_counts, count_cycles, parse_sequence
from .plane import BlockInterchange, PlanePermutation, TransposeCase, swap_blocks
from .report import VerifyReport, merge_reports

DEFAULT_BFS_CAP = 10**7

SORTED_CASES = frozenset(
    {TransposeCase.CASE_2, TransposeCase.CASE_C, TransposeCase.CASE_E}
)


class SearchCapExceeded(RuntimeError):
    """A breadth-first search or exhaustive scan outgrew its state cap."""


# ---------------------------------------------------------------------------
# unsigned sequences


def check_sequence(seq: Iterable[int]) -> tuple[int, ...]:
    """Validate that ``seq`` is a permutation of 1..n and return it as a tuple."""
    row = tuple(seq)
    if sorted(row) != list(range(1, len(row) + 1)):
        raise ValueError(f"not a sequence on 1..n: {row!r}")
    return row


def parse_unsigned(text: str) -> tuple[int, ...]:
    return check_sequence(parse_sequence(text))


def augmented_row(seq: Sequence[int]) -> tuple[int, ...]:
    """The sequence with the fixed anchor 0 prepended."""
    return (0,) + tuple(seq)


def transposition_diagonal(n: int) -> Permutation:
    """The descending rotation on 0..n: every label maps to its predecessor, 0 to n."""
    return Permutation.from_mapping({v: v - 1 if v else n for v in range(n + 1)})


def sequence_plane(seq: Sequence[int]) -> PlanePermutation:
    """Wrap an unsigned sequence into its sorting plane permutation.

    The top row is the anchored sequence on 0..n and the diagonal is the
    inverse descending rotation, so the vertical permutation is the rotation
    composed with the row cycle.  The sequence is sorted exactly when the
    vertical is the identity.
    """
    seq = check_sequence(seq)
    diag = transposition_diagonal(len(seq)).inverse()
    return PlanePermutation.from_diagonal(augmented_row(seq), diag)


def _vertical_images(row: Sequence[int]) -> list[int]:
    # Image table of the vertical permutation of ``sequence_plane``; index by
    # label on 0..n.  Kept array-shaped for the hot loops below.
    n = len(row) - 1
    succ = [0] * (n + 1)
    for t, v in enumerate(row):
        succ[v] = row[(t + 1) % (n + 1)]
    return [succ[v] - 1 if succ[v] else n for v in range(n + 1)]


def apply_block_interchange(
    seq: Sequence[int], move: BlockInterchange | tuple[int, int, int, int]
) -> tuple[int, ...]:
    """Swap the blocks at 1-based positions [i..j] and [k..l] of a bare sequence.

    >>> apply_block_interchange((3, 2, 1), (1, 1, 3, 3))
    (1, 2, 3)
    """
    if not isinstance(move, BlockInterchange):
        move = BlockInterchange(*move)
    row = augmented_row(seq)
    move.validate(len(row))
    return swap_blocks(row, move)[1:]


def apply_transposition(seq: Sequence[int], i: int, j: int, k: int) -> tuple[int, ...]:
    """Swap the adjacent blocks at 1-based positions [i..j] and [j+1..k].

    >>> apply_transposition((4, 1, 2, 3), 1, 1, 4)
    (1, 2, 3, 4)
    """
    return apply_block_interchange(seq, (i, j, j + 1, k))


def _gamma_images(gamma: Permutation, n: int) -> tuple[int, ...]:
    # γ acts on 0..n, so its image tuple is already a 0-based array.
    if gamma.labels != tuple(range(n + 1)):
        raise ValueError(f"gamma must act on 0..{n}, got {gamma.labels!r}")
    return gamma.images


def _gaps(vertical: Sequence[int], gamma: Sequence[int]) -> tuple[int, int, int]:
    with_gamma = array_cycle_counts([vertical[x] for x in gamma])
    alone = array_cycle_counts(gamma)
    return tuple(abs(c - d) for c, d in zip(with_gamma, alone))


def cycle_gaps(seq: Sequence[int], gamma: Permutation) -> tuple[int, int, int]:
    """Absolute change of (total, odd, even) cycle counts when composing with γ.

    Measures the vertical permutation of the sorting plane against the free
    parameter γ, which must act on the anchored label set 0..n.
    """
    seq = check_sequence(seq)
    gamma_images = _gamma_images(gamma, len(seq))
    return _gaps(_vertical_images(augmented_row(seq)), gamma_images)


def td_lower_bound(seq: Sequence[int], gammas: Iterable[Permutation] | None = None) -> int:
    """Lower bound for the transposition distance of ``seq``.

    Each γ yields the bound ceil(gap/2) where gap is the largest of the three
    cycle-count changes reported by :func:`cycle_gaps`; the result is the best
    bound over the supplied γ.  The defaults are the inverse of the vertical
    and the identity.  Both give the gaps (n+1−C, n+1−C_odd, C_even) of the
    vertical's cycle counts, so the default bound is ceil((n+1−C_odd)/2), the
    odd-cycle bound of the cycle graph, and is read off C_odd directly.
    """
    seq = check_sequence(seq)
    n = len(seq)
    vertical = _vertical_images(augmented_row(seq))
    if gammas is None:
        return (n + 2 - array_cycle_counts(vertical)[1]) // 2
    best = 0
    for gamma in gammas:
        gap = max(_gaps(vertical, _gamma_images(gamma, n)))
        best = max(best, (gap + 1) // 2)
    return best


def bid(seq: Sequence[int]) -> int:
    """Exact block-interchange distance of ``seq`` to the sorted sequence.

    >>> bid((3, 2, 1))
    1
    >>> bid((1, 2, 3, 4))
    0
    """
    seq = check_sequence(seq)
    n = len(seq)
    cycles = count_cycles(_vertical_images(augmented_row(seq)))
    return exact_div(n + 1 - cycles, 2)


def bid_sort(seq: Sequence[int]) -> tuple[BlockInterchange, ...]:
    """A shortest sorting scenario by block interchanges.

    Returns exactly ``bid(seq)`` moves, 1-based on the sequence positions.
    Each move is chosen greedily: take the largest label x whose successor
    label sits to its left, the largest label y above x between them, and swap
    so that x+1..y close up with x..y+1.  Every move raises the vertical cycle
    count by two, which is what makes the scenario shortest.
    """
    seq = check_sequence(seq)
    n = len(seq)
    expected = bid(seq)
    row = list(augmented_row(seq))
    steps: list[BlockInterchange] = []
    while True:
        pos = {v: t for t, v in enumerate(row)}
        x = next((v for v in range(n - 1, 0, -1) if pos[v + 1] < pos[v]), None)
        if x is None:
            break
        if len(steps) == expected:
            raise AssertionError(f"sorter exceeded {expected} moves on {seq!r}")
        i, below_x = pos[x + 1], pos[x]
        y = max(row[t] for t in range(i, below_x) if row[t] > x)
        j = pos[y]
        after = pos[y + 1 if y < n else 0]
        last = (after - 1) % (n + 1)
        if row[last] == x:
            move = BlockInterchange(i, j, j + 1, below_x)
        else:
            move = BlockInterchange(i, j, below_x + 1, last)
        row = list(swap_blocks(tuple(row), move))
        steps.append(move)
    if len(steps) != expected:
        raise AssertionError(f"sorter used {len(steps)} moves, expected {expected}")
    return tuple(steps)


def bid_count(n: int, k: int) -> int:
    """Number of sequences on 1..n at block-interchange distance exactly k.

    >>> [bid_count(3, k) for k in (0, 1)]
    [1, 5]
    """
    if k < 0 or 2 * k > n:
        return 0
    return exact_div(2 * stirling_first(n + 2, n + 1 - 2 * k), (n + 1) * (n + 2))


def max_cycle_gap(alpha: Permutation) -> int:
    """Largest possible |C(αγ) − C(γ)| over all γ, in closed form n − C(α)."""
    return len(alpha.labels) - alpha.cycle_counts()[0]


def brute_max_cycle_gap(alpha: Permutation) -> int:
    """Maximize |C(αγ) − C(γ)| by scanning every γ on the labels of α."""
    labels = alpha.labels
    n = len(labels)
    slot = {v: t for t, v in enumerate(labels)}
    base = [slot[alpha(v)] for v in labels]
    best = 0
    for gamma in itertools.permutations(range(n)):
        product = [base[gamma[t]] for t in range(n)]
        gap = abs(count_cycles(product) - count_cycles(gamma))
        if gap > best:
            best = gap
    return best


# ---------------------------------------------------------------------------
# signed permutations


def check_signed(a: Iterable[int]) -> tuple[int, ...]:
    signed = tuple(a)
    if sorted(abs(v) for v in signed) != list(range(1, len(signed) + 1)):
        raise ValueError(f"magnitudes must form a permutation of 1..n: {signed!r}")
    return signed


def parse_signed(text: str) -> tuple[int, ...]:
    """Parse ``"-3 +1 +2"``; every entry must carry an explicit sign."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty signed permutation")
    for token in tokens:
        if not (token[0] in "+-" and token[1:].isdigit()):
            raise ValueError(f"signed entry needs an explicit sign: {token!r}")
    return check_signed(int(token) for token in tokens)


def format_signed(a: Sequence[int]) -> str:
    return " ".join(f"{v:+d}" for v in a)


def is_exact(a: Sequence[int]) -> bool:
    """Whether the signed permutation has any negative entry (so a two-step
    reversal candidate exists)."""
    return any(v < 0 for v in a)


def skew_seq(a: Sequence[int]) -> tuple[int, ...]:
    """Anchored double cover of a signed permutation: 0, a, then −a reversed.

    >>> skew_seq((1, 2))
    (0, 1, 2, -2, -1)
    """
    a = check_signed(a)
    return (0,) + tuple(a) + tuple(-v for v in reversed(a))


@dataclass(frozen=True)
class Reversal:
    """Reverse the 1-based block [i..j] of a signed permutation, flipping signs."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if not 1 <= self.i <= self.j:
            raise ValueError(f"need 1 <= i <= j, got {self}")

    def as_block_interchange(self, n: int) -> BlockInterchange:
        """The equivalent move on the skew-symmetric double cover of length 2n+1."""
        if self.j > n:
            raise ValueError(f"{self} out of range for n={n}")
        return BlockInterchange(self.i, self.j, 2 * n + 1 - self.j, 2 * n + 1 - self.i)

    def __str__(self) -> str:
        return f"reversal({self.i},{self.j})"


def apply_reversal(a: Sequence[int], move: Reversal) -> tuple[int, ...]:
    """
    >>> apply_reversal((3, -2, 1), Reversal(1, 3))
    (-1, 2, -3)
    """
    a = check_signed(a)
    if move.j > len(a):
        raise ValueError(f"{move} out of range for {a!r}")
    i, j = move.i, move.j
    return a[: i - 1] + tuple(-v for v in reversed(a[i - 1 : j])) + a[j:]


def reversal_diagonal(n: int) -> Permutation:
    """The rotation on 0..n and −1..−n threading both signs into one cycle."""
    images = {0: -1, -n: n}
    for v in range(1, n + 1):
        images[v] = v - 1
    for v in range(-1, -n, -1):
        images[v] = v - 1
    return Permutation.from_mapping(images)


def signed_plane(a: Sequence[int]) -> PlanePermutation:
    """Wrap a signed permutation into the plane permutation of its double cover."""
    n = len(check_signed(a))
    return PlanePermutation.from_diagonal(skew_seq(a), reversal_diagonal(n).inverse())


def _signed_vertical(a: Sequence[int]) -> tuple[list[int], list[int]]:
    # Image table of the vertical of ``signed_plane`` with labels packed as
    # v -> v (positive side) and v -> n - v (negative side), plus the packed row.
    n = len(a)
    row = skew_seq(a)
    size = 2 * n + 1
    packed = [v if v >= 0 else n - v for v in row]
    succ = [0] * size
    for t in range(size):
        succ[packed[t]] = packed[(t + 1) % size]
    rot = [0] * size  # packed rotation: the inverse diagonal
    for v in range(1, n + 1):
        rot[v] = v - 1
    rot[0] = n + 1  # 0 -> -1
    for v in range(-1, -n, -1):
        rot[n - v] = n - (v - 1)
    rot[2 * n] = n  # -n -> n
    return [rot[succ[x]] for x in range(size)], packed


def rev_lower_bound(a: Sequence[int]) -> int:
    """Lower bound for the reversal distance of a signed permutation.

    >>> rev_lower_bound((-1,))
    1
    """
    a = check_signed(a)
    images, _ = _signed_vertical(a)
    return exact_div(2 * len(a) + 1 - count_cycles(images), 2)


@dataclass(frozen=True)
class BreakpointGraph:
    """Doubled-label breakpoint graph of a signed permutation.

    ``b`` lists the 2n+2 endpoint labels; ``theta1`` and ``theta2`` are the
    matchings given by adjacent endpoint pairs and by consecutive values.
    """

    b: tuple[int, ...]
    theta1: Permutation
    theta2: Permutation

    @property
    def cycle_count(self) -> int:
        return exact_div((self.theta1 * self.theta2).cycle_counts()[0], 2)


def _endpoints(a: Sequence[int]) -> list[int]:
    # The 2n+2 endpoint labels: 0, then −v, v for each entry, then −(n+1).
    return [0, *itertools.chain.from_iterable((-v, v) for v in a), -(len(a) + 1)]


def breakpoint_graph(a: Sequence[int]) -> BreakpointGraph:
    a = check_signed(a)
    n = len(a)
    b = _endpoints(a)
    theta1 = Permutation.from_cycles([(b[2 * t], b[2 * t + 1]) for t in range(n + 1)])
    theta2 = Permutation.from_cycles([(t, -(t + 1)) for t in range(n + 1)])
    return BreakpointGraph(tuple(b), theta1, theta2)


def breakpoint_bound(a: Sequence[int]) -> int:
    """Breakpoint-graph lower bound n+1−C_BG for the reversal distance.

    Each cycle of the breakpoint graph splits into two cycles of θ₁θ₂, so the
    bound is (2n+2−C(θ₁θ₂))/2; the division raises if C(θ₁θ₂) is odd.
    """
    a = check_signed(a)
    n = len(a)
    # Endpoint labels packed onto 0..2n+1: x -> x for x >= 0, x -> n - x below.
    packed = [v if v >= 0 else n - v for v in _endpoints(a)]
    theta1 = [0] * (2 * n + 2)
    for u, w in zip(packed[::2], packed[1::2]):
        theta1[u], theta1[w] = w, u
    # θ₂ swaps t and n+1+t, so θ₁θ₂ is θ₁ read with its two halves swapped.
    product = theta1[n + 1 :] + theta1[: n + 1]
    return exact_div(2 * n + 2 - count_cycles(product), 2)


def _require_skew_symmetric(p: PlanePermutation) -> int:
    size = len(p.s)
    if size % 2 != 1:
        raise ValueError("skew-symmetric row must have odd length 2n+1")
    n = size // 2
    if p.s[0] != 0 or any(p.s[k] != -p.s[size - k] for k in range(1, size)):
        raise ValueError(f"row is not skew-symmetric: {p.s!r}")
    if p.diagonal != reversal_diagonal(n).inverse():
        raise ValueError("plane permutation does not carry the reversal diagonal")
    return n


def find_2_reversal(p: PlanePermutation) -> Reversal | None:
    """A reversal raising the vertical cycle count of ``p`` by two, if the
    standard construction yields one.

    Looks at the most negative entry m of the first half.  If m > −n, the
    entry m−1 sits in the second half and pins down a reversal directly; if
    m = −n, the reversal over the half-row works exactly when n and the middle
    entry share a vertical cycle.  Returns None otherwise (in particular for
    all-positive rows, which admit no two-step reversal).
    """
    n = _require_skew_symmetric(p)
    negatives = [v for v in p.s[1 : n + 1] if v < 0]
    if not negatives:
        return None
    most_negative = min(negatives)
    i = p.position(most_negative)
    if most_negative == -n:
        if not p.pi.same_cycle(n, p.s[n]):
            return None
        move = Reversal(i, n)
    else:
        j = 2 * n - p.position(most_negative - 1)
        move = Reversal(i, j) if i - 1 < j else Reversal(j + 1, i - 1)
    case = p.classify(move.as_block_interchange(n))
    if case.cycle_delta != 2:
        raise AssertionError(f"constructed reversal {move} is {case} on {p.s!r}")
    return move


@dataclass(frozen=True)
class GreedySortResult:
    """Outcome of sorting a signed permutation by repeated 2-reversals."""

    start: tuple[int, ...]
    steps: tuple[Reversal, ...]
    final: tuple[int, ...]

    @property
    def sorted(self) -> bool:
        return self.final == tuple(range(1, len(self.final) + 1))


def greedy_reversal_sort(a: Sequence[int]) -> GreedySortResult:
    """Repeatedly apply :func:`find_2_reversal` until sorted or stuck.

    When this reaches the identity, the scenario has length exactly
    ``rev_lower_bound(a)`` and the bound is tight.  No fallback search is
    attempted when the construction yields nothing.
    """
    a = check_signed(a)
    goal = tuple(range(1, len(a) + 1))
    current = a
    steps: list[Reversal] = []
    while current != goal:
        move = find_2_reversal(signed_plane(current))
        if move is None:
            break
        current = apply_reversal(current, move)
        steps.append(move)
    return GreedySortResult(a, tuple(steps), current)


def all_signed(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n · n! signed permutations on 1..n, in deterministic order."""
    for magnitudes in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(m * s for m, s in zip(magnitudes, signs))


def conjecture_scan(
    n: int, which: str, *, limit: int = 6, allow_large: bool = False
) -> VerifyReport:
    """Scan signed permutations for the same-cycle property of the vertical.

    ``which`` selects the population: ``"same-cycle-exact"`` restricts to
    rows with a negative entry whose vertical pairs some first-half entry with
    its mirror, ``"same-cycle-all"`` scans every signed permutation.  In both
    populations the check is that n and the middle entry of the double cover
    lie in one vertical cycle.  Counterexamples are collected, never raised;
    none are known.
    """
    if which not in ("same-cycle-exact", "same-cycle-all"):
        raise ValueError(f"unknown conjecture scan {which!r}")
    if allow_large:
        limit = max(limit, 7)
    if n > limit:
        raise SearchCapExceeded(f"conjecture scan capped at n={limit} (asked {n})")
    report = VerifyReport(f"conjecture-{which}-n{n}")
    scanned = 0
    for a in all_signed(n):
        scanned += 1
        if which == "same-cycle-exact":
            if not is_exact(a):
                continue
            p = signed_plane(a)
            if not any(
                p.pi(p.s[i - 1]) == p.s[2 * n + 1 - i] for i in range(1, n + 1)
            ):
                continue
            same = p.pi.same_cycle(n, p.s[n])
        else:
            images, packed = _signed_vertical(a)
            x = n  # packed slot of the label n
            target = packed[n]  # packed slot of the middle entry
            same = x == target
            if not same:
                y = images[x]
                while y != x:
                    if y == target:
                        same = True
                        break
                    y = images[y]
        report.check(same, lambda a=a: f"n and middle entry split at {format_signed(a)}")
    report.info["instances"] = report.checked
    report.info["scanned"] = scanned
    return report


# ---------------------------------------------------------------------------
# breadth-first search oracles


def neighbors_transpositions(state: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    n = len(state)
    for j in range(1, n):
        for i in range(1, j + 1):
            for k in range(j + 1, n + 1):
                yield state[: i - 1] + state[j:k] + state[i - 1 : j] + state[k:]


def neighbors_block_interchanges(state: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    n = len(state)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j + 1, n + 1):
                for l in range(k, n + 1):
                    yield (
                        state[: i - 1]
                        + state[k - 1 : l]
                        + state[j : k - 1]
                        + state[i - 1 : j]
                        + state[l:]
                    )


def neighbors_reversals(state: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    n = len(state)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            yield state[: i - 1] + tuple(-v for v in reversed(state[i - 1 : j])) + state[j:]


GENERATORS: dict[str, Callable[[tuple[int, ...]], Iterator[tuple[int, ...]]]] = {
    "transpositions": neighbors_transpositions,
    "block_interchanges": neighbors_block_interchanges,
    "reversals": neighbors_reversals,
}


def _bfs(
    start: tuple[int, ...], kind: str, cap: int, goal: tuple[int, ...] | None = None
) -> dict[tuple[int, ...], int]:
    """Distances of the states reached from ``start``; a search for ``goal``
    stops the moment it finds it, before the state cap is consulted."""
    neighbors = GENERATORS[kind]
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            for nb in neighbors(state):
                if nb not in dist:
                    if nb == goal:
                        dist[nb] = depth
                        return dist
                    if len(dist) >= cap:
                        raise SearchCapExceeded(
                            f"BFS under {kind} exceeded cap of {cap} states"
                        )
                    dist[nb] = depth
                    nxt.append(nb)
        frontier = nxt
    return dist


# Complete searches repeat across the oracle suites, so they are cached.
_bfs_from = lru_cache(maxsize=16)(_bfs)


def bfs_distances(
    start: Sequence[int], kind: str, cap: int = DEFAULT_BFS_CAP
) -> dict[tuple[int, ...], int]:
    """Distance from ``start`` to every reachable state under one move family.

    ``kind`` is one of ``transpositions``, ``block_interchanges``,
    ``reversals``.  All three families are closed under inverses, so these
    distances are symmetric in start and goal.
    """
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator family {kind!r}")
    return dict(_bfs_from(tuple(start), kind, cap))


def bfs_distance(
    start: Sequence[int],
    goal: Sequence[int],
    kind: str,
    cap: int = DEFAULT_BFS_CAP,
) -> int:
    """Exact number of moves from ``start`` to ``goal``; an independent oracle."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator family {kind!r}")
    start, goal = tuple(start), tuple(goal)
    if start == goal:
        return 0
    dist = _bfs(start, kind, cap, goal)
    if goal not in dist:
        raise ValueError(f"{goal!r} is unreachable from {start!r} under {kind}")
    return dist[goal]


# ---------------------------------------------------------------------------
# verification suites


def sorted_sequence(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def check_bid_bfs_at(n: int, cap: int = DEFAULT_BFS_CAP) -> VerifyReport:
    """bid agrees with the BFS block-interchange distance on all of S_n."""
    report = VerifyReport(f"bid-bfs-n{n}")
    oracle = bfs_distances(sorted_sequence(n), "block_interchanges", cap)
    for seq in itertools.permutations(range(1, n + 1)):
        value, expected = bid(seq), oracle[seq]
        report.check(
            value == expected,
            lambda s=seq, v=value, e=expected: f"bid{s!r}={v} but BFS says {e}",
        )
    report.info["states"] = len(oracle)
    return report


def check_bid_replay_at(n: int) -> VerifyReport:
    """bid_sort emits bid(s) moves, each one a cycle-raising case, reaching e_n."""
    report = VerifyReport(f"bid-replay-n{n}")
    goal = sorted_sequence(n)
    for seq in itertools.permutations(goal):
        steps = bid_sort(seq)
        ok = len(steps) == bid(seq)
        current = seq
        for move in steps:
            case = sequence_plane(current).classify(move)
            ok = ok and case in SORTED_CASES
            current = apply_block_interchange(current, move)
        ok = ok and current == goal
        report.check(ok, lambda s=seq: f"scenario for {s!r} broke down")
    return report


def check_bid_histogram_at(n: int, cap: int = DEFAULT_BFS_CAP) -> VerifyReport:
    """The BFS distance histogram over S_n matches the closed-form counts."""
    report = VerifyReport(f"bid-histogram-n{n}")
    oracle = bfs_distances(sorted_sequence(n), "block_interchanges", cap)
    histogram: dict[int, int] = {}
    for value in oracle.values():
        histogram[value] = histogram.get(value, 0) + 1
    for k in range(n // 2 + 1):
        got, expected = histogram.get(k, 0), bid_count(n, k)
        report.check(
            got == expected,
            lambda k=k, g=got, e=expected: f"distance {k}: histogram {g} vs formula {e}",
        )
    report.check(
        max(histogram) <= n // 2,
        lambda: f"BFS found distance beyond n/2: {max(histogram)}",
    )
    report.info["histogram"] = dict(sorted(histogram.items()))
    return report


def suite_bid_oracle(
    n: int, *, bfs_limit: int = 7, cap: int = DEFAULT_BFS_CAP
) -> VerifyReport:
    """BFS equality, scenario replay, and the distance histogram, for sizes up to n."""
    parts = []
    for m in range(1, n + 1):
        if m <= bfs_limit:
            parts.append(check_bid_bfs_at(m, cap))
            parts.append(check_bid_histogram_at(m, cap))
        parts.append(check_bid_replay_at(m))
    merged = merge_reports(f"bid-oracle-n{n}", parts)
    merged.info["states"] = sum(part.info.get("states", 0) for part in parts)
    histograms = [part.info["histogram"] for part in parts if "histogram" in part.info]
    for m, histogram in enumerate(histograms, start=1):
        merged.info[f"histogram_n{m}"] = histogram
    return merged


def check_td_bound_at(n: int, cap: int = DEFAULT_BFS_CAP) -> VerifyReport:
    """td_lower_bound with default γ never exceeds the BFS transposition distance."""
    report = VerifyReport(f"td-bound-n{n}")
    oracle = bfs_distances(sorted_sequence(n), "transpositions", cap)
    tight = 0
    for seq in itertools.permutations(range(1, n + 1)):
        bound, actual = td_lower_bound(seq), oracle[seq]
        tight += bound == actual
        report.check(
            bound <= actual,
            lambda s=seq, b=bound, d=actual: f"bound {b} exceeds distance {d} at {s!r}",
        )
    report.info["tight"] = tight
    return report


def suite_td_oracle(n: int, *, cap: int = DEFAULT_BFS_CAP) -> VerifyReport:
    parts = [check_td_bound_at(m, cap) for m in range(1, n + 1)]
    merged = merge_reports(f"td-oracle-n{n}", parts)
    merged.info["tight"] = sum(part.info["tight"] for part in parts)
    return merged


def check_rev_bounds_at(n: int, cap: int = DEFAULT_BFS_CAP) -> VerifyReport:
    """rev_lower_bound never exceeds the BFS reversal distance; rates reported."""
    report = VerifyReport(f"rev-bounds-n{n}")
    oracle = bfs_distances(sorted_sequence(n), "reversals", cap)
    tight = 0
    disagreements = 0
    for a in all_signed(n):
        bound, actual = rev_lower_bound(a), oracle[a]
        tight += bound == actual
        disagreements += bound != breakpoint_bound(a)
        report.check(
            bound <= actual,
            lambda s=a, b=bound, d=actual: (
                f"bound {b} exceeds distance {d} at {format_signed(s)}"
            ),
        )
    report.info["states"] = len(oracle)
    report.info["tight"] = tight
    report.info["tight_rate"] = f"{tight}/{report.checked}"
    report.info["breakpoint_disagreements"] = disagreements
    return report


def suite_rev_oracle(
    n: int, *, cap: int = DEFAULT_BFS_CAP, allow_large: bool = False
) -> VerifyReport:
    limit = 7 if allow_large else 6
    if n > limit:
        raise SearchCapExceeded(f"rev-oracle capped at n={limit} (asked {n})")
    parts = [check_rev_bounds_at(m, cap) for m in range(1, n + 1)]
    merged = merge_reports(f"rev-oracle-n{n}", parts)
    for key in ("states", "tight"):
        merged.info[key] = sum(part.info[key] for part in parts)
    merged.info["tight_rate"] = f"{merged.info['tight']}/{merged.checked}"
    merged.info["breakpoint_disagreements"] = sum(
        part.info["breakpoint_disagreements"] for part in parts
    )
    return merged


def suite_max_gap(
    n: int, *, samples: int = 10**4, sample_n: int = 6, seed: int = 0
) -> VerifyReport:
    """Closed-form cycle gap versus brute force: exhaustive small, sampled at 6."""
    report = VerifyReport(f"max-gap-n{n}")
    for m in range(1, min(n, 5) + 1):
        labels = range(1, m + 1)
        for images in itertools.permutations(labels):
            alpha = Permutation.from_one_line(images)
            closed, brute = max_cycle_gap(alpha), brute_max_cycle_gap(alpha)
            report.check(
                closed == brute,
                lambda a=images, c=closed, b=brute: f"gap mismatch at {a!r}: {c} vs {b}",
            )
    if n >= sample_n:
        rng = random.Random(seed)
        cache: dict[tuple[int, ...], int] = {}
        base = list(range(1, sample_n + 1))
        for _ in range(samples):
            rng.shuffle(base)
            images = tuple(base)
            if images not in cache:
                cache[images] = brute_max_cycle_gap(Permutation.from_one_line(images))
            alpha = Permutation.from_one_line(images)
            report.check(
                max_cycle_gap(alpha) == cache[images],
                lambda a=images: f"sampled gap mismatch at {a!r}",
            )
        report.info["sampled"] = samples
        report.info["distinct_sampled"] = len(cache)
    return report
