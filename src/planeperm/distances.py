"""Sorting distances for sequences and signed permutations.

Everything here is driven by one encoding: a sequence to be sorted is wrapped
into a plane permutation whose diagonal is a fixed rotation, and the number of
cycles in the vertical permutation measures how far the sequence is from
sorted.  Block interchanges move the count up by at most two per step, which
yields exact formulas (block-interchange distance), constructive sorters, and
lower bounds (transposition and reversal distance).

Unsigned sequences are tuples containing 1..n; signed permutations are tuples
of nonzero integers whose magnitudes are a permutation of 1..n, rendered in
text as ``"-3 +1 +2"`` with mandatory signs.  A signed permutation is encoded
by its skew-symmetric double cover, packed from ``-n..n`` onto ``0..2n`` by
``v -> v mod 2n+1``; its diagonal then reads ``x -> x + 1``, so the reversal
lower bound is the block-interchange half-gap of the packed cover.  The
same-cycle scans check, over every signed permutation or over those in which
n is negated, that n and the middle entry of the cover share a vertical cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, neg
from typing import Callable, Iterable, Iterator, Sequence

from .enumeration import xi
from .partitions import _int_token, exact_div
from .perm import Permutation, _cycle_map, array_cycle_counts, count_cycles, parse_sequence
from .plane import BlockInterchange, TransposeCase, _case, _row_tables, swap_blocks
from .report import VerifyReport, merge_reports, size_gate, summed

DEFAULT_BFS_CAP = 10**7

SORTED_CASES = frozenset(
    {TransposeCase.CASE_2, TransposeCase.CASE_C, TransposeCase.CASE_E}
)


class SearchCapExceeded(RuntimeError):
    """A breadth-first search outgrew its state cap."""


# ---------------------------------------------------------------------------
# unsigned sequences


def check_sequence(seq: Iterable[int]) -> tuple[int, ...]:
    """Validate that ``seq`` is a permutation of 1..n, n >= 1, and return it as a tuple."""
    row = tuple(seq)
    if not row:
        raise ValueError("empty sequence")
    if sorted(row) != list(range(1, len(row) + 1)):
        raise ValueError(f"not a sequence on 1..n: {row!r}")
    return row


def parse_unsigned(text: str) -> tuple[int, ...]:
    return check_sequence(parse_sequence(text))


def augmented_row(seq: Sequence[int]) -> tuple[int, ...]:
    """The sequence with the fixed anchor 0 prepended."""
    return (0,) + tuple(seq)


def _vertical_images(row: Sequence[int]) -> list[int]:
    # Image table, indexed by label on 0..n, of the vertical permutation of
    # the sorting plane: top row ``row`` (the anchored sequence) over the
    # diagonal x -> x + 1 mod n + 1.  The vertical sends x to its successor in
    # the row minus one, 0 to n, so it is the identity exactly on sorted rows.
    _, succ = _row_tables(row)
    return [y - 1 if y else len(row) - 1 for y in succ]


def _half_gap(row: Sequence[int]) -> int:
    # (len(row) − C)/2 with C the vertical cycles of the sorting plane of
    # ``row``: the block-interchange distance of the anchored row.
    return exact_div(len(row) - count_cycles(_vertical_images(row)), 2)


def td_lower_bound(seq: Sequence[int]) -> int:
    """Odd-cycle lower bound ceil((n+1−C_odd)/2) for the transposition distance
    of ``seq``, with C_odd the odd cycles of the sorting plane's vertical."""
    seq = check_sequence(seq)
    vertical = _vertical_images(augmented_row(seq))
    return (len(seq) + 2 - array_cycle_counts(vertical)[1]) // 2


def bid(seq: Sequence[int]) -> int:
    """Exact block-interchange distance of ``seq`` to the sorted sequence.

    >>> bid((3, 2, 1))
    1
    >>> bid((1, 2, 3, 4))
    0
    """
    return _half_gap(augmented_row(check_sequence(seq)))


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
        pos, _ = _row_tables(row)
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

    This is the Zagier–Stanley count ``xi(n + 1, n + 1 - 2k)``.

    >>> [bid_count(3, k) for k in (0, 1)]
    [1, 5]
    """
    return xi(n + 1, n + 1 - 2 * k)


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
    if not signed:
        raise ValueError("empty signed permutation")
    if sorted(abs(v) for v in signed) != list(range(1, len(signed) + 1)):
        raise ValueError(f"magnitudes must form a permutation of 1..n: {signed!r}")
    return signed


def parse_signed(text: str) -> tuple[int, ...]:
    """Parse ``"-3 +1 +2"``; every entry is a sign, then ASCII digits."""
    tokens = text.split()
    for token in tokens:
        if token[0] not in "+-":
            raise ValueError(f"signed entry needs an explicit sign: {token!r}")
    fault = "signed entry needs ASCII digits after its sign"
    return check_signed(_int_token(token, fault) for token in tokens)


def format_signed(a: Sequence[int]) -> str:
    return " ".join(f"{v:+d}" for v in a)


def skew_seq(a: Sequence[int]) -> tuple[int, ...]:
    """Anchored double cover of a signed permutation: 0, a, then −a reversed.

    >>> skew_seq((1, 2))
    (0, 1, 2, -2, -1)
    """
    return _skew_row(check_signed(a))


def _skew_row(a: Sequence[int]) -> tuple[int, ...]:
    # ``skew_seq`` without validation.
    return (0, *a, *(-v for v in reversed(a)))


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


def _reverse(a: tuple[int, ...], move: Reversal) -> tuple[int, ...]:
    i, j = move.i, move.j
    return a[: i - 1] + tuple(-v for v in reversed(a[i - 1 : j])) + a[j:]


def apply_reversal(a: Sequence[int], move: Reversal) -> tuple[int, ...]:
    """
    >>> apply_reversal((3, -2, 1), Reversal(1, 3))
    (-1, 2, -3)
    """
    a = check_signed(a)
    if move.j > len(a):
        raise ValueError(f"{move} out of range for {a!r}")
    return _reverse(a, move)


def _cover_row(a: Sequence[int]) -> list[int]:
    # ``skew_seq(a)`` packed onto 0..2n by v -> v mod 2n+1, unvalidated: the
    # diagonal 0 -> 1 -> .. -> n -> -n -> .. -> -1 -> 0 becomes x -> x + 1.
    size = 2 * len(a) + 1
    return [v + size if v < 0 else v for v in _skew_row(a)]


def _meets_middle(row: Sequence[int]) -> bool:
    # Whether n and the middle entry of the packed cover share a vertical cycle.
    n = len(row) // 2
    return row[n] in _cycle_map((n,), _vertical_images(row).__getitem__)[n]


def rev_lower_bound(a: Sequence[int]) -> int:
    """Lower bound for the reversal distance of a signed permutation.

    >>> rev_lower_bound((-1,))
    1
    """
    return _half_gap(_cover_row(check_signed(a)))


def _endpoints(a: Sequence[int]) -> list[int]:
    # The 2n+2 endpoint labels: 0, then −v, v for each entry, then −(n+1).
    return [0, *itertools.chain.from_iterable((-v, v) for v in a), -(len(a) + 1)]


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


def find_2_reversal(a: Sequence[int]) -> Reversal | None:
    """A reversal raising the vertical cycle count of the plane of
    ``skew_seq(a)`` by two; None exactly when every entry of ``a`` is positive.

    Takes the most negative entry m of ``a`` and the label |m| + 1, reading
    n + 1 as standing after the row, so that m = −n pairs with that frame.
    The two form an oriented pair: the reversal from m to just before |m| + 1
    when m comes first, else from |m| + 1 to just before m, makes them
    adjacent.  All-positive rows admit none.
    """
    return _find_2_reversal(check_signed(a))


def _find_2_reversal(a: tuple[int, ...]) -> Reversal | None:
    n = len(a)
    most_negative = min(a)
    if most_negative > 0:
        return None
    i = a.index(most_negative) + 1
    j = (*a, n + 1).index(1 - most_negative)
    # At m = −n this is the reversal [i..n], and a_n is on n's cycle.
    # Negation N inverts the diagonal D and the row cycle s, so σ = N∘D and
    # τ = N∘s are involutions, fixing only n and a_n, with π = σ∘τ.  Both
    # reflect n's π-cycle: σ fixes one point of it, so it is odd, and then τ
    # fixes one too, which must be a_n.
    move = Reversal(i, j) if i <= j else Reversal(j + 1, i - 1)
    packed = _cover_row(a)
    case = _case(packed, _vertical_images(packed).__getitem__, move.as_block_interchange(n))
    if case.cycle_delta != 2:
        raise AssertionError(f"constructed reversal {move} is {case} on {skew_seq(a)!r}")
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
    ``rev_lower_bound(a)`` and the bound is tight.  It stops unsorted exactly
    on an all-positive row, with no fallback search.  Only the input is
    validated: each later row is a reversal of a valid one.
    """
    a = check_signed(a)
    goal = tuple(range(1, len(a) + 1))
    current = a
    steps: list[Reversal] = []
    while current != goal:
        move = _find_2_reversal(current)
        if move is None:
            break
        current = _reverse(current, move)
        steps.append(move)
    return GreedySortResult(a, tuple(steps), current)


def all_signed(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n · n! signed permutations on 1..n, in deterministic order."""
    for magnitudes in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(m * s for m, s in zip(magnitudes, signs))


def conjecture_scan(n: int, which: str) -> VerifyReport:
    """Scan signed permutations for the same-cycle property of the vertical.

    ``which`` selects the population: ``"same-cycle-exact"`` scans the
    2^(n−1) · n! rows in which n is negated, ``"same-cycle-all"`` all 2^n · n!
    signed permutations.  In both the check is that n and the middle entry of
    the double cover lie in one vertical cycle.  The property is proved (see
    :func:`_find_2_reversal`); the scans check it exhaustively, never raising.
    """
    size_gate("conjecture scan", n, 7)
    if which not in ("same-cycle-exact", "same-cycle-all"):
        raise ValueError(f"unknown conjecture scan {which!r}")
    exact_only = which == "same-cycle-exact"
    report = VerifyReport(f"conjecture-{which}-n{n}")
    scanned = 0
    for a in all_signed(n):
        scanned += 1
        # The exact rows are those whose vertical π sends some row[i−1] to the
        # mirror −a_i.  As π = D⁻¹∘s and s(row[i−1]) = a_i, that reads
        # a_i = D(−a_i).  D sends −v to −(v−1) (−1 to 0), v to v+1, and n to
        # −n, so it holds exactly when a_i = −n.
        if exact_only and -n not in a:
            continue
        report.check(
            _meets_middle(_cover_row(a)),
            lambda: f"n and middle entry split at {format_signed(a)}",
        )
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


@lru_cache(maxsize=None)
def _gathers(kind: str, n: int) -> tuple[itemgetter, ...]:
    # Each move rearranges entries (a reversal also negates some), so one run
    # on (1, ..., n) reads where they come from: v from index v - 1, -v from
    # index n + v - 1 of the state followed by its negation.  One entry
    # gathers by slice, as itemgetter of one index returns a scalar.
    gathers = []
    for image in GENERATORS[kind](tuple(range(1, n + 1))):
        index = [v - 1 if v > 0 else n - v - 1 for v in image]
        gathers.append(itemgetter(*index) if n > 1 else itemgetter(slice(index[0], None)))
    return tuple(gathers)


def _bfs(
    start: tuple[int, ...], kind: str, cap: int, goal: tuple[int, ...] | None = None
) -> dict[tuple[int, ...], int]:
    """Distances of the states reached from ``start``; a search for ``goal``
    stops the moment it finds it, before the state cap is consulted.  Each
    neighbour is one index gather read off ``GENERATORS[kind]``, in its order."""
    gathers = _gathers(kind, len(start))
    signed = kind == "reversals"
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            if signed:
                state = (*state, *map(neg, state))
            for gather in gathers:
                nb = gather(state)
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


def bfs_distances(start: Sequence[int], kind: str) -> dict[tuple[int, ...], int]:
    """Distance from ``start`` to every reachable state under one move family.

    ``kind`` is one of ``transpositions``, ``block_interchanges``,
    ``reversals``.  All three families are closed under inverses, so these
    distances are symmetric in start and goal.
    """
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator family {kind!r}")
    return dict(_bfs_from(tuple(start), kind, DEFAULT_BFS_CAP))


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
    # every family only rearranges the entries; reversals alone flip signs
    if kind == "reversals":
        same_entries = sorted(map(abs, start)) == sorted(map(abs, goal))
    else:
        same_entries = sorted(start) == sorted(goal)
    dist = _bfs(start, kind, cap, goal) if same_entries else {}
    if goal not in dist:
        raise ValueError(f"{goal!r} is unreachable from {start!r} under {kind}")
    return dist[goal]


# ---------------------------------------------------------------------------
# verification suites


def sorted_sequence(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def check_bid_bfs_at(n: int) -> VerifyReport:
    """bid agrees with the BFS block-interchange distance on all of S_n."""
    report = VerifyReport(f"bid-bfs-n{n}")
    oracle = bfs_distances(sorted_sequence(n), "block_interchanges")
    for seq in itertools.permutations(range(1, n + 1)):
        value, expected = bid(seq), oracle[seq]
        report.check(value == expected, lambda: f"bid{seq!r}={value} but BFS says {expected}")
    report.info["states"] = len(oracle)
    return report


def check_bid_replay_at(n: int) -> VerifyReport:
    """bid_sort emits bid(s) moves, each one a cycle-raising case, reaching e_n."""
    report = VerifyReport(f"bid-replay-n{n}")
    goal = sorted_sequence(n)
    for seq in itertools.permutations(goal):
        try:
            steps = bid_sort(seq)
        except AssertionError as err:
            report.check(False, f"scenario for {seq!r} broke down: {err}")
            continue
        ok = len(steps) == bid(seq)
        row = augmented_row(seq)
        for move in steps:
            ok = ok and _case(row, _vertical_images(row).__getitem__, move) in SORTED_CASES
            row = swap_blocks(row, move)
        ok = ok and row[1:] == goal
        report.check(ok, lambda: f"scenario for {seq!r} broke down")
    return report


def check_bid_histogram_at(n: int) -> VerifyReport:
    """The BFS distance histogram over S_n matches the closed-form counts."""
    report = VerifyReport(f"bid-histogram-n{n}")
    oracle = bfs_distances(sorted_sequence(n), "block_interchanges")
    histogram: dict[int, int] = {}
    for value in oracle.values():
        histogram[value] = histogram.get(value, 0) + 1
    for k in range(n // 2 + 1):
        got, expected = histogram.get(k, 0), bid_count(n, k)
        report.check(
            got == expected,
            lambda: f"distance {k}: histogram {got} vs formula {expected}",
        )
    report.check(
        max(histogram) <= n // 2,
        lambda: f"BFS found distance beyond n/2: {max(histogram)}",
    )
    report.info["histogram"] = dict(sorted(histogram.items()))
    return report


def suite_bid_oracle(n: int) -> VerifyReport:
    """BFS equality, scenario replay, and the distance histogram, for sizes up to n."""
    size_gate("bid-oracle", n, 7)
    parts = []
    for m in range(1, n + 1):
        parts.append(check_bid_bfs_at(m))
        parts.append(check_bid_histogram_at(m))
        parts.append(check_bid_replay_at(m))
    merged = merge_reports(f"bid-oracle-n{n}", parts)
    merged.info.update(summed(parts, "states"))
    histograms = [part.info["histogram"] for part in parts if "histogram" in part.info]
    for m, histogram in enumerate(histograms, start=1):
        merged.info[f"histogram_n{m}"] = histogram
    return merged


def check_td_bound_at(n: int) -> VerifyReport:
    """td_lower_bound never exceeds the BFS transposition distance."""
    report = VerifyReport(f"td-bound-n{n}")
    oracle = bfs_distances(sorted_sequence(n), "transpositions")
    tight = 0
    for seq in itertools.permutations(range(1, n + 1)):
        bound, actual = td_lower_bound(seq), oracle[seq]
        tight += bound == actual
        report.check(
            bound <= actual,
            lambda: f"bound {bound} exceeds distance {actual} at {seq!r}",
        )
    report.info["tight"] = tight
    return report


def suite_td_oracle(n: int) -> VerifyReport:
    size_gate("td-oracle", n, 9)
    parts = [check_td_bound_at(m) for m in range(1, n + 1)]
    merged = merge_reports(f"td-oracle-n{n}", parts)
    merged.info.update(summed(parts, "tight"))
    return merged


def check_rev_bounds_at(n: int) -> VerifyReport:
    """rev_lower_bound never exceeds the BFS reversal distance; rates reported."""
    report = VerifyReport(f"rev-bounds-n{n}")
    oracle = bfs_distances(sorted_sequence(n), "reversals")
    tight = 0
    disagreements = 0
    for a in all_signed(n):
        bound, actual = rev_lower_bound(a), oracle[a]
        tight += bound == actual
        disagreements += bound != breakpoint_bound(a)
        report.check(
            bound <= actual,
            lambda: f"bound {bound} exceeds distance {actual} at {format_signed(a)}",
        )
    report.info["states"] = len(oracle)
    report.info["tight"] = tight
    report.info["tight_rate"] = f"{tight}/{report.checked}"
    report.info["breakpoint_disagreements"] = disagreements
    return report


def suite_rev_oracle(n: int) -> VerifyReport:
    size_gate("rev-oracle", n, 7)
    parts = [check_rev_bounds_at(m) for m in range(1, n + 1)]
    merged = merge_reports(f"rev-oracle-n{n}", parts)
    merged.info.update(summed(parts, "states", "tight"))
    merged.info["tight_rate"] = f"{merged.info['tight']}/{merged.checked}"
    merged.info.update(summed(parts, "breakpoint_disagreements"))
    return merged


def suite_max_gap(n: int) -> VerifyReport:
    """Closed-form cycle gap versus brute force on every permutation up to n."""
    size_gate("max-gap", n, 6)
    report = VerifyReport(f"max-gap-n{n}")
    for m in range(1, n + 1):
        for images in itertools.permutations(range(1, m + 1)):
            alpha = Permutation.from_one_line(images)
            closed, brute = max_cycle_gap(alpha), brute_max_cycle_gap(alpha)
            report.check(
                closed == brute,
                lambda: f"gap mismatch at {images!r}: {closed} vs {brute}",
            )
    return report
