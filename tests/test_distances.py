"""Sorting distances: block interchanges, transpositions, signed reversals."""

import itertools
import math
import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from planeperm import distances
from planeperm.distances import (
    DEFAULT_BFS_CAP,
    GENERATORS,
    SORTED_CASES,
    Reversal,
    SearchCapExceeded,
    _bfs,
    _cover_row,
    _gathers,
    _vertical_images,
    all_signed,
    apply_reversal,
    augmented_row,
    bfs_distance,
    bfs_distances,
    bid,
    bid_count,
    bid_sort,
    breakpoint_bound,
    brute_max_cycle_gap,
    check_bid_bfs_at,
    check_bid_histogram_at,
    check_bid_replay_at,
    check_rev_bounds_at,
    check_td_bound_at,
    conjecture_scan,
    find_2_reversal,
    format_signed,
    greedy_reversal_sort,
    max_cycle_gap,
    parse_signed,
    parse_unsigned,
    rev_lower_bound,
    skew_seq,
    sorted_sequence,
    suite_bid_oracle,
    suite_max_gap,
    suite_rev_oracle,
    suite_td_oracle,
    td_lower_bound,
)
from planeperm.partitions import exact_div
from planeperm.perm import Permutation, array_cycle_counts, count_cycles
from planeperm.plane import BlockInterchange, PlanePermutation, swap_blocks
from planeperm.report import EnumerationLimitError

# -- object references, independent of the array kernels they check ------


def transposition_diagonal(n):
    """The descending rotation on 0..n: every label maps to its predecessor, 0 to n."""
    return Permutation.from_mapping({v: v - 1 if v else n for v in range(n + 1)})


def sequence_plane(seq):
    """The sorting plane of a sequence: the anchored row over the inverse
    descending rotation, so the vertical is the rotation composed with the row
    cycle, and the identity exactly when the sequence is sorted."""
    diag = transposition_diagonal(len(seq)).inverse()
    return PlanePermutation.from_diagonal(augmented_row(seq), diag)


def reversal_diagonal(n):
    """The rotation on 0..n and −1..−n threading both signs into one cycle."""
    images = {0: -1, -n: n}
    for v in range(1, n + 1):
        images[v] = v - 1
    for v in range(-1, -n, -1):
        images[v] = v - 1
    return Permutation.from_mapping(images)


def signed_plane(a):
    """The plane permutation of a signed permutation's double cover."""
    return PlanePermutation.from_diagonal(skew_seq(a), reversal_diagonal(len(a)).inverse())


def reference_cycle_counts(perm):
    """``(cycles, odd cycles, even cycles)`` of a Permutation, walked label
    by label through its ``__call__``."""
    seen = set()
    total = odd = 0
    for x in perm.labels:
        if x in seen:
            continue
        length = 0
        y = x
        while y not in seen:
            seen.add(y)
            y = perm(y)
            length += 1
        total += 1
        odd += length % 2
    return total, odd, total - odd


@dataclass(frozen=True)
class BreakpointGraph:
    """Doubled-label breakpoint graph of a signed permutation.

    ``b`` lists the 2n+2 endpoint labels; ``theta1`` and ``theta2`` are the
    matchings given by adjacent endpoint pairs and by consecutive values.
    """

    b: tuple
    theta1: Permutation
    theta2: Permutation

    @property
    def cycle_count(self):
        return exact_div(reference_cycle_counts(self.theta1 * self.theta2)[0], 2)


def breakpoint_graph(a):
    n = len(a)
    # 0, then −v, v for each entry, then −(n+1)
    b = [0, *itertools.chain.from_iterable((-v, v) for v in a), -(n + 1)]
    theta1 = Permutation.from_cycles([(b[2 * t], b[2 * t + 1]) for t in range(n + 1)])
    theta2 = Permutation.from_cycles([(t, -(t + 1)) for t in range(n + 1)])
    return BreakpointGraph(tuple(b), theta1, theta2)


def reference_find_2_reversal(a):
    """The 2-reversal construction read off the object plane of ``a``."""
    n = len(a)
    most_negative = min(a)
    if most_negative > 0:
        return None
    p = signed_plane(a)
    i = p.s.index(most_negative)
    if most_negative == -n:
        if not p.pi.same_cycle(n, a[-1]):
            return None
        move = Reversal(i, n)
    else:
        j = 2 * n - p.s.index(most_negative - 1)
        move = Reversal(i, j) if i - 1 < j else Reversal(j + 1, i - 1)
    case = p.classify(move.as_block_interchange(n))
    if case.cycle_delta != 2:
        raise AssertionError(f"constructed reversal {move} is {case} on {p.s!r}")
    return move


def reference_exact(a):
    """The same-cycle scan's former two-stage filter for its exact population:
    some entry is negative, and the vertical sends some row[i−1] of the
    double cover to −a_i, the mirror of row[i]."""
    n = len(a)
    if not any(v < 0 for v in a):
        return False
    packed = _cover_row(a)
    images = _vertical_images(packed)
    return any(images[packed[i - 1]] == packed[2 * n + 1 - i] for i in range(1, n + 1))


def reference_greedy_sort(a):
    """(steps, final row) of the greedy sort driven by the object reference."""
    goal = sorted_sequence(len(a))
    steps = []
    while a != goal:
        move = reference_find_2_reversal(a)
        if move is None:
            break
        a = apply_reversal(a, move)
        steps.append(move)
    return tuple(steps), a


# the three worked reversal examples: row, expected move
REV_CASES = [
    ((-3, 1, 2, -4), Reversal(4, 4)),
    ((2, -4, -1, 3), Reversal(2, 4)),
    ((-2, 1, 3), Reversal(1, 2)),
]


def test_parse_unsigned():
    assert parse_unsigned("3 2 1") == (3, 2, 1)
    with pytest.raises(ValueError):
        parse_unsigned("1 2 2")
    with pytest.raises(ValueError):
        parse_unsigned("0 1")
    with pytest.raises(ValueError, match="empty sequence"):
        parse_unsigned("")


def test_augmented_row_and_plane():
    assert augmented_row((1, 2, 4, 3)) == (0, 1, 2, 4, 3)
    p = sequence_plane((1, 2, 4, 3))
    assert p.s == (0, 1, 2, 4, 3)
    assert p.pi == Permutation.from_cycles([(0,), (1,), (2, 3, 4)])


def test_apply_moves():
    assert swap_blocks((0, 3, 2, 1), BlockInterchange(1, 1, 3, 3)) == (0, 1, 2, 3)
    # the transposition of blocks [1..1] and [2..4]
    assert swap_blocks((0, 4, 1, 2, 3), BlockInterchange(1, 1, 2, 4)) == (0, 1, 2, 3, 4)
    assert swap_blocks((0, 1, 2, 3), BlockInterchange(1, 1, 3, 3)) == (0, 3, 2, 1)


def test_td_lower_bound():
    gamma = Permutation.from_cycles([(0,), (1, 3), (2, 4)])
    assert reference_td_lower_bound((1, 2, 4, 3), [gamma]) == 1
    assert td_lower_bound((1, 2, 4, 3)) == 1
    assert td_lower_bound(sorted_sequence(5)) == 0


def test_td_lower_bound_is_sound():
    for seq in itertools.permutations(range(1, 5)):
        d = bfs_distance(seq, sorted_sequence(4), "transpositions")
        assert td_lower_bound(seq) <= d


def test_bid_values():
    assert bid((3, 2, 1)) == 1
    assert bid(sorted_sequence(4)) == 0
    dist = {}
    for seq in itertools.permutations(range(1, 4)):
        dist[seq] = bid(seq)
    assert sorted(dist.values()).count(0) == 1
    assert sorted(dist.values()).count(1) == 5


def test_bid_count_table():
    assert bid_count(3, 0) == 1
    assert bid_count(3, 1) == 5
    assert bid_count(3, -1) == 0
    assert bid_count(3, 2) == 0
    assert [bid_count(4, k) for k in (0, 1, 2)] == [1, 15, 8]
    for n in range(1, 8):
        total = sum(bid_count(n, k) for k in range(n + 1))
        assert total == len(list(itertools.permutations(range(n))))


def test_bid_sort_fixture():
    assert bid_sort((3, 2, 1)) == (BlockInterchange(1, 1, 3, 3),)
    assert bid_sort(sorted_sequence(3)) == ()


def test_bid_sort_replays_to_identity():
    for seq in itertools.permutations(range(1, 5)):
        moves = bid_sort(seq)
        assert len(moves) == bid(seq)
        row = augmented_row(seq)
        for move in moves:
            assert sequence_plane(row[1:]).classify(move) in SORTED_CASES
            row = swap_blocks(row, move)
        assert row == augmented_row(sorted_sequence(4))


def test_max_cycle_gap_matches_brute_force():
    for images in itertools.permutations(range(1, 5)):
        alpha = Permutation.from_one_line(images)
        assert max_cycle_gap(alpha) == brute_max_cycle_gap(alpha)


# -- signed permutations --------------------------------------------------


def test_parse_signed_requires_signs():
    assert parse_signed("-3 +1 +2") == (-3, 1, 2)
    assert parse_signed("+1") == (1,)
    with pytest.raises(ValueError):
        parse_signed("3 1 2")
    with pytest.raises(ValueError):
        parse_signed("")
    with pytest.raises(ValueError):
        parse_signed("+1 +1")


def test_format_signed_roundtrip():
    for a in all_signed(3):
        assert parse_signed(format_signed(a)) == a


def test_skew_seq():
    assert skew_seq((1, 2)) == (0, 1, 2, -2, -1)
    assert skew_seq((-2, 1, 3)) == (0, -2, 1, 3, -3, -1, 2)


def test_reversal_validation():
    with pytest.raises(ValueError):
        Reversal(2, 1)
    with pytest.raises(ValueError):
        Reversal(1, 4).as_block_interchange(3)
    assert str(Reversal(2, 4)) == "reversal(2,4)"
    assert Reversal(1, 2).as_block_interchange(3) == BlockInterchange(1, 2, 5, 6)


def test_apply_reversal():
    assert apply_reversal((3, -2, 1), Reversal(1, 3)) == (-1, 2, -3)
    assert apply_reversal((1, 2, 3), Reversal(2, 2)) == (1, -2, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: apply_reversal((1, 2), Reversal(1, 3)), "reversal(1,3) out of range for (1, 2)"),
        (lambda: bfs_distances((1, 2), "swaps"), "unknown generator family 'swaps'"),
        (lambda: bfs_distance((1, 2), (2, 1), "swaps"), "unknown generator family 'swaps'"),
    ],
    ids=["apply_reversal", "bfs_distances", "bfs_distance"],
)
def test_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_rev_lower_bound_values():
    assert rev_lower_bound((-1,)) == 1
    assert rev_lower_bound((1, 2, 3)) == 0
    assert rev_lower_bound((-3, 1, 2, -4)) >= 1


def cycle_length(p, x):
    (cycle,) = [c for c in p.cycles_by_position() if x in c]
    return len(cycle)


def test_signed_plane_fixture_rows():
    p = signed_plane((-3, 1, 2, -4))
    assert p.s == (0, -3, 1, 2, -4, 4, -2, -1, 3)
    assert p.pi(0) == -4 and p.pi(1) == 1 and p.pi(-2) == -2
    assert cycle_length(p, 0) == 7
    q = signed_plane((2, -4, -1, 3))
    assert q.s == (0, 2, -4, -1, 3, -3, 1, 4, -2)
    assert cycle_length(q, 0) == 9


def test_find_2_reversal_worked_cases():
    for a, expected in REV_CASES:
        plane = signed_plane(a)
        move = find_2_reversal(a)
        assert move == expected, a
        before = len(plane.cycles_by_position())
        after = len(signed_plane(apply_reversal(a, move)).cycles_by_position())
        assert after == before + 2


def test_find_2_reversal_needs_a_negative():
    assert find_2_reversal((2, 1, 3)) is None


def test_find_2_reversal_rejects_bad_input():
    for bad in ((), (1, 3), (2, 2)):
        with pytest.raises(ValueError):
            find_2_reversal(bad)


def test_find_2_reversal_matches_the_object_reference():
    checked = 0
    for n in range(1, 6):
        for a in all_signed(n):
            assert find_2_reversal(a) == reference_find_2_reversal(a), a
            checked += 1
    assert checked == 4282
    # Seeded large rows reach both branches of the reference: m = −n, whose
    # partner is the frame n + 1, and m > −n, whose partner is an entry.
    rng = random.Random(29)
    frames = 0
    for n in (100, 300):
        for _ in range(20):
            a = tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), n))
            assert find_2_reversal(a) == reference_find_2_reversal(a), a
            frames += min(a) == -n
    assert 0 < frames < 40


def test_n_and_the_last_entry_share_an_odd_vertical_cycle():
    # the same-cycle property, so the m = −n branch of the construction always
    # yields a move, and find_2_reversal fails exactly on all-positive rows
    checked = 0
    for n in range(1, 6):
        for a in all_signed(n):
            pi = signed_plane(a).pi
            cycle = [n]
            while (y := pi(cycle[-1])) != n:
                cycle.append(y)
            assert a[-1] in cycle, a
            assert len(cycle) % 2 == 1, a
            assert (find_2_reversal(a) is None) == (min(a) > 0), a
            checked += 1
    assert checked == 4282


def test_greedy_sort_stops_only_on_all_positive_rows():
    rng = random.Random(23)
    stuck = 0
    for n in (10, 30, 100):
        for _ in range(20):
            a = tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), n))
            res = greedy_reversal_sort(a)
            if not res.sorted:
                assert min(res.final) > 0, a
                stuck += 1
    assert stuck > 0


def test_greedy_sort_matches_the_reference_sort():
    for n in range(1, 6):
        for a in all_signed(n):
            res = greedy_reversal_sort(a)
            assert (res.steps, res.final) == reference_greedy_sort(a), a


def test_greedy_sort_validates_its_input_once(monkeypatch):
    calls = []
    check = distances.check_signed

    def counted(a):
        calls.append(a)
        return check(a)

    monkeypatch.setattr(distances, "check_signed", counted)
    rng = random.Random(5)
    a = tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, 101), 100))
    res = greedy_reversal_sort(a)
    assert len(res.steps) > 10
    assert len(calls) == 1


def test_greedy_reversal_sort():
    res = greedy_reversal_sort((-1,))
    assert res.sorted
    assert res.steps == (Reversal(1, 1),)
    stuck = greedy_reversal_sort((2, 1))
    assert not stuck.sorted
    assert stuck.steps == ()
    assert stuck.final == (2, 1)


def test_greedy_sort_matches_bound_when_it_finishes():
    for a in all_signed(3):
        res = greedy_reversal_sort(a)
        if res.sorted:
            assert len(res.steps) == rev_lower_bound(a)


def test_rev_lower_bound_is_sound():
    goal = sorted_sequence(3)
    for a in all_signed(3):
        d = bfs_distance(a, goal, "reversals")
        assert rev_lower_bound(a) <= d
        assert breakpoint_bound(a) <= d


def test_breakpoint_graph_smallest_case():
    graph = breakpoint_graph((-1,))
    assert graph.b == (0, 1, -1, -2)
    assert graph.cycle_count == 1
    assert breakpoint_bound((-1,)) == 1
    assert breakpoint_bound((1,)) == 0


def test_rev_oracle_reports_breakpoint_agreement():
    rep = check_rev_bounds_at(3)
    assert rep.passed
    assert rep.info["breakpoint_disagreements"] == 0
    assert rep.info["states"] == 48


# -- array bounds against the Permutation reference -----------------------


def reference_cycle_gaps(seq, gamma):
    # The vertical of the sorting plane, composed with γ as objects.
    vertical = sequence_plane(seq).pi
    with_gamma = reference_cycle_counts(vertical.compose(gamma))
    return tuple(abs(c - d) for c, d in zip(with_gamma, reference_cycle_counts(gamma)))


def reference_td_lower_bound(seq, gammas=None):
    if gammas is None:
        vertical = sequence_plane(seq).pi
        gammas = (vertical.inverse(), Permutation.identity(vertical.labels))
    return max(((max(reference_cycle_gaps(seq, g)) + 1) // 2 for g in gammas), default=0)


def reference_breakpoint_bound(a):
    return len(a) + 1 - breakpoint_graph(a).cycle_count


def seeded_queries():
    """Seeded (sequence, signed row, γ on 0..n) triples: two at each n = 1..60,
    one at n = 300 and one at n = 1000."""
    rng = random.Random(20150226)
    for n in [*range(1, 61), *range(1, 61), 300, 1000]:
        seq = tuple(rng.sample(range(1, n + 1), n))
        signed = tuple(v * rng.choice((1, -1)) for v in seq)
        gamma = Permutation(tuple(range(n + 1)), tuple(rng.sample(range(n + 1), n + 1)))
        yield seq, signed, gamma


def test_td_lower_bound_matches_reference():
    for seq, _, _ in seeded_queries():
        assert td_lower_bound(seq) == reference_td_lower_bound(seq), seq


def test_no_gamma_beats_the_odd_cycle_bound():
    # The paper's family of bounds, maximised over every γ on 0..n, recovers
    # the odd-cycle bound and nothing stronger, for each of the 153 sequences
    # with n <= 5.
    checked = 0
    for n in range(1, 6):
        labels = tuple(range(n + 1))
        gammas = [Permutation(labels, images) for images in itertools.permutations(labels)]
        for seq in itertools.permutations(range(1, n + 1)):
            assert reference_td_lower_bound(seq, gammas) == td_lower_bound(seq), seq
            checked += 1
    assert checked == 153


def test_breakpoint_bound_matches_reference():
    for _, signed, _ in seeded_queries():
        assert breakpoint_bound(signed) == reference_breakpoint_bound(signed), signed


def test_signed_vertical_matches_the_object_vertical():
    for _, signed, _ in seeded_queries():
        n = len(signed)
        vertical = signed_plane(signed).pi

        def pk(v):
            return v % (2 * n + 1)

        packed = _cover_row(signed)
        images = _vertical_images(packed)
        assert packed == [pk(v) for v in skew_seq(signed)], signed
        assert all(images[pk(x)] == pk(vertical(x)) for x in vertical.labels), signed
        total = reference_cycle_counts(vertical)[0]
        assert rev_lower_bound(signed) == (2 * n + 1 - total) // 2, signed


def test_rev_lower_bound_is_the_block_interchange_half_gap_of_the_cover():
    # The packed cover is a sequence on 1..2n behind the anchor 0, so bid
    # validates it; its half-gap is the reversal bound.
    checked = 0
    for n in range(1, 6):
        for a in all_signed(n):
            assert rev_lower_bound(a) == bid(tuple(_cover_row(a)[1:])), a
            checked += 1
    assert checked == 4282
    for _, signed, _ in seeded_queries():
        if len(signed) in (300, 1000):
            assert rev_lower_bound(signed) == bid(tuple(_cover_row(signed)[1:])), signed
            checked += 1
    assert checked == 4284


def test_array_bounds_keep_their_errors():
    with pytest.raises(ValueError, match="not a sequence"):
        td_lower_bound((1, 2, 2))
    with pytest.raises(ValueError, match="magnitudes"):
        breakpoint_bound((1, -1))
    with pytest.raises(ValueError, match="empty sequence"):
        bid(())
    for bound in (rev_lower_bound, breakpoint_bound):
        with pytest.raises(ValueError, match="empty signed permutation"):
            bound(())


# -- conjecture scans -----------------------------------------------------


def test_worked_cases_are_conjecture_instances():
    # the two length-4 cases pair a first-half entry with its mirror, so the
    # same-cycle scan at n=4 must count them among its instances
    for a in ((-3, 1, 2, -4), (2, -4, -1, 3)):
        assert -len(a) in a
        p = signed_plane(a)
        n = len(a)
        assert any(p.pi(p.s[i - 1]) == p.s[2 * n + 1 - i] for i in range(1, n + 1))
        assert p.pi.same_cycle(n, p.s[n])


def test_exact_population_is_the_rows_that_negate_n():
    # the mirror test π(row[i−1]) = −a_i reads a_i = D(−a_i), which holds
    # exactly at a_i = −n
    for n in range(1, 7):
        for a in all_signed(n):
            assert reference_exact(a) == (-n in a), a


def test_exact_population_is_half_of_every_size():
    for n in range(1, 7):
        rep = conjecture_scan(n, "same-cycle-exact")
        assert rep.info == {
            "instances": 2 ** (n - 1) * math.factorial(n),
            "scanned": 2**n * math.factorial(n),
        }


def test_conjecture_scan_smallest():
    rep = conjecture_scan(1, "same-cycle-exact")
    assert rep.passed
    assert rep.info == {"instances": 1, "scanned": 2}


def test_conjecture_scan_small():
    for which in ("same-cycle-exact", "same-cycle-all"):
        rep = conjecture_scan(3, which)
        assert rep.passed
        assert rep.info["scanned"] == 48


def test_conjecture_scan_caps():
    for which in ("same-cycle-exact", "same-cycle-all"):
        with pytest.raises(EnumerationLimitError, match=r"capped at n=7 \(asked 8\)"):
            conjecture_scan(8, which)
    with pytest.raises(ValueError):
        conjecture_scan(2, "same-cycle-sometimes")


# -- breadth-first search -------------------------------------------------


def test_bfs_distances():
    assert bfs_distance((2, 1), (1, 2), "transpositions") == 1
    assert bfs_distance((3, 2, 1), (1, 2, 3), "block_interchanges") == 1
    assert bfs_distance((-1,), (1,), "reversals") == 1
    table = bfs_distances((1, 2, 3), "transpositions")
    assert table[(1, 2, 3)] == 0
    assert len(table) == 6


def test_bfs_cap():
    with pytest.raises(SearchCapExceeded):
        bfs_distance((5, 4, 3, 2, 1), sorted_sequence(5), "transpositions", cap=10)


@pytest.mark.parametrize(
    "kind, states",
    [
        ("transpositions", list(itertools.permutations(range(1, 5)))),
        ("block_interchanges", list(itertools.permutations(range(1, 5)))),
        ("reversals", list(all_signed(3))),
    ],
)
def test_bfs_distance_matches_the_full_search(kind, states):
    for start in states:
        table = bfs_distances(start, kind)
        assert len(table) == len(states)
        for goal in states:
            assert bfs_distance(start, goal, kind) == table[goal]


def reference_bfs(start, kind, cap, goal=None):
    """:func:`distances._bfs` with each neighbour built by ``GENERATORS``:
    the same visit order, goal check and cap check, as its reference."""
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


def states_of(kind, n):
    if kind == "reversals":
        return list(all_signed(n))
    return list(itertools.permutations(range(1, n + 1)))


def search_outcome(search, *args):
    try:
        return list(search(*args).items())
    except SearchCapExceeded as err:
        return str(err)


@pytest.mark.parametrize(
    "kind, small, oracle_n",
    [("transpositions", 4, 7), ("block_interchanges", 4, 6), ("reversals", 3, 5)],
)
def test_gathered_bfs_matches_the_reference(kind, small, oracle_n):
    """Every start up to ``small``, and the sorted start at the size the
    oracle benchmark searches."""
    starts = [s for n in range(1, small + 1) for s in states_of(kind, n)]
    for start in starts + [sorted_sequence(oracle_n)]:
        got = list(_bfs(start, kind, DEFAULT_BFS_CAP).items())
        assert got == list(reference_bfs(start, kind, DEFAULT_BFS_CAP).items())


@pytest.mark.parametrize(
    "kind, start, goal",
    [
        ("transpositions", (4, 3, 2, 1), (1, 2, 3, 4)),
        ("transpositions", (2, 1, 4, 3), (1, 2, 3, 4)),
        ("transpositions", (1, 2, 3, 4), None),
        ("block_interchanges", (4, 3, 2, 1), (1, 2, 3, 4)),
        ("block_interchanges", (3, 1, 4, 2), (2, 4, 1, 3)),
        ("block_interchanges", (1, 2, 3, 4), None),
        ("reversals", (-3, -2, -1), (1, 2, 3)),
        ("reversals", (2, -3, 1), (-1, 3, -2)),
        ("reversals", (1, 2, 3), None),
    ],
)
def test_gathered_bfs_keeps_the_cap_semantics(kind, start, goal):
    n_states = len(states_of(kind, len(start)))
    for cap in range(1, n_states + 1):
        got = search_outcome(_bfs, start, kind, cap, goal)
        assert got == search_outcome(reference_bfs, start, kind, cap, goal)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_gathers_match_their_generators(kind):
    for n in range(1, 5 if kind == "reversals" else 6):
        gathers = _gathers(kind, n)
        for state in states_of(kind, n):
            source = (*state, *(-v for v in state)) if kind == "reversals" else state
            got = [gather(source) for gather in gathers]
            assert got == list(GENERATORS[kind](state))


def test_bfs_distance_stops_at_the_goal():
    goal = sorted_sequence(9)
    swapped = (2, 1, *goal[2:])
    assert bfs_distance(swapped, goal, "transpositions", cap=1000) == 1
    with pytest.raises(SearchCapExceeded):
        bfs_distance(tuple(reversed(goal)), goal, "transpositions", cap=1000)
    with pytest.raises(ValueError, match="unreachable"):
        bfs_distance((2, 1), (1, 2, 3), "transpositions")


def test_bfs_distance_refuses_other_entries_without_searching(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(distances, "_bfs", no_search)
    for start, goal, kind in (
        (tuple(range(1, 10)), (1, 2, 3), "transpositions"),
        ((2, 1), (1, 3), "block_interchanges"),
        ((-2, 1), (1, 2, 3), "reversals"),
        ((-1, *range(2, 8)), tuple(range(1, 8)), "transpositions"),
        ((-1, *range(2, 8)), tuple(range(1, 8)), "block_interchanges"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(goal))} is unreachable from"):
            bfs_distance(start, goal, kind)


def test_generator_kinds():
    assert set(GENERATORS) == {"transpositions", "block_interchanges", "reversals"}


def test_all_signed_census():
    rows = list(all_signed(2))
    assert len(rows) == 8
    assert len(set(rows)) == 8


# -- bundled oracle suites on small sizes ---------------------------------


def test_small_suites_pass():
    assert suite_bid_oracle(4).passed
    assert suite_td_oracle(4).passed
    assert suite_max_gap(4).passed


def test_merged_oracle_info_covers_every_part():
    sizes = range(1, 5)
    bid_rep = suite_bid_oracle(4)
    assert bid_rep.info["states"] == sum(check_bid_bfs_at(m).info["states"] for m in sizes)
    for m in sizes:
        assert bid_rep.info[f"histogram_n{m}"] == check_bid_histogram_at(m).info["histogram"]
    td_rep = suite_td_oracle(4)
    assert td_rep.info == {"tight": sum(check_td_bound_at(m).info["tight"] for m in sizes)}
    rev_parts = [check_rev_bounds_at(m) for m in sizes]
    tight = sum(part.info["tight"] for part in rev_parts)
    assert suite_rev_oracle(4).info == {
        "states": sum(part.info["states"] for part in rev_parts),
        "tight": tight,
        "tight_rate": f"{tight}/{sum(part.checked for part in rev_parts)}",
        "breakpoint_disagreements": 0,
    }


def test_bid_replay_reports_a_sorter_that_breaks_down(monkeypatch):
    real = distances.bid
    monkeypatch.setattr(distances, "bid", lambda seq: real(seq) + 1)
    rep = check_bid_replay_at(4)
    assert not rep.passed
    assert rep.checked == 24
    assert rep.failures[0] == (
        "scenario for (1, 2, 3, 4) broke down: sorter used 0 moves, expected 1"
    )


def test_rev_oracle_refuses_sizes_beyond_its_cap():
    with pytest.raises(EnumerationLimitError, match=r"capped at n=7 \(asked 8\)"):
        suite_rev_oracle(8)


# -- randomized properties ------------------------------------------------


@st.composite
def signed_rows(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    magnitudes = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(m * s for m, s in zip(magnitudes, signs))


@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))))
@settings(max_examples=200)
def test_cycle_kernels_match_permutation(images):
    perm = Permutation(tuple(range(len(images))), tuple(images))
    assert array_cycle_counts(images) == reference_cycle_counts(perm)
    assert perm.cycle_counts() == reference_cycle_counts(perm)
    assert count_cycles(images) == reference_cycle_counts(perm)[0]


@given(signed_rows(), st.data())
@settings(max_examples=80)
def test_reversal_agrees_with_double_cover_move(a, data):
    n = len(a)
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(i, n))
    move = Reversal(i, j)
    direct = skew_seq(apply_reversal(a, move))
    from planeperm.plane import swap_blocks

    doubled = swap_blocks(skew_seq(a), move.as_block_interchange(n))
    assert direct == doubled


@given(signed_rows())
@settings(max_examples=80)
def test_signed_plane_is_skew_symmetric(a):
    p = signed_plane(a)
    size = 2 * len(a) + 1
    assert p.s[0] == 0
    assert all(p.s[k] == -p.s[size - k] for k in range(1, size))


@given(signed_rows(max_n=5))
@settings(max_examples=50)
def test_found_reversal_always_gains_two_cycles(a):
    move = find_2_reversal(a)
    if move is None:
        return
    better = apply_reversal(a, move)
    assert rev_lower_bound(better) == rev_lower_bound(a) - 1
