"""Sorting distances: block interchanges, transpositions, signed reversals."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from planeperm.distances import (
    GENERATORS,
    SORTED_CASES,
    Reversal,
    SearchCapExceeded,
    all_signed,
    apply_block_interchange,
    apply_reversal,
    apply_transposition,
    augmented_row,
    bfs_distance,
    bfs_distances,
    bid,
    bid_count,
    bid_sort,
    breakpoint_bound,
    breakpoint_graph,
    brute_max_cycle_gap,
    check_bid_bfs_at,
    check_bid_histogram_at,
    check_rev_bounds_at,
    check_td_bound_at,
    conjecture_scan,
    cycle_gaps,
    find_2_reversal,
    format_signed,
    greedy_reversal_sort,
    is_exact,
    max_cycle_gap,
    parse_signed,
    parse_unsigned,
    rev_lower_bound,
    sequence_plane,
    signed_plane,
    skew_seq,
    sorted_sequence,
    suite_bid_oracle,
    suite_max_gap,
    suite_rev_oracle,
    suite_td_oracle,
    td_lower_bound,
)
from planeperm.perm import Permutation, array_cycle_counts, count_cycles
from planeperm.plane import BlockInterchange

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


def test_augmented_row_and_plane():
    assert augmented_row((1, 2, 4, 3)) == (0, 1, 2, 4, 3)
    p = sequence_plane((1, 2, 4, 3))
    assert p.s == (0, 1, 2, 4, 3)
    assert p.pi == Permutation.from_cycles([(2, 3, 4)], labels=range(5))


def test_apply_moves():
    assert apply_block_interchange((3, 2, 1), (1, 1, 3, 3)) == (1, 2, 3)
    assert apply_transposition((4, 1, 2, 3), 1, 1, 4) == (1, 2, 3, 4)
    assert apply_block_interchange((1, 2, 3), BlockInterchange(1, 1, 3, 3)) == (3, 2, 1)


def test_cycle_gaps_with_chosen_gamma():
    gamma = Permutation.from_cycles([(1, 3), (2, 4)], labels=range(5))
    assert cycle_gaps((1, 2, 4, 3), gamma) == (0, 2, 2)
    with pytest.raises(ValueError):
        cycle_gaps((1, 2, 4, 3), Permutation.identity(range(4)))


def test_td_lower_bound():
    gamma = Permutation.from_cycles([(1, 3), (2, 4)], labels=range(5))
    assert td_lower_bound((1, 2, 4, 3), [gamma]) == 1
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
        current = seq
        for move in moves:
            assert sequence_plane(current).classify(move) in SORTED_CASES
            current = apply_block_interchange(current, move)
        assert current == sorted_sequence(4)


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


def test_is_exact():
    assert is_exact((-1, 2))
    assert not is_exact((2, 1))


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


def test_rev_lower_bound_values():
    assert rev_lower_bound((-1,)) == 1
    assert rev_lower_bound((1, 2, 3)) == 0
    assert rev_lower_bound((-3, 1, 2, -4)) >= 1


def test_signed_plane_fixture_rows():
    p = signed_plane((-3, 1, 2, -4))
    assert p.s == (0, -3, 1, 2, -4, 4, -2, -1, 3)
    assert p.pi(0) == -4 and p.pi(1) == 1 and p.pi(-2) == -2
    assert len(p.cycle_of(0)) == 7
    q = signed_plane((2, -4, -1, 3))
    assert q.s == (0, 2, -4, -1, 3, -3, 1, 4, -2)
    assert len(q.cycle_of(0)) == 9


def test_find_2_reversal_worked_cases():
    for a, expected in REV_CASES:
        plane = signed_plane(a)
        move = find_2_reversal(plane)
        assert move == expected, a
        before = len(plane.cycles_by_position())
        after = len(signed_plane(apply_reversal(a, move)).cycles_by_position())
        assert after == before + 2


def test_find_2_reversal_needs_a_negative():
    assert find_2_reversal(signed_plane((2, 1, 3))) is None


def test_find_2_reversal_rejects_foreign_planes():
    with pytest.raises(ValueError):
        find_2_reversal(sequence_plane((2, 1)))


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
    with_gamma = vertical.compose(gamma).cycle_counts()
    return tuple(abs(c - d) for c, d in zip(with_gamma, gamma.cycle_counts()))


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


def test_cycle_gaps_match_reference():
    for seq, _, gamma in seeded_queries():
        assert cycle_gaps(seq, gamma) == reference_cycle_gaps(seq, gamma), seq


def test_td_lower_bound_matches_reference():
    for seq, _, gamma in seeded_queries():
        assert td_lower_bound(seq) == reference_td_lower_bound(seq), seq
        assert td_lower_bound(seq, [gamma]) == reference_td_lower_bound(seq, [gamma]), seq
        assert td_lower_bound(seq, []) == 0


def test_breakpoint_bound_matches_reference():
    for _, signed, _ in seeded_queries():
        assert breakpoint_bound(signed) == reference_breakpoint_bound(signed), signed


def test_array_bounds_keep_their_errors():
    with pytest.raises(ValueError, match="not a sequence"):
        td_lower_bound((1, 2, 2))
    with pytest.raises(ValueError, match="gamma must act on 0..2"):
        td_lower_bound((2, 1), [Permutation.identity(range(5))])
    with pytest.raises(ValueError, match="magnitudes"):
        breakpoint_bound((1, -1))


# -- conjecture scans -----------------------------------------------------


def test_worked_cases_are_conjecture_instances():
    # the two length-4 cases pair a first-half entry with its mirror, so the
    # same-cycle scan at n=4 must count them among its instances
    for a in ((-3, 1, 2, -4), (2, -4, -1, 3)):
        assert is_exact(a)
        p = signed_plane(a)
        n = len(a)
        assert any(p.pi(p.s[i - 1]) == p.s[2 * n + 1 - i] for i in range(1, n + 1))
        assert p.pi.same_cycle(n, p.s[n])


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
    with pytest.raises(SearchCapExceeded):
        conjecture_scan(7, "same-cycle-exact")
    with pytest.raises(SearchCapExceeded):
        conjecture_scan(8, "same-cycle-all", allow_large=True)
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
        bfs_distances(sorted_sequence(5), "transpositions", cap=10)


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


def test_bfs_distance_stops_at_the_goal():
    goal = sorted_sequence(9)
    swapped = (2, 1, *goal[2:])
    assert bfs_distance(swapped, goal, "transpositions", cap=1000) == 1
    with pytest.raises(SearchCapExceeded):
        bfs_distances(swapped, "transpositions", cap=1000)
    with pytest.raises(ValueError, match="unreachable"):
        bfs_distance((2, 1), (1, 2, 3), "transpositions")


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
    assert suite_max_gap(4, samples=50, sample_n=5).passed


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


def test_rev_oracle_refuses_sizes_beyond_its_cap():
    with pytest.raises(SearchCapExceeded, match=r"capped at n=6 \(asked 7\)"):
        suite_rev_oracle(7)
    with pytest.raises(SearchCapExceeded, match=r"capped at n=7 \(asked 8\)"):
        suite_rev_oracle(8, allow_large=True)


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
    assert array_cycle_counts(images) == perm.cycle_counts()
    assert count_cycles(images) == perm.cycle_counts()[0]


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
    p = signed_plane(a)
    move = find_2_reversal(p)
    if move is None:
        return
    better = apply_reversal(a, move)
    assert rev_lower_bound(better) == rev_lower_bound(a) - 1
