"""Plane permutations: structure, moves, slice and glue.

The module-level fixture is the eight-label example threaded through the
docstrings; every derived quantity below was worked out by hand from the
two written rows.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from planeperm import plane
from planeperm.perm import Permutation
from planeperm.plane import (
    BlockInterchange,
    PlanePermutation,
    SliceResult,
    TransposeCase,
    invariant_sweep,
    swap_blocks,
)

TOP = (3, 5, 1, 4, 8, 7, 2, 6)
BOTTOM = (8, 6, 3, 5, 4, 2, 7, 1)


def fixture():
    return PlanePermutation.from_rows(TOP, BOTTOM)


def all_planes(n):
    """Every plane permutation on 1..n whose top row starts with 1."""
    labels = range(1, n + 1)
    for rest in itertools.permutations(range(2, n + 1)):
        top = (1, *rest)
        for images in itertools.permutations(labels):
            yield PlanePermutation(top, Permutation.from_one_line(images))


def transposes(n):
    for j in range(1, n - 1):
        for i in range(1, j + 1):
            for l in range(j + 1, n):
                yield BlockInterchange(i, j, j + 1, l)


def walk(p, x):
    """The ``pi``-cycle through ``x``, walked from ``x``."""
    cycle = [x]
    while (y := p.pi(cycle[-1])) != x:
        cycle.append(y)
    return tuple(cycle)


def s_min(p, labels):
    """The earliest of ``labels`` in the top row of ``p``."""
    return min(labels, key=p.s.index)


def cycle_at(p):
    """Each label's ``pi``-cycle, walked from its top-row minimum."""
    return {x: walk(p, s_min(p, walk(p, x))) for x in p.s}


def reference_slice(p, eps):
    """:meth:`PlanePermutation.slice` on the object API alone, as its reference."""
    pos = {x: t for t, x in enumerate(p.s)}
    if eps not in pos:
        raise ValueError(f"{eps} is not a label of this plane permutation")
    target = p.pi(eps)
    if pos[eps] < pos[target]:
        raise ValueError(f"{eps} is an exceedance, not an anti-exceedance")
    cycle = cycle_at(p)[eps]
    if target == cycle[0]:
        raise ValueError(f"{eps} is the trivial anti-exceedance of its cycle")
    walked = cycle[1 : cycle.index(eps) + 1]
    split_end = s_min(p, [z for z in walked if pos[z] > pos[target]])
    move = BlockInterchange(
        pos[cycle[0]] + 1, pos[target], pos[target] + 1, pos[split_end]
    )
    out = p.apply(move)
    out_at = cycle_at(out)
    fragments = sorted(
        (out_at[x] for x in (cycle[0], target, split_end)),
        key=lambda c: out.s.index(c[0]),
    )
    middle = next(c for c in fragments if target in c)
    distinguished = eps if middle[0] != target else None
    return SliceResult(out, (fragments[0], fragments[1], fragments[2]), distinguished)


def reference_glue(p, x1, x2, x3):
    """:meth:`PlanePermutation.glue` on the object API alone, as its reference."""
    pos = {x: t for t, x in enumerate(p.s)}
    for x in (x1, x2, x3):
        if x not in pos:
            raise ValueError(f"{x} is not a label of this plane permutation")
    at = cycle_at(p)
    c1, c2, c3 = (at[x] for x in (x1, x2, x3))
    if len({c1[0], c2[0], c3[0]}) != 3:
        raise ValueError("glue needs three distinct cycles")
    if not pos[x1] < pos[x2] < pos[x3]:
        raise ValueError("glue anchors must be increasing in the top-row order")
    if x1 != c1[0] or x2 != c2[0]:
        raise ValueError("first two glue anchors must be their cycles' minima")
    if pos[c3[0]] < pos[x2]:
        raise ValueError("third cycle must lie after the second anchor")
    if x3 != c3[0] and pos[c3[c3.index(x3) - 1]] < pos[x3]:
        raise ValueError(
            f"{x3} is neither its cycle's minimum nor the image of an anti-exceedance"
        )
    move = BlockInterchange(pos[x1] + 1, pos[x2], pos[x2] + 1, pos[x3])
    merged = p.apply(move)
    cycle = cycle_at(merged)[x3]
    return merged, cycle[cycle.index(x3) - 1]


def census_anchors(p):
    """Glue anchors of every marked trio of ``p``: three cycles, and either
    the last one's minimum or the image of a non-trivial anti-exceedance in it."""
    ntaes = p.ntaes()
    for trio in itertools.combinations(p.cycles_by_position(), 3):
        x1, x2, x3 = (c[0] for c in trio)
        yield x1, x2, x3
        yield from ((x1, x2, p.pi(eps)) for eps in trio[2] if eps in ntaes)


def refusal(call):
    """The text of the ``ValueError`` that ``call`` raises."""
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def all_moves(n):
    for i in range(1, n):
        for j in range(i, n):
            for k in range(j + 1, n):
                for l in range(k, n):
                    yield BlockInterchange(i, j, k, l)


# -- the worked example ---------------------------------------------------


def test_fixture_structure():
    p = fixture()
    assert p.s == TOP
    assert p.bottom_row() == BOTTOM
    assert str(p.pi.cycles()) == "(1 3 8 4 5 6)(2 7)"
    assert str(p.diagonal.cycles()) == "(1 3 4 7 6)(2)(5 8)"


def test_fixture_exceedances():
    p = fixture()
    assert p.exceedances() == (3, 5, 7)
    assert p.anti_exceedances() == (1, 4, 8, 2, 6)
    assert p.trivial_anti_exceedances() == (1, 2)
    assert p.ntaes() == (4, 8, 6)


def test_fixture_cycles_by_position():
    p = fixture()
    assert p.cycles_by_position() == ((3, 8, 4, 5, 6, 1), (7, 2))
    assert s_min(p, (2, 7)) == 7
    assert walk(p, 4) == (4, 5, 6, 1, 3, 8)


def test_fixture_slice_at_8():
    p = fixture()
    res = p.slice(8)
    assert res.plane.s == (3, 8, 5, 1, 4, 7, 2, 6)
    assert res.plane.bottom_row() == (5, 8, 6, 3, 4, 2, 7, 1)
    assert res.cycles == ((3, 5, 6, 1), (8,), (4,))
    assert res.minima == (3, 8, 4)
    assert res.distinguished is None
    assert res.glue_anchors() == (3, 8, 4)
    # the move behind the slice is a cycle-gaining transpose
    move = BlockInterchange(1, 3, 4, 4)
    assert p.classify(move) is TransposeCase.CASE_2
    assert p.apply(move) == res.plane


def test_fixture_slice_at_6():
    p = fixture()
    res = p.slice(6)
    assert res.plane.s == (3, 4, 5, 1, 8, 7, 2, 6)
    assert res.plane.bottom_row() == (3, 8, 6, 5, 4, 2, 7, 1)
    assert res.cycles == ((3,), (4, 8), (5, 6, 1))
    assert res.minima == (3, 4, 5)
    assert res.distinguished == 6
    assert res.glue_anchors() == (3, 4, 1)
    move = BlockInterchange(1, 2, 3, 3)
    assert p.classify(move) is TransposeCase.CASE_2
    assert p.apply(move) == res.plane


def test_fixture_glue_undoes_both_slices():
    p = fixture()
    for eps in (8, 6):
        res = p.slice(eps)
        back, recovered = res.plane.glue(*res.glue_anchors())
        assert back == p
        assert recovered == eps


def test_planes_from_moves_keep_their_rows(monkeypatch):
    """``apply``, ``slice`` and ``glue`` hand the rows they built to the plane
    they return, so a later ``classify`` walks no cycle map again."""
    calls = []
    real = plane._cycle_map
    monkeypatch.setattr(plane, "_cycle_map", lambda *args: calls.append(1) or real(*args))
    p = fixture()
    move = BlockInterchange(1, 3, 4, 4)
    q = p.apply(move)
    q.classify(move)
    assert len(calls) == 2
    res = p.slice(6)
    back, _ = res.plane.glue(*res.glue_anchors())
    for out in (q, res.plane, back):
        assert out._rows == PlanePermutation(out.s, out.pi)._rows


def test_fixture_slice_rejects_bad_labels():
    p = fixture()
    with pytest.raises(ValueError):
        p.slice(3)  # exceedance
    with pytest.raises(ValueError):
        p.slice(1)  # trivial anti-exceedance
    with pytest.raises(ValueError):
        p.slice(9)  # not a label


def test_fixture_glue_rejects_bad_anchors():
    p = fixture()
    q = p.slice(8).plane
    with pytest.raises(ValueError, match="increasing in the top-row order"):
        q.glue(3, 4, 8)  # anchors out of top-row order
    with pytest.raises(ValueError, match="must be their cycles' minima"):
        q.glue(8, 5, 7)  # 5 is not its cycle's minimum
    with pytest.raises(ValueError, match="2 is neither its cycle's minimum nor the image"):
        q.glue(3, 8, 2)  # 2 is neither a minimum nor an image of an NTAE
    with pytest.raises(ValueError, match="third cycle must lie after the second anchor"):
        q.glue(8, 4, 6)  # 6's cycle starts before the second anchor


def test_fixture_refusals_match_the_reference():
    p = fixture()
    for eps in (3, 1, 9):
        assert refusal(lambda: p.slice(eps)) == refusal(lambda: reference_slice(p, eps))
    q = p.slice(8).plane
    for anchors in ((3, 4, 8), (5, 8, 4), (3, 8, 2), (8, 4, 6)):
        assert refusal(lambda: q.glue(*anchors)) == refusal(lambda: reference_glue(q, *anchors))


# -- constructors and rendering ------------------------------------------


def test_from_diagonal_roundtrip():
    p = fixture()
    q = PlanePermutation.from_diagonal(TOP, p.diagonal)
    assert q == p


def test_rotate_reanchors():
    p = fixture()
    q = p.rotate(3)
    assert q.s == (4, 8, 7, 2, 6, 3, 5, 1)
    assert q.pi == p.pi
    assert p.rotate(8) == p


def test_two_row_str():
    p = PlanePermutation.from_rows((2, 1, 3), (1, 3, 2))
    assert p.two_row_str() == "2 1 3\n1 3 2"
    assert str(p) == p.two_row_str()


def test_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        PlanePermutation.from_rows((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        PlanePermutation.from_rows((1, 1), (1, 1))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: BlockInterchange(1, 1, 2, 3).validate(3),
            "(1,1,2,3) does not fit a sequence of length 3",
        ),
        (lambda: PlanePermutation((), Permutation((), ())), "top row must be non-empty"),
        (
            lambda: PlanePermutation((1, 2), Permutation.identity((1, 3))),
            "top row and bottom permutation use different labels",
        ),
        # the fixture sliced at 8 has top row 3 8 5 1 4 7 2 6 and cycles
        # (3 5 6 1)(7 2)(4)(8), each written from its first label in that row
        (lambda: fixture().slice(8).plane.glue(9, 4, 8), "9 is not a label of this plane permutation"),
        (
            lambda: fixture().slice(8).plane.glue(8, 5, 7),
            "first two glue anchors must be their cycles' minima",
        ),
    ],
    ids=["block-interchange-fit", "empty-top-row", "different-labels", "glue-label", "glue-minima"],
)
def test_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_swap_blocks():
    assert swap_blocks((0, 1, 2, 3, 4), BlockInterchange(1, 2, 3, 4)) == (0, 3, 4, 1, 2)
    assert swap_blocks((0, 1, 2, 3), BlockInterchange(1, 1, 2, 3)) == (0, 2, 3, 1)
    with pytest.raises(ValueError):
        BlockInterchange(0, 1, 2, 3)


# -- identities, exhaustively on small sizes ------------------------------


def test_exceedance_count_equals_diagonal_anti_exceedances_minus_one():
    p = fixture()
    mirror = PlanePermutation(p.s, p.diagonal)
    assert len(p.exceedances()) == len(mirror.anti_exceedances()) - 1
    for q in all_planes(4):
        mirror = PlanePermutation(q.s, q.diagonal)
        assert len(q.exceedances()) == len(mirror.anti_exceedances()) - 1


def test_cycle_sum_bound_and_parity():
    for n in (1, 2, 3, 4):
        for p in all_planes(n):
            total = len(p.pi.cycles()) + len(p.diagonal.cycles())
            assert total <= n + 1
            assert (total - (n - 1)) % 2 == 0


def test_ntae_count_formula():
    """Non-trivial anti-exceedances = n - exceedances - cycles."""
    for p in all_planes(4):
        k = len(p.cycles_by_position())
        assert len(p.ntaes()) == 4 - len(p.exceedances()) - k


def test_slice_glue_roundtrip_exhaustive():
    for n in (3, 4):
        for p in all_planes(n):
            before = len(p.cycles_by_position())
            for eps in p.ntaes():
                res = p.slice(eps)
                assert len(res.plane.cycles_by_position()) == before + 2
                assert res.plane.diagonal == p.diagonal
                back, recovered = res.plane.glue(*res.glue_anchors())
                assert (back, recovered) == (p, eps)


def test_slice_and_glue_match_the_reference_exhaustive():
    slices = glues = 0
    for n in range(1, 6):
        for p in all_planes(n):
            for eps in p.ntaes():
                assert p.slice(eps) == reference_slice(p, eps)
                slices += 1
            for anchors in census_anchors(p):
                assert p.glue(*anchors) == reference_glue(p, *anchors)
                glues += 1
    assert (slices, glues) == (2126, 2126)


def test_classify_matches_observed_cycle_delta():
    for n in (3, 4):
        for p in all_planes(n):
            before = len(p.pi.cycles())
            for move in all_moves(n):
                delta = len(p.apply(move).pi.cycles()) - before
                expected = p.classify(move).cycle_delta
                if expected is None:
                    assert delta <= 0 and delta % 2 == 0
                else:
                    assert delta == expected


def test_case2_fragments_stay_above_earlier_minima():
    """A cycle-gaining transpose never dethrones an earlier cycle: every
    cycle whose minimum preceded the split cycle's minimum still precedes
    all three fragment minima afterwards."""
    checked = 0
    for n in (4, 5):
        for p in all_planes(n):
            cut = {frozenset(c): p.s.index(c[0]) for c in p.cycles_by_position()}
            for move in transposes(n):
                if p.classify(move) is not TransposeCase.CASE_2:
                    continue
                split = frozenset(walk(p, p.s[move.j]))
                q = p.apply(move)
                fragments = [
                    c for c in q.cycles_by_position() if set(c) <= split
                ]
                assert len(fragments) == 3
                frag_pos = min(q.s.index(c[0]) for c in fragments)
                for cyc, pos in cut.items():
                    if cyc == split or pos >= cut[split]:
                        continue
                    assert q.s.index(s_min(q, cyc)) < frag_pos
                    checked += 1
    assert checked > 100


# -- randomized properties ------------------------------------------------


@st.composite
def planes(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    top = tuple(draw(st.permutations(range(1, n + 1))))
    images = tuple(draw(st.permutations(range(1, n + 1))))
    return PlanePermutation(top, Permutation.from_one_line(images))


@st.composite
def labelled_planes(draw, max_n=8):
    """Planes on sparse and negative labels, anchored at any of them."""
    labels = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=max_n, unique=True))
    top = tuple(draw(st.permutations(labels)))
    bottom = tuple(draw(st.permutations(labels)))
    return PlanePermutation.from_rows(top, bottom)


@given(planes())
def test_exceedance_count_is_rotation_invariant(p):
    counts = {len(p.rotate(r).exceedances()) for r in range(len(p))}
    assert len(counts) == 1


@given(planes())
def test_rows_partition_into_exceedances_and_anti(p):
    exc, anti = p.exceedances(), p.anti_exceedances()
    assert sorted(exc + anti) == sorted(p.s)
    trivial = p.trivial_anti_exceedances()
    assert set(trivial) <= set(anti)
    assert p.ntaes() == tuple(x for x in anti if x not in trivial)
    cycles = p.cycles_by_position()
    for x in p.s:
        walked = walk(p, x)
        (home,) = [c for c in cycles if x in c]
        assert walked in [home[t:] + home[:t] for t in range(len(home))]


@given(planes(), st.data())
@settings(max_examples=60)
def test_apply_keeps_diagonal(p, data):
    n = len(p)
    moves = list(all_moves(n))
    if not moves:
        return
    move = data.draw(st.sampled_from(moves))
    q = p.apply(move)
    assert q.s == swap_blocks(p.s, move)
    assert q.diagonal == p.diagonal


@given(planes(), st.data())
@settings(max_examples=60)
def test_random_slice_glue_roundtrip(p, data):
    ntaes = p.ntaes()
    if not ntaes:
        return
    eps = data.draw(st.sampled_from(ntaes))
    res = p.slice(eps)
    back, recovered = res.plane.glue(*res.glue_anchors())
    assert (back, recovered) == (p, eps)


@given(labelled_planes(), st.data())
@settings(max_examples=80)
def test_slice_glue_on_arbitrary_labels(p, data):
    ntaes = p.ntaes()
    if not ntaes:
        return
    eps = data.draw(st.sampled_from(ntaes))
    res = p.slice(eps)
    assert res == reference_slice(p, eps)
    back, recovered = res.plane.glue(*res.glue_anchors())
    assert (back, recovered) == (p, eps)
    assert reference_glue(res.plane, *res.glue_anchors()) == (p, eps)


@given(labelled_planes(), st.data())
@settings(max_examples=80)
def test_glue_on_arbitrary_labels_matches_the_reference(p, data):
    census = list(census_anchors(p))
    if not census:
        return
    anchors = data.draw(st.sampled_from(census))
    merged, eps = p.glue(*anchors)
    assert (merged, eps) == reference_glue(p, *anchors)
    assert merged.slice(eps).plane == p


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"n_max": -2}, "n_max"),
        ({"n_max": 0, "random_cases": -5}, "random_cases"),
        ({"n_max": 0, "random_cases": 1, "random_n": 3}, "random_n"),
        ({"n_max": 0, "random_cases": 0}, "nothing to check"),
    ],
)
def test_invariant_sweep_refuses_what_it_cannot_check(kwargs, named):
    with pytest.raises(ValueError, match=named):
        invariant_sweep(**kwargs)
