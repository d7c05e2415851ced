"""Permutations on arbitrary labels."""

import pytest
from hypothesis import given, strategies as st

from planeperm.partitions import Partition
from planeperm.perm import (
    Permutation,
    cycle_from_sequence,
    parse_sequence,
)


def test_identity():
    e = Permutation.identity([3, 1, 2])
    assert e(1) == 1
    assert len(e.cycles()) == 3
    assert e.cycle_type().parts == (1, 1, 1)


def test_from_one_line():
    p = Permutation.from_one_line((2, 3, 1))
    assert [p(x) for x in (1, 2, 3)] == [2, 3, 1]
    assert str(p.cycles()) == "(1 2 3)"


def test_compose_is_self_after_other():
    f = Permutation.from_one_line((2, 1, 3))
    g = Permutation.from_one_line((1, 3, 2))
    fg = f.compose(g)
    # (fg)(x) = f(g(x)), so 2 -> g -> 3 -> f -> 3
    assert [fg(x) for x in (1, 2, 3)] == [2, 3, 1]
    assert [fg(x) for x in (1, 2, 3)] == [f(g(x)) for x in (1, 2, 3)]
    assert f * g == fg


def test_inverse():
    p = Permutation.from_one_line((3, 1, 4, 2))
    q = p.inverse()
    for x in (1, 2, 3, 4):
        assert q(p(x)) == x
        assert p(q(x)) == x


def test_from_cycles():
    p = Permutation.from_cycles([(1, 3), (2,)])
    assert p(1) == 3 and p(3) == 1 and p(2) == 2
    # labels can be inferred from the cycles themselves
    q = Permutation.from_cycles([(5, 7, 6)])
    assert q(5) == 7 and q(7) == 6 and q(6) == 5


def test_from_cycles_names_a_repeated_label():
    for cycles, label in (([(1, 2, 1)], 1), ([(1, 2), (2, 3)], 2)):
        with pytest.raises(ValueError, match=rf"^label {label} appears more than once$"):
            Permutation.from_cycles(cycles)
    with pytest.raises(ValueError, match=r"^label 1 appears more than once$"):
        cycle_from_sequence([1, 1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Permutation((2, 1), (1, 2)), "labels must be strictly increasing"),
        (lambda: Permutation((1, 2), (1, 3)), "images must be a rearrangement of the labels"),
        (lambda: Permutation.from_cycles([()]), "empty cycle"),
        (
            lambda: Permutation.from_cycle_type(Partition.of([2, 1]), labels=(1, 2)),
            "label count must match the partition weight",
        ),
        (
            lambda: Permutation.identity((1, 2)).compose(Permutation.identity((1, 3))),
            "permutations act on different label sets",
        ),
        (lambda: cycle_from_sequence(()), "empty sequence"),
    ],
    ids=["unsorted-labels", "images", "empty-cycle", "label-count", "compose", "empty-sequence"],
)
def test_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_from_cycle_type_default_labels():
    p = Permutation.from_cycle_type(Partition.of([3, 2]))
    assert str(p.cycles()) == "(1 2 3)(4 5)"
    assert p.cycle_type().parts == (3, 2)


def test_from_cycle_type_custom_labels():
    p = Permutation.from_cycle_type(Partition.of([2, 2]), labels=[10, 30, 20, 40])
    assert p.cycle_type().parts == (2, 2)
    assert sorted(p.labels) == [10, 20, 30, 40]


def test_cycle_counts():
    p = Permutation.from_cycles([(1, 2, 3), (4, 5), (6,)])
    total, odd, even = p.cycle_counts()
    assert (total, odd, even) == (3, 2, 1)


def test_same_cycle():
    p = Permutation.from_cycles([(1, 4, 2), (3, 5)])
    assert p.same_cycle(1, 2)
    assert p.same_cycle(3, 5)
    assert not p.same_cycle(1, 3)


def test_conjugate_keeps_type():
    p = Permutation.from_cycle_type(Partition.of([3, 1]))
    a = Permutation.from_one_line((2, 3, 4, 1))
    q = p.conjugate_by(a)
    assert q.cycle_type().parts == (3, 1)
    for x in p.labels:
        assert q(a(x)) == a(p(x))


def test_cycle_from_sequence():
    c = cycle_from_sequence((3, 1, 2))
    assert c(3) == 1 and c(1) == 2 and c(2) == 3


def test_parse_sequence():
    assert parse_sequence("3 5 1") == (3, 5, 1)
    assert parse_sequence("  3\t5 1 ") == (3, 5, 1)
    with pytest.raises(ValueError):
        parse_sequence("3 x 1")


@st.composite
def permutations(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    images = draw(st.permutations(range(1, n + 1)))
    return Permutation.from_one_line(tuple(images))


@given(permutations(), st.data())
def test_compose_inverse_roundtrip(p, data):
    q = data.draw(st.permutations(sorted(p.labels)))
    q = Permutation.from_one_line(tuple(q))
    assert (p * q) * q.inverse() == p
    assert (p * p.inverse()).cycle_type().parts == (1,) * len(p.labels)


@given(permutations())
def test_cycle_type_partitions_n(p):
    t = p.cycle_type()
    assert sum(t) == len(p.labels)
    assert sorted(t, reverse=True) == list(t)
    total, odd, even = p.cycle_counts()
    assert total == len(t) == odd + even


@given(permutations(), st.data())
def test_cycles_cover_labels(p, data):
    sparse = sorted(data.draw(st.sets(st.integers(1, 40), min_size=1, max_size=8)))
    signed = sorted(data.draw(st.sets(st.integers(-20, 20), min_size=1, max_size=8)))
    drawn = [
        Permutation(tuple(labels), tuple(data.draw(st.permutations(labels))))
        for labels in (sparse, signed)
    ]
    for q in (p, *drawn):
        cycles = q.cycles()
        seen = [x for c in cycles for x in c]
        assert sorted(seen) == sorted(q.labels)
        # canonical form: each cycle starts at its least label and follows
        # the map, and the first labels ascend
        for c in cycles:
            assert c[0] == min(c)
            assert all(q(a) == b for a, b in zip(c, c[1:] + c[:1]))
        firsts = [c[0] for c in cycles]
        assert firsts == sorted(firsts)
