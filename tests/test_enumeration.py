"""Counting planes over a fixed diagonal, and the identities the counts obey."""

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from planeperm import enumeration
from planeperm.distances import conjecture_scan
from planeperm.enumeration import (
    W_count,
    enumerate_U_D,
    exceedance_totals,
    p1_routes,
    suite_bijection,
    suite_cycle_recurrence,
    suite_exceedance,
    suite_f_recurrence,
    suite_ntae_identity,
    suite_p1,
    suite_trisection,
    suite_w_identities,
    suite_zagier_stanley,
    tabulate,
    verify_bijection,
    verify_cycle_recurrence,
    verify_f_recurrence,
    verify_ntae_identity,
    verify_stirling_recurrence,
    verify_trisection,
    xi,
    xi_brute_all,
    zagier_stanley_check,
)
from planeperm.partitions import Partition, binomial, partitions_of, q_lambda, stirling_first
from planeperm.perm import Permutation
from planeperm.plane import PlanePermutation, _rows_of
from planeperm.report import EnumerationLimitError

P = Partition.of


def test_enumerate_U_D_census():
    diag = Permutation.from_cycles([(1, 2), (3,)])
    planes = list(enumerate_U_D(diag))
    assert len(planes) == 2
    assert all(p.s[0] == 1 for p in planes)
    assert all(p.diagonal == diag for p in planes)
    assert len({p.s for p in planes}) == 2


def test_enumerate_U_D_limit():
    diag = Permutation.identity(range(1, 13))
    with pytest.raises(EnumerationLimitError):
        list(enumerate_U_D(diag))
    with pytest.raises(EnumerationLimitError, match=r"capped at n=10 \(asked 11\)"):
        enumerate_U_D(Permutation.identity(range(1, 12)))  # refused before iteration


def test_tabulate_smallest_cases():
    table = tabulate(3, P([3]))
    assert table.counts == {(0, (1, 1, 1)): 1, (1, (3,)): 1}
    assert table.f(P([1, 1, 1])) == 1
    assert table.f_a(P([3]), 1) == 1
    assert table.f_a(P([3]), 0) == 0
    assert table.p_k(3) == 1
    assert table.p_a_k(1, 1) == 1
    assert table.total() == 2


def test_tabulate_two_two():
    table = tabulate(4, P([2, 2]))
    assert {k: table.p_k(k) for k in (1, 2, 3, 4)} == {1: 2, 2: 0, 3: 4, 4: 0}
    assert table.total() == 6


def test_tabulate_total_is_factorial():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert tabulate(n, lam).total() == math.factorial(n - 1)


def test_tabulate_parity_filter():
    """Counts vanish unless cycle count and diagonal length agree mod 2."""
    for n in (4, 5):
        for lam in partitions_of(n):
            table = tabulate(n, lam)
            for (_, eta_parts), count in table.counts.items():
                assert (len(eta_parts) + len(lam) - (n - 1)) % 2 == 0 or count == 0


def test_tabulate_is_representative_independent():
    lam = P([2, 1, 1])
    table = tabulate(4, lam)
    alpha = Permutation.from_one_line((3, 1, 4, 2))
    moved = Permutation.from_cycle_type(lam).conjugate_by(alpha)
    census = Counter()
    for p in enumerate_U_D(moved):
        census[(len(p.exceedances()), p.pi.cycle_type().parts)] += 1
    assert dict(census) == {k: v for k, v in table.counts.items() if v}


def test_tabulate_rejects_bad_input():
    with pytest.raises(ValueError):
        tabulate(4, P([3]))
    with pytest.raises(EnumerationLimitError, match=r"capped at n=10 \(asked 11\)"):
        tabulate(11, P([11]))


def test_xi_values():
    assert xi(3, 1) == 1
    assert xi(3, 2) == 0
    assert xi(3, 3) == 1
    assert [xi(4, k) for k in range(5)] == [0, 0, 5, 0, 1]


def test_xi_matches_brute_force():
    for n in range(1, 7):
        brute = xi_brute_all(n)
        for k in range(n + 2):
            assert brute.get(k, 0) == xi(n, k), (n, k)


def test_zagier_stanley_check():
    for n in range(1, 6):
        assert zagier_stanley_check(n).passed


def test_stirling_recurrence():
    assert verify_stirling_recurrence(12).passed


def test_exceedance_totals():
    direct, via_stirling = exceedance_totals(3, 1)
    assert direct == via_stirling == 3
    for n in range(1, 7):
        for k in range(1, n + 1):
            direct, via_stirling = exceedance_totals(n, k)
            assert direct == via_stirling
            assert via_stirling == binomial(n, 2) * stirling_first(n - 1, k)


def test_exceedance_suite_fails_under_optimize():
    # Force the two closed forms apart (every binomial reads 0) and run with
    # ``python -O``, which strips ``assert`` statements: the check must stay.
    script = (
        "import planeperm.enumeration as e\n"
        "assert False, 'assert statements are live'\n"
        "e.binomial = lambda n, k: 0\n"
        "rep = e.suite_exceedance(3)\n"
        "print(rep.passed, rep.failures[0])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False exceedance n=2: m=2 k=1: exceedances 1, closed forms 1 and 0\n"


def test_exceedance_suite_reports_disagreeing_closed_forms(monkeypatch):
    checked = suite_exceedance(3).checked
    real = enumeration.stirling_first
    monkeypatch.setattr(enumeration, "stirling_first", lambda n, k: real(n, k) + 1)
    rep = suite_exceedance(3)
    assert not rep.passed
    assert rep.checked == checked
    assert "exceedance n=2: m=2 k=2: exceedances 0, closed forms 0 and 1" in rep.failures


def test_ntae_identity():
    assert verify_ntae_identity(4, P([2, 2]), 1).passed
    assert verify_ntae_identity(5, P([3, 1, 1]), 2).passed
    with pytest.raises(ValueError):
        verify_ntae_identity(4, P([2, 2]), 0)


def test_f_recurrence():
    assert verify_f_recurrence(4, P([2, 1, 1]), P([4])).passed
    assert verify_f_recurrence(5, P([2, 2, 1]), P([4, 1])).passed
    with pytest.raises(ValueError):
        verify_f_recurrence(2, P([1, 1]), P([1, 1]))


def test_cycle_recurrence():
    assert verify_cycle_recurrence(4, P([2, 2]), 1).passed
    with pytest.raises(ValueError):
        verify_cycle_recurrence(3, P([1, 1, 1]), 1)


def test_p1_routes():
    routes = p1_routes(4, P([2, 2]))
    assert routes == {"alternating": 2, "product": 2, "enumerated": 2}
    # a part of size five admits no product form, the other routes remain
    tall = p1_routes(6, P([5, 1]))
    assert set(tall) == {"alternating", "enumerated"}
    assert len(set(tall.values())) == 1


def test_p1_routes_refuse_above_the_tabulate_gate():
    with pytest.raises(EnumerationLimitError, match=r"tabulate capped at n=10 \(asked 11\)"):
        p1_routes(11, P([11]))


def p1_values(n, lam):
    """The set of values over every route of ``p1_routes``; one value when
    the routes agree."""
    return set(p1_routes(n, lam).values())


def test_p1_closed_form_values():
    assert p1_values(4, P([2, 2])) == {2}
    assert p1_values(3, P([3])) == {1}
    assert p1_values(2, P([2])) == {0}
    assert p1_values(4, P([4])) == {0}
    assert p1_values(5, P([2, 2, 1])) == {8}
    for n in range(1, 7):
        assert p1_values(n, P([1] * n)) == {math.factorial(n - 1)}


def reference_p1_alternating(n, lam):
    """The alternating sum by search: over every partition of every ``i < n``,
    read as multiplicities ``r``, a part ``j`` contributes
    ``binom(a_j, r_j)`` with ``a_j`` its multiplicity in ``lam``, except
    ``j == 1``, whose upper argument ``a_1 - 1`` may be ``-1``."""

    def binom(m, r):
        # (m choose r) for any integer m, so (-1 choose r) = (-1)^r
        num = 1
        for t in range(r):
            num *= m - t
        return num // math.factorial(r)

    mult = lam.multiplicities()
    total = 0
    for i in range(n):
        inner = 0
        for mu in partitions_of(i):
            term = 1
            sign = 0
            for j, rj in mu.multiplicities().items():
                term *= binom(mult.get(j, 0) - (1 if j == 1 else 0), rj)
                if j % 2 == 0:
                    sign += rj
            inner += -term if sign % 2 else term
        total += math.factorial(i) * math.factorial(n - 1 - i) * inner
    quotient, remainder = divmod(total, n)
    assert remainder == 0, (n, lam)
    return quotient


def test_p1_alternating_matches_the_reference_sum():
    shapes = 0
    for n in range(1, 15):
        for lam in partitions_of(n):
            assert enumeration._p1_alternating(n, lam) == reference_p1_alternating(n, lam), lam
            shapes += 1
    assert shapes == 507


def test_p1_parity_zero():
    # odd gap between n and the diagonal length forces an empty count
    assert p1_values(5, P([2, 1, 1, 1])) == {0}
    assert p1_values(6, P([3, 2, 1])) == {0}


def test_w_count():
    assert W_count(P([3]), P([3]), P([3])) == 1
    assert W_count(P([2, 1]), P([1, 1, 1]), P([2, 1])) == W_count(
        P([2, 1]), P([2, 1]), P([1, 1, 1])
    )
    # the identity label row pins both others to be equal
    assert W_count(P([2, 1]), P([1, 1, 1]), P([1, 1, 1])) == 0


def test_w_count_sums_to_xi():
    for n in (3, 4):
        lam = P([n])
        for k in range(1, n + 1):
            total = sum(
                W_count(lam, lam, eta) for eta in partitions_of(n) if len(eta) == k
            )
            assert total == xi(n, k), (n, k)


def test_bijection_identity_diagonal_is_empty():
    rep = verify_bijection(Permutation.identity(range(1, 6)))
    assert rep.passed
    assert rep.info["y1"] == rep.info["y2"] == rep.info["y3"] == 0


def test_bijection_single_diagonal():
    rep = verify_bijection(Permutation.from_cycle_type(P([3, 2])))
    assert rep.passed
    assert rep.info["y1"] == rep.info["y2"] + rep.info["y3"]


def test_bijection_direct_call_is_bounded_by_the_plane_census():
    with pytest.raises(EnumerationLimitError, match=r"^enumerate_U_D capped at n=10 \(asked 11\)$"):
        verify_bijection(Permutation.from_cycle_type(P([11])))


def test_bijection_one_diagonal_beyond_the_suite_gate():
    # suite_bijection stops at 7; one diagonal of 8 labels is 7! planes.
    rep = verify_bijection(Permutation.from_cycle_type(P([8])))
    assert (rep.passed, rep.checked) == (True, 43491)
    assert rep.info == {"planes": 5040, "y1": 10872, "y2": 10052, "y3": 820}


# A full-cycle diagonal on 5 labels: 26 slices, 25 plain and 1 marked trio.
FULL_CYCLE_5 = Permutation.from_cycle_type(P([5]))


def rotated(glue):
    """The glue kernel with its merged row rotated one place."""

    def rotated_glue(p, *anchors):
        merged, eps = glue(p, *anchors)
        return _rows_of(merged.s[1:] + merged.s[:1], merged.pi), eps

    return rotated_glue


def test_bijection_reports_broken_round_trips(monkeypatch):
    monkeypatch.setattr(enumeration, "_glue", rotated(enumeration._glue))
    rep = verify_bijection(FULL_CYCLE_5)
    assert (rep.checked, rep.failure_count) == (106, 52)
    assert any("slice/glue round trip" in m for m in rep.failures)
    assert any("glue/slice round trip" in m for m in rep.failures)


def test_bijection_reports_lost_marks(monkeypatch):
    cut = enumeration._slice

    def unmarked_slice(p, eps):
        out, cycles, _ = cut(p, eps)
        return out, cycles, None

    monkeypatch.setattr(enumeration, "_slice", unmarked_slice)
    rep = verify_bijection(FULL_CYCLE_5)
    assert (rep.checked, rep.failure_count) == (105, 3)
    assert any(m.startswith("slice collision") for m in rep.failures)
    assert any(
        m.startswith(("census key never produced by a slice", "slice key missing from the census"))
        for m in rep.failures
    )


# The diagonal (1 3 2)(4 5) on sparse and negative labels; no label is 1.
RELABELLED = Permutation.from_cycles([(-7, 30, 2), (11, 4)])


def test_bijection_keeps_the_diagonal_labels():
    plain = verify_bijection(Permutation.from_cycles([(1, 3, 2), (4, 5)]))
    rep = verify_bijection(RELABELLED)
    assert (rep.passed, rep.checked, rep.info) == (plain.passed, plain.checked, plain.info)
    assert rep.checked == 97
    assert rep.info == {"planes": 24, "y1": 24, "y2": 24, "y3": 0}


def test_bijection_failure_names_the_diagonal_labels(monkeypatch):
    monkeypatch.setattr(enumeration, "_glue", rotated(enumeration._glue))
    rep = verify_bijection(RELABELLED)
    assert (rep.checked, rep.failure_count) == (97, 48)
    assert rep.failures[0] == (
        "slice/glue round trip broke at ((-7, 4, 11, 30, 2), (-7, 30, 2), None)"
    )
    assert rep.failures[-1] == (
        "glue/slice round trip broke at ((-7, 30, 11, 4, 2), (30, 11, 2), None)"
    )


def test_bijection_builds_no_plane_objects(monkeypatch):
    def refuse(self):
        raise AssertionError(f"verify_bijection built the plane {self.s}")

    monkeypatch.setattr(PlanePermutation, "__post_init__", refuse)
    assert suite_bijection(4).passed


def test_bijection_census_matches_closed_forms():
    """Y-counts for all diagonals up to n=4 against direct formulas: the
    marked planes come from the exceedance census, the marked triples from
    choosing three cycles."""
    rep = suite_bijection(4)
    assert rep.passed
    assert rep.info["diagonals"] == 33
    y1 = y2 = 0
    for m in range(1, 5):
        per_top = math.factorial(m - 1)
        y1 += per_top * (
            m * math.factorial(m)
            - math.factorial(m) * (m - 1) // 2
            - sum(k * stirling_first(m, k) for k in range(1, m + 1))
        )
        y2 += per_top * sum(
            binomial(k, 3) * stirling_first(m, k) for k in range(1, m + 1)
        )
    assert rep.info["y1"] == y1 == 62
    assert rep.info["y2"] == y2 == 62
    assert rep.info["y3"] == y1 - y2 == 0


def test_trisection_hand_case():
    diag = Permutation.from_cycles([(1, 2), (3, 4)])
    rep = verify_trisection(diag)
    assert rep.passed
    # object-level recount of the same facts
    for p in enumerate_U_D(diag):
        cycles = len(p.cycles_by_position())
        assert len(p.anti_exceedances()) == 3
        genus2 = 3 - cycles
        assert genus2 >= 0 and genus2 % 2 == 0
        assert len(p.ntaes()) == genus2


def test_trisection_sparse_labels():
    diag = Permutation.from_cycles([(1, 3), (2, 5)])
    assert verify_trisection(diag).passed


def test_trisection_rejects_non_involutions():
    with pytest.raises(ValueError):
        verify_trisection(Permutation.from_cycles([(1, 2, 3), (4,)]))
    with pytest.raises(ValueError):
        verify_trisection(Permutation.identity(range(1, 3)))


def test_suite_trisection_small():
    rep = suite_trisection(2)
    assert rep.passed
    assert rep.info["pairings"] == 4


def test_suite_trisection_names_the_failing_diagonal(monkeypatch):
    real = enumeration._ntaes
    monkeypatch.setattr(enumeration, "_ntaes", lambda *args: (*real(*args), 0))
    rep = suite_trisection(1)
    assert not rep.passed
    assert rep.failures[0].startswith("trisection diag=(0 1): ")


EMPTY = Permutation((), ())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tabulate(0, Partition(())), "n must be at least 1, got 0"),
        (lambda: enumerate_U_D(EMPTY), "n must be at least 1, got 0"),
        (lambda: verify_bijection(EMPTY), "n must be at least 1, got 0"),
        (lambda: verify_trisection(EMPTY), "a top row needs at least one label"),
        (lambda: xi_brute_all(0), "a top row needs at least one label"),
    ],
    ids=["tabulate", "enumerate_U_D", "verify_bijection", "verify_trisection", "xi_brute_all"],
)
def test_empty_diagonal_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: conjecture_scan(0, "same-cycle-all"), "n must be at least 1, got 0"),
        (lambda: conjecture_scan(0, "same-cycle-exact"), "n must be at least 1, got 0"),
        (lambda: p1_routes(0, Partition(())), "n must be at least 1, got 0"),
    ],
    ids=["same-cycle-all", "same-cycle-exact", "p1_routes"],
)
def test_size_zero_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: verify_f_recurrence(3, P([2]), P([3])),
            "both cycle types must be partitions of n",
        ),
        (lambda: verify_cycle_recurrence(3, P([2]), 1), "2 is not a partition of 3"),
        (lambda: verify_cycle_recurrence(3, P([3]), 0), "k must be positive"),
        (lambda: p1_routes(3, P([2])), "2 is not a partition of 3"),
        (lambda: W_count(P([2]), P([3]), P([2])), "all three types must partition the same number"),
        (
            lambda: verify_trisection(Permutation.from_cycles([(1, 2), (3,)])),
            "need an even number of labels",
        ),
    ],
    ids=[
        "f-recurrence-weight", "cycle-recurrence-weight", "cycle-recurrence-k",
        "p1_routes", "W_count", "trisection-odd",
    ],
)
def test_argument_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_identity_suites_pass_small():
    assert suite_ntae_identity(4).passed
    assert suite_f_recurrence(4).passed
    assert suite_cycle_recurrence(4).passed
    assert suite_zagier_stanley(4).passed
    assert suite_exceedance(4).passed
    assert suite_p1(4).passed
    assert suite_w_identities(3).passed
