"""End-to-end acceptance gates.

Ten criteria, each pinned to an exact population and a wall-clock budget.
Every test prints a single verdict line (run ``pytest -s`` to see them all);
the asserts behind the line are the actual gate.
"""

import math
import time

from planeperm.distances import (
    check_bid_bfs_at,
    check_bid_histogram_at,
    check_bid_replay_at,
    check_rev_bounds_at,
    conjecture_scan,
    suite_max_gap,
)
from planeperm.enumeration import (
    suite_bijection,
    suite_cycle_recurrence,
    suite_f_recurrence,
    suite_ntae_identity,
    suite_p1,
    suite_trisection,
    verify_stirling_recurrence,
    xi,
    xi_brute_all,
    zagier_stanley_check,
)
from planeperm.partitions import binomial, stirling_first


def _verdict(index, slug, budget, started, ok, detail):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"{status} criterion-{index:02d} {slug}: {detail} ({elapsed:.1f}s/{budget:.0f}s)")
    assert ok, f"criterion-{index:02d} {slug}: {detail}"
    assert elapsed <= budget, f"criterion-{index:02d} {slug} over budget: {elapsed:.1f}s"


def _digest(reports):
    ok = all(r.passed for r in reports)
    checked = sum(r.checked for r in reports)
    detail = f"checked={checked}"
    for r in reports:
        if r.failures:
            detail += f"; first failure: {r.failures[0]}"
            break
    return ok, detail


def test_criterion_01_xi_closed_form():
    """Single-cycle counts: brute force equals the closed form for n <= 8."""
    started = time.perf_counter()
    ok, mismatches, recurrences = True, 0, []
    for n in range(1, 9):
        brute = xi_brute_all(n)
        for k in range(n + 2):
            if brute.get(k, 0) != xi(n, k):
                ok, mismatches = False, mismatches + 1
        recurrences.append(zagier_stanley_check(n))
    rec_ok, rec_detail = _digest(recurrences)
    detail = f"mismatches={mismatches}; recurrence {rec_detail}"
    _verdict(1, "xi-closed-form", 30, started, ok and rec_ok, detail)


def test_criterion_02_bid_exact():
    """Block-interchange distance equals BFS (n <= 6); scenarios replay (n <= 7)."""
    started = time.perf_counter()
    reports = [check_bid_bfs_at(m) for m in range(1, 7)]
    reports += [check_bid_replay_at(m) for m in range(1, 8)]
    ok, detail = _digest(reports)
    _verdict(2, "bid-exact", 60, started, ok, detail)


def test_criterion_03_bid_histogram():
    """BFS distance histogram matches the closed-form counts for n <= 7."""
    started = time.perf_counter()
    reports = [check_bid_histogram_at(m) for m in range(1, 8)]
    ok, detail = _digest(reports)
    _verdict(3, "bid-histogram", 30, started, ok, detail)


def test_criterion_04_max_gap():
    """Largest cycle-count change: closed form vs brute force, exhaustive to 6."""
    started = time.perf_counter()
    report = suite_max_gap(6)
    ok, detail = _digest([report])
    _verdict(4, "max-gap", 60, started, ok and report.checked == 873, detail)


def test_criterion_05_identities():
    """Recurrences and closed forms across the count tables."""
    started = time.perf_counter()
    reports = [
        suite_ntae_identity(7),
        suite_f_recurrence(6),
        suite_cycle_recurrence(6),
        suite_p1(6),
        verify_stirling_recurrence(30),
    ]
    ok, detail = _digest(reports)
    _verdict(5, "identities", 120, started, ok, detail)


def test_criterion_06_trisection():
    """Fixed-point-free involution diagonals on 2m points for every pairing, m <= 4."""
    started = time.perf_counter()
    report = suite_trisection(4)
    ok, detail = _digest([report])
    detail += f"; pairings={report.info['pairings']}"
    _verdict(6, "trisection", 60, started, ok, detail)


def test_criterion_07_bijection():
    """Slice/glue correspondence balances and round-trips for every diagonal on
    n <= 6 labels, at every cycle count; Y-totals re-derived from cycle counts."""
    started = time.perf_counter()
    report = suite_bijection(6)
    y1 = y2 = 0
    for m in range(1, 7):
        per_top = math.factorial(m - 1)
        y1 += per_top * (
            m * math.factorial(m)
            - math.factorial(m) * (m - 1) // 2
            - sum(k * stirling_first(m, k) for k in range(1, m + 1))
        )
        y2 += per_top * sum(binomial(k, 3) * stirling_first(m, k) for k in range(1, m + 1))
    totals_ok = (
        report.info["y1"] == y1
        and report.info["y2"] == y2
        and report.info["y3"] == y1 - y2
    )
    ok, detail = _digest([report])
    detail += f"; y1={report.info['y1']} y2={report.info['y2']} y3={report.info['y3']}"
    if not totals_ok:
        detail += f"; expected y1={y1} y2={y2}"
    _verdict(7, "bijection", 120, started, ok and totals_ok, detail)


def test_criterion_08_reversal_bound():
    """Reversal bound never exceeds the BFS distance over all signed rows, n <= 5."""
    started = time.perf_counter()
    reports = [check_rev_bounds_at(m) for m in range(1, 6)]
    ok, detail = _digest(reports)
    tight = sum(r.info["tight"] for r in reports)
    states = sum(r.info["states"] for r in reports)
    disagreements = sum(r.info["breakpoint_disagreements"] for r in reports)
    detail += f"; tight={tight}/{states}; breakpoint_disagreements={disagreements}"
    _verdict(8, "reversal-bound", 60, started, ok, detail)


def test_criterion_09_conjectures():
    """Same-cycle scans, both populations, exhaustive for n <= 5: no counterexamples."""
    started = time.perf_counter()
    reports = [
        conjecture_scan(m, which)
        for which in ("same-cycle-exact", "same-cycle-all")
        for m in range(1, 6)
    ]
    ok, detail = _digest(reports)
    instances = sum(r.info["instances"] for r in reports)
    detail += f"; instances={instances}; counterexamples={sum(r.failure_count for r in reports)}"
    _verdict(9, "conjectures", 60, started, ok, detail)


def test_criterion_10_invariants():
    """Structural sweep: every plane invariant, exhaustive to n=6 plus 100k
    random planes at n=12."""
    started = time.perf_counter()
    from planeperm.plane import invariant_sweep

    report = invariant_sweep(6, random_cases=10**5, random_n=12, seed=0)
    ok, detail = _digest([report])
    _verdict(10, "invariants", 120, started, ok, detail)
