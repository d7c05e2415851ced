"""Forced failures through every formatted ``check`` message of the suites.

Each case patches what one check compares against, so that check fails, and
pins the report's ``checked``, ``failure_count`` and first stored failure,
plus a later one.  A message that names the wrong iteration, or formats
differently, changes a pinned string.  The bijection's failures are also
compared across fresh processes, since its key-set comparisons walk sets of
tuples that hold ``None``, whose hash changes from process to process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planeperm import distances, enumeration
from planeperm.distances import (
    check_bid_bfs_at,
    check_bid_histogram_at,
    check_bid_replay_at,
    conjecture_scan,
    suite_max_gap,
    suite_rev_oracle,
    suite_td_oracle,
)
from planeperm.enumeration import (
    CountTable,
    suite_exceedance,
    suite_f_recurrence,
    suite_p1,
    suite_w_identities,
    suite_zagier_stanley,
    verify_bijection,
    verify_f_recurrence,
    verify_stirling_recurrence,
    verify_trisection,
    zagier_stanley_check,
)
from planeperm.partitions import Partition
from planeperm.perm import Permutation
from planeperm.plane import _ntaes, _rows_of

P = Partition.of
MATCHING_4 = Permutation.from_cycles([(1, 3), (2, 4)])
FULL_CYCLE_4 = Permutation.from_cycles([(1, 2, 3, 4)])


def plus(extra):
    """A patch that adds ``extra(*args)`` to what the real function returns."""
    return lambda real: lambda *args: real(*args) + extra(*args)


def one_more_exceedance_free_cycle(real):
    # A permutation with no exceedance and one cycle: the exceedance total
    # weighs it by 0, the anti-exceedance total by m - 1.
    def tables(m):
        by_ak, by_akl = real(m)
        return {**by_ak, (0, 1): by_ak.get((0, 1), 0) + (m > 1)}, by_akl

    return tables


# The bijection's patches wrap the slice and glue kernels where
# verify_bijection looks them up, and work on their label-keyed rows.


def rotated_glue(real):
    def glue(p, *anchors):
        merged, eps = real(p, *anchors)
        return _rows_of(merged.s[1:] + merged.s[:1], merged.pi), eps

    return glue


def slice_at_first_ntae(real):
    return lambda p, eps: real(p, _ntaes(p.s, p.pos, p.pi.__getitem__, p.at)[0])


def slice_keeps_source(real):
    def cut(p, eps):
        _, cycles, distinguished = real(p, eps)
        return p, cycles, distinguished

    return cut


CASES = [
    pytest.param(
        enumeration, "xi", plus(lambda n, k: 1),
        lambda: zagier_stanley_check(4), 9, 9,
        "n=4 k=0: closed form 1 != brute 0",
        "n=4 k=4: 2 != 1",
        id="zs-closed-form",
    ),
    pytest.param(
        enumeration, "_higher_cycles", plus(lambda f, n, k: 1),
        lambda: zagier_stanley_check(4), 9, 2,
        "n=4 k=2: 15 != 16",
        "n=4 k=4: 1 != 2",
        id="zs-recurrence",
    ),
    pytest.param(
        enumeration, "_higher_cycles", plus(lambda f, n, k: 1),
        lambda: verify_stirling_recurrence(3), 9, 9,
        "stirling-recurrence n=1: n=1 k=1: 1 != 2",
        "stirling-recurrence n=3: n=3 k=4: 0 != 1",
        id="stirling-recurrence",
    ),
    pytest.param(
        CountTable, "f_a", plus(lambda table, eta, a: eta == P([2, 1])),
        lambda: verify_f_recurrence(3, P([3]), P([2, 1])), 5, 3,
        "reflection at a=0: 3*0 != 2*1",
        "reflection at a=2: 3*0 != 2*1",
        id="f-reflection",
    ),
    # Each count the parity filter reads also enters a recurrence, whose
    # parts come first: the filter's message is the later one pinned.
    pytest.param(
        CountTable, "f",
        plus(lambda table, eta: (len(eta) + len(table.diagonal_type) - table.n) % 2 == 0),
        lambda: suite_f_recurrence(3), 25, 9,
        "f-recurrence n=2 eta=2 lam=2: recurrence: 1 != 1*0 + 1*0",
        "parity filter: m=3 eta=1+1+1 lam=2+1: parity-violating count is nonzero",
        id="f-parity-filter",
    ),
    pytest.param(
        enumeration, "_slice", slice_at_first_ntae,
        lambda: verify_bijection(MATCHING_4), 15, 6,
        "slice collision at ((1, 3, 2, 4), (1, 3, 2), None)",
        "slice collision at ((1, 3, 4, 2), (1, 3, 4), None)",
        id="bijection-collision",
    ),
    pytest.param(
        enumeration, "_slice", slice_keeps_source,
        lambda: verify_bijection(MATCHING_4), 25, 20,
        "slice did not add two cycles at ((1, 2, 3, 4), (1, 3, 2), None)",
        "glue refused the anchors of ((1, 4, 3, 2), (1, 2, 3), None): glue needs three distinct cycles",
        id="bijection-two-cycles",
    ),
    pytest.param(
        enumeration, "_glue", rotated_glue,
        lambda: verify_bijection(MATCHING_4), 17, 8,
        "slice/glue round trip broke at ((1, 3, 2, 4), (1, 3, 2), None)",
        "slice/glue round trip broke at ((1, 2, 4, 3), (1, 2, 3), None)",
        id="bijection-slice-glue",
    ),
    pytest.param(
        enumeration, "_slice", slice_keeps_source,
        lambda: verify_bijection(FULL_CYCLE_4), 25, 20,
        "glue/slice round trip broke at ((1, 2, 3, 4), (1, 2, 3), None)",
        "glue refused the anchors of ((1, 4, 2, 3), (1, 3, 4), None): glue needs three distinct cycles",
        id="bijection-glue-slice",
    ),
    pytest.param(
        enumeration, "_ntaes", plus(lambda *args: (0,)),
        lambda: verify_trisection(MATCHING_4), 6, 6,
        "row=(0, 1, 2, 3): aex=3 cycles=1 ntae=3",
        "row=(0, 3, 2, 1): aex=3 cycles=1 ntae=3",
        id="trisection",
    ),
    pytest.param(
        CountTable, "p_k", plus(lambda table, k: 1),
        lambda: suite_zagier_stanley(3), 25, 6,
        "xi vs tabulated full-cycle diagonal: m=1 k=1: xi=1 tabulated=2",
        "xi vs tabulated full-cycle diagonal: m=3 k=3: xi=1 tabulated=2",
        id="zs-tabulated",
    ),
    pytest.param(
        enumeration, "exceedance_totals",
        lambda real: lambda m, k: (real(m, k)[0] + 1, real(m, k)[1]),
        lambda: suite_exceedance(2), 18, 3,
        "exceedance n=1: m=1 k=1: exceedances 0, closed forms 1 and 0",
        "exceedance n=2: m=2 k=2: exceedances 0, closed forms 1 and 0",
        id="exceedance-total",
    ),
    pytest.param(
        enumeration, "_ordinary_tables", one_more_exceedance_free_cycle,
        lambda: suite_exceedance(2), 18, 1,
        "exceedance n=2: m=2 k=1: anti-exceedance total 1 != 0",
        "exceedance n=2: m=2 k=1: anti-exceedance total 1 != 0",
        id="anti-exceedance-total",
    ),
    pytest.param(
        CountTable, "p_a_k", plus(lambda table, a, k: 1),
        lambda: suite_exceedance(2), 18, 9,
        "exceedance n=1: m=1 lam=1 a=0 k=1: transfer 2 vs 1 failed",
        "exceedance n=2: m=2 lam=1+1 a=1 k=2: transfer 1 vs 0 failed",
        id="exceedance-transfer",
    ),
    pytest.param(
        enumeration, "_p1_alternating", plus(lambda m, lam: 1),
        lambda: suite_p1(3), 8, 8,
        "p1 n=1: m=1 lam=1: routes disagree {'alternating': 2, 'product': 1, 'enumerated': 1}",
        "p1 n=3: m=3 lam=1+1+1: routes disagree {'alternating': 3, 'product': 2, 'enumerated': 2}",
        id="p1-routes",
    ),
    pytest.param(
        enumeration, "p1_routes",
        lambda real: lambda m, lam: {k: v + 1 for k, v in real(m, lam).items()},
        lambda: suite_p1(3), 8, 2,
        "p1 n=2: m=2 lam=2: parity-violating count is nonzero",
        "p1 n=3: m=3 lam=2+1: parity-violating count is nonzero",
        id="p1-parity",
    ),
    pytest.param(
        enumeration, "W_count", plus(lambda lam, mu, eta: mu.parts < eta.parts),
        lambda: suite_w_identities(2), 26, 6,
        "w-identities n=2: m=2 lam=2: swapping 2 and 1+1 changed the count",
        "w-identities n=2: m=2 lam=1+1: swapping 1+1 and 2 changed the count",
        id="w-swap",
    ),
    pytest.param(
        enumeration, "W_count", plus(lambda lam, mu, eta: len(lam) - 1),
        lambda: suite_w_identities(2), 26, 6,
        "w-identities n=2: m=2: weighted transfer 2/1+1 at 2 failed",
        "w-identities n=2: m=2 lam=1+1 mu=1+1: identity margin should be 0/1",
        id="w-transfer",
    ),
    pytest.param(
        enumeration, "W_count", plus(lambda lam, mu, eta: lam == mu == eta),
        lambda: suite_w_identities(2), 26, 4,
        "w-identities n=1: m=1 lam=1 mu=1: identity margin should be 0/1",
        "w-identities n=2: m=2 k=1: margin 1 != xi 0",
        id="w-identity-margin",
    ),
    pytest.param(
        enumeration, "xi", plus(lambda m, k: 1),
        lambda: suite_w_identities(2), 26, 3,
        "w-identities n=1: m=1 k=1: margin 1 != xi 2",
        "w-identities n=2: m=2 k=2: margin 1 != xi 2",
        id="w-xi-margin",
    ),
    pytest.param(
        distances, "_meets_middle", lambda real: lambda *args: False,
        lambda: conjecture_scan(3, "same-cycle-exact"), 24, 24,
        "n and middle entry split at +1 +2 -3",
        "n and middle entry split at -3 -2 -1",
        id="conjecture",
    ),
    pytest.param(
        distances, "bid", plus(lambda seq: 1),
        lambda: check_bid_bfs_at(4), 24, 24,
        "bid(1, 2, 3, 4)=1 but BFS says 0",
        "bid(4, 3, 2, 1)=3 but BFS says 2",
        id="bid-bfs",
    ),
    pytest.param(
        distances, "bid_sort", lambda real: lambda seq: real(seq)[1:],
        lambda: check_bid_replay_at(4), 24, 23,
        "scenario for (1, 2, 4, 3) broke down",
        "scenario for (4, 3, 2, 1) broke down",
        id="bid-replay",
    ),
    pytest.param(
        distances, "bid_count", plus(lambda n, k: 1),
        lambda: check_bid_histogram_at(4), 4, 3,
        "distance 0: histogram 1 vs formula 2",
        "distance 2: histogram 8 vs formula 9",
        id="bid-histogram",
    ),
    pytest.param(
        distances, "td_lower_bound", plus(lambda seq: 2),
        lambda: suite_td_oracle(4), 33, 33,
        "td-bound-n1: bound 2 exceeds distance 0 at (1,)",
        "td-bound-n4: bound 4 exceeds distance 3 at (4, 3, 2, 1)",
        id="td-bound",
    ),
    pytest.param(
        distances, "rev_lower_bound", plus(lambda a: 2),
        lambda: suite_rev_oracle(3), 58, 58,
        "rev-bounds-n1: bound 2 exceeds distance 0 at +1",
        "rev-bounds-n3: bound 5 exceeds distance 3 at -3 -1 -2",
        id="rev-bound",
    ),
    pytest.param(
        distances, "max_cycle_gap", plus(lambda alpha: 1),
        lambda: suite_max_gap(3), 9, 9,
        "max-cycle-gap-n1: gap mismatch at (1,): 1 vs 0",
        "max-cycle-gap-n3: gap mismatch at (3, 2, 1): 2 vs 1",
        id="max-gap",
    ),
]


@pytest.mark.parametrize("owner, name, patch, run, checked, failure_count, first, later", CASES)
def test_forced_failure_is_reported(
    monkeypatch, owner, name, patch, run, checked, failure_count, first, later
):
    monkeypatch.setattr(owner, name, patch(getattr(owner, name)))
    rep = run()
    assert (rep.checked, rep.failure_count, rep.failures[0]) == (checked, failure_count, first)
    assert later in rep.failures


BIJECTION_CASES = [case for case in CASES if case.id.startswith("bijection")]

# Runs each bijection case in this fresh interpreter and prints its full report.
REPORT_SCRIPT = """
import json
import test_check_messages as cases

reports = []
for case in cases.BIJECTION_CASES:
    owner, name, patch, run = case.values[:4]
    real = getattr(owner, name)
    setattr(owner, name, patch(real))
    try:
        reports.append(run().to_json_obj())
    finally:
        setattr(owner, name, real)
print(json.dumps(reports))
"""


def _bijection_reports_in_a_fresh_process() -> list[dict]:
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run(
        [sys.executable, "-c", REPORT_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_bijection_failures_are_listed_in_one_order_in_every_process():
    first, second = _bijection_reports_in_a_fresh_process(), _bijection_reports_in_a_fresh_process()
    assert first == second
    by_id = dict(zip((case.id for case in BIJECTION_CASES), first))
    assert by_id["bijection-two-cycles"]["failures"][-1] == (
        "slice key missing from the census: ((1, 4, 3, 2), (1, 3, 4), None)"
    )
