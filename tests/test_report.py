"""Check accounting used by the verification suites."""

import json
import time
from functools import partial

import pytest

from planeperm import distances, enumeration
from planeperm.partitions import Partition
from planeperm.perm import Permutation
from planeperm.report import EnumerationLimitError, VerifyReport, merge_reports, pmap, summed
from planeperm.serialize import to_json


def test_check_counts_and_passes():
    rep = VerifyReport("demo")
    assert rep.check(True, "fine")
    assert not rep.check(False, "broke here")
    assert rep.checked == 2
    assert not rep.passed
    assert rep.failures == ["broke here"]


def test_check_lazy_description_only_runs_on_failure():
    calls = []

    def describe():
        calls.append(1)
        return "lazy"

    rep = VerifyReport("demo")
    rep.check(True, describe)
    assert calls == []
    rep.check(False, describe)
    assert calls == [1]
    assert rep.failures == ["lazy"]


def test_summary_line():
    rep = VerifyReport("demo")
    rep.check(True)
    assert rep.summary_line() == "PASS demo checked=1"
    rep.check(False, "oops")
    line = rep.summary_line()
    assert line.startswith("FAIL demo checked=2")
    assert "oops" in line


def test_absorb_prefixes_names():
    outer = VerifyReport("outer")
    inner = VerifyReport("inner")
    inner.check(False, "bad")
    inner.info["n"] = 3
    outer.absorb(inner)
    assert outer.checked == 1
    assert outer.failures == ["inner: bad"]
    # One part's observations are not the whole's; the merging suite sets them.
    assert outer.info == {}


def test_merge_reports():
    a = VerifyReport("a")
    a.check(True)
    b = VerifyReport("b")
    b.check(False, "nope")
    merged = merge_reports("all", [a, b])
    assert merged.checked == 2
    assert not merged.passed


def test_to_json_obj_is_serializable():
    rep = VerifyReport("demo")
    rep.check(False, "x" * 5)
    rep.info["count"] = 7
    obj = rep.to_json_obj()
    text = json.dumps(obj)
    assert json.loads(text)["failure_count"] == 1


def test_to_json_rounds_nothing_and_refuses_unknown_types():
    text = to_json({"big": 2**53, "safe": 2**53 - 1, 3: (True, None, 0.5)})
    assert json.loads(text) == {"3": [True, None, 0.5], "big": "9007199254740992", "safe": 2**53 - 1}
    with pytest.raises(TypeError):
        to_json({"x": {1, 2}})


def _square(x):
    return x * x


def test_pmap_matches_serial_order():
    items = list(range(20))
    assert pmap(_square, items, jobs=1) == [x * x for x in items]
    assert pmap(_square, items, jobs=3) == [x * x for x in items]


def test_check_describes_the_failing_iteration():
    rep = VerifyReport("demo")
    for i in range(3):
        rep.check(i != 1, lambda: f"i={i}")
    assert rep.failures == ["i=1"]


def test_summed_keeps_key_order_and_counts_missing_keys_as_zero():
    a = VerifyReport("a", info={"tight": 2, "states": 5})
    b = VerifyReport("b", info={"states": 7, "other": 1})
    totals = summed([a, b], "states", "tight", "absent")
    assert totals == {"states": 12, "tight": 2, "absent": 0}
    assert list(totals) == ["states", "tight", "absent"]
    assert summed([], "states") == {"states": 0}


# Every library entry point with a size gate: (what the refusal names, gate, call).
LIBRARY_GATES = [
    ("ntae-identity", 8, enumeration.suite_ntae_identity),
    ("f-recurrence", 8, enumeration.suite_f_recurrence),
    ("cycle-recurrence", 8, enumeration.suite_cycle_recurrence),
    ("stirling", 240, enumeration.verify_stirling_recurrence),
    ("zagier-stanley", 8, enumeration.suite_zagier_stanley),
    ("trisection", 4, enumeration.suite_trisection),
    ("bijection", 7, enumeration.suite_bijection),
    ("exceedance", 8, enumeration.suite_exceedance),
    ("p1", 8, enumeration.suite_p1),
    ("w-identities", 6, enumeration.suite_w_identities),
    ("bid-oracle", 7, distances.suite_bid_oracle),
    ("rev-oracle", 7, distances.suite_rev_oracle),
    ("td-oracle", 9, distances.suite_td_oracle),
    ("max-gap", 6, distances.suite_max_gap),
    *(
        pytest.param("conjecture scan", 7, partial(distances.conjecture_scan, which=which), id=which)
        for which in ("same-cycle-exact", "same-cycle-all")
    ),
    pytest.param("tabulate", 10, lambda n: enumeration.tabulate(n, Partition.of([n])), id="tabulate"),
    pytest.param(
        "enumerate_U_D", 10,
        lambda n: enumeration.enumerate_U_D(Permutation.identity(range(1, n + 1))),
        id="enumerate_U_D",
    ),
]


@pytest.mark.parametrize("what, gate, call", LIBRARY_GATES)
def test_every_size_gate_raises_one_error_before_any_work(what, gate, call):
    started = time.perf_counter()
    with pytest.raises(EnumerationLimitError) as refused:
        call(gate + 1)
    assert time.perf_counter() - started < 1.0
    assert str(refused.value) == f"{what} capped at n={gate} (asked {gate + 1})"
