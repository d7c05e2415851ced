"""Check accounting used by the verification suites."""

import json

from planeperm.report import VerifyReport, merge_reports, pmap


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


def _square(x):
    return x * x


def test_pmap_matches_serial_order():
    items = list(range(20))
    assert pmap(_square, items, jobs=1) == [x * x for x in items]
    assert pmap(_square, items, jobs=3) == [x * x for x in items]
