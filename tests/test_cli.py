"""Command line behaviour: output formats, exit codes, determinism."""

import json
import math

from click.testing import CliRunner

import planeperm.cli as cli
from planeperm.cli import main
from planeperm.report import VerifyReport


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


# -- distance -------------------------------------------------------------


def test_distance_bid():
    result = run("distance", "bid", "3 2 1")
    assert result.exit_code == 0
    assert result.stdout == "bid 3 2 1 -> 1\n"


def test_distance_bid_scenario():
    result = run("distance", "bid", "3 2 1", "--scenario")
    assert result.exit_code == 0
    assert result.stdout == "bid 3 2 1 -> 1\n  step (1,1,3,3)\n"
    sorted_already = run("distance", "bid", "1 2 3", "--scenario")
    assert sorted_already.exit_code == 0
    assert sorted_already.stdout == "bid 1 2 3 -> 0\n"


def test_distance_bid_oracle():
    result = run("distance", "bid", "4 3 2 1", "--oracle")
    assert result.exit_code == 0
    assert "oracle" in result.stdout and "match" in result.stdout


def test_distance_rev_lb_needs_sentinel():
    result = run("distance", "rev-lb", "--", "-1")
    assert result.exit_code == 0
    assert result.stdout == "rev-lb -1 -> 1\n"


def test_distance_rev_bp():
    result = run("distance", "rev-bp", "--", "-1")
    assert result.exit_code == 0
    assert result.stdout == "rev-bp -1 -> 1\n"


def test_distance_rev_lb_scenario_reports_stuck():
    result = run("distance", "rev-lb", "--scenario", "--", "+2 +1")
    assert result.exit_code == 0
    assert "stuck at +2 +1" in result.stdout


def test_distance_usage_errors():
    assert run("distance", "bid").exit_code == 2
    assert run("distance", "bid", "1 2 2").exit_code == 2
    assert run("distance", "rev-lb", "1 2").exit_code == 2
    assert run("distance", "td-lb", "2 1", "--scenario").exit_code == 2
    assert run("distance", "walks", "2 1").exit_code == 2


def test_distance_reads_input_file(tmp_path):
    listing = tmp_path / "perms.txt"
    listing.write_text("3 2 1\n\n1 2 3\n")
    result = run("distance", "bid", "--in", str(listing))
    assert result.exit_code == 0
    assert result.stdout == "bid 3 2 1 -> 1\nbid 1 2 3 -> 0\n"


def test_distance_json_record():
    result = run("--format", "json", "distance", "bid", "3 2 1", "--oracle")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["schema"] == "planeperm/distance/1"
    assert payload["records"] == [
        {"kind": "bid", "input": "3 2 1", "value": 1, "oracle": 1, "match": True}
    ]


def test_distance_csv():
    result = run("--format", "csv", "distance", "bid", "3 2 1")
    lines = result.stdout.splitlines()
    assert lines[0] == "# schema=planeperm/distance/1"
    assert lines[1] == "kind,input,value,oracle,match"
    assert lines[2] == "bid,3 2 1,1,,"


# -- enumerate ------------------------------------------------------------


def test_enumerate_xi():
    result = run("enumerate", "xi", "3")
    assert result.exit_code == 0
    assert result.stdout == "xi n=3\nk=1 1\nk=3 1\n"


def test_enumerate_bid_k():
    result = run("enumerate", "bid-k", "3")
    assert result.exit_code == 0
    assert result.stdout == "bid-k n=3\nk=0 1\nk=1 5\n"


def test_enumerate_stirling():
    result = run("enumerate", "stirling", "5")
    assert result.exit_code == 0
    assert result.stdout == "stirling n=5\nk=1 24\nk=2 50\nk=3 35\nk=4 10\nk=5 1\n"


def test_enumerate_pk_lambda():
    result = run("enumerate", "pk-lambda", "4", "--lam", "2+2")
    assert result.exit_code == 0
    assert result.stdout == "pk-lambda n=4 lam=2+2\nk=1 2\nk=2 0\nk=3 4\nk=4 0\n"
    exponents = run("enumerate", "pk-lambda", "4", "--lam", "2^2")
    assert exponents.stdout == result.stdout


def test_enumerate_usage_errors():
    assert run("enumerate", "pk-lambda", "4").exit_code == 2
    assert run("enumerate", "pk-lambda", "4", "--lam", "2+1").exit_code == 2
    assert run("enumerate", "pk-lambda", "4", "--lam", "nope").exit_code == 2
    assert run("enumerate", "xi", "3", "--lam", "3").exit_code == 2
    assert run("enumerate", "stirling", "0").exit_code == 2


def test_enumerate_size_gate():
    gated = run("enumerate", "pk-lambda", "9", "--lam", "9")
    assert gated.exit_code == 3
    assert gated.stderr.startswith("error:")
    lifted = run("--allow-large", "enumerate", "pk-lambda", "9", "--lam", "9")
    assert lifted.exit_code == 0


def test_enumerate_big_integers_become_json_strings():
    result = run("--format", "json", "enumerate", "stirling", "30")
    payload = json.loads(result.stdout)
    assert payload["values"]["1"] == str(math.factorial(29))
    assert payload["values"]["30"] == 1


def test_enumerate_csv():
    result = run("--format", "csv", "enumerate", "bid-k", "3")
    lines = result.stdout.splitlines()
    assert lines[0] == "# schema=planeperm/enumerate/1"
    assert lines[1] == "kind,n,lam,k,value"
    assert lines[2] == "bid-k,3,,0,1"
    assert lines[3] == "bid-k,3,,1,5"


# -- verify ---------------------------------------------------------------


def test_verify_passing_suite():
    result = run("verify", "zagier-stanley", "4")
    assert result.exit_code == 0
    assert result.stdout.startswith("PASS ")


def test_verify_bijection_prints_y_counts():
    result = run("verify", "bijection", "3")
    assert result.exit_code == 0
    assert "y1=" in result.stdout
    assert "y2=" in result.stdout
    assert "y3=" in result.stdout


def test_verify_json_shape():
    result = run("--format", "json", "verify", "stirling", "6")
    payload = json.loads(result.stdout)
    assert payload["schema"] == "planeperm/verify/1"
    assert payload["suite"] == "stirling"
    assert payload["n"] == 6
    assert payload["passed"] is True
    assert payload["failure_count"] == 0


def test_verify_csv():
    result = run("--format", "csv", "verify", "stirling", "6")
    lines = result.stdout.splitlines()
    assert lines[0] == "# schema=planeperm/verify/1"
    assert lines[1] == "suite,n,passed,checked,failure_count"
    assert lines[2].startswith("stirling,6,True,")


def test_verify_unknown_suite():
    assert run("verify", "everything", "3").exit_code == 2


def test_verify_failure_exits_one(monkeypatch):
    def broken(n, settings):
        rep = VerifyReport("broken")
        rep.check(False, "forced failure")
        return rep

    monkeypatch.setitem(cli.SUITE_RUNNERS, "stirling", broken)
    result = run("verify", "stirling", "3")
    assert result.exit_code == 1
    assert result.stdout.startswith("FAIL ")
    assert "forced failure" in result.stdout


def test_verify_seed_accepted():
    result = run("--seed", "7", "verify", "max-gap", "3")
    assert result.exit_code == 0


def test_verify_cap_propagates():
    result = run("--cap", "5", "verify", "bid-oracle", "4")
    assert result.exit_code == 3
    assert result.stderr.startswith("error:")


def test_verify_rev_oracle_totals_cover_every_size():
    result = run("verify", "rev-oracle", "5")
    assert result.exit_code == 0
    assert result.stdout == (
        "PASS rev-oracle-n5 checked=4282\n"
        "  states=4282\n"
        "  tight=4075\n"
        "  tight_rate=4075/4282\n"
        "  breakpoint_disagreements=0\n"
    )


def test_verify_rev_oracle_cap_is_an_error():
    result = run("verify", "rev-oracle", "9")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "error: rev-oracle capped at n=6 (asked 9)\n"


def test_verify_n_below_one_is_a_usage_error():
    for n in ("0", "-1"):
        result = run("verify", "stirling", "--", n)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Invalid value for 'N'" in result.stderr


def test_verify_checking_nothing_is_a_usage_error():
    for suite, n in (
        ("f-recurrence", "1"),
        ("cycle-recurrence", "1"),
        ("bijection", "1"),
        ("bijection", "2"),
    ):
        result = run("verify", suite, n)
        assert result.exit_code == 2, (suite, n)
        assert result.stdout == ""
        assert "checks nothing" in result.stderr


# -- conjecture -----------------------------------------------------------


def test_conjecture_exact_smallest():
    result = run("conjecture", "same-cycle-exact", "1")
    assert result.exit_code == 0
    assert result.stdout.startswith("PASS ")
    assert "instances=1" in result.stdout
    assert "scanned=2" in result.stdout


def test_conjecture_all_small():
    result = run("conjecture", "same-cycle-all", "3")
    assert result.exit_code == 0
    assert "scanned=48" in result.stdout


def test_conjecture_n_below_one_is_a_usage_error():
    result = run("conjecture", "same-cycle-all", "0")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Invalid value for 'N'" in result.stderr


def test_conjecture_cap():
    result = run("conjecture", "same-cycle-all", "8")
    assert result.exit_code == 3
    assert result.stderr == "error: conjecture scan capped at n=6 (asked 8)\n"


# -- global options -------------------------------------------------------


def test_jobs_do_not_change_bytes():
    serial = run("verify", "trisection", "2")
    parallel = run("--jobs", "2", "verify", "trisection", "2")
    assert serial.exit_code == parallel.exit_code == 0
    assert serial.stdout == parallel.stdout
    serial = run("verify", "bijection", "3")
    parallel = run("--jobs", "3", "verify", "bijection", "3")
    assert serial.stdout == parallel.stdout


def test_jobs_below_one_is_a_usage_error():
    for jobs in ("0", "-2"):
        result = run("--jobs", jobs, "verify", "stirling", "5")
        assert result.exit_code == 2
        assert "Invalid value for '--jobs'" in result.stderr
        assert result.stdout == ""


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.txt"
    result = run("--out", str(target), "verify", "stirling", "5")
    assert result.exit_code == 0
    assert result.stdout == ""
    assert target.read_text().startswith("PASS ")


def test_repeated_invocations_are_identical():
    first = run("--format", "json", "enumerate", "xi", "5")
    second = run("--format", "json", "enumerate", "xi", "5")
    assert first.stdout == second.stdout
