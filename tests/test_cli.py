"""Command line behaviour: output formats, exit codes, determinism."""

import json
import math
import re
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import planeperm.cli as cli
from planeperm.cli import main
from planeperm.distances import DEFAULT_BFS_CAP
from planeperm.report import VerifyReport


README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_distance_cap_propagates():
    result = run("distance", "--cap", "5", "td-lb", "5 4 3 2 1", "--oracle")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "error: BFS under transpositions exceeded cap of 5 states\n"


def test_distance_cap_needs_oracle():
    for cap in ("5", str(DEFAULT_BFS_CAP)):
        result = run("distance", "bid", "2 1 3", "--cap", cap)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--cap applies with --oracle only" in result.stderr
    assert run("distance", "bid", "2 1 3", "--cap", "5", "--oracle").exit_code == 0


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
    empty = run("distance", "bid", "")
    assert empty.exit_code == 2
    assert empty.stdout == ""


def test_distance_inputs_are_whitespace_separated():
    # Both grammars split on whitespace only, so a comma stays inside a token.
    unsigned = run("distance", "bid", "3,2,1")
    assert unsigned.exit_code == 2
    assert unsigned.stdout == ""
    assert "bad sequence '3,2,1'" in unsigned.stderr
    signed = run("distance", "rev-lb", "--", "-3,+2,+1")
    assert signed.exit_code == 2
    assert signed.stdout == ""
    assert "signed entry needs ASCII digits after its sign: '-3,+2,+1'" in signed.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ("distance", "bid", "2 1 3 4 5 6 7 8 9 1_0"),
            "'2 1 3 4 5 6 7 8 9 1_0': bad sequence '2 1 3 4 5 6 7 8 9 1_0': "
            "invalid literal for int() with base 10: '1_0'",
        ),
        (
            ("distance", "bid", "\u0662 \u0661"),
            "'\u0662 \u0661': bad sequence '\u0662 \u0661': "
            "invalid literal for int() with base 10: '\u0662'",
        ),
        (
            ("distance", "rev-lb", "--", "-1_0"),
            "'-1_0': signed entry needs ASCII digits after its sign: '-1_0'",
        ),
        (
            ("distance", "rev-lb", "--", "-\u0662 +1"),
            "'-\u0662 +1': signed entry needs ASCII digits after its sign: '-\u0662'",
        ),
        (
            ("distance", "rev-lb", "--", "1_0"),
            "'1_0': signed entry needs an explicit sign: '1_0'",
        ),
        (("enumerate", "pk-lambda", "4", "--lam", "3+0_1"), "bad partition: '3+0_1'"),
        (("enumerate", "pk-lambda", "3", "--lam", "\u0663"), "bad partition: '\u0663'"),
        (("enumerate", "pk-lambda", "3", "--lam", "1^\u0663"), "bad partition chunk: '1^\u0663'"),
    ],
    ids=[
        "bid-underscore",
        "bid-non-ascii",
        "rev-lb-underscore",
        "rev-lb-non-ascii",
        "rev-lb-unsigned",
        "lam-underscore",
        "lam-non-ascii",
        "lam-chunk-non-ascii",
    ],
)
def test_integer_tokens_are_a_sign_then_ascii_digits(args, message):
    # ``int`` alone would read 1_0 as 10 and Arabic-Indic digits as 2, 1, 3.
    result = run(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == f"Error: {message}"


def test_distance_reads_input_file(tmp_path):
    listing = tmp_path / "perms.txt"
    listing.write_text("3 2 1\n\n1 2 3\n")
    result = run("distance", "bid", "--in", str(listing))
    assert result.exit_code == 0
    assert result.stdout == "bid 3 2 1 -> 1\nbid 1 2 3 -> 0\n"


def test_distance_input_file_may_start_with_a_byte_order_mark(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"3 2 1\n2 1\n")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf3 2 1\n2 1\n")
    expected = run("distance", "bid", "--in", str(plain))
    result = run("distance", "bid", "--in", str(marked))
    assert (result.exit_code, result.stdout_bytes) == (0, expected.stdout_bytes)
    assert expected.stdout == "bid 3 2 1 -> 1\nbid 2 1 -> 1\n"


def test_distance_input_file_that_is_not_utf8_is_a_usage_error(tmp_path):
    listing = tmp_path / "perms.txt"
    listing.write_bytes(b"\xff\xfe3 2 1\n")
    result = run("distance", "bid", "--in", str(listing))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert repr(str(listing)) in result.stderr
    assert "not UTF-8" in result.stderr
    assert "Traceback" not in result.stderr


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
    for lam in ("3^-1 1^3", "3^0 1^3"):
        dropped = run("enumerate", "pk-lambda", "3", "--lam", lam)
        assert dropped.exit_code == 2
        assert dropped.stdout == ""
        assert "bad partition chunk" in dropped.stderr
    for lam, message in (
        ("3^1.5", "bad partition chunk: '3^1.5'"),
        ("x^1 2^1", "bad partition chunk: 'x^1'"),
        ("1^2+1^1", "bad partition chunk: '1^2+1^1'"),
        ("2+x", "bad partition: '2+x'"),
        ("2++1", "bad partition: '2++1'"),
    ):
        malformed = run("enumerate", "pk-lambda", "3", "--lam", lam)
        assert malformed.exit_code == 2
        assert malformed.stdout == ""
        assert message in malformed.stderr


def test_enumerate_refuses_a_blank_lam():
    # a blank --lam parses as the empty partition, which partitions 0
    blank = run("enumerate", "pk-lambda", "3", "--lam", " ")
    assert blank.exit_code == 2
    assert blank.stdout == ""
    assert blank.stderr.endswith("\nError: --lam ' ' is not a partition of 3\n")


def test_enumerate_size_gate():
    assert run("enumerate", "pk-lambda", "9", "--lam", "9").exit_code == 0
    beyond = run("enumerate", "pk-lambda", "11", "--lam", "11")
    assert beyond.exit_code == 3
    assert beyond.stdout == ""
    assert beyond.stderr == "error: tabulate capped at n=10 (asked 11)\n"
    assert run("--allow-large", "verify", "stirling", "2").exit_code == 2


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


def test_seed_option_is_gone():
    result = run("--seed", "7", "verify", "max-gap", "3")
    assert result.exit_code == 2
    result = run("--cap", "5", "verify", "bid-oracle", "4")
    assert result.exit_code == 2


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
    assert result.stderr == "error: rev-oracle capped at n=7 (asked 9)\n"


# (command, name in the message, gate)
SIZE_GATES = [
    (("verify", "ntae-identity"), "ntae-identity", 8),
    (("verify", "f-recurrence"), "f-recurrence", 8),
    (("verify", "cycle-recurrence"), "cycle-recurrence", 8),
    (("verify", "zagier-stanley"), "zagier-stanley", 8),
    (("verify", "exceedance"), "exceedance", 8),
    (("verify", "p1"), "p1", 8),
    (("verify", "trisection"), "trisection", 4),
    (("verify", "bijection"), "bijection", 7),
    (("verify", "w-identities"), "w-identities", 6),
    (("verify", "max-gap"), "max-gap", 6),
    (("verify", "bid-oracle"), "bid-oracle", 7),
    (("verify", "rev-oracle"), "rev-oracle", 7),
    (("verify", "td-oracle"), "td-oracle", 9),
    (("verify", "stirling"), "stirling", 240),
    (("enumerate", "xi"), "enumerate xi", 1000),
    (("enumerate", "stirling"), "enumerate stirling", 1000),
    (("enumerate", "bid-k"), "enumerate bid-k", 1000),
    (("conjecture", "same-cycle-exact"), "conjecture scan", 7),
    (("conjecture", "same-cycle-all"), "conjecture scan", 7),
]


@pytest.mark.parametrize(
    "command, what, gate",
    SIZE_GATES,
    ids=[" ".join(c) if c[0] == "enumerate" else c[-1] for c, *_ in SIZE_GATES],
)
def test_size_gates_refuse_before_any_work(command, what, gate):
    started = time.perf_counter()
    result = run(*command, str(gate + 1))
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == f"error: {what} capped at n={gate} (asked {gate + 1})\n"


def test_readme_gate_table_matches_the_gates():
    section = README.read_text(encoding="utf-8").split("### verify\n", 1)[1].split("\n### ", 1)[0]
    table = {}
    for names, gate in re.findall(r"^\| (`.*) \| (\d+) \|$", section, re.M):
        for name in re.findall(r"`([^`]+)`", names):
            assert name not in table, name
            table[name] = int(gate)
    readme_name = {"verify": lambda c: c[-1], "conjecture": lambda c: c[0], "enumerate": " ".join}
    expected = {readme_name[command[0]](command): gate for command, _, gate in SIZE_GATES}
    expected["enumerate pk-lambda"] = 10
    assert table == expected


def _readme_options(heading: str, first_paragraph_only: bool) -> set[str]:
    section = README.read_text(encoding="utf-8").split(f"{heading}\n", 1)[1].split("\n#", 1)[0]
    if first_paragraph_only:
        section = section.strip().split("\n\n", 1)[0]
    return set(re.findall(r"`(--[a-z][a-z-]*)", section))


def test_readme_options_match_the_cli():
    def options(command):
        return {name for p in command.params if isinstance(p, click.Option) for name in p.opts}

    assert _readme_options("## Command line", True) == options(main)
    assert _readme_options("### distance", False) == options(cli.distance)


def test_verify_n_below_one_is_a_usage_error():
    for n in ("0", "-1"):
        result = run("verify", "stirling", "--", n)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Invalid value for 'N'" in result.stderr


@pytest.mark.parametrize("suite", tuple(cli.SUITE_RUNNERS))
def test_suites_refuse_n_below_one_in_the_library(suite):
    # called directly, with no IntRange in front, a suite must not pass vacuously
    settings = cli.Settings(fmt="text", jobs=1, out=None)
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"^n must be at least 1, got {n}$"):
            cli.SUITE_RUNNERS[suite](n, settings)


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


def test_suites_called_directly_check_nothing_at_exactly_these_sizes():
    # the library returns these reports as a PASS with checked=0; the CLI
    # refuses the same four sizes above
    settings = cli.Settings(fmt="text", jobs=1, out=None)
    empty = {
        (suite, n)
        for suite, runner in cli.SUITE_RUNNERS.items()
        for n in (1, 2)
        if runner(n, settings).checked == 0
    }
    assert empty == {
        ("f-recurrence", 1),
        ("cycle-recurrence", 1),
        ("bijection", 1),
        ("bijection", 2),
    }


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
    assert result.stderr == "error: conjecture scan capped at n=7 (asked 8)\n"


# -- global options -------------------------------------------------------


def test_jobs_do_not_change_bytes():
    serial = run("verify", "trisection", "2")
    parallel = run("--jobs", "2", "verify", "trisection", "2")
    assert serial.exit_code == parallel.exit_code == 0
    assert serial.stdout == parallel.stdout
    serial = run("verify", "bijection", "3")
    parallel = run("--jobs", "3", "verify", "bijection", "3")
    assert serial.stdout == parallel.stdout
    serial = run("--format", "json", "verify", "trisection", "3")
    parallel = run("--jobs", "2", "--format", "json", "verify", "trisection", "3")
    assert serial.exit_code == parallel.exit_code == 0
    assert serial.stdout == parallel.stdout
    serial = run("verify", "bijection", "4")
    parallel = run("--jobs", "2", "verify", "bijection", "4")
    assert serial.exit_code == parallel.exit_code == 0
    assert serial.stdout == parallel.stdout


def test_jobs_below_one_is_a_usage_error():
    for jobs in ("0", "-2"):
        result = run("--jobs", jobs, "verify", "stirling", "5")
        assert result.exit_code == 2
        assert "Invalid value for '--jobs'" in result.stderr
        assert result.stdout == ""


def test_cap_and_out_are_checked_before_any_work(tmp_path, monkeypatch):
    ran = []
    runners = {name: lambda n, s, name=name: ran.append(name) for name in cli.SUITE_RUNNERS}
    monkeypatch.setattr(cli, "SUITE_RUNNERS", runners)
    monkeypatch.setattr(cli.distances, "bfs_distance", lambda *args: ran.append(args))
    for cap in ("0", "-5"):
        result = run("distance", "--cap", cap, "bid", "2 1", "--oracle")
        assert result.exit_code == 2
        assert "Invalid value for '--cap'" in result.stderr
        assert result.stdout == ""
    missing = tmp_path / "missing" / "report.txt"
    result = run("--out", str(missing), "verify", "stirling", "2")
    assert result.exit_code == 2
    assert "Invalid value for '--out'" in result.stderr
    assert result.stdout == ""
    assert not missing.parent.exists()
    assert ran == []


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
