"""Golden command-line output: exit code, stdout and stderr of about a
hundred in-process commands, compared byte for byte with a recorded file.

A refactor that promises unchanged output runs this module; a change that
means to alter output regenerates the file and shows the diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from functools import cache
from pathlib import Path

import pytest
from click.testing import CliRunner

from planeperm.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

SUITE_SIZES = {
    "ntae-identity": 4,
    "f-recurrence": 4,
    "cycle-recurrence": 4,
    "stirling": 12,
    "zagier-stanley": 4,
    "trisection": 2,
    "bijection": 3,
    "exceedance": 4,
    "p1": 4,
    "w-identities": 3,
    "bid-oracle": 3,
    "rev-oracle": 3,
    "td-oracle": 4,
    "max-gap": 3,
}

DISTANCE_INPUTS = {
    "bid": (["--scenario", "--oracle"], ["3 2 1", "1 2 3", "4 1 3 2", "2 5 4 1 3"]),
    "td-lb": (["--oracle"], ["3 2 1", "2 4 1 3", "5 4 3 2 1"]),
    "rev-lb": (["--scenario", "--oracle"], ["-1", "+2 -1", "-3 +1 +2", "+3 +2 +1"]),
    "rev-bp": (["--oracle"], ["-1", "+2 -1", "-3 +1 +2"]),
}


def commands() -> list[list[str]]:
    out = []
    for suite, n in SUITE_SIZES.items():
        out.append(["verify", suite, "1"])
        out.append(["verify", suite, str(n)])
    for suite in ("stirling", "zagier-stanley", "bijection", "p1", "td-oracle"):
        for fmt in ("json", "csv"):
            out.append(["--format", fmt, "verify", suite, str(SUITE_SIZES[suite])])
    for which in ("same-cycle-exact", "same-cycle-all"):
        out += [["conjecture", which, str(n)] for n in range(1, 6)]
    for kind in ("xi", "stirling", "bid-k"):
        out += [["enumerate", kind, str(n)] for n in range(1, 10)]
    for lam in ("5", "4+1", "3+2", "3+1+1", "2+2+1", "2+1+1+1", "1+1+1+1+1"):
        out.append(["enumerate", "pk-lambda", "5", "--lam", lam])
    for kind, (flags, inputs) in DISTANCE_INPUTS.items():
        for fmt in ("text", "json", "csv"):
            out.append(["--format", fmt, "distance", kind, *flags, "--", *inputs])
    out += [
        ["distance", "rev-lb", "--scenario", "--", "+2 +4 +1 +3"],
        ["--format", "json", "enumerate", "pk-lambda", "4", "--lam", "2^2"],
        ["--jobs", "2", "verify", "bijection", "4"],
        ["verify", "rev-oracle", "8"],
        ["enumerate", "xi", "1001"],
        ["distance", "bid", "1 2 2"],
        ["conjecture", "same-cycle-all", "8"],
    ]
    return out


def run(args: list[str]) -> dict:
    result = CliRunner().invoke(main, args)
    return {
        "args": args,
        "exit_code": result.exit_code,
        "stdout": result.stdout,
        "stderr": result.stderr,
    }


@cache
def recorded() -> dict[tuple[str, ...], dict]:
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(entry["args"]): entry for entry in entries}


def test_golden_file_lists_these_commands():
    assert list(recorded()) == [tuple(args) for args in commands()]


@pytest.mark.parametrize("args", commands(), ids=" ".join)
def test_cli_output_matches_the_recording(args):
    assert run(args) == recorded()[tuple(args)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run(args) for args in commands()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} commands to {GOLDEN}")
