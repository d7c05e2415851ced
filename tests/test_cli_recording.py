"""Command-line bytes: every command of ``tools/cli_commands.txt`` replayed in
process and compared with ``tools/cli_recording.json`` (exit code, stdout,
stderr and the ``--out`` file).

The recording holds fresh-process bytes, written by
``python tools/cli_compare.py --record``.  Invoked with the program name and
help width of a real process on an 80-column terminal, ``CliRunner`` gives
the same bytes for every listed command.  The commands in ``SLOW`` are left
to ``python tools/cli_compare.py``, which runs the whole list in fresh
processes.
"""

import importlib.util
import json
import shlex
from functools import cache
from pathlib import Path

import pytest
from click.testing import CliRunner

import planeperm.cli as cli
from planeperm.cli import main

CLI_COMPARE = Path(__file__).resolve().parent.parent / "tools" / "cli_compare.py"

# Each of these takes 0.3-8 s in process on a 2-core host; together they are
# about 90% of the list's in-process time.
SLOW = frozenset(
    prefix + command
    for command in (
        "verify bijection 6",
        "verify trisection 4",
        "verify rev-oracle 6",
        "verify max-gap 6",
        "verify stirling 240",
        "verify td-oracle 8",
        "conjecture same-cycle-all 6",
    )
    for prefix in ("", "--format json ", "--format csv ")
)


def load_tool():
    # Loaded, not run: the comparison itself starts hundreds of processes.
    spec = importlib.util.spec_from_file_location("cli_compare", CLI_COMPARE)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


tool = load_tool()
COMMANDS = tool.read_commands()


@cache
def recording() -> list[dict]:
    return json.loads(tool.RECORDING.read_text(encoding="utf-8"))


@cache
def recorded() -> dict[tuple[str, ...], dict]:
    return {tuple(e["args"]): e for e in recording()}


def test_recording_lists_the_commands_in_order():
    assert [e["args"] for e in recording()] == COMMANDS


def test_slow_commands_are_listed():
    assert SLOW <= {shlex.join(args) for args in COMMANDS}


def test_no_recorded_command_raised():
    for e in recording():
        assert e["exit_code"] in (0, 1, 2, 3), e["args"]
        assert "Traceback" not in (e["stderr"] if isinstance(e["stderr"], str) else ""), e["args"]


def test_long_streams_are_recorded_by_digest():
    limit = tool.VERBATIM_LIMIT
    assert tool.pin(b"x" * limit) == "x" * limit
    assert tool.pin(b"x" * (limit + 1)) == {
        "sha256": "1abe08ebecf1c18cab71f6fe28aaddf20268f85bad78bb9a72f88ca47c874662",
        "bytes": limit + 1,
    }
    assert tool.pin(None) is None


def test_byte_comparison_list_covers_every_command():
    commands = [tuple(args) for args in COMMANDS]
    assert len(commands) == len(set(commands))
    named = {(c[i], c[i + 1]) for c in commands for i in range(len(c) - 1)}
    for suite in cli.SUITES:
        assert ("verify", suite) in named, suite
    # a gate or floor that moves in the registry shows in the recording's diff
    for name, suite in cli.SUITES.items():
        assert ("verify", name, str(suite.gate + 1)) in commands, name
        if suite.floor > 1:
            assert ("verify", name, str(suite.floor - 1)) in commands, name
    for which in ("same-cycle-exact", "same-cycle-all"):
        assert ("conjecture", which) in named, which
    assert all(a in ("{out}", "{in}") for c in commands for a in c if "{" in a)
    assert {c[c.index("{in}") - 1] for c in commands if "{in}" in c} == {"--in"}
    # the --in file keeps a blank line, a line with surrounding spaces and a CRLF line
    lines = tool.INPUTS.read_bytes().split(b"\n")
    assert {b"", b"  2 4 1 3  ", b"4 3 2 1\r"} <= set(lines[:-1])


@pytest.mark.parametrize(
    "args", [a for a in COMMANDS if shlex.join(a) not in SLOW], ids=shlex.join
)
def test_cli_output_matches_the_recording(args, tmp_path, monkeypatch):
    # an empty working directory, as the recorder gives each fresh process
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.txt"
    # an uncaught exception propagates and fails the test: every command ends by exit
    result = CliRunner().invoke(
        main, tool.resolve(args, out), prog_name="planeperm", terminal_width=78, catch_exceptions=False
    )
    current = tool.entry(args, result.exit_code, result.stdout_bytes, result.stderr_bytes, out)
    assert current == recorded()[tuple(args)]
