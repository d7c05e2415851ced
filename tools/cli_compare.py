"""Run every command of ``cli_commands.txt`` in a fresh interpreter and compare
its bytes with ``cli_recording.json``: exit code, stdout, stderr and the
``--out`` file.

    python tools/cli_compare.py            # compare the working tree
    python tools/cli_compare.py --record   # rewrite the recording

Each command runs on the working tree's ``src/`` with ``COLUMNS=80``, so
import-time and per-process state (hash seeds, caches) count as they do for
a user, and a narrow terminal does not rewrap the usage texts.  Exit status
0 means every command matched the recording, 1 that at least one differed.
A change that means to alter output records again, so the diff of the
recording shows what changed.

Two commands run at a time, and the first three that differ are printed.
A line of the command list holds the arguments after ``planeperm``, quoted
as in a POSIX shell; ``{out}`` stands for a file path whose contents are
recorded after the command, and ``{in}`` for the committed
``distance_inputs.txt`` beside this script, read by ``distance --in``.
Blank lines and lines starting with ``#`` are skipped.  A stream longer
than ``VERBATIM_LIMIT`` bytes is recorded as its SHA-256 and length, the
rest verbatim.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = Path(__file__).resolve().parent / "cli_commands.txt"
INPUTS = Path(__file__).resolve().parent / "distance_inputs.txt"
RECORDING = Path(__file__).resolve().parent / "cli_recording.json"
VERBATIM_LIMIT = 64 * 1024
WORKERS = 2
SHOWN = 3
RUNNER = "import sys; from planeperm.cli import main; main(sys.argv[1:], prog_name='planeperm')"


def read_commands() -> list[list[str]]:
    """The argument lists of the command list, one per non-blank, non-comment line."""
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def resolve(args: list[str], out: Path) -> list[str]:
    """``args`` with ``{out}`` replaced by ``out`` and ``{in}`` by the inputs file."""
    paths = {"{out}": str(out), "{in}": str(INPUTS)}
    return [paths.get(a, a) for a in args]


def pin(data: bytes | None) -> str | dict | None:
    """How a stream is recorded: verbatim text, or SHA-256 and length when long."""
    if data is None or len(data) <= VERBATIM_LIMIT:
        return None if data is None else data.decode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def entry(args: list[str], exit_code: int, stdout: bytes, stderr: bytes, out: Path) -> dict:
    """The recording's entry for one finished command; ``out`` is its ``{out}`` path."""
    return {
        "args": args,
        "exit_code": exit_code,
        "stdout": pin(stdout),
        "stderr": pin(stderr),
        "out": pin(out.read_bytes() if out.exists() else None),
    }


def run_fresh(args: list[str], workdir: Path) -> dict:
    """The entry of ``args`` run in a fresh interpreter inside ``workdir``."""
    out = workdir / "out.txt"
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, *resolve(args, out)],
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"},
        capture_output=True,
    )
    return entry(args, done.returncode, done.stdout, done.stderr, out)


def differences(recorded: dict | None, current: dict) -> list[str]:
    """A readable line per field that differs, with a short unified diff."""
    if recorded is None:
        return ["  not in the recording"]
    found = []
    for field in ("exit_code", "stdout", "stderr", "out"):
        old, new = recorded[field], current[field]
        if old == new:
            continue
        if isinstance(old, str) and isinstance(new, str):
            diff = difflib.unified_diff(
                old.splitlines(), new.splitlines(), "recorded", "current", lineterm="", n=1
            )
            found.append(f"  {field} differs:\n" + "\n".join(f"    {d}" for d in list(diff)[:12]))
        else:
            found.append(f"  {field}: recorded {old!r}, current {new!r}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--record", action="store_true", help=f"rewrite {RECORDING.name}")
    opts = parser.parse_args()
    commands = read_commands()
    with tempfile.TemporaryDirectory(prefix="cli-compare-") as tmp:

        def run(item: tuple[int, list[str]]) -> dict:
            index, args = item
            workdir = Path(tmp) / f"run-{index}"
            workdir.mkdir()
            return run_fresh(args, workdir)

        with ThreadPoolExecutor(WORKERS) as pool:
            current = list(pool.map(run, enumerate(commands)))
    if opts.record:
        RECORDING.write_text(json.dumps(current, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"recorded {len(current)} commands in {RECORDING.relative_to(ROOT)}")
        return 0
    recorded = {tuple(e["args"]): e for e in json.loads(RECORDING.read_text(encoding="utf-8"))}
    differing = [
        (e["args"], found) for e in current if (found := differences(recorded.get(tuple(e["args"])), e))
    ]
    print(f"{len(commands)} commands, {len(differing)} differ")
    for args, found in differing[:SHOWN]:
        print("planeperm " + shlex.join(args))
        print("\n".join(found))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
