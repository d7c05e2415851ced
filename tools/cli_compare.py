"""Run every command of ``cli_commands.txt`` against two checkouts and compare
the bytes: exit code, stdout, stderr and the ``--out`` file.

One side is the working tree's ``src/``; the other is ``src/`` as committed
at ``--parent``, unpacked with ``git archive`` into a temporary directory
that is removed at the end.  Each command runs in a fresh interpreter, so
import-time and per-process state (hash seeds, caches) count as they do
for a user.  Exit status 0 means every command matched, 1 that at least one
differed.

    python tools/cli_compare.py --parent HEAD~1

Two commands run at a time, and the first three that differ are printed.
A line of the command list holds the arguments after ``planeperm``, quoted
as in a POSIX shell; ``{out}`` stands for a file path, the same on both
sides, whose contents are compared after the command, and ``{in}`` for
the committed ``distance_inputs.txt`` beside this script, read by
``distance --in``.  Blank lines and lines starting with ``#`` are skipped.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = Path(__file__).resolve().parent / "cli_commands.txt"
INPUTS = Path(__file__).resolve().parent / "distance_inputs.txt"
WORKERS = 2
SHOWN = 3
RUNNER = "import sys; from planeperm.cli import main; main(sys.argv[1:], prog_name='planeperm')"


def read_commands() -> list[list[str]]:
    """The argument lists of the command list, one per non-blank, non-comment line."""
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def unpack_src(rev: str, into: Path) -> Path:
    """``src/`` as committed at ``rev``, unpacked below ``into``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def run_once(src: Path, args: list[str], workdir: Path) -> tuple:
    """(exit code, stdout, stderr, ``--out`` bytes or None) of one fresh process."""
    out = workdir / "out.txt"
    out.unlink(missing_ok=True)
    paths = {"{out}": str(out), "{in}": str(INPUTS)}
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, *(paths.get(a, a) for a in args)],
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
    )
    return done.returncode, done.stdout, done.stderr, out.read_bytes() if out.exists() else None


def differences(parent: tuple, current: tuple) -> list[str]:
    """A readable line per field that differs, with a short unified diff."""
    found = []
    for field, old, new in zip(("exit code", "stdout", "stderr", "--out file"), parent, current):
        if old == new:
            continue
        if isinstance(old, bytes) and isinstance(new, bytes):
            diff = difflib.unified_diff(
                old.decode(errors="replace").splitlines(),
                new.decode(errors="replace").splitlines(),
                "parent", "current", lineterm="", n=1,
            )
            found.append(f"  {field} differs:\n" + "\n".join(f"    {d}" for d in list(diff)[:12]))
        else:
            found.append(f"  {field}: parent {old!r}, current {new!r}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    opts = parser.parse_args()
    commands = read_commands()
    with tempfile.TemporaryDirectory(prefix="cli-compare-") as tmp:
        tmp = Path(tmp)
        parent_src = unpack_src(opts.parent, tmp / "parent")

        def compare(item: tuple[int, list[str]]) -> list[str]:
            index, args = item
            workdir = tmp / f"run-{index}"
            workdir.mkdir()
            parent = run_once(parent_src, args, workdir)
            current = run_once(ROOT / "src", args, workdir)
            return differences(parent, current)

        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(compare, enumerate(commands)))
    differing = [(args, found) for args, found in zip(commands, results) if found]
    print(f"{len(commands)} commands, {len(differing)} differ (parent {opts.parent})")
    for args, found in differing[:SHOWN]:
        print("planeperm " + shlex.join(args))
        print("\n".join(found))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
