"""Command line for plane-permutation distances, counts, and checks."""

from __future__ import annotations

import io
import os
import sys
from dataclasses import dataclass

import click

from . import distances, enumeration
from .partitions import Partition, stirling_first
from .report import EnumerationLimitError, NothingToCheck, VerifyReport, size_gate
from .serialize import schema_id, to_csv, to_json


@dataclass
class Settings:
    fmt: str
    jobs: int
    out: str | None

    def emit(self, kind: str, record: dict, columns, rows, lines) -> None:
        """Render ``record`` plus its schema as json, ``columns`` over ``rows``
        as csv, or ``lines`` as text, and write it to ``--out`` or stdout."""
        if self.fmt == "json":
            text = to_json({"schema": schema_id(kind), **record})
        elif self.fmt == "csv":
            text = to_csv(kind, columns, rows)
        else:
            text = "\n".join(lines) + "\n"
        if self.out:
            with open(self.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)


def _out_path(ctx, param, value: str | None) -> str | None:
    """Refuse a file in a missing directory before any suite runs."""
    if value and not os.path.isdir(os.path.dirname(os.path.abspath(value))):
        raise click.BadParameter(f"directory of {value!r} does not exist")
    return value


@click.group()
@click.option(
    "--format",
    "fmt",
    type=click.Choice(("text", "json", "csv")),
    default="text",
    show_default=True,
    help="Output rendering.",
)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True, help="Worker processes for the big sweeps.")
@click.option(
    "--out",
    type=click.Path(dir_okay=False, writable=True),
    callback=_out_path,
    help="Write the output to a file instead of stdout.",
)
@click.pass_context
def main(ctx, fmt, jobs, out) -> None:
    """Distances, count tables, and verification for plane permutations.

    Exit codes: 0 all good, 1 a verification failed, 2 bad usage or input,
    3 a size or search cap was exceeded.
    """
    ctx.obj = Settings(fmt, jobs, out)


def _run(thunk):
    """Evaluate, mapping resource-cap errors to exit code 3, and a size with
    nothing to check to a usage error."""
    try:
        return thunk()
    except NothingToCheck as err:
        raise click.UsageError(str(err))
    except (distances.SearchCapExceeded, EnumerationLimitError) as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(3)


# -- distance -----------------------------------------------------------

_ORACLE_FAMILY = {
    "bid": "block_interchanges",
    "td-lb": "transpositions",
    "rev-lb": "reversals",
    "rev-bp": "reversals",
}


def _distance_record(kind: str, text: str, scenario: bool, oracle: bool, cap: int) -> dict:
    signed = kind in ("rev-lb", "rev-bp")
    try:
        seq = distances.parse_signed(text) if signed else distances.parse_unsigned(text)
    except ValueError as err:
        raise click.UsageError(f"{text!r}: {err}")
    shown = distances.format_signed(seq) if signed else " ".join(str(v) for v in seq)
    record: dict = {"kind": kind, "input": shown}
    if kind == "bid":
        record["value"] = distances.bid(seq)
        if scenario:
            record["steps"] = [str(move) for move in distances.bid_sort(seq)]
    elif kind == "td-lb":
        record["value"] = distances.td_lower_bound(seq)
    elif kind == "rev-lb":
        record["value"] = distances.rev_lower_bound(seq)
        if scenario:
            result = distances.greedy_reversal_sort(seq)
            record["steps"] = [str(move) for move in result.steps]
            record["sorted"] = result.sorted
            if not result.sorted:
                record["final"] = distances.format_signed(result.final)
    else:
        record["value"] = distances.breakpoint_bound(seq)
    if oracle:
        goal = distances.sorted_sequence(len(seq))
        actual = distances.bfs_distance(seq, goal, _ORACLE_FAMILY[kind], cap)
        record["oracle"] = actual
        # bid is exact; the other three only promise a lower bound
        record["match"] = record["value"] == actual if kind == "bid" else record["value"] <= actual
    return record


@main.command()
@click.argument("kind", type=click.Choice(("bid", "td-lb", "rev-lb", "rev-bp")))
@click.argument("inputs", nargs=-1)
@click.option("--scenario", is_flag=True, help="Show the sorting steps (bid and rev-lb only).")
@click.option("--oracle", is_flag=True, help="Compare against a breadth-first search.")
@click.option(
    "--cap",
    type=click.IntRange(min=1),
    default=distances.DEFAULT_BFS_CAP,
    show_default=True,
    help="State cap for the --oracle search.",
)
@click.option(
    "--in",
    "in_file",
    type=click.Path(exists=True, dir_okay=False),
    help="Also read permutations from a file, one per line.",
)
@click.pass_obj
def distance(settings: Settings, kind, inputs, scenario, oracle, cap, in_file) -> None:
    """Distance or lower bound for each INPUT permutation.

    Signed kinds (rev-lb, rev-bp) want entries like '-3 +1 +2'; put a
    ``--`` before a literal that starts with a minus.
    """
    texts = list(inputs)
    if in_file:
        with open(in_file, "rb") as fh:
            data = fh.read()
        try:  # decoded whole, so the offset counts from the file's first byte, mark included
            lines = io.StringIO(data.decode("utf-8-sig"), newline=None)
        except UnicodeDecodeError as err:
            at = err.start + (3 if data.startswith(b"\xef\xbb\xbf") else 0)
            raise click.UsageError(f"{in_file!r} is not UTF-8 text: {err.reason} at byte {at}")
        texts.extend(line.strip() for line in lines if line.strip())
    if not texts:
        raise click.UsageError("no permutations given; pass them as arguments or via --in")
    if scenario and kind not in ("bid", "rev-lb"):
        raise click.UsageError("--scenario applies to 'bid' and 'rev-lb' only")
    cap_source = click.get_current_context().get_parameter_source("cap")
    if cap_source is not click.core.ParameterSource.DEFAULT and not oracle:
        raise click.UsageError("--cap applies with --oracle only")
    records = [_run(lambda: _distance_record(kind, t, scenario, oracle, cap)) for t in texts]
    rows = [
        (r["kind"], r["input"], r["value"], r.get("oracle"), r.get("match"))
        for r in records
    ]
    lines = []
    for r in records:
        lines.append(f"{r['kind']} {r['input']} -> {r['value']}")
        lines.extend(f"  step {step}" for step in r.get("steps", ()))
        if r.get("sorted") is False:
            lines.append(f"  stuck at {r['final']}")
        if "oracle" in r:
            lines.append(
                f"  oracle {r['oracle']} {'match' if r['match'] else 'MISMATCH'}"
            )
    columns = ("kind", "input", "value", "oracle", "match")
    settings.emit("distance", {"records": records}, columns, rows, lines)
    if oracle and not all(r["match"] for r in records):
        sys.exit(1)


# -- enumerate ----------------------------------------------------------


def _enumerate_values(kind: str, n: int, lam: Partition | None) -> dict[int, int]:
    if kind == "pk-lambda":
        table = enumeration.tabulate(n, lam)
        return {k: table.p_k(k) for k in range(1, n + 1)}
    size_gate(f"enumerate {kind}", n, 1000)
    if kind == "xi":
        return {k: v for k in range(1, n + 1) if (v := enumeration.xi(n, k))}
    if kind == "stirling":
        return {k: stirling_first(n, k) for k in range(1, n + 1)}
    return {k: distances.bid_count(n, k) for k in range(n // 2 + 1)}


@main.command(name="enumerate")
@click.argument("kind", type=click.Choice(("xi", "stirling", "pk-lambda", "bid-k")))
@click.argument("n", type=click.IntRange(min=1))
@click.option("--lam", help="Diagonal cycle type for pk-lambda, e.g. '2+1' or '1^2 2^1'.")
@click.pass_obj
def enumerate_cmd(settings: Settings, kind, n, lam) -> None:
    """Count tables at size N, one value per k."""
    lam_p = None
    if kind == "pk-lambda":
        if not lam:
            raise click.UsageError("pk-lambda needs --lam")
        try:
            lam_p = Partition.from_string(lam)
        except ValueError as err:
            raise click.UsageError(str(err))
        if lam_p.n != n:
            raise click.UsageError(f"--lam {lam!r} is not a partition of {n}")
    elif lam:
        raise click.UsageError("--lam only applies to pk-lambda")
    values = _run(lambda: _enumerate_values(kind, n, lam_p))
    shown_lam = str(lam_p) if lam_p else None
    record = {
        "kind": kind,
        "n": n,
        "lam": shown_lam,
        "values": values,
    }
    rows = [(kind, n, shown_lam, k, v) for k, v in values.items()]
    head = f"{kind} n={n}" + (f" lam={shown_lam}" if shown_lam else "")
    lines = [head] + [f"k={k} {v}" for k, v in values.items()]
    settings.emit("enumerate", record, ("kind", "n", "lam", "k", "value"), rows, lines)


# -- verify and conjecture ----------------------------------------------


def _emit_report(settings: Settings, kind: str, head: dict, report: VerifyReport) -> None:
    """Print a report, and exit 1 if it failed."""
    columns = (*head.keys(), "passed", "checked", "failure_count")
    rows = [(*head.values(), report.passed, report.checked, report.failure_count)]
    lines = [report.summary_line()]
    lines.extend(f"  {key}={value}" for key, value in report.info.items())
    lines.extend(f"  fail {message}" for message in report.failures)
    settings.emit(kind, {**head, **report.to_json_obj()}, columns, rows, lines)
    if not report.passed:
        sys.exit(1)


# In the order that the usage text lists them.
SUITES = {
    s.name: s
    for s in (
        enumeration.suite_ntae_identity, enumeration.suite_f_recurrence,
        enumeration.suite_cycle_recurrence, enumeration.verify_stirling_recurrence,
        enumeration.suite_zagier_stanley, enumeration.suite_trisection,
        enumeration.suite_bijection, enumeration.suite_exceedance, enumeration.suite_p1,
        enumeration.suite_w_identities, distances.suite_bid_oracle, distances.suite_rev_oracle,
        distances.suite_td_oracle, distances.suite_max_gap,
    )
}


@main.command()
@click.argument("suite", type=click.Choice(tuple(SUITES)))
@click.argument("n", type=click.IntRange(min=1))
@click.pass_obj
def verify(settings: Settings, suite, n) -> None:
    """Run one verification suite at sizes up to N."""
    report = _run(lambda: SUITES[suite].run(n, settings.jobs))
    _emit_report(settings, "verify", {"suite": suite, "n": n}, report)


@main.command()
@click.argument("which", type=click.Choice(("same-cycle-exact", "same-cycle-all")))
@click.argument("n", type=click.IntRange(min=1))
@click.pass_obj
def conjecture(settings: Settings, which, n) -> None:
    """Scan signed permutations of size N for same-cycle counterexamples."""
    report = _run(lambda: distances.conjecture_scan(n, which))
    _emit_report(settings, "conjecture", {"which": which, "n": n}, report)
