"""Command line for plane-permutation distances, counts, and checks."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import click

from . import distances, enumeration
from .partitions import Partition, stirling_first
from .report import VerifyReport
from .serialize import schema_id, to_csv, to_json


@dataclass
class Settings:
    fmt: str
    jobs: int
    seed: int
    cap: int
    allow_large: bool
    out: str | None

    def emit(self, text: str) -> None:
        if self.out:
            with open(self.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)


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
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the sampled checks.")
@click.option(
    "--cap",
    type=int,
    default=distances.DEFAULT_BFS_CAP,
    show_default=True,
    help="State cap for the breadth-first search oracles.",
)
@click.option("--allow-large", is_flag=True, help="Lift the default size limits where supported.")
@click.option(
    "--out",
    type=click.Path(dir_okay=False, writable=True),
    help="Write the output to a file instead of stdout.",
)
@click.pass_context
def main(ctx, fmt, jobs, seed, cap, allow_large, out) -> None:
    """Distances, count tables, and verification for plane permutations.

    Exit codes: 0 all good, 1 a verification failed, 2 bad usage or input,
    3 a size or search cap was exceeded.
    """
    ctx.obj = Settings(fmt, jobs, seed, cap, allow_large, out)


def _run(thunk):
    """Evaluate, mapping resource-cap errors to exit code 3."""
    try:
        return thunk()
    except (distances.SearchCapExceeded, enumeration.EnumerationLimitError) as err:
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
    "--in",
    "in_file",
    type=click.Path(exists=True, dir_okay=False),
    help="Also read permutations from a file, one per line.",
)
@click.pass_obj
def distance(settings: Settings, kind, inputs, scenario, oracle, in_file) -> None:
    """Distance or lower bound for each INPUT permutation.

    Signed kinds (rev-lb, rev-bp) want entries like '-3 +1 +2'; put a
    ``--`` before a literal that starts with a minus.
    """
    texts = list(inputs)
    if in_file:
        with open(in_file, encoding="utf-8") as fh:
            texts.extend(line.strip() for line in fh if line.strip())
    if not texts:
        raise click.UsageError("no permutations given; pass them as arguments or via --in")
    if scenario and kind not in ("bid", "rev-lb"):
        raise click.UsageError("--scenario applies to 'bid' and 'rev-lb' only")
    records = [
        _run(lambda t=t: _distance_record(kind, t, scenario, oracle, settings.cap))
        for t in texts
    ]
    if settings.fmt == "json":
        text = to_json({"schema": schema_id("distance"), "records": records})
    elif settings.fmt == "csv":
        rows = [
            (r["kind"], r["input"], r["value"], r.get("oracle"), r.get("match"))
            for r in records
        ]
        text = to_csv("distance", ("kind", "input", "value", "oracle", "match"), rows)
    else:
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
        text = "\n".join(lines) + "\n"
    settings.emit(text)
    if oracle and not all(r["match"] for r in records):
        sys.exit(1)


# -- enumerate ----------------------------------------------------------


def _enumerate_values(kind: str, n: int, lam: Partition | None, allow_large: bool) -> dict[int, int]:
    if kind == "xi":
        return {k: enumeration.xi(n, k) for k in range(1, n + 1) if enumeration.xi(n, k)}
    if kind == "stirling":
        return {k: stirling_first(n, k) for k in range(1, n + 1)}
    if kind == "bid-k":
        return {k: distances.bid_count(n, k) for k in range(n // 2 + 1)}
    table = enumeration.tabulate(n, lam, allow_large=allow_large)
    return {k: table.p_k(k) for k in range(1, n + 1)}


@main.command(name="enumerate")
@click.argument("kind", type=click.Choice(("xi", "stirling", "pk-lambda", "bid-k")))
@click.argument("n", type=int)
@click.option("--lam", help="Diagonal cycle type for pk-lambda, e.g. '2+1' or '1^2 2^1'.")
@click.pass_obj
def enumerate_cmd(settings: Settings, kind, n, lam) -> None:
    """Count tables at size N, one value per k."""
    if n < 1:
        raise click.UsageError("N must be positive")
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
    values = _run(lambda: _enumerate_values(kind, n, lam_p, settings.allow_large))
    shown_lam = str(lam_p) if lam_p else None
    if settings.fmt == "json":
        text = to_json(
            {
                "schema": schema_id("enumerate"),
                "kind": kind,
                "n": n,
                "lam": shown_lam,
                "values": values,
            }
        )
    elif settings.fmt == "csv":
        rows = [(kind, n, shown_lam, k, v) for k, v in values.items()]
        text = to_csv("enumerate", ("kind", "n", "lam", "k", "value"), rows)
    else:
        head = f"{kind} n={n}" + (f" lam={shown_lam}" if shown_lam else "")
        lines = [head] + [f"k={k} {v}" for k, v in values.items()]
        text = "\n".join(lines) + "\n"
    settings.emit(text)


# -- verify and conjecture ----------------------------------------------


def _emit_report(settings: Settings, kind: str, head: dict, report: VerifyReport) -> None:
    """Print a report; exit 1 if it failed, and 2 if it checked nothing at all."""
    if not report.checked:
        raise click.UsageError(f"{report.name} checks nothing; pick a larger N")
    if settings.fmt == "json":
        text = to_json({"schema": schema_id(kind), **head, **report.to_json_obj()})
    elif settings.fmt == "csv":
        columns = (*head.keys(), "passed", "checked", "failure_count")
        rows = [(*head.values(), report.passed, report.checked, report.failure_count)]
        text = to_csv(kind, columns, rows)
    else:
        lines = [report.summary_line()]
        lines.extend(f"  {key}={value}" for key, value in report.info.items())
        lines.extend(f"  fail {message}" for message in report.failures)
        text = "\n".join(lines) + "\n"
    settings.emit(text)
    if not report.passed:
        sys.exit(1)


SUITE_RUNNERS: dict[str, Callable[[int, Settings], VerifyReport]] = {
    "ntae-identity": lambda n, s: enumeration.suite_ntae_identity(n),
    "f-recurrence": lambda n, s: enumeration.suite_f_recurrence(n),
    "cycle-recurrence": lambda n, s: enumeration.suite_cycle_recurrence(n),
    "stirling": lambda n, s: enumeration.verify_stirling_recurrence(n),
    "zagier-stanley": lambda n, s: enumeration.suite_zagier_stanley(n),
    "trisection": lambda n, s: enumeration.suite_trisection(n, jobs=s.jobs),
    "bijection": lambda n, s: enumeration.suite_bijection(n, jobs=s.jobs),
    "exceedance": lambda n, s: enumeration.suite_exceedance(n),
    "p1": lambda n, s: enumeration.suite_p1(n),
    "w-identities": lambda n, s: enumeration.suite_w_identities(n),
    "bid-oracle": lambda n, s: distances.suite_bid_oracle(n, cap=s.cap),
    "rev-oracle": lambda n, s: distances.suite_rev_oracle(n, cap=s.cap, allow_large=s.allow_large),
    "td-oracle": lambda n, s: distances.suite_td_oracle(n, cap=s.cap),
    "max-gap": lambda n, s: distances.suite_max_gap(n, seed=s.seed),
}


@main.command()
@click.argument("suite", type=click.Choice(tuple(SUITE_RUNNERS)))
@click.argument("n", type=click.IntRange(min=1))
@click.pass_obj
def verify(settings: Settings, suite, n) -> None:
    """Run one verification suite at sizes up to N."""
    report = _run(lambda: SUITE_RUNNERS[suite](n, settings))
    _emit_report(settings, "verify", {"suite": suite, "n": n}, report)


@main.command()
@click.argument("which", type=click.Choice(("same-cycle-exact", "same-cycle-all")))
@click.argument("n", type=click.IntRange(min=1))
@click.pass_obj
def conjecture(settings: Settings, which, n) -> None:
    """Scan signed permutations of size N for same-cycle counterexamples."""
    report = _run(
        lambda: distances.conjecture_scan(n, which, allow_large=settings.allow_large)
    )
    _emit_report(settings, "conjecture", {"which": which, "n": n}, report)
