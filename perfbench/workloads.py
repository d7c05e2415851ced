"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Each workload is a fixed population of operations.  One operation is one
request to the library that ends in a checked answer (a verdict): a distance
query in ``queries``, one suite call, count table or sorting scenario in the
others.  Inputs are built from the seed before the clock starts, the
operations run back to back (a closed loop with one caller), and the checks
run after the last operation, outside the timed region and outside any trace.

Operations call the library through module attributes (``distances.bid``,
never a name imported from it), so the wrappers that ``tracing`` installs on
those attributes see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from planeperm import cli, distances, enumeration, partitions, plane
from planeperm.perm import Permutation

# Query digests recorded per seed; a seed listed here must reproduce its
# digest, so any change to a returned value shows as a failed check.
with open(Path(__file__).with_name("digests.json"), encoding="utf-8") as _fh:
    KNOWN_DIGESTS: dict[str, str] = json.load(_fh)

# Pinned populations.  None of these depends on the seed.
SWEEP_INVARIANT_CHECKS = 156088
SWEEP_TRISECTION_CHECKS = 77419
SWEEP_TABULATED_ROWS = 110880
SURGERY_BIJECTION_CHECKS = 47734
SURGERY_BIJECTION_Y1 = 11928
SURGERY_CONJECTURE_INSTANCES = 1920
ORACLE_RUNS = (
    (("verify", "rev-oracle", "5"), 4282),
    (("verify", "td-oracle", "7"), 5913),
    (("verify", "bid-oracle", "6"), 1767),
)
DETERMINISM_RUNS = (("verify", "bijection", "5"), ("verify", "trisection", "3"))

# A child runs its population in a few seconds, so that a run holds several
# children and the medians over them settle.
RANDOM_PLANE_BATCHES, RANDOM_PLANE_BATCH = 20, 1000
TABULATE_N = 8
BIJECTION_N = 7
GREEDY_BATCH, GREEDY_N = 10, 100
CONJECTURE_N = 5
QUERY_COUNT, QUERY_N, QUERY_LARGE_N = 500, 300, 1000


@dataclass
class Tally:
    """Checks made on one child's outputs.

    ``attempted`` and ``failed`` count the library's own checks (the
    ``checked`` and ``failure_count`` of every returned report) plus the
    benchmark's checks (one per pin, query, scenario or comparison).
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def report(self, rep, what: str) -> None:
        """Count a library report's own checks, then demand that it passed."""
        self.attempted += rep.checked
        self.failed += rep.failure_count
        self.check(rep.passed, f"{what} failed: {rep.summary_line()}")


@dataclass
class Op:
    """One timed request; ``run`` returns what the checks read."""

    label: str
    run: Callable[[], Any]


@dataclass
class Workload:
    ops: list[Op]
    verify: Callable[[list[Any], Tally], None]


def derived_rng(seed: int, part: str) -> random.Random:
    """A generator for one seeded part of a workload; string seeds hash with
    SHA-512, so the stream does not depend on ``PYTHONHASHSEED``."""
    return random.Random(f"{seed}:{part}")


def random_signed(rng: random.Random, n: int) -> tuple[int, ...]:
    values = rng.sample(range(1, n + 1), n)
    return tuple(v if rng.random() < 0.5 else -v for v in values)


def run_cli(args: tuple[str, ...]) -> tuple[int, str]:
    """``planeperm ARGS`` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            cli.main(list(args), standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


# -- sweep ------------------------------------------------------------------


def pairings(items: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """Every perfect matching of ``items``, each as a tuple of pairs."""
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    return [
        ((first, partner), *tail)
        for i, partner in enumerate(rest)
        for tail in pairings(rest[:i] + rest[i + 1 :])
    ]


def sweep(seed: int) -> Workload:
    rng = derived_rng(seed, "invariant-planes")
    plane_seeds = [rng.randrange(2**32) for _ in range(RANDOM_PLANE_BATCHES)]
    # Every matching on 2, 4 and 6 points, and the 15 matchings on 8 points
    # that pair 0 with 1.
    matchings = [
        Permutation.from_cycles(pairs)
        for m in range(1, 4)
        for pairs in pairings(tuple(range(2 * m)))
    ]
    matchings += [
        Permutation.from_cycles(((0, 1), *tail)) for tail in pairings(tuple(range(2, 8)))
    ]
    lams = list(partitions.partitions_of(TABULATE_N))
    ops = [Op("invariant_sweep exhaustive", lambda: plane.invariant_sweep(5))]
    ops += [
        Op(
            f"invariant_sweep random {i}",
            lambda s=s: plane.invariant_sweep(
                0, random_cases=RANDOM_PLANE_BATCH, random_n=12, seed=s
            ),
        )
        for i, s in enumerate(plane_seeds)
    ]
    ops += [
        Op(f"verify_trisection {d.cycles()}", lambda d=d: enumeration.verify_trisection(d))
        for d in matchings
    ]
    ops += [
        Op(f"tabulate {lam}", lambda lam=lam: enumeration.tabulate(TABULATE_N, lam))
        for lam in lams
    ]

    def verify(results: list[Any], tally: Tally) -> None:
        sweeps = results[: 1 + len(plane_seeds)]
        trisections = results[len(sweeps) : len(sweeps) + len(matchings)]
        tables = results[len(sweeps) + len(matchings) :]
        for rep in sweeps:
            tally.report(rep, "invariant_sweep")
        checked = sum(rep.checked for rep in sweeps)
        tally.check(
            checked == SWEEP_INVARIANT_CHECKS,
            f"invariant_sweep checked={checked}, want {SWEEP_INVARIANT_CHECKS}",
        )
        for rep in trisections:
            tally.report(rep, "verify_trisection")
        tri_checked = sum(rep.checked for rep in trisections)
        tally.check(
            tri_checked == SWEEP_TRISECTION_CHECKS,
            f"trisection checked={tri_checked}, want {SWEEP_TRISECTION_CHECKS}",
        )
        rows = sum(t.total() for t in tables)
        tally.check(
            rows == SWEEP_TABULATED_ROWS,
            f"tabulated {rows} rows, want {SWEEP_TABULATED_ROWS}",
        )
        # Over every diagonal D, each of the (n-1)! top rows pairs with every
        # bottom permutation exactly once, so the class-weighted counts by
        # bottom cycle number are (n-1)! times the Stirling numbers.
        n = TABULATE_N
        for k in range(1, n + 1):
            got = sum(partitions.q_lambda(lam) * t.p_k(k) for lam, t in zip(lams, tables))
            want = math.factorial(n - 1) * partitions.stirling_first(n, k)
            tally.check(got == want, f"tabulate k={k}: weighted {got}, want {want}")
        tally.notes["invariant_checks"] = checked
        tally.notes["trisection_checks"] = tri_checked
        tally.notes["tabulated_rows"] = rows

    return Workload(ops, verify)


# -- surgery ----------------------------------------------------------------


def surgery(seed: int) -> Workload:
    diagonals = [
        Permutation.from_cycle_type(lam) for lam in partitions.partitions_of(BIJECTION_N)
    ]
    rng = derived_rng(seed, "greedy")
    batch = [random_signed(rng, GREEDY_N) for _ in range(GREEDY_BATCH)]
    ops = [
        Op(f"verify_bijection {d.cycle_type()}", lambda d=d: enumeration.verify_bijection(d))
        for d in diagonals
    ]
    ops += [
        Op(f"greedy_reversal_sort {i}", lambda a=a: distances.greedy_reversal_sort(a))
        for i, a in enumerate(batch)
    ]
    ops.append(
        Op(
            "conjecture_scan",
            lambda: distances.conjecture_scan(CONJECTURE_N, "same-cycle-exact"),
        )
    )

    def verify(results: list[Any], tally: Tally) -> None:
        bijections = results[: len(diagonals)]
        scenarios, conjecture = results[len(diagonals) : -1], results[-1]
        for d, rep in zip(diagonals, bijections):
            tally.report(rep, f"verify_bijection {d.cycle_type()}")
        checked = sum(rep.checked for rep in bijections)
        y1 = sum(rep.info["y1"] for rep in bijections)
        tally.check(
            checked == SURGERY_BIJECTION_CHECKS,
            f"bijection checked={checked}, want {SURGERY_BIJECTION_CHECKS}",
        )
        tally.check(y1 == SURGERY_BIJECTION_Y1, f"bijection y1={y1}, want {SURGERY_BIJECTION_Y1}")
        sorted_count = 0
        for a, result in zip(batch, scenarios):
            current = a
            for move in result.steps:
                current = distances.apply_reversal(current, move)
            ok = result.start == a and current == result.final
            if result.sorted:
                sorted_count += 1
                ok = ok and len(result.steps) == distances.rev_lower_bound(a)
            tally.check(ok, f"greedy scenario does not replay: {distances.format_signed(a)}")
        tally.report(conjecture, "conjecture_scan")
        instances = conjecture.info.get("instances")
        tally.check(
            instances == SURGERY_CONJECTURE_INSTANCES,
            f"conjecture instances={instances}, want {SURGERY_CONJECTURE_INSTANCES}",
        )
        tally.notes["bijection_checks"] = checked
        tally.notes["greedy_sorted"] = f"{sorted_count}/{len(batch)}"

    return Workload(ops, verify)


# -- oracle -----------------------------------------------------------------


def oracle(seed: int) -> Workload:
    ops = [
        Op(" ".join(args), lambda args=args: run_cli(("--format", "json", "--jobs", "1", *args)))
        for args, _ in ORACLE_RUNS
    ]

    def verify(results: list[Any], tally: Tally) -> None:
        # Only the verdict and ``checked`` are pinned: ``info`` of a merged
        # report shows just its first part today, and fixing that must not
        # read as a benchmark failure.
        for (args, want), (code, text) in zip(ORACLE_RUNS, results):
            name = " ".join(args)
            try:
                record = json.loads(text)
            except ValueError:
                tally.check(False, f"{name}: output is not JSON")
                continue
            tally.attempted += record["checked"]
            tally.failed += record["failure_count"]
            tally.check(code == 0 and record["passed"], f"{name}: exit {code}, passed={record['passed']}")
            tally.check(record["checked"] == want, f"{name}: checked={record['checked']}, want {want}")
            tally.notes[name] = record["checked"]

    return Workload(ops, verify)


# -- queries ----------------------------------------------------------------


def query_batch(seed: int) -> list[tuple[int, ...]]:
    """Seeded signed permutations; every tenth is large, so the median query
    falls in the small group and the 99th percentile in the large one."""
    rng = derived_rng(seed, "queries")
    return [
        random_signed(rng, QUERY_LARGE_N if i % 10 == 9 else QUERY_N)
        for i in range(QUERY_COUNT)
    ]


def queries(seed: int) -> Workload:
    batch = query_batch(seed)

    def query(a: tuple[int, ...], magnitudes: tuple[int, ...]) -> tuple[int, int, int, int]:
        return (
            distances.bid(magnitudes),
            distances.td_lower_bound(magnitudes),
            distances.rev_lower_bound(a),
            distances.breakpoint_bound(a),
        )

    ops = [
        Op(f"query {i}", lambda a=a, m=tuple(abs(v) for v in a): query(a, m))
        for i, a in enumerate(batch)
    ]

    def verify(results: list[Any], tally: Tally) -> None:
        # The cycle bound and the breakpoint-graph bound are two independent
        # constructions of the same number.
        for a, (_, _, rev, bp) in zip(batch, results):
            tally.check(rev == bp, f"rev-lb {rev} != rev-bp {bp} at n={len(a)}")
        digest = query_digest(results)
        known = KNOWN_DIGESTS.get(str(seed))
        if known is not None:
            tally.check(digest == known, f"query digest {digest} differs from the recorded {known}")
        tally.notes["digest"] = digest

    return Workload(ops, verify)


def query_digest(results: list[tuple[int, int, int, int]]) -> str:
    """SHA-256 over every value the query batch returned, in order."""
    text = "\n".join(" ".join(map(str, values)) for values in results)
    return hashlib.sha256(text.encode()).hexdigest()


# -- outside the timed runs -------------------------------------------------


def determinism(tally: Tally) -> None:
    """JSON output must be byte-identical at ``--jobs 1`` and ``--jobs 2``."""
    for args in DETERMINISM_RUNS:
        one = run_cli(("--format", "json", "--jobs", "1", *args))
        two = run_cli(("--format", "json", "--jobs", "2", *args))
        tally.check(
            one[0] == 0 and one == two,
            f"{' '.join(args)}: --jobs 1 and --jobs 2 differ (exit {one[0]} vs {two[0]})",
        )


BUILDERS = {"sweep": sweep, "surgery": surgery, "oracle": oracle, "queries": queries}
