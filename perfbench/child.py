"""One fresh benchmark process.

    python3 perfbench/child.py ROOT MODE SEED TRACE SPAWNED_AT

Imports ``planeperm.cli`` from ROOT/src first, so the time from SPAWNED_AT
(the parent's ``time.perf_counter()`` just before it started this process;
the clock is system-wide) to the end of that import is the CLI start-up time.
MODE is a workload name, ``setup`` (start up only) or ``determinism``.
Prints one JSON object as its last line.
"""

import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")
import planeperm.cli  # noqa: E402

SETUP_S = time.perf_counter() - float(sys.argv[5])

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def run_workload(mode: str, seed: int, traced: bool, root: Path) -> dict:
    import tracing
    import workloads

    workload = workloads.BUILDERS[mode](seed)
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    results, latencies, errors = [], [], []
    clock = time.perf_counter
    started = clock()
    for op in workload.ops:
        t0 = clock()
        try:
            results.append(op.run())
        except Exception as exc:  # a failed request is counted, not fatal
            results.append(None)
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
    wall_s = clock() - started
    if tracer:
        tracer.uninstall()

    tally = workloads.Tally()
    if errors:
        tally.attempted += len(errors)
        tally.failed += len(errors)
        tally.problems += errors
    else:
        try:
            workload.verify(results, tally)
        except Exception as exc:  # a check that cannot read the output fails
            tally.check(False, f"checks raised {type(exc).__name__}: {exc}")
    out = {
        "wall_s": wall_s,
        "latencies_s": latencies,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "notes": tally.notes,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        tracer.write(root / ".bench_build" / "perfbench" / f"trace-{mode}-seed{seed}.json")
    return out


def main() -> None:
    root, mode, seed, traced = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    loaded = Path(planeperm.cli.__file__).resolve()
    if root.resolve() / "src" not in loaded.parents:
        sys.exit(f"planeperm was imported from {loaded}, not from {root}/src")
    out: dict = {"setup_s": SETUP_S}
    if mode == "determinism":
        import workloads

        tally = workloads.Tally()
        workloads.determinism(tally)
        out.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    elif mode != "setup":
        out.update(run_workload(mode, seed, traced, root))
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
