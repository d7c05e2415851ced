"""Per-module spans and counters, installed from outside the library.

The tracer replaces chosen public functions and methods of ``planeperm`` with
wrappers.  A span wrapper records (name, start, end, parent) in flat arrays;
a counter wrapper, used for the calls too hot for spans, only counts.  A
function is replaced under every module attribute bound to it, because a
name imported into another module (``merge_reports`` inside ``distances``
and ``enumeration``) is looked up there.  ``uninstall`` puts the originals
back.

A span's self time is its duration minus the durations of its direct child
spans.  Calls that are counted, not spanned, such as ``Permutation.__call__``,
fall into the self time of the span that made them.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

# Spans by layer: "module:attribute" or "module:Class.method".
SPANS = {
    "perm": [
        "perm:Permutation.compose",
        "perm:Permutation.inverse",
        "perm:Permutation.updated",
        "perm:Permutation.conjugate_by",
        "perm:Permutation.cycles",
        "perm:Permutation.cycle_counts",
        "perm:Permutation.cycle_type",
        "perm:Permutation.same_cycle",
        "perm:Permutation.identity",
        "perm:Permutation.from_mapping",
        "perm:Permutation.from_one_line",
        "perm:Permutation.from_cycles",
        "perm:Permutation.from_cycle_type",
        "perm:cycle_from_sequence",
    ],
    "plane": [
        "plane:PlanePermutation.from_rows",
        "plane:PlanePermutation.from_diagonal",
        "plane:PlanePermutation.exceedances",
        "plane:PlanePermutation.anti_exceedances",
        "plane:PlanePermutation.cycles_by_position",
        "plane:PlanePermutation.trivial_anti_exceedances",
        "plane:PlanePermutation.ntaes",
        "plane:PlanePermutation.apply",
        "plane:PlanePermutation.classify",
        "plane:PlanePermutation.slice",
        "plane:PlanePermutation.glue",
        "plane:swap_blocks",
        "plane:invariant_sweep",
    ],
    "enumeration": [
        "enumeration:tabulate",
        "enumeration:verify_bijection",
        "enumeration:suite_bijection",
        "enumeration:verify_trisection",
        "enumeration:suite_trisection",
    ],
    "distances": [
        "distances:bid",
        "distances:bid_sort",
        "distances:td_lower_bound",
        "distances:rev_lower_bound",
        "distances:breakpoint_bound",
        "distances:greedy_reversal_sort",
        "distances:conjecture_scan",
        "distances:bfs_distances",
        "distances:bfs_distance",
        "distances:check_bid_bfs_at",
        "distances:check_bid_replay_at",
        "distances:check_bid_histogram_at",
        "distances:check_td_bound_at",
        "distances:check_rev_bounds_at",
        "distances:suite_bid_oracle",
        "distances:suite_td_oracle",
        "distances:suite_rev_oracle",
    ],
    "partitions": [
        "partitions:binomial",
        "partitions:partitions_of",
        "partitions:q_lambda",
        "partitions:splits",
        "partitions:kappa",
        "partitions:stirling_first",
        "partitions:Partition.of",
        "partitions:Partition.from_string",
    ],
    "report": ["report:merge_reports"],
    "cli": ["cli:main"],
    "serialize": ["serialize:to_json"],
}

COUNTERS = {
    "perm.call_count": "perm:Permutation.__call__",
    "perm.new_count": "perm:Permutation.__post_init__",
    "plane.new_count": "plane:PlanePermutation.__post_init__",
    "report.checks": "report:VerifyReport.check",
    "report.absorb_count": "report:VerifyReport.absorb",
}

CACHES = {
    "plane.moves_cache": "plane:_all_moves",
    "enumeration.tabulate_cache": "enumeration:_tabulate_cached",
    "enumeration.xi_brute_cache": "enumeration:xi_brute_all",
    "enumeration.ordinary_cache": "enumeration:_ordinary_tables",
    "distances.bfs_cache": "distances:_bfs_from",
}

# Metrics read from spans: (kind, span targets).  "self" sums self time in
# seconds, "count" counts calls, "median_us" is the median call duration.
SPAN_METRICS = {
    "perm.self_s": ("self", SPANS["perm"]),
    "plane.slice_count": ("count", ["plane:PlanePermutation.slice"]),
    "plane.slice_s": ("self", ["plane:PlanePermutation.slice"]),
    "plane.glue_count": ("count", ["plane:PlanePermutation.glue"]),
    "plane.glue_s": ("self", ["plane:PlanePermutation.glue"]),
    "plane.apply_count": ("count", ["plane:PlanePermutation.apply"]),
    "plane.classify_count": ("count", ["plane:PlanePermutation.classify"]),
    "plane.classify_s": ("self", ["plane:PlanePermutation.classify"]),
    "plane.invariant_sweep_s": ("self", ["plane:invariant_sweep"]),
    "enumeration.bijection_s": (
        "self",
        ["enumeration:verify_bijection", "enumeration:suite_bijection"],
    ),
    "enumeration.trisection_s": (
        "self",
        ["enumeration:verify_trisection", "enumeration:suite_trisection"],
    ),
    "enumeration.tabulate_s": ("self", ["enumeration:tabulate"]),
    "distances.bid_us": ("median_us", ["distances:bid"]),
    "distances.td_lb_us": ("median_us", ["distances:td_lower_bound"]),
    "distances.rev_lb_us": ("median_us", ["distances:rev_lower_bound"]),
    "distances.rev_bp_us": ("median_us", ["distances:breakpoint_bound"]),
    "distances.bfs_s": ("self", ["distances:bfs_distances", "distances:bfs_distance"]),
    "distances.oracle_check_s": (
        "self",
        [t for t in SPANS["distances"] if ":check_" in t or ":suite_" in t],
    ),
    "distances.greedy_s": ("self", ["distances:greedy_reversal_sort"]),
    "distances.conjecture_s": ("self", ["distances:conjecture_scan"]),
    "partitions.self_s": ("self", SPANS["partitions"]),
    "report.merge_s": ("self", ["report:merge_reports"]),
    "cli.command_s": ("self", ["cli:main"]),
    "serialize.to_json_s": ("self", ["serialize:to_json"]),
}

# Counts taken from returned values by the result hooks.
RESULT_METRICS = (
    "plane.invariant_checks",
    "enumeration.planes",
    "enumeration.trisection_checks",
    "distances.bfs_states",
    "distances.greedy_steps",
)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner, attribute, current value) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = target.partition(":")
    owner: Any = sys.modules[f"planeperm.{module_name}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, value


class Tracer:
    """Spans and counters for one process; install once, uninstall once."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS.values(), 0)
        self.results: dict[str, int] = dict.fromkeys(RESULT_METRICS, 0)
        self._bfs_misses_seen = 0
        self._greedy_sorted = 0
        self._greedy_attempted = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, target: str, hook: Callable | None, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(target)
        if not inspect.isgeneratorfunction(fn):
            return functools.wraps(fn)(self._timed(nid, fn, hook))

        # A generator gets one span per resumption, so it is charged for the
        # items it makes and not for the consumer's work in between.
        step = self._timed(nid, next, None)
        done = object()

        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while (item := step(it, done)) is not done:
                yield item

        return functools.wraps(fn)(traced_gen)

    def _timed(self, nid: int, fn: Callable, hook: Callable | None) -> Callable:
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def _counter(self, target: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[target] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def _hooks(self) -> dict[str, Callable[[Any], None]]:
        results = self.results

        def invariants(rep) -> None:
            results["plane.invariant_checks"] += rep.checked

        def bijection(rep) -> None:
            results["enumeration.planes"] += rep.info.get("planes", 0)

        def trisection(rep) -> None:
            results["enumeration.trisection_checks"] += rep.checked

        def greedy(result) -> None:
            results["distances.greedy_steps"] += len(result.steps)
            self._greedy_sorted += result.sorted
            self._greedy_attempted += 1

        def bfs(dist) -> None:
            # Count the states of searches that ran, not of cache hits.
            misses = _resolve(CACHES["distances.bfs_cache"])[2].cache_info().misses
            if misses > self._bfs_misses_seen:
                self._bfs_misses_seen = misses
                results["distances.bfs_states"] += len(dist)

        return {
            "plane:invariant_sweep": invariants,
            "enumeration:verify_bijection": bijection,
            "enumeration:verify_trisection": trisection,
            "enumeration:suite_trisection": trisection,
            "distances:greedy_reversal_sort": greedy,
            "distances:bfs_distances": bfs,
        }

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for targets in SPANS.values():
            for target in targets:
                self._replace(target, functools.partial(self._span, target, hooks.get(target)))
        for target in COUNTERS.values():
            self._replace(target, functools.partial(self._counter, target))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, target: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr, value = _resolve(target)
        if isinstance(owner, type):
            if isinstance(value, classmethod):
                wrapped = classmethod(make(value.__func__))
            else:
                wrapped = make(value)
            self._undo.append((owner, attr, value))
            setattr(owner, attr, wrapped)
            return
        wrapped = make(value)
        for name, module in list(sys.modules.items()):
            if name != "planeperm" and not name.startswith("planeperm."):
                continue
            for key, bound in list(vars(module).items()):
                if bound is value:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapped)

    # -- reading --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; call after ``uninstall``."""
        count = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        duration = [ends[i] - starts[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            if parents[i] >= 0:
                covered[parents[i]] += duration[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        durations: dict[int, list[float]] = {}
        timed = {
            self.names.index(t)
            for kind, targets in SPAN_METRICS.values()
            if kind == "median_us"
            for t in targets
        }
        for i in range(count):
            nid = self.span_name[i]
            self_s[nid] += duration[i] - covered[i]
            calls[nid] += 1
            if nid in timed:
                durations.setdefault(nid, []).append(duration[i])

        out: dict[str, float] = {}
        for metric, target in COUNTERS.items():
            out[metric] = self.counts[target]
        for metric, (kind, targets) in SPAN_METRICS.items():
            ids = [self.names.index(t) for t in targets]
            if kind == "self":
                out[metric] = sum(self_s[i] for i in ids)
            elif kind == "count":
                out[metric] = sum(calls[i] for i in ids)
            else:
                samples = [d for i in ids for d in durations.get(i, ())]
                out[metric] = statistics.median(samples) * 1e6 if samples else 0.0
        for prefix, target in CACHES.items():
            info = _resolve(target)[2].cache_info()
            out[f"{prefix}_hits"] = info.hits
            out[f"{prefix}_misses"] = info.misses
        out.update(self.results)
        attempted = self._greedy_attempted
        out["distances.greedy_sorted_ratio"] = (
            self._greedy_sorted / attempted if attempted else 0.0
        )
        out["trace.spans"] = count
        return out

    def write(self, path: Path) -> None:
        """Write every span: names, then columns of name id, parent index and
        start/end in nanoseconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        record = {
            "names": [t.replace(":", ".") for t in self.names],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [round((t - origin) * 1e9) for t in self.span_start],
            "end_ns": [round((t - origin) * 1e9) for t in self.span_end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))
