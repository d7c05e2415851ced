"""Pass/fail reports shared by the verification suites."""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

MAX_STORED_FAILURES = 50

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class VerifyReport:
    """Outcome of one verification sweep.

    ``checked`` counts individual assertions, ``failure_count`` the ones
    that did not hold.  Only the first few failure descriptions are kept.
    ``info`` carries side observations (rates, totals) that do not affect
    the verdict; merging leaves it to the caller, which knows how the parts'
    observations add up.
    """

    name: str
    checked: int = 0
    failure_count: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def check(self, ok: bool, describe: str | Callable[[], str] = "") -> bool:
        """Record one check; ``describe`` may be lazy so hot loops skip formatting."""
        self.checked += 1
        if not ok:
            self.failure_count += 1
            if len(self.failures) < MAX_STORED_FAILURES:
                self.failures.append(describe() if callable(describe) else describe)
        return ok

    def absorb(self, other: "VerifyReport") -> None:
        self.checked += other.checked
        self.failure_count += other.failure_count
        for text in other.failures:
            if len(self.failures) < MAX_STORED_FAILURES:
                self.failures.append(f"{other.name}: {text}")

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        tail = f" failures={self.failure_count}" if self.failure_count else ""
        line = f"{verdict} {self.name} checked={self.checked}{tail}"
        if self.failures:
            line += f" first={self.failures[0]}"
        return line

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "failure_count": self.failure_count,
            "failures": list(self.failures),
            "info": dict(self.info),
        }


def merge_reports(name: str, parts: Iterable[VerifyReport]) -> VerifyReport:
    total = VerifyReport(name)
    for part in parts:
        total.absorb(part)
    return total


def pmap(fn: Callable[[T], R], items: Sequence[T], jobs: int = 1) -> list[R]:
    """``[fn(x) for x in items]``, optionally on a process pool.

    Results keep the input order, so callers are deterministic for any
    job count.  ``fn`` must be a top-level function when ``jobs > 1``.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items)
