"""Pass/fail reports shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

MAX_STORED_FAILURES = 50

T = TypeVar("T")
R = TypeVar("R")


class EnumerationLimitError(RuntimeError):
    """An exhaustive check or count was asked for a size above its gate."""


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
        """Record one check; a callable ``describe`` lets hot loops skip
        formatting.  It runs before ``check`` returns, and only for a failure
        that is stored, so a closure reads the values of the failing iteration."""
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


def size_gate(what: str, n: int, gate: int) -> None:
    """Refuse a size below 1 or above ``gate`` before any work starts.

    A suite runs every one of its parts at every size from 1 up to ``n``;
    where it cannot, it refuses ``n`` here rather than quietly checking less.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > gate:
        raise EnumerationLimitError(f"{what} capped at n={gate} (asked {n})")


def merge_reports(name: str, parts: Iterable[VerifyReport]) -> VerifyReport:
    total = VerifyReport(name)
    for part in parts:
        total.absorb(part)
    return total


def summed(parts: Sequence[VerifyReport], *keys: str) -> dict:
    """``{key: total over parts}`` in the order of ``keys``; a part without a key counts 0."""
    return {key: sum(part.info.get(key, 0) for part in parts) for key in keys}


def pmap(fn: Callable[[T], R], items: Sequence[T], jobs: int = 1) -> list[R]:
    """``[fn(x) for x in items]``, optionally on a process pool.

    Results keep the input order, so callers are deterministic for any
    job count.  ``fn`` must be a top-level function when ``jobs > 1``.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    import multiprocessing  # only a pool needs it; every other command skips its import cost
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items)
