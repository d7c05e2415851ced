"""Exhaustive counts of plane permutations with a fixed diagonal, and the
identities those counts satisfy.

The central object is :class:`CountTable`: for one diagonal cycle type it
records, over all ``(n-1)!`` top rows, how many bottom permutations have a
given cycle type and exceedance count.  Everything else either reads those
tables, compares them against closed forms, or replays the slice/glue
bijection that explains them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator

from .partitions import (
    Partition,
    binomial,
    exact_div,
    kappa,
    partitions_of,
    q_lambda,
    splits,
    stirling_first,
)
from .perm import Permutation, _array_cycle_type
from .plane import PlanePermutation, _anchored_rows, _row_tables
from .report import VerifyReport, merge_reports, pmap

DEFAULT_TABULATE_LIMIT = 8
HARD_TABULATE_LIMIT = 10


class EnumerationLimitError(RuntimeError):
    """An exhaustive count would exceed the configured size limit."""


def enumerate_U_D(diag: Permutation, limit: int = 10) -> Iterator[PlanePermutation]:
    """All plane permutations with the given diagonal.

    The top row runs over every cyclic order of the labels, anchored at the
    smallest one, so there are ``(n-1)!`` results.

    >>> diag = Permutation.from_cycles([(1, 2, 3)])
    >>> sorted(p.s for p in enumerate_U_D(diag))
    [(1, 2, 3), (1, 3, 2)]
    """
    labels = diag.labels
    if len(labels) > limit:
        raise EnumerationLimitError(
            f"{len(labels)} labels would mean {len(labels) - 1}! top rows; limit is {limit}"
        )
    head, rest = labels[0], labels[1:]
    for order in itertools.permutations(rest):
        yield PlanePermutation.from_diagonal((head, *order), diag)


@dataclass(frozen=True)
class CountTable:
    """Joint counts over all plane permutations with one diagonal type.

    ``counts`` maps ``(a, eta)`` to the number of planes whose bottom
    permutation has exceedance count ``a`` and cycle type ``eta``.  Instances
    are shared through a cache; treat them as read-only.
    """

    n: int
    diagonal_type: Partition
    counts: dict[tuple[int, tuple[int, ...]], int]

    def f_a(self, eta: Partition, a: int) -> int:
        """Planes whose bottom has cycle type ``eta`` and ``a`` exceedances."""
        return self.counts.get((a, eta.parts), 0)

    def f(self, eta: Partition) -> int:
        """Planes whose bottom has cycle type ``eta``."""
        return sum(c for (_, parts), c in self.counts.items() if parts == eta.parts)

    def p_a_k(self, a: int, k: int) -> int:
        """Planes with ``k`` bottom cycles and ``a`` exceedances."""
        return sum(
            c for (b, parts), c in self.counts.items() if b == a and len(parts) == k
        )

    def p_k(self, k: int) -> int:
        """Planes with ``k`` bottom cycles."""
        return sum(c for (_, parts), c in self.counts.items() if len(parts) == k)

    def total(self) -> int:
        return sum(self.counts.values())

    def rows(self) -> Iterator[tuple[int, tuple[int, ...], int]]:
        """``(exceedances, bottom cycle type, count)`` in a stable order."""
        for (a, parts), c in sorted(self.counts.items()):
            yield a, parts, c


def tabulate(n: int, lam: Partition, *, allow_large: bool = False) -> CountTable:
    """Count bottom permutations by cycle type and exceedances over ``U_D``.

    ``lam`` is the cycle type of the diagonal; the answer only depends on the
    type, so a canonical representative is used.  Sizes up to 8 run in well
    under a second; 9 and 10 need ``allow_large=True``; beyond 10 is refused.

    >>> t = tabulate(3, Partition.of([3]))
    >>> t.total()
    2
    >>> [t.p_k(k) for k in (1, 2, 3)]
    [1, 0, 1]
    """
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    if n > HARD_TABULATE_LIMIT:
        raise EnumerationLimitError(
            f"tabulating {n} symbols means {n - 1}! rows; the hard limit is {HARD_TABULATE_LIMIT}"
        )
    if n > DEFAULT_TABULATE_LIMIT and not allow_large:
        raise EnumerationLimitError(
            f"tabulating {n} symbols needs allow_large=True (default limit {DEFAULT_TABULATE_LIMIT})"
        )
    return _tabulate_cached(n, lam.parts)


@lru_cache(maxsize=None)
def _tabulate_cached(n: int, parts: tuple[int, ...]) -> CountTable:
    lam = Partition(parts)
    dinv = Permutation.from_cycle_type(lam, labels=range(n)).inverse().images
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for row in _anchored_rows(n):
        pos, succ = _row_tables(row)
        pi = [dinv[y] for y in succ]
        a = sum(1 for x in range(n) if pos[x] < pos[pi[x]])
        key = (a, _array_cycle_type(pi))
        counts[key] = counts.get(key, 0) + 1
    return CountTable(n, lam, counts)


@lru_cache(maxsize=None)
def _ordinary_tables(
    n: int,
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int, tuple[int, ...]], int]]:
    """Joint counts over ordinary permutations of ``0..n-1``.

    For each permutation ``pi``: ``a`` counts the ``x`` with ``pi(x) > x``,
    ``k`` is the cycle count, and the third key is the cycle type of
    ``x -> pi^-1(x) + 1 (mod n)``, the diagonal of the plane whose top row
    is sorted.  Returns ``(by_ak, by_akl)``.
    """
    by_ak: dict[tuple[int, int], int] = {}
    by_akl: dict[tuple[int, int, tuple[int, ...]], int] = {}
    inv = [0] * n
    diag = [0] * n
    for images in itertools.permutations(range(n)):
        a = sum(1 for x in range(n) if images[x] > x)
        k = len(_array_cycle_type(images))
        for x, y in enumerate(images):
            inv[y] = x
        for x in range(n):
            diag[x] = (inv[x] + 1) % n
        lam = _array_cycle_type(diag)
        by_ak[(a, k)] = by_ak.get((a, k), 0) + 1
        by_akl[(a, k, lam)] = by_akl.get((a, k, lam), 0) + 1
    return by_ak, by_akl


# -- full-cycle products ------------------------------------------------


def xi(n: int, k: int) -> int:
    """Full cycles ``alpha`` on ``n`` symbols with ``alpha^-1 gamma`` having
    ``k`` cycles, for a fixed full cycle ``gamma``.

    Zero unless ``1 <= k <= n`` with ``n - k`` even; otherwise a quotient of
    an unsigned Stirling number of the first kind.

    >>> [xi(4, k) for k in range(5)]
    [0, 0, 5, 0, 1]
    """
    if k < 1 or k > n or (n - k) % 2:
        return 0
    return exact_div(2 * stirling_first(n + 1, k), n * (n + 1))


@lru_cache(maxsize=None)
def xi_brute_all(n: int) -> dict[int, int]:
    """Histogram of ``C(alpha^-1 gamma)`` over all full cycles ``alpha``,
    with ``gamma = (0 1 .. n-1)``.  The independent check for :func:`xi`.
    """
    hist: dict[int, int] = {}
    for row in _anchored_rows(n):
        _, ainv = _row_tables(row[::-1])  # alpha^-1 walks the row backwards
        beta = [ainv[(x + 1) % n] for x in range(n)]
        k = len(_array_cycle_type(beta))
        hist[k] = hist.get(k, 0) + 1
    return hist


def zagier_stanley_check(n: int) -> VerifyReport:
    """Closed form and recurrence for :func:`xi` at size ``n``.

    The recurrence trades ``(n+1-k) xi(n, k)`` for the values at higher
    cycle counts plus a Stirling term; it only says something when ``n - k``
    is even, the other side vanishing identically.
    """
    rep = VerifyReport(f"zagier-stanley n={n}")
    brute = xi_brute_all(n)
    for k in range(n + 2):
        rep.check(
            xi(n, k) == brute.get(k, 0),
            lambda k=k: f"n={n} k={k}: closed form {xi(n, k)} != brute {brute.get(k, 0)}",
        )
    rep.check(xi(n, n) == 1, f"n={n}: the count at k=n should be exactly 1")
    for k in range(1, n + 1):
        if (n - k) % 2:
            continue
        lhs = (n + 1 - k) * xi(n, k)
        rhs = sum(
            binomial(k + 2 * i, k - 1) * xi(n, k + 2 * i)
            for i in range(1, (n - k) // 2 + 1)
        ) + stirling_first(n, k)
        rep.check(lhs == rhs, lambda k=k, lhs=lhs, rhs=rhs: f"n={n} k={k}: {lhs} != {rhs}")
    return rep


def verify_stirling_recurrence(n_max: int) -> VerifyReport:
    """The same shape of recurrence, satisfied by the unsigned Stirling
    numbers of the first kind themselves; checked for every ``n <= n_max``
    and every ``1 <= k <= n + 1``."""
    rep = VerifyReport(f"stirling-recurrence n<={n_max}")
    for n in range(1, n_max + 1):
        for k in range(1, n + 2):
            lhs = (n + 1 - k) * stirling_first(n + 1, k)
            rhs = sum(
                binomial(k + 2 * i, k - 1) * stirling_first(n + 1, k + 2 * i)
                for i in range(1, (n + 1 - k) // 2 + 1)
            ) + binomial(n + 1, 2) * stirling_first(n, k)
            rep.check(
                lhs == rhs,
                lambda n=n, k=k, lhs=lhs, rhs=rhs: f"n={n} k={k}: {lhs} != {rhs}",
            )
    return rep


def exceedance_totals(n: int, k: int) -> tuple[int, int]:
    """Total count of ``x`` with ``pi(x) > x`` over ordinary permutations of
    ``n`` symbols with ``k`` cycles, by two closed forms (checked equal).

    >>> exceedance_totals(3, 1)
    (3, 3)
    """
    direct = (n - k) * stirling_first(n, k) - sum(
        binomial(k + 2 * i, k - 1) * stirling_first(n, k + 2 * i)
        for i in range(1, (n - k) // 2 + 1)
    )
    product = binomial(n, 2) * stirling_first(n - 1, k)
    if direct != product:
        raise AssertionError(f"exceedance totals disagree at n={n} k={k}: {direct}, {product}")
    return direct, product


# -- identities read off the count tables -------------------------------


def verify_ntae_identity(n: int, lam: Partition, k: int) -> VerifyReport:
    """Non-trivial anti-exceedances at ``k`` cycles balance the higher counts.

    A plane with ``a`` exceedances and ``k`` bottom cycles has ``n - a - k``
    non-trivial anti-exceedances, so the left side totals them over all
    planes with ``k`` cycles; the identity says that equals a binomial-
    weighted count of the planes with ``k+2, k+4, ...`` cycles.
    """
    if k < 1:
        raise ValueError("k must be positive")
    table = tabulate(n, lam)
    lhs = sum((n - a - k) * table.p_a_k(a, k) for a in range(n))
    rhs = sum(
        binomial(k + 2 * i, k - 1) * table.p_k(k + 2 * i)
        for i in range(1, (n - k) // 2 + 1)
    )
    rep = VerifyReport(f"ntae-identity n={n} lam={lam} k={k}")
    rep.check(lhs == rhs, f"n={n} lam={lam} k={k}: {lhs} != {rhs}")
    return rep


def verify_f_recurrence(n: int, eta: Partition, lam: Partition) -> VerifyReport:
    """Recurrence and reflection for the joint type-by-type counts.

    ``eta`` is the bottom cycle type, ``lam`` the diagonal type.  Requires
    ``len(eta) + len(lam) < n + 1``; at the boundary the leading factor
    vanishes and the recurrence says nothing, so that input is rejected.
    """
    if eta.n != n or lam.n != n:
        raise ValueError("both cycle types must be partitions of n")
    if len(eta) + len(lam) >= n + 1:
        raise ValueError("need len(eta) + len(lam) < n + 1")
    table_lam = tabulate(n, lam)
    table_eta = tabulate(n, eta)
    q_lam = q_lambda(lam)
    q_eta = q_lambda(eta)
    rep = VerifyReport(f"f-recurrence n={n} eta={eta} lam={lam}")

    split_eta = sum(
        kappa(mu, eta) * table_lam.f(mu)
        for i in range(1, n // 2 + 1)
        for mu in splits(eta, 2 * i + 1)
    )
    split_lam = sum(
        kappa(mu, lam) * table_eta.f(mu)
        for i in range(1, n // 2 + 1)
        for mu in splits(lam, 2 * i + 1)
    )
    lhs = table_lam.f(eta) * q_lam * (n + 1 - len(eta) - len(lam))
    rep.check(
        lhs == q_lam * split_eta + q_eta * split_lam,
        f"recurrence: {lhs} != {q_lam}*{split_eta} + {q_eta}*{split_lam}",
    )

    weighted = sum((n - a - len(eta)) * table_lam.f_a(eta, a) for a in range(n))
    rep.check(
        weighted == split_eta,
        f"exceedance-weighted half: {weighted} != {split_eta}",
    )

    for a in range(n):
        rep.check(
            q_lam * table_lam.f_a(eta, a) == q_eta * table_eta.f_a(lam, n - 1 - a),
            lambda a=a: (
                f"reflection at a={a}: {q_lam}*{table_lam.f_a(eta, a)} != "
                f"{q_eta}*{table_eta.f_a(lam, n - 1 - a)}"
            ),
        )
    return rep


def verify_cycle_recurrence(n: int, lam: Partition, k: int) -> VerifyReport:
    """Recurrence for the ``k``-cycle counts, mixing higher cycle counts of
    the same diagonal with split diagonals at the same ``k``.

    Requires ``len(lam) < n + 1 - k`` for the same boundary reason as the
    joint recurrence.
    """
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    if k < 1:
        raise ValueError("k must be positive")
    if len(lam) >= n + 1 - k:
        raise ValueError("need len(lam) < n + 1 - k")
    q_lam = q_lambda(lam)
    table = tabulate(n, lam)
    lhs = table.p_k(k) * q_lam * (n + 1 - k - len(lam))
    same_diag = q_lam * sum(
        binomial(k + 2 * i, k - 1) * table.p_k(k + 2 * i)
        for i in range(1, (n - k) // 2 + 1)
    )
    split_diag = sum(
        kappa(mu, lam) * tabulate(n, mu).p_k(k) * q_lambda(mu)
        for i in range(1, n // 2 + 1)
        for mu in splits(lam, 2 * i + 1)
    )
    rep = VerifyReport(f"cycle-recurrence n={n} lam={lam} k={k}")
    rep.check(
        lhs == same_diag + split_diag,
        f"n={n} lam={lam} k={k}: {lhs} != {same_diag} + {split_diag}",
    )
    return rep


# -- single-cycle counts by three routes --------------------------------


def _p1_product(n: int, lam: Partition) -> int | None:
    """Product form of the single-cycle count, for the shapes that have one.

    Shapes handled: parts in ``{1, 2}`` alone, or with exactly one 3 or one
    4 added.  The parity guard comes first because the products are only
    meaningful when a single bottom cycle is possible at all.
    """
    if (n - len(lam)) % 2:
        return 0
    a2 = lam.multiplicities().get(2, 0)
    extra = {part: m for part, m in lam.multiplicities().items() if part > 2}
    if not extra:
        return exact_div(factorial(n - 1), a2 + 1)
    if extra == {3: 1}:
        return exact_div(factorial(n - 1) * (2 * a2 + 3), 2 * (a2 + 3) * (a2 + 1))
    if extra == {4: 1}:
        return exact_div(factorial(n - 1) * (a2 + 3), (a2 + 2) * (a2 + 4))
    return None


def _p1_alternating(n: int, lam: Partition) -> int:
    """Alternating-sum form of the single-cycle count; works for every shape.

    The inner sum runs over multiplicity vectors ``r`` with
    ``sum(j * r[j]) == i``, i.e. over partitions of ``i``; a part ``j``
    contributes ``binomial(a_j, r_j)`` with ``a_j`` its multiplicity in
    ``lam``, except ``j == 1`` which uses ``a_1 - 1``.  That upper argument
    may be ``-1``, which is exactly why :func:`binomial` accepts it.
    """
    mult = lam.multiplicities()
    total = Fraction(0)
    for i in range(n):
        inner = 0
        for mu in partitions_of(i):
            term = 1
            sign = 0
            for j, rj in mu.multiplicities().items():
                upper = mult.get(j, 0) - (1 if j == 1 else 0)
                term *= binomial(upper, rj)
                if term == 0:
                    break
                if j % 2 == 0:
                    sign += rj
            else:
                inner += -term if sign % 2 else term
        total += Fraction(factorial(i) * factorial(n - 1 - i), n) * inner
    if total.denominator != 1:
        raise AssertionError(f"alternating sum not an integer at n={n} {lam}: {total}")
    return int(total)


def p1_routes(n: int, lam: Partition) -> dict[str, int]:
    """The single-cycle count by every route that applies to this shape."""
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    routes = {"alternating": _p1_alternating(n, lam)}
    product = _p1_product(n, lam)
    if product is not None:
        routes["product"] = product
    if n <= DEFAULT_TABULATE_LIMIT:
        routes["enumerated"] = tabulate(n, lam).p_k(1)
    return routes


def p1_closed_forms(n: int, lam: Partition) -> int:
    """Plane permutations with diagonal type ``lam`` and a single bottom
    cycle.  Every applicable route must agree, or this raises AssertionError.

    >>> p1_closed_forms(4, Partition.of([2, 2]))
    2
    """
    routes = p1_routes(n, lam)
    values = set(routes.values())
    if len(values) != 1:
        raise AssertionError(f"single-cycle routes disagree at n={n} {lam}: {routes}")
    return values.pop()


@lru_cache(maxsize=None)
def W_count(lam: Partition, mu: Partition, eta: Partition) -> int:
    """With ``gamma`` a fixed permutation of type ``lam``, count the
    permutations ``alpha`` of type ``mu`` for which ``alpha^-1 gamma`` has
    type ``eta``.  Depends only on the three types.

    >>> W_count(Partition.of([3]), Partition.of([3]), Partition.of([1, 1, 1]))
    1
    """
    n = lam.n
    if mu.n != n or eta.n != n:
        raise ValueError("all three types must partition the same number")
    gamma = Permutation.from_cycle_type(lam, labels=range(n))
    gimg = tuple(gamma(x) for x in range(n))
    count = 0
    ainv = [0] * n
    beta = [0] * n
    for images in itertools.permutations(range(n)):
        if _array_cycle_type(images) != mu.parts:
            continue
        for x, y in enumerate(images):
            ainv[y] = x
        for x in range(n):
            beta[x] = ainv[gimg[x]]
        if _array_cycle_type(beta) == eta.parts:
            count += 1
    return count


# -- the slice/glue bijection ------------------------------------------


def verify_bijection(diag: Permutation, *, limit: int = 7) -> VerifyReport:
    """Match every slice against the direct census of marked planes.

    Slicing a plane with ``b`` bottom cycles at a non-trivial
    anti-exceedance yields a plane with ``b + 2`` cycles, three of them
    singled out, sometimes with a label still distinguished; gluing must
    return exactly to the source.  The census side enumerates the same
    marked planes directly: every 3-subset of cycles, plus, per subset, the
    non-trivial anti-exceedances in the cycle whose minimum sits last.
    The two sides must produce identical key sets, and the counts must
    agree level by level.
    """
    n = len(diag.labels)
    if n > limit:
        raise EnumerationLimitError(
            f"bijection check over {n} labels exceeds the limit of {limit}"
        )
    rep = VerifyReport(f"bijection n={n} diag={diag.cycles()}")
    planes = list(enumerate_U_D(diag, limit=limit))
    by_top = {p.s: p for p in planes}

    # forward: slice everything, demanding distinct keys and clean returns
    sliced: set[tuple] = set()
    y1_per_b: dict[int, int] = {}
    for p in planes:
        b = p.pi.cycle_counts()[0]
        for eps in p.ntaes():
            y1_per_b[b] = y1_per_b.get(b, 0) + 1
            try:
                res = p.slice(eps)
            except ValueError as err:
                rep.check(False, f"slice refused {p.s} at eps={eps}: {err}")
                continue
            key = (res.plane.s, res.minima, res.distinguished)
            if not rep.check(key not in sliced, lambda key=key: f"slice collision at {key}"):
                continue
            sliced.add(key)
            rep.check(
                res.plane.pi.cycle_counts()[0] == b + 2,
                lambda key=key: f"slice did not add two cycles at {key}",
            )
            try:
                back, eps_back = res.plane.glue(*res.glue_anchors())
            except ValueError as err:
                rep.check(False, f"glue refused the anchors of {key}: {err}")
                continue
            rep.check(
                back == p and eps_back == eps,
                lambda key=key: f"slice/glue round trip broke at {key}",
            )

    # backward: census the marked planes and glue each one back
    direct: dict[tuple, int] = {}
    y2_per_b: dict[int, int] = {}
    y3_per_b: dict[int, int] = {}
    for q in planes:
        cycles = q.cycles_by_position()
        if len(cycles) < 3:
            continue
        b = len(cycles) - 2
        ntae_set = set(q.ntaes())
        for trio in itertools.combinations(cycles, 3):
            minima = (trio[0][0], trio[1][0], trio[2][0])
            direct[(q.s, minima, None)] = b
            y2_per_b[b] = y2_per_b.get(b, 0) + 1
            for eps in trio[2]:
                if eps in ntae_set:
                    direct[(q.s, minima, eps)] = b
                    y3_per_b[b] = y3_per_b.get(b, 0) + 1

    for key in direct.keys() - sliced:
        rep.check(False, f"census key never produced by a slice: {key}")
    for key in sliced - direct.keys():
        rep.check(False, f"slice key missing from the census: {key}")

    for key in direct:
        top, minima, dist = key
        q = by_top[top]
        x3 = minima[2] if dist is None else q.pi(dist)
        try:
            merged, eps_out = q.glue(minima[0], minima[1], x3)
            res = merged.slice(eps_out)
        except ValueError as err:
            rep.check(False, f"glue/slice round trip refused {key}: {err}")
            continue
        rep.check(
            res.plane == q and res.minima == minima and res.distinguished == dist,
            lambda key=key: f"glue/slice round trip broke at {key}",
        )

    for b in sorted(set(y1_per_b) | set(y2_per_b) | set(y3_per_b)):
        y1 = y1_per_b.get(b, 0)
        y2 = y2_per_b.get(b, 0)
        y3 = y3_per_b.get(b, 0)
        rep.check(y1 == y2 + y3, f"b={b}: {y1} slices vs {y2} + {y3} marked planes")

    rep.info["planes"] = len(planes)
    rep.info["y1"] = sum(y1_per_b.values())
    rep.info["y2"] = sum(y2_per_b.values())
    rep.info["y3"] = sum(y3_per_b.values())
    return rep


def _bijection_job(args: tuple[int, tuple[int, ...]]) -> VerifyReport:
    m, images = args
    return verify_bijection(Permutation(tuple(range(1, m + 1)), images))


def suite_bijection(n: int, *, jobs: int = 1, limit: int = 7) -> VerifyReport:
    """Slice/glue bijection over every diagonal of every size up to ``n``."""
    tasks = [
        (m, images)
        for m in range(1, n + 1)
        for images in itertools.permutations(range(1, m + 1))
    ]
    parts = pmap(_bijection_job, tasks, jobs)
    rep = merge_reports(f"bijection n<={n}", parts)
    rep.info["diagonals"] = len(tasks)
    for key in ("y1", "y2", "y3"):
        rep.info[key] = sum(part.info.get(key, 0) for part in parts)
    return rep


# -- matchings as diagonals --------------------------------------------


def _pairings(items: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Perfect matchings of ``items``, each as a tuple of pairs."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for idx, partner in enumerate(rest):
        remaining = rest[:idx] + rest[idx + 1 :]
        for tail in _pairings(remaining):
            yield ((first, partner), *tail)


def _trisection_job(args: tuple[int, tuple[tuple[int, int], ...]]) -> VerifyReport:
    """Fixed-point-free involution checks over one matching's planes.

    With ``2m`` symbols matched up by the diagonal, every plane must show
    ``m + 1`` anti-exceedances, a cycle count of the form ``m + 1 - 2g``
    with ``g >= 0``, and exactly ``2g`` non-trivial anti-exceedances.
    """
    m, pairs = args
    size = 2 * m
    dimg = [0] * size
    for x, y in pairs:
        dimg[x] = y
        dimg[y] = x
    rep = VerifyReport(f"trisection m={m} pairs={pairs}")
    for row in _anchored_rows(size):
        pos, succ = _row_tables(row)
        pi = [dimg[y] for y in succ]  # the diagonal is an involution
        aex = sum(1 for x in range(size) if pos[x] >= pos[pi[x]])
        seen = [False] * size
        cycle_count = 0
        trivial = []
        for x in range(size):
            if seen[x]:
                continue
            cycle_count += 1
            best = x  # the label mapping onto the cycle's minimum
            y = x
            while not seen[y]:
                seen[y] = True
                if pos[pi[y]] < pos[pi[best]]:
                    best = y
                y = pi[y]
            trivial.append(best)
        genus2 = m + 1 - cycle_count
        triv_set = set(trivial)
        ntae = sum(
            1 for x in range(size) if pos[x] >= pos[pi[x]] and x not in triv_set
        )
        ok = (
            aex == m + 1
            and genus2 >= 0
            and genus2 % 2 == 0
            and ntae == genus2
            and all(pos[t] >= pos[pi[t]] for t in trivial)
        )
        rep.check(
            ok,
            lambda row=row, aex=aex, c=cycle_count, ntae=ntae: (
                f"row={row}: aex={aex} cycles={c} ntae={ntae}"
            ),
        )
    return rep


def verify_trisection(diag: Permutation) -> VerifyReport:
    """Genus bookkeeping for one fixed-point-free involution diagonal."""
    labels = diag.labels
    if len(labels) % 2:
        raise ValueError("need an even number of labels")
    slot = {x: i for i, x in enumerate(labels)}
    pairs = []
    for x in labels:
        y = diag(x)
        if y == x or diag(y) != x:
            raise ValueError("diagonal must be a fixed-point-free involution")
        if slot[x] < slot[y]:
            pairs.append((slot[x], slot[y]))
    rep = _trisection_job((len(labels) // 2, tuple(pairs)))
    rep.name = f"trisection diag={diag.cycles()}"
    return rep


def suite_trisection(m_max: int, *, jobs: int = 1) -> VerifyReport:
    """Genus checks over every matching diagonal on ``2, 4, .., 2*m_max``."""
    tasks = [
        (m, pairs)
        for m in range(1, m_max + 1)
        for pairs in _pairings(list(range(2 * m)))
    ]
    parts = pmap(_trisection_job, tasks, jobs)
    rep = merge_reports(f"trisection m<={m_max}", parts)
    rep.info["pairings"] = len(tasks)
    return rep


# -- sweeps used by the command line and the test suite -----------------


def suite_ntae_identity(n: int) -> VerifyReport:
    parts = [
        verify_ntae_identity(m, lam, k)
        for m in range(1, n + 1)
        for lam in partitions_of(m)
        for k in range(1, m + 1)
    ]
    return merge_reports(f"ntae-identity n<={n}", parts)


def suite_f_recurrence(n: int) -> VerifyReport:
    """All valid type pairs, plus the parity filter on the invalid counts."""
    parts = []
    parity = VerifyReport("parity filter")
    for m in range(1, n + 1):
        shapes = list(partitions_of(m))
        for eta in shapes:
            for lam in shapes:
                if len(eta) + len(lam) < m + 1:
                    parts.append(verify_f_recurrence(m, eta, lam))
                if (len(eta) + len(lam)) % 2 != (m - 1) % 2:
                    parity.check(
                        tabulate(m, lam).f(eta) == 0,
                        lambda m=m, eta=eta, lam=lam: (
                            f"m={m} eta={eta} lam={lam}: parity-violating count is nonzero"
                        ),
                    )
    parts.append(parity)
    return merge_reports(f"f-recurrence n<={n}", parts)


def suite_cycle_recurrence(n: int) -> VerifyReport:
    parts = [
        verify_cycle_recurrence(m, lam, k)
        for m in range(1, n + 1)
        for lam in partitions_of(m)
        for k in range(1, m + 1 - len(lam))
    ]
    return merge_reports(f"cycle-recurrence n<={n}", parts)


def suite_zagier_stanley(n: int) -> VerifyReport:
    """Closed form, recurrence, and the full-cycle-diagonal cross-check."""
    parts = [zagier_stanley_check(m) for m in range(1, n + 1)]
    cross = VerifyReport("xi vs tabulated full-cycle diagonal")
    for m in range(1, min(n, 7) + 1):
        table = tabulate(m, Partition.of([m]))
        for k in range(1, m + 1):
            cross.check(
                xi(m, k) == table.p_k(k),
                lambda m=m, k=k, table=table: (
                    f"m={m} k={k}: xi={xi(m, k)} tabulated={table.p_k(k)}"
                ),
            )
    parts.append(cross)
    return merge_reports(f"zagier-stanley n<={n}", parts)


def suite_exceedance(n: int) -> VerifyReport:
    """Exceedance totals and the transfer between ordinary and plane counts."""
    rep = VerifyReport(f"exceedance n<={n}")
    for m in range(1, n + 1):
        by_ak, _ = _ordinary_tables(m)
        for k in range(1, m + 1):
            direct, _ = exceedance_totals(m, k)
            total_a = sum(a * c for (a, kk), c in by_ak.items() if kk == k)
            rep.check(
                total_a == direct,
                lambda m=m, k=k, total_a=total_a, direct=direct: (
                    f"m={m} k={k}: counted exceedances {total_a} != closed form {direct}"
                ),
            )
            lhs = sum((m - a - k) * c for (a, kk), c in by_ak.items() if kk == k)
            rhs = sum(
                binomial(k + 2 * i, k - 1) * stirling_first(m, k + 2 * i)
                for i in range(1, (m - k) // 2 + 1)
            )
            rep.check(
                lhs == rhs,
                lambda m=m, k=k, lhs=lhs, rhs=rhs: (
                    f"m={m} k={k}: anti-exceedance total {lhs} != {rhs}"
                ),
            )
        rep.check(
            by_ak.get((0, m), 0) == 1,
            f"m={m}: the identity should be the only exceedance-free permutation",
        )
        if m >= 2:
            rep.check(
                by_ak.get((1, m - 1), 0) == binomial(m, 2),
                f"m={m}: single-exceedance count should be the transposition count",
            )
    for m in range(1, min(n, 7) + 1):
        _, by_akl = _ordinary_tables(m)
        fact = factorial(m - 1)
        for lam in partitions_of(m):
            table = tabulate(m, lam)
            ql = q_lambda(lam)
            for a in range(m):
                for k in range(1, m + 1):
                    plane_count = table.p_a_k(a, k)
                    ordinary = by_akl.get((a, k, lam.parts), 0)
                    rep.check(
                        ql * plane_count == fact * ordinary,
                        lambda m=m, lam=lam, a=a, k=k, p=plane_count, o=ordinary: (
                            f"m={m} lam={lam} a={a} k={k}: transfer {p} vs {o} failed"
                        ),
                    )
    return rep


def suite_p1(n: int) -> VerifyReport:
    rep = VerifyReport(f"p1 n<={n}")
    for m in range(1, n + 1):
        for lam in partitions_of(m):
            routes = p1_routes(m, lam)
            rep.check(
                len(set(routes.values())) == 1,
                lambda m=m, lam=lam, routes=routes: f"m={m} lam={lam}: routes disagree {routes}",
            )
            if (m - len(lam)) % 2:
                rep.check(
                    routes["alternating"] == 0,
                    lambda m=m, lam=lam: f"m={m} lam={lam}: parity-violating count is nonzero",
                )
    return rep


def suite_w_identities(n: int) -> VerifyReport:
    """Symmetries of the type-product counts, and their full-cycle margin."""
    rep = VerifyReport(f"w-identities n<={n}")
    for m in range(1, min(n, 5) + 1):
        shapes = list(partitions_of(m))
        ones = Partition.of([1] * m)
        for lam in shapes:
            ql = q_lambda(lam)
            for mu in shapes:
                qm = q_lambda(mu)
                for eta in shapes:
                    w = W_count(lam, mu, eta)
                    rep.check(
                        w == W_count(lam, eta, mu),
                        lambda m=m, lam=lam, mu=mu, eta=eta: (
                            f"m={m} lam={lam}: swapping {mu} and {eta} changed the count"
                        ),
                    )
                    rep.check(
                        ql * w == qm * W_count(mu, lam, eta),
                        lambda m=m, lam=lam, mu=mu, eta=eta: (
                            f"m={m}: weighted transfer {lam}/{mu} at {eta} failed"
                        ),
                    )
                rep.check(
                    W_count(lam, mu, ones) == (1 if mu == lam else 0),
                    lambda m=m, lam=lam, mu=mu: (
                        f"m={m} lam={lam} mu={mu}: identity margin should be 0/1"
                    ),
                )
    for m in range(1, min(n, 6) + 1):
        full = Partition.of([m])
        for k in range(1, m + 1):
            total = sum(
                W_count(full, full, eta) for eta in partitions_of(m) if len(eta) == k
            )
            rep.check(
                total == xi(m, k),
                lambda m=m, k=k, total=total: f"m={m} k={k}: margin {total} != xi {xi(m, k)}",
            )
    return rep
