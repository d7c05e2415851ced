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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from math import factorial
from typing import Callable, Iterator

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
from .perm import Permutation, _array_cycle_type, _cycle_map, count_cycles
from .plane import PlanePermutation, _anchored_rows, _ntaes, _row_tables
from .plane import _glue, _rows_of, _slice
from .report import Suite, VerifyReport, size_gate, summed

# The six table suites tabulate every cycle type at every size up to N.
TABLE_SUITE_GATE = 8


def enumerate_U_D(diag: Permutation) -> Iterator[PlanePermutation]:
    """All plane permutations with the given diagonal, on at most 10 labels.

    The top row runs over every cyclic order of the labels, anchored at the
    smallest one, so there are ``(n-1)!`` results.

    >>> diag = Permutation.from_cycles([(1, 2, 3)])
    >>> sorted(p.s for p in enumerate_U_D(diag))
    [(1, 2, 3), (1, 3, 2)]
    """
    return (PlanePermutation.from_diagonal(s, diag) for s in _top_rows(diag))


def _top_rows(diag: Permutation) -> Iterator[tuple[int, ...]]:
    """The top rows of :func:`enumerate_U_D`, in its order and under its gate."""
    labels = diag.labels
    size_gate("enumerate_U_D", len(labels), 10)
    return (tuple(labels[i] for i in row) for row in _anchored_rows(len(labels)))


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


def tabulate(n: int, lam: Partition) -> CountTable:
    """Count bottom permutations by cycle type and exceedances over ``U_D``.

    ``lam`` is the cycle type of the diagonal; the answer only depends on the
    type, so a canonical representative is used.  One table at size 10 takes
    a few seconds; beyond 10 is refused.

    >>> t = tabulate(3, Partition.of([3]))
    >>> t.total()
    2
    >>> [t.p_k(k) for k in (1, 2, 3)]
    [1, 0, 1]
    """
    size_gate("tabulate", n, 10)
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
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
        k = count_cycles(images)
        for x, y in enumerate(images):
            inv[y] = x
        for x in range(n):
            diag[x] = (inv[x] + 1) % n
        lam = _array_cycle_type(diag)
        by_ak[(a, k)] = by_ak.get((a, k), 0) + 1
        by_akl[(a, k, lam)] = by_akl.get((a, k, lam), 0) + 1
    return by_ak, by_akl


def _higher_cycles(f: Callable[[int], int], n: int, k: int) -> int:
    """``sum(binomial(k + 2i, k - 1) * f(k + 2i))`` over ``i >= 1`` with
    ``k + 2i <= n``: the higher cycle counts every recurrence here trades
    against the count at ``k``."""
    return sum(binomial(j, k - 1) * f(j) for j in range(k + 2, n + 1, 2))


def _split_sum(eta: Partition, f: Callable[[Partition], int]) -> int:
    """``sum(kappa(mu, eta) * f(mu))`` over every ``mu`` that splits one part
    of ``eta`` into 3, 5, ... parts: the split side both type recurrences
    trade against the count at ``eta``."""
    return sum(
        kappa(mu, eta) * f(mu) for pieces in range(3, eta.n + 1, 2) for mu in splits(eta, pieces)
    )


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
        k = count_cycles(beta)
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
            lambda: f"n={n} k={k}: closed form {xi(n, k)} != brute {brute.get(k, 0)}",
        )
    rep.check(xi(n, n) == 1, f"n={n}: the count at k=n should be exactly 1")
    for k in range(1, n + 1):
        if (n - k) % 2:
            continue
        lhs = (n + 1 - k) * xi(n, k)
        rhs = _higher_cycles(partial(xi, n), n, k) + stirling_first(n, k)
        rep.check(lhs == rhs, lambda: f"n={n} k={k}: {lhs} != {rhs}")
    return rep


def check_stirling_recurrence_at(n: int) -> VerifyReport:
    """The same shape of recurrence, satisfied by the unsigned Stirling
    numbers of the first kind themselves; checked for every ``1 <= k <= n + 1``."""
    rep = VerifyReport(f"stirling-recurrence n={n}")
    upper = [stirling_first(n + 1, k) for k in range(n + 2)]
    for k in range(1, n + 2):
        lhs = (n + 1 - k) * upper[k]
        rhs = _higher_cycles(upper.__getitem__, n + 1, k)
        rhs += binomial(n + 1, 2) * stirling_first(n, k)
        rep.check(lhs == rhs, lambda: f"n={n} k={k}: {lhs} != {rhs}")
    return rep


def exceedance_totals(n: int, k: int) -> tuple[int, int]:
    """Total count of ``x`` with ``pi(x) > x`` over ordinary permutations of
    ``n`` symbols with ``k`` cycles, by two closed forms; ``suite_exceedance``
    checks them against each other and against the count.

    >>> exceedance_totals(3, 1)
    (3, 3)
    """
    direct = (n - k) * stirling_first(n, k) - _higher_cycles(partial(stirling_first, n), n, k)
    return direct, binomial(n, 2) * stirling_first(n - 1, k)


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
    rhs = _higher_cycles(table.p_k, n, k)
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

    split_eta = _split_sum(eta, table_lam.f)
    split_lam = _split_sum(lam, table_eta.f)
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
            lambda: (
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
    same_diag = q_lam * _higher_cycles(table.p_k, n, k)
    split_diag = _split_sum(lam, lambda mu: tabulate(n, mu).p_k(k) * q_lambda(mu))
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

    ``chi[r]`` is the coefficient of ``x^r`` in the polynomial
    ``prod(1 - (-x)^part for part in lam) / (1 + x)``, which is the hook
    character of ``(n-r, 1^r)`` at the cycle type ``lam`` (Goupil and
    Schaeffer, Europ. J. Combin. 19, 1998); then
    ``n * p_1 = sum(r! (n-1-r)! chi[r])``.  The quotient starts as the
    series of ``1 / (1 + x)`` cut off after ``x^(n-1)``, and each part
    multiplies it in place.
    """
    chi = [(-1) ** r for r in range(n)]
    for part in lam:
        for r in range(n - 1, part - 1, -1):
            chi[r] -= (-1) ** part * chi[r - part]
    return exact_div(sum(factorial(r) * factorial(n - 1 - r) * c for r, c in enumerate(chi)), n)


def p1_routes(n: int, lam: Partition) -> dict[str, int]:
    """The single-cycle count by every route that applies to this shape.

    The enumerated route runs first, so ``tabulate``'s refusals (no labels,
    or a size above its gate) come before any closed form.
    """
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    enumerated = tabulate(n, lam).p_k(1)
    routes = {"alternating": _p1_alternating(n, lam)}
    product = _p1_product(n, lam)
    if product is not None:
        routes["product"] = product
    routes["enumerated"] = enumerated
    return routes


def W_count(lam: Partition, mu: Partition, eta: Partition) -> int:
    """With ``gamma`` a fixed permutation of type ``lam``, count the
    permutations ``alpha`` of type ``mu`` for which ``alpha^-1 gamma`` has
    type ``eta``.  Depends only on the three types.

    >>> W_count(Partition.of([3]), Partition.of([3]), Partition.of([1, 1, 1]))
    1
    """
    if mu.n != lam.n or eta.n != lam.n:
        raise ValueError("all three types must partition the same number")
    return _w_table(lam)[mu.parts, eta.parts]


@lru_cache(maxsize=None)
def _w_table(lam: Partition) -> Counter:
    # One walk over S_n per gamma type: alpha counted by (type of alpha,
    # type of alpha^-1 gamma).
    n = lam.n
    gimg = Permutation.from_cycle_type(lam, labels=range(n)).images
    table: Counter = Counter()
    ainv = [0] * n
    for images in itertools.permutations(range(n)):
        for x, y in enumerate(images):
            ainv[y] = x
        table[_array_cycle_type(images), _array_cycle_type([ainv[g] for g in gimg])] += 1
    return table


# -- the slice/glue bijection ------------------------------------------


def verify_bijection(diag: Permutation) -> VerifyReport:
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
    rep = VerifyReport(f"bijection n={n} diag={diag.cycles()}")
    unwind = dict(zip(diag.images, diag.labels))
    sliced: set[tuple] = set()
    direct: set[tuple] = set()
    y1_per_b: Counter = Counter()
    y2_per_b: Counter = Counter()
    y3_per_b: Counter = Counter()
    planes = 0
    for s in _top_rows(diag):
        # pi = diag^-1 after the cycle of s, so that diag(pi(x)) is x's successor
        p = _rows_of(s, {x: unwind[y] for x, y in zip(s, s[1:] + s[:1])})
        planes += 1
        cycles = [c for x, c in p.at.items() if c[0] == x]
        ntaes = _ntaes(s, p.pos, p.pi.__getitem__, p.at)
        b = len(cycles)

        # forward: slice at each ntae, demanding distinct keys and clean returns
        for eps in ntaes:
            y1_per_b[b] += 1
            try:
                out, fragments, dist = _slice(p, eps)
            except ValueError as err:
                rep.check(False, f"slice refused {s} at eps={eps}: {err}")
                continue
            minima = tuple(c[0] for c in fragments)
            key = (out.s, minima, dist)
            if not rep.check(key not in sliced, lambda: f"slice collision at {key}"):
                continue
            sliced.add(key)
            rep.check(
                sum(1 for x, c in out.at.items() if c[0] == x) == b + 2,
                lambda: f"slice did not add two cycles at {key}",
            )
            x3 = minima[2] if dist is None else out.pi[dist]
            try:
                back, eps_back = _glue(out, minima[0], minima[1], x3)
            except ValueError as err:
                rep.check(False, f"glue refused the anchors of {key}: {err}")
                continue
            rep.check(
                back.s == s and back.pi == p.pi and eps_back == eps,
                lambda: f"slice/glue round trip broke at {key}",
            )

        # backward: census p's marked trios and glue each one back
        for trio in itertools.combinations(cycles, 3):
            minima = (trio[0][0], trio[1][0], trio[2][0])
            marks = [None, *(eps for eps in trio[2] if eps in ntaes)]
            y2_per_b[b - 2] += 1
            y3_per_b[b - 2] += len(marks) - 1
            for dist in marks:
                key = (s, minima, dist)
                direct.add(key)
                x3 = minima[2] if dist is None else p.pi[dist]
                try:
                    merged, eps_out = _glue(p, minima[0], minima[1], x3)
                    out, fragments, dist_back = _slice(merged, eps_out)
                except ValueError as err:
                    rep.check(False, f"glue/slice round trip refused {key}: {err}")
                    continue
                returned = (out.s, out.pi, tuple(c[0] for c in fragments), dist_back)
                rep.check(
                    returned == (s, p.pi, minima, dist),
                    lambda: f"glue/slice round trip broke at {key}",
                )

    for key in sorted(direct - sliced, key=repr):
        rep.check(False, f"census key never produced by a slice: {key}")
    for key in sorted(sliced - direct, key=repr):
        rep.check(False, f"slice key missing from the census: {key}")

    for b in sorted({*y1_per_b, *y2_per_b, *y3_per_b}):
        y1, y2, y3 = y1_per_b[b], y2_per_b[b], y3_per_b[b]
        rep.check(y1 == y2 + y3, f"b={b}: {y1} slices vs {y2} + {y3} marked planes")

    rep.info["planes"] = planes
    rep.info["y1"] = sum(y1_per_b.values())
    rep.info["y2"] = sum(y2_per_b.values())
    rep.info["y3"] = sum(y3_per_b.values())
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


def verify_trisection(diag: Permutation) -> VerifyReport:
    """Genus bookkeeping for one fixed-point-free involution diagonal.

    With ``2m`` labels matched by the diagonal and ``2g = m + 1 - cycles``,
    every plane must have (1) ``m + 1`` anti-exceedances, (2) ``2g >= 0``,
    (3) ``2g`` even, (4) exactly ``2g`` non-trivial anti-exceedances and
    (5) an anti-exceedance at the last label of each cycle, walked from its
    first label in top-row order.
    """
    labels = diag.labels
    size = len(labels)
    if size % 2:
        raise ValueError("need an even number of labels")
    slot = {x: i for i, x in enumerate(labels)}
    dimg = [slot[y] for y in diag.images]
    if any(y == x or dimg[y] != x for x, y in enumerate(dimg)):
        raise ValueError("diagonal must be a fixed-point-free involution")
    m = size // 2
    rep = VerifyReport(f"trisection diag={diag.cycles()}")
    for row in _anchored_rows(size):
        pos, succ = _row_tables(row)
        pi = [dimg[y] for y in succ]  # the diagonal is an involution
        image = pi.__getitem__
        at = _cycle_map(row, image)
        cycles = [c for x, c in at.items() if c[0] == x]
        aex = sum(1 for x in range(size) if pos[x] >= pos[pi[x]])
        cycle_count = len(cycles)
        genus2 = m + 1 - cycle_count
        ntae = len(_ntaes(row, pos, image, at))
        ok = (
            aex == m + 1
            and genus2 >= 0
            and genus2 % 2 == 0
            and ntae == genus2
            and all(pos[c[-1]] >= pos[pi[c[-1]]] for c in cycles)
        )
        rep.check(ok, lambda: f"row={row}: aex={aex} cycles={cycle_count} ntae={ntae}")
    return rep


# -- sweeps used by the command line and the test suite -----------------


def check_parity_filter(n: int) -> VerifyReport:
    """Every count whose type pair breaks the parity rule is zero."""
    parity = VerifyReport("parity filter")
    for m in range(1, n + 1):
        shapes = list(partitions_of(m))
        for eta in shapes:
            for lam in shapes:
                if (len(eta) + len(lam)) % 2 != (m - 1) % 2:
                    parity.check(
                        tabulate(m, lam).f(eta) == 0,
                        lambda: f"m={m} eta={eta} lam={lam}: parity-violating count is nonzero",
                    )
    return parity


def check_xi_tabulated(n: int) -> VerifyReport:
    """:func:`xi` against the count table of the full-cycle diagonal, up to ``n``."""
    cross = VerifyReport("xi vs tabulated full-cycle diagonal")
    for m in range(1, n + 1):
        table = tabulate(m, Partition.of([m]))
        for k in range(1, m + 1):
            cross.check(
                xi(m, k) == table.p_k(k),
                lambda: f"m={m} k={k}: xi={xi(m, k)} tabulated={table.p_k(k)}",
            )
    return cross


def check_exceedance_at(m: int) -> VerifyReport:
    """Exceedance totals and the transfer between ordinary and plane counts."""
    rep = VerifyReport(f"exceedance n={m}")
    by_ak, by_akl = _ordinary_tables(m)
    for k in range(1, m + 1):
        total_a = sum(a * c for (a, kk), c in by_ak.items() if kk == k)
        direct, product = exceedance_totals(m, k)
        rep.check(
            total_a == direct == product,
            lambda: f"m={m} k={k}: exceedances {total_a}, closed forms {direct} and {product}",
        )
        lhs = sum((m - a - k) * c for (a, kk), c in by_ak.items() if kk == k)
        rhs = _higher_cycles(partial(stirling_first, m), m, k)
        rep.check(lhs == rhs, lambda: f"m={m} k={k}: anti-exceedance total {lhs} != {rhs}")
    rep.check(
        by_ak.get((0, m), 0) == 1,
        f"m={m}: the identity should be the only exceedance-free permutation",
    )
    if m >= 2:
        rep.check(
            by_ak.get((1, m - 1), 0) == binomial(m, 2),
            f"m={m}: single-exceedance count should be the transposition count",
        )
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
                    lambda: (
                        f"m={m} lam={lam} a={a} k={k}: "
                        f"transfer {plane_count} vs {ordinary} failed"
                    ),
                )
    return rep


def check_p1_at(m: int) -> VerifyReport:
    """The three routes to p_1 agree, and the parity-violating ones are zero."""
    rep = VerifyReport(f"p1 n={m}")
    for lam in partitions_of(m):
        routes = p1_routes(m, lam)
        rep.check(
            len(set(routes.values())) == 1,
            lambda: f"m={m} lam={lam}: routes disagree {routes}",
        )
        if (m - len(lam)) % 2:
            rep.check(
                routes["alternating"] == 0,
                lambda: f"m={m} lam={lam}: parity-violating count is nonzero",
            )
    return rep


def check_w_identities_at(m: int) -> VerifyReport:
    """Symmetries of the type-product counts, and their full-cycle margin."""
    rep = VerifyReport(f"w-identities n={m}")
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
                    lambda: f"m={m} lam={lam}: swapping {mu} and {eta} changed the count",
                )
                rep.check(
                    ql * w == qm * W_count(mu, lam, eta),
                    lambda: f"m={m}: weighted transfer {lam}/{mu} at {eta} failed",
                )
            rep.check(
                W_count(lam, mu, ones) == (1 if mu == lam else 0),
                lambda: f"m={m} lam={lam} mu={mu}: identity margin should be 0/1",
            )
    full = Partition.of([m])
    for k in range(1, m + 1):
        total = sum(W_count(full, full, eta) for eta in partitions_of(m) if len(eta) == k)
        rep.check(total == xi(m, k), lambda: f"m={m} k={k}: margin {total} != xi {xi(m, k)}")
    return rep


# -- the verify suites, in the order the command line lists them -------

suite_ntae_identity = Suite(
    "ntae-identity", "ntae-identity n<={n}", TABLE_SUITE_GATE,
    lambda n: [
        partial(verify_ntae_identity, m, lam, k)
        for m in range(1, n + 1) for lam in partitions_of(m) for k in range(1, m + 1)
    ],
)
# All valid type pairs, then the parity filter on the invalid counts; n=1 has neither.
suite_f_recurrence = Suite(
    "f-recurrence", "f-recurrence n<={n}", TABLE_SUITE_GATE,
    lambda n: [
        partial(verify_f_recurrence, m, eta, lam)
        for m in range(1, n + 1) for eta in partitions_of(m) for lam in partitions_of(m)
        if len(eta) + len(lam) < m + 1
    ] + [partial(check_parity_filter, n)],
    floor=2,
)
suite_cycle_recurrence = Suite(
    "cycle-recurrence", "cycle-recurrence n<={n}", TABLE_SUITE_GATE,
    lambda n: [
        partial(verify_cycle_recurrence, m, lam, k)
        for m in range(1, n + 1) for lam in partitions_of(m) for k in range(1, m + 1 - len(lam))
    ],
    floor=2,
)
verify_stirling_recurrence = Suite(
    "stirling", "stirling-recurrence n<={n}", 240,
    lambda n: [partial(check_stirling_recurrence_at, m) for m in range(1, n + 1)],
)
# Closed form and recurrence at each size, then the full-cycle-diagonal cross-check.
suite_zagier_stanley = Suite(
    "zagier-stanley", "zagier-stanley n<={n}", TABLE_SUITE_GATE,
    lambda n: [partial(zagier_stanley_check, m) for m in range(1, n + 1)]
    + [partial(check_xi_tabulated, n)],
)
# Genus checks over every matching diagonal on 2, 4, .., 2n labels.
suite_trisection = Suite(
    "trisection", "trisection m<={n}", 4,
    lambda n: [
        partial(verify_trisection, Permutation.from_cycles(pairs))
        for m in range(1, n + 1) for pairs in _pairings(list(range(2 * m)))
    ],
    totals=lambda parts: {"pairings": len(parts)},
)
# Slice/glue bijection over every diagonal of every size up to n; below 3
# labels no plane has a non-trivial anti-exceedance or three cycles.
suite_bijection = Suite(
    "bijection", "bijection n<={n}", 7,
    lambda n: [
        partial(verify_bijection, Permutation(tuple(range(1, m + 1)), images))
        for m in range(1, n + 1) for images in itertools.permutations(range(1, m + 1))
    ],
    floor=3,
    totals=lambda parts: {"diagonals": len(parts), **summed(parts, "y1", "y2", "y3")},
)
suite_exceedance = Suite(
    "exceedance", "exceedance n<={n}", TABLE_SUITE_GATE,
    lambda n: [partial(check_exceedance_at, m) for m in range(1, n + 1)],
)
suite_p1 = Suite(
    "p1", "p1 n<={n}", TABLE_SUITE_GATE,
    lambda n: [partial(check_p1_at, m) for m in range(1, n + 1)],
)
suite_w_identities = Suite(
    "w-identities", "w-identities n<={n}", 6,
    lambda n: [partial(check_w_identities_at, m) for m in range(1, n + 1)],
)
