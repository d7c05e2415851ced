"""Exact arithmetic and partition bookkeeping."""

import math
from itertools import product

import pytest
from hypothesis import given, strategies as st

from planeperm.partitions import (
    Partition,
    binomial,
    exact_div,
    kappa,
    partitions_of,
    q_lambda,
    splits,
    stirling_first,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

# row n=5 of the unsigned Stirling triangle, k = 1..5
STIRLING_5 = [24, 50, 35, 10, 1]


def test_exact_div():
    assert exact_div(10, 5) == 2
    assert exact_div(-9, 3) == -3
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)


def test_binomial_negative_upper():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(3, 5) == 0
    with pytest.raises(ValueError):
        binomial(-1, 3)


def test_partition_basics():
    lam = Partition.of([1, 3, 2, 2])
    assert lam.parts == (3, 2, 2, 1)
    assert lam.n == 8
    assert len(lam) == 4
    assert lam.multiplicities() == {1: 1, 2: 2, 3: 1}
    assert str(lam) == "3+2+2+1"
    assert Partition.from_string("3+2+2+1") == lam
    assert Partition.from_string("1^1 2^2 3^1") == lam


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition.of([2, 0])
    with pytest.raises(ValueError):
        Partition.of([-1])
    for text in ("3^-1 1^3", "3^0 1^3", "2^1 1^-2"):
        with pytest.raises(ValueError, match="bad partition chunk"):
            Partition.from_string(text)
    for text, message in (
        ("3^1.5", "bad partition chunk: '3^1.5'"),
        ("x^1 2^1", "bad partition chunk: 'x^1'"),
        ("1^2+1^1", "bad partition chunk: '1^2+1^1'"),
        ("2+x", "bad partition: '2+x'"),
        ("2++1", "bad partition: '2++1'"),
    ):
        with pytest.raises(ValueError) as err:
            Partition.from_string(text)
        assert str(err.value) == message


def test_partition_parts_are_a_sign_then_ascii_digits():
    # ``int`` alone reads 0_1 as 1 and the Arabic-Indic digit three as 3.
    for text, message in (
        ("3+0_1", "bad partition: '3+0_1'"),
        ("\u0663", "bad partition: '\u0663'"),
        ("2^1_0", "bad partition chunk: '2^1_0'"),
        ("\u0661^3", "bad partition chunk: '\u0661^3'"),
    ):
        with pytest.raises(ValueError) as err:
            Partition.from_string(text)
        assert str(err.value) == message
    # Spaces around the parts of the "+" form are not part of a token.
    assert Partition.from_string(" 2 + 1 ") == Partition.of([2, 1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Partition((1, 2)), "parts must be non-increasing: (1, 2)"),
        (lambda: list(partitions_of(-1)), "n must be non-negative"),
        (lambda: splits(Partition.of([2]), 0), "pieces must be positive"),
        (
            lambda: kappa(Partition.of([2]), Partition.of([1])),
            "partitions must have the same weight",
        ),
    ],
    ids=["increasing-parts", "partitions_of", "splits", "kappa"],
)
def test_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_partitions_of_counts():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert len(list(partitions_of(n))) == expected


def test_partitions_of_weights_and_order():
    seen = list(partitions_of(6))
    assert all(p.n == 6 for p in seen)
    assert seen[0].parts == (6,)
    assert seen[-1].parts == (1,) * 6
    assert len(set(seen)) == len(seen)


def test_q_lambda_sums_to_factorial():
    for n in range(1, 8):
        assert sum(q_lambda(p) for p in partitions_of(n)) == math.factorial(n)


def test_q_lambda_values():
    assert q_lambda(Partition.of([3])) == 2
    assert q_lambda(Partition.of([2, 1])) == 3
    assert q_lambda(Partition.of([1, 1, 1])) == 1


def test_splits_examples():
    assert [p.parts for p in splits(Partition.of([3, 1]), 3)] == [(1, 1, 1, 1)]
    assert splits(Partition.of([2, 2]), 3) == ()
    got = {p.parts for p in splits(Partition.of([5]), 3)}
    assert got == {(3, 1, 1), (2, 2, 1)}


def test_splits_are_the_partitions_that_merge_back():
    """``splits`` against ``kappa``, an independent reference: mu comes from
    eta by splitting one part into ``pieces`` parts exactly when mu has
    ``pieces - 1`` more parts than eta and some merge of mu gives eta."""
    cases = 0
    for n in range(1, 9):
        shapes = list(partitions_of(n))
        for eta in shapes:
            for pieces in range(1, n + 1):
                want = {
                    mu
                    for mu in shapes
                    if len(mu) == len(eta) + pieces - 1 and kappa(mu, eta) > 0
                }
                assert set(splits(eta, pieces)) == want, (eta, pieces)
                cases += 1
    assert cases == 416


def test_kappa_merge_counts():
    # merging three of the four ones back into a 3
    assert kappa(Partition.of([1, 1, 1, 1]), Partition.of([3, 1])) == 4
    # the degenerate merge: nothing moves
    assert kappa(Partition.of([2, 1]), Partition.of([2, 1])) == 1
    assert kappa(Partition.of([2, 1]), Partition.of([3])) == 1
    assert kappa(Partition.of([2, 2]), Partition.of([3, 1])) == 0
    assert kappa(Partition.of([1, 1, 1, 1, 1, 2]), Partition.of([3, 2, 1, 1])) == 10


def reference_kappa(mu, eta):
    """The merge count by search: every way to pick ``take`` copies of the
    parts of ``mu``, kept when merging them gives ``eta``."""
    if mu.n != eta.n:
        raise ValueError("partitions must have the same weight")
    take = len(mu) - len(eta) + 1
    if take < 1:
        return 0
    if take == 1:
        return 1 if mu == eta else 0
    values = sorted(mu.multiplicities().items())
    total = 0
    ranges = [range(min(take, count) + 1) for _, count in values]
    for chosen in product(*ranges):
        if sum(chosen) != take:
            continue
        ways = 1
        remaining: list[int] = []
        merged = 0
        for (value, count), c in zip(values, chosen):
            ways *= math.comb(count, c)
            merged += value * c
            remaining.extend([value] * (count - c))
        remaining.append(merged)
        if Partition.of(remaining) == eta:
            total += ways
    return total


def test_kappa_matches_the_reference_search():
    pairs = 0
    for n in range(11):
        shapes = list(partitions_of(n))
        for mu in shapes:
            for eta in shapes:
                assert kappa(mu, eta) == reference_kappa(mu, eta), (mu, eta)
                pairs += 1
    assert pairs == 3583


def test_kappa_column_sums():
    """Summed over targets with the right length, the merge counts hit a binomial."""
    for n in range(2, 9):
        for mu in partitions_of(n):
            for k in range(1, len(mu)):
                take = len(mu) - k + 1
                if take < 3 or take % 2 == 0:
                    continue
                total = sum(
                    kappa(mu, eta) for eta in partitions_of(n) if len(eta) == k
                )
                assert total == binomial(len(mu), take), (mu, k)


def test_stirling_row():
    assert [stirling_first(5, k) for k in range(1, 6)] == STIRLING_5
    assert stirling_first(0, 0) == 1
    assert stirling_first(4, 0) == 0
    assert stirling_first(3, 7) == 0
    assert stirling_first(-1, 2) == 0


def test_stirling_row_sums():
    for n in range(1, 12):
        assert sum(stirling_first(n, k) for k in range(n + 1)) == math.factorial(n)


def test_stirling_matches_the_recurrence_in_any_order():
    # c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k), rows built here from row 0
    rows = [[1]]
    for n in range(1, 61):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] + (n - 1) * prev[k] for k in range(1, n + 1)])
    for order in (range(60, -1, -1), range(61)):
        for n in order:
            assert [stirling_first(n, k) for k in range(n + 2)] == rows[n] + [0], n


def test_stirling_matches_cycle_type_census():
    for n in range(1, 7):
        for k in range(1, n + 1):
            census = sum(
                q_lambda(p) for p in partitions_of(n) if len(p) == k
            )
            assert census == stirling_first(n, k)


@given(st.integers(0, 40), st.integers(0, 40))
def test_binomial_matches_math_comb(m, r):
    assert binomial(m, r) == math.comb(m, r)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_partition_of_is_order_insensitive(parts):
    assert Partition.of(parts) == Partition.of(sorted(parts))
    assert Partition.of(parts).n == sum(parts)


@given(st.integers(1, 10), st.integers(3, 7))
def test_splits_preserve_weight(n, pieces):
    if pieces % 2 == 0:
        pieces += 1
    for eta in partitions_of(n):
        for mu in splits(eta, pieces):
            assert mu.n == eta.n
            assert len(mu) == len(eta) + pieces - 1
            assert kappa(mu, eta) >= 1
