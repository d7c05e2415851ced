"""Plane permutations: cyclic top rows over arbitrary bottom rows, the
moves that sort them, and the exact counts they satisfy."""

from .distances import (
    Reversal,
    SearchCapExceeded,
    bfs_distance,
    bid,
    bid_count,
    bid_sort,
    breakpoint_bound,
    conjecture_scan,
    find_2_reversal,
    greedy_reversal_sort,
    max_cycle_gap,
    rev_lower_bound,
    skew_seq,
    td_lower_bound,
)
from .enumeration import (
    CountTable,
    W_count,
    enumerate_U_D,
    exceedance_totals,
    tabulate,
    verify_bijection,
    verify_trisection,
    xi,
)
from .partitions import Partition, binomial, partitions_of, q_lambda, stirling_first
from .perm import Permutation, cycle_from_sequence, parse_sequence
from .plane import BlockInterchange, PlanePermutation, SliceResult, TransposeCase
from .report import EnumerationLimitError, VerifyReport

__version__ = "0.1.0"

__all__ = [
    "BlockInterchange",
    "CountTable",
    "EnumerationLimitError",
    "Partition",
    "Permutation",
    "PlanePermutation",
    "Reversal",
    "SearchCapExceeded",
    "SliceResult",
    "TransposeCase",
    "VerifyReport",
    "W_count",
    "bfs_distance",
    "bid",
    "bid_count",
    "bid_sort",
    "binomial",
    "breakpoint_bound",
    "conjecture_scan",
    "cycle_from_sequence",
    "enumerate_U_D",
    "exceedance_totals",
    "find_2_reversal",
    "greedy_reversal_sort",
    "max_cycle_gap",
    "parse_sequence",
    "partitions_of",
    "q_lambda",
    "rev_lower_bound",
    "skew_seq",
    "stirling_first",
    "tabulate",
    "td_lower_bound",
    "verify_bijection",
    "verify_trisection",
    "xi",
]
