"""Run every docstring example shipped with the package."""

import doctest
from pathlib import Path

import planeperm.distances
import planeperm.enumeration
import planeperm.partitions
import planeperm.perm
import planeperm.plane
import planeperm.report
import planeperm.serialize

MODULES = [
    planeperm.partitions,
    planeperm.perm,
    planeperm.plane,
    planeperm.distances,
    planeperm.enumeration,
    planeperm.report,
    planeperm.serialize,
]
README = Path(__file__).resolve().parent.parent / "README.md"


def test_doctests():
    total = 0
    for module in MODULES:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        total += result.attempted
    assert total >= 20
    readme = doctest.testfile(str(README), module_relative=False)
    assert readme.failed == 0, "README.md"
    assert readme.attempted >= 5
