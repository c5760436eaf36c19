"""The arithmetic of tools/bench_pairs.py on fixed numbers."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def test_lower_is_better_counts_wins_without_ties():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0]
    got = bench_pairs.compare(parent, change, "lower", 0.25)
    assert got["parent"] == [1.5, 3.0, 4.5]
    assert got["change"] == [1.25, 3.0, 3.75]
    assert got["wins"] == 3  # the tie at 2.0 counts for neither side
    assert not got["worse"]


def test_higher_is_better_turns_the_comparison():
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [11.0, 9.0, 8.0, 8.0]
    got = bench_pairs.compare(parent, change, "higher", 0.1)
    assert got["wins"] == 1
    assert got["change"][1] == 8.5
    assert got["worse"]  # 8.5 is 15% below 10
    assert not bench_pairs.compare(parent, change, "higher", 0.2)["worse"]


def test_bound_is_a_fraction_of_the_parent_median():
    parent = [100.0, 100.0, 100.0]
    assert not bench_pairs.compare(parent, [110.0] * 3, "lower", 0.1)["worse"]
    assert bench_pairs.compare(parent, [110.5] * 3, "lower", 0.1)["worse"]
    assert not bench_pairs.compare(parent, [50.0] * 3, "lower", 0.1)["worse"]
