"""The verdicts tools/bench_pairs.py gives one end-to-end metric over paired runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verdict(tool, parent, change, better="higher", bound=0.25):
    runs = {side: [{"metrics": {"m": {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    return tool.summarize(runs, {"name": "m", "unit": "u", "better": better, "bound": bound})


PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

CASES = {
    # 9 of 10 pairs won, and the medians 20 apart against a parent q3 - q1 of 1.5
    "gain": (PARENT, [120, 121, 119, 120, 122, 118, 120, 121, 119, 95], "higher", "gain"),
    "gain_when_lower_is_better": (PARENT, [v - 20 for v in PARENT], "lower", "gain"),
    # every pair won, but by less than the parent's quartile distance
    "win_inside_the_parent_quartiles": (PARENT, [v + 0.5 for v in PARENT], "higher",
                                        "within_bound"),
    # 8 of 10 pairs is not enough for a gain
    "eight_wins": (PARENT, [130] * 8 + [90, 90], "higher", "within_bound"),
    # worse by 40%, with the parent's runs spread far beyond the bound
    "unresolved": ([40, 160, 70, 130, 100, 60, 140, 100, 50, 150],
                   [60] * 10, "higher", "unresolved"),
    # worse by 40%, with narrow spreads on both sides
    "worse": (PARENT, [v * 0.6 for v in PARENT], "higher", "worse"),
    "worse_when_lower_is_better": (PARENT, [v * 1.4 for v in PARENT], "lower", "worse"),
    # worse by 10%, inside the 25% bound
    "worse_within_the_bound": (PARENT, [v * 0.9 for v in PARENT], "higher", "within_bound"),
    # wide spreads, but the change is better
    "better_with_wide_spreads": ([40, 160, 70, 130, 100, 60, 140, 100, 50, 150],
                                 [45, 170, 75, 135, 105, 62, 150, 104, 52, 160], "higher",
                                 "within_bound"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict(bench_pairs, case):
    parent, change, better, want = CASES[case]
    entry = verdict(bench_pairs, parent, change, better)
    assert entry["verdict"] == want, entry
