"""tools/bench_pairs.py's statistics on fixed numbers; no benchmark is run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_as_statistics_quantiles_gives_them(bench_pairs):
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {"q1": 1.5, "median": 3.0, "q3": 4.5}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_wins_and_gain_follow_the_better_direction(bench_pairs):
    parent = [{"op_p50_s": v, "ops_per_s": 1.0 / v} for v in (2.0, 2.2, 2.4, 2.6, 2.8)]
    change = [{"op_p50_s": v, "ops_per_s": 1.0 / v} for v in (1.8, 1.9, 2.5, 2.0, 2.1)]
    summary = bench_pairs.summarize(parent, change, {"op_p50_s": "lower", "ops_per_s": "higher"})
    op = summary["op_p50_s"]
    assert op["parent"] == pytest.approx({"q1": 2.1, "median": 2.4, "q3": 2.7})
    assert op["change"]["median"] == pytest.approx(2.0)
    assert (op["wins"], op["pairs"]) == (4, 5)
    assert op["median_gain"] == pytest.approx(0.4)
    assert op["parent_quartile_distance"] == pytest.approx(0.6)
    assert not op["gain_exceeds_parent_spread"]
    rate = summary["ops_per_s"]
    assert rate["wins"] == 4
    assert rate["median_gain"] == pytest.approx(1.0 / 2.0 - 1.0 / 2.4)


def test_a_gain_beyond_the_parent_spread_is_flagged(bench_pairs):
    parent = [{"setup_s": v} for v in (6.0, 6.1, 6.2, 5.9)]
    change = [{"setup_s": v} for v in (4.9, 5.0, 4.8, 5.1)]
    s = bench_pairs.summarize(parent, change, {"setup_s": "lower"})["setup_s"]
    assert s["wins"] == 4 and s["gain_exceeds_parent_spread"]
    worse = bench_pairs.summarize(change, parent, {"setup_s": "lower"})["setup_s"]
    assert worse["wins"] == 0 and worse["median_gain"] < 0 and not worse["gain_exceeds_parent_spread"]


def test_unpaired_runs_refused(bench_pairs):
    with pytest.raises(ValueError):
        bench_pairs.summarize([{"x": 1.0}], [], {"x": "lower"})
