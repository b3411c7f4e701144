"""tools/bench_pairs.py's statistics on fixed numbers; no benchmark is run."""

from __future__ import annotations

import importlib.util
import json
import sys
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


def test_claim_met_needs_nine_in_ten_wins_and_a_gain_beyond_the_spread(bench_pairs):
    parent = [{"peak_rss_mb": v} for v in (198.0, 198.1, 198.2, 198.3, 198.4, 198.0, 198.1, 198.2, 198.3, 198.4)]
    nine = [{"peak_rss_mb": v} for v in (189.0, 189.1, 189.2, 189.3, 189.4, 189.0, 189.1, 189.2, 189.3, 199.0)]
    s = bench_pairs.summarize(parent, nine, {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert (s["wins"], s["gain_exceeds_parent_spread"], s["claim_met"]) == (9, True, True)
    eight = nine[:8] + [{"peak_rss_mb": 199.0}] * 2
    s = bench_pairs.summarize(parent, eight, {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert (s["wins"], s["gain_exceeds_parent_spread"], s["claim_met"]) == (8, True, False)
    # Ten wins by less than the parent's quartile distance (0.25 MB) claim nothing.
    close = [{"peak_rss_mb": run["peak_rss_mb"] - 0.05} for run in parent]
    s = bench_pairs.summarize(parent, close, {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert (s["wins"], s["gain_exceeds_parent_spread"], s["claim_met"]) == (10, False, False)


def test_within_bound_reads_the_bound_as_a_share_of_the_parent_median(bench_pairs):
    parent = [{"op_p50_s": v, "ops_per_s": 1.0 / v} for v in (1.9, 2.0, 2.1)]
    slower = [{"op_p50_s": v, "ops_per_s": 1.0 / v} for v in (2.4, 2.5, 2.6)]
    better = {"op_p50_s": "lower", "ops_per_s": "higher"}
    # Median 2.0 s -> 2.5 s is 25% worse: at the 0.25 bound, past a 0.2 one.
    assert bench_pairs.summarize(parent, slower, better, {"op_p50_s": 0.25})["op_p50_s"]["within_bound"]
    summary = bench_pairs.summarize(parent, slower, better, {"op_p50_s": 0.2, "ops_per_s": 0.25})
    assert summary["op_p50_s"]["within_bound"] is False
    # The rate falls from 0.5 to 0.4 per second, 20% of the parent's median.
    assert summary["ops_per_s"]["within_bound"] is True
    assert bench_pairs.summarize(parent, slower, better, {"ops_per_s": 0.1})["ops_per_s"]["within_bound"] is False
    # A gain is always within its bound; a metric without one reads None.
    assert bench_pairs.summarize(slower, parent, better, {"op_p50_s": 0.0})["op_p50_s"]["within_bound"] is True
    assert bench_pairs.summarize(parent, slower, better)["op_p50_s"]["within_bound"] is None


def test_unpaired_runs_refused(bench_pairs):
    with pytest.raises(ValueError):
        bench_pairs.summarize([{"x": 1.0}], [], {"x": "lower"})


def tree(root, run_py="print()\n", spec="{}\n", src="x = 1\n"):
    """A minimal checkout: one src/vprkit module, vprbench/run.py and BENCHMARK.json."""
    (root / "src" / "vprkit").mkdir(parents=True)
    (root / "vprbench").mkdir()
    (root / "src" / "vprkit" / "a.py").write_text(src)
    (root / "vprbench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text(spec)
    return root


@pytest.mark.parametrize(
    "change, same",
    [
        ({}, True),
        ({"src": "x = 2\n"}, True),
        ({"run_py": "print(1)\n"}, False),
        ({"spec": '{"run_seconds": 5}\n'}, False),
    ],
)
def test_same_benchmark_follows_the_benchmark_files_alone(bench_pairs, tmp_path, capsys, change, same):
    trees = {"parent": tree(tmp_path / "parent"), "change": tree(tmp_path / "change", **change)}
    record = {"parent": {}, "change": {}}
    bench_pairs.record_trees(record, trees)
    assert record["same_benchmark"] is same
    assert (record["parent"]["bench_sha256"] == record["change"]["bench_sha256"]) is same
    assert (record["parent"]["src_sha256"] == record["change"]["src_sha256"]) is ("src" not in change)
    assert ("warning" in capsys.readouterr().err) is not same


def test_change_side_is_a_copy_of_the_working_tree(bench_pairs, tmp_path, monkeypatch):
    """The change side runs from a fresh copy of src, vprbench and BENCHMARK.json,
    digested alike, with no bytecode carried over."""
    root = tree(tmp_path / "checkout")
    (root / "src" / "vprkit" / "__pycache__").mkdir()
    (root / "src" / "vprkit" / "__pycache__" / "a.cpython.pyc").write_bytes(b"\0")
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    copy = tmp_path / "copy"
    copy.mkdir()
    bench_pairs.copy_working_tree(copy)
    assert bench_pairs.src_digest(copy) == bench_pairs.src_digest(root)
    assert bench_pairs.bench_digest(copy) == bench_pairs.bench_digest(root)
    assert not list(copy.rglob("__pycache__"))


def test_side_trees_have_paths_of_equal_length(bench_pairs):
    """Both sides start from fresh directories whose paths are equally long, so
    that a metric that moves with the path's length moves alike on both."""
    with bench_pairs.side_trees() as trees:
        assert set(trees) == {"parent", "change"}
        assert trees["parent"] != trees["change"] and all(t.is_dir() for t in trees.values())
        assert len(str(trees["parent"])) == len(str(trees["change"]))
    assert not any(t.exists() for t in trees.values())


RUN_PY = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == {fail_seed}:
    sys.exit(1)
print(json.dumps({{"failed": 0, "attempted": 1, "metrics": {{"op_p50_s": {{"value": {value}}}}}}}))
"""


def test_a_run_that_exits_non_zero_is_left_out(bench_pairs, tmp_path, capsys):
    """The change's run at seed 3 exits 1: its pair records that exit code and no
    metrics, the summary covers the three other pairs, which the change all won
    by more than the parent's spread, and the pair left out keeps claim_met false."""
    trees = {
        "parent": tree(tmp_path / "parent", run_py=RUN_PY.format(fail_seed=-1, value=2.0)),
        "change": tree(tmp_path / "change", run_py=RUN_PY.format(fail_seed=3, value=1.0)),
    }
    command = [sys.executable, "vprbench/run.py"]
    w = bench_pairs.run_pairs(trees, command, "wl", 4, [1, 2, 3, 4], 1, {"op_p50_s": "lower"}, {"op_p50_s": 0.25})
    assert [r["change"]["exit_code"] for r in w["runs"]] == [0, 0, 1, 0]
    assert "metrics" not in w["runs"][2]["change"] and w["runs"][2]["parent"]["exit_code"] == 0
    assert w["pairs_left_out"] == 1
    assert (w["attempted"], w["failed"]) == ({"parent": 3, "change": 3}, {"parent": 0, "change": 0})
    s = w["summary"]["op_p50_s"]
    assert (s["pairs"], s["wins"], s["pairs_left_out"]) == (3, 3, 1)
    assert s["gain_exceeds_parent_spread"] and not s["claim_met"] and s["within_bound"]
    assert "exit 1" in capsys.readouterr().err
    json.dumps(w)


def test_no_pair_left_gives_an_empty_summary(bench_pairs, tmp_path):
    trees = {side: tree(tmp_path / side, run_py=RUN_PY.format(fail_seed=1, value=1.0)) for side in ("parent", "change")}
    w = bench_pairs.run_pairs(trees, [sys.executable, "vprbench/run.py"], "wl", 2, [1], 1, {"op_p50_s": "lower"}, {})
    assert (w["summary"], w["pairs_left_out"]) == ({}, 2)
    assert [r["parent"]["exit_code"] for r in w["runs"]] == [1, 1]
