"""Run alternated parent/change pairs of the benchmark and write a BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT_REV --workload index-build --pairs 10 --seeds 3 4 5 6 --out BENCH_14.json

The parent side is PARENT_REV, exported with `git archive` into a temporary
directory; the change side is the working tree's src, vprbench and
BENCHMARK.json, copied into another, so that both sides run from fresh
directories alike (run in the checkout itself, identical code read about 2 MB
more peak_rss_mb on query-rerank-sharp than its export). Each pair runs the unmodified
benchmark command of BENCHMARK.json (vprbench/run.py) once on each side,
untraced, at the same seed and for BENCHMARK.json's run length: the parent
first on even pairs and the change first on odd ones, so that drift in the
machine's speed falls on both sides alike. The seeds are used in turn.

For every workload and end-to-end metric the file holds each side's quartiles
and median, computed as vprbench/spread.py computes them
(statistics.quantiles(values, n=4)); how many pairs the change won; the
change's median gain in the metric's better direction; whether that gain
exceeds the distance between the parent's quartiles; and two verdicts:
claim_met (no pair was left out, the change won at least 9 in 10 of the
pairs and its median gain exceeds the parent's quartile distance) and within_bound (the change's median
is worse than the parent's by no more than the metric's BENCHMARK.json bound,
a share of the parent's median as vprbench/spread.py reads it). It also
records every run's values, the machine (cores, BLAS, the thread pin), both
revisions with a digest of their src/vprkit sources and one of their benchmark
files (vprbench/*.py and BENCHMARK.json), and the seeds. Each side runs its own
tree's benchmark, so when the two benchmark digests differ the file says
same_benchmark: false and a warning is printed before the first run;
"uncommitted" says whether the working tree's src, vprbench or BENCHMARK.json
differ from HEAD.

A run that exits non-zero does not stop the others: its pair records the exit
code, stays out of the summary and is counted in pairs_left_out, and the file
is written all the same.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent

# The same pin vprbench/run.py sets for itself, set here too so that it is recorded.
THREAD_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def quartiles(values: list[float]) -> dict[str, float]:
    """First quartile, median and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


# The share of pairs a claimed gain must win.
CLAIM_WIN_SHARE = 0.9


def summarize(
    parent: list[dict[str, float]],
    change: list[dict[str, float]],
    better: dict[str, str],
    bounds: dict[str, float] | None = None,
    left_out: int = 0,
) -> dict:
    """Per metric of better (name -> "lower" or "higher"): both sides' quartiles over
    the paired runs (parent[i] pairs with change[i]), the change's wins, its median
    gain in the better direction, whether that gain exceeds the parent's quartile
    distance, whether a claim of it is met (never with left_out pairs left out of
    the runs given), and whether the change's median is within the metric's bound
    of the parent's (None for a metric bounds lacks)."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, nonzero numbers of runs; got {len(parent)} and {len(change)}")
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        pq, cq = quartiles(p), quartiles(c)
        gain = sign * (pq["median"] - cq["median"])
        spread = pq["q3"] - pq["q1"]
        wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        bound = (bounds or {}).get(name)
        out[name] = {
            "better": direction,
            "parent": pq,
            "change": cq,
            "wins": wins,
            "pairs": len(p),
            "pairs_left_out": left_out,
            "median_gain": gain,
            "parent_quartile_distance": spread,
            "gain_exceeds_parent_spread": gain > spread,
            "claim_met": left_out == 0 and wins >= CLAIM_WIN_SHARE * len(p) and gain > spread,
            "within_bound": None if bound is None else -gain <= bound * abs(pq["median"]),
        }
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def digest(paths: list[Path]) -> str:
    """sha256 over the names and bytes of paths, in the order given."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def src_digest(tree: Path) -> str:
    """sha256 over the names and bytes of tree/src/vprkit/*.py, in name order."""
    return digest(sorted((tree / "src" / "vprkit").glob("*.py")))


def bench_digest(tree: Path) -> str:
    """sha256 over the names and bytes of tree/vprbench/*.py, in name order, then tree/BENCHMARK.json."""
    return digest([*sorted((tree / "vprbench").glob("*.py")), tree / "BENCHMARK.json"])


def record_trees(record: dict, trees: dict[str, Path]) -> None:
    """Each side's src and benchmark digests, into record[side], and whether both
    sides run the same benchmark, into record["same_benchmark"]; when they do
    not, a warning on stderr, since each side runs its own tree's benchmark."""
    for side, tree in trees.items():
        record[side]["src_sha256"] = src_digest(tree)
        record[side]["bench_sha256"] = bench_digest(tree)
    record["same_benchmark"] = record["parent"]["bench_sha256"] == record["change"]["bench_sha256"]
    if not record["same_benchmark"]:
        print(
            "warning: the parent's and the change's benchmark files (vprbench/*.py, BENCHMARK.json) differ, "
            "so their pairs do not measure the same benchmark",
            file=sys.stderr,
            flush=True,
        )


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, written under dest."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    """The working tree's src, vprbench and BENCHMARK.json, without bytecode, under dest."""
    for name in ("src", "vprbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


@contextlib.contextmanager
def side_trees() -> Iterator[dict[str, Path]]:
    """A fresh temporary directory for each side, removed afterwards. Their paths
    have equal lengths (prefixes of equal length, the same parent directory and
    suffixes of equal length), since identical code has read index-build
    peak_rss_mb 6.7 MB apart from checkouts whose paths differed by one
    character."""
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent, tempfile.TemporaryDirectory(
        prefix="bench-change-"
    ) as change:
        yield {"parent": Path(parent), "change": Path(change)}


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_pin": THREAD_PIN,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def run_bench(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in tree: its exit code and, when that is 0, its
    failed/attempted counts and end-to-end metric values."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, **THREAD_PIN)
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return {"exit_code": done.returncode}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"exit_code": 0, "failed": result["failed"], "attempted": result["attempted"], "metrics": metrics}


def run_pairs(
    trees: dict[str, Path],
    command: list[str],
    workload: str,
    pairs: int,
    seeds: list[int],
    seconds: float,
    better: dict[str, str],
    bounds: dict[str, float],
) -> dict:
    """pairs alternated runs of workload on each side and their summary, over the
    pairs whose runs both exited 0; pairs_left_out counts the others."""
    runs = []
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_bench(trees[side], command, workload, seed, seconds)
            shown = {k: round(v, 4) for k, v in pair[side].get("metrics", {}).items()}
            code = pair[side]["exit_code"]
            print(f"{workload} pair {i} seed {seed} {side}: exit {code} {shown}", file=sys.stderr, flush=True)
        runs.append(pair)
    kept = [r for r in runs if r["parent"]["exit_code"] == 0 and r["change"]["exit_code"] == 0]
    left_out = len(runs) - len(kept)
    sides = [[r[side]["metrics"] for r in kept] for side in ("parent", "change")]
    summary = summarize(*sides, better, bounds, left_out) if kept else {}
    return {
        "summary": summary,
        "pairs_left_out": left_out,
        "failed": {side: sum(r[side]["failed"] for r in kept) for side in trees},
        "attempted": {side: sum(r[side]["attempted"] for r in kept) for side in trees},
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_rev", metavar="PARENT_REV")
    parser.add_argument("--workload", nargs="+", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seconds = spec["run_seconds"]
    record = {
        "parent": {"rev": git("rev-parse", f"{args.parent_rev}^{{commit}}")},
        "change": {
            "rev": git("rev-parse", "HEAD"),
            "uncommitted": bool(git("status", "--porcelain", "--", "src", "vprbench", "BENCHMARK.json")),
        },
        "seeds": args.seeds,
        "pairs": args.pairs,
        "run_seconds": seconds,
        "machine": machine(),
        "workloads": {},
    }
    with side_trees() as trees:
        export(record["parent"]["rev"], trees["parent"])
        copy_working_tree(trees["change"])
        record_trees(record, trees)
        for workload in args.workload:
            record["workloads"][workload] = run_pairs(
                trees, spec["command"], workload, args.pairs, args.seeds, seconds, better, bounds
            )
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, w in record["workloads"].items():
        if w["pairs_left_out"]:
            print(f"{workload}: {w['pairs_left_out']} of {args.pairs} pairs left out (a run exited non-zero)")
        for name, s in w["summary"].items():
            print(
                f"{workload} {name}: parent {s['parent']['median']:.6g} change {s['change']['median']:.6g} "
                f"wins {s['wins']}/{s['pairs']} gain {s['median_gain']:.4g} "
                f"parent spread {s['parent_quartile_distance']:.4g} "
                f"claim_met {s['claim_met']} within_bound {s['within_bound']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
