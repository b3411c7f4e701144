"""Run one benchmark workload, or all of them, against the vprkit sources in ./src.

    python3 vprbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 vprbench/run.py --workload all        # every workload, each in a fresh process

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Results and
traces are also written under ``.vprbench_out/`` at the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is first imported, so that the timed
# work is single-threaded like vprkit's own default (threads = 1).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# No transparent huge pages for numpy arrays: whether the kernel can hand them
# out depends on how fragmented memory is, which made whole runs fast or slow
# by up to 40% at random.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".vprbench_out"
NAMES = ("index-build", "query-rerank", "query-rerank-sharp")
CHILD_TIMEOUT_S = 900


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    ctx = workloads.Run(seed=seed, seconds=seconds, workdir=workdir, tracer=tracer)
    try:
        if tracer is not None:
            tracer.install(workloads.MODULES)
        workloads.WORKLOADS[workload](ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    ctx.finish()
    for problem in ctx.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    shown = ctx.metrics
    if tracer is not None:
        tracer.write(OUT / "traces" / f"{tag}.json")
        shown = tracer.per_layer(ctx.timed_wall_s)
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in ctx.metrics.items()}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so that peak_rss_mb is that workload's alone."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "vprkit" / "__init__.py").is_file():
        print(f"vprkit sources not found under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        for metric, m in result["metrics"].items():
            print(f"{metric:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
