"""Run the benchmark over several seeds and print each end-to-end metric's spread.

    python3 vprbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads NAME ...]

Runs one fresh process per (workload, seed), one after another, untraced,
for BENCHMARK.json's run length. For every metric it prints the median and
the distance between the first and third quartile as a share of the median,
computed as ``statistics.quantiles(values, n=4)`` gives them: the figure each
bound in BENCHMARK.json is held against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            failed.append(f"{result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        print(f"\n{workload}: failed/attempted per run {' '.join(failed)}")
        print(f"| metric | median | quartile spread | bound | min | max |\n| --- | --- | --- | --- | --- | --- |")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            print(f"| {name} | {med:.6g} | {(q3 - q1) / med:.3f} | {bounds[name]} | {min(v):.6g} | {max(v):.6g} |")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
