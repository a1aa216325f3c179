"""Steadiness of the end-to-end metrics over seeds.

    python3 studybench/steadiness.py --seeds 1-10 [--seconds 20] [--workload NAME ...]

Runs `run.py --trace 0` once per seed and workload, one run at a time, and
prints a markdown table per workload: the median and the spread of every
end-to-end metric, the spread being the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, and the share
of failed studies.  Run it from the root of a levyspde checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_range, required=True, help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workload", nargs="*", choices=workloads.WORKLOADS, default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    bad = 0
    for wl in args.workload:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1500:]}", file=sys.stderr)
                bad += 1
                continue
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if len(results) < 2:
            continue
        print(f"\n{wl}, seeds {args.seeds[0]}-{args.seeds[-1]}, {args.seconds:g} s per run\n")
        print("| metric | median | spread | min | max |")
        print("|---|---|---|---|---|")
        for name in results[0]["metrics"]:
            v = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            print(f"| {name} ({unit}) | {statistics.median(v):.4g} | {spread(v):.3f} | {min(v):.4g} | {max(v):.4g} |")
        attempted = [r["attempted"] for r in results]
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"\nstudies attempted per run {min(attempted)}-{max(attempted)}, failed {failed}, all correct: {correct}")
        bad += failed > 0 or not correct
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
