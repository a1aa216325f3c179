"""levyspde study benchmark: one workload of convergence studies, end to end.

    python3 studybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a levyspde checkout.  Each round runs every study of the
workload once, each in a fresh interpreter (closed loop, one at a time), until
--seconds have passed; whole rounds only.  Afterwards every study's CSV text
is checked against computations made apart from the program (checks.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".studybench")
sys.path.insert(0, BENCH_DIR)

import refkernel  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(workloads.BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def run_study_process(specs: list[dict], index: int, trace: bool, env: dict) -> dict | None:
    """One study in a fresh interpreter; None when it fails."""
    req = json.dumps({"root": ROOT, "specs": specs, "index": index, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py")],
            input=req,
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"study {specs[index]['name']}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"study {specs[index]['name']}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rounds(specs, seconds, env, trace_modes):
    """Whole rounds until `seconds` have passed.  Each round runs every study
    once per entry of trace_modes.  Returns (samples[study][mode] lists,
    attempted, failed)."""
    samples = [{mode: [] for mode in trace_modes} for _ in specs]
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_ROUNDS or time.perf_counter() < deadline:
        for i in range(len(specs)):
            for mode in trace_modes:
                attempted += 1
                res = run_study_process(specs, i, mode, env)
                if res is None:
                    failed += 1
                else:
                    samples[i][mode].append(res)
        done += 1
    return samples, attempted, failed


def check_outputs(specs, samples) -> bool:
    """Every CSV of a study must be byte-identical across its runs, and that
    text must pass the study's independent check."""
    sys.path.insert(0, os.path.join(ROOT, "src"))  # checks use levyspde's E_rho
    import checks

    ok = True
    for spec, by_mode in zip(specs, samples):
        texts = {r["csv"] for runs in by_mode.values() for r in runs}
        if len(texts) != 1:
            print(f"check {spec['name']}: CSV differs between runs of the same seed", file=sys.stderr)
            ok = False
            continue
        problems = checks.check_study(spec, texts.pop())
        for p in problems:
            print(f"check {spec['name']}: {p}", file=sys.stderr)
        ok = ok and not problems
    return ok


def save_samples(samples, workload: str, seed: int, trace: bool) -> None:
    """Keep every run's timings (not the CSV text or spans) for later study."""
    keep = ("setup_s", "study_s", "ref_s", "peak_rss_mb")
    rows = [
        {str(int(mode)): [{k: r[k] for k in keep} for r in runs] for mode, runs in by_mode.items()}
        for by_mode in samples
    ]
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"samples-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump(rows, f)


def scale_factor(run: dict) -> float:
    """Quiet-machine seconds per measured second for one study interpreter:
    the reference kernel's quiet time over its mean time beside the study."""
    return refkernel.QUIET_S / statistics.fmean(run["ref_s"])


def timed_metrics(samples) -> dict:
    runs = [r for by_mode in samples for r in by_mode[False]]
    study = sum(
        statistics.median(r["study_s"] * scale_factor(r) for r in by_mode[False]) for by_mode in samples
    )
    return {
        "study_s": {"value": study, "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] * scale_factor(r) for r in runs), "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in runs), "unit": "MB"},
    }


def traced_metrics(samples, workload: str, seed: int) -> dict:
    """Per-layer metrics from the traced interpreter of median scaled study
    time, per study; all times scaled like study_s."""
    import tracer

    untraced = traced = bookkeeping = 0.0
    selfs = dict.fromkeys(tracer.SPAN_NAMES, 0.0)
    counts: dict[str, int] = {}
    all_spans = []
    for by_mode in samples:
        untraced += statistics.median(r["study_s"] * scale_factor(r) for r in by_mode[False])
        ranked = sorted(by_mode[True], key=lambda r: r["study_s"] * scale_factor(r))
        mid = ranked[(len(ranked) - 1) // 2]
        f = scale_factor(mid)
        traced += mid["study_s"] * f
        for name, s in tracer.self_times(mid["spans"]).items():
            selfs[name] += s * f
        bookkeeping += f * sum(sp[4] for sp in mid["spans"] if sp[3] >= 0)
        for name, c in mid["counts"].items():
            counts[name] = counts.get(name, 0) + c
        all_spans.append(mid["spans"])
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "bookkeeping"], "studies": all_spans}, fh)

    def c(name):
        return counts.get(name, 0)

    ml_evals = c("mittag_leffler.evals.series") + c("mittag_leffler.evals.bridge") + c(
        "mittag_leffler.evals.asymptotic"
    )
    noise_s = selfs["noise.sample_jump_path"] + selfs["noise.increments_from_path"]
    m = {
        "mittag_leffler.calls": (c("mittag_leffler.calls"), "count"),
        "mittag_leffler.evals.series": (c("mittag_leffler.evals.series"), "count"),
        "mittag_leffler.evals.bridge": (c("mittag_leffler.evals.bridge"), "count"),
        "mittag_leffler.evals.asymptotic": (c("mittag_leffler.evals.asymptotic"), "count"),
        "mittag_leffler.self_s": (selfs["mittag_leffler"], "s"),
        "mittag_leffler.ns_per_eval": (selfs["mittag_leffler"] * 1e9 / ml_evals if ml_evals else 0.0, "ns"),
        "propagators.discrete_family.entries": (c("propagators.discrete_family.entries"), "count"),
        "propagators.discrete_family.self_s": (selfs["propagators.discrete_family"], "s"),
        "propagators.cq_resolvent.entries": (c("propagators.cq_resolvent.entries"), "count"),
        "propagators.cq_resolvent.self_s": (selfs["propagators.cq_resolvent"], "s"),
        "spectral.assemble_fem.self_s": (selfs["spectral.assemble_fem"], "s"),
        "spectral.spectral_coupling.entries": (c("spectral.spectral_coupling.entries"), "count"),
        "spectral.spectral_coupling.self_s": (selfs["spectral.spectral_coupling"], "s"),
        "noise.paths": (c("noise.paths"), "count"),
        "noise.jumps": (c("noise.jumps"), "count"),
        "noise.sample_jump_path.self_s": (selfs["noise.sample_jump_path"], "s"),
        "noise.increments_from_path.self_s": (selfs["noise.increments_from_path"], "s"),
        "noise.us_per_path": (noise_s * 1e6 / c("noise.paths") if c("noise.paths") else 0.0, "us"),
        "errors.error_report.calls": (c("errors.error_report.calls"), "count"),
        "errors.mode_levels": (c("errors.mode_levels"), "count"),
        "errors.error_report.self_s": (selfs["errors.error_report"], "s"),
        "errors.error_report.us_per_mode_level": (
            selfs["errors.error_report"] * 1e6 / c("errors.mode_levels") if c("errors.mode_levels") else 0.0,
            "us",
        ),
        "errors.mc_weak_error.self_s": (selfs["errors.mc_weak_error"], "s"),
        "studies.run_study.self_s": (selfs["studies.run_study"], "s"),
        "studies.csv_text.self_s": (selfs["studies.csv_text"], "s"),
        "trace.study_s": (traced, "s"),
        "trace.untraced_study_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.self_sum_s": (sum(selfs.values()), "s"),
        "trace.bookkeeping_s": (bookkeeping, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "levyspde", "__init__.py")):
        print(f"no levyspde sources under {ROOT}/src; run from the root of a levyspde checkout", file=sys.stderr)
        return 2

    specs = workloads.workload_specs(args.workload, args.seed)
    env = child_env()
    trace = bool(args.trace)
    samples, attempted, failed = rounds(specs, args.seconds, env, (False, True) if trace else (False,))
    if any(not runs for by_mode in samples for runs in by_mode.values()):
        print("a study never completed; no metrics", file=sys.stderr)
        return 1
    correct = check_outputs(specs, samples)
    save_samples(samples, args.workload, args.seed, trace)
    metrics = traced_metrics(samples, args.workload, args.seed) if trace else timed_metrics(samples)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
