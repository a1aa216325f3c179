"""Run one study of a workload in this (fresh) interpreter.

Reads a JSON request on stdin, prints one JSON line on stdout:
setup_s (interpreter start to ready: import levyspde, build the workload's
configs; the reference kernel's time excluded), study_s (run_study plus
csv_text), the reference kernel timed before levyspde is imported and after
the study, the peak resident set, the CSV text and, when traced, the spans
and counts.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    req = json.loads(sys.stdin.read())
    src = os.path.join(req["root"], "src")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, src)
    import refkernel

    t_kernel = time.perf_counter()
    ref_before = refkernel.timed()
    t_kernel = time.perf_counter() - t_kernel

    import levyspde
    from levyspde.studies import csv_text

    import workloads

    if not os.path.abspath(levyspde.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"levyspde imported from {levyspde.__file__}, not from {src}")
    configs = [workloads.to_config(levyspde, s) for s in req["specs"]]
    setup_s = time.perf_counter() - T_START - t_kernel

    run, emit = levyspde.run_study, csv_text
    tracer = None
    if req["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(levyspde)
        tracer.install()
        run, emit = tracer.wrap("studies.run_study", run), tracer.wrap("studies.csv_text", emit)

    config = configs[req["index"]]
    t0 = time.perf_counter()
    text = emit(run(config))
    study_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "setup_s": setup_s,
        "study_s": study_s,
        "ref_s": [ref_before, refkernel.timed()],
        "peak_rss_mb": peak_rss_mb,
        "csv": text,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
