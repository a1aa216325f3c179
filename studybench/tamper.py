"""Self-test of the output checks: each must accept the program's output and
reject wrong output.

    python3 studybench/tamper.py [--seed N] [--workload NAME ...]

For every study of the chosen workloads (all by default) it runs the program
once in this interpreter and feeds `checks.check_study`:

* the genuine CSV, which must pass;
* the CSV of a neighbouring configuration (decay + 0.05, or rho 1.45 for
  Volterra), which must fail;
* for Monte Carlo studies, the genuine CSV carrying the Monte Carlo columns
  of another configuration (`mc_donor`), which the Monte Carlo check must
  reject;
* the genuine CSV with one column perturbed just beyond the check's
  tolerance (three times it), which the check of that column must reject,
  once per checked column.

The E_rho spot check is shown an evaluator shifted by three times its
tolerance.  Prints one line per case and exits 1 if any case went the wrong
way (a rejection must come from the check the case aims at).
"""

from __future__ import annotations

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

COLUMNS = ("level", "resolution", "strong", "weak_quad", "representation", "mc_estimate", "mc_stderr", "in_fit")


def edit(text: str, level: int, column: str, fn) -> str:
    """The CSV text with fn applied to one cell (as a float; in_fit as int)."""
    out = []
    col = COLUMNS.index(column)
    for line in text.splitlines():
        f = line.split(",")
        if not line.startswith("#") and f[0] == str(level):
            old = int(f[col]) if column == "in_fit" else float(f[col])
            new = fn(old)
            f[col] = str(new) if column == "in_fit" else f"{new:.17g}"
            line = ",".join(f)
        out.append(line)
    return "\n".join(out) + "\n"


def splice_mc(text: str, donor: str) -> str:
    """text with its Monte Carlo columns taken from donor."""
    rows = [ln.split(",") for ln in donor.splitlines()]
    mc = {f[0]: f[5:7] for f in rows if f[0].isdigit()}
    out = []
    for line in text.splitlines():
        f = line.split(",")
        if f[0].isdigit():
            f[5:7] = mc[f[0]]
        out.append(",".join(f))
    return "\n".join(out) + "\n"


def neighbour(spec: dict) -> tuple[str, dict]:
    if spec["equation"] == "volterra":
        return "rho 1.45", dict(spec, rho=1.45)
    return "decay + 0.05", dict(spec, decay=spec["decay"] + 0.05)


def mc_donor(spec: dict) -> tuple[str, dict]:
    """A configuration whose weak error differs from spec's by many standard
    errors: the damping backward-Euler carrier for the wave, a smoother
    covariance for the heat equation."""
    if spec["equation"] == "wave":
        return "the backward-Euler scheme", dict(spec, scheme="backward_euler")
    return "decay + 0.3", dict(spec, decay=spec["decay"] + 0.3)


def shift_weak(text: str, level: int, delta: float) -> str:
    """Move weak_quad and representation together, so only the weak check sees it."""
    text = edit(text, level, "weak_quad", lambda v: v + delta)
    return edit(text, level, "representation", lambda v: v + delta)


def perturbations(spec: dict, text: str):
    """(description, tampered text, ml evaluator or None, words of the
    problem that must reject it)."""
    rows = checks.parse_csv(text)
    last = len(rows) - 1
    rep = checks.REP_RTOL
    yield "representation x (1 + 3 * 1e-8)", edit(
        text, last, "representation", lambda v: v * (1 + 3 * rep)
    ), None, "representation"
    yield "in_fit flipped", edit(text, 0, "in_fit", lambda v: 1 - v), None, "in_fit"
    if spec["equation"] == "volterra" and spec["axis"] == "temporal":
        tol = checks.VOLTERRA_EXACT_SIDE_RTOL
        ee = checks.implied_exact_sides(spec, rows)[-1]
        yield f"weak level 0 + 3 * {tol:g} * I_ee", shift_weak(text, 0, 3 * tol * ee), None, "implied exact side"
        yield "strong level 3 = 1.01 x level 2", edit(
            text, 3, "strong", lambda v: rows[2]["strong"] * 1.01
        ), None, "strong error does not fall"
        return
    volterra = spec["equation"] == "volterra"
    tol = checks.VOLTERRA_SPATIAL_RTOL if volterra else checks.CLOSED_FORM_RTOL
    ee = checks.reference_sides(spec)[last][2]
    yield f"weak finest + 3 * {tol:g} * I_ee", shift_weak(text, last, 3 * tol * ee), None, ": weak "
    yield f"strong^2 finest + 3 * {tol:g} * I_ee", edit(
        text, last, "strong", lambda v: np.sqrt(v * v + 3 * tol * ee)
    ), None, "strong"
    if volterra:
        from levyspde import mittag_leffler_neg

        def shifted(rho, x):
            return mittag_leffler_neg(rho, x) + 3 * checks.ML_ORACLE_ATOL

        yield f"E_rho + 3 * {checks.ML_ORACLE_ATOL:g}", text, shifted, "series oracle"
    if spec["mc_paths"]:
        z = checks.MC_Z + 1.0
        dd, _, ee = checks.reference_sides(spec)[0]
        yield f"mc_estimate level 0 = closed form + {z:g} stderr", edit(
            text, 0, "mc_estimate", lambda v: dd - ee + z * rows[0]["mc_stderr"]
        ), None, "Monte Carlo"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", nargs="*", choices=workloads.WORKLOADS, default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    import levyspde
    from levyspde.studies import csv_text

    def run(spec):
        return csv_text(levyspde.run_study(workloads.to_config(levyspde, spec)))

    wrong = 0

    def report(study, case, problems, want_fail, words=""):
        nonlocal wrong
        ok = any(words in p for p in problems) if want_fail else not problems
        wrong += not ok
        hit = [p for p in problems if words in p] or problems
        verdict = ("rejected: " + hit[0]) if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {study}: {case} {verdict}")

    for wl in args.workload:
        for spec in workloads.workload_specs(wl, args.seed):
            name = spec["name"]
            text = run(spec)
            report(name, "genuine output", checks.check_study(spec, text), False)
            what, other = neighbour(spec)
            other_text = run(other)
            report(name, f"output of {what}", checks.check_study(spec, other_text), True)
            if spec["mc_paths"]:
                what, other = mc_donor(spec)
                spliced = splice_mc(text, run(other))
                report(name, f"Monte Carlo columns of {what}", checks.check_study(spec, spliced), True, "Monte Carlo")
            for case, tampered, ml, words in perturbations(spec, text):
                report(name, case, checks.check_study(spec, tampered, ml), True, words)
    print(f"{wrong} case(s) went the wrong way")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
