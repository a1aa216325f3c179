#!/usr/bin/env python3
"""Run every shipped convergence study, write CSVs, print a slope summary.

Usage: python scripts/run_all_studies.py [output_dir] [--compare DIR]

The weak slope printed is the one the study's gate judges: fitted against the
bound shape, so |weak|/log(T/dt) for heat-temporal-beta1.

With --compare DIR, also print, per preset and per deterministic column, the
largest relative delta of the new CSV against DIR/<preset>.csv from an earlier
run, or `identical` when the two files are byte-identical (a missing file is
reported, not fatal).  The comparison is a gate: a deterministic column that
moved by more than 1e-10 relative (MAX_RELATIVE_DELTA) makes the exit status 3.

Exit status: 0 all presets pass (and, with --compare, no column moved past the
bound), 2 a preset failed its own rate gate (this wins over 3), 3 a column
moved past the bound.
"""

import argparse
import sys
import time
from pathlib import Path

from levyspde.studies import emit_csv, preset_studies, read_csv, run_study

DETERMINISTIC_COLUMNS = ("strong", "weak_quad", "representation")
MAX_RELATIVE_DELTA = 1e-10  # the deterministic CSV bound of a change that is not meant to move them


def max_relative_deltas(new_rows: list[dict], old_rows: list[dict]) -> dict[str, float]:
    """Largest |new - old| / |old| per deterministic column over the levels."""
    if [r["resolution"] for r in new_rows] != [r["resolution"] for r in old_rows]:
        raise ValueError("the two CSVs have different ladders")
    out = {}
    for col in DETERMINISTIC_COLUMNS:
        out[col] = max(
            abs(n[col] - o[col]) / abs(o[col]) if o[col] else abs(n[col] - o[col])
            for n, o in zip(new_rows, old_rows)
        )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("output_dir", nargs="?", default="results")
    ap.add_argument("--compare", metavar="DIR", help="earlier run's CSV directory to compare against")
    args = ap.parse_args()
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    any_fail = moved = False
    deltas = {}
    for name, config in preset_studies().items():
        t0 = time.time()
        result = run_study(config)
        emit_csv(result, str(out / f"{name}.csv"))
        s = result.summary()
        status = "pass" if result.passed() else "FAIL"
        any_fail |= not result.passed()
        print(
            f"{name:24s} weak {s['weak_bound_slope']: .3f} (>= {s['weak_expected'] - 0.15:.2f})  "
            f"strong {s['strong_slope']: .3f} ({s['strong_expected']:.3f} +- 0.15)  "
            f"[{status}, {time.time() - t0:.1f}s]"
        )
        if args.compare:
            old = Path(args.compare) / f"{name}.csv"
            new = out / f"{name}.csv"
            if not old.exists():
                deltas[name] = None
            elif new.read_bytes() == old.read_bytes():
                deltas[name] = "identical"
            else:
                deltas[name] = max_relative_deltas(read_csv(str(new)), read_csv(str(old)))
    print(f"CSV files in {out}/")
    if args.compare:
        print(f"\nlargest relative delta against {args.compare}/")
        print(f"{'preset':24s} " + " ".join(f"{c:>14s}" for c in DETERMINISTIC_COLUMNS))
        for name, d in deltas.items():
            if d is None or d == "identical":
                print(f"{name:24s} {d or '(no CSV)'}")
                continue
            print(f"{name:24s} " + " ".join(f"{d[c]:14.3e}" for c in DETERMINISTIC_COLUMNS))
            moved |= max(d.values()) > MAX_RELATIVE_DELTA
        if moved:
            print(f"a deterministic column moved by more than {MAX_RELATIVE_DELTA:g} relative")
    return 2 if any_fail else 3 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
