#!/usr/bin/env python3
"""Run every shipped convergence study, write CSVs, print a slope summary.

Usage: python scripts/run_all_studies.py [output_dir] [--compare DIR]

The weak slope printed is the one the study's gate judges: fitted against the
bound shape, so |weak|/log(T/dt) for heat-temporal-beta1.

With --compare DIR, also print, per preset and per deterministic column, the
largest relative delta of the new CSV against DIR/<preset>.csv from an earlier
run, the largest relative delta over the numeric fields of the `#` metadata
lines (covariance_tail_fraction, the fit slopes and r^2, ...), and whether the
Monte Carlo columns (mc_estimate, mc_stderr) are `identical` or `moved`; a
preset whose two files are byte-identical prints `identical` alone (a missing
file is reported, not fatal).  The comparison is a gate: a deterministic
column or a metadata field that moved by more than 1e-10 relative
(MAX_RELATIVE_DELTA), a metadata text or field present on one side only, a
Monte Carlo value that is not bit for bit the earlier one, or an earlier CSV
that cannot be compared (malformed, or on another ladder), makes the exit
status 3; each metadata field past the bound is named, and an earlier CSV
that cannot be compared is reported on its preset's line while the presets
after it are still compared.  The Monte Carlo
columns move only through a documented change of sampler.

Exit status: 0 all presets pass (and, with --compare, no column moved past its
bound), 2 a preset failed its own rate gate (this wins over 3), 3 a column
moved past its bound or an earlier CSV could not be compared.
"""

import argparse
import math
import os
import sys
import time
from pathlib import Path

# one BLAS thread unless the caller sets a count, set before numpy loads: the
# products are small, and the default count can make a timing read 5x slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from levyspde.studies import SLOPE_TOL, emit_csv, preset_studies, read_csv, run_study  # noqa: E402

DETERMINISTIC_COLUMNS = ("strong", "weak_quad", "representation")
MC_COLUMNS = ("mc_estimate", "mc_stderr")
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


def read_header(path: Path) -> dict[str, str]:
    """The `#` metadata lines of a study CSV: {key: value} for every key=value
    word, and the other words of the i-th line under the key `line i`."""
    out = {}
    lines = [line[1:].split() for line in path.read_text().splitlines() if line.startswith("#")]
    for i, words in enumerate(lines):
        out[f"line {i}"] = " ".join(w for w in words if "=" not in w)
        out.update(w.split("=", 1) for w in words if "=" in w)
    return out


def header_deltas(new: dict[str, str], old: dict[str, str]) -> dict[str, float]:
    """Per metadata field that differs: |new - old| / |old| for numbers
    (|new - old| where old is 0), inf for text, a nan on one side or a field
    on one side only."""
    out = {}
    for key in sorted(new.keys() | old.keys()):
        n, o = new.get(key), old.get(key)
        if n == o:
            continue
        try:
            x, y = float(n), float(o)
        except (TypeError, ValueError):
            out[key] = math.inf
            continue
        delta = abs(x - y) / abs(y) if y else abs(x - y)
        out[key] = math.inf if math.isnan(delta) else delta
    return out


def mc_identical(new_rows: list[dict], old_rows: list[dict]) -> bool:
    """Every Monte Carlo value is bit for bit the earlier one (repr also
    tells -0.0 from 0.0 and matches nan to nan)."""
    return all(repr(n[col]) == repr(o[col]) for n, o in zip(new_rows, old_rows) for col in MC_COLUMNS)


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
        t0 = time.perf_counter()
        result = run_study(config)
        emit_csv(result, str(out / f"{name}.csv"))
        s = result.summary()
        ok = s["weak_ok"] and s["strong_ok"]
        status = "pass" if ok else "FAIL"
        any_fail |= not ok
        print(
            f"{name:24s} weak {s['weak_bound_slope']: .3f} (>= {s['weak_expected'] - SLOPE_TOL:.2f})  "
            f"strong {s['strong_slope']: .3f} ({s['strong_expected']:.3f} +- {SLOPE_TOL:g})  "
            f"[{status}, {1e3 * (time.perf_counter() - t0):.1f} ms]"
        )
        if args.compare:
            old = Path(args.compare) / f"{name}.csv"
            new = out / f"{name}.csv"
            if not old.exists():
                deltas[name] = None
            elif new.read_bytes() == old.read_bytes():
                deltas[name] = "identical"
            else:
                try:
                    new_rows, old_rows = read_csv(str(new)), read_csv(str(old))
                    deltas[name] = (
                        max_relative_deltas(new_rows, old_rows),
                        header_deltas(read_header(new), read_header(old)),
                        mc_identical(new_rows, old_rows),
                    )
                except ValueError as exc:  # a malformed baseline or another ladder
                    deltas[name] = exc
    print(f"CSV files in {out}/")
    if args.compare:
        print(f"\nlargest relative delta against {args.compare}/")
        columns = (*DETERMINISTIC_COLUMNS, "# metadata", "mc columns")
        print(f"{'preset':24s} " + " ".join(f"{c:>14s}" for c in columns))
        for name, d in deltas.items():
            if d is None or d == "identical":
                print(f"{name:24s} {d or '(no CSV)'}")
                continue
            if isinstance(d, ValueError):
                moved = True
                print(f"{name:24s} not comparable: {d}")
                continue
            det, meta, mc_same = d
            mc = "identical" if mc_same else "moved"
            values = [det[c] for c in DETERMINISTIC_COLUMNS] + [max(meta.values(), default=0.0)]
            print(f"{name:24s} " + " ".join(f"{v:14.3e}" for v in values) + f" {mc:>14s}")
            if max(det.values()) > MAX_RELATIVE_DELTA:
                moved = True
                print(f"  {name}: a deterministic column moved by more than {MAX_RELATIVE_DELTA:g} relative")
            for key, delta in meta.items():
                if delta > MAX_RELATIVE_DELTA:
                    moved = True
                    how = f"moved by {delta:.3e} relative"
                    if math.isinf(delta):
                        how = "differs (text, nan, or on one side only)"
                    print(f"  {name}: metadata {key} {how}")
            if not mc_same:
                moved = True
                print(f"  {name}: the Monte Carlo columns are not bit for bit the earlier ones")
    return 2 if any_fail else 3 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
