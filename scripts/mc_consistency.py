#!/usr/bin/env python3
"""Coupled Monte Carlo vs deterministic weak error over repeated seeds.

Runs the heat, wave (Crank-Nicolson) and Volterra (rho = 1.5) families.  A
family passes when at most one seed lands outside 3 standard errors of
weak_error_quadratic; the exit code is 0 when every family passes, else 2.

Usage: python scripts/mc_consistency.py [n_seeds] [n_paths]
"""

import sys
import time

from levyspde.errors import Setup, error_report, mc_weak_error
from levyspde.noise import CovarianceSpec, LevyLaw
from levyspde.propagators import heat_kind, volterra_kind, wave_kind
from levyspde.spectral import dirichlet_spectrum

CP = LevyLaw("compound_poisson", intensity=1.0)
FAMILIES = {
    "heat": Setup(heat_kind(), dirichlet_spectrum(32), CovarianceSpec(amplitude=1.0, decay=0.55), CP, 1.0, n_cells=64),
    "wave": Setup(
        wave_kind("crank_nicolson"), dirichlet_spectrum(12), CovarianceSpec(amplitude=1.0, decay=0.3), CP, 1.0, n_cells=16
    ),
    "volterra": Setup(
        volterra_kind(1.5), dirichlet_spectrum(12), CovarianceSpec(amplitude=1.0, decay=0.4), CP, 1.0, n_cells=8
    ),
}


def check(name: str, setup: Setup, n_seeds: int, n_paths: int) -> bool:
    det = error_report(setup).weak_error_quadratic
    print(f"{name}: deterministic weak error {det:.17g}")
    hits = 0
    t0 = time.time()
    for seed in range(n_seeds):
        [(est, se)] = mc_weak_error([setup], n_paths=n_paths, seed=seed)
        ok = abs(est - det) <= 3.0 * se
        hits += ok
        print(f"  seed {seed:2d}: estimate {est:+.6e}  stderr {se:.2e}  z {((est - det) / se):+6.2f}  {'ok' if ok else 'MISS'}")
    print(f"  {hits}/{n_seeds} within 3 stderr  [{time.time() - t0:.1f}s]")
    return hits >= n_seeds - 1


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    n_paths = int(sys.argv[2]) if len(sys.argv) > 2 else 10000
    passed = [check(name, setup, n_seeds, n_paths) for name, setup in FAMILIES.items()]
    return 0 if all(passed) else 2


if __name__ == "__main__":
    sys.exit(main())
