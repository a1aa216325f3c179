#!/usr/bin/env python3
"""Coupled Monte Carlo vs deterministic weak error over repeated seeds.

Runs the heat, wave (Crank-Nicolson) and Volterra (rho = 1.5) families.  A
family passes when at most one seed lands outside 3 standard errors of
weak_error_quadratic; the exit code is 0 when every family passes, else 2.

Usage: python scripts/mc_consistency.py [n_seeds] [n_paths]
"""

import sys
import time
from dataclasses import replace

from levyspde.errors import Setup, error_report, mc_weak_error
from levyspde.noise import CovarianceSpec, LevyLaw
from levyspde.propagators import heat_kind, volterra_kind, wave_kind
from levyspde.spectral import dirichlet_spectrum

CP = LevyLaw("compound_poisson", intensity=1.0)
# each family's problem and the step count N of its scheme
FAMILIES = {
    "heat": (Setup(heat_kind(), dirichlet_spectrum(32), CovarianceSpec(amplitude=1.0, decay=0.55), CP, 1.0), 64),
    "wave": (
        Setup(wave_kind("crank_nicolson"), dirichlet_spectrum(12), CovarianceSpec(amplitude=1.0, decay=0.3), CP, 1.0),
        16,
    ),
    "volterra": (
        Setup(volterra_kind(1.5), dirichlet_spectrum(12), CovarianceSpec(amplitude=1.0, decay=0.4), CP, 1.0),
        8,
    ),
}


def check(name: str, problem: Setup, N: int, n_seeds: int, n_paths: int) -> bool:
    det = error_report(replace(problem, n_cells=N)).weak_error_quadratic
    print(f"{name}: deterministic weak error {det:.17g}")
    hits = 0
    t0 = time.time()
    for seed in range(n_seeds):
        [(est, se)] = mc_weak_error(problem, [N], n_paths=n_paths, seed=seed)
        ok = abs(est - det) <= 3.0 * se
        hits += ok
        print(f"  seed {seed:2d}: estimate {est:+.6e}  stderr {se:.2e}  z {((est - det) / se):+6.2f}  {'ok' if ok else 'MISS'}")
    print(f"  {hits}/{n_seeds} within 3 stderr  [{time.time() - t0:.1f}s]")
    return hits >= n_seeds - 1


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    n_paths = int(sys.argv[2]) if len(sys.argv) > 2 else 10000
    passed = [check(name, problem, N, n_seeds, n_paths) for name, (problem, N) in FAMILIES.items()]
    return 0 if all(passed) else 2


if __name__ == "__main__":
    sys.exit(main())
