#!/usr/bin/env python3
"""Deterministic bound-shape diagnostics: tabulate s * ||Etilde(s) - E(s)||.

The product should stay bounded by a ladder-independent constant times the
resolution (dt for temporal ladders, h^(2/rho) for the Volterra meshes).

Usage: python scripts/profile_bound_shapes.py
"""

import numpy as np

from levyspde.errors import Setup, propagator_error_profile
from levyspde.noise import CovarianceSpec, LevyLaw
from levyspde.propagators import heat_kind, volterra_kind
from levyspde.spectral import assemble_fem, dirichlet_spectrum


def main() -> int:
    law = LevyLaw("compound_poisson", intensity=1.0)
    spec = dirichlet_spectrum(128)
    cov = CovarianceSpec(amplitude=1.0, decay=0.55)
    s_grid = np.geomspace(1e-3, 1.0, 50)
    print("heat temporal: C(level) = max_s s*err(s)/dt")
    for p in range(4, 10):
        setup = Setup(heat_kind(), spec, cov, law, 1.0, n_cells=2**p)
        prof = propagator_error_profile(setup, s_grid)
        print(f"  dt = 2^-{p}: C = {np.max(s_grid * prof) * 2**p:.17g}")
    print("volterra spatial (time-exact): C(level) = max_s s*err(s)/h^(4/3)")
    spec_v = dirichlet_spectrum(96)
    cov_v = CovarianceSpec(amplitude=1.0, decay=0.4)
    for M in (8, 16, 32, 64):
        setup = Setup(volterra_kind(1.5), spec_v, cov_v, law, 1.0, fem=assemble_fem(M))
        prof = propagator_error_profile(setup, np.geomspace(1e-2, 1.0, 25))
        print(f"  h = 1/{M}: C = {np.max(np.geomspace(1e-2, 1.0, 25) * prof) * M ** (4.0 / 3.0):.17g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
