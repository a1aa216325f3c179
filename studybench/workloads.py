"""The benchmark's four workloads, as plain study specs drawn from a seed.

A spec is a dict of numbers and names, so the checks can read what was asked
for without trusting the program; `to_config` turns it into the
`levyspde.StudyConfig` the program receives.  The seed draws the covariance
amplitude of every study (the amount of work does not depend on it) and the
Monte Carlo seed.
"""

from __future__ import annotations

import random

BLAS_THREADS = 1  # every workload; never more than nproc


def _dyadic(lo: int, hi: int) -> list[float]:
    return [2.0**-p for p in range(lo, hi + 1)]


def _decay(beta: float, rho: float = 1.0) -> float:
    # The program's default derivation (beta - 1/rho + 1/2 + 0.05), written out
    # so the checks know the covariance without asking the program.
    return beta - 1.0 / rho + 0.5 + 0.05


def _study(name, equation, axis, beta, modes, ladder, *, rho=None, scheme=None, decay=None,
           intensity=1.0, mc_paths=None):
    return {
        "name": name,
        "equation": equation,
        "rho": rho,
        "scheme": scheme,
        "axis": axis,
        "beta": beta,
        "T": 1.0,
        "modes": modes,
        "ladder": ladder,
        "decay": _decay(beta, rho or 1.0) if decay is None else decay,
        "intensity": intensity,
        "mc_paths": mc_paths,
    }


def _shapes() -> dict[str, list[dict]]:
    return {
        # E_rho asymptotic branch (70% of evaluations at K=64) and the K*N^2
        # convolution-quadrature march up to N=1024.
        "volterra-temporal": [
            _study("volterra-temporal-rho1.5", "volterra", "temporal", 0.5, 64, _dyadic(4, 10), rho=1.5),
        ],
        # Cellwise Gauss quadrature in errors and the discrete_family tables;
        # no E_rho, CQ, FEM or sampling: the control workload.
        "heat-wave-temporal": [
            _study("heat-temporal-beta1", "heat", "temporal", 1.0, 1024, _dyadic(4, 10)),
            _study("wave-temporal-cn", "wave", "temporal", 0.75, 256, _dyadic(4, 10), scheme="crank_nicolson"),
        ],
        # The only user of spectral (eigh, dense coupling) and of the dense
        # global-node assembly; E_rho in its bridge and series branches.
        "spatial": [
            _study("heat-spatial-beta075", "heat", "spatial", 0.75, 1024, _dyadic(2, 7)),
            _study("wave-spatial-cn", "wave", "spatial", 0.75, 512, _dyadic(2, 7), scheme="crank_nicolson"),
            _study("volterra-spatial-rho1.5", "volterra", "spatial", 0.5, 128, _dyadic(2, 6), rho=1.5),
        ],
        # The only user of the jump-path sampler: few jumps per mode (wave,
        # intensity 1) against many (heat, intensity 16).
        "mc": [
            _study("wave-temporal-mc-i1", "wave", "temporal", 0.75, 16, _dyadic(3, 6), scheme="crank_nicolson",
                   mc_paths=500),
            _study("heat-temporal-mc-i16", "heat", "temporal", 1.0, 16, _dyadic(3, 6), intensity=16.0,
                   mc_paths=500),
        ],
    }


WORKLOADS = tuple(_shapes())


def workload_specs(workload: str, seed: int) -> list[dict]:
    """The studies of one workload; the same seed gives the same specs."""
    shapes = _shapes()
    if workload not in shapes:
        raise KeyError(f"unknown workload {workload!r}; choose one of {', '.join(shapes)}")
    specs = []
    for i, spec in enumerate(shapes[workload]):
        rng = random.Random(1_000_003 * int(seed) + i)
        spec = dict(spec, amplitude=round(rng.uniform(0.5, 2.0), 6), mc_seed=int(seed))
        specs.append(spec)
    return specs


def to_config(levyspde, spec: dict):
    """The StudyConfig the program receives for one spec."""
    if spec["equation"] == "heat":
        kind = levyspde.heat_kind()
    elif spec["equation"] == "volterra":
        kind = levyspde.volterra_kind(spec["rho"])
    else:
        kind = levyspde.wave_kind(spec["scheme"])
    return levyspde.StudyConfig(
        name=spec["name"],
        kind=kind,
        axis=spec["axis"],
        beta=spec["beta"],
        T=spec["T"],
        modes=spec["modes"],
        ladder=tuple(spec["ladder"]),
        cov_amplitude=spec["amplitude"],
        cov_decay=spec["decay"],
        law=levyspde.LevyLaw("compound_poisson", intensity=spec["intensity"]),
        mc_paths=spec["mc_paths"],
        mc_seed=spec["mc_seed"],
    )
