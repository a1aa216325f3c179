"""Diagonal square-integrable Levy noise on the sine eigenbasis.

The driving process is assembled coordinate-wise: L(t) = sum_k L_k(t) e_k with
e_k = sqrt(q_k) phi_k, scalar laws normalized so that E L_k(t)^2 = t.  The
covariance stays diagonal, so regularity conditions and Hilbert-Schmidt norms
reduce to weighted eigenvalue sums with closed-form tail bounds.

Compound-Poisson jumps are drawn for many coordinates at once as flat arrays
(counts, then times, then sizes, each one draw from the generator).  A jump
path of K modes takes K coordinates; the coupled Monte Carlo takes P*K
coordinates for a block of P paths, from the stream (seed, block).  Streams
are counter-based Philox, so each block's draws depend only on (seed, block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .spectral import DirichletSpectrum, _is_whole

# numpy's Generator.poisson refuses a mean past int64 max - 10 sqrt(int64 max)
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)
# expected jumps of one draw (53.7M): a draw and its Monte Carlo binning hold
# about ten 8-byte arrays per jump (coordinate, time, size, mode, cell, weight
# index, gathered weights and their temporaries), 80 bytes, so the cap is a
# 4 GiB memory budget.  A block expects 8192 jumps, so only a single path with
# K * intensity * T past the cap is refused, long before an allocation fails
_DRAW_JUMPS_MAX = (4 << 30) // 80


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream addressed by (seed, *path) indices.

    Counter-based, so streams are reproducible regardless of creation order.
    numpy.random is imported here, on the first stream a process asks for,
    so that no deterministic study loads it.
    """
    if not all(_is_whole(i) and i >= 0 for i in (seed, *path)):
        raise ValueError(f"stream seed and path must be whole numbers >= 0, got seed={seed!r} path={path!r}")
    from numpy.random import Generator, Philox, SeedSequence

    ss = SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return Generator(Philox(ss))


@dataclass(frozen=True)
class CovarianceSpec:
    """Diagonal covariance q_k = amplitude * lam_k^(-decay); decay is required."""

    amplitude: float = 1.0
    decay: float | None = None

    def __post_init__(self):
        if self.decay is None or not 0 <= self.decay < np.inf:
            raise ValueError(f"decay exponent must be given, finite and >= 0, got {self.decay}")
        if not 0 < self.amplitude < np.inf:
            raise ValueError(f"amplitude must be finite and > 0, got {self.amplitude}")

    def values(self, spec: DirichletSpectrum) -> np.ndarray:
        return self.amplitude * spec.eigenvalues ** (-self.decay)


@dataclass(frozen=True)
class HsReport:
    """Truncated Hilbert-Schmidt sum sum_{k<=K} lam_k^(beta-1/rho) q_k with tail
    info; exponent is the summability exponent 2*(decay + 1/rho - beta)."""

    partial_sum: float
    tail_bound: float
    converges: bool
    exponent: float

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.partial_sum))


def _check_beta(beta: float) -> None:
    if not np.isfinite(beta):
        raise ValueError(f"regularity target beta must be finite, got {beta}")


def hs_condition(spec: DirichletSpectrum, cov: CovarianceSpec, beta: float, rho: float = 1.0) -> HsReport:
    """Evaluate the regularity functional governing the convergence rates.

    The summand is ~ k^(2(beta - 1/rho - decay)), so
    the series converges iff 2*(decay + 1/rho - beta) > 1; the tail bound is
    the integral comparison starting at K.
    """
    if not (rho == 1.0 or 1.0 < rho < 2.0):
        raise ValueError(f"rho must be 1 or in (1,2), got {rho}")
    _check_beta(beta)
    lam = spec.eigenvalues
    q = cov.values(spec)
    partial = float(np.sum(lam ** (beta - 1.0 / rho) * q))
    expo = 2.0 * (beta - 1.0 / rho - cov.decay)  # summand ~ k^expo
    converges = expo < -1.0
    if converges:
        scale = cov.amplitude * np.pi**expo
        tail = scale * spec.mode_count ** (expo + 1.0) / (-(expo + 1.0))
    else:
        tail = np.inf
    exponent = 2.0 * (cov.decay + 1.0 / rho - beta)
    return HsReport(partial_sum=partial, tail_bound=float(tail), converges=bool(converges), exponent=exponent)


@dataclass(frozen=True)
class LevyLaw:
    """Scalar mean-zero compound-Poisson law with E L(t)^2 = t: intensity
    jumps per unit time, each of variance 1/intensity, either symmetric
    two-point or centered normal.

    kind names the law; compound_poisson is the only one, because the
    coupled Monte Carlo reference needs a finite jump-time decomposition and
    the deterministic errors see the noise only through its covariance.
    """

    kind: Literal["compound_poisson"]
    intensity: float = 1.0
    jumps: Literal["two_point", "normal"] = "two_point"

    def __post_init__(self):
        if self.kind != "compound_poisson":
            raise ValueError(f"unknown law kind {self.kind!r}; the only law is 'compound_poisson'")
        if not 0 < self.intensity < np.inf:
            raise ValueError(f"jump intensity must be finite and > 0, got {self.intensity}")
        if self.jumps not in ("two_point", "normal"):
            raise ValueError(f"unknown jump law {self.jumps!r}")


def _jump_sizes(law: LevyLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    scale = 1.0 / np.sqrt(law.intensity)
    if law.jumps == "two_point":
        return scale * (2.0 * rng.integers(0, 2, size=n) - 1.0)
    return scale * rng.standard_normal(n)


def _compound_poisson_draws(law: LevyLaw, T: float, n: int, rng: np.random.Generator):
    """Jumps of n independent compound-Poisson coordinates on (0, T] as flat arrays.

    Three draws from rng, in this order: the n jump counts (one poisson
    draw), the times of all jumps (one uniform draw, scaled to [0, T)) and
    their sizes (one draw).  Returns (coord, times, sizes): coord is the
    coordinate of each jump, nondecreasing; the times within a coordinate
    are in draw order, not sorted.  Refused before any draw: a Poisson mean
    intensity * T past numpy's _POISSON_MEAN_MAX, and more than _DRAW_JUMPS_MAX
    expected jumps.
    """
    mean = law.intensity * T
    where = f"jump intensity {law.intensity:g} over T = {T:g} on {n} coordinates"
    if not mean <= _POISSON_MEAN_MAX:
        raise ValueError(f"{where}: the Poisson mean {mean:.4g} is past the sampler's {_POISSON_MEAN_MAX:.4g}")
    if n * mean > _DRAW_JUMPS_MAX:
        raise ValueError(f"{where} expects {n * mean:.4g} jumps; one draw holds at most {_DRAW_JUMPS_MAX}")
    counts = rng.poisson(mean, size=n)
    total = int(counts.sum())
    times = T * rng.random(total)
    sizes = _jump_sizes(law, total, rng)
    return np.repeat(np.arange(n), counts), times, sizes


@dataclass(frozen=True)
class JumpPath:
    """Sorted jump times and sizes per mode over [0, T]."""

    horizon: float
    times: list[np.ndarray]
    sizes: list[np.ndarray]

    @property
    def mode_count(self) -> int:
        return len(self.times)


def sample_jump_path(law: LevyLaw, T: float, K: int, rng: np.random.Generator) -> JumpPath:
    """Full jump-time resolution of K compound-Poisson coordinates on (0, T]."""
    if not 0 <= T < np.inf:  # NaN fails too
        raise ValueError(f"horizon T must be finite and >= 0, got {T}")
    if not (_is_whole(K) and K >= 0):
        raise ValueError(f"mode count K must be a whole number >= 0, got {K!r}")
    coord, t, s = _compound_poisson_draws(law, T, K, rng)
    order = np.lexsort((t, coord))
    ends = np.cumsum(np.bincount(coord, minlength=K))  # the piece past the last end is empty
    return JumpPath(horizon=float(T), times=np.split(t[order], ends)[:-1], sizes=np.split(s[order], ends)[:-1])


def increments_from_path(path: JumpPath, grid: np.ndarray) -> np.ndarray:
    """Per-mode, per-cell increments on right-closed cells (t_{n-1}, t_n].

    grid must be increasing, start at 0 and stay within the path horizon.
    Returns an array of shape (K, len(grid)-1).
    """
    grid = np.asarray(grid, float)
    if grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be increasing and start at 0")
    if grid[-1] > path.horizon:
        raise ValueError(f"grid end {grid[-1]} exceeds path horizon {path.horizon}")
    K = path.mode_count
    ncell = grid.size - 1
    if not K:
        return np.zeros((0, ncell))
    mode = np.repeat(np.arange(K), [t.size for t in path.times])
    t = np.concatenate(path.times)
    s = np.concatenate(path.sizes)
    cell = np.searchsorted(grid[1:], t, side="left")
    keep = cell < ncell  # jumps beyond the grid end are outside every cell
    flat = np.bincount(mode[keep] * ncell + cell[keep], weights=s[keep], minlength=K * ncell)
    return flat.reshape(K, ncell)
