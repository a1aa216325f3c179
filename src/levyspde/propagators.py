"""Equation kinds and their discrete solution-operator families, mode-wise.

heat:      backward Euler (1 + dt lam)^(-n)
volterra:  backward Euler + convolution quadrature (cq_resolvent)
wave:      I-stable rational one-step scheme R(dt A)

One-step schemes have one form, step_log, the log of the factor z per mode,
and n-step factors e^(n log z); a wave mode block [[a, b], [-lam b, a]] is the
complex scalar z = a + i b' (b = -Im z / sqrt(lam)), which keeps n-step energy
exact instead of accumulating O(n) rounding from 2x2 products.  The exact
factors (the heat and wave carriers e^(p t), E_rho(-lam t^rho)) live with
the error assembly in levyspde.errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mittag_leffler import RHO_VERIFIED_MIN
from .spectral import _is_count

WAVE_SCHEMES = ("crank_nicolson", "backward_euler", "explicit_euler")


@dataclass(frozen=True)
class EquationKind:
    """Which evolution family is in play; volterra carries the kernel order rho,
    wave carries the rational one-step scheme name, and no other family takes
    either."""

    name: str  # heat | volterra | wave
    rho: float | None = None
    scheme: str | None = None

    def __post_init__(self):
        if self.name not in ("heat", "volterra", "wave"):
            raise ValueError(f"unknown equation {self.name!r}")
        if self.rho is not None and self.name != "volterra":
            raise ValueError(f"rho applies to volterra only; {self.name} takes none, got rho={self.rho}")
        if self.scheme is not None and self.name != "wave":
            raise ValueError(f"scheme applies to wave only; {self.name} takes none, got scheme={self.scheme!r}")
        if self.name == "volterra":
            if self.rho is None or not RHO_VERIFIED_MIN <= self.rho < 2.0:
                raise ValueError(
                    f"volterra requires rho in [{RHO_VERIFIED_MIN}, 2), the verified range of E_rho; got {self.rho}"
                )
        if self.name == "wave":
            scheme = self.scheme or "crank_nicolson"
            if scheme not in WAVE_SCHEMES:
                raise ValueError(f"unknown wave scheme {scheme!r}")
            object.__setattr__(self, "scheme", scheme)


def heat_kind() -> EquationKind:
    return EquationKind("heat")


def volterra_kind(rho: float) -> EquationKind:
    return EquationKind("volterra", rho=float(rho))


def wave_kind(scheme: str = "crank_nicolson") -> EquationKind:
    return EquationKind("wave", scheme=scheme)


# ----------------------------------------------------------------------------
# discrete one-step machinery


def cq_weights(rho: float, dt: float, N: int) -> np.ndarray:
    """Convolution quadrature weights w_k = dt^(rho-1) c_k of ((1-z)/dt)^(1-rho),
    k < N, by the binomial recurrence c_0 = 1, c_k = c_{k-1} (k + rho - 2)/k;
    all positive, nonincreasing for rho in (1,2)."""
    if not 1.0 < rho < 2.0:
        raise ValueError(f"rho must be in (1,2), got {rho}")
    if not 0.0 < dt < np.inf:  # NaN fails too
        raise ValueError(f"step dt must be finite and > 0, got {dt}")
    if not _is_count(N):
        raise ValueError(f"weight count N must be a whole number >= 1, got {N!r}")
    c = np.empty(N)
    c[0] = 1.0
    k = np.arange(1, N, dtype=float)
    if N > 1:
        c[1:] = np.cumprod((k + rho - 2.0) / k)
    return dt ** (rho - 1.0) * c


def cq_mode_solve(lam_h: float, rho: float, dt: float, N: int) -> np.ndarray:
    """March x_n - x_{n-1} + dt lam sum_{k<=n} w_{n-k} x_k = 0 from x_0 = 1 for
    one mode: the homogeneous factors e_1..e_N of cq_resolvent, one mode at a
    time.  O(N^2) due to the full convolution memory.
    """
    w = cq_weights(rho, dt, N)
    wrev = w[::-1].copy()  # contiguous reversed weights keep the dot in BLAS
    a = dt * lam_h
    x = np.empty(N + 1)
    x[0] = 1.0
    denom = 1.0 + a * w[0]
    for n in range(1, N + 1):
        hist = a * np.dot(wrev[N - n : N - 1], x[1:n]) if n > 1 else 0.0
        x[n] = (x[n - 1] - hist) / denom
    return x[1:]


def cq_resolvent(lam_h: np.ndarray, rho: float, dt: float, N: int) -> np.ndarray:
    """Homogeneous CQ factors e_0..e_N for many modes at once, shape (K, N+1).

    e_m is the m-step solution operator: the scheme solution reads
    x_n = e_n x_0 + sum_j e_{n-j+1} f_j.
    """
    lam_h = np.atleast_1d(np.asarray(lam_h, float))
    w = cq_weights(rho, dt, N)
    wrev = w[::-1].copy()
    a = dt * lam_h
    e = np.empty((lam_h.size, N + 1))
    e[:, 0] = 1.0
    denom = 1.0 + a * w[0]
    for n in range(1, N + 1):
        hist = a * (e[:, 1:n] @ wrev[N - n : N - 1]) if n > 1 else 0.0
        e[:, n] = (e[:, n - 1] - hist) / denom
    return e


def step_log(kind: EquationKind, lam_h, dt: float) -> np.ndarray:
    """log z of the one-step factor per mode, in forms that keep their digits
    (y = dt sqrt(lam)): heat backward Euler -log1p(dt lam); wave
    Crank-Nicolson -2i arctan(y/2), backward Euler -log1p(y^2)/2 - i arctan(y)
    and the explicit step +log1p(y^2)/2 - i arctan(y)."""
    lam_h = np.asarray(lam_h, float)
    if kind.name == "heat":
        return -np.log1p(dt * lam_h)
    y = dt * np.sqrt(lam_h)
    if kind.scheme == "crank_nicolson":
        return -2j * np.arctan(y / 2.0)
    sign = -1.0 if kind.scheme == "backward_euler" else 1.0
    return sign * 0.5 * np.log1p(y * y) - 1j * np.arctan(y)


def i_stability_check(scheme: str, y_grid: np.ndarray) -> tuple[bool, float]:
    """sup |R(iy)| over the test frequencies, as exp(max Re step_log) of the
    wave scheme at dt = 1, lam = y^2; fails above 1 + 1e-12."""
    y = np.asarray(y_grid, float)
    worst = float(np.exp(step_log(wave_kind(scheme), y * y, 1.0).real.max()))
    return worst <= 1.0 + 1e-12, worst


# ----------------------------------------------------------------------------
# n-step factor tables


@dataclass(frozen=True)
class DiscreteFamily:
    """The n-step factors of the scheme per mode: steps has shape (K, N+1) and
    holds the 0..N step factors (step 0 the projection, identity on resolved
    modes); complex carriers for the wave.  On the right-closed cell
    ((n-1) dt, n dt] the scheme's solution operator is the n-step factor."""

    steps: np.ndarray = field(repr=False)


def discrete_family(kind: EquationKind, lam_h: np.ndarray, dt: float, N: int) -> DiscreteFamily:
    """Build the n-step factor table for the given mode eigenvalues: Volterra
    the CQ resolvent, heat and wave e^(n log z) from step_log."""
    lam_h = np.atleast_1d(np.asarray(lam_h, float))
    if kind.name == "volterra":
        steps = cq_resolvent(lam_h, kind.rho, dt, N)
    else:
        steps = np.exp(np.arange(N + 1.0)[None, :] * step_log(kind, lam_h, dt)[:, None])
    return DiscreteFamily(steps=steps)
