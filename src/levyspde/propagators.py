"""Equation kinds and their discrete solution-operator families, mode-wise.

heat:      backward Euler (1 + dt lam)^(-n)
volterra:  backward Euler + convolution quadrature (cq_resolvent)
wave:      I-stable rational one-step scheme R(dt A)

The Volterra factors e_1, e_2, ... are the coefficients of 1/sigma(z),
sigma(z) = 1 - z + dt lam W(z) with W the generating function of the CQ
weights: a lower-triangular Toeplitz system.  cq_resolvent solves it in
blocks of _CQ_BLOCK steps, one GEMM for the history and the first block's
factors as the block's inverse; cq_mode_solve marches one mode step by step,
the independent reference.

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
from numpy.lib.stride_tricks import sliding_window_view

from .mittag_leffler import RHO_VERIFIED_MIN
from .spectral import _is_count

WAVE_SCHEMES = ("crank_nicolson", "backward_euler", "explicit_euler")
_CQ_BLOCK = 32  # steps per block of cq_resolvent's blocked Toeplitz solve


@dataclass(frozen=True)
class EquationKind:
    """Which evolution family is in play; volterra carries the kernel order rho,
    wave the name of an I-stable rational one-step scheme (judged here, once),
    and no other family takes either."""

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
            ok, worst = i_stability_check(scheme, np.linspace(-64.0, 64.0, 2049))
            if not ok:
                raise ValueError(f"wave scheme {scheme!r} is not I-stable: max |R(iy)| = {worst:.6g}")
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


def _check_eigenvalues(lam_h: np.ndarray, dt: float, w0: float) -> None:
    """Refuse an eigenvalue that is negative or not finite, or whose dt lam or
    dt lam w_0 = dt^rho lam overflows: the CQ solve divides by
    sigma_0 = 1 + dt^rho lam, which must be finite and > 0."""
    bad = ~((lam_h >= 0.0) & (lam_h < np.inf))  # NaN fails too
    if bad.any():
        raise ValueError(f"eigenvalue lam_h must be finite and >= 0, got {float(lam_h[bad][0])}")
    with np.errstate(over="ignore"):
        over = ~np.isfinite(dt * lam_h * w0)  # (dt lam) w0: infinite where either product overflows
    if over.any():
        raise ValueError(
            f"eigenvalue lam_h = {float(lam_h[over][0])} overflows at dt = {dt}: dt lam and dt^rho lam must be finite"
        )


def cq_mode_solve(lam_h: float, rho: float, dt: float, N: int) -> np.ndarray:
    """March x_n - x_{n-1} + dt lam sum_{k<=n} w_{n-k} x_k = 0 from x_0 = 1 for
    one mode, one step at a time: the homogeneous factors e_1..e_N of
    cq_resolvent by a route that shares none of its blocking, the per-mode
    reference.  O(N^2) due to the full convolution memory.
    """
    w = cq_weights(rho, dt, N)
    _check_eigenvalues(np.atleast_1d(np.asarray(lam_h, float)), dt, w[0])
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

    The first B = _CQ_BLOCK steps are cq_mode_solve's march for all modes at
    once (levels with N <= B are that march bit for bit).  Each later block
    n = s+1..s+b solves sum_{k=s+1}^{n} sigma_{n-k} e_k = r_n with
    r_n = e_s [n = s+1] - dt lam sum_{k<=s} w_{n-k} e_k: the history r is one
    GEMM of the (K, s) table against a Toeplitz of the weights, and the
    solve is e_{s+i} = sum_{j<=i} e_{i-j+1} r_{s+j}, because the inverse of
    the triangular Toeplitz matrix of sigma is that of 1/sigma, whose
    coefficients are e_1..e_B.  Python steps per level: B + N/B.
    """
    lam_h = np.atleast_1d(np.asarray(lam_h, float))
    B = _CQ_BLOCK
    w = cq_weights(rho, dt, N)
    _check_eigenvalues(lam_h, dt, w[0])
    a = dt * lam_h
    e = np.empty((lam_h.size, N + 1))
    e[:, 0] = 1.0
    denom = 1.0 + a * w[0]
    m = min(N, B)
    wrev = w[m - 1 :: -1].copy()  # contiguous reversed weights keep the matvec in BLAS
    for n in range(1, m + 1):
        hist = a * (e[:, 1:n] @ wrev[m - n : m - 1]) if n > 1 else 0.0
        e[:, n] = (e[:, n - 1] - hist) / denom
    if N > B:
        # toep[q, i] = w_{N+B-2-q-i}: its rows N-1-s.. weigh e_1..e_s into
        # block s's history r_{s+b}, ..., r_{s+1} (reversed, as inv reads
        # it); the zero head is read only past the last step
        toep = sliding_window_view(np.concatenate([np.zeros(B - 1), w[::-1]]), B)[: N - 1].copy()
        # inv[k, i, j] = e_{i+j-B+2} (0 below e_1): the lower-triangular
        # Toeplitz inverse acting on reversed r, as a view
        first = np.concatenate([np.zeros((lam_h.size, B - 1)), e[:, 1 : B + 1]], axis=1)
        inv = sliding_window_view(first, B, axis=1)
        for s in range(B, N, B):
            b = min(B, N - s)
            r = -a[:, None] * (e[:, 1 : s + 1] @ toep[N - 1 - s :, B - b :])
            r[:, -1] += e[:, s]
            e[:, s + 1 : s + b + 1] = np.einsum("kij,kj->ki", inv[:, :b, B - b :], r)
    return e


def step_log(kind: EquationKind, lam_h, dt: float) -> np.ndarray:
    """log z of the one-step factor per mode, in forms that keep their digits
    (y = dt sqrt(lam)): heat backward Euler -log1p(dt lam); wave
    Crank-Nicolson -2i arctan(y/2), backward Euler -log1p(y^2)/2 - i arctan(y)
    and the explicit step +log1p(y^2)/2 - i arctan(y).  A Volterra step has
    no one-step factor (cq_resolvent) and is refused."""
    lam_h = np.asarray(lam_h, float)
    if kind.name == "heat":
        return -np.log1p(dt * lam_h)
    if kind.name != "wave":
        raise ValueError(f"step_log takes a heat or wave kind; {kind.name} has no one-step factor")
    return _wave_step_log(kind.scheme, dt * np.sqrt(lam_h))


def _wave_step_log(scheme: str, y) -> np.ndarray:
    """step_log of a wave scheme at y = dt sqrt(lam)."""
    if scheme == "crank_nicolson":
        return -2j * np.arctan(y / 2.0)
    sign = -1.0 if scheme == "backward_euler" else 1.0
    return sign * 0.5 * np.log1p(y * y) - 1j * np.arctan(y)


def i_stability_check(scheme: str, y_grid: np.ndarray) -> tuple[bool, float]:
    """sup |R(iy)| over the test frequencies, as exp(max Re step_log) of the
    wave scheme at dt = 1, lam = y^2; fails above 1 + 1e-12."""
    if scheme not in WAVE_SCHEMES:
        raise ValueError(f"unknown wave scheme {scheme!r}")
    y = np.asarray(y_grid, float)
    worst = float(np.exp(_wave_step_log(scheme, np.sqrt(y * y)).real.max()))  # dt sqrt(lam) at dt = 1, lam = y^2
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
