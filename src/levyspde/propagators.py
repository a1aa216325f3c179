"""Exact and discrete solution-operator families, represented mode-wise.

heat:      exact e^(-lam t); backward Euler (1 + dt lam)^(-n)
volterra:  exact E_rho(-lam t^rho); backward Euler + convolution quadrature
wave:      exact rotation with angle t sqrt(lam); I-stable rational one-step

Wave mode blocks [[a, b], [-lam b, a]] commute with the generator block and are
carried as the complex scalar z = a + i b' (b = -Im z / sqrt(lam)); powers are
complex powers, which keeps n-step energy exact instead of accumulating O(n)
rounding from repeated 2x2 multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mittag_leffler import RHO_VERIFIED_MIN, mittag_leffler_neg

WAVE_SCHEMES = ("crank_nicolson", "backward_euler", "explicit_euler")


@dataclass(frozen=True)
class EquationKind:
    """Which evolution family is in play; volterra carries the kernel order rho,
    wave carries the rational one-step scheme name."""

    name: str  # heat | volterra | wave
    rho: float | None = None
    scheme: str | None = None

    def __post_init__(self):
        if self.name not in ("heat", "volterra", "wave"):
            raise ValueError(f"unknown equation {self.name!r}")
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
# exact families


def exact_scalar_factor(kind: EquationKind, lam, t) -> np.ndarray:
    """Scalar solution factor for heat/volterra modes; lam and t broadcast."""
    lam = np.asarray(lam, float)
    t = np.asarray(t, float)
    if kind.name == "heat":
        return np.exp(-lam * t)
    if kind.name == "volterra":
        return mittag_leffler_neg(kind.rho, lam * t**kind.rho)
    raise ValueError("wave modes are 2x2; use wave_exact_z")


def wave_exact_z(lam, t) -> np.ndarray:
    """Complex carrier exp(-i t sqrt(lam)) of the exact wave mode block."""
    lam = np.asarray(lam, float)
    t = np.asarray(t, float)
    return np.exp(-1j * np.sqrt(lam) * t)


def wave_matrix_from_z(z: complex, lam: float) -> np.ndarray:
    """[[Re z, -Im z / sqrt(lam)], [Im z sqrt(lam), Re z]]; per-mode 2x2 block."""
    rt = np.sqrt(lam)
    return np.array([[z.real, -z.imag / rt], [z.imag * rt, z.real]])


def exact_mode_factor(kind: EquationKind, lam: float, t: float):
    """Exact factor at one mode: scalar (heat/volterra) or 2x2 (wave)."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    if kind.name == "wave":
        return wave_matrix_from_z(complex(wave_exact_z(lam, t)), lam)
    return float(exact_scalar_factor(kind, lam, t))


def wave_energy(state: np.ndarray, lam: float) -> float:
    """Per-mode invariant a^2 + b^2/lam preserved by the exact group."""
    a, b = state
    return float(a * a + b * b / lam)


# ----------------------------------------------------------------------------
# discrete one-step machinery


def be_mode_power(lam_h: float, dt: float, n) -> np.ndarray | float:
    """Backward Euler n-step factor (1 + dt lam)^(-n)."""
    if lam_h <= 0 or dt <= 0:
        raise ValueError("lam_h and dt must be > 0")
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("n must be >= 0")
    out = (1.0 + dt * lam_h) ** (-n.astype(float))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CqWeights:
    """Convolution quadrature weights of ((1-z)/dt)^(1-rho): w_k = dt^(rho-1) c_k."""

    rho: float
    dt: float
    weights: np.ndarray = field(repr=False)


def cq_weights(rho: float, dt: float, N: int) -> CqWeights:
    """Binomial recurrence c_0 = 1, c_k = c_{k-1} (k + rho - 2)/k; all positive,
    nonincreasing for rho in (1,2)."""
    if not 1.0 < rho < 2.0:
        raise ValueError(f"rho must be in (1,2), got {rho}")
    if N < 1:
        raise ValueError("need N >= 1 weights")
    c = np.empty(N)
    c[0] = 1.0
    k = np.arange(1, N, dtype=float)
    if N > 1:
        c[1:] = np.cumprod((k + rho - 2.0) / k)
    return CqWeights(rho=rho, dt=float(dt), weights=dt ** (rho - 1.0) * c)


def cq_mode_solve(lam_h: float, rho: float, dt: float, N: int, forcing: np.ndarray, x0: float = 0.0) -> np.ndarray:
    """March x_n - x_{n-1} + dt lam sum_{k<=n} w_{n-k} x_k = f_n for one mode.

    Returns x_1..x_N.  O(N^2) due to the full convolution memory.
    """
    forcing = np.asarray(forcing, float)
    if forcing.size != N:
        raise ValueError("forcing must have N entries")
    w = cq_weights(rho, dt, N).weights
    wrev = w[::-1].copy()  # contiguous reversed weights keep the dot in BLAS
    a = dt * lam_h
    x = np.empty(N + 1)
    x[0] = x0
    denom = 1.0 + a * w[0]
    for n in range(1, N + 1):
        hist = a * np.dot(wrev[N - n : N - 1], x[1:n]) if n > 1 else 0.0
        x[n] = (x[n - 1] + forcing[n - 1] - hist) / denom
    return x[1:]


def cq_resolvent(lam_h: np.ndarray, rho: float, dt: float, N: int) -> np.ndarray:
    """Homogeneous CQ factors e_0..e_N for many modes at once, shape (K, N+1).

    e_m is the m-step solution operator: the scheme solution reads
    x_n = e_n x_0 + sum_j e_{n-j+1} f_j.
    """
    lam_h = np.atleast_1d(np.asarray(lam_h, float))
    w = cq_weights(rho, dt, N).weights
    wrev = w[::-1].copy()
    a = dt * lam_h
    e = np.empty((lam_h.size, N + 1))
    e[:, 0] = 1.0
    denom = 1.0 + a * w[0]
    for n in range(1, N + 1):
        hist = a * (e[:, 1:n] @ wrev[N - n : N - 1]) if n > 1 else 0.0
        e[:, n] = (e[:, n - 1] - hist) / denom
    return e


def wave_step_z(scheme: str, dt: float, lam_h) -> np.ndarray:
    """Complex carrier R(i y), y = dt sqrt(lam), of the rational one-step block."""
    lam_h = np.asarray(lam_h, float)
    y = dt * np.sqrt(lam_h)
    return rational_symbol(scheme)(1j * y)


def rational_symbol(scheme: str):
    """R as a callable on complex arguments; approximates exp(-z)."""
    if scheme == "crank_nicolson":
        return lambda z: (2.0 - z) / (2.0 + z)
    if scheme == "backward_euler":
        return lambda z: 1.0 / (1.0 + z)
    if scheme == "explicit_euler":
        return lambda z: 1.0 - z
    raise ValueError(f"unknown wave scheme {scheme!r}")


def rational_wave_mode(scheme: str, dt: float, lam_h: float) -> np.ndarray:
    """The one-step 2x2 block R(dt A) for a single mode, in closed form."""
    if lam_h <= 0 or dt <= 0:
        raise ValueError("lam_h and dt must be > 0")
    return wave_matrix_from_z(complex(wave_step_z(scheme, dt, lam_h)), lam_h)


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


def wave_step_power(scheme: str, dt: float, lam_h, n) -> np.ndarray:
    """n-step complex carrier e^(n log z); Crank-Nicolson keeps modulus 1 to
    rounding for any n."""
    return np.exp(np.asarray(n, float) * step_log(wave_kind(scheme), lam_h, dt))


def i_stability_check(scheme: str, y_grid: np.ndarray, tol: float = 1e-12) -> tuple[bool, float]:
    """sup |R(iy)| over the test frequencies; fails above 1 + tol."""
    y = np.asarray(y_grid, float)
    vals = np.abs(rational_symbol(scheme)(1j * y))
    worst = float(vals.max())
    return worst <= 1.0 + tol, worst


# ----------------------------------------------------------------------------
# time-interpolated discrete families


@dataclass(frozen=True)
class DiscreteFamily:
    """Piecewise-constant interpolation of n-step factors on right-closed cells.

    factor index n = ceil(t / dt), with n = 0 (the projection, identity on
    resolved modes) exactly at t = 0.  steps has shape (K, N+1) and holds the
    0..N step factors; complex for wave carriers.
    """

    kind: EquationKind
    dt: float
    horizon: float
    steps: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return self.steps.shape[1] - 1

    def cell_index(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        if np.any(t < 0) or np.any(t > self.horizon + 1e-12 * self.horizon):
            raise ValueError("t outside [0, horizon]")
        return np.ceil(np.round(t / self.dt, 12)).astype(int)

    def factor_at(self, t) -> np.ndarray:
        """Per-mode factors at times t; shape (K,) + t.shape."""
        return self.steps[:, self.cell_index(t)]


def discrete_family(kind: EquationKind, lam_h: np.ndarray, dt: float, N: int) -> DiscreteFamily:
    """Build the n-step factor table for the given mode eigenvalues."""
    lam_h = np.atleast_1d(np.asarray(lam_h, float))
    if kind.name == "heat":
        n = np.arange(N + 1, dtype=float)
        steps = (1.0 + dt * lam_h[:, None]) ** (-n[None, :])
    elif kind.name == "volterra":
        steps = cq_resolvent(lam_h, kind.rho, dt, N)
    else:
        n = np.arange(N + 1, dtype=float)
        steps = wave_step_power(kind.scheme, dt, lam_h[:, None], n[None, :])
    return DiscreteFamily(kind=kind, dt=float(dt), horizon=float(dt * N), steps=steps)
