"""Strong and weak approximation errors for the three evolution families.

Everything deterministic reduces, through the Ito isometry and the diagonal
noise structure, to weighted time integrals of squared mode factors:

    I_dd = int_0^T sum_j w_j  etilde_j(s)^2 ds      (discrete side)
    I_ee = int_0^T sum_k q_k  e_k(s)^2 ds           (exact side)
    I_de = int_0^T sum_coupling etilde(s) e(s) ds   (cross)

    weak_quadratic   = [|Etilde(T)X0|^2 - |E(T)X0|^2] + I_dd - I_ee
    strong^2         = |(Etilde(T)-E(T))X0|^2 + I_dd - 2 I_de + I_ee
    representation   = [|Etilde(T)X0|^2 - |E(T)X0|^2] + Q + C
        with the quadratic remainder Q = I_dd - 2 I_de + I_ee
        and the cross term          C = 2 (I_de - I_ee),

with all norms taken in the observable component (full state for heat and
Volterra, first component for the wave system).  The representation value is
assembled cell-by-cell along the Taylor-remainder route, so its agreement with
weak_quadratic is a genuine consistency check of the error representation, not
a reprint of the same arithmetic.

The exact side (I_ee per mode and the cell integrals of e_k) does not depend
on the level, so a study builds it once (exact_side, an ExactSide) and every
level's error_report reuses it; a standalone error_report builds its own on
the level's grid.  Heat and wave use closed forms.  Volterra, which has none,
keeps one cumulative table of cellwise Gauss quadrature over the union of the
ladder's cell edges, and each level differences it at its own edges.

Time integrals without a closed form are cellwise fixed-order Gauss
quadrature on per-mode partitions refined by the mode's decay scale and
oscillation frequency.  For Volterra the first cell is also graded
geometrically toward s = 0, where E_rho(-lam s^rho) has its s^rho branch point.
Time-exact spatial setups integrate both sides on shared global nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mittag_leffler import mittag_leffler_neg
from .noise import CovarianceSpec, LevyLaw, _compound_poisson_draws, hs_condition, stream

# mc_weak_error draws its jumps through _compound_poisson_draws, not through
# these two.  They stay importable here because studybench/tracer.py wraps
# levyspde.errors.sample_jump_path and levyspde.errors.increments_from_path.
from .noise import increments_from_path, sample_jump_path  # noqa: F401
from .propagators import (
    DiscreteFamily,
    EquationKind,
    discrete_family,
    i_stability_check,
    wave_exact_z,
)
from .spectral import DirichletSpectrum, FemSpace, spectral_coupling

GAUSS_ORDER = 8
_DEAD_SPAN = 40.0  # exponential envelopes are below e^-40 past this many scales
_FIRST_CELL_HALVINGS = 20  # geometric grading of the first cell toward the s^rho branch point
_MC_JUMPS_PER_BLOCK = 8192  # expected jumps drawn per Monte Carlo block; bounds its memory

# Sign of the cross-term contribution in the representation assembly.  +1.0 is
# the correct value; tests flip it to confirm the verification gate trips.
_CROSS_TERM_SIGN = 1.0


class RegularityError(ValueError):
    """Covariance decay too weak for the requested regularity target."""


@dataclass(frozen=True)
class Setup:
    """One fully specified approximation problem.

    fem None means the spectral-Galerkin space (discrete operator = truncated
    exact operator); n_cells None means the time-exact (semidiscrete) family.
    x0 holds sine-basis coefficients: shape (K,) or, for the wave system, a
    (2, K) stack of position and velocity coefficients.  exact_scheme replaces
    the discrete family by the exact one (a debugging/identity device).
    """

    kind: EquationKind
    spec: DirichletSpectrum
    cov: CovarianceSpec | None
    law: LevyLaw
    T: float
    n_cells: int | None = None
    fem: FemSpace | None = None
    x0: np.ndarray | None = None
    exact_scheme: bool = False

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("horizon T must be > 0")
        if self.n_cells is None and not self.exact_scheme and self.fem is None:
            raise ValueError("a spectral setup needs a time grid (n_cells) or exact_scheme")
        if self.n_cells is not None and self.n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        if self.kind.name == "wave" and not self.exact_scheme and self.n_cells is not None:
            ok, worst = i_stability_check(self.kind.scheme, np.linspace(-64.0, 64.0, 2049))
            if not ok:
                raise ValueError(f"wave scheme {self.kind.scheme!r} is not I-stable: max |R(iy)| = {worst:.6g}")
        if self.x0 is not None:
            x0 = np.asarray(self.x0, float)
            want = 2 if self.kind.name == "wave" else 1
            if x0.ndim != want:
                raise ValueError(f"x0 must have ndim {want} for {self.kind.name}")
            if x0.shape[-1] > self.spec.mode_count:
                raise ValueError("x0 has more coefficients than spectrum modes")
            pad = self.spec.mode_count - x0.shape[-1]
            if pad:
                x0 = np.pad(x0, [(0, 0)] * (want - 1) + [(0, pad)])
            object.__setattr__(self, "x0", x0)
        if self.fem is not None and self.fem.interior_dim > self.spec.mode_count:
            raise ValueError(
                f"FEM space has {self.fem.interior_dim} modes but only {self.spec.mode_count} "
                "exact modes are kept; raise the spectral truncation K"
            )

    @property
    def dt(self) -> float | None:
        return None if self.n_cells is None else self.T / self.n_cells

    @property
    def rho(self) -> float:
        return self.kind.rho if self.kind.name == "volterra" else 1.0

    def q(self) -> np.ndarray:
        if self.cov is None:
            return np.zeros(self.spec.mode_count)
        return self.cov.values(self.spec)

    def validate_regularity(self, beta: float) -> None:
        """Refuse setups whose covariance misses the targeted regularity."""
        if self.cov is None:
            return
        rep = hs_condition(self.spec, self.cov, beta, self.rho)
        if rep.converges is False:
            expo = 2.0 * (self.cov.decay + 1.0 / self.rho - beta)
            raise RegularityError(
                f"Hilbert-Schmidt sum diverges at beta={beta}: exponent "
                f"2(decay + 1/rho - beta) = {expo:.4g} <= 1"
            )


# ----------------------------------------------------------------------------
# mode factor evaluation and quadrature partitions


@lru_cache(maxsize=8)
def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _noise_factor(kind: EquationKind, lam, s) -> np.ndarray:
    """Observable component of E(s) B phi_k: the scalar factor for heat and
    Volterra, the first component sin(s sqrt(lam))/sqrt(lam) for the wave."""
    lam = np.asarray(lam, float)
    s = np.asarray(s, float)
    if kind.name == "heat":
        return np.exp(-lam * s)
    if kind.name == "volterra":
        return mittag_leffler_neg(kind.rho, lam * s**kind.rho)
    rt = np.sqrt(lam)
    return np.sin(rt * s) / rt


def _decay_scale(kind: EquationKind, lam: float) -> float | None:
    if kind.name == "heat":
        return 1.0 / lam
    if kind.name == "volterra":
        damp = abs(np.cos(np.pi / kind.rho))  # envelope exp(lam^(1/rho) cos(pi/rho) s)
        return 1.0 / (damp * lam ** (1.0 / kind.rho))
    return None


def _osc_freq(kind: EquationKind, lam: float) -> float | None:
    if kind.name == "heat":
        return None
    if kind.name == "volterra":
        return lam ** (1.0 / kind.rho) * np.sin(np.pi / kind.rho)
    return float(np.sqrt(lam))


def _algebraic_tail(kind: EquationKind) -> bool:
    return kind.name == "volterra"


def _refine(a: float, b: float, scale: float | None, freq: float | None, algebraic: bool) -> np.ndarray:
    """Breakpoints subdividing [a, b] so Gauss quadrature resolves the factor."""
    pts = [a, b]
    if scale is not None and (b - a) > 2.0 * scale and a < _DEAD_SPAN * scale:
        offs = 2.0 * scale * 2.0 ** np.arange(0, 64)
        offs = offs[offs < (b - a)]
        pts.extend(a + offs)
    if algebraic and a > 0.0 and (b - a) > 0.3 * a:
        n = min(int(np.ceil((b - a) / (0.3 * a))), 8)
        pts.extend(a + (b - a) * np.arange(1, n) / n)
    out = np.unique(np.asarray(pts))
    if freq is not None:
        live = scale is None or a < _DEAD_SPAN * scale
        if live:
            lengths = np.diff(out)
            need = np.ceil(lengths * freq / 1.8).astype(int)
            if np.any(need > 1):
                pieces = [
                    np.linspace(out[i], out[i + 1], need[i] + 1)[:-1] if need[i] > 1 else out[i : i + 1]
                    for i in range(out.size - 1)
                ]
                out = np.concatenate(pieces + [out[-1:]])
    return out


def _mode_partition(edges: np.ndarray, scale: float | None, freq: float | None, algebraic: bool):
    """(breakpoints, parent cell index per subcell) for one mode.

    Cells whose left edge lies beyond the dead span of an exponential envelope
    are dropped entirely (their factor is below e^-40).  For the algebraic
    family the first cell [0, e_1] is graded geometrically toward s = 0
    (_FIRST_CELL_HALVINGS halvings), so no Gauss panel but the tiny first one
    contains the s^rho branch point.  Cells needing the geometric decay grading
    get the scalar _refine treatment; everything else is uniformly subdivided in
    one vectorized pass.
    """
    n_cells = edges.size - 1
    if scale is not None and not algebraic:
        alive = int(np.searchsorted(edges[:-1], _DEAD_SPAN * scale, side="left"))
        n_keep = max(1, min(n_cells, alive))
    else:
        n_keep = n_cells
    a = edges[:n_keep]
    b = edges[1 : n_keep + 1]
    parent = np.arange(n_keep)
    if algebraic:
        graded = edges[1] * 2.0 ** -np.arange(_FIRST_CELL_HALVINGS, 0, -1.0)
        a = np.concatenate([[0.0], graded, a[1:]])
        b = np.concatenate([graded, b])
        parent = np.concatenate([np.zeros(_FIRST_CELL_HALVINGS, dtype=int), parent])
    length = b - a
    counts = np.ones(a.size, dtype=int)
    if algebraic:
        with np.errstate(divide="ignore"):
            alg = np.ceil(length / np.where(a > 0.0, 0.3 * a, np.inf))
        counts = np.maximum(counts, np.minimum(alg, 8.0).astype(int))
    if freq is not None:
        live = np.ones(a.size, bool) if scale is None else a < _DEAD_SPAN * scale
        osc = np.where(live, np.ceil(length * freq / 1.8), 1.0).astype(int)
        counts = np.maximum(counts, osc)
    geo = (
        np.nonzero((length > 2.0 * scale) & (a < _DEAD_SPAN * scale))[0]
        if scale is not None
        else np.empty(0, dtype=int)
    )
    bks: list[np.ndarray] = []
    parents: list[np.ndarray] = []

    def flush(run_start: int, run_end: int) -> None:
        if run_end <= run_start:
            return
        c = counts[run_start:run_end]
        total = int(c.sum())
        within = np.arange(total) - np.repeat(np.cumsum(c) - c, c)
        bks.append(np.repeat(a[run_start:run_end], c) + np.repeat(length[run_start:run_end] / c, c) * within)
        parents.append(np.repeat(parent[run_start:run_end], c))

    run_start = 0
    for n in geo:
        flush(run_start, n)
        sub = _refine(float(a[n]), float(b[n]), scale, freq, algebraic)
        bks.append(sub[:-1])
        parents.append(np.full(sub.size - 1, parent[n], dtype=int))
        run_start = n + 1
    flush(run_start, a.size)
    bks.append(b[-1:])
    return np.concatenate(bks), np.concatenate(parents)


def _cell_primitives(kind: EquationKind, lam: float, edges: np.ndarray, order: int = GAUSS_ORDER):
    """(P1, P2) rows: per-cell integrals of the factor and its square."""
    gx, gw = _gauss(order)
    bks, parents = _mode_partition(edges, _decay_scale(kind, lam), _osc_freq(kind, lam), _algebraic_tail(kind))
    mid = 0.5 * (bks[1:] + bks[:-1])
    half = 0.5 * np.diff(bks)
    nodes = mid[:, None] + half[:, None] * gx[None, :]
    vals = _noise_factor(kind, lam, nodes)
    w = half[:, None] * gw[None, :]
    n_cells = edges.size - 1
    p1 = np.bincount(parents, weights=(w * vals).sum(axis=1), minlength=n_cells)
    p2 = np.bincount(parents, weights=(w * vals * vals).sum(axis=1), minlength=n_cells)
    return p1, p2


def hs_time_integral(
    integrand,
    weights: np.ndarray,
    T: float,
    dt: float | None = None,
    nodes_per_cell: int = GAUSS_ORDER,
    scales: np.ndarray | None = None,
    frequencies: np.ndarray | None = None,
    algebraic_tail: bool = False,
) -> float:
    """sum_k weights[k] * int_0^T integrand(k, s) ds by cellwise Gauss quadrature.

    The base cells are the right-closed scheme cells of width dt (one cell
    [0, T] if dt is None); per-mode decay scales and oscillation frequencies
    trigger subdivision so the fixed-order rule stays converged.
    """
    weights = np.atleast_1d(np.asarray(weights, float))
    n = 1 if dt is None else int(round(T / dt))
    edges = np.linspace(0.0, T, n + 1)
    gx, gw = _gauss(nodes_per_cell)
    total = 0.0
    for k in range(weights.size):
        if weights[k] == 0.0:
            continue
        scale = None if scales is None else float(scales[k])
        freq = None if frequencies is None else float(frequencies[k])
        bks, _ = _mode_partition(edges, scale, freq, algebraic_tail)
        mid = 0.5 * (bks[1:] + bks[:-1])
        half = 0.5 * np.diff(bks)
        nodes = mid[:, None] + half[:, None] * gx[None, :]
        vals = integrand(k, nodes)
        total += weights[k] * float(((half[:, None] * gw[None, :]) * vals).sum())
    return total


# ----------------------------------------------------------------------------
# the exact side of a temporal study


@dataclass(frozen=True)
class ExactSide:
    """Per-mode exact-side integrals that do not depend on the level.

    i_ee[k] is int_0^T e_k(s)^2 ds; cells(edges) gives, mode by mode, the cell
    integrals int_cell e_k(s) ds on any level's edges.  Heat and wave use
    closed forms.  Volterra, which has none, keeps table[k, i] =
    int_0^{grid[i]} e_k(s) ds from one pass of _cell_primitives over grid (the
    union of the ladder's cell edges), and a level differences the table at
    its own edges.  Build it with exact_side.
    """

    kind: EquationKind
    lam: np.ndarray
    T: float
    i_ee: np.ndarray
    grid: np.ndarray | None = None
    table: np.ndarray | None = None

    def cells(self, edges: np.ndarray):
        """A function k -> (int_cell e_k(s) ds for each cell of edges), one
        mode row per call, so no (modes, cells) temporary is formed."""
        edges = np.asarray(edges, float)
        if self.kind.name == "volterra":
            idx = np.clip(np.searchsorted(self.grid, edges), 1, self.grid.size - 1)
            idx -= (edges - self.grid[idx - 1]) < (self.grid[idx] - edges)  # nearest grid point
            if np.max(np.abs(self.grid[idx] - edges)) > 1e-12 * self.T:
                raise ValueError("level edges are not on the grid of the exact-side table")
            return lambda k: np.diff(self.table[k, idx])
        a, h = edges[:-1], np.diff(edges)
        if self.kind.name == "heat":
            return lambda k: np.exp(-self.lam[k] * a) * -np.expm1(-self.lam[k] * h) / self.lam[k]
        mid = a + 0.5 * h

        def wave_row(k: int) -> np.ndarray:
            rt = np.sqrt(self.lam[k])
            return 2.0 * np.sin(rt * mid) * np.sin(0.5 * rt * h) / self.lam[k]

        return wave_row


def exact_side(kind: EquationKind, lam: np.ndarray, T: float, grid: np.ndarray | None = None) -> ExactSide:
    """The exact side for modes lam on [0, T]; grid holds every cell edge a
    level may ask about (None: just [0, T]).  Only Volterra uses the grid."""
    lam = np.asarray(lam, float)
    if kind.name == "heat":
        return ExactSide(kind, lam, T, -np.expm1(-2.0 * lam * T) / (2.0 * lam))
    if kind.name == "wave":
        return ExactSide(kind, lam, T, T / (2.0 * lam) - np.sin(2.0 * np.sqrt(lam) * T) / (4.0 * lam**1.5))
    grid = np.array([0.0, T]) if grid is None else np.asarray(grid, float)
    table = np.zeros((lam.size, grid.size))
    i_ee = np.empty(lam.size)
    for k in range(lam.size):
        p1, p2 = _cell_primitives(kind, lam[k], grid)
        np.cumsum(p1, out=table[k, 1:])
        i_ee[k] = p2.sum()
    return ExactSide(kind, lam, T, i_ee, grid, table)


# ----------------------------------------------------------------------------
# deterministic error assembly


def _global_partition(kind: EquationKind, lam_max: float, T: float) -> np.ndarray:
    """Graded global breakpoints resolving every mode scale up to lam_max."""
    scale = _decay_scale(kind, lam_max)
    freq = _osc_freq(kind, lam_max)
    pts = [np.array([0.0, T])]
    if scale is not None:
        lo = scale / 2.0
        if lo < T:
            grid = lo * 1.35 ** np.arange(0, int(np.ceil(np.log(T / lo) / np.log(1.35))) + 1)
            pts.append(grid[grid < T])
    if freq is not None:
        span = T if kind.name == "wave" else min(T, _DEAD_SPAN * scale)
        m = int(np.ceil(span * freq / 1.8))
        if m > 1:
            pts.append(np.linspace(0.0, span, m + 1))
    out = np.unique(np.concatenate(pts))
    if _algebraic_tail(kind):
        out = np.concatenate([[0.0], out[1] * 2.0 ** -np.arange(_FIRST_CELL_HALVINGS, 0, -1.0), out[1:]])
        refined = [out[:1]]
        for i in range(out.size - 1):
            refined.append(_refine(float(out[i]), float(out[i + 1]), None, None, True)[1:])
        out = np.concatenate(refined)
    return out


def _global_nodes(kind: EquationKind, lam_max: float, T: float, order: int = GAUSS_ORDER):
    bks = _global_partition(kind, lam_max, T)
    gx, gw = _gauss(order)
    mid = 0.5 * (bks[1:] + bks[:-1])
    half = 0.5 * np.diff(bks)
    return (mid[:, None] + half[:, None] * gx[None, :]).ravel(), (half[:, None] * gw[None, :]).ravel()


@dataclass(frozen=True)
class _Pieces:
    """The six reusable ingredients of every deterministic error formula."""

    i_dd: float
    i_ee: float
    i_de: float
    rep_quad: float
    rep_cross_half: float  # I_de - I_ee assembled along the representation route
    x0_d: float
    x0_e: float
    x0_diff: float


def _exact_terminal_first(setup: Setup) -> np.ndarray:
    """Observable component of E(T) X0 in sine coordinates."""
    lam = setup.spec.eigenvalues
    if setup.kind.name == "wave":
        z = wave_exact_z(lam, setup.T)
        return z.real * setup.x0[0] + (-z.imag / np.sqrt(lam)) * setup.x0[1]
    if setup.kind.name == "heat":
        return np.exp(-lam * setup.T) * setup.x0
    return mittag_leffler_neg(setup.kind.rho, lam * setup.T**setup.kind.rho) * setup.x0


def _discrete_terminal_first(setup: Setup, lam_d: np.ndarray, fam: DiscreteFamily | None, x0_d: np.ndarray) -> np.ndarray:
    """Observable component of Etilde(T) X0 in discrete coordinates."""
    if setup.kind.name == "wave":
        if fam is None:
            z = wave_exact_z(lam_d, setup.T)
        else:
            z = fam.steps[:, -1]
        return z.real * x0_d[0] + (-z.imag / np.sqrt(lam_d)) * x0_d[1]
    if fam is None:
        if setup.kind.name == "heat":
            return np.exp(-lam_d * setup.T) * x0_d
        return mittag_leffler_neg(setup.kind.rho, lam_d * setup.T**setup.kind.rho) * x0_d
    return fam.steps[:, -1].real * x0_d


def _x0_terms(setup: Setup, lam_d, fam, coupling) -> tuple[float, float, float]:
    if setup.x0 is None or not np.any(setup.x0):
        return 0.0, 0.0, 0.0
    a_e = _exact_terminal_first(setup)
    if setup.exact_scheme:
        return float(a_e @ a_e), float(a_e @ a_e), 0.0
    x0 = setup.x0 if setup.x0.ndim == 2 else setup.x0[None, :]
    x0_d = x0 if coupling is None else x0 @ coupling.T  # project onto discrete modes
    a_d = _discrete_terminal_first(setup, lam_d, fam, x0_d if setup.kind.name == "wave" else x0_d[0])
    nd = float(a_d @ a_d)
    ne = float(a_e @ a_e)
    cross = float(a_d @ a_e) if coupling is None else float(a_d @ (coupling @ a_e))
    return nd, ne, nd - 2.0 * cross + ne


def _discrete_noise_weights(fam_steps: np.ndarray, kind: EquationKind, lam_d: np.ndarray) -> np.ndarray:
    """Per-step observable factors etilde_j[n] of the discrete noise column."""
    if kind.name == "wave":
        return -fam_steps.imag / np.sqrt(lam_d)[:, None]
    return fam_steps.real


def _level_edges(setup: Setup) -> np.ndarray:
    return np.linspace(0.0, setup.T, (setup.n_cells or 1) + 1)


def _pieces(setup: Setup, exact: ExactSide | None = None) -> _Pieces:
    kind = setup.kind
    spec = setup.spec
    q = setup.q()
    lam = spec.eigenvalues

    if setup.fem is None:
        coupling = None
        lam_d = lam
        m_jk = None
        q_d = q
    else:
        coupling = spectral_coupling(setup.fem, spec)
        lam_d = setup.fem.eigenvalues
        m_jk = coupling**2 * q[None, :]
        q_d = m_jk.sum(axis=1)

    fam = None
    if not setup.exact_scheme and setup.n_cells is not None:
        fam = discrete_family(kind, lam_d, setup.dt, setup.n_cells)

    x0_d, x0_e, x0_diff = _x0_terms(setup, lam_d, fam, coupling)

    if setup.cov is None:
        zero = 0.0
        return _Pieces(zero, zero, zero, zero, zero, x0_d, x0_e, x0_diff)

    if fam is None and not setup.exact_scheme:
        return _pieces_semidiscrete(setup, lam, q, lam_d, q_d, m_jk, x0_d, x0_e, x0_diff)

    if exact is None:
        exact = exact_side(kind, lam, setup.T, _level_edges(setup))
    elif exact.kind != kind or exact.T != setup.T or exact.lam.size != lam.size:
        raise ValueError("the exact side was built for another equation, horizon or truncation")

    if setup.exact_scheme:
        i_ee = float(q @ exact.i_ee)
        return _Pieces(i_ee, i_ee, i_ee, 0.0, 0.0, x0_d, x0_e, x0_diff)
    if coupling is None:
        return _pieces_spectral_scheme(setup, lam, q, fam, exact, x0_d, x0_e, x0_diff)
    return _pieces_fem_scheme(setup, lam, q, lam_d, q_d, m_jk, fam, exact, x0_d, x0_e, x0_diff)


def _pieces_spectral_scheme(setup: Setup, lam, q, fam, exact: ExactSide, x0_d, x0_e, x0_diff) -> _Pieces:
    """Temporal studies: same mode basis, piecewise-constant discrete factors."""
    kind = setup.kind
    dt = setup.dt
    cells = exact.cells(_level_edges(setup))
    et = _discrete_noise_weights(fam.steps[:, 1:], kind, lam)  # (K, N)
    i_dd = i_ee = i_de = rep_quad = cross_half = 0.0
    for k in range(lam.size):
        if q[k] == 0.0:
            continue
        p1 = cells(k)
        e_row = et[k]
        dd = float(np.dot(e_row, e_row)) * dt
        ee = float(exact.i_ee[k])
        de = float(np.dot(e_row, p1))
        i_dd += q[k] * dd
        i_ee += q[k] * ee
        i_de += q[k] * de
        # representation route: Taylor-remainder pieces assembled per cell
        rep_quad += q[k] * (float(np.sum(e_row * e_row * dt - 2.0 * e_row * p1)) + ee)
        cross_half += q[k] * (float(np.sum(e_row * p1)) - ee)
    return _Pieces(i_dd, i_ee, i_de, rep_quad, cross_half, x0_d, x0_e, x0_diff)


def _pieces_semidiscrete(setup: Setup, lam, q, lam_d, q_d, m_jk, x0_d, x0_e, x0_diff) -> _Pieces:
    """Spatial studies: FEM modes with exact time factors; smooth x smooth."""
    kind = setup.kind
    lam_max = max(float(lam[-1]), float(lam_d[-1]))
    nodes, w = _global_nodes(kind, lam_max, setup.T)
    a = _noise_factor(kind, lam_d[:, None], nodes[None, :])  # (J, G)
    b = _noise_factor(kind, lam[:, None], nodes[None, :])  # (K, G)
    da = q_d @ (a * a)  # sum_j Qd_j a_j(s)^2 at nodes
    db = q @ (b * b)
    cross = np.einsum("jg,jg->g", a, m_jk @ b)
    i_dd = float(np.dot(w, da))
    i_ee = float(np.dot(w, db))
    i_de = float(np.dot(w, cross))
    rep_quad = float(np.dot(w, da - 2.0 * cross + db))
    cross_half = float(np.dot(w, cross - db))
    return _Pieces(i_dd, i_ee, i_de, rep_quad, cross_half, x0_d, x0_e, x0_diff)


def _pieces_fem_scheme(setup: Setup, lam, q, lam_d, q_d, m_jk, fam, exact: ExactSide, x0_d, x0_e, x0_diff) -> _Pieces:
    """Fully discrete: FEM modes, piecewise-constant factors, exact cross cells."""
    kind = setup.kind
    dt = setup.dt
    cells = exact.cells(_level_edges(setup))
    et = _discrete_noise_weights(fam.steps[:, 1:], kind, lam_d)  # (J, N)
    p1 = np.empty((lam.size, setup.n_cells))
    for k in range(lam.size):
        p1[k] = cells(k)
    i_dd = float(q_d @ (et * et).sum(axis=1)) * dt
    i_ee = float(q @ exact.i_ee)
    mp = m_jk @ p1  # (J, N)
    i_de = float(np.einsum("jn,jn->", et, mp))
    rep_quad = i_dd - 2.0 * i_de + i_ee
    cross_half = i_de - i_ee
    return _Pieces(i_dd, i_ee, i_de, rep_quad, cross_half, x0_d, x0_e, x0_diff)


def strong_error(setup: Setup) -> float:
    """L2(Omega) distance of the observable components at the final time."""
    p = _pieces(setup)
    val = p.x0_diff + p.i_dd - 2.0 * p.i_de + p.i_ee
    return float(np.sqrt(max(val, 0.0)))


def weak_error_quadratic(setup: Setup) -> float:
    """E g(observable of Xtilde(T)) - E g(observable of X(T)) for g = |.|^2."""
    p = _pieces(setup)
    return (p.x0_d - p.x0_e) + (p.i_dd - p.i_ee)


def representation_quadratic(setup: Setup) -> float:
    """The error-representation value for quadratic g: X0 term + the quadratic remainder + the cross term."""
    p = _pieces(setup)
    return (p.x0_d - p.x0_e) + p.rep_quad + _CROSS_TERM_SIGN * 2.0 * p.rep_cross_half


@dataclass(frozen=True)
class ErrorReport:
    strong_error: float
    weak_error_quadratic: float
    representation_value: float
    mc_estimate: float | None = None
    mc_stderr: float | None = None


def error_report(setup: Setup, exact: ExactSide | None = None) -> ErrorReport:
    """Strong, weak and representation values of one setup.  exact is the
    study's exact side (see exact_side); without it the setup's own grid is
    used, through the same code path."""
    p = _pieces(setup, exact)
    strong = float(np.sqrt(max(p.x0_diff + p.i_dd - 2.0 * p.i_de + p.i_ee, 0.0)))
    weak = (p.x0_d - p.x0_e) + (p.i_dd - p.i_ee)
    rep = (p.x0_d - p.x0_e) + p.rep_quad + _CROSS_TERM_SIGN * 2.0 * p.rep_cross_half
    return ErrorReport(strong_error=strong, weak_error_quadratic=weak, representation_value=rep)


# ----------------------------------------------------------------------------
# operator error profiles (deterministic bound-shape diagnostics)


def propagator_error_profile(setup: Setup, s_grid: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """Operator error norm of Etilde(s) - E(s) at each s.

    Spectral setups reduce to the sup over modes of the factor error; for the
    wave family the first-row error is scaled by lam^(-alpha/2), the operator
    norm from the product space of order alpha into L2.  FEM setups (heat and
    Volterra, diagnostics-sized truncations) assemble the Gram of the error
    operator on the resolved sine modes and take its largest singular value.
    """
    s_grid = np.asarray(s_grid, float)
    if np.any(s_grid <= 0) or np.any(s_grid > setup.T):
        raise ValueError("s grid must lie in (0, T]")
    lam = setup.spec.eigenvalues
    if setup.fem is not None:
        if setup.kind.name == "wave":
            raise ValueError("FEM profiles are implemented for the scalar families only")
        if setup.spec.mode_count > 512:
            raise ValueError("FEM profiles are a diagnostics tool; keep the truncation at 512 or below")
        coupling = spectral_coupling(setup.fem, setup.spec)  # (J, K)
        lam_d = setup.fem.eigenvalues
        fam = None
        if setup.n_cells is not None:
            fam = discrete_family(setup.kind, lam_d, setup.dt, setup.n_cells)
        out = np.empty(s_grid.size)
        for i, s in enumerate(s_grid):
            f = fam.factor_at(float(s)).real if fam is not None else _noise_factor(setup.kind, lam_d, float(s))
            e = _noise_factor(setup.kind, lam, float(s))
            cf = coupling * f[:, None]
            gram = cf.T @ cf - (coupling.T @ (coupling * f[:, None])) * e[None, :] * 2.0
            gram = 0.5 * (gram + gram.T) + np.diag(e**2)
            out[i] = float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))
        return out
    fam = discrete_family(setup.kind, lam, setup.dt, setup.n_cells)
    out = np.empty(s_grid.size)
    for i, s in enumerate(s_grid):
        tilde = fam.factor_at(float(s))
        if setup.kind.name == "wave":
            dz = tilde - wave_exact_z(lam, s)
            out[i] = float(np.max(np.abs(dz) * lam ** (-alpha / 2.0)))
        else:
            exact = _noise_factor(setup.kind, lam, float(s)) if setup.kind.name != "heat" else np.exp(-lam * s)
            out[i] = float(np.max(np.abs(tilde.real - exact)))
    return out


# ----------------------------------------------------------------------------
# coupled Monte Carlo


def quadratic_functional(x: np.ndarray):
    """|x|^2 of each row of a (..., K) array; a float for a single (K,) state."""
    x = np.asarray(x, float)
    if x.ndim == 1:
        return float(np.dot(x, x))
    return np.einsum("...k,...k->...", x, x)


@dataclass(frozen=True)
class CylindricalFunctional:
    """g(x) = f(<phi_{k_1}, x>, ..., <phi_{k_n}, x>) for smooth bounded-second-
    derivative f; here f = cos of a single resolved coordinate.  Like
    quadratic_functional it maps a (..., K) array to one value per row."""

    mode: int = 1

    def __call__(self, x: np.ndarray):
        v = np.cos(np.asarray(x, float)[..., self.mode - 1])
        return float(v) if v.ndim == 0 else v


def _exact_jump_weights(setup: Setup, t_jump: np.ndarray, lam_per_jump: np.ndarray) -> np.ndarray:
    """Observable factor of E(T - tau) B phi_k per jump."""
    rem = setup.T - t_jump
    if setup.kind.name == "heat":
        return np.exp(-lam_per_jump * rem)
    if setup.kind.name == "volterra":
        return mittag_leffler_neg(setup.kind.rho, lam_per_jump * rem**setup.kind.rho)
    rt = np.sqrt(lam_per_jump)
    return np.sin(rt * rem) / rt


def _mc_block_paths(setup: Setup) -> int:
    """Paths per Monte Carlo block: about _MC_JUMPS_PER_BLOCK expected jumps."""
    per_path = math.ceil(setup.law.intensity * setup.T * setup.spec.mode_count)
    return max(1, _MC_JUMPS_PER_BLOCK // per_path)


def mc_weak_error(setup: Setup, g=None, n_paths: int = 1000, seed: int = 0) -> tuple[float, float]:
    """Coupled Monte Carlo estimate of E g(Xtilde_obs(T)) - E g(X_obs(T)).

    The jump path of each mode drives both the exact reference (jump-time sum
    against the exact factor) and the scheme (the step factor of the cell
    each jump lands in), so the difference carries no coupling bias.
    Requires the compound-Poisson law; the subordinated laws have no finite
    jump-time decomposition to build the exact reference from.

    Paths are drawn in blocks of _mc_block_paths(setup): block b holds paths
    b*P .. b*P + P - 1 (the last block may be short) and draws them from the
    stream (seed, b) as one set of flat jump arrays over its P*K
    coordinates, coordinate p*K + k being mode k of the block's path p.  The
    estimate depends only on (setup, n_paths, seed).  g maps a (P, K) array
    of observables to one value per row, as quadratic_functional and
    CylindricalFunctional do; the default is quadratic_functional.
    """
    if setup.law.kind != "compound_poisson":
        raise ValueError("exact coupled reference requires the compound_poisson law")
    if setup.fem is not None:
        raise ValueError("Monte Carlo runs on spectral-Galerkin setups")
    if setup.n_cells is None:
        raise ValueError("Monte Carlo needs a time discretization")
    if g is None:
        g = quadratic_functional
    lam = setup.spec.eigenvalues
    K = setup.spec.mode_count
    N = setup.n_cells
    sq = np.sqrt(setup.q())
    fam = discrete_family(setup.kind, lam, setup.dt, N)
    # weight for a jump landing in cell n (1-based) is the (N - n + 1)-step factor
    steps_desc = fam.steps[:, :0:-1]  # columns: step N, N-1, ..., 1
    et_weights = _discrete_noise_weights(steps_desc, setup.kind, lam)  # (K, N)
    x0_disc = x0_exact = 0.0
    if setup.x0 is not None and np.any(setup.x0):
        x0_disc = _discrete_terminal_first(setup, lam, fam, setup.x0)
        x0_exact = _exact_terminal_first(setup)
    edges = _level_edges(setup)[1:]
    block = _mc_block_paths(setup)
    diffs = np.empty(n_paths)
    for b, lo in enumerate(range(0, n_paths, block)):
        P = min(block, n_paths - lo)
        coord, t, s = _compound_poisson_draws(setup.law, setup.T, P * K, stream(seed, b))
        mode = coord % K
        x_exact = np.bincount(coord, weights=_exact_jump_weights(setup, t, lam[mode]) * s, minlength=P * K)
        cell = np.searchsorted(edges, t, side="left")
        keep = cell < N  # right-closed cells (t_{n-1}, t_n]; nothing lies past T
        x_disc = np.bincount(coord[keep], weights=et_weights[mode[keep], cell[keep]] * s[keep], minlength=P * K)
        x_exact = sq * x_exact.reshape(P, K) + x0_exact
        x_disc = sq * x_disc.reshape(P, K) + x0_disc
        diffs[lo : lo + P] = g(x_disc) - g(x_exact)
    est = float(np.mean(diffs))
    stderr = float(np.std(diffs, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else float("nan")
    return est, stderr
