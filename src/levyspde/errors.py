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
Volterra, first component for the wave system).  One assembly serves every
setup: sine mode k meets one discrete mode j(k) with coupling c_k (the
identity with c = 1 on the spectral space, spectral.alias_fold on a P1 space),
so rows dd(lam_j(k)), de(lam_j(k), lam_k) and ee(lam_k) are weighted by
m = c^2 q, m and q.  _rows(kind, levels, lam, T) builds them from eigenvalue
arrays alone, each level (lam_d, j, n_cells); error_reports(problem, levels)
weighs them for the levels of one problem, under the rules of a call that
its docstring states (error_report is its one-level case).
representation_sweep checks the regrouped value against
_weak_error_cellwise, a cellwise assembly from step tables and quadrature.

Every mode factor is one short exponential sum (_terms),
e(t) = Re(A e^(p t)) + sum_q W_q e^(-r_q t) with the pole p = _pole(kind, lam),
which also sets the resolution of the global partition: heat A = 1 and wave
A = i/sqrt(lam) with no cut, Volterra's E_rho(-lam t^rho) the pole-corrected
residue pair plus a trapezoid sum of its branch cut in u = log r, on one
lattice per call, from the sine spectrum.  By Re u Re v = Re(uv + u conj(v))/2
every heat, wave and time-exact Volterra row is one _cross of two factors'
terms against a Gram: integrals expm1(L T)/L on time-exact levels, geometric sums
expm1(N log xi)/expm1(log xi) over a scheme's step factors Re(A z^n), plus
the cut's sums; no E_rho is evaluated and no quadrature node used.  Volterra
scheme rows pair the CQ factor table with the cell integrals
int_cell e_k = diff(t E_{rho,2}(-lam_k t^rho)) at the level's edges, and
I_ee = lam^(-1/rho) G_rho(T lam^(1/rho)), G_rho(y) = int_0^y E_rho(-u^rho)^2 du,
comes from one cumulative Gauss table.  Rows with a cut or a CQ table work in
blocks of modes and each row reduces along itself, so no number depends on
the block size.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .mittag_leffler import _CUT_STEP, _DEAD_SPAN, _cut_amplitude, _cut_span, _cut_weights, _unit_pole, mittag_leffler_neg
from .noise import CovarianceSpec, LevyLaw, _compound_poisson_draws, stream

# mc_weak_error draws its jumps through _compound_poisson_draws, and
# propagator_error_profile folds the modes by alias class; sample_jump_path,
# increments_from_path and spectral_coupling stay importable here because
# studybench/tracer.py wraps them under levyspde.errors.
from .noise import increments_from_path, sample_jump_path  # noqa: F401
from .propagators import EquationKind, cq_mode_solve, discrete_family, step_log
from .spectral import DirichletSpectrum, FemSpace, _is_count, alias_fold, spectral_coupling  # noqa: F401

GAUSS_ORDER = 8
_FIRST_CELL_HALVINGS = 20  # geometric grading of the first cell toward the s^rho branch point
_ML_BLOCK = 16384  # values per block of modes (Volterra levels, the oracle); bounds memory, moves no row
_PRIM_TABLE_MAX = 1 << 23  # values of the held cell-primitive table (64 MB); a larger level evaluates directly
_MC_JUMPS_PER_BLOCK = 8192  # expected jumps drawn per Monte Carlo block; bounds its memory


@dataclass(frozen=True)
class Setup:
    """One fully specified approximation problem.

    fem None means the spectral-Galerkin space (discrete operator = truncated
    exact operator); n_cells None means the time-exact (semidiscrete) family.
    With neither, the discrete family is the exact one, so every error is 0
    (an identity check of the assembly).  x0 holds sine-basis coefficients:
    shape (K,) or, for the wave system, a (2, K) stack of position and
    velocity coefficients, stored at full length (zeros where none are given).
    """

    kind: EquationKind
    spec: DirichletSpectrum
    cov: CovarianceSpec
    law: LevyLaw
    T: float
    n_cells: int | None = None
    fem: FemSpace | None = None
    x0: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.kind, EquationKind):
            raise ValueError(f"kind must be an EquationKind, got {self.kind!r}")
        if not isinstance(self.spec, DirichletSpectrum):
            raise ValueError(f"spec must be a DirichletSpectrum, got {self.spec!r}")
        if not isinstance(self.cov, CovarianceSpec):
            raise ValueError(f"cov must be a CovarianceSpec, got {self.cov!r}")
        if not isinstance(self.law, LevyLaw):
            raise ValueError(f"law must be a LevyLaw, got {self.law!r}")
        if not 0 < self.T < np.inf:
            raise ValueError(f"horizon T must be finite and > 0, got {self.T}")
        _check_level(self.spec, self.fem, self.n_cells)
        K = self.spec.mode_count
        x0 = np.zeros((2, K) if self.kind.name == "wave" else K)
        if self.x0 is not None:
            given = np.asarray(self.x0, float)
            if given.ndim != x0.ndim or given.shape[:-1] != x0.shape[:-1]:
                shape = "(2, K) position and velocity rows" if x0.ndim == 2 else "(K,)"
                raise ValueError(f"x0 for {self.kind.name} must have shape {shape}, got {given.shape}")
            if not np.all(np.isfinite(given)):
                raise ValueError("x0 must be finite")
            if given.shape[-1] > K:
                raise ValueError("x0 has more coefficients than spectrum modes")
            x0[..., : given.shape[-1]] = given
        object.__setattr__(self, "x0", x0)

    @property
    def dt(self) -> float | None:
        return None if self.n_cells is None else self.T / self.n_cells

    def q(self) -> np.ndarray:
        return self.cov.values(self.spec)


def _check_level(spec: DirichletSpectrum, fem, n_cells) -> None:
    """Refuse a level (fem, n_cells) of a problem on the K sine modes of spec:
    fem must be None (the spectral space) or a FemSpace with at most K
    interior modes, n_cells None (time-exact) or a whole number >= 1."""
    if n_cells is not None and not _is_count(n_cells):
        raise ValueError(f"n_cells must be a whole number >= 1, got {n_cells!r}")
    if not (fem is None or isinstance(fem, FemSpace)):
        raise ValueError(f"fem must be None or a FemSpace, got {fem!r}")
    if fem is not None and fem.interior_dim > spec.mode_count:
        raise ValueError(
            f"FEM space has {fem.interior_dim} modes but only {spec.mode_count} "
            "exact modes are kept; raise the spectral truncation K"
        )


# ----------------------------------------------------------------------------
# mode factor evaluation and quadrature partitions


@lru_cache(maxsize=1)
def _gauss() -> tuple[np.ndarray, np.ndarray]:
    """The GAUSS_ORDER-point Gauss-Legendre nodes and weights on [-1, 1]:
    numpy.polynomial.legendre.leggauss(GAUSS_ORDER) written out at repr
    precision, its values bit for bit without importing numpy.polynomial."""
    half_x = [0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362]
    half_w = [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]
    return np.array([-x for x in half_x[::-1]] + half_x), np.array(half_w[::-1] + half_w)


def _panel_nodes(bks: np.ndarray):
    """Gauss nodes and weights on each panel [bks[i], bks[i+1]], shape (panels, GAUSS_ORDER)."""
    gx, gw = _gauss()
    mid = 0.5 * (bks[1:] + bks[:-1])
    half = 0.5 * np.diff(bks)
    return mid[:, None] + half[:, None] * gx[None, :], half[:, None] * gw[None, :]


def _pole(kind: EquationKind, lam):
    """The pole p of a mode: its factor decays and oscillates like e^(p s).
    Volterra p = lam^(1/rho) e^(i pi/rho), the pole of E_rho(-lam s^rho)'s
    residue pair; its ends are heat's p = -lam (rho = 1) and the wave's
    +-i sqrt(lam) (rho = 2).  Heat and wave factors are Re(A e^(p s)) itself
    (_terms): heat p = -lam, A = 1; wave p = -i sqrt(lam), A = i/(-Im p)."""
    if kind.name == "volterra":
        return lam ** (1.0 / kind.rho) * _unit_pole(kind.rho)
    return -lam if kind.name == "heat" else -1j * np.sqrt(lam)


def _observable(kind: EquationKind, p, z) -> np.ndarray:
    """The noise column's observable Re(A z) of a mode factor z, p = _pole(kind, lam):
    Im z / Im p = -Im z / sqrt(lam) for the wave, else Re z."""
    return z.imag / p.imag if kind.name == "wave" else z.real


def _noise_factor(kind: EquationKind, lam, s) -> np.ndarray:
    """Observable component e(s) of E(s) B phi_k: E_rho(-lam s^rho) for
    Volterra, the observable of the carrier e^(p s) for heat and wave.

    The heat exponent p s = -lam s is floored at -700: a factor at or above
    e^-700 keeps its bits, one below it (at most about 1e-304) reads e^-700,
    which no sum of squares can see.  numpy's AVX-512 exp leaves its vector
    loop for arguments below about -705, near the subnormal range, and a
    heat Monte Carlo block at K = 16 has a quarter of its exponents there:
    on an AVX-512 Xeon (numpy 2.4), exp of 8192 values in [-2500, 0] takes
    about 145 us unfloored, 105 us floored at -708 and 7 us at -700."""
    lam = np.asarray(lam, float)
    s = np.asarray(s, float)
    if kind.name == "volterra":
        return mittag_leffler_neg(kind.rho, lam * s**kind.rho)
    if kind.name == "wave":  # Im e^(p s) / Im p with p = -i sqrt(lam), without a complex exp
        root = np.sqrt(lam)
        return np.sin(root * s) / root
    p = _pole(kind, lam)
    return _observable(kind, p, np.exp(np.maximum(p * s, -700.0)))


# ----------------------------------------------------------------------------
# heat and wave time integrals in closed form


def _geometric(L, n):
    """sum_{m<n} e^(m L) = expm1(n L) / expm1(L); n where L = 0.  n may be
    an array that broadcasts against L."""
    den, num = np.expm1(L), np.expm1(n * L)
    return np.divide(num, den, out=np.full_like(num, n), where=den != 0)


def _integral(L, T):
    """int_0^T e^(L s) ds = expm1(L T) / L; T where L = 0.  T may be an
    array that broadcasts against L."""
    num = np.expm1(L * T)
    return np.divide(num, L, out=np.full_like(num, T), where=L != 0)


# ----------------------------------------------------------------------------
# deterministic error assembly


def _strictly_increasing(pts: np.ndarray) -> np.ndarray:
    """The distinct values of pts in increasing order; np.unique would import
    numpy.ma on its first call."""
    pts = np.sort(pts)
    return pts[np.append(True, np.diff(pts) > 0.0)]


def _global_partition(kind: EquationKind, lam_max: float, T: float) -> np.ndarray:
    """Graded global breakpoints on [0, T] resolving every mode scale up to lam_max.

    From the pole p = _pole(kind, lam_max) of the top mode: a geometric grid
    (ratio 1.35) from half its decay scale -1/Re p, and a uniform grid of 1.8
    radians of its oscillation |Im p| per cell, up to _DEAD_SPAN decay scales
    (the whole horizon for the wave, whose pole has Re p = 0 and no decay
    scale).  Volterra adds the first cell graded toward the s^rho branch point
    at s = 0 (_FIRST_CELL_HALVINGS halvings) and cuts every later cell [a, b]
    into min(ceil((b - a) / (0.3 kappa a)), ceil(8 / kappa)) equal pieces for
    the algebraic tail, kappa = min(1, r(rho) / r(1.5)) with the damping ratio
    r = |Re p| / Im p, the same for every mode of one rho.

    Past _DEAD_SPAN decay scales of the top mode the lower Volterra modes,
    which decay more slowly, still oscillate on these tail pieces, and r
    vanishes as rho -> 2.  kappa narrows the pieces with r; it is 1 for
    rho <= 1.5.  Limit: the node count grows like 1/kappa.  The Volterra
    partition serves the G_rho table of _volterra_ee (on the unit mode) and
    the oracle _weak_error_cellwise; at K = 1024 Gauss sums of e_k^2 on the
    top mode's nodes agree with the G_rho table to 1e-14 for rho up to 1.95
    (14328 nodes there; 5296 and 2.3e-4 off without kappa).
    """
    p = _pole(kind, lam_max)
    pts = [np.array([0.0, T])]
    span = T
    if p.real < 0.0:
        scale = -1.0 / p.real
        lo = scale / 2.0
        if lo < T:
            grid = lo * 1.35 ** np.arange(0, int(np.ceil(np.log(T / lo) / np.log(1.35))) + 1)
            pts.append(grid[grid < T])
        span = min(T, _DEAD_SPAN * scale)
    m = int(np.ceil(span * abs(p.imag) / 1.8))
    if m > 1:
        pts.append(np.linspace(0.0, span, m + 1))
    out = _strictly_increasing(np.concatenate(pts))
    if kind.name == "volterra":
        r, r15 = (abs(u.real) / u.imag for u in (_unit_pole(kind.rho), _unit_pole(1.5)))
        kappa = min(1.0, r / r15)
        width, cap = 0.3 * kappa, math.ceil(8.0 / kappa)
        out = np.concatenate([[0.0], out[1] * 2.0 ** -np.arange(_FIRST_CELL_HALVINGS, 0, -1.0), out[1:]])
        a, length = out[:-1], np.diff(out)
        pieces = np.ones(a.size, dtype=int)
        cut = (a > 0.0) & (length > width * a)
        pieces[cut] = np.minimum(np.ceil(length[cut] / (width * a[cut])), cap)
        i = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        out = np.append(np.repeat(a, pieces) + np.repeat(length, pieces) * i / np.repeat(pieces, pieces), out[-1])
    return out


def _global_nodes(kind: EquationKind, lam_max: float, T: float):
    nodes, w = _panel_nodes(_global_partition(kind, lam_max, T))
    return nodes.ravel(), w.ravel()


def _volterra_ee(kind: EquationKind, lam: np.ndarray, T: float) -> np.ndarray:
    """int_0^T E_rho(-lam_k s^rho)^2 ds per mode, as lam^(-1/rho) G(T lam^(1/rho))
    with G(y) = int_0^y E_rho(-u^rho)^2 du: one cumulative Gauss table on the
    global partition of the unit mode over [0, max y], every y_k a breakpoint."""
    root = lam ** (1.0 / kind.rho)
    y = T * root
    bks = _strictly_increasing(np.concatenate([_global_partition(kind, 1.0, float(y.max())), y]))
    nodes, w = _panel_nodes(bks)
    f = mittag_leffler_neg(kind.rho, nodes**kind.rho)
    g = np.concatenate([[0.0], np.cumsum((w * f * f).sum(axis=1))])
    return g[np.searchsorted(bks, y)] / root


def _mode_blocks(K: int, per_mode: int, block: int) -> list[slice]:
    """Slices of range(K) of max(1, block // per_mode) modes each (all K at
    per_mode 0), the last one possibly short: blocks of about block values."""
    rows = max(1, block // per_mode) if per_mode else max(1, K)
    return [slice(lo, lo + rows) for lo in range(0, K, rows)]


def _rows(kind: EquationKind, levels, lam, T: float) -> list:
    """(dd, de, ee, z_T) per sine mode k of each level (lam_d, j, n_cells) of
    levels, from eigenvalue arrays alone: dd = int_0^T etilde^2,
    de = int_0^T etilde e_k, ee = int_0^T e_k^2, etilde the level's discrete
    factor at lam_d[j[k] - 1] (lam_d, j as _partner_map gives them), and z_T
    the scheme's terminal factor on lam_d where the rows come with it
    (Volterra scheme levels: the CQ table's last column), else None
    (_terminal_factor gives it).  n_cells None is a time-exact level, etilde
    the exact factor at lam_d; the levels all carry a step count or none does.

    Two paths, one pass under error_reports' rules of a call; the exact side
    is built here.  Volterra scheme levels (_cq_rows, finest first):
    ee from the G_rho table, and the cell primitives at the edges of the
    finest level whose K (N + 1) values fit under _PRIM_TABLE_MAX, which a
    level whose edges nest in them reads as a strided view.  Every other
    level: the exact terms and ee once, on one cut lattice per call, from the
    sine spectrum (Volterra; heat and wave have none), then _term_rows on
    groups of max(1, _ML_BLOCK // K) heat or wave levels or one Volterra
    level.  Every row is reduced along itself, so a level's rows are the bits
    its own call gives, whatever the other levels, their order or the block
    size."""
    if kind.name == "volterra" and levels[0][2] is not None:
        ee, rows, held = _volterra_ee(kind, lam, T), [None] * len(levels), None
        for i in sorted(range(len(levels)), key=lambda i: -levels[i][2]):  # finest first
            lam_d, j, n_cells = levels[i]
            rows[i], held = _cq_rows(kind, lam_d, j, lam, T, n_cells, held, ee)
        return rows
    lattice = _cut_lattice(kind.rho, lam, T) if kind.name == "volterra" else None  # heat and wave have no cut
    x = _terms(kind, lam, lattice, T)
    ee, rows = _cross_rows(x, None, x, partial(_integral, T=T)), []
    # a cut table's bits follow its shape (one BLAS product), so a level with a cut is a group alone
    size = 1 if kind.name == "volterra" else max(1, _ML_BLOCK // lam.size)
    for lo in range(0, len(levels), size):
        rows += [(dd, de, ee, None) for dd, de in _term_rows(kind, levels[lo : lo + size], x, lattice, T)]
    return rows


def _cq_rows(kind: EquationKind, lam_d, j, lam, T: float, n_cells: int, held, ee):
    """((dd, de, ee, z_T), held) of a Volterra scheme level: the CQ table
    (J, N+1) of the discrete side, its last column z_T, and de pairing it with
    the differences of the cell primitives at the level's edges, in blocks of
    modes of about _ML_BLOCK values.  held is the call's (edges, primitives)
    table or None.  A level whose edges are every r-th of the held edges, bit
    for bit, reads the primitives as a strided view; any other evaluates its
    own, and the first level that fits its K (N + 1) of them under
    _PRIM_TABLE_MAX keeps them as the table it returns.  Its CQ table is then
    built before the primitives are, so the two tables' scratch never meet."""
    steps = discrete_family(kind, lam_d, T / n_cells, n_cells).steps
    edges, et = np.linspace(0.0, T, n_cells + 1), steps[:, 1:]
    t_rho = edges**kind.rho
    dd = (T / n_cells) * np.einsum("jn,jn->j", et, et)
    stride = None if held is None else _nest_stride(held[0], edges)
    keep = np.empty((lam.size, edges.size)) if held is None and lam.size * edges.size <= _PRIM_TABLE_MAX else None
    de = np.empty(lam.size)
    for k in _mode_blocks(lam.size, edges.size, _ML_BLOCK):
        if stride is None:  # int_0^t e_k = t E_{rho,2}(-lam_k t^rho) at the edges
            x = edges * mittag_leffler_neg(kind.rho, lam[k, None] * t_rho, beta=2)
        else:
            x = held[1][k, ::stride]
        if keep is not None:
            keep[k] = x
        de[k] = np.einsum("kn,kn->k", et[j[k] - 1], np.diff(x, axis=1))
    z_T = steps[:, -1].copy()  # a copy: the CQ table goes with the level
    return (dd[j - 1], de, ee, z_T), held if keep is None else (edges, keep)


def _cut_lattice(rho: float, lam: np.ndarray, T: float):
    """The lattice u_q = q _CUT_STEP over the sine eigenvalues lam (_cut_span)
    and the (Q, Q) matrix M_qq' = int_0^T e^(-(r_q + r_q') t) dt, r = e^u."""
    lo, hi = float(lam.min()), float(lam.max())
    if not 0.0 < lo <= hi < np.inf:
        raise ValueError(f"time-exact Volterra rows need finite eigenvalues > 0, got the range [{lo}, {hi}]")
    q_lo, q_hi = _cut_span(rho, lo, hi)
    u = np.arange(q_lo, q_hi + 1) * _CUT_STEP
    s = np.exp(u)[:, None] + np.exp(u)
    return u, -np.expm1(-T * s) / s


def _terms(kind: EquationKind, lam: np.ndarray, lattice, T: float):
    """(A, p, cut) of each mode's factor Re(A e^(p t)) + sum_q W_q e^(-r_q t),
    p = _pole(kind, lam): heat A = 1 and wave A = i/sqrt(lam), cut None.

    Volterra's E_rho(-lam t^rho) is, on the Hankel contour, the residue pair
    with the pole-corrected amplitude A (_cut_amplitude) plus a trapezoid sum
    of its branch cut with the weights W (_cut_weights) on the lattice (u, M),
    r_q = e^(u_q), nu = log(lam)/rho.  cut stacks W, the pole-cut integrals
    P = int_0^T Re(A e^(p t)) e^(-r t) dt and Y = W M + P, (3, K, Q).  An
    eigenvalue is refused unless the lattice spans _DEAD_SPAN - 4 of W's decay
    scales rho |u - nu| past it, a truncation below the trapezoid's e^(-pi^2/h)
    (a P1 space's eigenvalues, M - 1 <= K, keep at least 38)."""
    if kind.name != "volterra":
        p = _pole(kind, lam)
        return (np.ones_like(p) if kind.name == "heat" else 1j / -p.imag), p, None
    (u, M), rho = lattice, kind.rho
    lo, hi, keep = float(lam.min()), float(lam.max()), _DEAD_SPAN - 4.0
    least, most = math.exp(rho * u[0] + keep), math.exp(rho * u[-1] - keep)
    if not least <= lo <= hi <= most:  # NaN fails too
        raise ValueError(f"time-exact Volterra rows need finite eigenvalues > 0 in [{least:.3g}, {most:.3g}], got {lo, hi}")
    p = _pole(kind, lam)
    nu, r, turn = np.log(lam) / rho, np.exp(u), np.expm1(1j * T * p.imag)
    A, _ = _cut_amplitude(rho, nu)
    # P = Re(A (e^((p - r) T) - 1) / (p - r)), where A (e^((p - r) T) - 1) = alpha E + beta
    # with E = expm1((Re p - r) T) real, so the table is built in real arithmetic
    alpha, beta = A * (1.0 + turn), A * turn
    cut = np.empty((3, lam.size, u.size))
    for k in _mode_blocks(lam.size, u.size, _ML_BLOCK):
        cut[0, k] = _cut_weights(rho, u, nu[k, None])
        # Re((alpha E + beta) / (d + i b)), d = Re p - r, b = Im p
        d, b = p.real[k, None] - r, p.imag[k, None]
        E = np.expm1(T * d)
        num = (alpha.real[k, None] * E + beta.real[k, None]) * d + (alpha.imag[k, None] * E + beta.imag[k, None]) * b
        cut[1, k] = num / (d * d + b * b)
    cut[2] = cut[0] @ M + cut[1]  # one product of the whole table, so its bits follow its shape only
    return A, p, cut


def _take(terms, k):
    """The terms of the modes k (a slice or an index array)."""
    A, p, cut = terms
    return A[k], p[k], None if cut is None else cut[:, k]


def _cross(a, b, total):
    """Sum (or integral) over time of the products of two factors' terms
    (_terms), one value per row; total(L) sums (integrates) e^(L t).  The
    pairs by Re u Re v = Re(u v + u conj(v)) / 2 (a real pair gives two equal
    terms, so it is summed once: 0.5 (x + x) is x bit for bit), plus
    sum_q (W_a Y_b + P_a W_b) along each row where there is a cut."""
    (A, p, cut), (B, q, cut_b) = a, b
    if not any(map(np.iscomplexobj, (A, p, B, q))):
        pair = A * B * total(p + q)
    else:
        pair = 0.5 * (A * B * total(p + q) + A * np.conj(B) * total(p + np.conj(q))).real
    if cut is None:
        return pair
    (Wa, Pa, _), (Wb, _, Yb) = cut, cut_b
    return pair + np.sum(Wa * Yb + Pa * Wb, axis=-1)


def _cross_rows(a, ia, b, total) -> np.ndarray:
    """_cross of a's terms at the entries ia ((L, K); all of a if None) with
    b's K modes, in blocks of about _ML_BLOCK values (L Q per mode, one block
    without a cut)."""
    shape, Q = b[1].shape if ia is None else ia.shape, 0 if b[2] is None else b[2].shape[-1]
    out = np.empty(shape)
    for k in _mode_blocks(shape[-1], (1 if ia is None else shape[0]) * Q, _ML_BLOCK):
        out[..., k] = _cross(_take(a, k if ia is None else ia[:, k]), _take(b, k), total)
    return out


def _term_rows(kind: EquationKind, levels, x, lattice, T: float) -> list:
    """(dd, de) of each level of a group sharing the exact terms x and their
    lattice, as one broadcast.  Time-exact levels: the terms d of the levels'
    J distinct partner eigenvalues, concatenated, give dd by _integral, and
    the (L, K) index of each sine mode's partner entry pairs d with x for de.
    Scheme levels (heat, wave): the partner eigenvalues lam_d[j - 1] in one
    (L, K) stack (one row for levels sharing a partner map, as a temporal
    ladder's J = K distinct ones) against an (L, 1) column of step counts N;
    the step factors Re(a z^(n-1)), a = A z, log z = step_log, meet
    themselves and the cell integrals of e_k, Re(A int_0^dt e^(p s) ds
    e^((n-1) p dt)), in _geometric sums, times dt = T / N for dd.  Rows come
    out of C-ordered (L, K) arrays, the bits a group of one gives."""
    if levels[0][2] is not None:
        shared = all(lam_d is levels[0][0] and j is levels[0][1] for lam_d, j, _ in levels)
        # np.array, not np.stack, whose first call in a process costs about 0.1 ms
        lam_d = np.array([lam_d[j - 1] for lam_d, j, _ in levels[: 1 if shared else None]])
        n = np.array([n for *_, n in levels])[:, None]
        dt, steps = T / n, partial(_geometric, n=n)
        la = step_log(kind, lam_d, dt)
        d = _terms(kind, lam_d, lattice, T)[0] * np.exp(la), la, None
        x = x[0] * _integral(x[1], dt), x[1] * dt, None
        return list(zip(dt * _cross(d, d, steps), _cross(d, x, steps)))
    entries, at = [], -1  # each sine mode's 0-based partner entry, past the levels before
    for lam_d, j, _ in levels:
        entries.append(j + at)
        at += lam_d.size
    idx, integral = np.array(entries), partial(_integral, T=T)
    d = _terms(kind, np.concatenate([lam_d for lam_d, *_ in levels]), lattice, T)
    return list(zip(_cross_rows(d, None, d, integral).take(idx), _cross_rows(d, idx, x, integral)))


def _terminal_factor(kind: EquationKind, lam: np.ndarray, T: float, n_cells: int | None = None) -> np.ndarray:
    """Factor at T of each mode.  Exact (n_cells None): the carrier e^(p T),
    E_rho for Volterra.  A heat or wave scheme of n_cells steps: z^N =
    e^(N log z).  A Volterra scheme's is the CQ table's last column, which
    _rows returns with its rows."""
    if n_cells is not None:
        return np.exp(n_cells * step_log(kind, lam, T / n_cells))
    return _noise_factor(kind, lam, T) if kind.name == "volterra" else np.exp(_pole(kind, lam) * T)


def _terminal_first(kind: EquationKind, lam: np.ndarray, z_T: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Observable component of the terminal factor z_T applied to x0; the
    wave carries (position, velocity) coefficients and a complex carrier."""
    if kind.name == "wave":
        return z_T.real * x0[0] + _observable(kind, _pole(kind, lam), z_T) * x0[1]
    return z_T.real * x0


def _exact_terminal_first(setup: Setup) -> np.ndarray:
    """Observable component of E(T) X0 in sine coordinates."""
    lam = setup.spec.eigenvalues
    return _terminal_first(setup.kind, lam, _terminal_factor(setup.kind, lam, setup.T), setup.x0)


def _partner_map(spec: DirichletSpectrum, fem: FemSpace | None):
    """(lam_d, j, c): the discrete eigenvalues of fem and alias_fold's (j, c);
    on the spectral space (fem None) the identity fold, j(k) = k and c = 1.
    j = 0 (no partner) picks the last discrete row, which the weight c^2 q = 0
    of such a mode cancels."""
    if fem is None:
        lam = spec.eigenvalues
        return lam, np.arange(1, lam.size + 1), np.ones(lam.size)
    return (fem.eigenvalues, *alias_fold(fem, spec))


def _fold(v: np.ndarray, j, c, J: int) -> np.ndarray:
    """C v along the last axis of v, C the (J, K) coupling: one bincount of
    c v over j per row."""
    rows = [np.bincount(j, weights=c * r, minlength=J + 1)[1:] for r in np.reshape(v, (-1, v.shape[-1]))]
    return np.reshape(rows, v.shape[:-1] + (J,))


def _nest_stride(fine: np.ndarray, edges: np.ndarray) -> int | None:
    """r when edges are every r-th of the edges fine, bit for bit, else None:
    each cell of edges is then the union of r cells of fine."""
    r, rem = divmod(fine.size - 1, edges.size - 1)
    return r if not rem and np.array_equal(fine[::r], edges) else None


def _cells(t: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The 0-based right-closed cell (edges[c], edges[c+1]] of each t in
    [0, T], edges = np.linspace(0, T, N + 1): np.searchsorted(edges[1:], t,
    side="left") without sorting t.  The guess floor(t N / T) is off by at
    most one; one comparison each way against the edges makes it exact."""
    n = edges.size - 1
    c = np.minimum((t * (n / edges[-1])).astype(np.intp), n - 1)
    c -= t <= edges[c]
    np.maximum(c, 0, out=c)
    c += t > edges[c + 1]
    return c


@dataclass(frozen=True)
class ErrorReport:
    strong_error: float
    weak_error_quadratic: float
    representation_value: float


def _report(problem: Setup, n_cells, q, a_e, partners, dd, de, ee, z_T) -> ErrorReport:
    """One level's values from its rows and partner map (lam_d, j, c):
    I_dd = m . dd, I_de = m . de and I_ee = q . ee over the sine modes,
    m = c^2 q, plus the x0 terms from a_e, E(T) X0 observed (None: no x0)."""
    kind, (lam_d, j, c) = problem.kind, partners
    m = c * c * q
    x0_d = x0_e = x0_diff = 0.0
    if a_e is not None:
        z_T = _terminal_factor(kind, lam_d, problem.T, n_cells) if z_T is None else z_T
        a_d = _terminal_first(kind, lam_d, z_T, _fold(problem.x0, j, c, lam_d.size))  # x0 projected
        x0_d, x0_e = float(a_d @ a_d), float(a_e @ a_e)
        x0_diff = x0_d - 2.0 * float(a_d @ _fold(a_e, j, c, lam_d.size)) + x0_e
    # one reduction for all three, so the exact family's equal rows give equal sums
    i_dd, i_de, i_ee = (float(np.vdot(w, v)) for w, v in ((m, dd), (m, de), (q, ee)))
    weak = (x0_d - x0_e) + (i_dd - i_ee)
    quad = i_dd - 2.0 * i_de + i_ee  # the quadratic remainder
    rep = (x0_d - x0_e) + quad + 2.0 * (i_de - i_ee)
    strong = float(np.sqrt(max(x0_diff + quad, 0.0)))
    return ErrorReport(strong_error=strong, weak_error_quadratic=weak, representation_value=rep)


def error_reports(problem: Setup, levels) -> list[ErrorReport]:
    """Strong, weak and representation values of each level of one problem,
    in input order; error_report is the one-level case.

    problem is a spectral-Galerkin setup without a time grid, the object
    mc_weak_error takes; each level is a pair (fem, n_cells), fem None the
    spectral space and n_cells None time-exact, checked as Setup checks
    them, and the levels share one axis.  The rules of a call, which the
    module, _rows and run_study refer to: one problem, so the levels cannot
    disagree on anything but (fem, n_cells); one partner map per FEM space;
    one _rows pass, which builds the exact side the levels share once (one
    lattice per call, from the sine spectrum) and drops it on return; and
    each report equal bit for bit to error_report of its level alone.  On
    the exact family (no FEM space, no time grid) every value is exactly 0.
    """
    if not isinstance(problem, Setup):
        raise ValueError(f"problem must be one Setup, got a {type(problem).__name__}")
    if problem.fem is not None or problem.n_cells is not None:
        raise ValueError("the problem carries no FEM space and no time grid; they go in levels")
    levels = list(levels) if isinstance(levels, Sequence) else []
    if not levels or not all(isinstance(level, tuple) and len(level) == 2 for level in levels):
        raise ValueError("levels must be a nonempty sequence of (fem, n_cells) pairs")
    for fem, n_cells in levels:
        _check_level(problem.spec, fem, n_cells)
    if len({(fem is None, n_cells is None) for fem, n_cells in levels}) > 1:
        raise ValueError("levels must share one axis: each carries a FEM space or none does, and a time grid or none")
    maps = {id(fem): _partner_map(problem.spec, fem) for fem, _ in levels}
    partners = [maps[id(fem)] for fem, _ in levels]
    eigen_levels = [(lam_d, j, n) for (lam_d, j, _), (_, n) in zip(partners, levels)]
    rows = _rows(problem.kind, eigen_levels, problem.spec.eigenvalues, problem.T)
    q, a_e = problem.q(), _exact_terminal_first(problem) if problem.x0.any() else None
    return [_report(problem, n, q, a_e, pm, *r) for (_, n), pm, r in zip(levels, partners, rows)]


def error_report(setup: Setup) -> ErrorReport:
    """Strong, weak and representation values of one setup: the one-level
    case of error_reports."""
    return error_reports(replace(setup, fem=None, n_cells=None), [(setup.fem, setup.n_cells)])[0]


def _weak_error_cellwise(setup: Setup) -> float:
    """The weak error of a spectral scheme setup by a route apart from
    error_report: step factors from discrete_family tables (for Volterra the
    per-mode march cq_mode_solve) and I_ee from Gauss quadrature on global
    nodes, in blocks of about _ML_BLOCK factor values (each row reduced on its
    own, so the value does not depend on the block size), apart from both the
    closed forms and the G_rho table."""
    kind, lam, q, N = setup.kind, setup.spec.eigenvalues, setup.q(), setup.n_cells
    if kind.name == "volterra":
        march = [cq_mode_solve(lk, kind.rho, setup.dt, N) for lk in lam]
        steps = np.column_stack([np.ones(lam.size), np.array(march)])
    else:
        steps = discrete_family(kind, lam, setup.dt, N).steps
    et = _observable(kind, _pole(kind, lam[:, None]), steps[:, 1:])
    nodes, w = _global_nodes(kind, float(lam[-1]), setup.T)
    ee = np.empty(lam.size)
    for k in _mode_blocks(lam.size, nodes.size, _ML_BLOCK):
        b = _noise_factor(kind, lam[k, None], nodes[None, :])
        ee[k] = np.sum(b * (b * w), axis=1)
    a_d, a_e = _terminal_first(kind, lam, steps[:, -1], setup.x0), _exact_terminal_first(setup)
    return float(q @ (setup.dt * np.einsum("kn,kn->k", et, et) - ee) + (a_d @ a_d - a_e @ a_e))


# ----------------------------------------------------------------------------
# operator error profiles (deterministic bound-shape diagnostics)


def propagator_error_profile(setup: Setup, s_grid: np.ndarray) -> np.ndarray:
    """Operator error norm of Etilde(s) P_h - E(s) at each s, for the heat and
    Volterra families (a wave setup is refused).

    The Gram of the error operator on the sine modes is block-diagonal over
    the alias classes {k : j(k) = j} of _partner_map (class 0 the unresolved
    modes, c = 0).  With v = (f_j - e) c on a class, its block is
    v v^T - (e c)(e c)^T with the diagonal v^2 + e^2 (1 - c^2), so a 1x1 class
    with c = 1 (the spectral space) gives (f - e)^2 exactly; one batched
    eigvalsh per s.  The scheme factor at s is the n-step one, n = ceil(s / dt)
    with s / dt rounded to 12 decimals first, so an s = n dt off by rounding
    stays in the right-closed cell ((n-1) dt, n dt], and n >= 1, so an s that
    rounds to 0 stays in the first cell (0, dt].  The exact family (no FEM
    space, no time grid) is refused: its error operator is 0.
    """
    if setup.kind.name == "wave":
        raise ValueError("propagator error profiles cover the heat and Volterra families; got a wave setup")
    if setup.fem is None and setup.n_cells is None:
        raise ValueError("the exact family (no FEM space, no time grid) has no propagator error")
    s_grid = np.asarray(s_grid, float)
    if s_grid.ndim != 1:
        raise ValueError(f"s_grid must be a 1-D array of times, got shape {s_grid.shape}")
    if not np.all((s_grid > 0) & (s_grid <= setup.T)):  # NaN fails both
        raise ValueError("s_grid must lie in (0, T]")
    kind, lam = setup.kind, setup.spec.eigenvalues
    lam_d, j, c = _partner_map(setup.spec, setup.fem)
    if setup.n_cells is not None:
        steps = discrete_family(kind, lam_d, setup.dt, setup.n_cells).steps
        n = np.maximum(np.ceil(np.round(s_grid / setup.dt, 12)).astype(int), 1)  # s in the right-closed cell n
    out = np.empty(s_grid.size)
    counts, order = np.bincount(j, minlength=lam_d.size + 1), np.argsort(j, kind="stable")
    classes = np.full((counts.size, max(counts.max(), 1)), j.size)  # mode indices per class, padded with K
    classes[j[order], np.arange(j.size) - np.repeat(np.cumsum(counts) - counts, counts)] = order
    diag = np.arange(classes.shape[1])
    for i, s in enumerate(s_grid):
        f = steps[:, n[i]] if setup.n_cells is not None else _noise_factor(kind, lam_d, float(s))
        e = _noise_factor(kind, lam, float(s))
        v, ec = (np.append(x, 0.0)[classes] for x in ((f[j - 1] - e) * c, e * c))
        gram = v[:, :, None] * v[:, None, :] - ec[:, :, None] * ec[:, None, :]
        gram[:, diag, diag] = v * v + np.append(e * e * (1.0 - c * c), 0.0)[classes]
        out[i] = float(np.sqrt(max(np.linalg.eigvalsh(gram)[:, -1].max(), 0.0)))
    return out


# ----------------------------------------------------------------------------
# coupled Monte Carlo


def quadratic_functional(x: np.ndarray) -> np.ndarray:
    """|x|^2 of each row of a (..., K) block of states."""
    x = np.asarray(x, float)
    return np.einsum("...k,...k->...", x, x)


@dataclass(frozen=True)
class CylindricalFunctional:
    """g(x) = f(<phi_{k_1}, x>, ..., <phi_{k_n}, x>) for smooth bounded-second-
    derivative f; here f = cos of a single resolved coordinate.  Like
    quadratic_functional it maps a (..., K) block of states to one value per row."""

    mode: int = 1

    def __post_init__(self):
        if not _is_count(self.mode):  # mode 0 or -1 would read a coordinate from the end
            raise ValueError(f"CylindricalFunctional mode must be a whole number >= 1, got {self.mode!r}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.cos(np.asarray(x, float)[..., self.mode - 1])


def _mc_block_paths(setup: Setup) -> int:
    """Paths per Monte Carlo block: about _MC_JUMPS_PER_BLOCK expected jumps."""
    per_path = setup.law.intensity * setup.T * setup.spec.mode_count  # may overflow to inf
    return _MC_JUMPS_PER_BLOCK // max(1, math.ceil(per_path)) if per_path <= _MC_JUMPS_PER_BLOCK else 1


def mc_weak_error(setup: Setup, n_cells, g=None, n_paths: int = 1000, seed: int = 0) -> list[tuple[float, float]]:
    """Coupled Monte Carlo estimates of E g(Xtilde_obs(T)) - E g(X_obs(T)).

    The jump path of each mode drives both the exact reference (jump-time sum
    against the exact factor) and the scheme (the step factor of the cell
    each jump lands in), so the difference carries no coupling bias; the
    compound-Poisson law's finite jump-time decomposition is what makes the
    exact reference computable.

    setup is the problem: a spectral-Galerkin setup without a time grid (fem
    and n_cells None).  n_cells holds the step count N of each level ([N] for
    one), whose scheme steps by T/N across the edges np.linspace(0, T, N + 1).
    One (estimate, stderr) is returned per level, in order, and a level's
    estimate depends only on (setup, N, n_paths, seed).  Every level sees the
    same paths.  Paths are drawn in blocks of _mc_block_paths: block b holds
    paths b*P .. b*P + P - 1 (the last block may be short) and draws them from
    the stream (seed, b) as one set of flat jump arrays over its P*K
    coordinates, coordinate p*K + k being mode k of the block's path p.  Each
    block is drawn once for all levels and its exact side computed once; only
    the scheme side is per level.  Each jump's cell is found once, on the
    finest level, without sorting (_cells); a level whose edges nest in the
    finest level's (_nest_stride, as on any dyadic ladder) reads its cell as
    that cell // r, any other level bins the times against its own edges the
    same way.  levels x n_paths differences are held at once.  g maps a (P, K)
    array of observables to one value per row, as quadratic_functional (the
    default) and CylindricalFunctional do.
    """
    if not isinstance(setup, Setup):
        raise ValueError(f"setup must be one Setup, the problem, got a {type(setup).__name__}")
    if not _is_count(n_paths):
        raise ValueError(f"n_paths must be a whole number >= 1, got {n_paths!r}")
    if setup.fem is not None:
        raise ValueError("Monte Carlo runs on spectral-Galerkin setups")
    if setup.n_cells is not None:
        raise ValueError(f"the Monte Carlo problem carries no time grid (its steps go in n_cells), got {setup.n_cells=}")
    cells = tuple(n_cells) if isinstance(n_cells, (Sequence, np.ndarray)) else ()
    if not cells or not all(map(_is_count, cells)):
        raise ValueError(f"n_cells must be a nonempty sequence of whole numbers >= 1, got {n_cells!r}")
    if g is None:
        g = quadratic_functional
    kind, lam, K, T = setup.kind, setup.spec.eigenvalues, setup.spec.mode_count, setup.T
    if isinstance(g, CylindricalFunctional) and g.mode > K:
        raise ValueError(f"CylindricalFunctional mode {g.mode} exceeds the K = {K} modes of the setup")
    sq = np.sqrt(setup.q())
    x0_exact = _exact_terminal_first(setup)
    fine = np.linspace(0.0, T, max(cells) + 1)
    levels = []  # (edges, stride into fine or None, flat step weights, scheme data term) per step count
    for N in cells:
        fam = discrete_family(kind, lam, T / N, N)
        # weight for a jump landing in cell n (1-based) is the (N - n + 1)-step factor;
        # (K, N), columns step N .. 1, flattened row by row
        weights = _observable(kind, _pole(kind, lam[:, None]), fam.steps[:, :0:-1]).ravel()
        x0_disc = _terminal_first(kind, lam, fam.steps[:, -1], setup.x0)
        edges = np.linspace(0.0, T, N + 1)
        levels.append((edges, _nest_stride(fine, edges), weights, x0_disc))
    block = _mc_block_paths(setup)
    diffs = np.empty((len(cells), n_paths))
    for b, lo in enumerate(range(0, n_paths, block)):
        P = min(block, n_paths - lo)
        coord, t, s = _compound_poisson_draws(setup.law, T, P * K, stream(seed, b))
        mode = coord % K
        x_exact = np.bincount(coord, weights=_noise_factor(kind, lam[mode], T - t) * s, minlength=P * K)
        g_exact = g(sq * x_exact.reshape(P, K) + x0_exact)
        # flat index mode * N + cell into the finest level's weights; a nested level's
        # is that index // r (its N is the finest N / r), cheaper than binning it anew
        fine_index = mode * (fine.size - 1) + _cells(t, fine)
        for row, (edges, stride, weights, x0_disc) in zip(diffs, levels):
            index = fine_index // stride if stride else mode * (edges.size - 1) + _cells(t, edges)
            x_disc = np.bincount(coord, weights=weights[index] * s, minlength=P * K)
            row[lo : lo + P] = g(sq * x_disc.reshape(P, K) + x0_disc) - g_exact
    return [
        (float(np.mean(row)), float(np.std(row, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else float("nan"))
        for row in diffs
    ]
