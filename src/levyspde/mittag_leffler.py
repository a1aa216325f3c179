"""Evaluation of E_{rho,beta}(-x) for beta in {1, 2}, rho == 1 or 1.01 <= rho <= 2,
and x >= 0.

E_rho = E_{rho,1} is the scalar resolvent of the fractional-kernel mode ODE:
the Laplace transform z^(rho-1)/(z^rho + lam) inverts to E_rho(-lam t^rho).
E_{rho,2} is its running integral, int_0^t E_rho(-lam s^rho) ds =
t E_{rho,2}(-lam t^rho) (integrate the power series term by term).

Strategy (vectorized over x):
  * rho == 1 and rho == 2 reduce to exp(-x) and cos(sqrt(x)) (beta = 1), or
    -expm1(-x)/x and sin(sqrt(x))/sqrt(x) (beta = 2).
  * x <= SERIES_CUTOFF: the power series sum_j (-x)^j / Gamma(rho j + beta) in
    Horner form.  The largest term is exp(x^(1/rho)), so keeping x small bounds
    the cancellation; the envelope never exceeds the classical doubles-viable
    switch point 20.
  * SERIES_CUTOFF < x <= 60**rho: residue pair (2/rho) Re[zeta^(1-beta) e^zeta]
    of the Hankel representation, zeta = x^(1/rho) e^(i pi/rho), plus the
    branch-cut integral x sin(pi(rho+1-beta))/pi I(x),
    I(x) = int_0^inf e^(-r) r^(rho-beta) / |r^rho e^(i pi rho) + x|^2 dr > 0.
    log I is analytic in u = log x on [log 5, rho log 60], so it is read from
    a table per (rho, beta), built on first use and cached: _BRIDGE_PANELS
    equal panels in u, each a Chebyshev interpolant of degree _BRIDGE_DEGREE
    evaluated by Clenshaw's recurrence, through 136 values of I from the cut
    lattice (_lattice_cut) on which levyspde.errors builds its time-exact
    Volterra factors.
  * x > 60**rho: residue pair plus the asymptotic series
    sum_{j>=1} (-1)^(j+1) x^(-j) / Gamma(beta - rho j), in Horner form.  The
    pair decays like exp(x^(1/rho) cos(pi/rho)), the series like a power of
    1/x: past a cutoff per (rho, beta), computed with the coefficients, the
    pair is below 1e-17 of the series, under half an ulp, so it is skipped
    there and the output is the same bit for bit.  At rho = 1.5 the cutoff is
    about 1100 (beta = 1); up to rho = 1.1 it is 60**rho itself, and it grows
    without bound as rho -> 2, where the pair is all of cos(sqrt(x)).

Both series use a fixed number of terms per (rho, beta): those above 1e-17 of
the leading term at the branch's switch point (x = 5 for the power series;
x = 60**rho for the asymptotic series, whose terms are taken only up to its
smallest one there).  Inside each branch the dropped terms are smaller still
(20 power-series terms and 15 asymptotic terms at rho = 1.5, beta = 1).  The
coefficients are computed on the first call with a given (rho, beta) and
cached; nothing is computed at import.

Verified range: rho == 1 or 1.01 <= rho <= 2, where the evaluator agrees
with a high-precision series to 1e-11 absolute for both beta.  Below 1.01
the series, the CQ and G_rho paths of levyspde.errors and the test oracles
are unverified, so rho in (1, 1.01) is refused with a ValueError, as are x
that are negative, infinite or NaN, and beta other than 1 or 2.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

SERIES_CUTOFF = 5.0
RHO_VERIFIED_MIN = 1.01
_TERM_FLOOR = 1e-17  # share of the leading term below which a series term is dropped
_MAX_TERMS = 120
_BRIDGE_PANELS = 8  # equal panels in log x of the bridge table
_BRIDGE_DEGREE = 16  # Chebyshev degree per panel
_DEAD_SPAN = 40.0  # exponential envelopes are below e^-40 past this many scales
_CUT_STEP = 0.28  # cut lattice step in u = log r: error e^(-pi^2/h) ~ 5e-16, strip |Im u| < pi/2
_lgamma = np.vectorize(math.lgamma, otypes=[float])  # over at most _MAX_TERMS coefficients


def _horner(coeff: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j coeff[j] y^j."""
    out = np.full_like(y, coeff[-1])
    for c in coeff[-2::-1]:
        out *= y
        out += c
    return out


@lru_cache(maxsize=32)
def _series_coeff(rho: float, beta: int) -> np.ndarray:
    """1 / Gamma(rho j + beta), j = 0, 1, ..., for the power series in -x."""
    j = np.arange(_MAX_TERMS, dtype=float)
    log_c = -_lgamma(rho * j + beta)
    keep = j * np.log(SERIES_CUTOFF) + log_c > np.log(_TERM_FLOOR)  # the leading term is 1/Gamma(beta) = 1
    return np.exp(log_c[: int(np.nonzero(keep)[0].max()) + 1])


@lru_cache(maxsize=32)
def _asymptotic_coeff(rho: float, beta: int) -> tuple[np.ndarray, float]:
    """(-1)^(j+1) / Gamma(beta - rho j), j = 0, 1, ... (the j = 0 entry is 0), for
    the series in 1/x, and the x past which the residue pair is below
    _TERM_FLOOR of that series (_pair_cutoff)."""
    j = np.arange(1, _MAX_TERMS + 1, dtype=float)
    # 1/Gamma(beta - rho j) = Gamma(a) sin(pi a) / pi with a = rho j + 1 - beta,
    # via reflection.  Snap sin values at the Gamma poles to exact zero so that
    # rational rho (e.g. 3/2, where every even term vanishes) carries exact zeros.
    a = rho * j - (beta - 1)
    sines = np.sin(np.pi * a)
    sines[np.abs(sines) < 1e-8] = 0.0
    # Log-magnitudes of the terms at the switch point; keep the decreasing run
    # up to the smallest nonzero term, then only the terms above the floor.
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(sines) / np.pi) + _lgamma(a) - j * rho * np.log(60.0)
    run = log_mag[: int(np.argmin(np.where(np.isfinite(log_mag), log_mag, np.inf))) + 1]
    n = int(np.nonzero(run > run.max() + np.log(_TERM_FLOOR))[0].max()) + 1
    coeff = np.concatenate([[0.0], (-1.0) ** (j[:n] + 1.0) * sines[:n] / np.pi * np.exp(_lgamma(a[:n]))])
    return coeff, _pair_cutoff(rho, beta, coeff)


def _pair_cutoff(rho: float, beta: int, coeff: np.ndarray) -> float:
    """The least x on a grid of ratio 2^(1/4) from 60**rho past which the
    residue pair is below _TERM_FLOOR of the asymptotic series (inf if none).

    The pair is at most (2/rho) e^(-d y) y^(1-beta), y = x^(1/rho),
    d = -cos(pi/rho) > 0.  With c_m the first nonzero coefficient, the series
    is at least |c_m| x^-m / 2 where the later terms add up to at most |c_m| / 2
    of the first; that tail falls with x, and so does the ratio of the two
    bounds once d y > m rho + 1 - beta.  So the three conditions, once met,
    hold for every larger x: there the pair is under half an ulp of the sum,
    and adding it changes no bit.
    """
    nonzero = np.flatnonzero(coeff)
    if nonzero.size == 0:
        return math.inf
    m = int(nonzero[0])
    lead = abs(coeff[m])
    x = 60.0**rho * 2.0 ** (np.arange(4000) / 4.0)
    x = x[x < 1e300]
    y = x ** (1.0 / rho)
    d = -_unit_pole(rho).real
    tail = _horner(np.append(0.0, np.abs(coeff[m + 1 :])), 1.0 / x)  # sum_{j>m} |c_j| x^(m-j)
    log_pair = math.log(2.0 / rho) - d * y + (1 - beta) * np.log(y)
    ok = (tail <= 0.5 * lead) & (log_pair <= math.log(0.5 * _TERM_FLOOR * lead) - m * np.log(x))
    ok &= d * y > m * rho + 1 - beta
    first = int(np.flatnonzero(~ok).max(initial=-1)) + 1
    return float(x[first]) if first < x.size else math.inf


def _ml_series(rho: float, x: np.ndarray, beta: int = 1) -> np.ndarray:
    """Power series sum_j (-x)^j / Gamma(rho j + beta), Horner form."""
    return _horner(_series_coeff(rho, beta), -x)


def _unit_pole(rho: float) -> complex:
    """e^(i pi/rho), the pole of the unit mode, each part the sine of an angle
    at most pi/2: cos(pi/rho) = -sin(pi(2-rho)/(2 rho)) and sin(pi/rho) =
    sin(pi(rho-1)/rho), so neither loses digits near rho = 2, where pi/rho
    is near pi/2."""
    return complex(-math.sin(math.pi * (2.0 - rho) / (2.0 * rho)), math.sin(math.pi * (rho - 1.0) / rho))


def _cut_sine(rho: float) -> float:
    """sin(pi(rho-1)) = sin(pi min(rho-1, 2-rho)), the sine of an angle at
    most pi/2, so it keeps its digits near rho = 2, where pi(rho-1) is near pi."""
    return math.sin(math.pi * min(rho - 1.0, 2.0 - rho))


def _residue_pair(rho: float, x: np.ndarray, beta: int = 1) -> np.ndarray:
    """(2/rho) Re[zeta^(1-beta) e^zeta], zeta = x^(1/rho) e^{i pi/rho}: the two
    conjugate Hankel poles."""
    root, pole = x ** (1.0 / rho), _unit_pole(rho)
    amp = (2.0 / rho) * np.exp(root * pole.real) / root ** (beta - 1)
    return amp * np.cos(root * pole.imag - (beta - 1) * np.pi / rho)


def _cut_span(rho: float, lo: float, hi: float) -> tuple[int, int]:
    """Ends (q_lo, q_hi) of the cut lattice u_q = q _CUT_STEP over
    (log x -+ _DEAD_SPAN)/rho of every x in [lo, hi]."""
    step = rho * _CUT_STEP
    return math.floor((math.log(lo) - _DEAD_SPAN) / step), math.ceil((math.log(hi) + _DEAD_SPAN) / step)


def _cut_weights(rho: float, u: np.ndarray, nu) -> np.ndarray:
    """Weights W_q at the nodes u = log r of the trapezoid sum
    sum_q W_q e^(-r_q t) of E_rho(-x t^rho)'s branch cut, nu = log(x)/rho."""
    sinh2 = np.sinh(rho * (u - nu) / 2.0) ** 2
    return -_cut_sine(rho) * _CUT_STEP / (4.0 * np.pi * (sinh2 + np.sin(np.pi * (rho - 1.0) / 2.0) ** 2))


def _cut_amplitude(rho: float, nu) -> tuple[np.ndarray, np.ndarray]:
    """(A, A - 2/rho), the residue pair Re(A e^(p t)) on the cut lattice.  The
    cut integrand's poles u = nu +- i pi(rho-1)/rho are the pair, so the
    trapezoid's pole correction (Trefethen and Weideman, SIAM Review 56, 2014)
    turns 2/rho into A, and one step serves every rho.  A - 2/rho = A alias
    keeps its digits near rho = 2."""
    alias = np.exp(-2.0 * np.pi * (np.pi * (rho - 1.0) / rho + 1j * nu) / _CUT_STEP)
    A = (2.0 / rho) / (1.0 - alias)
    return A, A * alias


def _lattice_cut(rho: float, x: np.ndarray, beta: int = 1) -> np.ndarray:
    """I(x) on the bridge from the cut lattice at t = 1: E_{rho,beta}(-x) less
    the residue pair is sum_q W_q e^(-r_q) + Re((A - 2/rho) e^p) (beta = 1) or
    its integral over 0 < t < 1 (beta = 2), p = e^(nu + i pi/rho), over
    x sin(pi(rho+1-beta))/pi, sin(pi(rho+1-beta)) = (-1)^beta sin(pi(rho-1)).
    A, h-periodic in nu, takes nu mod h, where its phase keeps its digits."""
    lo, hi = _cut_span(rho, SERIES_CUTOFF, 60.0**rho)
    u, nu = np.arange(lo, hi + 1) * _CUT_STEP, np.log(x) / rho
    r = np.exp(u)
    f = np.exp(-r) if beta == 1 else -np.expm1(-r) / r
    (A, corr), p = _cut_amplitude(rho, nu - np.rint(nu / _CUT_STEP) * _CUT_STEP), np.exp(nu) * _unit_pole(rho)
    cut = (_cut_weights(rho, u[f > 0.0], nu[:, None]) * f[f > 0.0]).sum(axis=1)
    cut += (corr * np.exp(p) if beta == 1 else (corr * np.exp(p) - A) / p).real
    return cut / (x * ((-1.0) ** beta * _cut_sine(rho)) / np.pi)


def _chebyshev_basis() -> tuple[np.ndarray, np.ndarray]:
    """(t, V): the _BRIDGE_DEGREE + 1 Chebyshev points of the first kind and
    V[i, j] = T_j(t_i), by the recurrence T_j = T_{j-1} 2t - T_{j-2}.  These are
    numpy.polynomial.chebyshev's chebpts1 and chebvander formulas, so the bits
    are theirs without importing numpy.polynomial."""
    n = _BRIDGE_DEGREE + 1
    t = np.sin(0.5 * np.pi / n * np.arange(-n + 1, n + 1, 2))
    cols = [np.ones_like(t), t]
    for _ in range(2, n):
        cols.append(cols[-1] * (2.0 * t) - cols[-2])
    return t, np.column_stack(cols)


@lru_cache(maxsize=32)
def _bridge_table(rho: float, beta: int) -> tuple[float, float, np.ndarray]:
    """(log 5, panel width, Chebyshev coefficients of log I as a (degree + 1,
    panels) array): on each of the equal panels of [log 5, rho log 60] in
    u = log x, the interpolant of log I through the cut lattice's values
    (_lattice_cut) at the panel's Chebyshev points."""
    lo = np.log(SERIES_CUTOFF)
    width = (rho * np.log(60.0) - lo) / _BRIDGE_PANELS
    t, vander = _chebyshev_basis()
    u = lo + (np.arange(_BRIDGE_PANELS) + (t[:, None] + 1.0) / 2.0) * width
    log_cut = np.log(_lattice_cut(rho, np.exp(u).ravel(), beta)).reshape(u.shape)
    return lo, width, np.linalg.solve(vander, log_cut)


def _bridge_cut(rho: float, x: np.ndarray, beta: int = 1) -> np.ndarray:
    """I(x) on 5 <= x <= 60**rho from the table: panel index, affine map to
    [-1, 1], Clenshaw's recurrence, exp."""
    lo, width, coeff = _bridge_table(rho, beta)
    s = (np.log(x) - lo) / width
    panel = np.clip(s.astype(int), 0, _BRIDGE_PANELS - 1)
    t2 = 4.0 * (s - panel) - 2.0  # 2t, t in [-1, 1] on the panel
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for c in coeff[:0:-1]:
        b1, b2 = c[panel] + t2 * b1 - b2, b1
    return np.exp(coeff[0][panel] + 0.5 * t2 * b1 - b2)


def _ml_bridge(rho: float, x: np.ndarray, beta: int = 1) -> np.ndarray:
    return _residue_pair(rho, x, beta) + (x * ((-1.0) ** beta * _cut_sine(rho)) / np.pi) * _bridge_cut(rho, x, beta)


def _ml_asymptotic(rho: float, x: np.ndarray, beta: int = 1) -> np.ndarray:
    """Residue pair plus sum_{j>=1} (-1)^(j+1) x^(-j) / Gamma(beta - rho j), Horner
    form; the pair only below _pair_cutoff, past which adding it changes no bit."""
    coeff, cutoff = _asymptotic_coeff(rho, beta)
    out = _horner(coeff, 1.0 / x)
    near = x < cutoff
    if near.any():
        out[near] += _residue_pair(rho, x[near], beta)
    return out


def mittag_leffler_neg(rho: float, x, beta: int = 1) -> np.ndarray | float:
    """E_{rho,beta}(-x) for beta in {1, 2}, rho == 1 or 1.01 <= rho <= 2, and
    finite x >= 0; scalar in, scalar out."""
    if not (rho == 1.0 or RHO_VERIFIED_MIN <= rho <= 2.0):
        raise ValueError(
            f"rho={rho} is outside the verified range of E_rho: rho == 1 or {RHO_VERIFIED_MIN} <= rho <= 2"
        )
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 or 2, got {beta!r}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xa)):
        raise ValueError("x must be finite")
    if np.any(xa < 0):
        raise ValueError("x must be nonnegative")
    if rho == 1.0:
        out = np.exp(-xa) if beta == 1 else np.divide(-np.expm1(-xa), xa, out=np.ones_like(xa), where=xa > 0)
    elif rho == 2.0:
        root = np.sqrt(xa)
        out = np.cos(root) if beta == 1 else np.divide(np.sin(root), root, out=np.ones_like(root), where=root > 0)
    else:
        out = np.empty_like(xa)
        asym_cutoff = 60.0**rho
        small = xa <= SERIES_CUTOFF
        large = xa > asym_cutoff
        mid = ~small & ~large
        if np.any(small):
            out[small] = _ml_series(rho, xa[small], beta)
        if np.any(mid):
            out[mid] = _ml_bridge(rho, xa[mid], beta)
        if np.any(large):
            out[large] = _ml_asymptotic(rho, xa[large], beta)
    return float(out[0]) if scalar else out
