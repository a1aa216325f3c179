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
    a table per (rho, beta): _BRIDGE_PANELS equal panels in u, each a
    Chebyshev interpolant of degree _BRIDGE_DEGREE, evaluated by Clenshaw's
    recurrence (O(1) work and memory per argument).  The table is built on
    the first bridge call with a given (rho, beta) and cached.  Its 8 * 17 =
    136 values of I come from a trapezoid rule after the substitution
    r = exp(u), which it matches to about 1e-14 relative.  The integrand is
    analytic in a strip of width pi*(rho-1)/rho, which dictates the
    trapezoid's step.  Below the lowest node u_lo = -34/rho the integrand is
    e^((rho+1-beta)u)/x^2 to double precision, so the rule is continued there
    as a geometric series (ratio e^(-(rho+1-beta)h)) folded into the weight of
    the lowest node.  For beta = 2 near rho = 1 that tail is most of the
    integral: r^(rho-2) is barely integrable at r = 0.
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

Verified range: the trapezoid that builds the bridge table has a step
floor of 0.005, which the strip allows from rho = 1.01 up; there the
evaluator agrees with a high-precision series to 1e-11 absolute for both
beta (6e-15 in the bridge just above x = 5 at rho = 1.01, beta = 1).  Below
1.01 the floor exceeds what the strip allows (with the former floor 0.01 the
bridge was off by 2.3e-4 at rho = 1.001), so rho in (1, 1.01) is refused
with a ValueError rather than silently degraded; so are x that are negative,
infinite or NaN, and beta other than 1 or 2.
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
    d = -math.cos(math.pi / rho)
    tail = _horner(np.append(0.0, np.abs(coeff[m + 1 :])), 1.0 / x)  # sum_{j>m} |c_j| x^(m-j)
    log_pair = math.log(2.0 / rho) - d * y + (1 - beta) * np.log(y)
    ok = (tail <= 0.5 * lead) & (log_pair <= math.log(0.5 * _TERM_FLOOR * lead) - m * np.log(x))
    ok &= d * y > m * rho + 1 - beta
    first = int(np.flatnonzero(~ok).max(initial=-1)) + 1
    return float(x[first]) if first < x.size else math.inf


def _ml_series(rho: float, x: np.ndarray, beta: int = 1) -> np.ndarray:
    """Power series sum_j (-x)^j / Gamma(rho j + beta), Horner form."""
    return _horner(_series_coeff(rho, beta), -x)


def _residue_pair(rho: float, x: np.ndarray, beta: int = 1) -> np.ndarray:
    """(2/rho) Re[zeta^(1-beta) e^zeta], zeta = x^(1/rho) e^{i pi/rho}: the two
    conjugate Hankel poles."""
    root = x ** (1.0 / rho)
    amp = (2.0 / rho) * np.exp(root * np.cos(np.pi / rho)) / root ** (beta - 1)
    return amp * np.cos(root * np.sin(np.pi / rho) - (beta - 1) * np.pi / rho)


@lru_cache(maxsize=32)
def _branch_cut_grid(rho: float, beta: int) -> tuple[np.ndarray, np.ndarray]:
    """(r^rho, exp(-r) r^(rho+1-beta) du) on the trapezoid grid in u = log r.

    The step is 0.55 of the strip width pi*(rho-1)/rho (capped at 0.25).  Its
    floor 0.005 is what bounds the verified range from below: at rho = 1.01 the
    step is 0.0054, and below about 1.01 the floor would clamp it above what the
    strip allows, which is why mittag_leffler_neg refuses those rho.  The lowest
    node's weight also carries the nodes below it, u_lo - h, u_lo - 2h, ...,
    where the integrand falls off as the geometric series e^((rho+1-beta)u).
    """
    step = max(min(0.55 * (rho - 1.0) / rho, 0.25), 0.005)
    u_lo = -34.0 / rho
    u_hi = np.log(720.0)
    u = np.linspace(u_lo, u_hi, int(np.ceil((u_hi - u_lo) / step)) + 1)
    h = u[1] - u[0]
    power = rho - (beta - 1)  # rho + 1 - beta
    rr = np.exp(rho * u)
    base = np.exp(-np.exp(u)) * np.exp(power * u) * h
    base[0] /= -np.expm1(-power * h)
    return rr, base


def _branch_cut_integral(rho: float, x: np.ndarray, beta: int = 1) -> np.ndarray:
    """I(x) = int_0^inf exp(-r) r^(rho-beta) / (r^(2 rho) + 2 x r^rho cos(pi rho) + x^2) dr.

    Trapezoid after r = exp(u); one u-grid serves every x since the strip of
    analyticity (poles of the denominator at Im(rho*u) = +-pi(rho-1)) does not
    depend on x.
    """
    rr, base = _branch_cut_grid(rho, beta)
    xcol = x[:, None]
    denom = (rr[None, :] + xcol * np.cos(np.pi * rho)) ** 2 + (xcol * xcol) * np.sin(np.pi * rho) ** 2
    return (base[None, :] / denom).sum(axis=1)


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
    u = log x, the interpolant of log I through the trapezoid's values at the
    panel's Chebyshev points."""
    lo = np.log(SERIES_CUTOFF)
    width = (rho * np.log(60.0) - lo) / _BRIDGE_PANELS
    t, vander = _chebyshev_basis()
    u = lo + (np.arange(_BRIDGE_PANELS) + (t[:, None] + 1.0) / 2.0) * width
    # a panel at a time: at rho = 1.01 each value meets 7392 trapezoid nodes
    log_cut = np.log([_branch_cut_integral(rho, np.exp(panel), beta) for panel in u.T]).T
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
    return _residue_pair(rho, x, beta) + (x * np.sin(np.pi * (rho - (beta - 1))) / np.pi) * _bridge_cut(rho, x, beta)


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
