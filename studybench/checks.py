"""Checks of a study's CSV text by routes made apart from the program.

Each check reads the numbers back from the CSV text the program emitted and
compares them with values this module computes from the study spec alone:

* heat and wave temporal ladders: closed forms (geometric sums over
  r = 1/(1 + dt lam) for backward Euler, direct sums of sin(n theta) for the
  Crank-Nicolson carrier, closed-form exact sides);
* heat and wave spatial ladders: the closed-form P1 eigenpairs and the
  alias-fold coupling of hat functions to sines, with exact time integrals
  (no eigensolver, no quadrature);
* Volterra temporal ladders: the discrete side from this module's own
  convolution-quadrature recurrence; the exact side the CSV implies,
  I_dd - weak, must be the same at every level;
* Volterra spatial ladders: the closed-form coupling with this module's own
  per-mode quadrature of products of `levyspde.mittag_leffler_neg`, whose
  values are spot-checked in all three branches against an mpmath series;
* Monte Carlo columns: within MC_Z standard errors of the closed-form weak
  error.

`check_study(spec, text)` returns a list of problems; empty means it passed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

CSV_HEADER = "level,resolution,strong,weak_quad,representation,mc_estimate,mc_stderr,in_fit"
FIT_FLOOR = 1e-13  # the program's documented error floor for in_fit
REP_RTOL = 1e-8  # the program's documented representation gate

# Tolerances, as shares of the exact side I_ee, over the agreement seen on the
# workloads (README, "Output checks"): 1.6e-12, 5.2e-9 and a 3.1e-6 drift.
CLOSED_FORM_RTOL = 1e-10
VOLTERRA_SPATIAL_RTOL = 1e-7
VOLTERRA_EXACT_SIDE_RTOL = 2e-5  # level-to-level drift of the implied exact side
ML_ORACLE_ATOL = 1e-10
MC_Z = 5.0


# ----------------------------------------------------------------------------
# CSV


def parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[:1]}")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 8:
            raise ValueError(f"row with {len(f)} fields: {ln!r}")
        num = [float(v) if v else None for v in f[1:7]]
        rows.append(
            {
                "level": int(f[0]),
                "resolution": num[0],
                "strong": num[1],
                "weak": num[2],
                "representation": num[3],
                "mc_estimate": num[4],
                "mc_stderr": num[5],
                "in_fit": int(f[7]),
            }
        )
    return rows


# ----------------------------------------------------------------------------
# spec data


def _lam(K: int) -> np.ndarray:
    return (np.arange(1, K + 1) * np.pi) ** 2


def _q(spec: dict, lam: np.ndarray) -> np.ndarray:
    return spec["amplitude"] * lam ** (-spec["decay"])


def _fold(K: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Index j (1-based, 0 = none) of the P1 discrete mode each sine mode k
    couples to, and the squared coupling C[j, k]^2, for the uniform mesh 1/M.

    Nodal sines are the discrete eigenvectors, and sum_i sin(j pi x_i)
    sin(k pi x_i) is +-M/2 when k = +-j (mod 2M) and zero otherwise, so each k
    meets one j: k mod 2M folded into 1..M-1; k = 0 or M (mod 2M) meets none.
    """
    k = np.arange(1, K + 1)
    r = k % (2 * M)
    j = np.where(r < M, r, 2 * M - r)
    j = np.where((r == 0) | (r == M), 0, j)
    c = np.cos(k * np.pi / M)  # equals cos(j pi h) on the fold
    c2 = (6.0 / (2.0 + c)) * 2.0 * (1.0 - c) ** 2 * M**4 / (k * np.pi) ** 4
    return j, np.where(j > 0, c2, 0.0)


def p1_eigenvalues(M: int) -> np.ndarray:
    """Generalized eigenvalues of the uniform P1 pencil, ascending."""
    c = np.cos(np.arange(1, M) * np.pi / M)
    return 6.0 * M * M * (1.0 - c) / (2.0 + c)


# ----------------------------------------------------------------------------
# closed forms: (I_dd, I_de, I_ee) for one level


def heat_temporal(spec: dict, dt: float) -> tuple[float, float, float]:
    lam = _lam(spec["modes"])
    q = _q(spec, lam)
    T = spec["T"]
    N = int(round(T / dt))
    a = dt * lam
    r = 1.0 / (1.0 + a)
    log_r = -np.log1p(a)
    # sum_{n=1}^N r^(2n) = r^2 (1 - r^(2N)) / (1 - r^2),  1 - r = a r
    dd = dt * r * r * -np.expm1(2 * N * log_r) / (a * r * (1.0 + r))
    # sum_n r^n int_{cell n} e^(-lam s) ds = (1 - e^(-a))/lam * r * sum_{m<N} (r e^(-a))^m
    log_g = log_r - a
    de = (-np.expm1(-a) / lam) * r * np.expm1(N * log_g) / np.expm1(log_g)
    ee = -np.expm1(-2.0 * lam * T) / (2.0 * lam)
    return float(q @ dd), float(q @ de), float(q @ ee)


def wave_temporal(spec: dict, dt: float) -> tuple[float, float, float]:
    if spec["scheme"] != "crank_nicolson":
        raise ValueError("closed forms cover the Crank-Nicolson carrier only")
    lam = _lam(spec["modes"])
    q = _q(spec, lam)
    T = spec["T"]
    N = int(round(T / dt))
    rt = np.sqrt(lam)
    theta = 2.0 * np.arctan(dt * rt / 2.0)
    n = np.arange(1, N + 1)
    sn = np.sin(np.outer(theta, n))  # (K, N): discrete factor times sqrt(lam)
    dd = dt * (sn * sn).sum(axis=1) / lam
    t = np.arange(N + 1) * dt
    cos_edges = np.cos(np.outer(rt, t))
    cell = (cos_edges[:, :-1] - cos_edges[:, 1:]) / rt[:, None]  # int_cell sin(rt s) ds
    de = (sn * cell).sum(axis=1) / lam
    ee = T / (2.0 * lam) - np.sin(2.0 * rt * T) / (4.0 * lam**1.5)
    return float(q @ dd), float(q @ de), float(q @ ee)


def _sin_product_integral(a: np.ndarray, b: np.ndarray, T: float) -> np.ndarray:
    """int_0^T sin(a s) sin(b s) ds, stable as a -> b."""
    d = a - b
    return 0.5 * (T * np.sinc(d * T / np.pi) - np.sin((a + b) * T) / (a + b))


def spatial_time_exact(spec: dict, h: float) -> tuple[float, float, float]:
    """Heat or wave, P1 space 1/M, exact in time."""
    K = spec["modes"]
    M = int(round(1.0 / h))
    T = spec["T"]
    lam = _lam(K)
    q = _q(spec, lam)
    j, c2 = _fold(K, M)
    lam_h = p1_eigenvalues(M)
    lam_j = np.where(j > 0, lam_h[np.maximum(j, 1) - 1], 1.0)
    m = c2 * q  # C[j,k]^2 q_k on the fold
    q_d = np.bincount(j, weights=m, minlength=M)[1:]
    if spec["equation"] == "heat":
        dd = -np.expm1(-2.0 * lam_h * T) / (2.0 * lam_h)
        ee = -np.expm1(-2.0 * lam * T) / (2.0 * lam)
        de = -np.expm1(-(lam_j + lam) * T) / (lam_j + lam)
    else:
        a, b = np.sqrt(lam_h), np.sqrt(lam)
        dd = _sin_product_integral(a, a, T) / lam_h
        ee = _sin_product_integral(b, b, T) / lam
        aj = np.sqrt(lam_j)
        de = _sin_product_integral(aj, b, T) / (aj * b)
    return float(q_d @ dd), float(m @ de), float(q @ ee)


# ----------------------------------------------------------------------------
# Volterra


def cq_factors(lam: np.ndarray, rho: float, dt: float, N: int) -> np.ndarray:
    """e_0..e_N of the backward-Euler convolution-quadrature march, (K, N+1).

    Weights w_m = dt^(rho-1) Gamma(m + rho - 1) / (Gamma(rho - 1) m!), the
    coefficients of ((1 - z)/dt)^(1 - rho), from the Gamma function; then
    e_n (1 + a w_0) = e_(n-1) - a sum_{m=1}^{n-1} w_m e_(n-m), a = dt lam.
    """
    m = np.arange(N + 1, dtype=float)
    w = dt ** (rho - 1.0) * np.exp(gammaln(m + rho - 1.0) - gammaln(rho - 1.0) - gammaln(m + 1.0))
    a = dt * np.asarray(lam, float)
    e = np.empty((a.size, N + 1))
    e[:, 0] = 1.0
    d0 = 1.0 + a * w[0]
    for n in range(1, N + 1):
        hist = e[:, n - 1 : 0 : -1] @ w[1:n] if n > 1 else 0.0
        e[:, n] = (e[:, n - 1] - a * hist) / d0
    return e


def volterra_discrete_side(spec: dict, dt: float) -> float:
    lam = _lam(spec["modes"])
    q = _q(spec, lam)
    N = int(round(spec["T"] / dt))
    e = cq_factors(lam, spec["rho"], dt, N)[:, 1:]
    return float(q @ (e * e).sum(axis=1)) * dt


def ml_series_oracle(rho: float, x: float) -> float:
    """E_rho(-x) from its defining power series at adaptive precision."""
    import mpmath as mp

    if x == 0.0:
        return 1.0
    dps = int(x ** (1.0 / rho) * 0.4343) + 40
    with mp.workdps(dps):
        xm, rm = mp.mpf(x), mp.mpf(rho)
        s, j = mp.mpf(0), 0
        tol = mp.mpf(10) ** (-dps + 10)
        while True:
            t = (-xm) ** j / mp.gamma(rm * j + 1)
            s += t
            j += 1
            if j > 10 and abs(t) < tol:
                return float(s)


def ml_spot_points(rho: float) -> list[float]:
    """Two arguments in each branch of the program's evaluator (series up to
    5, bridge up to 60^rho, asymptotic beyond)."""
    hi = 60.0**rho
    return [0.7, 4.9, 5.3, 0.5 * hi, 1.02 * hi, 3.0 * hi]


_GX, _GW = np.polynomial.legendre.leggauss(12)
_GU = 0.5 * (_GX + 1.0)  # the Gauss nodes on [0, 1]


def ml_product_integrals(rho: float, la: np.ndarray, lb: np.ndarray, T: float, ml) -> np.ndarray:
    """int_0^T E_rho(-la s^rho) E_rho(-lb s^rho) ds for each pair (la, lb).

    12-point Gauss on panels graded geometrically (ratio 1.5) from a quarter
    of the faster envelope scale, and no wider than 1.5 radians of either
    factor's oscillation while its residue part is alive (40 scales).  The
    first panel [0, p] is mapped by s = p u^2, which makes the s^rho terms of
    the series smooth, so no panel sees the branch point at s = 0.
    """
    damp, osc = abs(np.cos(np.pi / rho)), np.sin(np.pi / rho)
    nodes, weights, owner = [], [], []
    for i, (a, b) in enumerate(zip(la, lb)):
        pts = [np.array([0.0, T])]
        s0 = 0.25 / (damp * max(a, b) ** (1.0 / rho))
        if s0 < T:
            pts.append(s0 * 1.5 ** np.arange(int(np.ceil(np.log(T / s0) / np.log(1.5)))))
        for lm in {a, b}:
            span = min(T, 40.0 / (damp * lm ** (1.0 / rho)))
            pts.append(np.linspace(0.0, span, int(np.ceil(span * osc * lm ** (1.0 / rho) / 1.5)) + 1))
        bks = np.unique(np.concatenate(pts))
        bks = bks[bks <= T]
        p = bks[1]
        first_s, first_w = p * _GU * _GU, _GW * p * _GU  # ds = 2 p u du, weights on [0, 1] are _GW / 2
        mid, half = 0.5 * (bks[2:] + bks[1:-1]), 0.5 * np.diff(bks[1:])
        rest_s = (mid[:, None] + half[:, None] * _GX[None, :]).ravel()
        rest_w = (half[:, None] * _GW[None, :]).ravel()
        nodes += [first_s, rest_s]
        weights += [first_w, rest_w]
        owner.append(np.full(first_s.size + rest_s.size, i))
    s = np.concatenate(nodes)
    idx = np.concatenate(owner)
    la, lb = np.asarray(la, float), np.asarray(lb, float)
    vals = ml(rho, la[idx] * s**rho) * ml(rho, lb[idx] * s**rho)
    return np.bincount(idx, weights=np.concatenate(weights) * vals, minlength=la.size)


def volterra_spatial(spec: dict, h: float, ml, exact_side: float | None = None):
    """(I_dd, I_de, I_ee) for a Volterra P1 space 1/M, exact in time."""
    rho, T, K = spec["rho"], spec["T"], spec["modes"]
    M = int(round(1.0 / h))
    lam = _lam(K)
    q = _q(spec, lam)
    j, c2 = _fold(K, M)
    lam_h = p1_eigenvalues(M)
    q_d = np.bincount(j, weights=c2 * q, minlength=M)[1:]
    dd = float(q_d @ ml_product_integrals(rho, lam_h, lam_h, T, ml))
    ee = exact_side
    if ee is None:
        ee = float(q @ ml_product_integrals(rho, lam, lam, T, ml))
    live = np.nonzero(j > 0)[0]
    de = float((c2 * q)[live] @ ml_product_integrals(rho, lam_h[j[live] - 1], lam[live], T, ml))
    return dd, de, ee


# ----------------------------------------------------------------------------
# the checks


def _rel(got: float, want: float, scale: float) -> float:
    return abs(got - want) / scale


def _common(spec: dict, rows: list[dict]) -> list[str]:
    """Properties every study CSV must have, whatever the family."""
    out = []
    if [r["level"] for r in rows] != list(range(len(spec["ladder"]))):
        out.append("levels do not match the ladder")
        return out
    for r, res in zip(rows, spec["ladder"]):
        if r["resolution"] != res:
            out.append(f"level {r['level']}: resolution {r['resolution']!r} != {res!r}")
        if None in (r["strong"], r["weak"], r["representation"]):
            out.append(f"level {r['level']}: empty deterministic column")
            continue
        if abs(r["representation"] - r["weak"]) > REP_RTOL * max(abs(r["weak"]), 1e-14):
            out.append(f"level {r['level']}: representation {r['representation']!r} != weak {r['weak']!r}")
        in_fit = int(abs(r["weak"]) > FIT_FLOOR and r["strong"] > FIT_FLOOR)
        if r["in_fit"] != in_fit:
            out.append(f"level {r['level']}: in_fit {r['in_fit']} != {in_fit}")
        mc = (r["mc_estimate"], r["mc_stderr"])
        if spec["mc_paths"] and None in mc:
            out.append(f"level {r['level']}: Monte Carlo columns missing")
        if not spec["mc_paths"] and mc != (None, None):
            out.append(f"level {r['level']}: Monte Carlo columns present without sampling")
    return out


def _against(rows, sides, rtol, name) -> list[str]:
    """Compare weak and strong^2 with (I_dd, I_de, I_ee) per level.  Both are
    differences of terms of size I_ee, so the error is measured against I_ee."""
    out = []
    for r, (dd, de, ee) in zip(rows, sides):
        weak, strong2 = dd - ee, dd - 2.0 * de + ee
        err_w = abs(r["weak"] - weak) / ee
        err_s = abs(r["strong"] ** 2 - strong2) / ee
        if err_w > rtol:
            out.append(f"level {r['level']}: weak {r['weak']!r} vs {name} {weak!r} ({err_w:.2e} of I_ee)")
        if err_s > rtol:
            out.append(
                f"level {r['level']}: strong {r['strong']!r} vs {name} {np.sqrt(max(strong2, 0.0))!r} "
                f"({err_s:.2e} of I_ee in strong^2)"
            )
    return out


def _mc(rows, sides) -> list[str]:
    out = []
    for r, (dd, _, ee) in zip(rows, sides):
        z = (r["mc_estimate"] - (dd - ee)) / r["mc_stderr"]
        if not abs(z) <= MC_Z:
            out.append(f"level {r['level']}: Monte Carlo estimate {z:+.2f} stderr from the closed form")
    return out


def ml_spot_check(rho: float, ml) -> list[str]:
    out = []
    for x in ml_spot_points(rho):
        got, want = float(ml(rho, x)), ml_series_oracle(rho, x)
        if abs(got - want) > ML_ORACLE_ATOL:
            out.append(f"E_rho(-{x:g}) = {got!r}, series oracle {want!r}")
    return out


def reference_sides(spec: dict, ml=None) -> list[tuple[float, float, float]]:
    """(I_dd, I_de, I_ee) per level for heat, wave and Volterra spatial
    ladders.  ml is the E_rho evaluator (levyspde's by default)."""
    eq, axis, ladder = spec["equation"], spec["axis"], spec["ladder"]
    if eq == "heat" and axis == "temporal":
        return [heat_temporal(spec, dt) for dt in ladder]
    if eq == "wave" and axis == "temporal":
        return [wave_temporal(spec, dt) for dt in ladder]
    if axis == "spatial" and eq != "volterra":
        return [spatial_time_exact(spec, h) for h in ladder]
    if axis == "spatial":
        if ml is None:
            from levyspde import mittag_leffler_neg as ml
        sides, ee = [], None
        for h in ladder:
            sides.append(volterra_spatial(spec, h, ml, ee))
            ee = sides[-1][2]
        return sides
    raise ValueError("Volterra temporal ladders have no reference exact side")


def implied_exact_sides(spec: dict, rows: list[dict]) -> list[float]:
    """Volterra temporal: I_dd from this module's CQ march minus the CSV weak error."""
    return [volterra_discrete_side(spec, dt) - r["weak"] for r, dt in zip(rows, spec["ladder"])]


def check_study(spec: dict, text: str, ml=None) -> list[str]:
    """Problems found in one study's CSV text (empty list: it passed)."""
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [str(exc)]
    problems = _common(spec, rows)
    if problems:
        return problems
    if spec["equation"] == "volterra" and spec["axis"] == "temporal":
        implied = implied_exact_sides(spec, rows)
        ref = implied[-1]
        for r, v in zip(rows, implied):
            if _rel(v, ref, ref) > VOLTERRA_EXACT_SIDE_RTOL:
                problems.append(
                    f"level {r['level']}: implied exact side {v!r} vs {ref!r} at the finest level "
                    f"(rel {_rel(v, ref, ref):.2e})"
                )
        strong = [r["strong"] for r in rows]
        if not all(s > 0 for s in strong) or any(b >= a for a, b in zip(strong, strong[1:])):
            problems.append("strong error does not fall along the ladder")
        return problems
    if spec["equation"] == "volterra":
        if ml is None:
            from levyspde import mittag_leffler_neg as ml
        problems += ml_spot_check(spec["rho"], ml)
        problems += _against(rows, reference_sides(spec, ml), VOLTERRA_SPATIAL_RTOL, "per-mode quadrature")
        return problems
    sides = reference_sides(spec)
    problems += _against(rows, sides, CLOSED_FORM_RTOL, "closed form")
    if spec["mc_paths"]:
        problems += _mc(rows, sides)
    return problems
