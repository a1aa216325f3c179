"""Declarative convergence studies: ladders, rate fits, CSV emission, presets."""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CylindricalFunctional, ErrorReport, Setup, error_report, error_reports, mc_weak_error
from .noise import CovarianceSpec, LevyLaw, _check_beta, hs_condition, stream
from .propagators import EquationKind, heat_kind, volterra_kind, wave_kind
from .spectral import _is_count, _is_whole, assemble_fem, dirichlet_spectrum

# Covariance decay is derived from the regularity target with this margin:
# decay = beta - 1/rho + 1/2 + REG_MARGIN places the summability exponent at
# 2*(decay + 1/rho - beta) = 1 + 2*REG_MARGIN, just inside convergence.
REG_MARGIN = 0.05

SLOPE_TOL = 0.15
FIT_FLOOR = 1e-13

CSV_COLUMNS = (
    "level",
    "resolution",
    "strong",
    "weak_quad",
    "representation",
    "mc_estimate",
    "mc_stderr",
    "in_fit",
)


class InsufficientDataError(ValueError):
    pass


@dataclass(frozen=True)
class ExpectedRates:
    """Guaranteed (lower-bound) convergence exponents of one axis.

    weak_log marks a weak bound of the shape C h^a log(T/h) rather than C h^a.
    """

    weak: float
    strong: float
    beta_in_range: bool = True
    weak_log: bool = False


def _kernel_order(kind: EquationKind) -> float:
    """rho of the Volterra kernel; heat is its rho = 1 case, and the wave
    takes the same 1 in the regularity functional."""
    return kind.rho if kind.name == "volterra" else 1.0


def expected_rates(kind: EquationKind, beta: float, axis: str) -> ExpectedRates:
    """Theoretical exponents of one axis from the paper's weak = 2 x strong:
    the weak exponent is 2s, s the strong one.  Heat is Volterra at rho = 1,
    s = beta in space and rho beta / 2 in time.  Wave: s = beta p/(p+1), p
    the classical order of the method (P1 elements and Crank-Nicolson 2,
    backward and explicit Euler 1), both exponents capped at 2 in space and 1
    in time.
    beta outside the covered range flags a warning but the formulas are still
    evaluated.  The heat temporal weak bound carries one factor log(T/dt) from
    beta = 1, where the exponent reaches the order of backward Euler."""
    if kind.name == "wave":
        p = 1 if axis == "temporal" and kind.scheme != "crank_nicolson" else 2
        cap = 2.0 if axis == "spatial" else 1.0
        s = beta * p / (p + 1)
        return ExpectedRates(min(2 * s, cap), min(s, cap), beta_in_range=beta > 0)
    rho = _kernel_order(kind)
    s = beta if axis == "spatial" else rho * beta / 2
    weak_log = kind.name == "heat" and axis == "temporal" and beta >= 1
    return ExpectedRates(2 * s, s, beta_in_range=0 < beta <= 1 / rho, weak_log=weak_log)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    levels_used: int


def _above_floor(resolutions, errors) -> tuple[np.ndarray, np.ndarray]:
    """(resolutions, |errors|) of the levels with |error| above FIT_FLOOR.
    Refused with a ValueError: resolutions that are not distinct, finite and
    > 0, and errors that are not finite; fewer than three levels above the
    floor is an InsufficientDataError."""
    res = np.asarray(resolutions, float)
    err = np.abs(np.asarray(errors, float))
    if res.ndim != 1 or res.shape != err.shape:
        raise ValueError(f"resolutions and errors must be 1-D and of one length, got {res.shape} and {err.shape}")
    if not np.all((res > 0.0) & (res < np.inf)):  # NaN fails both
        raise ValueError(f"resolutions must be finite and > 0, got {res.tolist()}")
    if len(set(res.tolist())) < res.size:
        raise ValueError(f"resolutions must be distinct, got {res.tolist()}")
    if not np.all(np.isfinite(err)):
        raise ValueError(f"errors must be finite, got {np.asarray(errors, float).tolist()}")
    keep = err > FIT_FLOOR
    if keep.sum() < 3:
        raise InsufficientDataError(f"only {int(keep.sum())} levels above the error floor; need >= 3")
    return res[keep], err[keep]


def _line_fit(x, y) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of the least-squares line through the points
    (x, y), in closed form from the centred sums: slope = S_xy / S_xx with
    S_xx = sum (x - xbar)^2, S_xy = sum (x - xbar)(y - ybar), and intercept
    = ybar - slope xbar; r^2 = 1 - SS_res / SS_tot, 1 where y is constant.
    Plain floats: the fits are a handful of points.  Refused where S_xx is
    not > 0 (fewer than two distinct x)."""
    x, y = x.tolist(), y.tolist()
    xbar, ybar = sum(x) / len(x), sum(y) / len(y)
    dx, dy = [v - xbar for v in x], [v - ybar for v in y]
    sxx = sum(d * d for d in dx)
    if not sxx > 0.0:
        raise ValueError(f"a line fit needs at least two distinct x values, got {x}")
    slope = sum(a * b for a, b in zip(dx, dy)) / sxx
    intercept = ybar - slope * xbar
    ss_res = sum((b - (slope * a + intercept)) ** 2 for a, b in zip(x, y))
    ss_tot = sum(d * d for d in dy)
    return slope, intercept, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def fit_rate(resolutions: np.ndarray, errors: np.ndarray) -> RateFit:
    """Least-squares slope of log|error| against log resolution (_line_fit).

    Levels with |error| below the floor guard are excluded; fewer than three
    usable levels is an error, and so are the inputs _above_floor refuses.
    """
    res, err = _above_floor(resolutions, errors)
    slope, intercept, r2 = _line_fit(np.log(res), np.log(err))
    return RateFit(slope=slope, intercept=intercept, r_squared=r2, levels_used=res.size)


def log_shape_slope(resolutions, errors, T: float) -> float:
    """Fitted exponent a of the bound shape C h^a log(T/h): the slope of
    |error| / log(T/h) over the levels fit_rate keeps, those whose plain
    |error| is above FIT_FLOOR.  T must be finite and above every
    resolution, where log(T/h) > 0."""
    res, err = _above_floor(resolutions, errors)
    h = np.asarray(resolutions, float)
    if not 0.0 < h.max() < T < np.inf:  # a NaN T fails
        raise ValueError(f"T must be finite and above every resolution, got T={T} and resolutions {h.tolist()}")
    return _line_fit(np.log(res), np.log(err / np.log(T / res)))[0]


def weak_rate_ok(slope: float, expected: float) -> bool:
    """The weak-rate gate.  The theorem bounds the error from above, so it
    bounds the fitted rate from below only: at least the guaranteed exponent
    less SLOPE_TOL."""
    return slope >= expected - SLOPE_TOL


@dataclass(frozen=True)
class StudyConfig:
    """A convergence-study declaration.

    axis "temporal": ladder entries are time steps dt = T/N on the
    spectral-Galerkin space.  axis "spatial": ladder entries are mesh widths
    h = 1/M with the time-exact family on the FEM eigenpairs.  Covariance
    decay defaults to the regularity-target derivation; pass cov_decay to
    override.
    """

    name: str
    kind: EquationKind
    axis: str
    beta: float
    T: float = 1.0
    modes: int = 1024
    ladder: tuple[float, ...] = ()
    cov_amplitude: float = 1.0
    cov_decay: float | None = None
    law: LevyLaw = field(default_factory=lambda: LevyLaw("compound_poisson", intensity=1.0))
    x0: tuple | None = None
    g: str = "quadratic"
    g_mode: int = 1
    mc_paths: int | None = None
    mc_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name.splitlines() != [self.name]:
            # the name heads the CSV and names its file: a line break breaks read_csv, "" writes ".csv"
            raise ValueError(f"name must be one non-empty line of text, got {self.name!r}")
        if "/" in self.name or "\\" in self.name:  # a separator would write the CSV outside the output directory
            raise ValueError(f"name must not hold a path separator (/ or \\), got {self.name!r}")
        if self.axis not in ("temporal", "spatial"):
            raise ValueError(f"axis must be temporal or spatial, got {self.axis!r}")
        _check_beta(self.beta)
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"horizon T must be finite and > 0, got {self.T}")
        if len(self.ladder) < 4:
            raise ValueError("ladder needs at least 4 levels")
        if np.any(np.diff(self.ladder) >= 0):
            raise ValueError("ladder must be strictly decreasing")
        if self.g not in ("quadratic", "cylindrical_cos"):
            raise ValueError(f"unknown test functional {self.g!r}")
        if not _is_count(self.modes):
            raise ValueError(f"modes must be a whole number >= 1, got {self.modes!r}")
        if not _is_count(self.g_mode) or self.g_mode > self.modes:
            raise ValueError(f"g_mode must be a mode index in 1..{self.modes}, got {self.g_mode!r}")
        if self.g_mode != 1 and self.g != "cylindrical_cos":
            raise ValueError(f"g_mode applies to g = 'cylindrical_cos' only; g is {self.g!r}, got g_mode={self.g_mode}")
        if self.mc_paths is not None:
            if not _is_count(self.mc_paths):
                raise ValueError(f"mc_paths must be a whole number >= 1 or None, got {self.mc_paths!r}")
            if self.axis != "temporal":
                raise ValueError(
                    "mc_paths applies to temporal studies only; Monte Carlo runs on spectral-Galerkin setups"
                )
        if not (_is_whole(self.mc_seed) and self.mc_seed >= 0):
            raise ValueError(f"mc_seed must be a whole number >= 0, got {self.mc_seed!r}")
        if self.mc_paths is not None:
            stream(self.mc_seed)  # a Monte Carlo config is ready once it can draw: load the sampler here, not mid-study
        if self.g != "quadratic" and self.mc_paths is None:
            raise ValueError(f"test functional g={self.g!r} is read only by the Monte Carlo columns; set mc_paths")
        if self.cov_decay is None and self.decay < 0:
            raise ValueError(
                f"the covariance decay derived from beta={self.beta} and rho={_kernel_order(self.kind)}, beta - 1/rho "
                f"+ 1/2 + {REG_MARGIN} = {self.decay:.6g}, is negative; raise beta or give covariance.decay (cov_decay)"
            )
        if self.axis == "temporal":
            for dt in self.ladder:
                n = self.T / dt if dt > 0 else 0.0
                if not np.isfinite(n) or abs(n - round(n)) > 1e-9 * n or round(n) < 1:
                    raise ValueError(f"temporal ladder entry {dt} is not T/N for a whole number N >= 1 of cells")
                if round(n) == 1 and self.expected().weak_log:
                    raise ValueError(
                        f"temporal ladder entry {dt} is T: the weak bound C dt^a log(T/dt) is 0 there; "
                        "start the ladder below T"
                    )
        if self.axis == "spatial":
            for h in self.ladder:
                m = 1.0 / h if h > 0 else 0.0
                if not np.isfinite(m) or abs(m - round(m)) > 1e-9 or round(m) < 2:
                    raise ValueError(f"spatial ladder entry {h} is not 1/M for integer M >= 2")
                if round(m) - 1 > self.modes:
                    raise ValueError(
                        f"mesh 1/{int(round(m))} outruns the spectral truncation K={self.modes}; raise modes"
                    )

    @property
    def decay(self) -> float:
        if self.cov_decay is not None:
            return self.cov_decay
        return self.beta - 1.0 / _kernel_order(self.kind) + 0.5 + REG_MARGIN

    def covariance(self) -> CovarianceSpec:
        return CovarianceSpec(amplitude=self.cov_amplitude, decay=self.decay)

    def expected(self) -> ExpectedRates:
        return expected_rates(self.kind, self.beta, self.axis)


@dataclass(frozen=True)
class StudyRow:
    """One ladder level: its error_report and, with mc_paths, its coupled
    Monte Carlo estimate and standard error (None without)."""

    level: int
    resolution: float
    report: ErrorReport
    mc_estimate: float | None
    mc_stderr: float | None
    in_fit: bool


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    rows: tuple[StudyRow, ...]
    strong_fit: RateFit | None
    weak_fit: RateFit | None
    tail_fraction: float

    def summary(self) -> dict:
        """Fitted slopes and gates; a study passes when weak_ok and strong_ok.
        weak_bound_slope, the one weak_ok judges, is fitted against the weak
        bound's shape on the levels of the plain weak_slope (equal to it where
        that shape has no log factor)."""
        exp = self.config.expected()
        weak = bound = self.weak_fit.slope if self.weak_fit else float("nan")
        strong = self.strong_fit.slope if self.strong_fit else float("nan")
        if self.weak_fit and exp.weak_log:
            res = [r.resolution for r in self.rows]
            bound = log_shape_slope(res, [r.report.weak_error_quadratic for r in self.rows], self.config.T)
        return {
            "study": self.config.name,
            "weak_slope": weak,
            "weak_bound_slope": bound,
            "weak_expected": exp.weak,
            "weak_ok": weak_rate_ok(bound, exp.weak),
            "strong_slope": strong,
            "strong_expected": exp.strong,
            "strong_ok": bool(abs(strong - exp.strong) <= SLOPE_TOL),
            "beta_in_range": exp.beta_in_range,
        }


def _level_setup(config: StudyConfig, resolution: float) -> Setup:
    spec = dirichlet_spectrum(config.modes)
    cov = config.covariance()
    if config.axis == "temporal":
        n = int(round(config.T / resolution))
        return Setup(config.kind, spec, cov, config.law, config.T, n_cells=n, x0=config.x0)
    fem = assemble_fem(int(round(1.0 / resolution)))
    return Setup(config.kind, spec, cov, config.law, config.T, fem=fem, x0=config.x0)


def run_study(config: StudyConfig) -> StudyResult:
    """Compute every ladder level and fit the rates.

    Deterministic columns are bitwise reproducible for a fixed build; the MC
    columns are reproducible for a fixed seed.  With mc_paths, one
    mc_weak_error call serves the whole ladder, its problem and step counts:
    each block of paths is drawn once and its exact side shared, its jumps
    are binned once on the finest level, and a level whose edges nest in the
    finest level's reads its cells from those; only the scheme side is per
    level.  Level N's MC pair equals mc_weak_error(problem, [N]) bit for bit.

    One errors.error_reports call assembles the deterministic columns of the
    whole ladder, rows in ladder order, in one pass that builds the exact side
    the levels share once: heat and wave levels as one broadcast on either
    axis, a Volterra temporal ladder's ee and the finest level's cell
    primitives at all its edges, which a coarser level reads when its edges
    are every r-th of those, a Volterra spatial ladder's cut tables on one
    lattice per call, from the sine spectrum.  Nothing is kept from one
    study to the next; each row is error_report's of its level bit for bit.
    """
    spec = dirichlet_spectrum(config.modes)
    hs = hs_condition(spec, config.covariance(), config.beta, _kernel_order(config.kind))
    if not hs.converges:
        raise ValueError(
            f"study {config.name!r} refused: covariance too rough for beta={config.beta} "
            f"(summability exponent {hs.exponent:.4g} <= 1)"
        )
    tail_fraction = hs.tail_bound / hs.partial_sum
    g = CylindricalFunctional(mode=config.g_mode) if config.g == "cylindrical_cos" else None
    setups = [_level_setup(config, resolution) for resolution in config.ladder]
    mc = [(None, None)] * len(setups)
    if config.mc_paths:
        problem = replace(setups[0], n_cells=None)
        mc = mc_weak_error(problem, [s.n_cells for s in setups], g=g, n_paths=config.mc_paths, seed=config.mc_seed)
    rows = []
    for level, rep in enumerate(error_reports(setups)):
        in_fit = abs(rep.weak_error_quadratic) > FIT_FLOOR and rep.strong_error > FIT_FLOOR
        rows.append(StudyRow(level, config.ladder[level], rep, *mc[level], in_fit))
    res = np.array([r.resolution for r in rows])
    try:
        strong_fit = fit_rate(res, [r.report.strong_error for r in rows])
        weak_fit = fit_rate(res, [r.report.weak_error_quadratic for r in rows])
    except InsufficientDataError:
        strong_fit = weak_fit = None  # every level at the error floor
    return StudyResult(config=config, rows=tuple(rows), strong_fit=strong_fit, weak_fit=weak_fit, tail_fraction=tail_fraction)


# ----------------------------------------------------------------------------
# CSV


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def csv_text(result: StudyResult) -> str:
    buf = io.StringIO()
    c = result.config
    buf.write(f"# study={c.name} equation={c.kind.name} axis={c.axis} beta={_fmt(c.beta)}\n")
    buf.write(f"# covariance: amplitude={_fmt(c.cov_amplitude)} decay={_fmt(c.decay)} modes={c.modes}\n")
    buf.write(f"# law={c.law.kind} mc_seed={c.mc_seed} mc_paths={c.mc_paths or 0}\n")
    buf.write(f"# covariance_tail_fraction={_fmt(result.tail_fraction)}\n")
    if result.weak_fit and result.strong_fit:
        buf.write(
            f"# fits: weak_slope={_fmt(result.weak_fit.slope)} strong_slope={_fmt(result.strong_fit.slope)}"
            f" weak_r2={_fmt(result.weak_fit.r_squared)} strong_r2={_fmt(result.strong_fit.r_squared)}\n"
        )
    else:
        buf.write("# fits: unavailable (every level at the error floor)\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for r in result.rows:
        rep = r.report
        buf.write(
            ",".join(
                [
                    str(r.level),
                    _fmt(r.resolution),
                    _fmt(rep.strong_error),
                    _fmt(rep.weak_error_quadratic),
                    _fmt(rep.representation_value),
                    _fmt(r.mc_estimate),
                    _fmt(r.mc_stderr),
                    str(int(r.in_fit)),
                ]
            )
            + "\n"
        )
    return buf.getvalue()


def emit_csv(result: StudyResult, path: str) -> None:
    text = csv_text(result)
    with open(path, "w") as f:
        f.write(text)


def read_csv(path: str) -> list[dict]:
    """Parse a study CSV back into row dicts (floats bitwise-identical).  A row
    whose field count is not the header's is refused, naming its line."""
    with open(path) as f:
        text = f.read()
    rows = []
    header: list[str] | None = None
    for number, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header {header}")
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path} line {number}: {len(parts)} fields, the header has {len(header)}")
        row: dict = {}
        for name, val in zip(header, parts):
            if name in ("level", "in_fit"):
                row[name] = int(val)
            else:
                row[name] = float(val) if val else None
        rows.append(row)
    return rows


# ----------------------------------------------------------------------------
# representation-identity sweep


def representation_sweep() -> list[dict]:
    """Compare the library's error-representation value against the weak
    error assembled cell by cell by an independent route (_weak_error_cellwise)
    on 12 setups: 3 equations x 2 resolutions x 2 covariances, with nonzero
    initial data throughout."""
    from .errors import _weak_error_cellwise

    kinds = [heat_kind(), volterra_kind(1.5), wave_kind("crank_nicolson")]
    out = []
    for kind in kinds:
        for n_cells in (8, 32):
            for decay in (0.3, 0.7):
                spec = dirichlet_spectrum(48)
                cov = CovarianceSpec(amplitude=1.0, decay=decay)
                law = LevyLaw("compound_poisson", intensity=1.0)
                if kind.name == "wave":
                    x0 = np.zeros((2, 48))
                    x0[0, :3] = [1.0, -0.5, 0.25]
                    x0[1, :2] = [0.5, 0.125]
                else:
                    x0 = np.zeros(48)
                    x0[:3] = [1.0, -0.5, 0.25]
                setup = Setup(kind, spec, cov, law, 1.0, n_cells=n_cells, x0=x0)
                weak = _weak_error_cellwise(setup)
                rep = error_report(setup).representation_value
                rel = abs(rep - weak) / max(abs(weak), 1e-14)
                out.append(
                    {
                        "equation": kind.name,
                        "n_cells": n_cells,
                        "decay": decay,
                        "weak": weak,
                        "representation": rep,
                        "rel_discrepancy": rel,
                    }
                )
    return out


# ----------------------------------------------------------------------------
# shipped presets


def _dyadic(lo: int, hi: int) -> tuple[float, ...]:
    return tuple(2.0**-p for p in range(lo, hi + 1))


def _preset_fields() -> dict[str, dict]:
    """Each shipped preset's StudyConfig fields but its name, by name; nothing
    is built, so one preset can be built alone (the Monte Carlo one loads the
    sampler)."""
    wave = wave_kind("crank_nicolson")
    return {
        "heat-temporal-beta1": dict(kind=heat_kind(), axis="temporal", beta=1.0, modes=4096, ladder=_dyadic(4, 10)),
        "heat-spatial-beta075": dict(kind=heat_kind(), axis="spatial", beta=0.75, modes=4096, ladder=_dyadic(2, 7)),
        "volterra-temporal": dict(
            kind=volterra_kind(1.5), axis="temporal", beta=0.5, modes=1024, ladder=_dyadic(4, 10)
        ),
        "wave-temporal": dict(kind=wave, axis="temporal", beta=0.75, modes=1024, ladder=_dyadic(4, 10)),
        "wave-spatial": dict(kind=wave, axis="spatial", beta=0.75, modes=1024, ladder=_dyadic(2, 7)),
        "wave-temporal-mc": dict(
            kind=wave, axis="temporal", beta=0.75, modes=32, ladder=_dyadic(3, 6), mc_paths=2000, mc_seed=0
        ),
    }


def preset_studies() -> dict[str, StudyConfig]:
    """The canonical convergence studies; names are CLI-addressable."""
    return {name: StudyConfig(name=name, **fields) for name, fields in _preset_fields().items()}
