"""Deterministic and Monte Carlo error studies for Levy-driven linear SPDEs on (0,1)."""

from .errors import (
    ErrorReport,
    Setup,
    error_report,
    mc_weak_error,
    propagator_error_profile,
)
from .mittag_leffler import mittag_leffler_neg
from .noise import (
    CovarianceSpec,
    LevyLaw,
    hs_condition,
    stream,
)
from .propagators import (
    DiscreteFamily,
    EquationKind,
    cq_mode_solve,
    cq_resolvent,
    cq_weights,
    discrete_family,
    heat_kind,
    i_stability_check,
    volterra_kind,
    wave_kind,
)
from .spectral import (
    DirichletSpectrum,
    FemSpace,
    assemble_fem,
    dirichlet_spectrum,
)
from .studies import (
    ExpectedRates,
    RateFit,
    StudyConfig,
    StudyResult,
    emit_csv,
    expected_rates,
    fit_rate,
    preset_studies,
    representation_sweep,
    run_study,
)

__all__ = [
    "CovarianceSpec",
    "DirichletSpectrum",
    "DiscreteFamily",
    "EquationKind",
    "ErrorReport",
    "ExpectedRates",
    "FemSpace",
    "LevyLaw",
    "RateFit",
    "Setup",
    "StudyConfig",
    "StudyResult",
    "assemble_fem",
    "cq_mode_solve",
    "cq_resolvent",
    "cq_weights",
    "dirichlet_spectrum",
    "discrete_family",
    "emit_csv",
    "error_report",
    "expected_rates",
    "fit_rate",
    "heat_kind",
    "hs_condition",
    "i_stability_check",
    "mc_weak_error",
    "mittag_leffler_neg",
    "preset_studies",
    "propagator_error_profile",
    "representation_sweep",
    "run_study",
    "stream",
    "volterra_kind",
    "wave_kind",
]
