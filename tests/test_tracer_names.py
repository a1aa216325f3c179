"""The benchmark tracer (studybench/tracer.py) wraps levyspde functions by the
names their callers look up.  A name it cannot find makes every traced
benchmark run die with AttributeError, so the names are pinned here."""

import importlib.util
from pathlib import Path

import numpy as np

import levyspde
from levyspde.propagators import heat_kind

TRACER = Path(__file__).resolve().parents[1] / "studybench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("studybench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracer = load_tracer()
    assert tracer.WRAPPED
    for _, module, attr in tracer.WRAPPED:
        assert callable(getattr(getattr(levyspde, module), attr)), f"levyspde.{module}.{attr}"
    tracer.Tracer(levyspde)  # reads levyspde.mittag_leffler.SERIES_CUTOFF


def test_discrete_family_has_steps():
    # the tracer counts discrete_family(...).steps.size
    fam = levyspde.errors.discrete_family(heat_kind(), np.array([1.0, 4.0]), 0.25, 4)
    assert fam.steps.shape == (2, 5)
