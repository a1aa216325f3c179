import os
import subprocess
import sys

import hypothesis
import pytest

import levyspde
from levyspde.studies import preset_studies, run_study

hypothesis.settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis.settings.load_profile("ci")

_RESULTS: dict = {}


@pytest.fixture(scope="session")
def preset_result():
    """Run a shipped preset once per session and cache the result."""

    def get(name: str):
        if name not in _RESULTS:
            _RESULTS[name] = run_study(preset_studies()[name])
        return _RESULTS[name]

    return get


@pytest.fixture(scope="session")
def fresh_python():
    """Run python arguments in a new interpreter that imports this levyspde;
    return its stdout.  Reruns there share no state with the test process."""
    src = os.path.dirname(os.path.dirname(levyspde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args: str) -> str:
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)
        return done.stdout

    return run
