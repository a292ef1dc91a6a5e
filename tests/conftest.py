import os
from pathlib import Path

import pytest

from vankampen.gallery import presentation
from vankampen.presentation import presentation_complex
from vankampen.enumeration import EnumerationConfig, enumerate_diagrams


@pytest.fixture(scope="session")
def bare_env():
    """The environment for a subprocess that runs the library in ``src``:
    only ``PYTHONPATH`` and ``PATH``, plus ``PYTHONDONTWRITEBYTECODE`` when
    the suite runs with it, so the subprocess writes no ``__pycache__``
    into the checkout either."""
    env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


@pytest.fixture(scope="session")
def galleries():
    out = {}
    for gid in ("thm2", "thm1", "eq1", "eq2", "torusT"):
        p, m = presentation(gid)
        out[gid] = (p, m, presentation_complex(p))
    return out


@pytest.fixture(scope="session")
def corpus_thm2_6(galleries):
    _p, _m, x = galleries["thm2"]
    return list(enumerate_diagrams(x, EnumerationConfig(max_area=6)))


@pytest.fixture(scope="session")
def corpus_thm1_5(galleries):
    _p, _m, x = galleries["thm1"]
    return list(enumerate_diagrams(x, EnumerationConfig(max_area=5)))


@pytest.fixture(scope="session")
def corpus_eq1_4(galleries):
    _p, _m, x = galleries["eq1"]
    return list(enumerate_diagrams(x, EnumerationConfig(max_area=4)))


@pytest.fixture(scope="session")
def corpus_eq2_4(galleries):
    _p, _m, x = galleries["eq2"]
    return list(enumerate_diagrams(x, EnumerationConfig(max_area=4)))
