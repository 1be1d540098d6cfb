"""scipy's LAPACK extension loaded directly, and the fallback to scipy.linalg.lapack."""
from __future__ import annotations

import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sbsflow
from sbsflow.synthetic import make_fixture

# battery-shaped least squares and the fixture's weekly targets, hashed,
# after ``{prelude}`` has run in a fresh interpreter
ROUTE = """
import hashlib, json, sys
{prelude}
import numpy as np
from sbsflow import _flapack
from sbsflow.causality import RankDeficientError, ols_fit
from sbsflow.config import validate_config
from sbsflow.corpus import build_windows
from sbsflow.series import disaggregate, load_monthly

digest = hashlib.sha256()
rng = np.random.default_rng(31)
for n in range(300):
    p = int(rng.integers(1, 9))
    cols = 1 + p * int(rng.integers(0, 3))
    rows = int(rng.integers(3 * p + 2, 201))
    X = np.column_stack([np.ones(rows), rng.normal(size=(rows, cols - 1))])
    if n % 11 == 0 and cols > 2:
        X[:, -1] = 3.0 * X[:, 1]
    try:
        fit = ols_fit(X, rng.normal(size=rows))
        digest.update(fit.coefficients.tobytes() + np.float64(fit.rss).tobytes())
    except RankDeficientError as exc:
        digest.update(repr(exc.columns).encode())
cfg = validate_config(sys.argv[1])
starts = build_windows(cfg.start_date, cfg.end_date)
for m in load_monthly(cfg.monthly_path):
    digest.update(np.array(disaggregate(m, starts).values).tobytes())
print(json.dumps({{
    "route": _flapack.lapack.__name__,
    "linalg": "scipy.linalg" in sys.modules,
    "digest": digest.hexdigest(),
}}))
"""

# a scipy whose LAPACK extension is not where scipy.linalg's folder says
MOVED = """
import importlib.util
_find_spec = importlib.util.find_spec
def find_spec(name, package=None):
    spec = _find_spec(name, package)
    if name == "scipy.linalg":
        spec.submodule_search_locations = [{folder!r}]
    return spec
importlib.util.find_spec = find_spec
"""


def run_python(code: str, *args: str) -> str:
    src = str(Path(sbsflow.__file__).parents[1])
    pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    return done.stdout


@pytest.fixture(scope="module")
def routes(tmp_path_factory):
    """Each route's JSON line: the extension loaded directly, and the
    fallback after ``scipy.linalg``, with no extension file, and with one
    that does not load."""
    config = str(make_fixture(tmp_path_factory.mktemp("fx"), seed=11).config_path)
    empty = tmp_path_factory.mktemp("empty")
    broken = tmp_path_factory.mktemp("broken")
    (broken / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}").write_bytes(b"not a library")
    preludes = {
        "direct": "",
        "linalg first": "import scipy.linalg",
        "no extension": MOVED.format(folder=str(empty)),
        "broken extension": MOVED.format(folder=str(broken)),
    }
    return {
        name: json.loads(run_python(ROUTE.format(prelude=prelude), config))
        for name, prelude in preludes.items()
    }


def test_installed_scipy_takes_the_direct_route(routes):
    assert (routes["direct"]["route"], routes["direct"]["linalg"]) == ("scipy.linalg._flapack", False)


@pytest.mark.parametrize("fallback", ["linalg first", "no extension", "broken extension"])
def test_fallback_takes_scipy_linalg_lapack_with_the_same_bits(routes, fallback):
    assert (routes[fallback]["route"], routes[fallback]["linalg"]) == ("scipy.linalg.lapack", True)
    assert routes[fallback]["digest"] == routes["direct"]["digest"]


def test_scipy_linalg_and_a_reload_reuse_the_extension():
    run_python(
        "import importlib, sys\n"
        "import sbsflow._flapack as f\n"
        "first = f.lapack\n"
        "assert first is sys.modules['scipy.linalg._flapack']\n"
        "importlib.reload(f)\n"
        "assert f.lapack is first and 'scipy.linalg' not in sys.modules\n"
        "import scipy.linalg.lapack\n"
        "assert scipy.linalg.lapack._flapack is first\n"
        "assert scipy.linalg.lapack.dgtsv is f.dgtsv\n"
    )
