"""Importing cppgen, and running its constant and piecewise-rate commands,
loads no scipy module.

Each check runs in a fresh interpreter, because pytest's own test modules
import scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cppgen

MODELS = {
    "constant": {"kind": "constant", "lambda": 1.0, "mu": 0.5, "T": 2.0},
    "time_varying": {
        "kind": "time_varying",
        "lambda": {"breaks": [0.0, 1.3], "values": [1.0, 1.5]},
        "mu": 0.5,
        "T": 2.0,
    },
    "age_dependent": {
        "kind": "age_dependent",
        "lambda": 1.0,
        "mu": {"t_breaks": [0.0], "x_breaks": [0.0, 0.5], "values": [[0.2, 0.7]]},
        "T": 2.0,
    },
}

# Runs each argv (a JSON list, argv[1]) through cli.main in order, then
# prints the exit codes and the scipy modules loaded.
SCRIPT = """
import json, sys
import cppgen, cppgen.cli
codes = [cppgen.cli.main(argv) for argv in json.loads(sys.argv[1])]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _fresh_run(commands, cwd):
    """Exit codes and loaded scipy modules of ``commands`` in a new interpreter."""
    src = str(Path(cppgen.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _model(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MODELS[name]))
    return str(path)


def _simulate(model, scheme, out, seed="1"):
    return ["simulate", "--model", model, "--scheme", scheme, "--reps", "50",
            "--seed", seed, "--workers", "1", "--out", out]


def test_import_loads_no_scipy(tmp_path):
    assert _fresh_run([], tmp_path) == {"codes": [], "scipy": []}


@pytest.mark.parametrize("name", ["constant", "time_varying"])
def test_exact_tail_commands_load_no_scipy(tmp_path, name):
    model = _model(tmp_path, name)
    commands = [
        _simulate(model, "full", "full.nwk"),
        _simulate(model, "bernoulli:0.5", "bern.nwk"),
        _simulate(model, "k:3", "k3.nwk"),
        ["likelihood", "--tree", "full.nwk", "--model", model, "--scheme", "full",
         "--out", "lik_full.json"],
        ["likelihood", "--tree", "k3.nwk", "--model", model, "--scheme", "k:3",
         "--out", "lik_k3.json"],
        ["dump-f", "--model", model, "--step", "1e-2", "--out", "f.csv"],
    ]
    assert _fresh_run(commands, tmp_path) == {"codes": [0] * 6, "scipy": []}
    assert len((tmp_path / "k3.nwk").read_text().splitlines()) == 50
    assert json.loads((tmp_path / "lik_k3.json").read_text())["n_trees"] == 50


def test_fit_and_age_dependent_models_load_scipy_when_used(tmp_path):
    model = _model(tmp_path, "constant")
    ad_model = _model(tmp_path, "age_dependent")
    commands = [
        _simulate(model, "full", "full.nwk"),
        ["fit", "--trees", "full.nwk", "--scheme", "full", "--out", "fit.json"],
        _simulate(ad_model, "full", "ad.nwk"),
    ]
    result = _fresh_run(commands, tmp_path)
    assert result["codes"] == [0, 0, 0]
    assert {"scipy.optimize", "scipy.linalg", "scipy.interpolate"} <= set(result["scipy"])
    assert json.loads((tmp_path / "fit.json").read_text())["converged"] is True
    assert len((tmp_path / "ad.nwk").read_text().splitlines()) == 50
