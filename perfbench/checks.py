"""Correctness oracles for the outputs of one study repetition.

Every check is one operation in the benchmark's failure count:

* each command exits 0;
* ``simulate`` writes ``reps`` lines that all parse, at height ``T`` (and
  with ``k`` tips for a k-sample); for full and Bernoulli schemes the mean
  tip count is within 5 standard errors of ``F_y(T)``;
* full and Bernoulli ``likelihood`` of a constant model match the
  closed-form log-likelihood (``gen.loglik_const``) to 1e-9 relative; full
  ``likelihood`` of the time-varying model matches the exact log-likelihood
  (``gen.loglik_time_varying``) to the solver's own 1e-3 relative; on the
  age-dependent model, which has no closed form, ``likelihood`` matches
  ``neg_log_likelihood(model=...)`` to 1e-9 relative;
* k-scheme ``likelihood`` matches ``neg_log_likelihood`` within 1e-6 per tree;
* ``fit`` reports ``converged`` and a ``logL`` no lower than the
  log-likelihood at the true constant rates;
* ``dump-f`` writes a valid grid from ``F(0) = 1``; for the time-varying
  model ``F(T)`` is within the solver's own 1e-3 threshold of the exact value.

A failing check is recorded and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional

import numpy as np

import gen
from workloads import Command, Study

SIM_SE = 5.0
LIK_RTOL = 1e-9
KLIK_ATOL_PER_TREE = 1e-6
SOLVER_RTOL = 1e-3


def _T(model: dict) -> float:
    return float(model["T"])


class Checker:
    """``depths[d][name]``: the trees of input ``name`` in input set ``d``."""

    def __init__(self, study: Study, depths: Dict[int, Dict[str, List[np.ndarray]]]):
        self.study = study
        self.depths = depths
        self.attempted = 0
        self.failures: List[str] = []
        self._verified: Dict[tuple, Optional[str]] = {}  # (cmd, digest) -> error
        self._refs: Dict[tuple, float] = {}
        self.F_T_relerr: Optional[float] = None

    # -- bookkeeping -----------------------------------------------------
    def _op(self, label: str, error: Optional[str]):
        self.attempted += 1
        if error:
            self.failures.append(f"{label}: {error}")

    def check_repetition(self, i: int, d: int, codes: list, errors: list) -> None:
        for j, (cmd, code) in enumerate(zip(self.study.commands, codes)):
            label = f"rep {i} cmd {j} {cmd.kind} {cmd.scheme or cmd.model}"
            self._op(f"{label} exit", None if code == 0 else f"exit code {code}")
            path = cmd.out.replace("{it}", f"it{i}")
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                self._op(label, f"no output: {exc}")
                continue
            key = (j, d if cmd.input else None, hashlib.sha256(data).hexdigest())
            if key not in self._verified:
                try:
                    self._verified[key] = getattr(self, "_" + cmd.kind.replace("-", "_"))(
                        cmd, data.decode(), d
                    )
                except Exception as exc:  # a malformed output is a failed check
                    self._verified[key] = f"{type(exc).__name__}: {exc}"
            self._op(label, self._verified[key])
        for err in errors:
            self.failures.append(f"rep {i} exception: {err.strip().splitlines()[-1]}")

    # -- references --------------------------------------------------------
    def _cpp_model(self, name: str):
        from cppgen.model import rate_model_from_json

        return rate_model_from_json(self.study.models[name])

    def _trees(self, inp, T, d: int):
        from cppgen.model import OrientedUltrametricTree

        return [OrientedUltrametricTree(height=T, depths=tuple(x))
                for x in self.depths[d][inp.name]]

    def _cppgen_loglik(self, inp, scheme: str, model_name: Optional[str], d: int) -> float:
        """``-neg_log_likelihood`` of an input, at the truth or on a model."""
        key = (d, inp.name, scheme, model_name)
        if key not in self._refs:
            from cppgen.inference import neg_log_likelihood
            from cppgen.model import parse_scheme

            t = inp.truth
            model = self._cpp_model(model_name) if model_name else None
            self._refs[key] = -neg_log_likelihood(
                self._trees(inp, _T(t), d), t["lambda"], t["mu"], parse_scheme(scheme),
                _T(t), model=model,
            )
        return self._refs[key]

    def _F_T(self, model_name: str, y: float) -> float:
        m = self.study.models[model_name]
        if m["kind"] == "constant":
            FT = float(gen.F_const(m["lambda"], m["mu"], m["T"]))
        elif m["kind"] == "time_varying":
            lam = m["lambda"]
            FT = gen.F_time_varying(lam["breaks"], lam["values"], m["mu"], m["T"], m["T"])
        else:  # no closed form: the solver's own value
            key = ("F_T", model_name)
            if key not in self._refs:
                from cppgen.kernel import solve_F

                G = solve_F(self._cpp_model(model_name), 1e-3)
                self._refs[key] = float(G.value(G.T))
            FT = self._refs[key]
        return 1.0 - y + y * FT

    # -- per-command checks (return an error string or None) ---------------
    def _simulate(self, cmd: Command, text: str, d: int) -> Optional[str]:
        from cppgen.model import newick_to_tree

        T = _T(self.study.models[cmd.model])
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != cmd.count:
            return f"{len(lines)} lines, expected {cmd.count}"
        tips = []
        for ln in lines:
            tree = newick_to_tree(ln)
            if abs(tree.height - T) > 1e-9 * T:
                return f"tree height {tree.height} != T={T}"
            tips.append(tree.n_tips)
        variant, _, arg = cmd.scheme.partition(":")
        if variant == "k":
            bad = [n for n in tips if n != int(arg)]
            return f"k-sample with {bad[0]} tips" if bad else None
        y = float(arg) if variant == "bernoulli" else 1.0
        FT = self._F_T(cmd.model, y)
        se = math.sqrt(FT * (FT - 1.0) / len(tips))
        gap = abs(float(np.mean(tips)) - FT)
        if gap > SIM_SE * se:
            return f"mean tips {np.mean(tips):.4g} vs F(T)={FT:.4g}, {gap / se:.1f} SE"
        return None

    def _likelihood(self, cmd: Command, text: str, d: int) -> Optional[str]:
        out = json.loads(text)
        inp = cmd.input
        if out["n_trees"] != inp.reps:
            return f"n_trees {out['n_trees']} != {inp.reps}"
        got = float(out["logL"])
        model = self.study.models[cmd.model]
        variant, _, arg = cmd.scheme.partition(":")
        if variant == "k":
            ref = self._cppgen_loglik(inp, cmd.scheme,
                                      None if model["kind"] == "constant" else cmd.model, d)
            tol = KLIK_ATOL_PER_TREE * inp.reps
        elif model["kind"] == "constant":
            y = float(arg) if variant == "bernoulli" else 1.0
            ref = gen.loglik_const(self.depths[d][inp.name], model["lambda"], model["mu"],
                                   _T(model), y)
            tol = LIK_RTOL * abs(ref)
        elif model["kind"] == "time_varying" and variant == "full":
            # exact F, so the tolerance is the solver's own on F
            lam = model["lambda"]
            ref = gen.loglik_time_varying(self.depths[d][inp.name], lam["breaks"], lam["values"],
                                          model["mu"], _T(model))
            tol = SOLVER_RTOL * abs(ref)
        else:
            ref = self._cppgen_loglik(inp, cmd.scheme, cmd.model, d)
            tol = LIK_RTOL * abs(ref)
        if not abs(got - ref) <= tol:
            return f"logL {got!r} vs reference {ref!r} (tolerance {tol:.3g})"
        return None

    def _fit(self, cmd: Command, text: str, d: int) -> Optional[str]:
        out = json.loads(text)
        inp = cmd.input
        t = inp.truth
        variant, _, arg = cmd.scheme.partition(":")
        if variant == "k":
            truth = self._cppgen_loglik(inp, cmd.scheme, None, d)
        else:
            y = float(arg) if variant == "bernoulli" else 1.0
            truth = gen.loglik_const(self.depths[d][inp.name], t["lambda"], t["mu"], _T(t), y)
        if not out["converged"]:
            return "fit did not converge"
        if not float(out["logL"]) >= truth - 1e-9 * abs(truth):
            return f"fit logL {out['logL']!r} below the truth's {truth!r}"
        return None

    def _dump_f(self, cmd: Command, text: str, d: int) -> Optional[str]:
        lines = text.splitlines()
        if lines[0] != "t,F":
            return f"bad header {lines[0]!r}"
        grid = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        ts, F = grid[:, 0], grid[:, 1]
        m = self.study.models[cmd.model]
        T = _T(m)
        if ts[0] != 0.0 or abs(ts[-1] - T) > 1e-9 * T or F[0] != 1.0 or np.any(np.diff(F) < 0):
            return "grid does not run from F(0)=1 to T, nondecreasing"
        if m["kind"] == "time_varying":
            lam = m["lambda"]
            exact = gen.F_time_varying(lam["breaks"], lam["values"], m["mu"], T, T)
            self.F_T_relerr = abs(F[-1] - exact) / exact
            if self.F_T_relerr > SOLVER_RTOL:
                return f"F(T) relative error {self.F_T_relerr:.3g} > {SOLVER_RTOL}"
        return None
