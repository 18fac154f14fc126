"""The study workloads: models, generated inputs and command scripts.

Each workload is a fixed, closed-loop script of ``cppgen`` CLI commands
(each starts when the previous one has returned).  Inputs for
``likelihood`` and ``fit`` come from the benchmark's own constant-rate
sampler (``gen.py``), never from ``cppgen simulate``, so a change to the
simulator's seed -> output mapping cannot change what the other commands
are measured on.  An input path starts with ``{d}``, the input set of the
repetition: each repetition reads a fresh draw, so a median over
repetitions averages over data as well as over time.

Why these two:

* ``many-small`` -- constant rates, about 4.4 tips per tree, so per-tree
  overhead dominates: pool dispatch, one tree object per replicate, Newick
  per line, per-tree k-sample quadrature and the per-objective rebuild in
  ``fit``.  No ``solve_F``: a grid optimisation should leave it unchanged.
* ``grid-rates`` -- a time-varying model (lambda break at 1.3, off the
  solver grid on purpose) and an age-dependent model; the only workload
  that runs ``solve_F`` and ``GridTail``.

A third workload with about 150 tips per tree (per-depth work) was tried and
left out: on a 2-core host shared with other jobs its likelihood throughput
varied by more than a quarter between runs, and with two workloads each run
can be longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Model JSONs the CLI reads.  "const" entries double as the generator's truth.
MANY_SMALL = {"kind": "constant", "lambda": 1.0, "mu": 0.5, "T": 2.0}
TIME_VARYING = {
    "kind": "time_varying",
    "lambda": {"breaks": [0.0, 1.3], "values": [1.0, 1.5]},
    "mu": 0.5,
    "T": 2.0,
}
AGE_DEPENDENT = {
    "kind": "age_dependent",
    "lambda": 1.0,
    "mu": {"t_breaks": [0.0], "x_breaks": [0.0, 0.5], "values": [[0.2, 0.7]]},
    "T": 2.0,
}


@dataclass(frozen=True)
class Input:
    """A Newick file drawn from the constant-rate sampler."""

    name: str
    truth: dict  # constant model JSON the trees are drawn from
    reps: int
    y: float = 1.0  # Bernoulli sampling probability (1 = full)
    k: Optional[int] = None  # uniform k-sample size

    @property
    def path(self) -> str:
        return f"{{d}}/{self.name}.nwk"


@dataclass(frozen=True)
class Command:
    """One CLI call.  ``{it}`` in ``argv`` is the iteration's output dir."""

    kind: str  # simulate | likelihood | fit | dump-f
    argv: List[str]
    out: str
    model: Optional[str] = None  # key into Study.models
    scheme: Optional[str] = None
    count: int = 0  # replicates simulated or trees read
    input: Optional[Input] = None


@dataclass
class Study:
    models: Dict[str, dict]
    inputs: List[Input] = field(default_factory=list)
    commands: List[Command] = field(default_factory=list)

    def simulate(self, model: str, scheme: str, reps: int, workers: int, seed: int):
        out = f"{{it}}/sim_{model}_{scheme.replace(':', '')}.nwk"
        argv = ["simulate", "--model", f"{model}.json", "--scheme", scheme,
                "--reps", str(reps), "--seed", str(seed), "--workers", str(workers),
                "--out", out]
        self.commands.append(Command("simulate", argv, out, model, scheme, reps))

    def likelihood(self, model: str, scheme: str, inp: Input):
        out = f"{{it}}/lik_{model}_{scheme.replace(':', '')}.json"
        argv = ["likelihood", "--tree", inp.path, "--model", f"{model}.json",
                "--scheme", scheme, "--out", out]
        self.commands.append(Command("likelihood", argv, out, model, scheme, inp.reps, inp))

    def fit(self, scheme: str, inp: Input):
        out = f"{{it}}/fit_{inp.name}.json"
        argv = ["fit", "--trees", inp.path, "--scheme", scheme,
                "--init", "lam=0.8,mu=0.4", "--out", out]
        self.commands.append(Command("fit", argv, out, None, scheme, inp.reps, inp))

    def dump_f(self, model: str):
        out = f"{{it}}/F_{model}.csv"
        argv = ["dump-f", "--model", f"{model}.json", "--out", out]
        self.commands.append(Command("dump-f", argv, out, model))


def many_small(seed: int) -> Study:
    st = Study(models={"const": MANY_SMALL})
    lik_full = Input("in_lik_full", MANY_SMALL, reps=3000)
    lik_bern = Input("in_lik_bern", MANY_SMALL, reps=3000, y=0.3)
    lik_k5 = Input("in_lik_k5", MANY_SMALL, reps=100, k=5)
    fit_full = Input("in_fit_full", MANY_SMALL, reps=3000)
    # No k:5 fit: on k:5 draws whose lambda estimate lies at its lower
    # bound, fit_mle's clamped objective is flat and a Nelder-Mead start can
    # run to its 4000-iteration cap (about two minutes, against 2-4 s for
    # other draws), past the time limit of a benchmark run.
    st.inputs += [lik_full, lik_bern, lik_k5, fit_full]
    st.simulate("const", "full", 2000, workers=2, seed=seed * 100 + 1)
    st.simulate("const", "k:5", 1000, workers=2, seed=seed * 100 + 2)
    st.likelihood("const", "full", lik_full)
    st.likelihood("const", "bernoulli:0.3", lik_bern)
    st.likelihood("const", "k:5", lik_k5)
    st.fit("full", fit_full)
    return st


def grid_rates(seed: int) -> Study:
    st = Study(models={"tv": TIME_VARYING, "ad": AGE_DEPENDENT})
    truth = {"kind": "constant", "lambda": 1.0, "mu": 0.5, "T": 2.0}
    for j, model in enumerate(("tv", "ad")):
        full = Input(f"in_{model}_full", truth, reps=1000)
        k3 = Input(f"in_{model}_k3", truth, reps=60, k=3)
        st.inputs += [full, k3]
        # --workers 1 keeps the per-replicate solve_F calls in-process.
        st.simulate(model, "full", 3, workers=1, seed=seed * 100 + 10 * j + 1)
        st.simulate(model, "k:3", 3, workers=1, seed=seed * 100 + 10 * j + 2)
        st.likelihood(model, "full", full)
        st.likelihood(model, "k:3", k3)
        st.dump_f(model)
        st.fit("full", full)
    return st


WORKLOADS = {"many-small": many_small, "grid-rates": grid_rates}
