"""Command-line surface: simulate, likelihood, fit, validate, dump-f.

Stochastic subcommands require ``--seed`` and are bit-reproducible from
(seed, config).  ``simulate`` draws its replicates in blocks of
``SIM_BLOCK``: the seed is split into one stream per block, each block is
one batched draw into a :class:`~cppgen.model.TreeBatch` (forward runs one
after another with ``--forward``), and its lines are written before the
next block is drawn, so memory holds about one block at a time.  Every
block is drawn in this process: each inverse tail inverts exactly, grid
tails included, so a block of depths costs one vectorized inversion.
``--workers`` and ``likelihood --quad-nodes`` are accepted for old scripts
and ignored.

Each command builds the model's inverse tail F once (``kernel.tail_for``).
``solve_F`` is passed to ``tail_for`` under this module's name, so code
that patches ``cli.solve_F`` (tests, tracers) sees the solve.  Output is
written a block at a time by ``model.newick_chunks`` or
``model.csv_chunks``, which format the whole block from its depth arrays;
no per-replicate tree object is built.

Importing this module loads no scipy, so a command pays only for what it
uses.  scipy is imported on first use, once per process: ``scipy.optimize``
by ``fit``, ``scipy.stats`` and ``scipy.integrate`` by ``validate``, and
``scipy.linalg`` and ``scipy.interpolate`` by age-dependent models
(``kernel.solve_F`` and ``kernel.GridTail``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Iterator, List, Optional

import numpy as np

from . import __version__
from .cpp import (
    RandomStream,
    check_expected_tips,
    simulate_cpp_many,
    simulate_forward,
)
from .errors import CppgenError, DomainError, TailOverflowError
from .inference import fit_mle
from .kernel import solve_F, step_grid, tail_for
from .ksample import MixtureParams, definetti_sample_many, loglik, trapezoid_nodes
# Not called here; kept importable because perfbench/tracer.py patches them by module.
from .cpp import simulate_cpp  # noqa: F401
from .ksample import bernoulli_loglikelihood, definetti_sample, full_loglikelihood  # noqa: F401
from .ksample import ksample_loglikelihood  # noqa: F401
from .model import tree_to_newick  # noqa: F401
from .model import (
    RateModel,
    TreeBatch,
    csv_chunks,
    newick_chunks,
    parse_scheme,
    rate_model_from_json,
    read_newick_file,
)

_DEFAULT_STEP = 1e-3


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CppgenError(f"{path} is not valid JSON: {exc}") from None


def _load_model(path: str) -> RateModel:
    return rate_model_from_json(_read_json(path))


def _parse_init(spec: str) -> dict:
    """``--init`` as a dict: "lam=1.0,mu=0.2" -> {"lam": 1.0, "mu": 0.2}."""
    init = {}
    for pair in spec.split(","):
        key, _, val = pair.partition("=")
        try:
            init[key] = float(val)
        except ValueError:
            raise CppgenError(
                f"--init takes name=number pairs such as lam=1.0,mu=0.2, not {pair!r}"
            ) from None
    return init


# Replicates per simulation block.  A fixed size, so that the block layout,
# and with it the output, depends on (seed, --reps) only.
SIM_BLOCK = 4096


def _simulated_blocks(draw, reps: int, seed: int) -> Iterator[TreeBatch]:
    """The blocks of ``reps`` replicates, in order: ``SIM_BLOCK`` each but the
    last, block b drawn by ``draw(n, stream)`` from the b-th split stream of
    ``seed``."""
    streams = RandomStream(seed).split(-(-reps // SIM_BLOCK))
    for b, rng in enumerate(streams):
        yield draw(min(SIM_BLOCK, reps - b * SIM_BLOCK), rng)


def _write_block(fh, batch: TreeBatch, fmt: str, first_rep: int):
    """Write the lines of one block, ``first_rep`` the index of its first
    replicate: Newick with a stem, or CSV rows "rep,index,depth"."""
    if fmt == "newick":
        fh.writelines(newick_chunks(batch, stem=True))
    else:
        fh.writelines(csv_chunks(batch, first_rep))


def cmd_simulate(args) -> int:
    if args.reps < 0:
        raise DomainError(f"--reps must be >= 0, not {args.reps}")
    model = _load_model(args.model)
    scheme = parse_scheme(args.scheme)
    if scheme.variant == "bernoulli" and scheme.y is None:
        raise CppgenError("simulation needs a concrete Bernoulli y")
    if args.forward:
        if scheme.variant != "full":
            raise CppgenError(f"--forward simulates the full scheme only, not {scheme.describe()}")

        def draw(n, rng):
            return TreeBatch.from_trees(simulate_forward(model, rng) for _ in range(n))

    else:
        F = tail_for(model, args.step, solve=solve_F)
        if scheme.variant == "bernoulli":
            F = F.thinned(scheme.y)
        if scheme.variant == "uniform_k":
            MixtureParams.from_tail(F, scheme.k)  # DomainError for a degenerate F(T)

            def draw(n, rng):
                return definetti_sample_many(F, scheme.k, n, rng)[1]

        else:
            check_expected_tips(F, args.reps)

            def draw(n, rng):
                return simulate_cpp_many(F, n, rng)

    with _output(args.out) as fh:
        if args.format == "csv":
            fh.write("rep,index,depth\n")
        first_rep = 0
        for batch in _simulated_blocks(draw, args.reps, args.seed):
            _write_block(fh, batch, args.format, first_rep)
            first_rep += len(batch)
    return 0


def _output(out: Optional[str]):
    """The file ``out`` opened for writing, or stdout (left open)."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8")


def _write_lines(out: Optional[str], lines: List[str]):
    with _output(out) as fh:
        fh.write("".join(line + "\n" for line in lines))


def cmd_likelihood(args) -> int:
    model = _load_model(args.model)
    scheme = parse_scheme(args.scheme)
    trees = read_newick_file(args.tree)
    F = tail_for(model, args.step, solve=solve_F)
    logl = loglik(trees, F, scheme, not args.unoriented)
    payload = {
        "logL": float(logl.sum()),
        "scheme": scheme.describe(),
        "quad_nodes": trapezoid_nodes(trees, F, scheme.k) if scheme.k else None,
        "n_trees": len(trees),
    }
    _write_lines(args.out, [json.dumps(payload)])
    return 0


def cmd_fit(args) -> int:
    scheme = parse_scheme(args.scheme)
    trees = read_newick_file(args.trees)
    bounds = _read_json(args.bounds) if args.bounds else None
    init = _parse_init(args.init) if args.init else None
    result = fit_mle(trees, scheme, bounds=bounds, init=init)
    _write_lines(args.out, [json.dumps(result.to_json())])
    return 0


def cmd_validate(args) -> int:
    from .validate import run_validation

    ok = run_validation(quick=not args.full)
    return 0 if ok else 1


def cmd_dump_f(args) -> int:
    model = _load_model(args.model)
    F = tail_for(model, args.step, solve=solve_F)
    ts = step_grid(model.T, args.step)
    values = F.value(ts)
    if not math.isfinite(values[-1]):
        raise TailOverflowError(f"F(T) is not finite ({values[-1]}): F leaves the float range")
    # One template for the whole grid, as in model.csv_chunks; '%.12g' % x
    # is format(x, '.12g') for every float.
    rows = np.column_stack((ts, values)).ravel().tolist()
    with _output(args.out) as fh:
        fh.write("t,F\n" + "%.12g,%.12g\n" * len(ts) % tuple(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cppgen",
        description="Simulation and likelihoods for sampled branching-process genealogies",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate sampled genealogies")
    sim.add_argument("--model", required=True, help="model JSON path")
    sim.add_argument("--scheme", required=True, help="full | bernoulli:<y> | k:<int>")
    sim.add_argument("--reps", type=int, default=1)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", default=None, help="output path (default stdout)")
    sim.add_argument("--format", choices=("newick", "csv"), default="newick")
    sim.add_argument("--step", type=float, default=_DEFAULT_STEP, help="solver grid step")
    sim.add_argument(
        "--forward",
        action="store_true",
        help="use the forward event-by-event simulator (full scheme only)",
    )
    sim.add_argument("--workers", type=int, default=None, help="ignored; accepted for old scripts")
    sim.set_defaults(func=cmd_simulate)

    lik = sub.add_parser("likelihood", help="log-likelihood of Newick trees")
    lik.add_argument("--tree", required=True, help="Newick file, one tree per line")
    lik.add_argument("--model", required=True)
    lik.add_argument("--scheme", required=True)
    lik.add_argument("--unoriented", action="store_true")
    lik.add_argument("--quad-nodes", type=int, help="ignored; accepted for old scripts")
    lik.add_argument("--step", type=float, default=_DEFAULT_STEP)
    lik.add_argument("--out", default=None)
    lik.set_defaults(func=cmd_likelihood)

    fit = sub.add_parser("fit", help="maximum-likelihood fit of constant rates")
    fit.add_argument("--trees", required=True)
    fit.add_argument("--scheme", required=True)
    fit.add_argument("--bounds", default=None, help="bounds JSON path")
    fit.add_argument("--init", default=None, help="e.g. lam=1.0,mu=0.2")
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=cmd_fit)

    val = sub.add_parser("validate", help="run the oracle cross-check suites")
    tier = val.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", default=True)
    tier.add_argument("--full", action="store_true", default=False)
    val.set_defaults(func=cmd_validate)

    dump = sub.add_parser("dump-f", help="dump F on the --step grid as CSV")
    dump.add_argument("--model", required=True)
    dump.add_argument("--step", type=float, default=_DEFAULT_STEP)
    dump.add_argument("--out", default=None)
    dump.set_defaults(func=cmd_dump_f)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; version/help exit 0
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CppgenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
