"""Command-line surface: simulate, likelihood, fit, validate, dump-f.

Stochastic subcommands require ``--seed`` and are bit-reproducible from
(seed, config): replicates are generated from per-replicate split streams,
so worker count never changes the output.  ``CPPGEN_THREADS`` (or
``--workers``) sizes the simulation worker pool.

Each command builds the model's inverse tail F once (``kernel.tail_for``);
``simulate`` hands it to its pool workers once each, through the pool
initializer.  ``solve_F`` is passed to ``tail_for`` under this module's
name, so code that patches ``cli.solve_F`` (tests, tracers) sees the solve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

from . import __version__
from .cpp import RandomStream, simulate_cpp, simulate_forward, thinned_inverse_tail
from .errors import CppgenError
from .inference import fit_mle, neg_log_likelihood
from .kernel import solve_F, step_grid, tail_for
from .ksample import definetti_sample, loglik
# Not called here; kept importable because perfbench/tracer.py patches them by module.
from .ksample import bernoulli_loglikelihood, full_loglikelihood, ksample_loglikelihood  # noqa: F401
from .model import (
    RateModel,
    SamplingScheme,
    parse_scheme,
    rate_model_from_json,
    read_newick_file,
    tree_to_newick,
    write_depths_csv,
)
from .validate import run_validation

_DEFAULT_STEP = 1e-3


def _load_model(path: str) -> RateModel:
    with open(path, encoding="utf-8") as fh:
        return rate_model_from_json(json.load(fh))


def _workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get("CPPGEN_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# The per-command simulation job (F, k, forward model) in a pool worker.
_JOB = None


def _init_worker(job):
    global _JOB
    _JOB = job


def _simulate_pooled(seq):
    return _simulate_one(seq, *_JOB)


def _simulate_one(seq, F, k, forward_model):
    """One replicate from split stream ``seq``: a CPP tree from ``F`` (a
    de Finetti k-sample when ``k`` is set), or a forward run of
    ``forward_model`` when that is set."""
    rng = RandomStream(seq)
    if forward_model is not None:
        tree = simulate_forward(forward_model, rng)
    elif k is None:
        tree = simulate_cpp(F, rng)
    else:
        _, tree = definetti_sample(F, k, rng)
    return tree.height, tree.depths


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    scheme = parse_scheme(args.scheme)
    if scheme.variant == "bernoulli" and scheme.y is None:
        raise CppgenError("simulation needs a concrete Bernoulli y")
    if args.forward:
        if scheme.variant != "full":
            raise CppgenError(f"--forward simulates the full scheme only, not {scheme.describe()}")
        job = (None, None, model)
    else:
        F = tail_for(model, args.step, solve=solve_F)
        if scheme.variant == "bernoulli":
            F = thinned_inverse_tail(F, scheme.y)
        job = (F, scheme.k if scheme.variant == "uniform_k" else None, None)
    seqs = [s._seq for s in RandomStream(args.seed).split(args.reps)]
    workers = _workers(args)
    if workers > 1 and args.reps > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(job,)
        ) as pool:
            results = list(pool.map(_simulate_pooled, seqs, chunksize=32))
    else:
        results = [_simulate_one(seq, *job) for seq in seqs]
    from .model import OrientedUltrametricTree

    trees = [OrientedUltrametricTree(height=h, depths=d) for h, d in results]
    if args.format == "newick":
        lines = [tree_to_newick(t, stem=True) for t in trees]
        _write_lines(args.out, lines)
    else:
        if args.out is None:
            sys.stdout.write("rep,index,depth\n")
            for rep, t in enumerate(trees):
                for i, d in enumerate(t.depths):
                    sys.stdout.write(f"{rep},{i},{format(d, '.12g')}\n")
        else:
            write_depths_csv(args.out, trees)
    return 0


def _write_lines(out: Optional[str], lines: List[str]):
    if out is None:
        for line in lines:
            sys.stdout.write(line + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))


def cmd_likelihood(args) -> int:
    model = _load_model(args.model)
    scheme = parse_scheme(args.scheme)
    trees = read_newick_file(args.tree)
    F = tail_for(model, args.step, solve=solve_F)
    logl = loglik(trees, F, scheme, not args.unoriented, quad_nodes=args.quad_nodes)
    payload = {
        "logL": float(logl.sum()),
        "scheme": scheme.describe(),
        "quad_nodes": args.quad_nodes if scheme.variant == "uniform_k" else None,
        "n_trees": len(trees),
    }
    _write_lines(args.out, [json.dumps(payload)])
    return 0


def cmd_fit(args) -> int:
    scheme = parse_scheme(args.scheme)
    trees = read_newick_file(args.trees)
    bounds = None
    if args.bounds:
        with open(args.bounds, encoding="utf-8") as fh:
            raw = json.load(fh)
        bounds = {key: tuple(val) for key, val in raw.items()}
    init = None
    if args.init:
        init = dict(pair.split("=") for pair in args.init.split(","))
        init = {key: float(val) for key, val in init.items()}
    result = fit_mle(trees, scheme, bounds=bounds, init=init)
    _write_lines(args.out, [json.dumps(result.to_json())])
    return 0


def cmd_validate(args) -> int:
    ok = run_validation(quick=not args.full)
    return 0 if ok else 1


def cmd_dump_f(args) -> int:
    model = _load_model(args.model)
    F = tail_for(model, args.step, solve=solve_F)
    ts = step_grid(model.T, args.step)
    lines = ["t,F"] + [
        f"{format(t, '.12g')},{format(v, '.12g')}" for t, v in zip(ts, F.value(ts))
    ]
    _write_lines(args.out, lines)
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
    sim.add_argument("--workers", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    lik = sub.add_parser("likelihood", help="log-likelihood of Newick trees")
    lik.add_argument("--tree", required=True, help="Newick file, one tree per line")
    lik.add_argument("--model", required=True)
    lik.add_argument("--scheme", required=True)
    lik.add_argument("--unoriented", action="store_true")
    lik.add_argument("--quad-nodes", type=int, default=64)
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
    except CppgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
