"""Command-line surface: simulate, likelihood, fit, validate, dump-f.

Stochastic subcommands require ``--seed`` and are bit-reproducible from
(seed, config).  ``simulate`` draws its replicates in blocks of
``SIM_BLOCK``: the seed is split into one stream per block, each block is
one batched draw into a :class:`~cppgen.model.TreeBatch`, and its lines are
written before the next block is drawn, so memory holds about one block
at a time (one more per pool worker).  ``--forward`` runs are not batched
and come in blocks of ``FORWARD_BLOCK``.  The blocks depend on ``--reps``
only, so the worker count never changes the output.  With two blocks or
more, ``--workers`` (or ``CPPGEN_THREADS``) above 1 draws the blocks in a
process pool.

Each command builds the model's inverse tail F once (``kernel.tail_for``);
``simulate`` hands it to its pool workers once each, through the pool
initializer.  ``solve_F`` is passed to ``tail_for`` under this module's
name, so code that patches ``cli.solve_F`` (tests, tracers) sees the solve;
likewise Newick lines are written through this module's ``tree_to_newick``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, List, Optional

from . import __version__
from .cpp import (
    RandomStream,
    check_expected_tips,
    simulate_cpp_many,
    simulate_forward,
    thinned_inverse_tail,
)
from .errors import CppgenError
from .inference import fit_mle, neg_log_likelihood
from .kernel import solve_F, step_grid, tail_for
from .ksample import MixtureParams, definetti_sample_many, loglik
# Not called here; kept importable because perfbench/tracer.py patches them by module.
from .cpp import simulate_cpp  # noqa: F401
from .ksample import bernoulli_loglikelihood, definetti_sample, full_loglikelihood  # noqa: F401
from .ksample import ksample_loglikelihood  # noqa: F401
from .model import (
    RateModel,
    TreeBatch,
    parse_scheme,
    rate_model_from_json,
    read_newick_file,
    tree_to_newick,
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


# Replicates per simulation block.  A fixed size, so that the block layout,
# and with it the output, depends on (seed, --reps) and not on the workers.
SIM_BLOCK = 4096
# Replicates per block of --forward runs.  A forward run is not batched and
# costs from 0.2 ms (F(T) = 4.4) to seconds, so its blocks are small enough
# to spread a few hundred replicates over the pool.
FORWARD_BLOCK = 32

# The per-command simulation job (F, k, forward model) in a pool worker.
_JOB = None


def _init_worker(job):
    global _JOB
    _JOB = job


def _simulate_pooled(block):
    return _simulate_block(_JOB, *block)


def _simulate_block(job, seq, reps: int) -> TreeBatch:
    """``reps`` replicates from split stream ``seq``: one batched draw of CPP
    trees from ``F`` (de Finetti k-samples when ``k`` is set), or forward
    runs of ``forward_model`` one after another when that is set."""
    F, k, forward_model = job
    rng = RandomStream(seq)
    if forward_model is not None:
        return TreeBatch.from_trees(simulate_forward(forward_model, rng) for _ in range(reps))
    if k is None:
        return simulate_cpp_many(F, reps, rng)
    return definetti_sample_many(F, k, reps, rng)[1]


def _simulated_blocks(job, reps: int, seed: int, workers: int) -> Iterator[TreeBatch]:
    """The blocks of ``reps`` replicates, in order: ``FORWARD_BLOCK``
    replicates each for forward runs, else ``SIM_BLOCK``.  With two blocks or
    more and ``workers`` > 1 they are drawn in a pool, at most ``workers``
    ahead of the block being consumed."""
    size = FORWARD_BLOCK if job[2] is not None else SIM_BLOCK
    n_blocks = -(-reps // size)
    streams = RandomStream(seed).split(n_blocks)
    blocks = [(s._seq, min(size, reps - b * size)) for b, s in enumerate(streams)]
    if workers < 2 or n_blocks < 2:
        for block in blocks:
            yield _simulate_block(job, *block)
        return
    workers = min(workers, n_blocks)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(job,)
    ) as pool:
        pending = deque()
        for block in blocks:
            pending.append(pool.submit(_simulate_pooled, block))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _block_text(batch: TreeBatch, fmt: str, first_rep: int) -> str:
    """The output lines of one block, ``first_rep`` the index of its first
    replicate: Newick with a stem, or CSV rows "rep,index,depth"."""
    if fmt == "newick":
        lines = [tree_to_newick(tree, stem=True) for tree in batch]
    else:
        lines = [
            f"{first_rep + r},{i},{format(d, '.12g')}"
            for r, tree in enumerate(batch)
            for i, d in enumerate(tree.depths)
        ]
    return "".join(line + "\n" for line in lines)


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
        if scheme.variant == "uniform_k":
            MixtureParams.from_tail(F, scheme.k)  # DomainError for a degenerate F(T)
            job = (F, scheme.k, None)
        else:
            check_expected_tips(F, args.reps)
            job = (F, None, None)
    with _output(args.out) as fh:
        if args.format == "csv":
            fh.write("rep,index,depth\n")
        first_rep = 0
        for batch in _simulated_blocks(job, args.reps, args.seed, _workers(args)):
            fh.write(_block_text(batch, args.format, first_rep))
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
