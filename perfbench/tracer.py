"""Span tracer that wraps cppgen's public functions from the outside.

Each wrapped call records a span ``[name, start, end, parent, work]`` in
memory; ``work`` is a count taken from the call (targets inverted, points
evaluated, trees read, ...).  A span's self time is its duration minus the
part of it that its direct children cover.

Functions are patched under the name each calling module uses, so the
program itself is unchanged.  Spans are recorded in the tracing process
only: pool workers forked from it run the wrappers as plain pass-throughs.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self._pid = os.getpid()

    def wrap(self, owner, attr: str, name: str, work: Optional[Callable] = None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``work(args, kwargs, result)`` gives the span's work count; it runs
        after the span has ended.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock, pid = self.spans, self._stack, time.perf_counter, self._pid

        def wrapper(*args, **kwargs):
            if os.getpid() != pid:  # a forked pool worker: its spans would be lost
                return orig(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[4] = work(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def _size(x) -> int:
    return int(np.size(x))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of cppgen (cli, cpp, kernel, ksample,
    inference, model) and numpy's ``leggauss``."""
    import numpy.polynomial.legendre as legendre

    from cppgen import cli, cpp, inference, kernel, ksample

    w = tracer.wrap
    w(cli, "cmd_simulate", "cli.simulate")
    w(cli, "cmd_likelihood", "cli.likelihood")
    w(cli, "cmd_fit", "cli.fit")
    w(cli, "cmd_dump_f", "cli.dump_f")
    w(cpp.RandomStream, "split", "cpp.RandomStream.split", lambda a, k, o: len(o))
    w(cli, "simulate_cpp", "cpp.simulate_cpp")
    w(cli, "definetti_sample", "cpp.definetti_sample")
    model_key = lambda a, k, o: repr((a[0], a[1]))  # noqa: E731
    w(cli, "solve_F", "kernel.solve_F", model_key)
    w(inference, "solve_F", "kernel.solve_F", model_key)
    targets = lambda a, k, o: _size(o)  # noqa: E731
    w(cpp, "invert_tail", "kernel.invert_tail", targets)
    w(ksample, "invert_tail", "kernel.invert_tail", targets)
    points = lambda a, k, o: _size(a[1])  # noqa: E731
    for cls in (kernel.ClosedFormTail, kernel.GridTail):
        w(cls, "value", "kernel.tail_eval", points)
        w(cls, "deriv", "kernel.tail_eval", points)
    for mod in (cli, inference):
        w(mod, "full_loglikelihood", "ksample.loglik.full")
        w(mod, "bernoulli_loglikelihood", "ksample.loglik.bernoulli")
        w(mod, "ksample_loglikelihood", "ksample.loglik.k")
    w(legendre, "leggauss", "ksample.leggauss", lambda a, k, o: int(a[0]))
    w(inference, "neg_log_likelihood", "inference.nll")
    w(cli, "fit_mle", "inference.fit_mle")
    newick_bytes = lambda a, k, o: (len(o), os.path.getsize(a[0]))  # noqa: E731
    w(cli, "read_newick_file", "model.newick_read", newick_bytes)
    w(cli, "tree_to_newick", "model.newick_write", lambda a, k, o: len(o) + 1)


def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the union of its direct children."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def tail_ms(durations_ms: List[float], permille: int) -> float:
    """Nearest-rank quantile, or 0 when fewer than 10 samples lie beyond it."""
    vals = sorted(durations_ms)
    rank = -(-len(vals) * permille // 1000)  # ceil, in exact arithmetic
    return vals[rank - 1] if rank >= 1 and len(vals) - rank >= 10 else 0.0


# Per-layer metric names, in report order.  Calls that repeat get a median
# and the highest percentile that keeps at least 10 samples beyond it at the
# workloads' call counts (about 900 objective evaluations, 100-200 k-sample
# trees).
LAYER_METRICS = [
    ("cli.simulate.s", "s"), ("cli.simulate.self_s", "s"),
    ("cli.likelihood.s", "s"), ("cli.likelihood.self_s", "s"),
    ("cli.fit.s", "s"), ("cli.dump_f.s", "s"),
    ("cpp.RandomStream.split.calls", "count"), ("cpp.RandomStream.split.s", "s"),
    ("cpp.simulate_cpp.calls", "count"), ("cpp.simulate_cpp.s", "s"),
    ("cpp.simulate_cpp.p50_ms", "ms"),
    ("cpp.definetti_sample.calls", "count"), ("cpp.definetti_sample.s", "s"),
    ("kernel.solve_F.calls", "count"), ("kernel.solve_F.s", "s"),
    ("kernel.solve_F.p50_ms", "ms"), ("kernel.solve_F.useful_ratio", "ratio"),
    ("kernel.invert_tail.calls", "count"), ("kernel.invert_tail.targets", "count"),
    ("kernel.invert_tail.s", "s"),
    ("kernel.tail_eval.calls", "count"), ("kernel.tail_eval.points", "count"),
    ("kernel.tail_eval.s", "s"),
    ("kernel.F_T_relerr", "ratio"),
    ("ksample.loglik.full.calls", "count"), ("ksample.loglik.full.s", "s"),
    ("ksample.loglik.bernoulli.calls", "count"), ("ksample.loglik.bernoulli.s", "s"),
    ("ksample.loglik.k.calls", "count"), ("ksample.loglik.k.s", "s"),
    ("ksample.loglik.k.p50_ms", "ms"), ("ksample.loglik.k.p90_ms", "ms"),
    ("ksample.leggauss.calls", "count"), ("ksample.leggauss.s", "s"),
    ("ksample.quad_nodes", "count"), ("ksample.quad_useful_ratio", "ratio"),
    ("inference.nll.calls", "count"), ("inference.nll.s", "s"),
    ("inference.nll.p50_ms", "ms"), ("inference.nll.p90_ms", "ms"),
    ("inference.fit_mle.s", "s"), ("inference.fit_mle.self_s", "s"),
    ("inference.iterations", "count"),
    ("model.newick_read.trees", "count"), ("model.newick_read.bytes", "bytes"),
    ("model.newick_read.s", "s"),
    ("model.newick_write.trees", "count"), ("model.newick_write.bytes", "bytes"),
    ("model.newick_write.s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
]

# name -> permille of the high percentile (None: median only)
_PERCENTILES = {"cpp.simulate_cpp": None, "kernel.solve_F": None,
                "ksample.loglik.k": 900, "inference.nll": 900}


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Aggregate one traced iteration's spans into the per-layer metrics
    (all except ``kernel.F_T_relerr``, ``inference.iterations`` and
    ``trace.overhead_s``, which come from outputs and untraced runs)."""
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
    m: Dict[str, float] = {}

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name[name])

    for name in ("cli.simulate", "cli.likelihood", "cli.fit", "cli.dump_f",
                 "cpp.RandomStream.split", "cpp.simulate_cpp", "cpp.definetti_sample",
                 "kernel.solve_F", "kernel.invert_tail", "kernel.tail_eval",
                 "ksample.loglik.full", "ksample.loglik.bernoulli", "ksample.loglik.k",
                 "ksample.leggauss", "inference.nll", "inference.fit_mle",
                 "model.newick_read", "model.newick_write"):
        m[f"{name}.calls"] = len(by_name[name])
        m[f"{name}.s"] = total(name)
        m[f"{name}.self_s"] = sum(selfs[i] for i in by_name[name])
    for name, permille in _PERCENTILES.items():
        durs = [(spans[i][2] - spans[i][1]) * 1e3 for i in by_name[name]]
        m[f"{name}.p50_ms"] = statistics.median(durs) if durs else 0.0
        if permille:
            m[f"{name}.p{permille // 10}_ms"] = tail_ms(durs, permille)

    solves = by_name["kernel.solve_F"]
    distinct = len({spans[i][4] for i in solves})
    m["kernel.solve_F.useful_ratio"] = distinct / len(solves) if solves else 0.0
    m["kernel.invert_tail.targets"] = sum(spans[i][4] for i in by_name["kernel.invert_tail"])
    m["kernel.tail_eval.points"] = sum(spans[i][4] for i in by_name["kernel.tail_eval"])

    # Quadrature: per calling span, only the last node set is the one whose
    # value is returned; earlier sets were evaluated to test convergence.
    nodes_by_parent: Dict[int, List[int]] = defaultdict(list)
    for i in by_name["ksample.leggauss"]:
        nodes_by_parent[spans[i][3]].append(spans[i][4])
    all_nodes = sum(sum(v) for v in nodes_by_parent.values())
    m["ksample.quad_nodes"] = all_nodes
    m["ksample.quad_useful_ratio"] = (
        sum(v[-1] for v in nodes_by_parent.values()) / all_nodes if all_nodes else 0.0
    )
    reads = [spans[i][4] for i in by_name["model.newick_read"]]
    m["model.newick_read.trees"] = sum(r[0] for r in reads)
    m["model.newick_read.bytes"] = sum(r[1] for r in reads)
    m["model.newick_write.trees"] = len(by_name["model.newick_write"])
    m["model.newick_write.bytes"] = sum(spans[i][4] for i in by_name["model.newick_write"])
    m["trace.spans"] = len(spans)
    return m
