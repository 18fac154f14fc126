"""Host-speed reference: a fixed slice of work timed next to each command.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more over tens of seconds, for all code alike (the slowdown is in
user time, not in waiting).  So next to every measured command the study
times this reference slice, which does not touch cppgen, and reports the
command's time scaled to a host on which the slice takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / mean(slice before, slice after)

A change to cppgen moves the measured time and not the slice, so it shows in
full; a change in the host's speed moves both and cancels.  ``REFERENCE_S``
is about the slice's time on an idle core of the 2-vCPU Xeon the baseline
was recorded on, so scaled times read as seconds on that host.
"""

from __future__ import annotations

import time

import numpy as np

import gen

REFERENCE_S = 0.015
_TREES = list(np.random.default_rng(0).random((600, 4)) * 2.0)


def reference() -> float:
    """Time of one slice: Newick formatting and per-tree numpy work, the
    mix cppgen's commands are made of."""
    t0 = time.perf_counter()
    text = "".join(gen.tree_newick(d, 2.0) for d in _TREES)
    for d in _TREES:
        gen.loglik_const([d], 1.0, 0.5, 2.0)
    elapsed = time.perf_counter() - t0
    assert len(text) > len(_TREES)
    return elapsed


def scale(measured: float, before: float, after: float) -> float:
    """``measured`` seconds on a host where the slice takes ``REFERENCE_S``."""
    return measured * REFERENCE_S / (0.5 * (before + after))
