"""Seed-driven study inputs and closed-form oracles, independent of cppgen.

Everything here is plain numpy so the benchmark's inputs and reference
values do not depend on the code being measured:

* a constant-rate coalescent-point-process sampler (full, Bernoulli and
  uniform k-sample trees) using the exact inverse tail
  ``t = log1p((F - 1) r / lam) / r``;
* a Newick writer that prints edge lengths at full ``repr`` precision;
* the closed-form full/Bernoulli log-likelihood of oriented trees;
* the exact inverse tail ``F`` of a piecewise-constant time-varying model,
  and the full log-likelihood of oriented trees under it.
"""

from __future__ import annotations

import math

import numpy as np


def F_const(lam: float, mu: float, t, y: float = 1.0):
    """Bernoulli-thinned constant-rate inverse tail ``1 - y + y F(t)``."""
    r = lam - mu
    t = np.asarray(t, dtype=float)
    base = 1.0 + lam * t if r == 0.0 else 1.0 + (lam / r) * np.expm1(r * t)
    return 1.0 - y + y * base


def dF_const(lam: float, mu: float, t, y: float = 1.0):
    return y * lam * np.exp((lam - mu) * np.asarray(t, dtype=float))


def inv_F_const(lam: float, mu: float, F):
    """Exact inverse of the unthinned tail: ``t`` with ``F(t) = F``."""
    r = lam - mu
    F = np.asarray(F, dtype=float)
    if r == 0.0:
        return (F - 1.0) / lam
    return np.log1p((F - 1.0) * r / lam) / r


def _conditional_depths(lam, mu, T, y, n, rng):
    """``n`` iid depths of ``H_y`` given ``H_y < T``, per-element ``y``."""
    y = np.broadcast_to(np.asarray(y, dtype=float), (n,))
    FyT = F_const(lam, mu, T, y)
    c = 1.0 - 1.0 / FyT  # P(H_y < T)
    Fy = 1.0 / (1.0 - c * rng.random(n))
    return inv_F_const(lam, mu, (Fy - 1.0 + y) / y)


def sample_cpp_trees(lam, mu, T, reps, rng, y: float = 1.0):
    """Full (``y=1``) or Bernoulli-sampled reduced trees as depth arrays.

    Each tip count is geometric with mean ``F_y(T)``; the ``n - 1`` node
    depths are iid ``H_y`` conditioned below ``T``.  Tip counts are drawn by
    stratified inversion (one uniform in each slice of width ``1/reps``, in
    random order), so the total work in a file hardly depends on the seed.
    """
    p = 1.0 / float(F_const(lam, mu, T, y))
    u = (rng.permutation(reps) + rng.random(reps)) / reps
    tips = np.maximum(1, np.ceil(np.log1p(-u) / math.log1p(-p))).astype(int)
    flat = _conditional_depths(lam, mu, T, y, int(tips.sum() - reps), rng)
    cuts = np.cumsum(tips - 1)[:-1]
    return np.split(flat, cuts)


def sample_k_trees(lam, mu, T, k, reps, rng):
    """Uniform k-sample trees by the two-stage (de Finetti) draw.

    ``y`` comes from the mixing law with CDF ``(y / (1 - a(1 - y)))^k``,
    then ``k - 1`` iid depths of ``H_y`` below ``T``.
    """
    a = 1.0 - 1.0 / float(F_const(lam, mu, T))
    v = rng.random(reps) ** (1.0 / k)
    ys = v * (1.0 - a) / (1.0 - a * v)
    ys = np.repeat(ys, k - 1)
    flat = _conditional_depths(lam, mu, T, ys, reps * (k - 1), rng)
    return list(flat.reshape(reps, k - 1))


def tree_newick(depths, T: float) -> str:
    """Stemmed Newick of the plane tree with these node depths (iterative).

    The subtree on tips ``lo..hi`` splits at its deepest node; edge lengths
    are printed with ``repr`` so parsing gives the depths back to rounding.
    """
    d = [float(x) for x in depths]
    if not d:
        return f"0:{T!r};"
    out = []
    # ("node", lo, hi, top) renders a subtree; a string is emitted as is.
    stack = [("node", 0, len(d), T)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        _, lo, hi, top = item
        if lo == hi:
            out.append(f"{lo}:{top!r}")
            continue
        seg = d[lo:hi]
        j = lo + seg.index(max(seg))
        h = d[j]
        stack.append(f"):{top - h!r}")
        stack.append(("node", j + 1, hi, h))
        stack.append(",")
        stack.append(("node", lo, j, h))
        out.append("(")
    return "".join(out) + ";"


def write_newick(path, trees, T: float) -> int:
    """Write one tree per line; returns the number of bytes written."""
    text = "".join(tree_newick(d, T) + "\n" for d in trees)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode())


def loglik_const(trees, lam, mu, T, y: float = 1.0) -> float:
    """Oriented full/Bernoulli log-likelihood, ``-log F_y(T) + sum log f_y``."""
    flat = np.concatenate([np.asarray(d, dtype=float) for d in trees] + [np.empty(0)])
    logf = np.log(dF_const(lam, mu, flat, y)) - 2.0 * np.log(F_const(lam, mu, flat, y))
    return -len(trees) * math.log(float(F_const(lam, mu, T, y))) + float(logf.sum())


def _tv_pieces(breaks, lam_values, mu: float, T: float, t):
    """Per piece ``i``: ``lam_i``, ``r_i = lam_i - mu``, ``G_i = int_{b_i}^T
    (lam - mu)`` and the length ``w_i(t)`` of ``[a_i, b_i]`` above ``T - t``."""
    edges = np.append(np.asarray(breaks, dtype=float), T)
    a, b = edges[:-1], edges[1:]
    lam = np.asarray(lam_values, dtype=float)
    r = lam - mu
    G = np.concatenate([np.cumsum((r * (b - a))[::-1])[::-1][1:], [0.0]])
    s = T - np.asarray(t, dtype=float)[..., None]
    w = np.clip(b - np.maximum(a, s), 0.0, None)
    return lam, r, G, w


def F_time_varying(breaks, lam_values, mu: float, T: float, t):
    """Exact ``F(t) = 1 + int_{T-t}^T lam(s) exp(int_s^T (lam - mu)) ds``.

    ``lam`` is piecewise constant with left edges ``breaks``; ``mu`` is
    constant.  The integral is a sum of exponentials, one per piece.
    """
    lam, r, G, w = _tv_pieces(breaks, lam_values, mu, T, t)
    safe_r = np.where(r == 0.0, 1.0, r)
    grow = np.where(r == 0.0, w, np.expm1(r * w) / safe_r)
    out = 1.0 + (lam * np.exp(G) * grow).sum(axis=-1)
    return out if out.ndim else float(out)


def dF_time_varying(breaks, lam_values, mu: float, T: float, t):
    """``F'(t) = lam(T - t) exp(int_{T-t}^T (lam - mu))``."""
    lam, r, G, w = _tv_pieces(breaks, lam_values, mu, T, t)
    piece = np.argmax(w > 0.0, axis=-1)  # the first piece ending above T - t (t > 0)
    out = lam[piece] * np.exp((r * w).sum(axis=-1))
    return out if np.ndim(out) else float(out)


def loglik_time_varying(trees, breaks, lam_values, mu: float, T: float) -> float:
    """Oriented full log-likelihood, ``-log F(T) + sum log F'/F^2`` per tree."""
    flat = np.concatenate([np.asarray(d, dtype=float) for d in trees] + [np.empty(0)])
    F = F_time_varying(breaks, lam_values, mu, T, flat)
    dF = dF_time_varying(breaks, lam_values, mu, T, flat)
    FT = F_time_varying(breaks, lam_values, mu, T, T)
    return -len(trees) * math.log(FT) + float((np.log(dF) - 2.0 * np.log(F)).sum())
