"""Domain types: rate models, oriented ultrametric trees, sampling schemes.

Trees are stored in their coalescent-point-process-native form, i.e. as the
ordered sequence of node depths between consecutive tips.  The topology is
never stored; it is reconstructed on demand by the running-max rule: the
coalescence time of tips ``i < j`` is ``max(depths[i:j])``.  Many trees (a
Newick file) form one :class:`TreeBatch`, a ragged array of depths.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DomainError,
    ModelError,
    NewickError,
    NonBinaryError,
    NonUltrametricError,
    SchemeError,
)

__all__ = [
    "PiecewiseConstant",
    "AgeDependentRate",
    "DeathCell",
    "RateModel",
    "OrientedUltrametricTree",
    "TreeBatch",
    "SamplingScheme",
    "parse_scheme",
    "tree_to_newick",
    "newick_to_tree",
    "count_cherries",
    "rate_model_from_json",
    "rate_model_to_json",
    "read_newick_file",
    "write_newick_file",
]


# ---------------------------------------------------------------------------
# Rate specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseConstant:
    """A piecewise-constant rate on [0, T].

    ``breaks`` are the left edges of the pieces; ``breaks[0]`` must be 0 and
    the last piece extends to the model horizon.  A constant rate is the
    single-piece special case.
    """

    breaks: tuple
    values: tuple

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)
        if len(breaks) != len(values) or not breaks:
            raise ModelError("breaks and values must have equal, positive length")
        if breaks[0] != 0.0:
            raise ModelError("first breakpoint must be 0")
        if any(b1 <= b0 for b0, b1 in zip(breaks, breaks[1:])):
            raise ModelError("breakpoints must be strictly increasing")
        if any(v < 0 for v in values):
            raise ModelError("rate values must be >= 0")

    @classmethod
    def constant(cls, value: float) -> "PiecewiseConstant":
        return cls((0.0,), (value,))

    @property
    def is_constant(self) -> bool:
        return len(self.values) == 1

    @property
    def max(self) -> float:
        return max(self.values)

    def __call__(self, t, side: str = "right"):
        """Rate at time t; ``side="left"`` returns the limit from below at
        breakpoints (the two coincide elsewhere)."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, t, side=side) - 1, 0, None)
        out = np.asarray(self.values)[idx]
        return out if out.ndim else float(out)

    def integral(self, t0, t1):
        """Exact integral over [t0, t1] (t1 may be an array)."""
        cum = self._cumulative()
        return self._cum_at(cum, t1) - self._cum_at(cum, t0)

    def _cumulative(self):
        breaks = np.asarray(self.breaks)
        vals = np.asarray(self.values)
        cum = np.zeros(len(breaks))
        if len(breaks) > 1:
            cum[1:] = np.cumsum(vals[:-1] * np.diff(breaks))
        return cum

    def _cum_at(self, cum, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, None)
        breaks = np.asarray(self.breaks)
        vals = np.asarray(self.values)
        out = cum[idx] + vals[idx] * (t - breaks[idx])
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class AgeDependentRate:
    """A death rate piecewise constant on a rectangular (time, age) grid."""

    t_breaks: tuple
    x_breaks: tuple
    values: tuple  # row i = time cell i, column j = age cell j

    def __post_init__(self):
        tb = tuple(float(b) for b in self.t_breaks)
        xb = tuple(float(b) for b in self.x_breaks)
        vals = tuple(tuple(float(v) for v in row) for row in self.values)
        object.__setattr__(self, "t_breaks", tb)
        object.__setattr__(self, "x_breaks", xb)
        object.__setattr__(self, "values", vals)
        if tb[0] != 0.0 or xb[0] != 0.0:
            raise ModelError("time and age grids must start at 0")
        if any(b1 <= b0 for b0, b1 in zip(tb, tb[1:])) or any(
            b1 <= b0 for b0, b1 in zip(xb, xb[1:])
        ):
            raise ModelError("breakpoints must be strictly increasing")
        if len(vals) != len(tb) or any(len(row) != len(xb) for row in vals):
            raise ModelError("values grid shape must match breakpoints")
        if any(v < 0 for row in vals for v in row):
            raise ModelError("rate values must be >= 0")

    @property
    def max(self) -> float:
        return max(v for row in self.values for v in row)

    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        ti = np.clip(np.searchsorted(self.t_breaks, t, side="right") - 1, 0, None)
        xi = np.clip(np.searchsorted(self.x_breaks, x, side="right") - 1, 0, None)
        out = np.asarray(self.values)[ti, xi]
        return out if out.ndim else float(out)


DeathRate = Union[PiecewiseConstant, AgeDependentRate]


class DeathCell(NamedTuple):
    """The death rate on one time cell [start, end) as a function of age.

    ``by_age`` is the age hazard h(x) of the cell; its ``integral(0, x)`` is
    the exact cumulative hazard H(x).
    """

    start: float
    end: float
    by_age: PiecewiseConstant


@dataclass(frozen=True)
class RateModel:
    """Birth rate lambda(t), death rate mu(t, x), and horizon T.

    ``kind`` is one of ``constant``, ``time_varying``, ``age_dependent`` and
    only records how the model was specified; evaluation always goes through
    the piecewise-constant machinery.
    """

    kind: str
    lam: PiecewiseConstant
    mu: DeathRate
    T: float

    def __post_init__(self):
        if self.kind not in ("constant", "time_varying", "age_dependent"):
            raise ModelError(f"unknown model kind {self.kind!r}")
        if not (self.T > 0):
            raise ModelError("T must be > 0")
        for breaks in self._all_breaks():
            if breaks[-1] >= self.T:
                raise ModelError("breakpoints must lie strictly inside [0, T)")

    def _all_breaks(self):
        yield self.lam.breaks
        if isinstance(self.mu, PiecewiseConstant):
            yield self.mu.breaks
        else:
            yield self.mu.t_breaks

    @classmethod
    def constant(cls, lam: float, mu: float, T: float) -> "RateModel":
        return cls(
            "constant", PiecewiseConstant.constant(lam), PiecewiseConstant.constant(mu), T
        )

    @classmethod
    def time_varying(cls, lam: PiecewiseConstant, mu: PiecewiseConstant, T: float):
        return cls("time_varying", lam, mu, T)

    @classmethod
    def age_dependent(cls, lam: PiecewiseConstant, mu: AgeDependentRate, T: float):
        return cls("age_dependent", lam, mu, T)

    # -- accessors ---------------------------------------------------------

    @property
    def lambda_constant(self) -> float:
        if not self.lam.is_constant:
            raise ModelError("birth rate is not constant")
        return self.lam.values[0]

    @property
    def mu_constant(self) -> float:
        if not (isinstance(self.mu, PiecewiseConstant) and self.mu.is_constant):
            raise ModelError("death rate is not constant")
        return self.mu.values[0]

    @property
    def net_rate(self) -> float:
        """r = lambda - mu, defined for constant models only."""
        return self.lambda_constant - self.mu_constant

    def birth_rate(self, t):
        return self.lam(t)

    @property
    def birth_rate_max(self) -> float:
        return self.lam.max

    def death_rate(self, t, x):
        if isinstance(self.mu, PiecewiseConstant):
            return self.mu(t)
        return self.mu(t, x)

    @property
    def death_rate_max(self) -> float:
        return self.mu.max

    def death_cells(self) -> Tuple[DeathCell, ...]:
        """The death rate as one age hazard per time cell; the last cell ends
        at T.  Age-independent death has one age piece per cell."""
        mu = self.mu
        if isinstance(mu, PiecewiseConstant):
            starts = mu.breaks
            by_age = [PiecewiseConstant.constant(v) for v in mu.values]
        else:
            starts = mu.t_breaks
            by_age = [PiecewiseConstant(mu.x_breaks, row) for row in mu.values]
        ends = starts[1:] + (self.T,)
        return tuple(DeathCell(*cell) for cell in zip(starts, ends, by_age))


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrientedUltrametricTree:
    """Plane oriented ultrametric tree of height ``height``.

    ``depths[i]`` is the coalescence time between tip ``i`` and tip ``i+1``
    (tips are labelled 0..N-1 left to right).  A single-tip tree has an
    empty depth sequence.
    """

    height: float
    depths: tuple = ()

    def __post_init__(self):
        depths = tuple(float(d) for d in self.depths)
        object.__setattr__(self, "depths", depths)
        if not (self.height > 0):
            raise DomainError("height must be > 0")
        if any(not (0.0 < d < self.height) for d in depths):
            raise DomainError("all node depths must lie strictly in (0, height)")

    @property
    def n_tips(self) -> int:
        return len(self.depths) + 1

    def coalescence_time(self, i: int, j: int) -> float:
        """Coalescence time of tips i < j: the running max of depths i..j-1."""
        if not (0 <= i < j < self.n_tips):
            raise DomainError("tip indices out of range")
        return max(self.depths[i:j])


@dataclass(frozen=True, eq=False)
class TreeBatch:
    """Trees as one ragged array of node depths: a Newick file, or a
    simulated block of replicates.

    Tree ``r`` has height ``heights[r]`` and depths
    ``depths[offsets[r]:offsets[r + 1]]``; a single-tip tree has an empty
    segment.  The arrays are read-only copies.  Iterating yields the trees
    as :class:`OrientedUltrametricTree`.
    """

    heights: np.ndarray
    offsets: np.ndarray
    depths: np.ndarray

    def __post_init__(self):
        heights = np.array(self.heights, dtype=float)
        offsets = np.array(self.offsets, dtype=np.int64)
        depths = np.array(self.depths, dtype=float)
        if (
            heights.ndim != 1
            or depths.ndim != 1
            or offsets.shape != (len(heights) + 1,)
            or offsets[0] != 0
            or offsets[-1] != len(depths)
            or np.any(np.diff(offsets) < 0)
        ):
            raise DomainError(
                "offsets must rise from 0 to len(depths), one more than the heights"
            )
        if not np.all(heights > 0):
            raise DomainError("height must be > 0")
        if depths.size and not np.all(
            (depths > 0.0) & (depths < np.repeat(heights, np.diff(offsets)))
        ):
            raise DomainError("all node depths must lie strictly in (0, height)")
        for name, arr in (("heights", heights), ("offsets", offsets), ("depths", depths)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_trees(cls, trees: Iterable[OrientedUltrametricTree]) -> "TreeBatch":
        trees = list(trees)
        offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        np.cumsum([len(t.depths) for t in trees], out=offsets[1:])
        depths = [d for t in trees for d in t.depths]
        return cls([t.height for t in trees], offsets, depths)

    def __len__(self) -> int:
        return len(self.heights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeBatch):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("heights", "offsets", "depths")
        )

    def __iter__(self) -> Iterator[OrientedUltrametricTree]:
        depths = self.depths.tolist()
        bounds = self.offsets.tolist()
        for r, height in enumerate(self.heights.tolist()):
            yield OrientedUltrametricTree(height, tuple(depths[bounds[r] : bounds[r + 1]]))

    @property
    def n_tips(self) -> np.ndarray:
        return np.diff(self.offsets) + 1

    def tree_sums(self, values) -> np.ndarray:
        """Sum of ``values`` (one per depth) over each tree; 0 for single tips."""
        index = np.repeat(np.arange(len(self)), np.diff(self.offsets))
        return np.bincount(index, weights=values, minlength=len(self))

    @property
    def cherries(self) -> np.ndarray:
        """Cherry count of each tree.

        Node ``i`` joins tips ``i`` and ``i+1`` directly exactly when no node
        hangs below it on either side: its left neighbour (if any) is at
        least as deep and its right neighbour (if any) strictly deeper, by
        the running-max rule with the first deepest node as the root.
        """
        d = self.depths
        lo, hi = self.offsets[:-1], self.offsets[1:]
        full = hi > lo
        left = np.ones(len(d), dtype=bool)
        left[1:] = d[:-1] >= d[1:]
        left[lo[full]] = True
        right = np.ones(len(d), dtype=bool)
        right[:-1] = d[1:] > d[:-1]
        right[hi[full] - 1] = True
        return self.tree_sums(left & right).astype(np.int64)


def count_cherries(tree: OrientedUltrametricTree) -> int:
    """Number of tip pairs whose MRCA has exactly those two descendants."""
    return int(TreeBatch.from_trees([tree]).cherries[0])


# ---------------------------------------------------------------------------
# Newick serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _children(depths: Sequence[float]):
    """The tree coded by ``depths`` as ``(left, right, root)`` over its nodes.

    Node ``i`` sits between tips ``i`` and ``i+1``; by the running-max rule
    the first deepest node of a segment is the segment's root.  A child of
    -1 is a tip: tip ``i`` on the left, tip ``i+1`` on the right.  Built in
    one pass with a stack of the rightmost path, so a caterpillar costs no
    more than a balanced tree.
    """
    left = [-1] * len(depths)
    right = [-1] * len(depths)
    path: List[int] = []
    for i, d in enumerate(depths):
        below = -1
        while path and depths[path[-1]] < d:
            below = path.pop()
        left[i] = below
        if path:
            right[path[-1]] = i
        path.append(i)
    return left, right, path[0]


def tree_to_newick(tree: OrientedUltrametricTree, stem: bool = False) -> str:
    """Render the tree reconstructed from its depths as a Newick string.

    Tips are labelled 0..N-1 left to right.  With ``stem=True`` a root edge
    of length ``height - max(depths)`` is prepended.  A single tip is always
    rendered with its full pendant edge (the height would be lost otherwise).
    """
    d = tree.depths
    if not d:
        return f"0:{_fmt(tree.height)};"
    left, right, root = _children(d)
    out = []
    # A stack of node indices still to render and literal text to emit.
    todo: list = [f"):{_fmt(tree.height - d[root])};" if stem else ");", root]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        h = d[item]
        out.append("(")
        child = right[item]
        if child < 0:
            todo.append(f"{item + 1}:{_fmt(h)}")
        else:
            todo += (f"):{_fmt(h - d[child])}", child)
        todo.append(",")
        child = left[item]
        if child < 0:
            todo.append(f"{item}:{_fmt(h)}")
        else:
            todo += (f"):{_fmt(h - d[child])}", child)
    return "".join(out)


# Structural characters, or the label-and-length text between them.
_NEWICK_TOKENS = re.compile(r"[(),;]|[^(),;]+")


def _scan_newick(text: str, rtol: float, height: Optional[float]):
    """``(height, depths)`` of one rooted binary ultrametric Newick tree.

    One pass over the tokens, without recursion: nodes are numbered in
    preorder as they open, with their parent and edge length, and tips and
    binary nodes (at their comma) are listed left to right.  Root-to-node
    distances are summed top-down afterwards, once every length is known.
    Syntax errors raise at once; a tip without a length or a non-binary
    node raises after the scan, the first such node in preorder first.
    """
    tokens = _NEWICK_TOKENS.findall(text.strip())
    parent: List[int] = []
    length: List[float] = []
    tips: List[int] = []
    splits: List[int] = []
    stack: List[int] = []  # open internal nodes
    commas: List[int] = []  # commas seen so far in each open node
    faults: list = []  # (node, error)
    at = 0

    def token():
        return tokens[at] if at < len(tokens) else ""

    def fail(msg: str):
        pos = sum(len(t) for t in tokens[:at])
        raise NewickError(f"Newick parse error at position {pos}: {msg}")

    def read_length(node: int, tok: str) -> bool:
        """Store the edge length in a label run; False if it has none."""
        _label, colon, num = tok.partition(":")
        if colon:
            try:
                length[node] = float(num)
            except ValueError:
                fail(f"bad edge length {num!r}")
        return bool(colon)

    done = False
    while not done:
        # A node starts here: an internal node's '(' or a tip's label.
        tok = token()
        node = len(parent)
        parent.append(stack[-1] if stack else -1)
        length.append(0.0)
        if tok == "(":
            stack.append(node)
            commas.append(0)
            at += 1
            continue
        tips.append(node)
        if tok in "(),;":  # also the end of the text
            has_length = False
        else:
            has_length = read_length(node, tok)
            at += 1
        if not has_length:
            faults.append((node, NewickError("tip without edge length")))
        # After a node: close parents, until a comma starts a sibling.
        while True:
            tok = token()
            if tok in (",", ")") and not stack:
                fail("expected ';'")
            if tok == ",":
                commas[-1] += 1
                if commas[-1] == 1:
                    splits.append(stack[-1])
                at += 1
                break
            if tok == ")":
                closed = stack.pop()
                n_children = commas.pop() + 1
                if n_children != 2:
                    faults.append((closed, NonBinaryError(
                        f"node has {n_children} children; only binary trees supported"
                    )))
                at += 1
                tok = token()
                if tok not in "(),;":
                    read_length(closed, tok)
                    at += 1
                continue
            if stack:
                fail("expected ')'")
            if tok != ";":
                fail("expected ';'")
            at += 1
            if "".join(tokens[at:]).strip():
                fail("trailing characters after ';'")
            done = True
            break

    if faults:
        raise min(faults, key=lambda f: f[0])[1]
    dist = [length[0]] + [0.0] * (len(parent) - 1)
    for v in range(1, len(parent)):
        dist[v] = dist[parent[v]] + length[v]
    tip_dist = [dist[v] for v in tips]
    span = max(tip_dist)
    dev = (span - min(tip_dist)) / span if span > 0 else 0.0
    if dev > rtol:
        raise NonUltrametricError(dev)
    if height is None:
        height = span
    elif height < span * (1.0 - rtol):
        raise NewickError(f"explicit height {height} below tip-to-root span {span}")
    # node depths are measured back from the tips, not from the origin
    return height, [span - dist[v] for v in splits]


def _newick_batch(texts: Iterable[str], rtol: float = 1e-9, height: Optional[float] = None):
    heights: List[float] = []
    offsets = [0]
    depths: List[float] = []
    for text in texts:
        h, d = _scan_newick(text, rtol, height)
        heights.append(h)
        depths += d
        offsets.append(len(depths))
    return TreeBatch(heights, offsets, depths)


def newick_to_tree(
    text: str, rtol: float = 1e-9, height: Optional[float] = None
) -> OrientedUltrametricTree:
    """Parse a rooted binary ultrametric Newick tree into depth form.

    The tree height is the common tip-to-origin distance, including the root
    edge when one is present; a stemless tree puts the origin at the root
    node, which is only valid if the observation time coincides with the
    deepest coalescence.  Pass ``height`` to place the origin explicitly
    (e.g. when reading stemless trees whose observation time is known).
    Non-binary or non-ultrametric input raises.
    """
    return next(iter(_newick_batch([text], rtol, height)))


# ---------------------------------------------------------------------------
# Sampling schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingScheme:
    """full | bernoulli(y) | uniform_k(k).

    ``y=None`` under the Bernoulli variant means "unknown, to be estimated".
    """

    variant: str
    y: Optional[float] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.variant not in ("full", "bernoulli", "uniform_k"):
            raise DomainError(f"unknown sampling scheme {self.variant!r}")
        if self.variant == "bernoulli" and self.y is not None:
            if not (0.0 < self.y <= 1.0):
                raise DomainError("y must lie in (0, 1]")
        if self.variant == "uniform_k":
            if self.k is None or self.k < 1 or self.k != int(self.k):
                raise DomainError("k must be an integer >= 1")

    @classmethod
    def full(cls):
        return cls("full")

    @classmethod
    def bernoulli(cls, y: Optional[float]):
        return cls("bernoulli", y=y)

    @classmethod
    def uniform_k(cls, k: int):
        return cls("uniform_k", k=int(k))

    def describe(self) -> str:
        if self.variant == "full":
            return "full"
        if self.variant == "bernoulli":
            return f"bernoulli:{self.y}" if self.y is not None else "bernoulli:?"
        return f"k:{self.k}"


def parse_scheme(spec: str) -> SamplingScheme:
    """Parse "full" | "bernoulli:<y>" | "k:<int>" with positioned errors."""
    if spec == "full":
        return SamplingScheme.full()
    head, sep, arg = spec.partition(":")
    if head == "bernoulli":
        if not sep:
            raise SchemeError(spec, len(spec), "expected ':<y>'")
        try:
            y = float(arg)
        except ValueError:
            raise SchemeError(spec, len(head) + 1, f"bad probability {arg!r}") from None
        if not (0.0 < y <= 1.0):
            raise SchemeError(spec, len(head) + 1, "y must lie in (0, 1]")
        return SamplingScheme.bernoulli(y)
    if head == "k":
        if not sep:
            raise SchemeError(spec, len(spec), "expected ':<int>'")
        try:
            k = int(arg)
        except ValueError:
            raise SchemeError(spec, 2, f"bad integer {arg!r}") from None
        if k < 1:
            raise SchemeError(spec, 2, "k must be >= 1")
        return SamplingScheme.uniform_k(k)
    raise SchemeError(spec, 0, "expected 'full', 'bernoulli:<y>' or 'k:<int>'")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_MODEL_KEYS = {"kind", "lambda", "mu", "T"}


def _require_keys(obj: dict, keys: set, what: str):
    extra = set(obj) - keys
    if extra:
        raise ModelError(f"unknown keys in {what}: {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise ModelError(f"missing keys in {what}: {sorted(missing)}")


def _rate_from_json(obj, what: str) -> PiecewiseConstant:
    if isinstance(obj, (int, float)):
        return PiecewiseConstant.constant(float(obj))
    if isinstance(obj, dict):
        _require_keys(obj, {"breaks", "values"}, f"{what} table")
        return PiecewiseConstant(tuple(obj["breaks"]), tuple(obj["values"]))
    raise ModelError(f"{what} must be a number or a breaks/values table")


def rate_model_from_json(obj: dict) -> RateModel:
    if not isinstance(obj, dict):
        raise ModelError("model JSON must be an object")
    _require_keys(obj, _MODEL_KEYS, "model JSON")
    kind = obj["kind"]
    try:
        T = float(obj["T"])
    except (TypeError, ValueError):
        raise ModelError(f"T must be a number, not {obj['T']!r}") from None
    lam = _rate_from_json(obj["lambda"], "lambda")
    mu_obj = obj["mu"]
    if kind == "age_dependent":
        if not isinstance(mu_obj, dict):
            raise ModelError("age-dependent mu must be a grid object")
        _require_keys(mu_obj, {"t_breaks", "x_breaks", "values"}, "mu grid")
        mu: DeathRate = AgeDependentRate(
            tuple(mu_obj["t_breaks"]),
            tuple(mu_obj["x_breaks"]),
            tuple(tuple(row) for row in mu_obj["values"]),
        )
    else:
        mu = _rate_from_json(mu_obj, "mu")
    if kind == "constant" and not (
        lam.is_constant and isinstance(mu, PiecewiseConstant) and mu.is_constant
    ):
        raise ModelError("kind 'constant' requires scalar lambda and mu")
    return RateModel(kind, lam, mu, T)


def rate_model_to_json(model: RateModel) -> dict:
    def rate(r):
        if isinstance(r, PiecewiseConstant):
            if r.is_constant:
                return r.values[0]
            return {"breaks": list(r.breaks), "values": list(r.values)}
        return {
            "t_breaks": list(r.t_breaks),
            "x_breaks": list(r.x_breaks),
            "values": [list(row) for row in r.values],
        }

    return {"kind": model.kind, "lambda": rate(model.lam), "mu": rate(model.mu), "T": model.T}


def read_newick_file(path) -> TreeBatch:
    """One tree per line, UTF-8; blank lines ignored."""
    with open(path, encoding="utf-8") as fh:
        return _newick_batch(line for line in fh if line.strip())


def write_newick_file(path, trees, stem: bool = True):
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(tree_to_newick(tree, stem=stem) + "\n")
