"""Domain types: rate models, oriented ultrametric trees, sampling schemes.

Trees are stored in their coalescent-point-process-native form, i.e. as the
ordered sequence of node depths between consecutive tips.  The topology is
never stored; it is reconstructed on demand by the running-max rule: the
coalescence time of tips ``i < j`` is ``max(depths[i:j])``.  Many trees (a
Newick file) form one :class:`TreeBatch`, a ragged array of depths.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

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
    "newick_chunks",
    "csv_chunks",
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


def _numbers(values, what: str) -> tuple:
    """``values`` as a tuple of floats, or ``ModelError``."""
    try:
        if isinstance(values, (str, bytes)):
            raise TypeError
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ModelError(f"{what} must be a list of numbers, not {values!r}") from None


def _check_breaks(breaks: tuple):
    if not all(math.isfinite(b) for b in breaks) or any(
        b1 <= b0 for b0, b1 in zip(breaks, breaks[1:])
    ):
        raise ModelError("breakpoints must be finite and strictly increasing")


def _check_rates(values: Iterable[float]):
    if not all(0.0 <= v < math.inf for v in values):
        raise ModelError("rate values must be finite and >= 0")


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
        breaks = _numbers(self.breaks, "breakpoints")
        values = _numbers(self.values, "rate values")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)
        if len(breaks) != len(values) or not breaks:
            raise ModelError("breaks and values must have equal, positive length")
        if breaks[0] != 0.0:
            raise ModelError("first breakpoint must be 0")
        _check_breaks(breaks)
        _check_rates(values)

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
        tb = _numbers(self.t_breaks, "time breakpoints")
        xb = _numbers(self.x_breaks, "age breakpoints")
        try:
            vals = tuple(_numbers(row, "rate values") for row in self.values)
        except TypeError:
            raise ModelError(f"rate values must be a list of rows, not {self.values!r}") from None
        object.__setattr__(self, "t_breaks", tb)
        object.__setattr__(self, "x_breaks", xb)
        object.__setattr__(self, "values", vals)
        if not tb or not xb or tb[0] != 0.0 or xb[0] != 0.0:
            raise ModelError("time and age grids must start at 0")
        _check_breaks(tb)
        _check_breaks(xb)
        if len(vals) != len(tb) or any(len(row) != len(xb) for row in vals):
            raise ModelError("values grid shape must match breakpoints")
        _check_rates(v for row in vals for v in row)

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
        if not (0 < self.T < math.inf):
            raise ModelError("T must be finite and > 0")
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


# A block is written in chunks of whole trees holding about this many tips,
# so that the index arrays and the text of a chunk stay small however many
# trees the block has.
_CHUNK_TIPS = 2048


def _tree_chunks(batch: TreeBatch):
    """The batch as ``(heights, offsets, depths)`` views of consecutive runs
    of whole trees: those whose last tip falls in the same window of
    ``_CHUNK_TIPS`` tips."""
    if not len(batch):
        return
    offsets = batch.offsets
    window = (offsets[1:] + np.arange(len(batch))) // _CHUNK_TIPS
    cuts = (window[1:] != window[:-1]).nonzero()[0] + 1
    bounds = [0, *cuts.tolist(), len(batch)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a, b = offsets[lo], offsets[hi]
        yield batch.heights[lo:hi], offsets[lo : hi + 1] - a, batch.depths[a:b]


def _depth_bounds(pad: np.ndarray, pos: np.ndarray, longest: int):
    """For each node ``pos`` of ``pad``, the nearest position on its left
    with a depth at least its own and on its right with a depth above its
    own.

    ``pad`` holds the depths of trees, at most ``longest`` per tree, with a
    +inf wall before, between and after them, so a bound is never sought
    across a wall.  Binary lifting over a sparse table of running maxima:
    ``table[k][q]`` is the maximum of ``pad[q : q + 2**k]``, and a search
    skips the largest windows that lie below the node, largest first.
    O(n log m) for n positions and m = ``longest``, caterpillars included.
    """
    value = pad[pos]
    table = [pad]
    while 1 << len(table) < longest:
        prev, half = table[-1], 1 << (len(table) - 1)
        level = np.full(len(pad), np.inf)
        np.maximum(prev[:-half], prev[half:], out=level[:-half])
        table.append(level)
    left = pos - 1
    right = pos + 1
    for k in range(len(table) - 1, -1, -1):
        step = 1 << k
        # windows that would start before position 0 hold the first wall
        below = table[k][np.maximum(left - (step - 1), 0)] < value
        np.subtract(left, step, out=left, where=below)
        np.add(right, step, out=right, where=table[k][right] <= value)
    return left, right


def _newick_template(heights, offsets, depths, stem: bool) -> Tuple[str, List[float]]:
    """The Newick text of a chunk of trees as a ``%``-template and its
    values."""
    n_trees, lens = len(heights), offsets[1:] - offsets[:-1]
    n_tips = len(depths) + n_trees
    tree_of_node = np.repeat(np.arange(n_trees), lens)
    # Tip t of the chunk sits between positions t and t + 1 of ``pad``:
    # tree r's first tip is its wall's position, its nodes follow.
    first_tip = offsets[:-1] + np.arange(n_trees)
    pos = np.arange(len(depths)) + tree_of_node + 1
    pad = np.full(n_tips + 1, np.inf)
    pad[pos] = depths
    left, right = _depth_bounds(pad, pos, int(lens.max()))
    # By the running-max rule the first deepest node is the root, and a
    # node's parent is the shallower of its two bounds.
    parent = np.minimum(pad[left], pad[right])
    root = np.isinf(parent)
    parent[root] = heights[tree_of_node[root]]
    edge = parent - depths
    # A tip hangs from the shallower of its neighbouring nodes.
    tip = np.minimum(pad[:-1], pad[1:])
    single = lens == 0
    tip[first_tip[single]] = heights[single]
    # A node's subtree spans tips left .. right - 1: it opens before the
    # first and closes after the last, innermost (rightmost node) first.
    opens = np.bincount(left, minlength=n_tips)
    closes = np.bincount(right - 1, minlength=n_tips)
    order = np.argsort(right * len(pad) - pos)
    if not stem:
        order = order[~root[order]]
    at = right[order] + np.arange(len(order))  # after tip right - 1
    values = np.empty(n_tips + len(order))
    is_tip = np.ones(len(values), dtype=bool)
    is_tip[at] = False
    values[at] = edge[order]
    values[is_tip] = tip
    # The template: per tip its opens, its label, the closes after it and
    # a comma, or ';' and a newline after a tree's last tip.  A stemless
    # root closes without a length.
    last = first_tip + lens
    ending = np.zeros(n_tips, dtype=np.int64)  # 0: ",", 1: ";\n", 2: ");\n"
    ending[last] = 1 if stem else 1 + (lens > 0)
    closes[last] -= ending[last] == 2
    label = np.arange(n_tips) - np.repeat(first_tip, lens + 1)
    parts = np.empty((n_tips, 3), dtype=object)
    parts[:, 0] = _pieces(opens, lambda n: "(" * n)
    parts[:, 1] = _pieces(label, lambda n: f"{n}:%.12g")
    parts[:, 2] = _pieces(
        closes * 3 + ending, lambda n: "):%.12g" * (n // 3) + (",", ";\n", ");\n")[n % 3]
    )
    return "".join(parts.ravel().tolist()), values.tolist()


def _pieces(keys: np.ndarray, piece) -> np.ndarray:
    """``piece(k)`` for each key, built once per distinct key, so that a
    caterpillar's one long run of parentheses is built once."""
    table = np.empty(int(keys.max()) + 1, dtype=object)
    present = np.bincount(keys).nonzero()[0]
    table[present] = [piece(k) for k in present.tolist()]
    return table[keys]


def newick_chunks(batch: TreeBatch, stem: bool = True) -> Iterator[str]:
    """The trees of ``batch`` as Newick lines, a chunk of lines at a time.

    Tips are labelled 0..N-1 left to right in each tree, and every length
    is written with ``%.12g``.  With ``stem=True`` each tree gets a root
    edge of length ``height - max(depths)``.  A single tip is always written
    with its full pendant edge (the height would be lost otherwise).  The
    topology comes from the running-max rule for all trees of a chunk at
    once, in arrays, so a caterpillar costs no more than a balanced tree.
    """
    for chunk in _tree_chunks(batch):
        template, values = _newick_template(*chunk, stem)
        yield template % tuple(values)


def csv_chunks(batch: TreeBatch, first_rep: int = 0) -> Iterator[str]:
    """Rows "rep,index,depth" of every depth of ``batch``, a chunk of rows
    at a time; tree ``r`` is replicate ``first_rep + r``."""
    for heights, offsets, depths in _tree_chunks(batch):
        lens = offsets[1:] - offsets[:-1]
        rep = np.repeat(np.arange(len(heights)) + first_rep, lens)
        index = np.arange(len(depths)) - np.repeat(offsets[:-1], lens)
        rows = zip(rep.tolist(), index.tolist(), depths.tolist())
        yield "%d,%d,%.12g\n" * len(depths) % tuple(itertools.chain.from_iterable(rows))
        first_rep += len(heights)


def tree_to_newick(tree: OrientedUltrametricTree, stem: bool = False) -> str:
    """One tree as a Newick string, without a newline: the batch of one of
    :func:`newick_chunks`."""
    return "".join(newick_chunks(TreeBatch.from_trees([tree]), stem))[:-1]


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
        return PiecewiseConstant(obj["breaks"], obj["values"])
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
            mu_obj["t_breaks"], mu_obj["x_breaks"], mu_obj["values"]
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


def write_newick_file(path, trees: Iterable[OrientedUltrametricTree], stem: bool = True):
    """One tree per line, through :func:`newick_chunks`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(newick_chunks(TreeBatch.from_trees(trees), stem))
