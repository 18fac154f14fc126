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
import numbers
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Tuple

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


def _is_number(v) -> bool:
    """Is ``v`` a Python or numpy int or float (not a bool, nor a string)?"""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _numbers(values, what: str) -> tuple:
    """``values`` as a tuple of floats, or ``ModelError``."""
    try:
        if isinstance(values, (str, bytes)):
            raise TypeError
        items = tuple(values)
        if not all(map(_is_number, items)):
            raise TypeError
    except TypeError:
        raise ModelError(f"{what} must be a list of numbers, not {values!r}") from None
    return tuple(map(float, items))


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

    def __call__(self, t):
        """Rate at time t; a breakpoint takes the rate that starts there."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, None)
        out = np.asarray(self.values)[idx]
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class AgeDependentRate:
    """A death rate piecewise constant on a rectangular (time, age) grid;
    every death rate is one.  Age breaks across which no time cell's rate
    changes are dropped, so death that does not depend on age has one age
    piece per time cell (``of_time``, ``depends_on_age``)."""

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
        if not tb or not xb or tb[0] != 0.0 or xb[0] != 0.0:
            raise ModelError("time and age grids must start at 0")
        _check_breaks(tb)
        _check_breaks(xb)
        if len(vals) != len(tb) or any(len(row) != len(xb) for row in vals):
            raise ModelError("values grid shape must match breakpoints")
        _check_rates(v for row in vals for v in row)
        keep = [0] + [j for j in range(1, len(xb)) if any(row[j] != row[j - 1] for row in vals)]
        object.__setattr__(self, "t_breaks", tb)
        object.__setattr__(self, "x_breaks", tuple(xb[j] for j in keep))
        object.__setattr__(self, "values", tuple(tuple(row[j] for j in keep) for row in vals))

    @classmethod
    def of_time(cls, rate: PiecewiseConstant) -> "AgeDependentRate":
        """The grid of a rate of time alone: one age piece per time cell."""
        return cls(rate.breaks, (0.0,), tuple((v,) for v in rate.values))

    @property
    def depends_on_age(self) -> bool:
        """Does some time cell's rate differ across ages?  The one test of it."""
        return len(self.x_breaks) > 1

    @property
    def is_constant(self) -> bool:
        return len(self.t_breaks) == 1 and not self.depends_on_age

    @property
    def max(self) -> float:
        return max(v for row in self.values for v in row)

    @cached_property
    def _table(self):
        """(age breaks, rates, cumulative hazard at each age break) as arrays,
        built once per grid; not a field, so ``==``, ``hash`` and ``repr``
        do not see it."""
        x_breaks = np.asarray(self.x_breaks)
        values = np.asarray(self.values)
        cum = np.zeros(values.shape)
        cum[:, 1:] = np.cumsum(values[:, :-1] * np.diff(x_breaks), axis=1)
        return x_breaks, values, cum

    def time_cell(self, t):
        """Index of the time cell holding each t (cells are right-open)."""
        return np.clip(np.searchsorted(self.t_breaks, t, side="right") - 1, 0, None)

    def _age_piece(self, x):
        return np.clip(np.searchsorted(self._table[0], x, side="right") - 1, 0, None)

    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = self._table[1][self.time_cell(t), self._age_piece(x)]
        return out if out.ndim else float(out)

    def hazard(self, q, a):
        """h_q(a) and H_q(a) = int_0^a h_q, exact, for time cells ``q`` at
        ages ``a`` >= 0.  ``q`` indexes the rows of the grid (an int, an
        int array broadcast against ``a``, or a slice, giving one row per
        cell); the age pieces are found once for all cells."""
        a = np.asarray(a, dtype=float)
        j = self._age_piece(a)
        x_breaks, values, cum = self._table
        h = values[q, j]
        return h, cum[q, j] + h * (a - x_breaks[j])


@dataclass(frozen=True)
class RateModel:
    """Birth rate lambda(t), death rate mu(t, x), and horizon T.

    The death rate is always a time x age grid.  ``kind`` (``constant``,
    ``time_varying`` or ``age_dependent``) is derived from the rates, so it
    cannot disagree with them; evaluation always goes through the
    piecewise-constant machinery.
    """

    lam: PiecewiseConstant
    mu: AgeDependentRate
    T: float

    def __post_init__(self):
        if not (0 < self.T < math.inf):
            raise ModelError("T must be finite and > 0")
        if max(self.lam.breaks[-1], self.mu.t_breaks[-1]) >= self.T:
            raise ModelError("breakpoints must lie strictly inside [0, T)")

    @classmethod
    def constant(cls, lam: float, mu: float, T: float) -> "RateModel":
        return cls.time_varying(PiecewiseConstant.constant(lam), PiecewiseConstant.constant(mu), T)

    @classmethod
    def time_varying(cls, lam: PiecewiseConstant, mu: PiecewiseConstant, T: float):
        return cls(lam, AgeDependentRate.of_time(mu), T)

    @classmethod
    def age_dependent(cls, lam: PiecewiseConstant, mu: AgeDependentRate, T: float):
        return cls(lam, mu, T)

    @property
    def kind(self) -> str:
        if self.mu.depends_on_age:
            return "age_dependent"
        return "constant" if self.lam.is_constant and self.mu.is_constant else "time_varying"


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

    @cached_property
    def tree_index(self) -> np.ndarray:
        """The tree of each depth, built once per batch (the arrays are read-only)."""
        index = np.repeat(np.arange(len(self)), np.diff(self.offsets))
        index.setflags(write=False)
        return index

    def tree_sums(self, values) -> np.ndarray:
        """Sum of ``values`` (one per depth) over each tree; 0 for single tips."""
        return np.bincount(self.tree_index, weights=values, minlength=len(self))

    @cached_property
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
        counts = self.tree_sums(left & right).astype(np.int64)
        counts.setflags(write=False)
        return counts


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


# The one Newick reader: ``read_newick_file`` parses a file a chunk of whole
# lines at a time, all lines of a chunk at once in arrays (``_read_trees``),
# and ``newick_to_tree`` is its batch of one.
#
# The reader's character classes: the structural characters, the line break
# between two trees, and the colon before an edge length.  Every other
# character belongs to a label run.  ``_KINDS`` maps an ASCII code to its
# class, as a ``bytes.translate`` table; ``_CUT`` maps each of those
# characters to ',', to split a text into the runs between them.
_LABEL, _OPEN, _CLOSE, _COMMA, _SEMI, _BREAK, _COLON = range(7)
_KINDS = bytes("(),;\n:".find(chr(c)) + 1 for c in range(256))
_CUT = str.maketrans("(),;\n:", ",,,,,,")

# A file is read in chunks of whole lines of about this many characters, so
# that the arrays of a chunk stay small however long the file is.
_CHUNK_CHARS = 1 << 16

# Syntax errors by code; 4 and 5 are bad edge lengths.
_SYNTAX = {1: "expected ')'", 2: "expected ';'", 3: "trailing characters after ';'"}


def _floats(texts: List[str]):
    """``texts`` as floats by the rules of Python's ``float``, and the mask
    of the texts that are not numbers (NaN in the values)."""
    try:
        return np.array(texts, dtype=float), np.zeros(len(texts), dtype=bool)
    except ValueError:
        values = np.full(len(texts), np.nan)
        unparsed = np.zeros(len(texts), dtype=bool)
        for i, t in enumerate(texts):
            try:
                values[i] = float(t)
            except ValueError:
                unparsed[i] = True
        return values, unparsed


def _tokens(lines: List[str]):
    """The tokens of stripped non-blank Newick lines: the structural
    characters and the label runs between them.

    The lines are joined into one text with a line break before and after
    each.  Returns, by token, its position in that text, its kind
    (``_LABEL`` for a label run) and its line; by line, its first token and
    its start in the text; and the tokens with an edge length, their
    lengths and the mask of lengths that are not numbers.

    The text is classified by one ``bytes.translate`` of its ASCII encoding,
    in which every other character is one '?', so that positions count
    characters.  Only the marked characters (structural, breaks and colons)
    are visited after that.  Each but the last gives two slots: itself as a
    token unless it is a colon or a break, and the label run that starts
    after a delimiter unless another delimiter follows at once.  A length
    is the text from the first colon of a run to the next marked character,
    cut from the text itself, not its encoding (``float`` reads non-ASCII
    digits); a run with a second colon has a length that is not a number.
    """
    text = "\n" + "\n".join(lines) + "\n"
    kind = np.frombuffer(text.encode("ascii", "replace").translate(_KINDS), np.int8)
    marked = (kind != _LABEL).nonzero()[0]
    mk = kind[marked]
    at, k = marked[:-1], mk[:-1]
    after = kind[at + 1]
    slots = np.empty((len(at), 2), dtype=bool)
    slots[:, 0] = k < _BREAK
    slots[:, 1] = (k < _COLON) & ((after == _LABEL) | (after == _COLON))
    src = slots.ravel().nonzero()[0]
    pos = at[src >> 1] + (src & 1)
    kinds = np.zeros_like(slots, dtype=np.int8)
    kinds[:, 0] = k
    tk = kinds.ravel()[src]
    breaks = (k == _BREAK).nonzero()[0]
    firsts = np.searchsorted(src, 2 * breaks)  # each line's first token
    line = np.repeat(np.arange(len(breaks)), np.diff(firsts, append=len(src)))

    colon = mk == _COLON
    first_colon = colon.copy()
    first_colon[1:] &= ~colon[:-1]  # the first colon of a run
    lead = first_colon.nonzero()[0] - 1  # the delimiter before it
    token = np.empty(len(slots) * 2, dtype=np.int64)
    token[src] = np.arange(len(src))
    with_length = token[2 * lead + 1]
    pieces = text.translate(_CUT).split(",")  # piece i + 1 follows marked character i
    after_first = itertools.compress(itertools.islice(pieces, 1, None), first_colon.tobytes())
    values, unparsed = _floats(list(after_first))
    twice = colon[lead + 2]
    values[twice], unparsed[twice] = np.nan, True
    return pos, tk, line, firsts, at[breaks] + 1, with_length, values, unparsed


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of non-negative integers, sorted
    in the narrowest type that holds them: up to 65 535, numpy's radix
    sort."""
    return np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))), kind="stable")


def _owners(is_open: np.ndarray, paren: np.ndarray, level: np.ndarray) -> np.ndarray:
    """The '(' token that each ')' and ',' belongs to; -1 elsewhere.
    ``paren`` holds the indices of the '(', ')' and ',' tokens.

    Within one level, in text order, a '(' opening that level is followed
    by its commas and its ')', so a stable sort by level puts each owner
    last before them.
    """
    order = paren[_stable_order(level[paren] + is_open[paren])]
    latest = np.where(is_open[order], np.arange(len(order)), 0)
    np.maximum.accumulate(latest, out=latest)
    owner = np.full(len(is_open), -1)
    owner[order] = order[latest]
    return owner


def _root_distances(level: np.ndarray, parent: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """``dist[v] = dist[parent[v]] + edge[v]`` for nodes given with their
    nesting level, top-down; a root (level 0) has ``dist = edge``.

    A level is summed at once.  A run of levels with one node each is a
    path, summed by one running sum, which adds in the same order; so a
    caterpillar costs a few array operations, not one per level.
    """
    order = _stable_order(level)
    widths = np.bincount(level)
    bounds = np.zeros(len(widths) + 1, dtype=np.int64)
    np.cumsum(widths, out=bounds[1:])
    single = widths == 1
    starts_run = ~single
    starts_run[1:] |= ~single[:-1]
    starts_run[:1] = True
    cuts = [*np.flatnonzero(starts_run).tolist(), len(widths)]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    up, edge, bounds = rank[parent[order]], edge[order], bounds.tolist()
    dist = np.empty(len(order))  # in level order
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        a, b = bounds[lo], bounds[hi]
        if lo == 0:
            dist[a:b] = np.add.accumulate(edge[a:b]) if single[0] else edge[a:b]
        elif single[lo]:
            dist[a:b] = np.add.accumulate(np.append(dist[up[a]], edge[a:b]))[1:]
        else:
            dist[a:b] = dist[up[a:b]] + edge[a:b]
    return dist[rank]


def _read_trees(lines: List[str], rtol: float, height: Optional[float], where):
    """``(heights, sizes, depths)`` of rooted binary ultrametric Newick
    trees, one per stripped non-blank line of ``lines``: tree ``i`` has
    height ``heights[i]`` and the next ``sizes[i]`` entries of ``depths``.

    All lines are parsed at once, in arrays (:func:`_tokens`).  A token is
    malformed by its nesting level and the token before it: '(' after ')'
    or after a label, ',' or ')' outside every parenthesis, ';' inside
    one or not at the end, a line without ';'.  A node is a '(' or a tip;
    its edge length is the one after its label, and its parent is the owner
    (:func:`_owners`) of the token after it.  Root distances are summed
    top-down as ``dist[v] = dist[parent] + length[v]``
    (:func:`_root_distances`), and a node's depth is the tip-to-root span
    minus its distance, so that every number is rounded as a per-node walk
    of the tree would round it.

    The first bad line raises, its message prefixed with ``where(i)`` for
    line ``i``.  In a line, a syntax error or a bad edge length (not a
    number, negative or not finite) comes first, then a tip without a
    length or a node without two children (the first in the line), a
    non-ultrametric tree, an explicit ``height`` below the span, a missing
    root edge, and depths outside (0, height).
    """
    pos, tk, line, firsts, starts, with_length, values, unparsed = _tokens(lines)
    is_open, is_close, is_comma, is_semi = (tk == kind for kind in (_OPEN, _CLOSE, _COMMA, _SEMI))
    step = is_open.astype(np.int64) - is_close
    level = np.cumsum(step) - step
    last = np.zeros(len(tk), dtype=bool)  # the last token of its line
    last[firsts - 1] = True
    prev = np.empty_like(tk)
    prev[1:] = tk[:-1]
    prev[firsts] = _COMMA  # a line starts as after a comma
    length = np.zeros(len(tk))
    length[with_length] = values
    has_length = np.zeros(len(tk), dtype=bool)
    has_length[with_length] = True

    # Levels run on across lines.  A well-formed line ends at level 0, so
    # they are right up to the end of the first malformed line.
    nested = level > 0
    err = np.zeros(len(tk), dtype=np.int8)  # a code of _SYNTAX, or 4 or 5
    misplaced = (is_open & ((prev == _LABEL) | (prev == _CLOSE))) | (is_semi & nested)
    err[misplaced] = np.where(nested[misplaced], 1, 2)
    err[(is_comma | is_close) & ~nested] = 2
    err[is_semi & ~nested & ~last] = 3
    err[with_length[~(values >= 0.0) | (values == np.inf)]] = 5
    err[with_length[unparsed]] = 4
    bad_tokens = err.nonzero()[0]
    open_ends = (last & ~is_semi).nonzero()[0]  # lines without ';'
    bad = min(
        int(line[bad_tokens[0]]) if len(bad_tokens) else len(lines),
        int(line[open_ends[0]]) if len(open_ends) else len(lines),
    )
    error = None
    if bad < len(lines):
        tokens = bad_tokens[line[bad_tokens] == bad]
        if len(tokens):  # before the end of the line
            code, at = int(err[tokens[0]]), int(pos[tokens[0]] - starts[bad])
            num = re.match("[^(),;]*", lines[bad][at:]).group().partition(":")[2]
            msg = _SYNTAX.get(code) or (
                f"bad edge length {num!r}" if code == 4
                else f"edge length {num!r} is not finite and >= 0"
            )
            at += code == 3
        else:
            t = open_ends[np.searchsorted(line[open_ends], bad)]
            at = len(lines[bad])
            msg = _SYNTAX[1 if level[t] + step[t] > 0 else 2]
        error = NewickError(f"{where(bad)}Newick parse error at position {at}: {msg}")
        if bad == 0:
            raise error

    # The lines before the first syntax error are well formed and balanced.
    cut = int(firsts[bad]) if bad < len(lines) else len(tk)
    tk, prev, level, line = tk[:cut], prev[:cut], level[:cut], line[:cut]
    is_open, is_close, is_comma, is_semi = (a[:cut] for a in (is_open, is_close, is_comma, is_semi))
    length, has_length = length[:cut], has_length[:cut]
    paren = (is_open | is_close | is_comma).nonzero()[0]
    owner = _owners(is_open, paren, level)
    opens = is_open.nonzero()[0]
    commas = is_comma.nonzero()[0]
    closes = is_close.nonzero()[0]
    # A tip is a label run not after ')', or nothing: a ',', ')' or ';'
    # right after '(', ',' or the start of the line.
    is_label = tk == _LABEL
    label_tip = is_label & (prev != _CLOSE)
    empty_tip = ((prev == _OPEN) | (prev == _COMMA)) & (is_close | is_comma | is_semi)
    tips = (label_tip | empty_tip).nonzero()[0]
    inner = np.zeros(cut, dtype=np.int64)  # the index of each '(' among them
    inner[opens] = np.arange(len(opens))
    n_children = np.bincount(inner[owner[commas]], minlength=len(opens)) + 1
    # The token after a node (and its label) belongs to its parent, or is
    # the ';' of the root.
    after = np.empty(len(opens), dtype=np.int64)
    after[inner[owner[closes]]] = closes + 1
    open_edge = length[after]  # an internal label's length, or 0
    open_up = owner[after + is_label[after]]
    tip_up = owner[tips + label_tip[tips]]
    with np.errstate(all="ignore"):
        dist = _root_distances(level[opens], inner[open_up], open_edge)
        tip_dist = length[tips]
        below = tip_up >= 0  # not a single-tip tree
        tip_dist[below] += dist[inner[tip_up[below]]]
        tip_starts = np.searchsorted(tips, firsts[:bad])
        span = np.maximum.reduceat(tip_dist, tip_starts)
        dev = (span - np.minimum.reduceat(tip_dist, tip_starts)) / span
        dev[~(span > 0)] = 0.0
        heights = span if height is None else np.full(bad, float(height))
        depth_line = line[commas]
        depths = span[depth_line] - dist[inner[owner[commas]]]

    faulty = np.zeros(bad, dtype=bool)
    tipless = tips[~has_length[tips]]
    non_binary = opens[n_children != 2]
    faulty[line[tipless]] = True
    faulty[line[non_binary]] = True
    outside = np.zeros(bad, dtype=bool)
    outside[depth_line[~((depths > 0.0) & (depths < heights[depth_line]))]] = True
    failed = faulty | ~np.isfinite(span) | (dev > rtol) | ~(heights > 0) | outside
    if height is not None:
        failed |= height < span * (1.0 - rtol)
    if failed.any():
        i = int(failed.argmax())
        at = where(i)
        if faulty[i]:
            # the first in the line: the tree's first such node in preorder
            tip_at = tipless[line[tipless] == i][:1]
            node_at = non_binary[line[non_binary] == i][:1]
            if not len(node_at) or (len(tip_at) and tip_at[0] < node_at[0]):
                raise NewickError(f"{at}tip without edge length")
            k = n_children[inner[node_at[0]]]
            raise NonBinaryError(f"{at}node has {k} children; only binary trees supported")
        if not np.isfinite(span[i]):
            raise NewickError(f"{at}tip-to-root distance is not finite")
        if dev[i] > rtol:
            raise NonUltrametricError(float(dev[i]), at)
        if height is not None and height < span[i] * (1.0 - rtol):
            raise NewickError(
                f"{at}explicit height {height} below tip-to-root span {float(span[i])}"
            )
        if not heights[i] > 0:
            raise DomainError(f"{at}height must be > 0")
        root = opens[(line[opens] == i) & (level[opens] == 0)]
        if height is None and len(root) and open_edge[inner[root[0]]] == 0.0:
            raise NewickError(
                f"{at}tree has no root edge, so its origin is unknown (height= places it)"
            )
        raise DomainError(f"{at}all node depths must lie strictly in (0, height)")
    if error is not None:
        raise error
    return heights, np.bincount(depth_line, minlength=bad), depths


def newick_to_tree(
    text: str, rtol: float = 1e-9, height: Optional[float] = None
) -> OrientedUltrametricTree:
    """Parse a rooted binary ultrametric Newick tree into depth form.

    The tree height is the common tip-to-origin distance, including the root
    edge.  A tree without a root edge does not fix its origin: pass
    ``height`` to place it (e.g. the known observation time of stemless
    trees); without it such a tree raises ``NewickError``.  Non-binary or
    non-ultrametric input, and negative or non-finite edge lengths, raise.
    The batch of one of :func:`read_newick_file`.
    """
    text = text.strip()
    if not text:
        raise NewickError("Newick parse error at position 0: expected ';'")
    # A line break inside the text acts as any other blank would.
    heights, _, depths = _read_trees([text.replace("\n", " ")], rtol, height, lambda i: "")
    return OrientedUltrametricTree(float(heights[0]), tuple(depths.tolist()))


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
    """Parse "full" | "bernoulli:<y>" | "k:<int>" with positioned errors;
    "bernoulli:?", as ``SamplingScheme.describe`` writes it, is a free y."""
    if spec == "full":
        return SamplingScheme.full()
    head, sep, arg = spec.partition(":")
    if head == "bernoulli":
        if not sep:
            raise SchemeError(spec, len(spec), "expected ':<y>'")
        if arg == "?":
            return SamplingScheme.bernoulli(None)
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
    if _is_number(obj):
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
    if not _is_number(obj["T"]):
        raise ModelError(f"T must be a number, not {obj['T']!r}")
    T = float(obj["T"])
    lam = _rate_from_json(obj["lambda"], "lambda")
    mu_obj = obj["mu"]
    if kind == "age_dependent":
        if not isinstance(mu_obj, dict):
            raise ModelError("age-dependent mu must be a grid object")
        _require_keys(mu_obj, {"t_breaks", "x_breaks", "values"}, "mu grid")
        mu = AgeDependentRate(mu_obj["t_breaks"], mu_obj["x_breaks"], mu_obj["values"])
    else:
        by_time = _rate_from_json(mu_obj, "mu")
        if kind == "constant" and not (lam.is_constant and by_time.is_constant):
            raise ModelError("kind 'constant' requires scalar lambda and mu")
        mu = AgeDependentRate.of_time(by_time)
    if kind not in ("constant", "time_varying", "age_dependent"):
        raise ModelError(f"unknown model kind {kind!r}")
    return RateModel(lam, mu, T)


def rate_model_to_json(model: RateModel) -> dict:
    def by_time(breaks, values):
        return values[0] if len(values) == 1 else {"breaks": list(breaks), "values": list(values)}

    mu = model.mu
    if mu.depends_on_age:
        grid = [list(row) for row in mu.values]
        mu_json = {"t_breaks": list(mu.t_breaks), "x_breaks": list(mu.x_breaks), "values": grid}
    else:
        mu_json = by_time(mu.t_breaks, [row[0] for row in mu.values])
    lam_json = by_time(model.lam.breaks, model.lam.values)
    return {"kind": model.kind, "lambda": lam_json, "mu": mu_json, "T": model.T}


def read_newick_file(path) -> TreeBatch:
    """One tree per line, UTF-8 (after a byte-order mark, if the file starts
    with one); blank lines ignored.

    The file is parsed in chunks of whole lines of about ``_CHUNK_CHARS``
    characters, each in arrays.  An error names the file and the 1-based
    line of the tree.
    """
    parts = [(np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0))]
    try:
        with open(path, encoding="utf-8-sig") as fh:
            first = 1
            while lines := list(map(str.strip, fh.readlines(_CHUNK_CHARS))):
                if trees := list(filter(None, lines)):

                    def where(i):  # the file line of the i-th tree, for an error
                        number = [n for n, text in enumerate(lines, first) if text][i]
                        return f"{path} line {number}: "

                    parts.append(_read_trees(trees, 1e-9, None, where))
                first += len(lines)
    except UnicodeDecodeError as exc:
        raise NewickError(f"{path} is not UTF-8 text ({exc.reason})") from None
    heights, sizes, depths = map(np.concatenate, zip(*parts))
    return TreeBatch(heights, np.concatenate(([0], np.cumsum(sizes))), depths)


def write_newick_file(path, trees: Iterable[OrientedUltrametricTree], stem: bool = True):
    """One tree per line, through :func:`newick_chunks`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(newick_chunks(TreeBatch.from_trees(trees), stem))
