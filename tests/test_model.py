"""Tree data model, Newick round trips, cherry counts, model JSON."""

import math
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cppgen.errors import (
    DomainError,
    ModelError,
    NewickError,
    NonBinaryError,
    NonUltrametricError,
    SchemeError,
)
from cppgen import model
from cppgen.model import (
    AgeDependentRate,
    OrientedUltrametricTree,
    PiecewiseConstant,
    RateModel,
    SamplingScheme,
    TreeBatch,
    count_cherries,
    csv_chunks,
    newick_chunks,
    newick_to_tree,
    parse_scheme,
    rate_model_from_json,
    rate_model_to_json,
    read_newick_file,
    tree_to_newick,
    write_newick_file,
)

depth_lists = st.lists(
    st.floats(min_value=1e-6, max_value=0.999, allow_nan=False), min_size=0, max_size=30
)


class TestTree:
    def test_single_tip(self):
        t = OrientedUltrametricTree(height=1.0)
        assert t.n_tips == 1
        assert t.depths == ()

    def test_depth_bounds_enforced(self):
        with pytest.raises(DomainError):
            OrientedUltrametricTree(height=1.0, depths=(1.5,))
        with pytest.raises(DomainError):
            OrientedUltrametricTree(height=1.0, depths=(0.0,))

    def test_coalescence_running_max(self):
        t = OrientedUltrametricTree(height=1.0, depths=(0.3, 0.6, 0.2))
        assert t.coalescence_time(0, 1) == 0.3
        assert t.coalescence_time(0, 3) == 0.6
        assert t.coalescence_time(2, 3) == 0.2

    @given(depth_lists.filter(lambda d: len(d) >= 2))
    @settings(max_examples=50)
    def test_ultrametric_inequality(self, depths):
        t = OrientedUltrametricTree(height=1.0, depths=tuple(depths))
        n = t.n_tips
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j, k = sorted(rng.choice(n, size=3, replace=False))
            dij = t.coalescence_time(i, j)
            djk = t.coalescence_time(j, k)
            dik = t.coalescence_time(i, k)
            assert dik <= max(dij, djk)
            assert dik == max(dij, djk)  # exact for a running max


class TestNewick:
    def test_single_tip_stem(self):
        t = OrientedUltrametricTree(height=1.0)
        assert tree_to_newick(t, stem=True) == "0:1;"

    def test_cherry_stem(self):
        t = OrientedUltrametricTree(height=1.0, depths=(0.3,))
        assert tree_to_newick(t, stem=True) == "(0:0.3,1:0.3):0.7;"

    def test_four_tip_topology(self):
        t = OrientedUltrametricTree(height=1.0, depths=(0.3, 0.6, 0.2))
        s = tree_to_newick(t, stem=True)
        # ((0,1),(2,3)) with cherry heights 0.3 and 0.2 joining at 0.6
        assert s == "((0:0.3,1:0.3):0.3,(2:0.2,3:0.2):0.4):0.4;"

    def test_parse_inverse_of_render(self):
        tree = newick_to_tree("((0:0.3,1:0.3):0.3,(2:0.2,3:0.2):0.4):0.4;")
        assert tree.height == pytest.approx(1.0, rel=1e-12)
        assert tree.depths == pytest.approx((0.3, 0.6, 0.2))

    def test_non_ultrametric_rejected(self):
        with pytest.raises(NonUltrametricError) as err:
            newick_to_tree("(0:0.3,1:0.4);")
        assert err.value.max_deviation > 0

    def test_non_binary_rejected(self):
        with pytest.raises(NonBinaryError):
            newick_to_tree("(0:0.3,1:0.3,2:0.3);")

    def test_garbage_rejected(self):
        with pytest.raises(Exception):
            newick_to_tree("((0:0.3,1:0.3)")

    @given(depth_lists)
    @settings(max_examples=100)
    def test_round_trip(self, depths):
        t = OrientedUltrametricTree(height=1.0, depths=tuple(depths))
        back = newick_to_tree(tree_to_newick(t, stem=True))
        assert back.height == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(back.depths, t.depths, rtol=1e-9, atol=1e-10)
        # a stemless rendering loses the observation time; supply it explicitly
        back = newick_to_tree(tree_to_newick(t, stem=False), height=1.0)
        assert np.allclose(back.depths, t.depths, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("order", [1, -1], ids=["increasing", "decreasing"])
    def test_caterpillar_round_trip(self, tmp_path, order):
        # 3000 tips nest 2999 deep, past Python's default recursion limit
        depths = np.linspace(1e-3, 1.999, 2999)[::order]
        tree = OrientedUltrametricTree(2.0, tuple(depths))
        path = tmp_path / "caterpillar.nwk"
        write_newick_file(path, [tree, tree])
        batch = read_newick_file(path)
        assert len(batch) == 2
        # heights and depths sum about 3000 edge lengths written to 12 digits
        assert_allclose(batch.heights, 2.0, rtol=0, atol=1e-11 * 2.0)
        assert_allclose(batch.depths[:2999], depths, rtol=0, atol=1e-11 * 2.0)

    def test_read_file_into_batch(self, tmp_path):
        path = tmp_path / "trees.nwk"
        path.write_text("(0:0.5,1:0.5):1.5;\n\n0:2;\n((0:0.3,1:0.3):0.3,2:0.6):0.4;\n")
        batch = read_newick_file(path)
        assert isinstance(batch, TreeBatch)
        assert batch.offsets.tolist() == [0, 1, 1, 3]
        assert batch.n_tips.tolist() == [2, 1, 3]
        assert_allclose(batch.depths, [0.5, 0.3, 0.6], rtol=1e-12)
        assert_allclose(batch.heights, [2.0, 2.0, 1.0], rtol=1e-12)


class TestTreeBatch:
    @given(st.lists(depth_lists, max_size=8), st.lists(st.floats(1.0, 3.0), min_size=8, max_size=8))
    @settings(max_examples=100)
    def test_from_trees_round_trip(self, depth_sets, heights):
        trees = [
            OrientedUltrametricTree(h, tuple(d)) for d, h in zip(depth_sets, heights)
        ]
        batch = TreeBatch.from_trees(trees)
        assert len(batch) == len(trees)
        assert list(batch) == trees
        again = TreeBatch.from_trees(list(batch))
        for name in ("heights", "offsets", "depths"):
            assert np.array_equal(getattr(again, name), getattr(batch, name))

    def test_equality_compares_arrays(self):
        batch = TreeBatch([1.0, 1.0], [0, 1, 1], [0.5])
        assert batch == TreeBatch([1.0, 1.0], [0, 1, 1], [0.5])
        assert batch != TreeBatch([1.0, 1.0], [0, 0, 1], [0.5])
        assert batch != TreeBatch([1.0, 1.0], [0, 1, 1], [0.25])
        assert batch != list(batch)

    def test_arrays_are_read_only(self):
        batch = TreeBatch([1.0], [0, 1], [0.5])
        with pytest.raises(ValueError):
            batch.depths[0] = 0.7

    def test_tree_index_and_cherries_built_once(self, monkeypatch):
        batch = TreeBatch([1.0, 1.0, 1.0], [0, 2, 2, 3], [0.5, 0.25, 0.75])
        assert batch.tree_index.tolist() == [0, 0, 2]
        calls = []
        repeat = np.repeat
        monkeypatch.setattr(np, "repeat", lambda *a, **k: calls.append(1) or repeat(*a, **k))
        assert batch.tree_sums([1.0, 2.0, 4.0]).tolist() == [3.0, 0.0, 4.0]
        assert batch.cherries.tolist() == [1, 0, 1]
        assert batch.cherries is batch.cherries
        assert calls == []
        for arr in (batch.tree_index, batch.cherries):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize(
        "heights, offsets, depths",
        [
            ([1.0], [0, 2], [0.5]),  # offsets past the depths
            ([1.0, 1.0], [0, 1], [0.5]),  # one offset short
            ([1.0, 1.0], [0, 2, 1], [0.5]),  # offsets fall
            ([1.0], [0, 1], [1.0]),  # depth at the height
            ([0.0], [0], []),  # zero height
        ],
    )
    def test_invalid_rejected(self, heights, offsets, depths):
        with pytest.raises(DomainError):
            TreeBatch(heights, offsets, depths)


def _reference_newick(tree: OrientedUltrametricTree, stem: bool) -> str:
    """The per-tree renderer that the array writer replaced, kept as its
    oracle: the running-max tree is built with a stack of the rightmost
    path, then written from an explicit stack of nodes and text."""
    d = tree.depths
    if not d:
        return f"0:{format(tree.height, '.12g')};"
    left, right, path = [-1] * len(d), [-1] * len(d), []
    for i, depth in enumerate(d):
        below = -1
        while path and d[path[-1]] < depth:
            below = path.pop()
        left[i] = below
        if path:
            right[path[-1]] = i
        path.append(i)
    root = path[0]
    out = []
    todo = [f"):{format(tree.height - d[root], '.12g')};" if stem else ");", root]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        h = d[item]
        out.append("(")
        child = right[item]
        if child < 0:
            todo.append(f"{item + 1}:{format(h, '.12g')}")
        else:
            todo += (f"):{format(h - d[child], '.12g')}", child)
        todo.append(",")
        child = left[item]
        if child < 0:
            todo.append(f"{item}:{format(h, '.12g')}")
        else:
            todo += (f"):{format(h - d[child], '.12g')}", child)
    return "".join(out)


def _reference_lines(batch: TreeBatch, stem: bool) -> str:
    return "".join(_reference_newick(tree, stem) + "\n" for tree in batch)


def _reference_csv(batch: TreeBatch, first_rep: int) -> str:
    return "".join(
        f"{first_rep + r},{i},{format(d, '.12g')}\n"
        for r, tree in enumerate(batch)
        for i, d in enumerate(tree.depths)
    )


@st.composite
def tree_batches(draw):
    """Up to 8 trees of mixed heights, single tips included; a tree's depths
    come from a small grid (ties) or from the open interval (0, height)."""
    trees = []
    for _ in range(draw(st.integers(1, 8))):
        height = draw(st.sampled_from([0.5, 1.0, 2.0, 3.7]))
        if draw(st.booleans()):
            depth = st.integers(1, 4).map(lambda i, h=height: h * i / 5)
        else:
            depth = st.floats(0.0, height, exclude_min=True, exclude_max=True)
        trees.append(OrientedUltrametricTree(height, draw(st.lists(depth, max_size=12))))
    return TreeBatch.from_trees(trees)


def _random_batch(n_trees, seed):
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, 10, n_trees)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    heights = rng.choice([1.0, 2.0], n_trees)
    depths = rng.uniform(0.001, 0.999, offsets[-1]) * np.repeat(heights, lens)
    return TreeBatch(heights, offsets, depths)


class TestArrayWriter:
    @given(tree_batches(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_renderer(self, batch, stem):
        assert "".join(newick_chunks(batch, stem)) == _reference_lines(batch, stem)

    @given(tree_batches(), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_csv_matches_per_depth_rows(self, batch, first_rep):
        assert "".join(csv_chunks(batch, first_rep)) == _reference_csv(batch, first_rep)

    def test_chunk_boundaries(self, monkeypatch):
        batch = _random_batch(300, seed=1)
        monkeypatch.setattr(model, "_CHUNK_TIPS", 7)
        assert len(list(newick_chunks(batch))) > 100
        for stem in (True, False):
            assert "".join(newick_chunks(batch, stem)) == _reference_lines(batch, stem)
        assert "".join(csv_chunks(batch, 11)) == _reference_csv(batch, 11)

    def test_empty_batch(self):
        batch = TreeBatch([], [0], [])
        assert list(newick_chunks(batch)) == [] and list(csv_chunks(batch)) == []

    @pytest.mark.parametrize("order", [1, -1], ids=["increasing", "decreasing"])
    def test_caterpillar_matches_reference(self, order):
        tree = OrientedUltrametricTree(2.0, tuple(np.linspace(1e-3, 1.999, 2999)[::order]))
        batch = TreeBatch.from_trees([tree, OrientedUltrametricTree(2.0), tree])
        for stem in (True, False):
            assert "".join(newick_chunks(batch, stem)) == _reference_lines(batch, stem)

    @pytest.mark.parametrize("order", [1, -1], ids=["increasing", "decreasing"])
    def test_long_caterpillar_is_not_quadratic(self, order):
        depths = np.linspace(1e-3, 1.999, 10**5 - 1)[::order]
        batch = TreeBatch([2.0], [0, len(depths)], depths)
        start = time.perf_counter()
        text = "".join(newick_chunks(batch))
        assert time.perf_counter() - start < 1.0
        assert text == _reference_lines(batch, stem=True)

    def test_file_round_trip(self, tmp_path):
        batch = _random_batch(500, seed=2)
        path = tmp_path / "trees.nwk"
        write_newick_file(path, batch)
        back = read_newick_file(path)
        assert np.array_equal(back.offsets, batch.offsets)
        assert_allclose(back.heights, batch.heights, rtol=1e-11)
        assert_allclose(back.depths, batch.depths, rtol=0, atol=1e-11)


_NEWICK_TOKENS = re.compile(r"[(),;]|[^(),;]+")


def _reference_scan(text, rtol=1e-9, height=None):
    """The per-tree scanner that the array reader replaced, kept as its
    oracle: ``(height, depths)`` of one tree, from one pass over its tokens
    with a stack of open nodes, root distances summed in preorder."""
    tokens = _NEWICK_TOKENS.findall(text.strip())
    parent, length, tips, splits, stack, commas, faults = [], [], [], [], [], [], []
    at = 0

    def token():
        return tokens[at] if at < len(tokens) else ""

    def fail(msg):
        raise NewickError(f"Newick parse error at position {sum(map(len, tokens[:at]))}: {msg}")

    def read_length(node, tok):
        _label, colon, num = tok.partition(":")
        if colon:
            try:
                length[node] = float(num)
            except ValueError:
                fail(f"bad edge length {num!r}")
        return bool(colon)

    done = False
    while not done:
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
        if tok in "(),;":
            has_length = False
        else:
            has_length = read_length(node, tok)
            at += 1
        if not has_length:
            faults.append((node, NewickError("tip without edge length")))
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
                    faults.append((closed, NonBinaryError(f"{n_children} children")))
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
        raise NewickError("explicit height below tip-to-root span")
    return height, [span - dist[v] for v in splits]


def _reference_batch(lines, height=None) -> TreeBatch:
    heights, offsets, depths = [], [0], []
    for line in lines:
        if line.strip():
            h, d = _reference_scan(line, height=height)
            heights.append(h)
            depths += d
            offsets.append(len(depths))
    return TreeBatch(heights, offsets, depths)


def _reference_read(path) -> TreeBatch:
    with open(path, encoding="utf-8") as fh:
        return _reference_batch(fh)


def _bits(batch: TreeBatch):
    return [getattr(batch, name).tobytes() for name in ("heights", "offsets", "depths")]


def _outcome(read, *args, **kwargs):
    """The bits of the batch that ``read`` returns, or the class it raises."""
    try:
        batch = read(*args, **kwargs)
    except (NewickError, DomainError) as exc:
        return type(exc)
    if isinstance(batch, OrientedUltrametricTree):
        batch = TreeBatch.from_trees([batch])
    return _bits(batch)


# Label text: anything but the structural characters, the colon and the
# characters that end a line in a file.
_labels = st.text(st.characters(blacklist_characters="(),;:\n\r", blacklist_categories=("Cs",)), max_size=4)
_blanks = st.sampled_from(["", " ", "\t", "  ", "　"])


@st.composite
def newick_lines(draw, stem=True):
    """The written lines of a random batch, with random tip and internal
    labels, blanks around lengths and lines, and blank lines between."""
    batch = draw(tree_batches())
    text = "".join(newick_chunks(batch, stem))
    text = re.sub(r"(?m)(?<=[(,])\d+(?=:)|^\d+(?=:)", lambda m: draw(_labels), text)
    text = re.sub(r"\)(?=:)", lambda m: ")" + draw(_labels), text)
    text = re.sub(r":([^(),;\n]*)", lambda m: f":{draw(_blanks)}{m[1]}{draw(_blanks)}", text)
    lines = []
    for line in text.split("\n")[:-1]:
        lines += [draw(_blanks) for _ in range(draw(st.integers(0, 2)))]
        lines.append(draw(_blanks) + line + draw(_blanks))
    return batch, lines


# Each raises the same class from the array reader as from the scanner.
_MALFORMED = [
    "((0:1,1:1):1,2:2",  # unbalanced
    "((0:1,1:1):1,2:2):1",
    "(0:1,1:1)):1;",
    ")(0:1,1:1):1;",
    "(0:1,1:1):1; x",  # trailing text
    "(0:1,1:1):1;(0:1,1:1):1;",
    "(0:1,1:1):1;;",  # two ';'
    "x(0:1,1:1):1;",  # a label before '('
    "(0:1,1:1)x(2:1,3:1):1;",
    "(0:1,1:1)(2:1,3:1);",
    "((0:1):1,1:2):1;",  # unary
    "();",
    "(0:1,1:1,2:1):1;",  # ternary
    "((0:1,1:1,2:1):1,(3:1):1):1;",  # ternary before unary: the first wins
    "((0,1:1,2:1):1,3:2):1;",  # tipless before non-binary: the first wins
    "(0,1:1):1;",  # tip without length
    "(0:1,):1;",
    ";",
    "(0:1,1:x):1;",  # bad number
    "(0:1,1:1:2):1;",
    "(0:1,1:1):0x1;",
    "(0:1,1:1):1e;",
    "(0:0.3,1:0.4):1;",  # not ultrametric
    "((0:1,1:1):1,2:1):1;",
    "0:0;",  # zero height
    "(0:0,1:0):1;",  # a depth at 0
]

# Rejected only since the array reader: negative or non-finite lengths,
# and trees without a root edge (no height= given).
_NEWLY_REJECTED = [
    "((0:1,1:1):-0.5,2:0.5):2;",
    "(0:1,1:1):-1;",
    "(0:nan,1:nan):1;",
    "(0:1e400,1:1e400):1;",
    "(0:inf,1:1):1;",
    "(0:1,1:1);",
    "(0:1,1:1):0;",
    "((0:1,1:1):1,2:2) x;",
]


class TestArrayReader:
    @given(newick_lines(), st.sampled_from([1, 7, 120, 1 << 16]))
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_matches_reference_scanner(self, tmp_path, case, chunk):
        _, lines = case
        path = tmp_path / "trees.nwk"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with mock.patch.object(model, "_CHUNK_CHARS", chunk):
            assert _outcome(read_newick_file, path) == _outcome(_reference_read, path)

    @given(newick_lines(stem=False))
    @settings(max_examples=100, deadline=None)
    def test_stemless_with_height_matches_reference(self, case):
        batch, lines = case
        lines = [line for line in lines if line.strip()]
        for line, height in zip(lines, batch.heights.tolist()):
            assert _outcome(newick_to_tree, line, height=height) == _outcome(
                _reference_batch, [line], height=height
            )

    @pytest.mark.parametrize("text", _MALFORMED)
    def test_malformed_raises_as_reference(self, tmp_path, text):
        with pytest.raises((NewickError, DomainError)) as expected:
            _reference_batch([text])
        with pytest.raises((NewickError, DomainError)) as raised:
            newick_to_tree(text)
        assert type(raised.value) is type(expected.value)
        path = tmp_path / "trees.nwk"
        path.write_text(f"(0:1,1:1):1;\n\n {text}\n(0:1,1:1):1;\n")
        with pytest.raises((NewickError, DomainError)) as raised:
            read_newick_file(path)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value).startswith(f"{path} line 3: ")

    def test_domain_errors_name_the_line(self, tmp_path):
        path = tmp_path / "trees.nwk"
        path.write_text("(0:1,1:1):1;\n(0:0,1:0):1;\n")
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))} line 2: "):
            read_newick_file(path)

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "trees.nwk"
        lines = ["(0:1,1:1):1;"] * 40
        lines[16] = "(0:0.3,1:0.4):1;"
        lines[30] = "(0:1,1:1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonUltrametricError) as raised:
            read_newick_file(path)
        assert str(raised.value).startswith(f"{path} line 17: tree is not ultrametric")
        assert raised.value.max_deviation == pytest.approx(0.1 / 1.4)

    @pytest.mark.parametrize("text", _NEWLY_REJECTED)
    def test_newly_rejected(self, text):
        with pytest.raises(NewickError) as raised:
            newick_to_tree(text)
        assert type(raised.value) is NewickError

    def test_lengths_must_be_finite_and_non_negative(self):
        with pytest.raises(NewickError, match="position 10: edge length '-0.5' is not finite"):
            newick_to_tree("((0:1,1:1):-0.5,2:0.5):2;")

    def test_stemless_tree_needs_height(self):
        with pytest.raises(NewickError, match="no root edge.*height="):
            newick_to_tree("(0:1,1:1);")
        tree = newick_to_tree("(0:1,1:1);", height=2.0)
        assert tree.height == 2.0 and tree.depths == (1.0,)

    def test_zero_lengths_give_tied_depths(self):
        tree = newick_to_tree("((0:0.5,1:0.5):0,2:0.5):1;")
        assert tree.height == 1.5 and tree.depths == (0.5, 0.5)

    def test_blank_file(self, tmp_path):
        path = tmp_path / "trees.nwk"
        path.write_text("\n  \n\t\n")
        assert read_newick_file(path) == TreeBatch([], [0], [])

    @pytest.mark.parametrize("order", [1, -1], ids=["increasing", "decreasing"])
    def test_long_caterpillar_is_not_quadratic(self, tmp_path, order):
        depths = np.linspace(1e-3, 1.999, 10**5 - 1)[::order]
        path = tmp_path / "caterpillar.nwk"
        write_newick_file(path, TreeBatch([2.0], [0, len(depths)], depths))
        start = time.perf_counter()
        batch = read_newick_file(path)
        assert time.perf_counter() - start < 1.0
        assert _bits(batch) == _bits(_reference_read(path))

    def test_memory_stays_flat(self, tmp_path):
        path = tmp_path / "trees.nwk"
        write_newick_file(path, _random_batch(3000, seed=3))
        tracemalloc.start()
        try:
            read_newick_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestCherries:
    def test_single_cherry(self):
        assert count_cherries(OrientedUltrametricTree(1.0, (0.3,))) == 1

    def test_balanced_four(self):
        t = OrientedUltrametricTree(1.0, (0.3, 0.6, 0.2))
        assert count_cherries(t) == 2
        # unoriented factor 2^{n-1-alpha} = 2
        assert 2 ** (t.n_tips - 1 - count_cherries(t)) == 2

    def test_caterpillar(self):
        assert count_cherries(OrientedUltrametricTree(1.0, (0.1, 0.2, 0.3))) == 1

    @given(depth_lists.filter(lambda d: len(d) >= 1))
    @settings(max_examples=100)
    def test_cherry_bounds(self, depths):
        t = OrientedUltrametricTree(height=1.0, depths=tuple(depths))
        alpha = count_cherries(t)
        assert 1 <= alpha <= t.n_tips // 2
        # a cherry is a parenthesised pair of tips in the Newick rendering
        assert alpha == len(re.findall(r"\(\d+:[^(),]*,\d+:[^(),]*\)", tree_to_newick(t)))


class TestRates:
    def test_piecewise_lookup_and_integral(self):
        pc = PiecewiseConstant((0.0, 1.0), (1.0, 2.0))
        assert pc(0.5) == 1.0
        assert pc(1.0) == 2.0
        assert pc(1.0, side="left") == 1.0
        assert pc.integral(0.5, 1.5) == pytest.approx(0.5 + 1.0)

    def test_invalid_breaks(self):
        with pytest.raises(ModelError):
            PiecewiseConstant((0.5, 1.0), (1.0, 2.0))
        with pytest.raises(ModelError):
            PiecewiseConstant((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ModelError):
            PiecewiseConstant((0.0,), (-1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rates_finite_and_non_negative(self, bad):
        with pytest.raises(ModelError, match="finite and >= 0"):
            PiecewiseConstant((0.0, 1.0), (1.0, bad))
        with pytest.raises(ModelError, match="finite and >= 0"):
            AgeDependentRate((0.0,), (0.0, 0.5), ((0.2, bad),))
        with pytest.raises(ModelError, match="finite and >= 0"):
            RateModel.constant(bad, 0.5, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_breaks_and_horizon_finite(self, bad):
        with pytest.raises(ModelError, match="finite and strictly increasing"):
            PiecewiseConstant((0.0, bad), (1.0, 2.0))
        with pytest.raises(ModelError, match="finite and strictly increasing"):
            AgeDependentRate((0.0,), (0.0, bad), ((0.2, 0.7),))
        with pytest.raises(ModelError, match="T must be finite"):
            RateModel.constant(1.0, 0.5, bad)

    @pytest.mark.parametrize(
        "t_breaks, values",
        [(0, ((0.2,),)), ((), ((0.2,),)), ((0.0,), 5), ((0.0,), (5,)), ((0.0,), (("a",),))],
    )
    def test_malformed_grid(self, t_breaks, values):
        with pytest.raises(ModelError):
            AgeDependentRate(t_breaks, (0.0,), values)

    def test_constant_accessors(self):
        m = RateModel.constant(1.0, 0.4, 2.0)
        assert m.net_rate == pytest.approx(0.6)
        assert m.birth_rate_max == 1.0
        assert m.death_rate(1.7, 0.3) == 0.4

    def test_death_is_always_a_grid(self):
        m = RateModel.time_varying(
            PiecewiseConstant.constant(1.0), PiecewiseConstant((0.0, 0.8), (0.5, 0.3)), 2.0
        )
        assert m.mu == AgeDependentRate((0.0, 0.8), (0.0,), ((0.5,), (0.3,)))
        assert not m.mu.depends_on_age
        assert RateModel.constant(1.0, 0.4, 2.0).mu == AgeDependentRate((0.0,), (0.0,), ((0.4,),))

    def test_age_breaks_without_a_rate_change_are_dropped(self):
        mu = AgeDependentRate((0.0, 1.0), (0.0, 0.3, 0.5, 0.9), ((1, 1, 2, 2), (3, 3, 3, 4)))
        assert mu.x_breaks == (0.0, 0.5, 0.9)
        assert mu.values == ((1.0, 2.0, 2.0), (3.0, 3.0, 4.0))
        assert mu.depends_on_age
        flat = AgeDependentRate((0.0, 1.0), (0.0, 0.5), ((1.0, 1.0), (2.0, 2.0)))
        assert flat == AgeDependentRate((0.0, 1.0), (0.0,), ((1.0,), (2.0,)))
        assert not flat.depends_on_age

    @pytest.mark.parametrize(
        "lam, mu, kind",
        [
            ((1.0,), ((0.0,), (0.0,), ((0.4,),)), "constant"),
            ((1.0,), ((0.0,), (0.0, 0.5), ((0.4, 0.4),)), "constant"),
            ((1.0, 2.0), ((0.0,), (0.0,), ((0.4,),)), "time_varying"),
            ((1.0,), ((0.0, 1.0), (0.0,), ((0.4,), (0.2,))), "time_varying"),
            ((1.0,), ((0.0,), (0.0, 0.5), ((0.4, 0.2),)), "age_dependent"),
            ((1.0, 2.0), ((0.0, 1.0), (0.0, 0.5), ((0.4, 0.4), (0.2, 0.3))), "age_dependent"),
        ],
    )
    def test_kind_is_derived_from_the_rates(self, lam, mu, kind):
        lam = PiecewiseConstant((0.0, 1.0)[: len(lam)], lam)
        model = RateModel(lam, AgeDependentRate(*mu), 2.0)
        assert model.kind == kind
        with pytest.raises(AttributeError):
            model.kind = "constant"


class TestModelJson:
    def test_round_trip_constant(self):
        m = RateModel.constant(1.0, 0.5, 2.0)
        assert rate_model_from_json(rate_model_to_json(m)) == m

    def test_example_payload(self):
        m = rate_model_from_json({"kind": "constant", "lambda": 1.0, "mu": 0.5, "T": 2.0})
        assert m.lambda_constant == 1.0 and m.mu_constant == 0.5 and m.T == 2.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ModelError):
            rate_model_from_json(
                {"kind": "constant", "lambda": 1.0, "mu": 0.5, "T": 2.0, "extra": 1}
            )

    def test_missing_keys_rejected(self):
        with pytest.raises(ModelError):
            rate_model_from_json({"kind": "constant", "lambda": 1.0, "T": 2.0})

    def test_time_varying_round_trip(self):
        payload = {
            "kind": "time_varying",
            "lambda": {"breaks": [0, 1], "values": [1.0, 2.0]},
            "mu": 0.5,
            "T": 2.0,
        }
        m = rate_model_from_json(payload)
        assert m.birth_rate(1.5) == 2.0
        assert rate_model_from_json(rate_model_to_json(m)) == m

    def test_time_varying_rates_cannot_be_labelled_constant(self):
        lam = {"breaks": [0, 1], "values": [1.0, 2.0]}
        with pytest.raises(ModelError, match="kind 'constant' requires scalar lambda and mu"):
            rate_model_from_json({"kind": "constant", "lambda": lam, "mu": 0.5, "T": 2.0})
        # the model stores no kind to set
        mu = RateModel.constant(1.0, 0.5, 2.0).mu
        with pytest.raises(TypeError):
            RateModel("constant", PiecewiseConstant((0.0, 1.0), (1.0, 2.0)), mu, 2.0)
        assert RateModel(PiecewiseConstant((0.0, 1.0), (1.0, 2.0)), mu, 2.0).kind == "time_varying"

    @pytest.mark.parametrize(
        "payload, kind",
        [
            ({"kind": "time_varying", "lambda": 1.0, "mu": 0.5, "T": 2.0}, "constant"),
            (
                {"kind": "age_dependent", "lambda": 1.0, "T": 2.0,
                 "mu": {"t_breaks": [0.0], "x_breaks": [0.0, 0.5], "values": [[0.5, 0.5]]}},
                "constant",
            ),
            (
                {"kind": "age_dependent", "lambda": 1.0, "T": 2.0,
                 "mu": {"t_breaks": [0.0, 0.8], "x_breaks": [0.0], "values": [[0.5], [0.3]]}},
                "time_varying",
            ),
            (
                {"kind": "age_dependent", "lambda": {"breaks": [0.0, 1.3], "values": [1.0, 1.5]},
                 "mu": {"t_breaks": [0.0, 0.8], "x_breaks": [0.0, 0.5],
                        "values": [[0.2, 0.7], [0.4, 0.1]]},
                 "T": 2.0},
                "age_dependent",
            ),
        ],
    )
    def test_kind_read_from_the_rates_and_round_trip(self, payload, kind):
        m = rate_model_from_json(payload)
        assert m.kind == kind == rate_model_to_json(m)["kind"]
        assert rate_model_from_json(rate_model_to_json(m)) == m

    def test_age_dependent_grid(self):
        payload = {
            "kind": "age_dependent",
            "lambda": 1.0,
            "mu": {"t_breaks": [0.0, 1.0], "x_breaks": [0.0, 0.5], "values": [[0.1, 0.2], [0.3, 0.4]]},
            "T": 2.0,
        }
        m = rate_model_from_json(payload)
        assert m.death_rate(0.5, 0.1) == 0.1
        assert m.death_rate(1.5, 0.9) == 0.4


class TestSchemeParsing:
    def test_variants(self):
        assert parse_scheme("full") == SamplingScheme.full()
        assert parse_scheme("bernoulli:0.3") == SamplingScheme.bernoulli(0.3)
        assert parse_scheme("k:5") == SamplingScheme.uniform_k(5)

    @pytest.mark.parametrize(
        "scheme",
        [
            SamplingScheme.full(),
            SamplingScheme.bernoulli(0.3),
            SamplingScheme.bernoulli(None),
            SamplingScheme.uniform_k(5),
        ],
    )
    def test_describe_round_trips(self, scheme):
        assert parse_scheme(scheme.describe()) == scheme

    @pytest.mark.parametrize("bad", ["", "bern:0.3", "bernoulli:1.5", "bernoulli:x", "k:0", "k:two", "k"])
    def test_malformed(self, bad):
        with pytest.raises(SchemeError) as err:
            parse_scheme(bad)
        assert err.value.position >= 0
