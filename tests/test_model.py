"""Tree data model, Newick round trips, cherry counts, model JSON."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

from cppgen.errors import (
    DomainError,
    ModelError,
    NonBinaryError,
    NonUltrametricError,
    SchemeError,
)
from cppgen.model import (
    OrientedUltrametricTree,
    PiecewiseConstant,
    RateModel,
    SamplingScheme,
    TreeBatch,
    count_cherries,
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

    def test_constant_accessors(self):
        m = RateModel.constant(1.0, 0.4, 2.0)
        assert m.net_rate == pytest.approx(0.6)
        assert m.birth_rate_max == 1.0
        assert m.death_rate(1.7, 0.3) == 0.4


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

    @pytest.mark.parametrize("bad", ["", "bern:0.3", "bernoulli:1.5", "bernoulli:x", "k:0", "k:two", "k"])
    def test_malformed(self, bad):
        with pytest.raises(SchemeError) as err:
            parse_scheme(bad)
        assert err.value.position >= 0
