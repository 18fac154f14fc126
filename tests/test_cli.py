"""End-to-end checks of the command-line interface."""

import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cppgen
from cppgen import cli, cpp
from cppgen.cli import main
from cppgen.kernel import ClosedFormTail, closed_form_F, step_grid, tail_for
from cppgen.ksample import (
    bernoulli_loglikelihood, full_loglikelihood, ksample_loglikelihood, trapezoid_nodes,
)
from cppgen.model import TreeBatch, newick_to_tree, rate_model_from_json

TV_JSON = {
    "kind": "time_varying",
    "lambda": {"breaks": [0.0, 1.3], "values": [1.0, 1.5]},
    "mu": 0.5,
    "T": 2.0,
}
# kernel.tail_at_T's one message for an F(T) past the float range.
TAIL_OVERFLOW = "F(T) is not finite (inf): F leaves the float range"
# F(T) is about e^{800}, past the float range, in both models.
BIG_JSON = {
    "time_varying": {
        "kind": "time_varying",
        "lambda": {"breaks": [0.0, 1.0], "values": [400.0, 400.0]},
        "mu": 0.2,
        "T": 2.0,
    },
    "constant": {"kind": "constant", "lambda": 400.0, "mu": 0.2, "T": 2.0},
}
AD_JSON = {
    "kind": "age_dependent",
    "lambda": 1.0,
    "mu": {"t_breaks": [0.0], "x_breaks": [0.0, 0.5], "values": [[0.2, 0.7]]},
    "T": 2.0,
}
# Death that does not depend on age, spelled as a time x age grid in two
# ways and as a time-varying rate.
AGE_FREE_LAMBDA = {"breaks": [0.0, 1.3], "values": [1.0, 1.5]}
AGE_FREE_JSON = {
    "one-age-piece": {
        "kind": "age_dependent",
        "lambda": AGE_FREE_LAMBDA,
        "mu": {"t_breaks": [0.0, 0.8], "x_breaks": [0.0], "values": [[0.5], [0.3]]},
        "T": 2.0,
    },
    "rows-constant-across-ages": {
        "kind": "age_dependent",
        "lambda": AGE_FREE_LAMBDA,
        "mu": {"t_breaks": [0.0, 0.8], "x_breaks": [0.0, 0.5], "values": [[0.5, 0.5], [0.3, 0.3]]},
        "T": 2.0,
    },
    "time_varying": {
        "kind": "time_varying",
        "lambda": AGE_FREE_LAMBDA,
        "mu": {"breaks": [0.0, 0.8], "values": [0.5, 0.3]},
        "T": 2.0,
    },
}


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "constant", "lambda": 1.0, "mu": 0.5, "T": 2.0}))
    return str(path)


@pytest.fixture
def tv_path(tmp_path):
    path = tmp_path / "tv.json"
    path.write_text(json.dumps(TV_JSON))
    return str(path)


@pytest.fixture
def ad_path(tmp_path):
    path = tmp_path / "ad.json"
    path.write_text(json.dumps(AD_JSON))
    return str(path)


@pytest.fixture
def solve_calls(monkeypatch):
    calls = []
    solve = cli.solve_F

    def counting(model, step):
        calls.append(step)
        return solve(model, step)

    monkeypatch.setattr(cli, "solve_F", counting)
    return calls


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_newick_output(self, capsys, model_path):
        code, out, _ = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "full",
            "--reps", "5", "--seed", "42",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            tree = newick_to_tree(line)
            assert tree.height == pytest.approx(2.0, rel=1e-9)

    def test_worker_count_invariance(self, capsys, model_path):
        outs = []
        for workers in ("1", "3"):
            code, out, _ = _run(
                capsys, "simulate", "--model", model_path, "--scheme", "k:4",
                "--reps", "12", "--seed", "7", "--workers", workers,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_csv_output(self, capsys, model_path):
        code, out, _ = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "full",
            "--reps", "3", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rep,index,depth"
        for line in lines[1:]:
            rep, idx, depth = line.split(",")
            assert 0 <= int(rep) < 3
            assert 0.0 < float(depth) < 2.0

    def test_bernoulli_scheme(self, capsys, model_path):
        code, out, _ = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "bernoulli:0.5",
            "--reps", "4", "--seed", "3",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_forward_simulator(self, capsys, model_path):
        code, out, _ = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "full",
            "--reps", "3", "--seed", "5", "--forward", "--workers", "1",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("scheme", ["k:3", "bernoulli:0.5"])
    def test_forward_rejects_sampled_schemes(self, capsys, model_path, scheme):
        code, out, err = _run(
            capsys, "simulate", "--model", model_path, "--scheme", scheme,
            "--reps", "3", "--seed", "5", "--forward", "--workers", "1",
        )
        assert code == 2
        assert out == ""
        assert "full scheme only" in err

    @pytest.mark.parametrize(
        "rates, expected",
        [
            ((1.0, 0.5, 800.0), "expected 1.044e+174 tips"),
            pytest.param((50.0, 0.0, 20.0), TAIL_OVERFLOW, id="rates1-overflow"),
        ],
    )
    @pytest.mark.parametrize("scheme", ["full", "bernoulli:0.5"])
    def test_huge_expected_tip_count_rejected(self, capsys, tmp_path, rates, expected, scheme):
        # F(T) = 1e174 used to loop until memory ran out; F(T) = inf as well,
        # which is the likelihoods' overflow error
        lam, mu, T = rates
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"kind": "constant", "lambda": lam, "mu": mu, "T": T}))
        code, out, err = _run(
            capsys, "simulate", "--model", str(path), "--scheme", scheme,
            "--reps", "1", "--seed", "1", "--workers", "1",
        )
        assert code == 2
        assert out == ""
        if scheme == "full":
            assert expected in err

    def test_expected_tips_counts_replicates(self, capsys, model_path):
        # F(T) = 4.44: 3e6 replicates would hold about 1.3e7 tips
        code, out, err = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "full",
            "--reps", "3000000", "--seed", "1", "--workers", "1",
        )
        assert code == 2
        assert "expected 1.331e+07 tips in 3000000 tree(s)" in err

    def test_age_dependent_solves_once(self, capsys, ad_path, solve_calls):
        code, out, _ = _run(
            capsys, "simulate", "--model", ad_path, "--scheme", "k:3",
            "--reps", "4", "--seed", "2", "--workers", "1",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        assert solve_calls == [1e-3]

    def test_time_varying_never_solves(self, capsys, tv_path, solve_calls):
        code, _, _ = _run(
            capsys, "simulate", "--model", tv_path, "--scheme", "bernoulli:0.5",
            "--reps", "4", "--seed", "2", "--workers", "1",
        )
        assert code == 0
        assert solve_calls == []

    def test_age_dependent_worker_count_invariance(self, capsys, ad_path):
        # --workers is accepted and ignored: the grid tail is solved and
        # inverted in this process either way
        outs = []
        for workers in ("1", "2"):
            code, out, _ = _run(
                capsys, "simulate", "--model", ad_path, "--scheme", "full",
                "--reps", "6", "--seed", "9", "--workers", workers,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestSimulationBlocks:
    """``simulate`` draws fixed-size blocks; a block size of 5 makes 12
    replicates three blocks, forward runs included, whatever ``--workers``
    says."""

    @pytest.mark.parametrize(
        "model, scheme, extra",
        [
            ("const", "full", []),
            ("const", "bernoulli:0.5", []),
            ("const", "k:4", []),
            ("ad", "full", []),
            ("const", "full", ["--forward"]),
        ],
    )
    def test_multi_block_worker_count_invariance(
        self, capsys, monkeypatch, model_path, ad_path, model, scheme, extra
    ):
        monkeypatch.setattr(cli, "SIM_BLOCK", 5)
        path = model_path if model == "const" else ad_path
        outs = []
        for workers in ("1", "3", "1"):
            code, out, err = _run(
                capsys, "simulate", "--model", path, "--scheme", scheme, "--reps", "12",
                "--seed", "13", "--workers", workers, *extra,
            )
            assert code == 0, err
            outs.append(out)
        assert len(outs[0].splitlines()) == 12
        assert outs[0] == outs[1] == outs[2]

    def test_csv_replicate_index_runs_across_blocks(self, capsys, monkeypatch, model_path):
        monkeypatch.setattr(cli, "SIM_BLOCK", 2)
        code, out, _ = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "k:3", "--reps", "5",
            "--seed", "4", "--format", "csv", "--workers", "1",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(int(r), int(i)) for r, i, _ in rows] == [(r, i) for r in range(5) for i in range(2)]

    def test_ksample_tip_budget_is_per_block(self, capsys, monkeypatch, model_path, tmp_path):
        # k:6 blocks of 4 draws hold 24 tips, past a cap of 20: exit 2 before
        # the output is opened; k:5 blocks hold 20, so 10 draws (50 tips) run
        monkeypatch.setattr(cpp, "MAX_EXPECTED_TIPS", 20)
        monkeypatch.setattr(cli, "SIM_BLOCK", 4)
        path = tmp_path / "k.nwk"
        argv = ["simulate", "--model", model_path, "--reps", "10", "--seed", "2", "--out", str(path)]
        code, out, err = _run(capsys, *argv, "--scheme", "k:6")
        assert (code, out) == (2, "") and not path.exists()
        assert err == (
            "error: expected 24 tips in 4 tree(s) (k = 6 per tree); "
            "more than 2e+01 do not fit in memory\n"
        )
        code, _, err = _run(capsys, *argv, "--scheme", "k:5")
        assert code == 0, err
        assert len(path.read_text().splitlines()) == 10

    def test_memory_is_bounded_by_one_block(self, capsys, model_path, tmp_path):
        # F(T) = 4.44: 40000 replicates are about ten blocks of 4096
        def peak(reps):
            tracemalloc.start()
            try:
                code, _, _ = _run(
                    capsys, "simulate", "--model", model_path, "--scheme", "full",
                    "--reps", str(reps), "--seed", "3", "--workers", "1",
                    "--out", str(tmp_path / f"sim{reps}.nwk"),
                )
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        code_one, one_block = peak(cli.SIM_BLOCK)
        code_many, many_blocks = peak(40_000)
        assert code_one == code_many == 0
        assert len((tmp_path / "sim40000.nwk").read_text().splitlines()) == 40_000
        assert many_blocks <= 2 * one_block


class TestLikelihood:
    def test_matches_library(self, capsys, model_path, tmp_path):
        trees = tmp_path / "trees.nwk"
        trees.write_text("((0:0.3,1:0.3):0.3,(2:0.2,3:0.2):0.4):1.4;\n(0:0.5,1:0.5):1.5;\n")
        code, out, _ = _run(
            capsys, "likelihood", "--tree", str(trees), "--model", model_path,
            "--scheme", "full",
        )
        assert code == 0
        payload = json.loads(out)
        F = ClosedFormTail(1.0, 0.5, 2.0)
        expect = sum(
            full_loglikelihood(newick_to_tree(line), F)
            for line in trees.read_text().splitlines()
        )
        assert_allclose(payload["logL"], expect, rtol=1e-9)
        assert payload["n_trees"] == 2
        assert payload["scheme"] == "full"

    def test_bernoulli_unoriented(self, capsys, model_path, tmp_path):
        lines = ["((0:0.3,1:0.3):0.3,(2:0.2,3:0.2):0.4):1.4;", "0:2;", "(0:0.5,1:0.5):1.5;"]
        trees = tmp_path / "trees.nwk"
        trees.write_text("\n".join(lines) + "\n")
        code, out, _ = _run(
            capsys, "likelihood", "--tree", str(trees), "--model", model_path,
            "--scheme", "bernoulli:0.4", "--unoriented",
        )
        assert code == 0
        F = ClosedFormTail(1.0, 0.5, 2.0)
        expect = sum(
            bernoulli_loglikelihood(newick_to_tree(line), F, 0.4, oriented=False)
            for line in lines
        )
        assert_allclose(json.loads(out)["logL"], expect, rtol=1e-12)

    def test_mixed_heights_rejected(self, capsys, model_path, tmp_path):
        trees = tmp_path / "trees.nwk"
        trees.write_text("(0:0.5,1:0.5):1.5;\n(0:0.5,1:0.5):1.0;\n")
        code, _, err = _run(
            capsys, "likelihood", "--tree", str(trees), "--model", model_path,
            "--scheme", "full",
        )
        assert code == 2
        assert "height" in err

    def test_ksample_scheme(self, capsys, model_path, tmp_path):
        trees = tmp_path / "trees.nwk"
        trees.write_text("(0:0.5,1:0.5):1.5;\n")
        code, out, _ = _run(
            capsys, "likelihood", "--tree", str(trees), "--model", model_path,
            "--scheme", "k:2",
        )
        assert code == 0
        payload = json.loads(out)
        F = ClosedFormTail(1.0, 0.5, 2.0)
        tree = newick_to_tree("(0:0.5,1:0.5):1.5;")
        assert_allclose(payload["logL"], ksample_loglikelihood(tree, F, 2), rtol=1e-9)
        # the nodes the fixed trapezoid evaluated; --quad-nodes is ignored
        assert payload["quad_nodes"] == trapezoid_nodes(TreeBatch.from_trees([tree]), F, 2)
        code, again, _ = _run(
            capsys, "likelihood", "--tree", str(trees), "--model", model_path,
            "--scheme", "k:2", "--quad-nodes", "16",
        )
        assert code == 0 and again == out

    @pytest.mark.parametrize("scheme", ["full", "bernoulli:0.4", "k:3"])
    def test_zero_birth_piece_under_warnings_as_errors(self, tmp_path, scheme):
        # lambda = 0 on [0, 1): the tree with a depth past 1 has likelihood
        # 0, so logL is -inf, written as json.dumps writes it, with exit 0
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "kind": "time_varying", "lambda": {"breaks": [0.0, 1.0], "values": [0.0, 1.0]},
            "mu": 0.5, "T": 2.0,
        }))
        trees = tmp_path / "trees.nwk"
        trees.write_text("((0:0.3,1:0.3):0.4,2:0.7):1.3;\n((0:0.4,1:0.4):1.1,2:1.5):0.5;\n")
        src = str(Path(cppgen.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cppgen.cli", "likelihood",
             "--tree", str(trees), "--model", str(model), "--scheme", scheme],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["logL"] == -math.inf and payload["n_trees"] == 2
        assert proc.stdout.startswith('{"logL": -Infinity, ')


class TestKSampleOverflow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["simulate", "likelihood"])
    def test_infinite_F_is_a_domain_error(self, capsys, tmp_path, command):
        # F(T) = e^1000 overflows: exit 2 naming F(T), and no numpy warning
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"kind": "constant", "lambda": 50.0, "mu": 0.0, "T": 20.0}))
        trees = tmp_path / "trees.nwk"
        trees.write_text("((0:0.3,1:0.3):0.3,2:0.6):19.4;\n")
        if command == "simulate":
            argv = ["simulate", "--reps", "2", "--seed", "1", "--workers", "1"]
        else:
            argv = ["likelihood", "--tree", str(trees)]
        code, out, err = _run(capsys, *argv, "--model", str(path), "--scheme", "k:3")
        assert code == 2
        assert out == ""
        assert "F(T) is not finite" in err
        assert "Warning" not in err

    @pytest.mark.filterwarnings("error")
    def test_single_tip_likelihood_needs_no_finite_F(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"kind": "constant", "lambda": 50.0, "mu": 0.0, "T": 20.0}))
        trees = tmp_path / "trees.nwk"
        trees.write_text("0:20;\n0:20;\n")
        code, out, err = _run(
            capsys, "likelihood", "--tree", str(trees), "--model", str(path), "--scheme", "k:1"
        )
        assert code == 0, err
        assert json.loads(out)["logL"] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_single_tip_draw_needs_no_a(self, capsys, tmp_path):
        # F(T) = 1.044e174 is finite, but a = 1 - 1/F(T) rounds to 1: a
        # one-tip draw needs no a, while k = 2 has no mixture to draw from,
        # and an F(T) past the float range is still an overflow
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"kind": "constant", "lambda": 1.0, "mu": 0.5, "T": 800.0}))
        argv = ["--model", str(path), "--reps", "3", "--seed", "1"]
        code, out, err = _run(capsys, "simulate", *argv, "--scheme", "k:1")
        assert (code, out, err) == (0, "0:800;\n" * 3, "")
        trees = tmp_path / "k1.nwk"
        trees.write_text(out)
        code, out, err = _run(
            capsys, "likelihood", "--tree", str(trees), "--model", str(path), "--scheme", "k:1"
        )
        assert code == 0, err
        assert json.loads(out)["logL"] == 0.0
        code, out, err = _run(capsys, "simulate", *argv, "--scheme", "k:2")
        assert (code, out) == (2, "")
        assert "a rounds to 1" in err
        path.write_text(json.dumps({"kind": "constant", "lambda": 50.0, "mu": 0.0, "T": 20.0}))
        code, out, err = _run(capsys, "simulate", *argv, "--scheme", "k:1")
        assert (code, out, err) == (2, "", f"error: {TAIL_OVERFLOW}\n")


class TestTailOverflow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scheme", ["full", "bernoulli:0.5"])
    def test_infinite_F_is_a_domain_error(self, capsys, model_path, tmp_path, scheme):
        # lam = 400, T = 2: F(T) = e^800 overflows; exit 2 naming F(T)
        # instead of "logL": NaN, and no numpy warning
        trees = tmp_path / "sim.nwk"
        code, _, _ = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "full",
            "--reps", "50", "--seed", "3", "--out", str(trees),
        )
        assert code == 0
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"kind": "constant", "lambda": 400.0, "mu": 0.2, "T": 2.0}))
        code, out, err = _run(
            capsys, "likelihood", "--tree", str(trees), "--model", str(big), "--scheme", scheme
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "F(T) is not finite" in err
        assert "Warning" not in err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scheme", "full", "--reps", "3", "--seed", "1"],
            ["simulate", "--scheme", "bernoulli:0.5", "--reps", "3", "--seed", "1"],
            ["simulate", "--scheme", "k:3", "--reps", "3", "--seed", "1"],
            ["likelihood", "--scheme", "full"],
            ["likelihood", "--scheme", "bernoulli:0.3"],
            ["likelihood", "--scheme", "k:3"],
            ["dump-f"],
        ],
        ids=" ".join,
    )
    def test_one_error_line_for_every_command(self, capsys, tmp_path, argv):
        # F(T) = e^800: samplers, likelihoods and dump-f all fail in
        # kernel.tail_at_T, with one stderr line and no numpy warning
        big = tmp_path / "big.json"
        big.write_text(json.dumps(BIG_JSON["constant"]))
        trees = tmp_path / "trees.nwk"
        trees.write_text("((0:0.3,1:0.3):0.3,2:0.6):1.4;\n(0:1.1,(1:0.2,2:0.2):0.9):0.9;\n")
        if argv[0] == "likelihood":
            argv = [*argv, "--tree", str(trees)]
        code, out, err = _run(capsys, *argv, "--model", str(big))
        assert (code, out, err) == (2, "", f"error: {TAIL_OVERFLOW}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["time_varying", "constant"])
    def test_every_command_exits_2(self, capsys, model_path, tmp_path, kind):
        # the same typed errors for a time-varying and a constant F(T) = inf,
        # with no numpy warning: dump-f writes no "inf" row either
        trees = {}
        for scheme in ("full", "k:3"):
            trees[scheme] = tmp_path / f"{scheme}.nwk"
            code, _, _ = _run(
                capsys, "simulate", "--model", model_path, "--scheme", scheme,
                "--reps", "20", "--seed", "3", "--out", str(trees[scheme]),
            )
            assert code == 0
        big = tmp_path / "big.json"
        big.write_text(json.dumps(BIG_JSON[kind]))
        commands = [
            ("likelihood", "--tree", str(trees["full"]), "--scheme", "full"),
            ("likelihood", "--tree", str(trees["full"]), "--scheme", "bernoulli:0.5"),
            ("likelihood", "--tree", str(trees["k:3"]), "--scheme", "k:3"),
            ("simulate", "--scheme", "full", "--reps", "3", "--seed", "1"),
            ("simulate", "--scheme", "k:3", "--reps", "3", "--seed", "1"),
            ("dump-f", "--step", "0.5"),
        ]
        for argv in commands:
            code, out, err = _run(capsys, *argv, "--model", str(big))
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: ") and "F(T)" in err, err

    @pytest.mark.parametrize("command", ["dump-f", "likelihood"])
    def test_time_varying_under_warnings_as_errors(self, tmp_path, command):
        # a fresh interpreter with -W error::RuntimeWarning, as CI runs it
        big = tmp_path / "big.json"
        big.write_text(json.dumps(BIG_JSON["time_varying"]))
        trees = tmp_path / "trees.nwk"
        trees.write_text("((0:0.3,1:0.3):0.3,2:0.6):1.4;\n")
        argv = ["dump-f"]
        if command == "likelihood":
            argv = ["likelihood", "--tree", str(trees), "--scheme", "full"]
        src = str(Path(cppgen.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cppgen.cli", *argv,
             "--model", str(big)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: F(T) is not finite")
        assert "Traceback" not in proc.stderr


class TestFit:
    def test_free_bernoulli_y(self, capsys, model_path, tmp_path):
        # "bernoulli:?" is the free-y scheme as SamplingScheme.describe writes it
        trees = tmp_path / "sim.nwk"
        code, _, _ = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "bernoulli:0.5",
            "--reps", "200", "--seed", "12", "--out", str(trees),
        )
        assert code == 0
        code, out, err = _run(capsys, "fit", "--trees", str(trees), "--scheme", "bernoulli:?")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["converged"] is True
        assert 0.0 < payload["y"] < 1.0

    @pytest.mark.parametrize("command", ["simulate", "likelihood"])
    def test_free_y_needs_a_fit(self, capsys, model_path, tmp_path, command):
        trees = tmp_path / "trees.nwk"
        trees.write_text("((0:0.3,1:0.3):0.3,2:0.6):1.4;\n")
        if command == "simulate":
            argv = ["simulate", "--reps", "2", "--seed", "1"]
        else:
            argv = ["likelihood", "--tree", str(trees)]
        code, out, err = _run(capsys, *argv, "--model", model_path, "--scheme", "bernoulli:?")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "y" in err

    def test_round_trip(self, capsys, model_path, tmp_path):
        code, out, _ = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "full",
            "--reps", "100", "--seed", "11", "--out", str(tmp_path / "sim.nwk"),
        )
        assert code == 0
        code, out, _ = _run(
            capsys, "fit", "--trees", str(tmp_path / "sim.nwk"), "--scheme", "full",
            "--init", "lam=0.8,mu=0.4",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["lambda"] - 1.0) < 0.3
        assert abs(payload["mu"] - 0.5) < 0.3
        assert payload["converged"] is True

    @pytest.mark.parametrize("scheme", ["full", "bernoulli:0.3"])
    def test_logl_is_the_likelihood_at_the_estimate(self, capsys, model_path, tmp_path, scheme):
        trees = str(tmp_path / "sim.nwk")
        code, _, _ = _run(
            capsys, "simulate", "--model", model_path, "--scheme", scheme,
            "--reps", "300", "--seed", "13", "--out", trees,
        )
        assert code == 0
        code, out, err = _run(capsys, "fit", "--trees", trees, "--scheme", scheme)
        assert code == 0, err
        fit = json.loads(out)
        fitted = tmp_path / "fitted.json"
        fitted.write_text(json.dumps(
            {"kind": "constant", "lambda": fit["lambda"], "mu": fit["mu"], "T": 2.0}
        ))
        code, out, err = _run(
            capsys, "likelihood", "--tree", trees, "--model", str(fitted), "--scheme", scheme,
        )
        assert code == 0, err
        assert json.loads(out)["logL"] == pytest.approx(fit["logL"], rel=1e-12)


class TestDumpF:
    def test_matches_closed_form(self, capsys, model_path):
        code, out, _ = _run(
            capsys, "dump-f", "--model", model_path, "--step", "1e-2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,F"
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert_allclose(data[:, 1], closed_form_F(1.0, 0.5, data[:, 0]), rtol=1e-4)


    def test_time_varying_is_exact(self, capsys, tv_path, solve_calls):
        code, out, _ = _run(capsys, "dump-f", "--model", tv_path, "--step", "1e-2")
        assert code == 0
        assert solve_calls == []
        # every printed digit (12 significant) is the exact tail's
        F = tail_for(rate_model_from_json(TV_JSON))
        ts = step_grid(2.0, 1e-2)
        expect = ["t,F"] + [f"{t:.12g},{v:.12g}" for t, v in zip(ts, F.value(ts))]
        assert out.strip().splitlines() == expect

    @pytest.mark.parametrize("model", [TV_JSON, AD_JSON])
    @pytest.mark.parametrize("step", ["1e-2", "4e-4"])
    def test_same_bytes_as_per_line_format(self, capsys, tmp_path, model, step):
        # the grid is formatted by one '%.12g' template, as it was line by
        # line with format(x, '.12g')
        path, out = tmp_path / "model.json", tmp_path / "f.csv"
        path.write_text(json.dumps(model))
        code, _, err = _run(capsys, "dump-f", "--model", str(path), "--step", step, "--out", str(out))
        assert code == 0, err
        m = rate_model_from_json(model)
        ts = step_grid(m.T, float(step))
        values = tail_for(m, float(step)).value(ts)
        lines = ["t,F"] + [f"{format(t, '.12g')},{format(v, '.12g')}" for t, v in zip(ts, values)]
        assert out.read_bytes() == "".join(line + "\n" for line in lines).encode()

    def test_step_must_divide_horizon(self, capsys, tv_path):
        code, _, err = _run(capsys, "dump-f", "--model", tv_path, "--step", "3e-3")
        assert code == 2
        assert "step must divide T" in err


class TestAgeIndependentGrid:
    @pytest.mark.parametrize("grid", ["one-age-piece", "rows-constant-across-ages"])
    def test_same_bytes_as_time_varying_spelling(self, capsys, tmp_path, solve_calls, grid):
        paths = {}
        for name in (grid, "time_varying"):
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(AGE_FREE_JSON[name]))
        trees = {}
        for scheme in ("full", "k:3"):
            trees[scheme] = str(tmp_path / f"{scheme}.nwk")
            code, _, err = _run(
                capsys, "simulate", "--model", paths["time_varying"], "--scheme", scheme,
                "--reps", "40", "--seed", "13", "--out", trees[scheme],
            )
            assert code == 0, err
        commands = [["dump-f"]] + [
            ["likelihood", "--tree", trees["k:3" if scheme == "k:3" else "full"], "--scheme", scheme]
            for scheme in ("full", "bernoulli:0.4", "k:3")
        ]
        for command in commands:
            outputs = []
            for name in (grid, "time_varying"):
                code, out, err = _run(capsys, *command, "--model", paths[name])
                assert code == 0, err
                outputs.append(out)
            same = outputs[0] == outputs[1]  # no diff of thousands of lines on failure
            assert same, command
        assert solve_calls == []


class TestExitCodes:
    def test_missing_model_file(self, capsys):
        code, _, err = _run(
            capsys, "simulate", "--model", "/nonexistent.json", "--scheme", "full",
            "--reps", "1", "--seed", "0",
        )
        assert code == 2
        assert "error" in err

    def test_bad_scheme(self, capsys, model_path):
        code, _, err = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "bogus",
            "--reps", "1", "--seed", "0",
        )
        assert code == 2

    def test_usage_error(self, capsys):
        code, _, _ = _run(capsys, "simulate")  # missing required flags
        assert code == 2

    def test_version(self, capsys):
        code, out, err = _run(capsys, "--version")
        assert code == 0

    @pytest.fixture
    def trees_path(self, tmp_path):
        path = tmp_path / "trees.nwk"
        path.write_text("((0:0.3,1:0.3):0.3,(2:0.2,3:0.2):0.4):1.4;\n(0:0.5,1:0.5):1.5;\n")
        return str(path)

    def test_malformed_model_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "constant", "lambda": 1.0,')
        code, _, err = _run(
            capsys, "simulate", "--model", str(path), "--scheme", "full", "--reps", "1",
            "--seed", "0",
        )
        assert code == 2
        assert err.startswith("error: ") and "not valid JSON" in err

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"kind": "constant", "lambda": 1.0, "mu": 0.5, "T": "abc"}, "T must be a number"),
            (
                dict(AD_JSON, mu={"x_breaks": [0.0, 0.5], "values": [[0.2, 0.7]]}),
                "missing keys in mu grid: ['t_breaks']",
            ),
            (dict(TV_JSON, mu={"breaks": [0.0, 1.3]}), "missing keys in mu table"),
            (
                dict(AD_JSON, mu=dict(AD_JSON["mu"], t_breaks=0)),
                "time breakpoints must be a list of numbers, not 0",
            ),
            (
                dict(TV_JSON, **{"lambda": {"breaks": [0.0, 1.3], "values": ["a", "b"]}}),
                "rate values must be a list of numbers",
            ),
            (
                dict(AD_JSON, mu=dict(AD_JSON["mu"], t_breaks=[])),
                "time and age grids must start at 0",
            ),
            # booleans and strings that float() would read are not numbers:
            # dump-f printed e^t for the first
            ({"kind": "constant", "lambda": True, "mu": False, "T": "2"}, "T must be a number, not '2'"),
            ({"kind": "constant", "lambda": 1.0, "mu": 0.5, "T": True}, "T must be a number, not True"),
            ({"kind": "constant", "lambda": True, "mu": 0.5, "T": 2.0}, "lambda must be a number"),
            (
                dict(TV_JSON, mu={"breaks": [0.0, 1.3], "values": ["1", True]}),
                "rate values must be a list of numbers",
            ),
        ],
    )
    def test_bad_model_fields(self, capsys, tmp_path, model, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model))
        code, out, err = _run(capsys, "dump-f", "--model", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_bounds_of_booleans_and_strings(self, capsys, tmp_path, trees_path):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({"lam": [True, "1e3"], "mu": ["0", 5]}))
        code, out, err = _run(
            capsys, "fit", "--trees", trees_path, "--scheme", "full", "--bounds", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: bound of lam must be a pair (lower, upper), not [True, '1e3']")

    @pytest.mark.parametrize("command", ["dump-f", "simulate"])
    @pytest.mark.parametrize(
        "model",
        [
            {"kind": "constant", "lambda": math.nan, "mu": 0.5, "T": 2.0},
            {"kind": "constant", "lambda": 1.0, "mu": math.inf, "T": 2.0},
            dict(AD_JSON, mu=dict(AD_JSON["mu"], values=[[0.2, math.nan]])),
        ],
        ids=["nan-lambda", "infinite-mu", "nan-grid-entry"],
    )
    def test_non_finite_rates(self, capsys, tmp_path, command, model):
        # json writes NaN and Infinity, and json.load reads them back
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model))
        argv = ["--scheme", "full", "--seed", "0"] if command == "simulate" else []
        code, out, err = _run(capsys, command, "--model", str(path), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: rate values must be finite and >= 0")

    def test_directory_as_tree_file(self, capsys, tmp_path, model_path):
        code, _, err = _run(
            capsys, "likelihood", "--tree", str(tmp_path), "--model", model_path,
            "--scheme", "full",
        )
        assert code == 2
        assert err.startswith("error: ") and "Is a directory" in err

    @pytest.mark.parametrize("command", ["likelihood", "fit"])
    def test_bad_tree_names_its_line(self, capsys, tmp_path, model_path, command):
        path = tmp_path / "trees.nwk"
        lines = ["(0:0.5,1:0.5):1.5;"] * 20
        lines[16] = "(0:0.5,1:0.5)(2:0.5):1.5;"
        path.write_text("\n".join(lines) + "\n")
        args = ["--tree", str(path), "--model", model_path] if command == "likelihood" else [
            "--trees", str(path)
        ]
        code, out, err = _run(capsys, command, *args, "--scheme", "full")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path} line 17: Newick parse error at position 13: ")

    @pytest.mark.parametrize("command", ["likelihood", "fit", "dump-f", "fit-bounds"])
    def test_input_not_utf8(self, capsys, tmp_path, model_path, trees_path, command):
        trees = tmp_path / "latin1.nwk"
        trees.write_bytes(b"(0:0.5,1:0.5):1.5;\n\xff(0:0.5,1:0.5):1.5;\n")
        model = tmp_path / "latin1.json"
        model.write_bytes(b'{"kind": "constant", "lambda": 1.0, "mu": 0.5, "T": 2.0\xff}')
        argv, bad = {
            "likelihood": (
                ["likelihood", "--tree", str(trees), "--model", model_path, "--scheme", "full"],
                trees,
            ),
            "fit": (["fit", "--trees", str(trees), "--scheme", "full"], trees),
            "dump-f": (["dump-f", "--model", str(model)], model),
            "fit-bounds": (
                ["fit", "--trees", trees_path, "--scheme", "full", "--bounds", str(model)],
                model,
            ),
        }[command]
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad} is not ")

    def test_directory_as_output_file(self, capsys, tmp_path, model_path):
        code, _, err = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "full", "--reps", "1",
            "--seed", "0", "--out", str(tmp_path),
        )
        assert code == 2
        assert err.startswith("error: ") and "Is a directory" in err

    def test_ksample_fit_of_other_trees(self, capsys, trees_path):
        # 3 + 1 depths reshape into rows of k - 1 = 2, but the trees have 4 and 2 tips
        code, out, err = _run(capsys, "fit", "--trees", trees_path, "--scheme", "k:3")
        assert code == 2 and out == ""
        assert err.startswith("error: tree has 4 tips, expected k=3")

    def test_ksample_likelihood_of_other_trees_fails_as_fit(self, capsys, model_path, trees_path):
        code, out, err = _run(
            capsys, "likelihood", "--tree", trees_path, "--model", model_path, "--scheme", "k:3"
        )
        assert code == 2 and out == ""
        assert (code, out, err) == _run(capsys, "fit", "--trees", trees_path, "--scheme", "k:3")

    def test_malformed_bounds_json(self, capsys, tmp_path, trees_path):
        path = tmp_path / "bounds.json"
        path.write_text('{"lam": [0.1, ')
        code, _, err = _run(
            capsys, "fit", "--trees", trees_path, "--scheme", "full", "--bounds", str(path)
        )
        assert code == 2
        assert err.startswith("error: ") and "not valid JSON" in err

    @pytest.mark.parametrize("init", ["lam", "lam=abc", "lam=1,mu"])
    def test_malformed_init(self, capsys, trees_path, init):
        code, _, err = _run(capsys, "fit", "--trees", trees_path, "--scheme", "full", "--init", init)
        assert code == 2
        assert err.startswith("error: --init takes name=number pairs")

    @pytest.mark.parametrize(
        "init, message", [("foo=1", "unknown init keys"), ("lam=-1", "initial lam")]
    )
    def test_invalid_init(self, capsys, trees_path, init, message):
        code, _, err = _run(capsys, "fit", "--trees", trees_path, "--scheme", "full", "--init", init)
        assert code == 2
        assert err.startswith("error: ") and message in err

    def test_negative_reps(self, capsys, model_path):
        argv = ["simulate", "--model", model_path, "--scheme", "full", "--seed", "0"]
        code, out, err = _run(capsys, *argv, "--reps", "-5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --reps must be >= 0")
        code, out, err = _run(capsys, *argv, "--reps", "0", "--format", "csv")
        assert code == 0, err
        assert out == "rep,index,depth\n"


class TestDispatch:
    # argv that main must answer exactly as the whole command tree does:
    # help, version, usage errors, and an option before the command
    ARGVS = [
        *([name, "-h"] for name in cli.COMMANDS),
        ["-h"],
        ["--version"],
        [],
        ["bogus"],
        ["simulate", "--model", "m.json", "--scheme", "full"],
        ["simulate", "--model", "m.json", "--scheme", "full", "--seed", "1", "--reps", "abc"],
        ["simulate", "--model", "m.json", "--scheme", "full", "--seed", "1", "--bogus"],
        ["validate", "--quick", "--full"],
        ["--foo", "simulate", "--model", "m", "--scheme", "full", "--seed", "1"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_same_output_as_the_whole_tree(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        assert (code, out, err) == (int(exc.value.code or 0), expected.out, expected.err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "m.json", "--scheme", "k:3", "--seed", "1", "--format", "csv"],
            ["likelihood", "--tree", "t.nwk", "--model", "m.json", "--scheme", "full"],
            ["fit", "--trees", "t.nwk", "--scheme", "full", "--init", "lam=1"],
            ["validate", "--full"],
            ["dump-f", "--model", "m.json", "--step", "0.5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_same_arguments_as_the_whole_tree(self, argv):
        expected = vars(cli.build_parser().parse_args(argv))
        assert expected.pop("command") == argv[0]
        assert vars(cli._parse(argv)) == expected

    def test_simulate_builds_only_its_parser(self, capsys, monkeypatch, model_path):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, out, _ = _run(
            capsys, "simulate", "--model", model_path, "--scheme", "full",
            "--reps", "2", "--seed", "1",
        )
        assert code == 0 and len(out.splitlines()) == 2
        assert progs == ["cppgen simulate"]


class TestValidate:
    def test_quick_tier_passes(self, capsys):
        code, out, _ = _run(capsys, "validate", "--quick")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1..")
        assert all(line.startswith("ok") for line in lines[1:])

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        from cppgen import validate

        def passing():
            return ("stub that passes", True, "fine")

        def failing():
            return ("stub that fails", False, "measured 1 > bound 0")

        monkeypatch.setattr(validate, "QUICK", (passing, failing))
        code, out, _ = _run(capsys, "validate", "--quick")
        assert code == 1
        assert out.splitlines() == [
            "1..2",
            "ok 1 - stub that passes (fine)",
            "not ok 2 - stub that fails (measured 1 > bound 0)",
        ]
