"""Command-line behavior: payloads, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from coincomp import cli, composer, game_tree, simulate, walk
from coincomp.cheat_model import OutcomeTriple


CANONICAL_BEST_OF_3 = (
    '{"flip":{"up":{"flip":{"up":{"leaf":0},"down":{"flip":{"up":{"leaf":0},'
    '"down":{"leaf":1}}}}},"down":{"flip":{"up":{"flip":{"up":{"leaf":0},'
    '"down":{"leaf":1}}},"down":{"leaf":1}}}}}'
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def bo3_file(tmp_path):
    path = tmp_path / "bo3.json"
    path.write_text(CANONICAL_BEST_OF_3)
    return str(path)


@pytest.fixture
def one_flip_file(tmp_path):
    path = tmp_path / "one_flip.json"
    path.write_text('{"flip":{"up":{"leaf":0},"down":{"leaf":1}}}')
    return str(path)


class TestTreeGen:
    def test_best_of_3_canonical(self, capsys):
        code, out, _ = run(capsys, "tree", "gen", "--kind", "best-of", "--n", "3")
        assert code == 0
        assert out.strip() == CANONICAL_BEST_OF_3

    def test_full(self, capsys):
        code, out, _ = run(capsys, "tree", "gen", "--kind", "full",
                           "--depth", "1", "--labels", "01")
        assert code == 0
        assert out.strip() == '{"flip":{"up":{"leaf":0},"down":{"leaf":1}}}'

    def test_random_fair_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "tree", "gen", "--kind", "random-fair",
                             "--depth", "5", "--seed", "3")
        code2, out2, _ = run(capsys, "tree", "gen", "--kind", "random-fair",
                             "--depth", "5", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        tree = game_tree.parse_tree(out1)
        assert game_tree.annotate(tree).p_w_root == 0.5

    def test_missing_kind_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "tree", "gen", "--kind", "best-of")
        assert code == 1
        assert "--n" in err

    def test_bad_labels_exit_1(self, capsys):
        code, _, err = run(capsys, "tree", "gen", "--kind", "full",
                           "--depth", "1", "--labels", "0x")
        assert code == 1

    def test_even_n_exits_1(self, capsys):
        code, _, _ = run(capsys, "tree", "gen", "--kind", "best-of", "--n", "4")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["--kind", "best-of", "--n", "51"],
        ["--kind", "best-of", "--n", "21"],
        ["--kind", "random-fair", "--depth", "52", "--seed", "1"],
    ], ids=["best-of-51", "best-of-21", "random-fair-52"])
    def test_over_node_budget_exits_1(self, capsys, argv):
        code, out, err = run(capsys, "tree", "gen", *argv)
        assert code == 1
        assert out == ""
        assert "budget" in err


class TestTreeAnalyze:
    def test_payload(self, capsys, bo3_file):
        code, out, _ = run(capsys, "tree", "analyze", "--in", bo3_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["p_w_root"] == 0.5
        assert doc["lemma_sum"] == 1.0
        assert doc["lemma_expected"] == 1.0
        assert doc["nodes"][""] == {"depth": 0, "p_w": 0.5, "delta": 0.5}
        assert doc["nodes"]["UU"] == {"depth": 2, "p_w": 1.0, "delta": None}
        assert len(doc["nodes"]) == 11

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "tree", "analyze", "--in",
                           str(tmp_path / "absent.json"))
        assert code == 1

    def test_malformed_document_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"leaf": 5}')
        code, _, _ = run(capsys, "tree", "analyze", "--in", str(path))
        assert code == 1

    def test_float_leaf_label_exits_1(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text('{"flip":{"up":{"leaf":0.0},"down":{"leaf":1.0}}}')
        for argv in (("tree", "analyze", "--in", str(path)),
                     ("compose", "--tree", str(path), "--a", "1", "--b", "2",
                      "--eps-tot", "0.1")):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert "leaf label must be 0 or 1, got 0.0" in err

    def test_long_number_label_exits_1(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"flip":{"up":{"leaf":0},"down":{"leaf":1'
                        + "0" * 5000 + "}}}")
        code, out, err = run(capsys, "tree", "analyze", "--in", str(path))
        assert (code, out, err) == (1, "", "error: a 5001-character number "
                                    "cannot be a leaf label, which is 0 or 1\n")

    @pytest.mark.parametrize("flips", [53, 3000])
    def test_too_deep_document_exits_1(self, capsys, tmp_path, flips):
        text = '{"leaf":0}'
        for _ in range(flips):
            text = '{"flip":{"up":' + text + ',"down":{"leaf":1}}}'
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, "tree", "analyze", "--in", str(path))
        assert code == 1
        assert out == ""
        assert "deep" in err

    def test_document_over_node_budget_exits_1(self, capsys, bo3_file,
                                                monkeypatch):
        monkeypatch.setattr(game_tree, "MAX_NODES", 10)
        for argv in (("tree", "analyze", "--in", bo3_file),
                     ("compose", "--tree", bo3_file, "--a", "1", "--b", "2",
                      "--eps-tot", "0.1"),
                     ("simulate", "--tree", bo3_file, "--strategy", "honest",
                      "--model", "std:a=1,b=2", "--trials", "10")):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert "budget of 10 nodes" in err

    def test_document_over_node_budget_is_not_decoded(self, capsys, bo3_file,
                                                      monkeypatch):
        def loads(*args, **kwargs):
            raise AssertionError("json.loads called on an over-budget document")

        monkeypatch.setattr(game_tree, "MAX_NODES", 10)
        monkeypatch.setattr(game_tree.json, "loads", loads)
        code, out, err = run(capsys, "tree", "analyze", "--in", bo3_file)
        assert code == 1
        assert out == ""
        assert "spells 11 'leaf' and 'flip' keys" in err
        assert "budget of 10 nodes" in err

    def test_analyze_annotates_once(self, capsys, bo3_file, monkeypatch):
        calls = []
        real = game_tree.annotate
        monkeypatch.setattr(game_tree, "annotate",
                            lambda tree: calls.append(tree) or real(tree))
        code, _, _ = run(capsys, "tree", "analyze", "--in", bo3_file)
        assert code == 0
        assert len(calls) == 1

    def test_lemma_disagreement_exits_2(self, capsys, bo3_file, monkeypatch):
        monkeypatch.setattr(game_tree.TreeAnnotation, "lemma_sum",
                            lambda self: 0.9)
        code, _, err = run(capsys, "tree", "analyze", "--in", bo3_file)
        assert code == 2
        assert "invariant" in err


class TestCompose:
    def test_quadratic_payload(self, capsys, bo3_file):
        code, out, _ = run(capsys, "compose", "--tree", bo3_file,
                           "--a", "1", "--b", "2", "--eps-tot", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert doc["a_new"] == 1.0
        assert doc["lambda"] == 0.2
        assert doc["clipped"] is False
        assert doc["strategy"]["UD"] == 0.1

    def test_cubic_value(self, capsys, bo3_file):
        code, out, _ = run(capsys, "compose", "--tree", bo3_file,
                           "--a", "1", "--b", "3", "--eps-tot", "0.01")
        assert code == 0
        assert abs(json.loads(out)["a_new"] - 0.68629) < 5e-4

    def test_zero_eps_tot(self, capsys, one_flip_file):
        code, out, _ = run(capsys, "compose", "--tree", one_flip_file,
                           "--a", "2", "--b", "2", "--eps-tot", "0")
        assert code == 0
        assert json.loads(out)["predicted_pc"] == 0.0

    def test_exact_section(self, capsys, bo3_file):
        code, out, _ = run(capsys, "compose", "--tree", bo3_file,
                           "--a", "1", "--b", "2", "--eps-tot", "0.1",
                           "--exact")
        doc = json.loads(out)
        assert set(doc["exact"]) == {"p0", "p1", "pc"}
        # the delivered excess trails eps_tot by an O(eps_tot^2) term
        assert abs(doc["exact"]["p0"] - 0.5 - 0.1) < 1e-2

    def test_exact_and_brute_force_annotate_the_tree_once(self, capsys, bo3_file,
                                                          monkeypatch):
        # leading_order, its JSON edge, exact_outcome, the oracle and the
        # oracle's JSON edge all annotate the one parsed tree: the first
        # call's recursion makes the columns, and the later calls reuse them
        roots = []
        real = game_tree._annotate

        def spy(node, d, *args):
            if d == 0:
                roots.append(node)
            return real(node, d, *args)

        monkeypatch.setattr(game_tree, "_annotate", spy)
        code, out, _ = run(capsys, "compose", "--tree", bo3_file, "--a", "1",
                           "--b", "2", "--eps-tot", "0.05", "--exact",
                           "--brute-force", "--grid", "0.01")
        assert code == 0
        assert set(json.loads(out)) >= {"exact", "brute_force"}
        assert len(roots) == 1

    def test_brute_force_section(self, capsys, one_flip_file):
        code, out, _ = run(capsys, "compose", "--tree", one_flip_file,
                           "--a", "1", "--b", "2", "--eps-tot", "0.05",
                           "--brute-force", "--grid", "0.01")
        doc = json.loads(out)
        assert doc["brute_force"]["min_pc"] >= 0.0
        assert set(doc["brute_force"]["strategy"]) == {""}

    @pytest.mark.parametrize("grid", ["nan", "inf", "-inf", "0", "-0.01", "0.7"])
    def test_bad_grid_exits_1_naming_grid_step(self, capsys, bo3_file, grid):
        code, out, err = run(capsys, "compose", "--tree", bo3_file, "--a", "1",
                             "--b", "2", "--eps-tot", "0.05", "--brute-force",
                             f"--grid={grid}")
        assert code == 1
        assert out == ""
        assert "grid_step" in err

    def test_grid_without_brute_force_exits_1(self, capsys, bo3_file):
        # a grid step with no oracle to take it is refused, not ignored
        code, out, err = run(capsys, "compose", "--tree", bo3_file, "--a", "1",
                             "--b", "2", "--eps-tot", "0.05", "--grid", "0.01")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --grid ") and err.count("\n") == 1

    def test_linear_b_exits_1_pointing_at_walk(self, capsys, bo3_file):
        code, _, err = run(capsys, "compose", "--tree", bo3_file,
                           "--a", "1", "--b", "1", "--eps-tot", "0.1")
        assert code == 1
        assert "walk" in err


class TestWalkSolve:
    def test_pinned_n1(self, capsys):
        code, out, _ = run(capsys, "walk", "solve", "--n", "1",
                           "--model", "prime:a=1")
        assert code == 0
        doc = json.loads(out)
        assert doc["bias"] == 0.375
        assert doc["bound_ok"] is True
        assert doc["policy"] == {"0": 0.25}

    def test_n10_under_bound(self, capsys):
        code, out, _ = run(capsys, "walk", "solve", "--n", "10",
                           "--model", "prime:a=1")
        doc = json.loads(out)
        assert doc["bias"] <= 0.15
        assert doc["bound"] == 0.15

    def test_bad_model_exits_1(self, capsys):
        code, _, _ = run(capsys, "walk", "solve", "--n", "1",
                         "--model", "std:a=1,b=2")
        assert code == 1

    def test_bound_violation_exits_2(self, capsys, monkeypatch):
        real = walk.optimize

        def doctored(game):
            # a zero bound fails the verdict of a solution with positive bias
            return real(game)._replace(bound=0.0)

        monkeypatch.setattr(walk, "optimize", doctored)
        code, _, err = run(capsys, "walk", "solve", "--n", "2",
                           "--model", "prime:a=1")
        assert code == 2
        assert "bound" in err


class TestWalkSweep:
    def test_csv_shape_and_precision(self, capsys):
        code, out, _ = run(capsys, "walk", "sweep", "--n-max", "8",
                           "--model", "prime:a=1", "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,a,variant,bias,bound,bound_ok,iterations"
        assert len(lines) == 9
        for n, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert fields[0] == str(n)
            assert fields[2] == "prime"
            assert fields[5] == "true"
            # every float field round-trips and carries >= 12 significant
            # digits in its printed mantissa
            for f in (fields[1], fields[3], fields[4]):
                mantissa = f.split("e")[0].replace("-", "").replace(".", "")
                assert len(mantissa) >= 12
            assert float(fields[3]) <= float(fields[4]) + 1e-12

    def test_rows_match_solver(self, capsys):
        code, out, _ = run(capsys, "walk", "sweep", "--n-max", "3",
                           "--model", "prime:a=1", "--csv")
        lines = out.strip().split("\n")[1:]
        from coincomp.cheat_model import CheatModel, PRIME
        for n, line in enumerate(lines, start=1):
            bias = float(line.split(",")[3])
            sol = walk.optimize(walk.WalkGame(n, CheatModel(1.0, 1.0, PRIME)))
            assert bias == sol.bias

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "walk", "sweep", "--n-max", "2",
                           "--model", "prime:a=0.5")
        docs = json.loads(out)
        assert [d["N"] for d in docs] == [1, 2]
        assert all(d["bound_ok"] for d in docs)

    def test_bound_violation_exits_2(self, capsys, monkeypatch):
        real = walk.optimize

        def doctored(game):
            # a zero bound fails the verdict of a solution with positive bias
            return real(game)._replace(bound=0.0)

        monkeypatch.setattr(walk, "optimize", doctored)
        code, out, err = run(capsys, "walk", "sweep", "--n-max", "2",
                             "--model", "prime:a=1", "--csv")
        assert code == 2
        assert out == ""
        assert "bias bound violated at N=1:" in err

    @pytest.mark.parametrize("argv", [
        ["--n-max", "2", "--model", "std:a=1,b=2"],
        ["--n-max", "0", "--model", "prime:a=1"],
        ["--n-max", "-3", "--model", "prime:a=1", "--csv"],
    ], ids=["std-b-2", "n-max-0", "n-max-negative"])
    def test_malformed_sweep_exits_1(self, capsys, argv):
        # b = 2 was silently solved as b = 1, and --n-max 0 printed no rows
        code, out, err = run(capsys, "walk", "sweep", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestSimulate:
    def test_tree_honest(self, capsys, bo3_file):
        code, out, _ = run(capsys, "simulate", "--tree", bo3_file,
                           "--model", "std:a=1,b=2", "--strategy", "honest",
                           "--trials", "20000", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 20000
        assert doc["wins"] + doc["losses"] + doc["catches"] == 20000
        assert simulate.divergence(doc["wins"], 20000, 0.5) <= simulate.DIVERGENCE_LIMIT

    def test_tree_lo_shorthand(self, capsys, bo3_file):
        code, out, _ = run(capsys, "simulate", "--tree", bo3_file,
                           "--model", "std:a=1,b=2", "--strategy", "lo:0.1",
                           "--trials", "20000", "--seed", "7")
        assert code == 0
        assert json.loads(out)["catches"] > 0

    def test_tree_strategy_file(self, capsys, bo3_file, tmp_path):
        tree = game_tree.parse_tree(CANONICAL_BEST_OF_3)
        strat = composer.leading_order(tree, 1.0, 2.0, 0.1).strategy
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(
            composer.strategy_to_paths(game_tree.annotate(tree), strat)))
        code, out, _ = run(capsys, "simulate", "--tree", bo3_file,
                           "--model", "std:a=1,b=2", "--strategy", str(path),
                           "--trials", "20000", "--seed", "7")
        assert code == 0

    def test_tree_strategy_composition_payload(self, capsys, bo3_file, tmp_path):
        # the compose JSON itself works as a strategy file
        code, out, _ = run(capsys, "compose", "--tree", bo3_file,
                           "--a", "1", "--b", "2", "--eps-tot", "0.1")
        path = tmp_path / "composed.json"
        path.write_text(out)
        code, out, _ = run(capsys, "simulate", "--tree", bo3_file,
                           "--model", "std:a=1,b=2", "--strategy", str(path),
                           "--trials", "20000", "--seed", "7")
        assert code == 0

    def test_malformed_strategy_file_exits_1(self, capsys, bo3_file, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"": "zero"}')
        code, _, _ = run(capsys, "simulate", "--tree", bo3_file,
                         "--model", "std:a=1,b=2", "--strategy", str(path),
                         "--trials", "100", "--seed", "1")
        assert code == 1

    def test_strategy_with_unknown_paths_exits_1(self, capsys, bo3_file,
                                                 tmp_path):
        # best-of-5's 19 internal nodes include best-of-3's 5; the other 14
        # name no internal node of best-of-3
        ann = game_tree.annotate(game_tree.gen_best_of(5))
        path = tmp_path / "bo5_strategy.json"
        path.write_text(json.dumps({p: 0.0 for p, _ in ann.internal()}))
        code, out, err = run(capsys, "simulate", "--tree", bo3_file,
                             "--model", "std:a=1,b=2", "--strategy", str(path),
                             "--trials", "100", "--seed", "1")
        assert code == 1
        assert out == ""
        assert "14 paths that are not internal nodes" in err

    @pytest.mark.parametrize("text", [
        '{"-1": 0.0, "0": 0.0, "0_1": 0.0}',
        '{"-1": 0.0, "0": 0.0, "1": 0.2, "01": 0.0}',
    ], ids=["underscore", "leading-zero"])
    def test_non_canonical_policy_key_exits_1(self, capsys, tmp_path, text):
        # int() reads "0_1" and "01" as site 1, so a second spelling of a
        # site could silently stand in for or overwrite the first
        path = tmp_path / "policy.json"
        path.write_text(text)
        code, out, err = run(capsys, "simulate", "--walk", "--n", "2",
                             "--model", "prime:a=1", "--policy", str(path),
                             "--trials", "100", "--seed", "1")
        assert code == 1
        assert out == ""
        assert "bad site" in err

    @pytest.mark.parametrize("text,message", [
        ('{"0": 1' + "0" * 400 + "}", "eps for '0' must be finite, got inf"),
        ('{"0": 1' + "0" * 5000 + "}", "eps for '0' must be finite, got inf"),
        ('{"0": NaN}', "eps for '0' must be finite, got nan"),
        ("[" * 100_000 + "]" * 100_000, "invalid JSON: nested too deeply"),
    ], ids=["huge-integer", "5001-digits", "nan-literal", "nested-too-deeply"])
    @pytest.mark.parametrize("kind", ["strategy", "policy"])
    def test_unreadable_number_file_exits_1(self, capsys, bo3_file, tmp_path,
                                            kind, text, message):
        # float(10**400) raised OverflowError, which escaped cli.main; a
        # 5,001-digit integer met Python's digit limit, a NaN failed later
        # naming neither file nor key, and json's RecursionError was
        # reported as an invariant violation
        path = tmp_path / f"{kind}.json"
        path.write_text(text)
        if kind == "strategy":
            argv = ["--tree", bo3_file, "--model", "std:a=1,b=2", "--strategy"]
        else:
            argv = ["--walk", "--n", "2", "--model", "prime:a=1", "--policy"]
        code, out, err = run(capsys, "simulate", *argv, str(path),
                             "--trials", "100", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == f"error: {kind} file {path}: {message}\n"

    def test_walk_optimal(self, capsys):
        code, out, _ = run(capsys, "simulate", "--walk", "--n", "1",
                           "--model", "prime:a=1", "--policy", "optimal",
                           "--trials", "20000", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert simulate.divergence(doc["wins"], 20000, 0.875) <= simulate.DIVERGENCE_LIMIT

    def test_walk_policy_file(self, capsys, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text('{"0": 0.25}')
        code, out, _ = run(capsys, "simulate", "--walk", "--n", "1",
                           "--model", "prime:a=1", "--policy", str(path),
                           "--trials", "20000", "--seed", "42")
        assert code == 0

    def test_walk_needs_n(self, capsys):
        code, _, err = run(capsys, "simulate", "--walk",
                           "--model", "prime:a=1", "--policy", "honest",
                           "--trials", "100", "--seed", "1")
        assert code == 1

    def test_tree_and_walk_mutually_exclusive(self, capsys, bo3_file):
        code, _, _ = run(capsys, "simulate", "--tree", bo3_file, "--walk",
                         "--n", "1", "--model", "prime:a=1",
                         "--policy", "honest", "--strategy", "honest",
                         "--trials", "100", "--seed", "1")
        assert code == 1

    @pytest.mark.parametrize("flag,value", [("--n", "7"), ("--policy", "optimal"),
                                            ("--step-cap", "5")])
    def test_tree_refuses_walk_flag(self, capsys, bo3_file, flag, value):
        # a walk flag on a tree simulation is refused, not ignored
        code, out, err = run(capsys, "simulate", "--tree", bo3_file,
                             "--strategy", "honest", "--model", "std:a=1,b=2",
                             "--trials", "100", flag, value)
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} does not apply to --tree simulation\n"

    def test_walk_refuses_strategy(self, capsys):
        code, out, err = run(capsys, "simulate", "--walk", "--n", "3",
                             "--policy", "optimal", "--strategy", "honest",
                             "--model", "std:a=1,b=1", "--trials", "100")
        assert code == 1
        assert out == ""
        assert err == "error: --strategy does not apply to --walk simulation\n"

    def test_neither_mode_exits_1(self, capsys):
        code, _, _ = run(capsys, "simulate", "--model", "prime:a=1",
                         "--trials", "100", "--seed", "1")
        assert code == 1

    def test_estimate_mismatch_exits_2(self, capsys, bo3_file, monkeypatch):
        monkeypatch.setattr(composer, "exact_outcome",
                            lambda *args: OutcomeTriple(0.9, 0.05, 0.05))
        code, _, err = run(capsys, "simulate", "--tree", bo3_file,
                           "--model", "std:a=1,b=2", "--strategy", "honest",
                           "--trials", "20000", "--seed", "42")
        assert code == 2
        assert "stderr" in err

    def test_walk_estimate_mismatch_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            walk, "evaluate_policy",
            lambda game, policy: SimpleNamespace(w={0: 0.99}))
        code, _, _ = run(capsys, "simulate", "--walk", "--n", "1",
                         "--model", "prime:a=1", "--policy", "honest",
                         "--trials", "20000", "--seed", "42")
        assert code == 2

    def test_prime_tree_estimate_mismatch_exits_2(self, capsys, bo3_file, tmp_path,
                                                  monkeypatch):
        # exact_outcome takes the prime box too, so its trees are checked
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps(dict.fromkeys(["", "U", "D", "UD", "DU"], 0.25)))
        monkeypatch.setattr(simulate, "simulate_tree", lambda *args, **kwargs:
                            simulate._report(20000, 18000, 0, 2000, 0, 7))
        code, out, err = run(capsys, "simulate", "--tree", bo3_file,
                             "--model", "prime:a=1", "--strategy", str(strategy),
                             "--trials", "20000", "--seed", "7")
        assert (code, out) == (2, "")
        assert "estimate win = 0.9" in err

    def test_impossible_catch_exits_2(self, capsys, bo3_file, monkeypatch):
        # an honest strategy is never caught, so 2 catches in 20,000 trials
        # contradict its exact catch probability of 0, however few they are
        monkeypatch.setattr(simulate, "simulate_tree", lambda *args, **kwargs:
                            simulate._report(20000, 9999, 9999, 2, 0, 42))
        code, out, err = run(capsys, "simulate", "--tree", bo3_file,
                             "--model", "std:a=1,b=2", "--strategy", "honest",
                             "--trials", "20000", "--seed", "42")
        assert (code, out) == (2, "")
        assert "estimate catch = 0.0001, exact 0.0" in err

    # an estimate of 0 or 1 has stderr 0, and these valid runs must not
    # exit 2: a count of 0 against p < 1 has the finite -trials*ln(1-p)
    @pytest.mark.parametrize("argv", [
        *[["--walk", "--n", "1", "--model", "prime:a=0.001", "--policy", "optimal",
           "--trials", "100", "--seed", seed] for seed in "123"],
        *[["--walk", "--n", "2", "--model", "prime:a=1", "--policy", "optimal",
           "--trials", trials, "--seed", "1"] for trials in "13"],
        ["--tree", "BO3", "--model", "std:a=1,b=2", "--strategy", "honest",
         "--trials", "1", "--seed", "1"],
        # every eps 0.4999 loses with probability 1.4e-8
        ["--tree", "BO3", "--model", "std:a=1,b=2", "--strategy", "ALL_0.4999",
         "--trials", "1000", "--seed", "1"],
    ], ids=["all-wins-seed-1", "all-wins-seed-2", "all-wins-seed-3", "walk-1-trial",
            "walk-3-trials", "tree-1-trial", "tree-no-loss"])
    def test_estimate_of_0_or_1_exits_0(self, capsys, bo3_file, tmp_path, argv):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps(dict.fromkeys(["", "U", "D", "UD", "DU"], 0.4999)))
        files = {"BO3": bo3_file, "ALL_0.4999": str(strategy)}
        code, out, _ = run(capsys, "simulate", *[files.get(arg, arg) for arg in argv])
        assert code == 0
        assert json.loads(out)["trials"] == int(argv[-3])


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [
        ["compose", "--a", "1", "--b", "nan", "--eps-tot", "0.1"],
        ["compose", "--a", "inf", "--b", "2", "--eps-tot", "0.1"],
        ["compose", "--a", "1", "--b", "2", "--eps-tot", "nan"],
        ["walk", "solve", "--n", "3", "--model", "prime:a=inf"],
        ["walk", "solve", "--n", "3", "--model", "std:a=1,b=nan"],
    ], ids=["compose-b-nan", "compose-a-inf", "compose-eps-nan",
            "walk-prime-a-inf", "walk-std-b-nan"])
    def test_exits_1_without_output(self, capsys, bo3_file, argv):
        if argv[0] == "compose":
            argv = argv[:1] + ["--tree", bo3_file] + argv[1:]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_nan_policy_entry_exits_1(self, capsys, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text('{"0": NaN}')
        code, out, _ = run(capsys, "simulate", "--walk", "--n", "1",
                           "--model", "prime:a=1", "--policy", str(path),
                           "--trials", "100")
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("site", ["-2", "0", "2"])
    @pytest.mark.parametrize("model,bad", [
        ("prime:a=1", "NaN"), ("prime:a=1", "Infinity"), ("prime:a=1", "-Infinity"),
        ("std:a=1,b=1", "NaN"), ("std:a=1,b=1", "Infinity"),
        ("std:a=1,b=1", "-Infinity"),
    ])
    def test_non_finite_policy_site_exits_1(self, capsys, tmp_path, model,
                                            bad, site):
        # first, middle and last interior site of N = 3
        entries = {str(z): "0.1" for z in range(-2, 3)}
        entries[site] = bad
        path = tmp_path / "policy.json"
        path.write_text("{" + ", ".join(f'"{z}": {v}'
                                        for z, v in entries.items()) + "}")
        code, out, err = run(capsys, "simulate", "--walk", "--n", "3",
                             "--model", model, "--policy", str(path),
                             "--trials", "100")
        assert code == 1
        assert out == ""
        assert "eps" in err

    def test_emit_refuses_nan(self, capsys):
        with pytest.raises(ValueError):
            cli._emit({"x": float("nan")})
        assert capsys.readouterr().out == ""


class TestNotUtf8:
    """JSON files are read as UTF-8 (RFC 8259), whatever the locale says: a
    byte that does not decode names the file and its kind, and exits 1."""

    # one case per reader, with the file given as BAD
    READERS = {
        "tree-analyze": ("tree", ["tree", "analyze", "--in", "BAD"]),
        "simulate-tree": ("tree", ["simulate", "--tree", "BAD", "--model",
                                   "std:a=1,b=2", "--strategy", "honest",
                                   "--trials", "10"]),
        "strategy": ("strategy", ["simulate", "--tree", "TREE", "--model",
                                  "std:a=1,b=2", "--strategy", "BAD",
                                  "--trials", "10"]),
        "policy": ("policy", ["simulate", "--walk", "--n", "2", "--model",
                              "prime:a=1", "--policy", "BAD", "--trials", "10"]),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_names_the_file_and_exits_1(self, capsys, tmp_path, bo3_file, reader):
        kind, argv = self.READERS[reader]
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"leaf": \xff}')
        argv = [{"BAD": str(bad), "TREE": bo3_file}.get(a, a) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == (f"error: {kind} file {bad}: not UTF-8: 'utf-8' codec "
                       "can't decode byte 0xff in position 9: invalid start "
                       "byte\n")


# the commands that take --seed, each valid as it stands
SEEDED = {
    "tree-gen": ["tree", "gen", "--kind", "random-fair", "--depth", "3"],
    "simulate": ["simulate", "--walk", "--n", "4", "--model", "prime:a=1",
                 "--policy", "optimal", "--trials", "1000"],
}


class TestSeedRange:
    # a seed outside [0, 2**64) was reduced mod 2**64 without a word: seeds
    # 5 and 2**64 + 5 gave the same counts, each report echoing its own
    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5])
    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_outside_exits_1(self, capsys, command, seed):
        code, out, err = run(capsys, *SEEDED[command], f"--seed={seed}")
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: seed must be an int in [0, 2**64), got {seed}"]

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_ends_of_the_range_run(self, capsys, command, seed):
        code, out, _ = run(capsys, *SEEDED[command], f"--seed={seed}")
        assert code == 0
        if command == "simulate":
            assert json.loads(out)["seed"] == seed

    def test_not_an_int_exits_1(self, capsys):
        code, _, err = run(capsys, *SEEDED["tree-gen"], "--seed=1.5")
        assert code == 1
        assert err == "error: argument --seed: invalid int value: '1.5'\n"


# sha256 of stdout: they pin the order of `tree analyze`'s nodes, which no
# other test checks, and every float of the payloads.  random-fair(9, 11)
# is a root over two leaves.  The compose and best-of-15 simulate pins,
# taken when strategies were still path-keyed dicts inside the library,
# hold the JSON edge's bytes: the path-keyed strategy payloads and the
# strategy file read back to paths.  STRATEGY_FILE stands for a file of
# seeded eps per path, -0.0 among them (see _seeded_strategy).
STDOUT_PINS = {
    "analyze-best-of-5": (
        ("best-of-5", "tree", "analyze", "--in"),
        "04511980bd06f2ea2226465cbbd4f976a4c36706c0324d326ac4a4bdecfa1d68"),
    "analyze-random-fair-9-11": (
        ("random-fair-9-11", "tree", "analyze", "--in"),
        "b870c87069458932385e00bc7c9b6b363bab22b5376b91cc149afca36463b45d"),
    "simulate-honest-best-of-3": (
        ("best-of-3", "simulate", "--model", "std:a=1,b=2", "--strategy",
         "honest", "--trials", "20000", "--seed", "3", "--tree"),
        "02b1aacf26a2661b9cc428ed1b4e82aaa9e6c3704f7c46790c242e9dc0f0a49a"),
    "compose-exact-brute-force-best-of-3": (
        ("best-of-3", "compose", "--a", "1", "--b", "2", "--eps-tot", "0.05",
         "--exact", "--brute-force", "--tree"),
        "acc3c2334ddd01b2b64510022d2c26123f17885f65136ab17195e3f70140f857"),
    "compose-exact-best-of-15-b1.5": (
        ("best-of-15", "compose", "--a", "1", "--b", "1.5", "--eps-tot", "0.05",
         "--exact", "--tree"),
        "4d022894e4141b68ad89a2418d0b93f7151743c893058b9c7f15169211d8aba6"),
    "compose-exact-best-of-15-b2": (
        ("best-of-15", "compose", "--a", "1", "--b", "2", "--eps-tot", "0.05",
         "--exact", "--tree"),
        "d00ffb176bf651ffd5ef3cd7f6aa632ed1b5900033666a68145d28ecb852c722"),
    "compose-exact-best-of-15-b3": (
        ("best-of-15", "compose", "--a", "1", "--b", "3", "--eps-tot", "0.05",
         "--exact", "--tree"),
        "eb26edb7835529f984ebdcd525fd44438b8f5bc30a9c827a36f8025b0735135d"),
    "simulate-lo-best-of-15": (
        ("best-of-15", "simulate", "--model", "std:a=1,b=2", "--strategy",
         "lo:0.2", "--trials", "20000", "--seed", "5", "--tree"),
        "5816029c70ee1176732dfd300d6f6128b8f5884c16c7d7cfbab684e719bcc905"),
    "simulate-file-best-of-15": (
        ("best-of-15", "simulate", "--model", "std:a=1,b=2", "--strategy",
         "STRATEGY_FILE", "--trials", "20000", "--seed", "6", "--tree"),
        "501b9d231fbb6aa91db80297ee485ba6e46b1ce92d90010a286bb48f4c04d96f"),
}
PIN_TREES = {
    "best-of-3": lambda: game_tree.gen_best_of(3),
    "best-of-5": lambda: game_tree.gen_best_of(5),
    "best-of-15": lambda: game_tree.gen_best_of(15),
    "random-fair-9-11": lambda: game_tree.gen_random_fair(9, 11),
}


def _seeded_strategy(tree) -> dict:
    """A strategy file's path -> eps, seeded, in the annotation's postorder."""
    pick = random.Random(24).choice
    return {p: pick([-0.1, -0.0, 0.0, 0.05, 0.2])
            for p, _ in game_tree.annotate(tree).internal()}


@pytest.mark.parametrize("name", sorted(STDOUT_PINS))
def test_stdout_pinned(capsys, tmp_path, name):
    (tree_name, *argv), digest = STDOUT_PINS[name]
    tree = PIN_TREES[tree_name]()
    path = tmp_path / "tree.json"
    path.write_text(game_tree.serialize_tree(tree))
    if "STRATEGY_FILE" in argv:
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps(_seeded_strategy(tree)))
        argv[argv.index("STRATEGY_FILE")] = str(strategy)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTopLevel:
    def test_no_arguments_exits_1(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, "walk", "solve", "--n", "1",
                         "--model", "prime:a=1", "--frob")
        assert code == 1

    def test_import_error_other_than_numpy_propagates(self, monkeypatch):
        # a missing numpy is reported on one line (tests/test_package.py);
        # any other failed import is a fault and keeps its traceback
        def broken(args):
            raise ImportError("no module named 'scipy'", name="scipy")

        monkeypatch.setattr(cli, "_cmd_tree_gen", broken)
        with pytest.raises(ImportError, match="scipy"):
            cli.main(["tree", "gen", "--kind", "best-of", "--n", "3"])

    def test_entry_flushes_then_exits_with_the_code(self, monkeypatch, capsys):
        # entry() ends the process with os._exit, so record the call instead;
        # stdout is block-buffered, so its bytes reach the file only when
        # flushed, and are read at the moment of the exit call
        calls = []
        monkeypatch.setattr(cli.os, "_exit",
                            lambda code: calls.append((code, raw.getvalue())))

        def invariant(args):
            raise RuntimeError("impossible")

        solve = ["walk", "solve", "--n", "2", "--model", "prime:a=1"]
        want = run(capsys, *solve)[1].encode()
        usage = cli._build_parser().format_help().encode()
        cases = [(solve, 0, want), (["--help"], 0, usage),
                 (["walk", "solve", "--n", "2", "--model", "bad"], 1, b""),
                 (["tree", "gen", "--kind", "best-of", "--n", "3"], 2, b"")]
        for argv, code, out in cases:
            if code == 2:
                monkeypatch.setattr(cli, "_cmd_tree_gen", invariant)
            raw = io.BytesIO()
            monkeypatch.setattr("sys.stdout", io.TextIOWrapper(
                io.BufferedWriter(raw, buffer_size=1 << 16), encoding="utf-8"))
            monkeypatch.setattr("sys.argv", ["coincomp", *argv])
            calls.clear()
            cli.entry()
            assert calls == [(code, out)]
        assert want.startswith(b'{"n": 2,') and want.endswith(b"}\n")
        assert usage.startswith(b"usage: coincomp")

    def test_entry_lets_faults_propagate(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.os, "_exit", calls.append)

        def broken(args):
            raise ImportError("no module named 'scipy'", name="scipy")

        monkeypatch.setattr(cli, "_cmd_tree_gen", broken)
        monkeypatch.setattr("sys.argv", ["coincomp", "tree", "gen", "--kind",
                                         "best-of", "--n", "3"])
        with pytest.raises(ImportError, match="scipy"):
            cli.entry()
        assert calls == []

    @pytest.mark.parametrize("module", ["coincomp", "coincomp.cli"])
    def test_module_entry_points(self, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "walk", "solve", "--n", "2",
             "--model", "prime:a=1"],
            capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["n"] == 2
        assert doc["bound_ok"] is True

    @pytest.mark.parametrize("unbuffered", [None, "1"])
    @pytest.mark.parametrize("argv", [
        ["walk", "solve", "--n", "2", "--model", "prime:a=1"],
        # 17 KB written row by row, so the write fails inside the command
        ["walk", "sweep", "--n-max", "200", "--model", "prime:a=1", "--csv"],
        ["--help"]])
    def test_closed_stdout_exits_1(self, argv, unbuffered):
        # a pipe whose reader has gone: with stdout block-buffered the small
        # output fails only in the final flush, the large one in the command;
        # argparse's help text, printed before its SystemExit, likewise
        env = _child_env()
        if unbuffered is not None:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from coincomp.cli import entry; entry()",
                 *argv], stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert "Exception ignored" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_pool_finishes_before_the_exit(self, capsys):
        # simulate's two worker threads are joined before entry() ends the
        # process, so the child prints what main() returns in process
        argv = ["simulate", "--walk", "--n", "5", "--model", "std:a=2,b=1",
                "--policy", "optimal", "--trials", "200000", "--workers", "2"]
        code, out, _ = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "coincomp", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=120)
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
        assert json.loads(out)["trials"] == 200000


def _child_env():
    """The environment, with the package's source first on PYTHONPATH and
    stdout block-buffered, so what a child prints waits for entry()'s flush."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    return env


# ---------------------------------------------------------------------------
# Property guard: malformed input of any kind exits 1, never 2, and leaves
# stdout empty or valid JSON.
# ---------------------------------------------------------------------------

NON_FINITE = ["nan", "inf", "-inf", "NaN", "-Infinity"]
NOT_POSITIVE = st.one_of(st.sampled_from(NON_FINITE),
                         st.floats(max_value=0.0, allow_nan=False).map(repr))
BAD_SEED = st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << 64),
                     st.sampled_from(NON_FINITE + ["1.5", "", "x"])).map(str)
NOT_POSITIVE_INT = st.one_of(st.sampled_from(NON_FINITE + ["1.5", "", "x"]),
                             st.integers(max_value=0).map(str))

# (base argv, flag, malformed values); the base is valid on its own and
# cheap, "TREE" stands for a canonical best-of-3 document
_TREE_SIM = ["simulate", "--tree", "TREE", "--model", "std:a=1,b=2",
             "--strategy", "honest", "--trials", "20"]
_WALK_SIM = ["simulate", "--walk", "--n", "2", "--model", "prime:a=1",
             "--policy", "honest", "--trials", "20", "--step-cap", "64"]
_COMPOSE = ["compose", "--tree", "TREE", "--a", "1", "--b", "2",
            "--eps-tot", "0.05", "--exact", "--brute-force", "--grid", "0.1"]
FLAG_CASES = [
    (_COMPOSE, "--a", NOT_POSITIVE),
    (_COMPOSE, "--b", st.one_of(NOT_POSITIVE, st.floats(0.0, 1.0).map(repr))),
    (_COMPOSE, "--eps-tot", st.one_of(
        st.sampled_from(NON_FINITE),
        st.floats(min_value=0.5, exclude_min=True, allow_infinity=False)
        .flatmap(lambda x: st.sampled_from([repr(x), repr(-x)])))),
    (_COMPOSE, "--grid", NOT_POSITIVE),
    (["walk", "solve", "--n", "2", "--model", "prime:a=1"], "--n", NOT_POSITIVE_INT),
    (["walk", "sweep", "--n-max", "2", "--model", "prime:a=1"], "--n-max",
     NOT_POSITIVE_INT),
    (["tree", "gen", "--kind", "best-of", "--n", "3"], "--n", NOT_POSITIVE_INT),
    (_TREE_SIM, "--trials", NOT_POSITIVE_INT),
    (_TREE_SIM + ["--workers", "1"], "--workers", NOT_POSITIVE_INT),
    (_WALK_SIM, "--trials", NOT_POSITIVE_INT),
    (_WALK_SIM + ["--workers", "1"], "--workers", NOT_POSITIVE_INT),
    (_WALK_SIM, "--n", NOT_POSITIVE_INT),
    (_WALK_SIM, "--step-cap", NOT_POSITIVE_INT),
    (SEEDED["tree-gen"] + ["--seed", "0"], "--seed", BAD_SEED),
    (_WALK_SIM + ["--seed", "0"], "--seed", BAD_SEED),
]

_BAD_NUMBER = st.one_of(NOT_POSITIVE, st.sampled_from(["", "x", "1e", "0x1"]))
BAD_WALK_MODELS = st.one_of(
    st.sampled_from(["", "std", "prime", "quantum:a=1", "prime:b=1", "std:a=1",
                     "prime:a=1,a=2", "prime:a=1,c=1", "std:a=1,b=2", "prime:a=1,b=2",
                     ":a=1", "prime:a"]),
    _BAD_NUMBER.map(lambda x: f"prime:a={x}"),
    _BAD_NUMBER.map(lambda x: f"std:a={x},b=1"),
    _BAD_NUMBER.map(lambda x: f"std:a=1,b={x}"),
)


def _is_tree(doc, depth=0) -> bool:
    """Independent schema check, used to keep valid trees out of the guard."""
    if not isinstance(doc, dict) or len(doc) != 1 or depth > 52:
        return False
    if "leaf" in doc:
        return doc["leaf"] in (0, 1) and not isinstance(doc["leaf"], bool)
    inner = doc.get("flip")
    return (isinstance(inner, dict) and set(inner) == {"up", "down"}
            and _is_tree(inner["up"], depth + 1)
            and _is_tree(inner["down"], depth + 1))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["leaf", "flip", "up", "down", "x"]), kids,
                      max_size=3),
    max_leaves=8)
BAD_TREE_TEXTS = st.one_of(
    st.text(max_size=20).filter(lambda t: not t.strip().startswith(("{", "["))),
    _JSON.filter(lambda d: not _is_tree(d)).map(json.dumps),
    st.integers(53, 3000).map(  # a left spine deeper than MAX_DEPTH
        lambda n: '{"flip":{"up":' * n + '{"leaf":0}' + ',"down":{"leaf":1}}}' * n),
)
# well-formed trees that compose cannot take: unfair, and no internal node
UNCOMPOSABLE_TREE_TEXTS = st.sampled_from(
    ['{"flip":{"up":{"leaf":0},"down":{"leaf":0}}}', '{"leaf":0}'])

_BO3_INTERNAL = ["", "U", "D", "UD", "DU"]
_BAD_EPS = st.sampled_from([float("nan"), float("inf"), 0.7, -0.9, "x", True, None,
                            [0.1], 10 ** 400])
_TOO_DEEP = "[" * 100_000 + "]" * 100_000  # past json's recursion limit
BAD_STRATEGY_TEXTS = st.one_of(
    st.text(max_size=12).filter(lambda t: not t.strip().startswith(("{", "["))),
    st.sampled_from(["[]", "1", '"honest"', '{"strategy": 3}', _TOO_DEEP]),
    # a strict subset of the internal nodes: some node is missing
    st.lists(st.sampled_from(_BO3_INTERNAL), unique=True, max_size=4).map(
        lambda keys: json.dumps({k: 0.01 for k in keys})),
    # every node present, one entry malformed
    st.tuples(st.sampled_from(_BO3_INTERNAL), _BAD_EPS).map(
        lambda kv: json.dumps({**{k: 0.01 for k in _BO3_INTERNAL}, kv[0]: kv[1]})),
    # every node present plus a path that is a leaf or not in the tree
    st.sampled_from(["UU", "DUD", "UUU", "x", "strategy"]).map(
        lambda key: json.dumps({**{k: 0.01 for k in _BO3_INTERNAL}, key: 0.01})),
)

_N2_SITES = ["-1", "0", "1"]  # interior of the walk at N = 2
BAD_POLICY_TEXTS = st.one_of(
    st.text(max_size=12).filter(lambda t: not t.strip().startswith(("{", "["))),
    st.sampled_from(["[]", "1", '"optimal"', '{"policy": 3}', _TOO_DEEP]),
    # a strict subset of the interior sites: some site is missing
    st.lists(st.sampled_from(_N2_SITES), unique=True, max_size=2).map(
        lambda keys: json.dumps({k: 0.01 for k in keys})),
    # every site present, one entry malformed
    st.tuples(st.sampled_from(_N2_SITES), _BAD_EPS).map(
        lambda kv: json.dumps({**{k: 0.01 for k in _N2_SITES}, kv[0]: kv[1]})),
    # every site present plus a key that is not a site
    st.sampled_from(["x", "1.5", "", "2", "-3", "01", "+1", " 0", "0_1", "-0"]).map(
        lambda key: json.dumps({**{k: 0.01 for k in _N2_SITES}, key: 0.01})),
)

# valid documents but for one key given twice: json.loads alone keeps the
# key's last value, and each would run as some other valid input
_FLIP = '{"flip":{'
REPEATED_KEY_CASES = st.one_of(
    st.tuples(st.just("tree"), st.sampled_from([
        '{"leaf":0,"leaf":1}',
        '{"flip":{"up":{"leaf":0},"up":{"leaf":1},"down":{"leaf":1}}}',
        CANONICAL_BEST_OF_3.replace('{"leaf":0}', '{"leaf":0,"leaf":1}', 1),
        _FLIP + '"down":{"leaf":0},' + CANONICAL_BEST_OF_3[len(_FLIP):]])),
    st.tuples(st.just("strategy"), st.sampled_from(_BO3_INTERNAL).map(
        lambda key: "{" + "".join(f'"{k}": 0.01, ' for k in _BO3_INTERNAL)
        + f'"{key}": 0.3' + "}")),
    st.tuples(st.just("strategy"), st.just(
        '{"strategy": {"": 0.3}, "strategy": '
        + json.dumps({k: 0.01 for k in _BO3_INTERNAL}) + "}")),
    st.tuples(st.just("policy"), st.sampled_from(_N2_SITES).map(
        lambda key: "{" + "".join(f'"{k}": 0.01, ' for k in _N2_SITES)
        + f'"{key}": 0.2' + "}")),
)


def _guard_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), workers=st.sampled_from(["1", "2"]))
def test_malformed_input_exits_1(tmp_path_factory, data, workers):
    folder = tmp_path_factory.mktemp("guard")
    tree_file = folder / "tree.json"
    tree_file.write_text(CANONICAL_BEST_OF_3)
    kind = data.draw(st.sampled_from(["flag", "model", "tree", "strategy",
                                      "policy", "repeated"]))
    if kind == "repeated":
        # refused, naming the key, before any payload
        file_kind, text = data.draw(REPEATED_KEY_CASES)
        path = folder / f"{file_kind}.json"
        path.write_text(text)
        path = str(path)
        argv = {"tree": ["tree", "analyze", "--in", path],
                "strategy": ["simulate", "--tree", "TREE", "--model", "prime:a=1",
                             "--strategy", path, "--trials", "20"],
                "policy": ["simulate", "--walk", "--n", "2", "--model", "prime:a=1",
                           "--policy", path, "--trials", "20"]}[file_kind]
    elif kind == "flag":
        base, flag, values = data.draw(st.sampled_from(FLAG_CASES))
        i = base.index(flag)
        argv = base[:i] + [f"{flag}={data.draw(values)}"] + base[i + 2:]
    elif kind == "model":
        base = data.draw(st.sampled_from([
            ["walk", "solve", "--n", "2"], ["walk", "sweep", "--n-max", "2"],
            ["simulate", "--walk", "--n", "2", "--policy", "honest",
             "--trials", "20"]]))
        argv = base + [f"--model={data.draw(BAD_WALK_MODELS)}"]
    elif kind == "tree":
        tree_file = folder / "bad.json"
        if data.draw(st.booleans()):
            tree_file.write_text(data.draw(BAD_TREE_TEXTS))
            argv = data.draw(st.sampled_from([
                ["tree", "analyze", "--in", "TREE"], _COMPOSE, _TREE_SIM]))
        else:
            tree_file.write_text(data.draw(UNCOMPOSABLE_TREE_TEXTS))
            argv = _COMPOSE
    elif kind == "policy":
        (folder / "policy.json").write_text(data.draw(BAD_POLICY_TEXTS))
        model = data.draw(st.sampled_from(["std:a=1,b=1", "prime:a=1"]))
        argv = ["simulate", "--walk", "--n", "2", "--model", model,
                "--policy", str(folder / "policy.json"), "--trials", "20"]
    else:
        (folder / "strategy.json").write_text(data.draw(BAD_STRATEGY_TEXTS))
        model = data.draw(st.sampled_from(["std:a=1,b=2", "prime:a=1"]))
        argv = ["simulate", "--tree", "TREE", "--model", model,
                "--strategy", str(folder / "strategy.json"), "--trials", "20"]
    if argv[0] == "simulate" and not any(a.startswith("--workers") for a in argv):
        # the serial and the threaded path; a bad count is a FLAG_CASES entry
        argv = argv + [f"--workers={workers}"]
    argv = [str(tree_file) if a == "TREE" else a for a in argv]
    code, out, err = _guard_run(argv)
    assert code == 1, (argv, err)
    assert out == "" or json.loads(out) is not None
    assert err.startswith("error:")
    if kind == "repeated":
        assert out == ""
        assert err.endswith(" in one object\n") and err.count("\n") == 1
        assert "repeated key '" in err
