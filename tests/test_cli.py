"""Command-line behavior: payloads, formats, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from coincomp import cli, composer, game_tree, walk
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

    def test_lemma_disagreement_exits_2(self, capsys, bo3_file, monkeypatch):
        monkeypatch.setattr(game_tree, "lemma_sum", lambda tree: 0.9)
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

    def test_brute_force_section(self, capsys, one_flip_file):
        code, out, _ = run(capsys, "compose", "--tree", one_flip_file,
                           "--a", "1", "--b", "2", "--eps-tot", "0.05",
                           "--brute-force", "--grid", "0.01")
        doc = json.loads(out)
        assert doc["brute_force"]["min_pc"] >= 0.0
        assert set(doc["brute_force"]["strategy"]) == {""}

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
            return replace(real(game), bound_ok=False)

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
        real = walk.sweep

        def doctored(a, variant, n_list):
            records = real(a, variant, n_list)
            return [replace(records[0], bound_ok=False)] + records[1:]

        monkeypatch.setattr(walk, "sweep", doctored)
        code, _, err = run(capsys, "walk", "sweep", "--n-max", "2",
                           "--model", "prime:a=1", "--csv")
        assert code == 2


class TestSimulate:
    def test_tree_honest(self, capsys, bo3_file):
        code, out, _ = run(capsys, "simulate", "--tree", bo3_file,
                           "--model", "std:a=1,b=2", "--strategy", "honest",
                           "--trials", "20000", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 20000
        assert doc["wins"] + doc["losses"] + doc["catches"] == 20000
        assert abs(doc["estimates"]["win"] - 0.5) <= 4 * doc["stderr"]["win"]

    def test_tree_lo_shorthand(self, capsys, bo3_file):
        code, out, _ = run(capsys, "simulate", "--tree", bo3_file,
                           "--model", "std:a=1,b=2", "--strategy", "lo:0.1",
                           "--trials", "20000", "--seed", "7")
        assert code == 0
        assert json.loads(out)["catches"] > 0

    def test_tree_strategy_file(self, capsys, bo3_file, tmp_path):
        strat = composer.leading_order(
            game_tree.parse_tree(CANONICAL_BEST_OF_3), 1.0, 2.0, 0.1).strategy
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(strat))
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

    def test_walk_optimal(self, capsys):
        code, out, _ = run(capsys, "simulate", "--walk", "--n", "1",
                           "--model", "prime:a=1", "--policy", "optimal",
                           "--trials", "20000", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["estimates"]["win"] - 0.875) <= 4 * doc["stderr"]["win"]

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

    def test_emit_refuses_nan(self, capsys):
        with pytest.raises(ValueError):
            cli._emit({"x": float("nan")})
        assert capsys.readouterr().out == ""


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

    def test_entry_raises_system_exit(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["coincomp", "walk", "solve",
                                         "--n", "1", "--model", "prime:a=1"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("module", ["coincomp", "coincomp.cli"])
    def test_module_entry_points(self, module):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", module, "walk", "solve", "--n", "2",
             "--model", "prime:a=1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["n"] == 2
        assert doc["bound_ok"] is True
