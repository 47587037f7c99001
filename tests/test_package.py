"""Package surface: lazy exports, and commands that never load numpy.

The seven `without_numpy` tests use no conftest.py fixture and load no
numpy in the test process, so CI also runs them, with --noconftest, where
numpy is not installed.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coincomp
from coincomp import game_tree
from coincomp.cli import main

SRC = str(Path(coincomp.__file__).resolve().parents[1])

# Runs the cli commands given as JSON in argv[1] with numpy made unimportable,
# the last of them as `python -m coincomp`, and prints as JSON each command's
# exit code, stdout and stderr, then every loaded module that is numpy's or
# is named in argv[2].  cli.entry() ends the process with os._exit, so that
# is replaced by a SystemExit the child catches.
CHILD = r"""
import contextlib, io, json, os, runpy, sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
from coincomp.cli import main
*commands, last = json.loads(sys.argv[1])
banned = json.loads(sys.argv[2])
runs = []
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append([main(argv), out.getvalue(), err.getvalue()])
out, err = io.StringIO(), io.StringIO()
sys.argv = ["coincomp", *last]
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        runpy.run_module("coincomp", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        runs.append([exc.code, out.getvalue(), err.getvalue()])
print(json.dumps({"runs": runs, "loaded": sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "numpy" and module is not None or name in banned)}))
"""


def child_env():
    """The environment, with the package's source first on PYTHONPATH and
    stdout block-buffered, so what cli.entry() prints waits for its flush."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_without_numpy(commands, banned):
    """(exit code, stdout, stderr) of each command and the banned modules
    loaded."""
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands),
                           json.dumps(banned)],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return [tuple(run) for run in result["runs"]], result["loaded"]


# the two ways a process enters cli.entry()
ENTRY_STARTS = [[sys.executable, "-m", "coincomp"],
                [sys.executable, "-c", "from coincomp.cli import entry; entry()"]]


def run_in_process(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_walk_commands_run_without_numpy(capsys):
    commands = [["walk", "solve", "--n", "40", "--model", "std:a=1,b=1"],
                ["walk", "sweep", "--n-max", "20", "--model", "prime:a=1",
                 "--csv"],
                ["walk", "solve", "--n", "7", "--model", "prime:a=2"]]
    runs, loaded = run_without_numpy(commands, [
        "coincomp.composer", "coincomp.game_tree", "coincomp.simulate",
        "coincomp.rng", "dataclasses", "inspect"])
    assert loaded == []
    assert runs == [run_in_process(capsys, argv) for argv in commands]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    # the solver's bytes, pinned on every Python the numpy-free job runs
    assert [hashlib.sha256(out.encode()).hexdigest() for _, out, _ in runs] == [
        "bd2f6e67dd618d3f3886d79e743f00cc2614a131c1c4a42800a4437bf5810f5c",
        "3387451d8b28fd475b0995c2e63ebc5336e2fcfae3db5a2bd897cb5480a90808",
        "beff73acc6b3481b34aab8dae403aca836f92185dc003205b1033c31ee3b3901"]
    assert sum(out.count('"bias"') for _, out, _ in runs) == 2
    # bound_ok is decided on the returned solution, so check the verdicts
    # printed, not only the exit codes
    assert json.loads(runs[0][1])["bound_ok"] is True
    header, *rows = [line.split(",") for line in runs[1][1].splitlines()]
    column = header.index("bound_ok")
    assert [row[column] for row in rows] == ["true"] * 20


def test_tree_and_compose_commands_run_without_numpy(capsys, tmp_path):
    tree = str(tmp_path / "bo5.json")
    Path(tree).write_text(game_tree.serialize_tree(game_tree.gen_best_of(5)))
    bo7 = str(tmp_path / "bo7.json")
    Path(bo7).write_text(game_tree.serialize_tree(game_tree.gen_best_of(7)))
    malformed = str(tmp_path / "leaf2.json")
    Path(malformed).write_text('{"leaf": 2}')
    compose = ["compose", "--tree", tree, "--a", "1", "--b", "2",
               "--eps-tot", "0.05"]
    commands = [["tree", "gen", "--kind", "best-of", "--n", "5"],
                ["tree", "gen", "--kind", "full", "--depth", "3",
                 "--labels", "01101001"],
                ["tree", "gen", "--kind", "random-fair", "--depth", "8",
                 "--seed", "5"],
                # the seed range is checked by splitmix, which needs no numpy
                ["tree", "gen", "--kind", "random-fair", "--depth", "3",
                 "--seed=-1"],
                ["tree", "analyze", "--in", tree],
                # the parser's messages need no numpy either
                ["tree", "analyze", "--in", malformed],
                compose,
                # refused for its size before the oracle would load numpy
                [*compose, "--brute-force"],
                [*compose, "--exact"],
                # node_sum's pass over the DAG rows reads S as
                # 0x1.7043f83be6da6p+0 here; one term per node added left
                # to right, or a reach weight times each row's weight,
                # reads ...6da5p+0, and so does sum() over the nodes up to
                # Python 3.11 (it compensates its rounding from 3.12 on)
                ["compose", "--tree", bo7, "--a", "1", "--b", "3",
                 "--eps-tot", "0.05", "--exact"]]
    runs, loaded = run_without_numpy(commands, [
        "coincomp.rng", "coincomp.grid_oracle", "coincomp.simulate"])
    assert loaded == []
    assert runs == [run_in_process(capsys, argv) for argv in commands]
    assert [code for code, _, _ in runs] == [0, 0, 0, 1, 0, 1, 0, 1, 0, 0]
    # the JSON edge's bytes, pinned on every Python the numpy-free job runs:
    # the trees, the analysis (paths from the lazy path column) and the
    # compose payloads (path-keyed strategies from the list form); the three
    # refusals print nothing
    assert [hashlib.sha256(out.encode()).hexdigest() for _, out, _ in runs] == [
        "9e2e8b6394b319a02be068d443442f45ecacf8373238f371deb1af2d6a45d7d1",
        "3421db5149f92e64b6b737ce9710960cf0eb5e3217552e87c646b736cfc2b515",
        "9f1a2ef0d51fd4510bacc49c5d2b5fbdfa1f9e9c2e73185270c19c3fd28ed59d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "04511980bd06f2ea2226465cbbd4f976a4c36706c0324d326ac4a4bdecfa1d68",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4a203665582fc4f2661bd5bc90fc3cbd521aa4804934424be968d281f43b6bb8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d9fe4119caaf3b199dcc3223215ea473692fe400d09d4e04906dbd5e148eb526",
        "72337fef957b4c6929930569307d66eb09b6540e636263988f3f662ef670f3fa"]
    assert runs[3] == (1, "", "error: seed must be an int in [0, 2**64), "
                              "got -1\n")
    assert json.loads(runs[4][1])["lemma_sum"] == 1.0
    assert runs[5] == (1, "", "error: node at path '': leaf label must be "
                              "0 or 1, got 2\n")
    assert runs[7] == (1, "", "error: tree too large: 19 internal nodes, "
                              "limit 5\n")
    doc = json.loads(runs[-2][1])
    assert abs(doc["a_new"] - 1.0) <= 1e-12
    assert isinstance(doc["exact"], dict)


def test_entry_processes_without_numpy(capsys):
    # real children, ended by cli.entry()'s os._exit after its flush: what
    # they print is what main() prints in process, and nothing is lost
    env = child_env()
    commands = [["walk", "solve", "--n", "40", "--model", "std:a=1,b=1"],
                ["walk", "sweep", "--n-max", "60", "--model", "prime:a=1",
                 "--csv"]]
    for start in ENTRY_STARTS:
        for argv in commands:
            proc = subprocess.run(start + argv, capture_output=True, env=env,
                                  timeout=120)
            code, out, err = run_in_process(capsys, argv)
            assert (code, err) == (0, "")
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                0, out.encode(), b"")
        proc = subprocess.run(start + ["walk", "solve", "--n", "2",
                                       "--model", "std:a=1"],
                              capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"error: ")
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")


def test_help_takes_the_exit_path_without_numpy(monkeypatch, capsys):
    # --help's SystemExit ends the process through cli.entry()'s flush and
    # os._exit: into a pipe the child prints main()'s help text and exits 0,
    # and into a pipe whose reader has gone it exits 1 with one `error:`
    # line, buffered or not, where argparse itself drops the failed write
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps at
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    want = capsys.readouterr().out.encode()
    assert want.startswith(b"usage: coincomp")
    env = child_env()
    env["COLUMNS"] = "80"
    for start in ENTRY_STARTS:
        proc = subprocess.run(start + ["--help"], capture_output=True, env=env,
                              timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b"")
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(start + ["--help"], stdout=write_end,
                                      stderr=subprocess.PIPE,
                                      env={**env, **unbuffered}, timeout=60)
            finally:
                os.close(write_end)
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith(b"error: ")
            assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")


def test_compose_annotates_the_tree_once_without_numpy(monkeypatch, capsys,
                                                       tmp_path):
    # leading_order, its JSON edge and exact_outcome share the columns the
    # first annotate of the parsed tree makes and keeps on it (a
    # functools.cached_property, whose locking changed in Python 3.12)
    tree = str(tmp_path / "bo5.json")
    Path(tree).write_text(game_tree.serialize_tree(game_tree.gen_best_of(5)))
    roots = []
    real = game_tree._annotate

    def spy(node, d, *args):
        if d == 0:
            roots.append(node)
        return real(node, d, *args)

    monkeypatch.setattr(game_tree, "_annotate", spy)
    code, out, _ = run_in_process(capsys, [
        "compose", "--tree", tree, "--a", "1", "--b", "2", "--eps-tot", "0.05",
        "--exact"])
    assert code == 0
    assert "exact" in json.loads(out)
    assert len(roots) == 1


class _Unread(list):
    """A column that refuses to be iterated."""

    def __iter__(self):
        raise AssertionError("a pass iterated the occurrence column")


def test_per_row_strategy_reads_no_occurrence_column_without_numpy(monkeypatch):
    # leading_order returns one eps per DAG row and exact_outcome builds its
    # table straight from that list, so neither iterates the occurrence
    # column: 66 rows against 25,739 nodes on best-of-15
    from coincomp import composer
    from coincomp.cheat_model import CheatModel

    tree = game_tree.gen_best_of(15)
    model = CheatModel(1.0, 2.0)
    want = composer.exact_outcome(tree, model,
                                  composer.leading_order(tree, 1.0, 2.0, 0.1).strategy)
    columns = game_tree.annotate(tree)
    guarded = (columns.dag_p_w, columns.dag_delta, columns.dag_up,
               columns.dag_down, columns.dag_at, _Unread(columns.row))
    monkeypatch.setattr(composer, "annotate",
                        lambda t: game_tree.TreeAnnotation(*guarded))
    res = composer.leading_order(tree, 1.0, 2.0, 0.1)
    assert len(res.strategy) == 66
    assert composer.exact_outcome(tree, model, res.strategy) == want
    # the guard is live: the same strategy spread over the nodes is read
    # through the occurrence column
    spread = [res.strategy[k] for k in list.__iter__(guarded[-1])]
    with pytest.raises(AssertionError, match="occurrence column"):
        composer.exact_outcome(tree, model, spread)
    # a per-node strategy is read through the occurrence column alone, into
    # rows keyed by value: with the first internal node's eps changed, that
    # copy and its ancestors split from the shared rows, 73 rows against
    # 66, and the outcome is the one a table of all 25,739 nodes gave.  No
    # per-node view of the annotation is built.
    held = game_tree.TreeAnnotation(*guarded[:-1], columns.row)
    monkeypatch.setattr(composer, "annotate", lambda t: held)
    first = next(i for i, k in enumerate(columns.row) if columns.dag_up[k] >= 0)
    spread[first] += 0.01
    assert len(composer.strategy_table(held, model, spread)[1]) == 73
    assert [x.hex() for x in composer.exact_outcome(tree, model, spread)] == [
        "0x1.2fb311282dfd4p-1", "0x1.96840007c37e4p-2", "0x1.42bbb4fc10ee6p-7"]
    assert set(vars(held)).isdisjoint(["p_w", "up", "down", "delta", "path",
                                       "depth"])


def test_numpy_commands_fail_cleanly_without_numpy(tmp_path):
    tree = str(tmp_path / "bo3.json")
    Path(tree).write_text(game_tree.serialize_tree(game_tree.gen_best_of(3)))
    commands = [["compose", "--tree", tree, "--a", "1", "--b", "2",
                 "--eps-tot", "0.05", "--brute-force"],
                ["simulate", "--tree", tree, "--model", "std:a=1,b=2",
                 "--strategy", "honest", "--trials", "10"]]
    runs, _ = run_without_numpy(commands, [])
    message = "error: this command needs numpy, which could not be imported\n"
    assert runs == [(1, "", message)] * 2


def test_every_export_resolves():
    for name in coincomp.__all__:
        assert getattr(coincomp, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from coincomp import *", namespace)
    assert set(coincomp.__all__) <= set(namespace)
    assert namespace["optimize"] is coincomp.walk.optimize
    assert namespace["leading_order"] is coincomp.composer.leading_order


def test_unknown_attribute_raises():
    try:
        coincomp.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("expected AttributeError")
