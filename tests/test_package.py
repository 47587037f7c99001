"""Package surface: lazy exports, and a walk path that never loads numpy."""

import os
import subprocess
import sys
from pathlib import Path

import coincomp

SRC = str(Path(coincomp.__file__).resolve().parents[1])

# Runs each walk entry point with numpy made unimportable, then names every
# heavy module that got loaded; prints nothing else on success.
CHILD = r"""
import contextlib, io, runpy, sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
from coincomp.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [main(["walk", "solve", "--n", "40", "--model", "std:a=1,b=1"]),
             main(["walk", "sweep", "--n-max", "20", "--model", "prime:a=1",
                   "--csv"])]
    sys.argv = ["coincomp", "walk", "solve", "--n", "7", "--model", "prime:a=2"]
    try:
        runpy.run_module("coincomp", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        codes.append(exc.code)
assert codes == [0, 0, 0], codes
assert out.getvalue().count('"bias"') == 2, out.getvalue()[:200]
heavy = ("coincomp.composer", "coincomp.game_tree", "coincomp.simulate",
         "coincomp.rng")
print(sorted(name for name, module in sys.modules.items()
             if name.split(".")[0] == "numpy" and module is not None
             or name in heavy))
"""


def test_walk_commands_run_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
