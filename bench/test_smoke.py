"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the root of the repository:

    python3 -m pytest -q bench/test_smoke.py

Fails if any metric named in BENCHMARK.json is missing or has the wrong
unit, if any answer check fails, or if the benchmark runs without the
package sources next to it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((BENCH_DIR / "layer_map.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name
    details = json.loads(details_line)["details"]
    assert details["fail_frac"] == 0.0
    assert len(details["answer_digest"]) == 64
    assert {"nproc", "cpu_model", "python", "numpy", "scipy_importable",
            "commit", "seed", "items_per_pass"} <= set(details["provenance"])


def test_layer_map_covers_every_per_layer_metric():
    functions = LAYER_MAP["functions"]
    for m in SPEC["per_layer"]:
        name = m["name"]
        fn, _, kind = name.rpartition(".")
        assert name in LAYER_MAP["metrics"] or (
            fn in functions and kind in ("calls", "self_s")), name
    for entry in LAYER_MAP["metrics"].values():
        named = set(entry["moves"]) | set(entry["moves_less"]) | set(entry["still"])
        assert named <= set(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
