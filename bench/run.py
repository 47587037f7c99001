"""Benchmark for coincomp: four workloads, end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 bench/run.py --seed 1                        # all workloads, untraced
    python3 bench/run.py --workload walk-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload monte-carlo --seed 1 --trace 1
    python3 bench/run.py --smoke --seconds 1             # tiny sizes, every check

Every workload is a closed loop with one caller in one process: the next
item starts when the previous one returns.  A run repeats whole passes over
the workload's seeded item list for about `--seconds` of timed item work
(rescaled to a reference host speed, see speed.py),
then checks every answer outside the timed spans.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
line before it holds the details (answer digest, fail_frac, tail percentile,
provenance).  With `--trace 1` the metrics are the per-layer ones, taken from
a traced run of the same items; end-to-end metrics come only from untraced
runs.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("walk-sweep", "walk-cli-large", "monte-carlo", "tree-oracle")
ALL_CPUS = frozenset(os.sched_getaffinity(0))
SETUP_REPEATS = 5     # set-up samples per run: this process plus 4 children
TAIL_BEYOND = 10      # item_tail_ms has at least this many samples above it

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def _canonical(obj) -> str:
    """Canonical JSON: sorted keys, no spaces, floats written by repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


class Passes:
    """Runs whole passes over the items; collects times and verdicts.

    Every attempted item is timed, whatever its verdict, so that each seed
    always times the same items.  Times are wall times rescaled to the
    reference speed by the probes around them (see speed.py); raw wall
    times are kept for the details.  Peak memory is read at the end of the
    first pass, so that it covers the same work however many passes the run
    makes.
    """

    def __init__(self, wl):
        self.wl = wl
        self.speeds: dict[str, speed.Speed] = {}  # probe kind -> its marks
        self.samples: list[list[float]] = [[] for _ in wl.items]
        self.raw: list[float] = []
        self.ok: list[bool] = [True] * len(wl.items)
        self.peak_kb = 0
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.first: list[str] | None = None
        self.digest = None

    def all_samples(self) -> list[float]:
        return [t for per_item in self.samples for t in per_item]

    def item_medians(self) -> list[float]:
        return [statistics.median(per_item) for per_item in self.samples]

    def _speed(self, item) -> speed.Speed:
        kind = self.wl.probe_kind(item) if hasattr(self.wl, "probe_kind") else "python"
        if kind not in self.speeds:
            self.speeds[kind] = speed.Speed(kind)
        return self.speeds[kind]

    def run_pass(self, runner) -> float:
        raws, marks = [], []
        for item in self.wl.items:
            probes = self._speed(item)
            probes.maybe_probe()
            if hasattr(self.wl, "speed_scale"):  # for per-call time limits
                self.wl.speed_scale = probes.latest_scale()
            t0 = time.perf_counter()
            try:
                raw = runner(item)
            except Exception:  # an item that raises is a failed item
                traceback.print_exc()
                raw = None
            marks.append((probes, t0, time.perf_counter()))
            raws.append(raw)
        for probes in self.speeds.values():
            probes.probe()
        timed = 0.0
        for per_item, (probes, t0, t1) in zip(self.samples, marks):
            dt = (t1 - t0) * probes.scale(t0, t1)
            per_item.append(dt)
            self.raw.append(t1 - t0)
            timed += dt
        self._check(raws)
        if self.passes == 0:
            # CLI children report their own peak; otherwise this process's
            child_kb = [raw.maxrss_kb for raw in raws if hasattr(raw, "maxrss_kb")]
            self.peak_kb = max(child_kb or [
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss])
        self.passes += 1
        return timed

    def _check(self, raws) -> None:
        answers = [None if raw is None else self.wl.answer(item, raw)
                   for item, raw in zip(self.wl.items, raws)]
        oks = self.wl.check(answers)
        texts = [_canonical(ans) for ans in answers]
        if self.first is None:
            self.first = texts
            self.digest = hashlib.sha256(
                ("[" + ",".join(texts) + "]").encode()).hexdigest()
        else:  # every pass repeats the same inputs, so answers must repeat
            oks = [ok and text == first
                   for ok, text, first in zip(oks, texts, self.first)]
        self.attempted += len(oks)
        self.failed += oks.count(False)
        self.ok = [was and ok for was, ok in zip(self.ok, oks)]

    def run_for(self, runner, seconds: float) -> float:
        """Whole passes until the rescaled total is nearest to `seconds`."""
        total = 0.0
        while True:
            total += self.run_pass(runner)
            if total + 0.5 * total / self.passes >= seconds:
                return total


def _setup_child(args) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _provenance(args, wl) -> dict:
    import numpy
    try:
        import scipy  # noqa: F401
        scipy_ok = True
    except ImportError:
        scipy_ok = False
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "coincomp").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    return {
        "nproc": len(ALL_CPUS),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy_importable": scipy_ok,
        "commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "items_per_pass": len(wl.items),
        "smoke": args.smoke,
    }


def _measure(args, wl, setup_main: dict):
    setup = [setup_main] + [_setup_child(args)
                            for _ in range((1 if args.smoke else SETUP_REPEATS) - 1)]
    passes = Passes(wl)
    timed = passes.run_for(wl.run, args.seconds)
    samples = passes.all_samples()
    tail, pct = _tail(samples)
    values = {
        "setup_s": statistics.median(s["rescaled_s"] for s in setup),
        "items_per_s": len(samples) / timed,
        "item_p50_ms": 1e3 * statistics.median(samples),
        "item_tail_ms": 1e3 * tail,
        "peak_rss_mb": passes.peak_kb / 1024.0,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    raw_tail, _ = _tail(passes.raw)
    details = {
        "passes": passes.passes,
        "items_timed": passes.attempted,
        "item_tail_percentile": pct,
        "item_tail_samples": len(samples),
        "item_tail_beyond": min(TAIL_BEYOND, len(samples) - 1),
        "timed_s": timed,
        "wall": {"timed_s": sum(passes.raw),
                 "items_per_s": len(passes.raw) / sum(passes.raw),
                 "item_p50_ms": 1e3 * statistics.median(passes.raw),
                 "item_tail_ms": 1e3 * raw_tail,
                 "setup_s": statistics.median(s["wall_s"] for s in setup)},
        "probes": {kind: {"median_s": statistics.median(sp.probes), "ref_s": sp.ref_s,
                          "count": len(sp.probes)}
                   for kind, sp in passes.speeds.items()},
        "setup_samples": setup,
        "fail_frac": passes.failed / passes.attempted,
    }
    return passes, metrics, details


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cli_startup(wl) -> float:
    """Median over the cheap CLI calls of child wall time minus in-process time.

    Start-up does not depend on N, so the cheap calls measure it; answers
    are checked in the passes, not here.
    """
    runs = ((wl.run, speed.Speed("child")), (wl.run_inprocess, speed.Speed("python")))
    diffs = []
    for item in wl.startup_items():
        times = []
        for runner, probes in runs:
            probes.probe()
            t0 = time.perf_counter()
            runner(item)
            t1 = time.perf_counter()
            probes.probe()
            times.append((t1 - t0) * probes.scale(t0, t1))
        diffs.append(times[0] - times[1])
    return statistics.median(diffs)


def _measure_traced(args, wl):
    # untraced baseline over the same items, for trace.overhead_frac; for
    # the CLI workload also the child processes, for cli.startup_s
    runner = getattr(wl, "run_inprocess", wl.run)
    children = getattr(wl, "spawns_children", False)
    base = Passes(wl)
    base.run_for(runner, args.seconds / 2)

    tracer = spans.Tracer()
    stdout_bytes = [0]

    def traced_runner(item):
        tracer.item += 1
        # spans of the first pass only; later passes repeat the same calls
        tracer.keep_spans = traced.passes == 0
        raw = runner(item)
        if children:
            stdout_bytes[0] += len(raw.stdout)
        return raw

    traced = Passes(wl)
    t_origin = time.perf_counter()
    tracer.install()
    try:
        traced.run_for(traced_runner, args.seconds / 2)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path, t_origin)

    k = traced.passes
    c = tracer.counters
    values = {}
    for name in tracer.names:
        calls, self_s, _ = tracer.stat(name)
        values[f"{name}.calls"] = calls / k
        values[f"{name}.self_s"] = self_s / k
    values["walk.improve_policy.sites_per_s"] = _ratio(
        c["walk.improve_policy.sites"], tracer.stat("walk.improve_policy")[2])
    values["walk.evaluate_policy.sites_per_s"] = _ratio(
        c["walk.evaluate_policy.sites"], tracer.stat("walk.evaluate_policy")[2])
    values["walk.sweeps_per_solve"] = _ratio(c["walk.sweeps"],
                                             tracer.stat("walk.optimize")[0])
    values["walk.useful_sweep_frac"] = _ratio(c["walk.useful_sweeps"], c["walk.sweeps"])
    values["cli.stdout_bytes"] = _ratio(stdout_bytes[0], tracer.stat("cli.main")[0])
    values["cli.startup_s"] = _cli_startup(wl) if children else 0.0
    values["rng.draws"] = c["rng.draws"] / k
    values["rng.draws_per_s"] = _ratio(c["rng.draws"], tracer.stat("rng.np_draw_double")[2])
    sim_s = tracer.stat("simulate.simulate_walk")[2] + tracer.stat("simulate.simulate_tree")[2]
    values["simulate.trial_steps_per_s"] = _ratio(c["simulate.trial_steps"], sim_s)
    values["simulate.overrun_frac"] = _ratio(c["simulate.overruns"], c["simulate.walk_trials"])
    speedup, same = 0.0, True
    if hasattr(wl, "workers_speedup"):
        os.sched_setaffinity(0, ALL_CPUS)
        try:
            speedup, same = wl.workers_speedup(len(ALL_CPUS))
        finally:
            _pin()
    values["simulate.workers_speedup"] = speedup
    values["game_tree.annotate.nodes_per_s"] = _ratio(
        c["game_tree.annotate.nodes"], tracer.stat("game_tree.annotate")[2])
    # over the items that passed in both phases: a call stopped at its time
    # limit costs the limit, traced or not
    both = [i for i, ok in enumerate(base.ok) if ok and traced.ok[i]]
    values["trace.overhead_frac"] = _ratio(
        sum(traced.item_medians()[i] for i in both),
        sum(base.item_medians()[i] for i in both)) - 1.0 if both else 0.0

    attempted = base.attempted + traced.attempted + (0 if same else 1)
    failed = base.failed + traced.failed + (0 if same else 1)
    metrics = {name: {"value": v, "unit": LAYER_UNITS[name]} for name, v in values.items()}
    details = {
        "baseline_passes": base.passes,
        "traced_passes": k,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_recorded": sum(1 for s in tracer.spans if s is not None),
        "workers_report_identical": same,
        "fail_frac": failed / attempted,
    }
    return traced, attempted, failed, metrics, details


def _layer_units() -> dict:
    units = {}
    for mod, fn in spans.TARGETS:
        units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.{fn}.self_s"] = "s"
    units.update({
        "walk.improve_policy.sites_per_s": "1/s",
        "walk.evaluate_policy.sites_per_s": "1/s",
        "walk.sweeps_per_solve": "count",
        "walk.useful_sweep_frac": "ratio",
        "cli.stdout_bytes": "bytes",
        "cli.startup_s": "s",
        "rng.draws": "count",
        "rng.draws_per_s": "1/s",
        "simulate.trial_steps_per_s": "1/s",
        "simulate.overrun_frac": "ratio",
        "simulate.workers_speedup": "ratio",
        "game_tree.annotate.nodes_per_s": "1/s",
        "trace.overhead_frac": "ratio",
    })
    return units


LAYER_UNITS = _layer_units()


def _pin() -> None:
    """Keep this process and its children on one CPU, where the probes run.

    The two vCPUs of a shared host slow down independently; a probe only
    tracks the speed of the CPU it runs on.
    """
    os.sched_setaffinity(0, {min(ALL_CPUS)})


def run_one(args) -> int:
    _pin()
    probes = speed.Speed()
    probes.probe()
    t0 = time.perf_counter()
    import workloads  # imports numpy and coincomp: part of set-up
    wl = workloads.make(args.workload, args.seed, args.smoke, str(SRC))
    t1 = time.perf_counter()
    probes.probe()
    setup = {"rescaled_s": (t1 - t0) * probes.scale(t0, t1), "wall_s": t1 - t0}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    # keep the collector from rescanning the inputs on every collection: a
    # cost of the benchmark's item lists, not of the calls being timed
    gc.collect()
    gc.freeze()
    if args.trace:
        passes, attempted, failed, metrics, details = _measure_traced(args, wl)
    else:
        passes, metrics, details = _measure(args, wl, setup)
        attempted, failed = passes.attempted, passes.failed
    details["answer_digest"] = passes.digest
    details["provenance"] = _provenance(args, wl)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    out.write_text(json.dumps({"details": details, **result}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, so no peak RSS leaks across."""
    results = {}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(int(args.trace))]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        details = json.loads(lines[-2])["details"]
        result = json.loads(lines[-1])
        results[name] = {**result, "answer_digest": details["answer_digest"]}
        print(f"== {name}  seed {args.seed}  correct {result['correct']}  "
              f"failed {result['failed']}/{result['attempted']}  "
              f"fail_frac {details['fail_frac']}  digest {details['answer_digest'][:16]}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:40s} {m['value']:>16.6g} {m['unit']}")
        if "item_tail_percentile" in details:
            print(f"   (item_tail_ms is p{details['item_tail_percentile']:.1f} "
                  f"of {details['item_tail_samples']} items)")
        if not result["correct"]:
            code = 1
    print(json.dumps({"seed": args.seed, "workloads": results}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed item work per run (traced: per phase, halved)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up sample, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "coincomp" / "__init__.py").is_file():
        print(f"error: no coincomp sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
