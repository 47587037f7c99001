"""The benchmark's four workloads.

Each workload builds its inputs from the seed in its constructor (that is
the set-up the harness times), then exposes:

* `items`: the list of inputs one pass runs, in a seeded order.  Every pass
  repeats the same items, so answers must repeat exactly.
* `run(item)`: one call into the package, the only thing that is timed.
* `answer(item, raw)`: the JSON-able answer recorded for the digest.
* `check(answers)`: per item, whether the answer passed its check.

Sizes are stratified: the seed draws each size uniformly inside one stratum
of the range, so every seed gets the same spread of sizes and runs stay
comparable across seeds.  Tolerances are the package's own, as used by its
acceptance gate; none is new.
"""

from __future__ import annotations

import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

from coincomp import cli, composer, game_tree, simulate, walk
from coincomp.cheat_model import PRIME, STD, CheatModel

A_VALUES = (0.5, 1.0, 2.0)

# tolerances, each with the acceptance criterion it comes from
ORACLE_TOL = 1e-12          # 07: policy iteration equals enumeration
DOMINANCE_TOL = 1e-12       # 11: std bias never exceeds prime bias
FIXED_POINT_RTOL = 1e-10    # 03: a_new == a at b = 2
BRACKET_OVER = 3e-3         # 04: min_pc - closed form
BRACKET_UNDER_STEPS = 3.0   # 04: closed form - min_pc <= 3 * a * grid_step
SIGMAS = 4.0                # 10 and `simulate`: estimates within 4 stderr
GRID_STEP = 1e-3


def _strata(r: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One uniform draw from each of `count` equal strata of [lo, hi]."""
    edges = [lo + (hi - lo + 1) * k // count for k in range(count + 1)]
    return [r.randint(edges[k], edges[k + 1] - 1) for k in range(count)]


def _within_sigmas(ans: dict, key: str, exact: float) -> bool:
    return abs(ans["estimates"][key] - exact) <= SIGMAS * ans["stderr"][key]


class WalkSweep:
    """In-process `walk.optimize` over the acceptance-sweep shape."""

    name = "walk-sweep"

    def __init__(self, seed: int, smoke: bool):
        r = random.Random(f"{self.name}-{seed}")
        n_max, strata = (12, 2) if smoke else (200, 20)
        self.items = []
        for a in A_VALUES:
            for n in _strata(r, 1, n_max, strata):
                for variant in (PRIME, STD):
                    self.items.append(walk.WalkGame(n, CheatModel(a, 1.0, variant)))
        r.shuffle(self.items)
        self._oracle = {}

    def run(self, game):
        return walk.optimize(game)

    def answer(self, game, sol) -> dict:
        return {"n": game.n, "a": game.model.a, "variant": game.model.variant,
                "bias": sol.bias, "bound_ok": sol.bound_ok,
                "policy": [sol.policy[z] for z in game.interior()]}

    def check(self, answers) -> list[bool]:
        prime_bias = {(ans["a"], ans["n"]): ans["bias"] for ans in answers
                      if ans is not None and ans["variant"] == PRIME}
        oks = []
        for game, ans in zip(self.items, answers):
            ok = ans is not None and ans["bound_ok"] is True
            if ok and ans["variant"] == PRIME and game.n <= 5:
                if game not in self._oracle:
                    self._oracle[game] = walk.brute_force_optimize(game).bias
                ok = abs(ans["bias"] - self._oracle[game]) <= ORACLE_TOL
            if ok and ans["variant"] == STD:
                prime = prime_bias.get((ans["a"], ans["n"]))
                ok = prime is not None and ans["bias"] - prime <= DOMINANCE_TOL
            oks.append(ok)
        return oks


@dataclass(frozen=True)
class CliRun:
    returncode: int | None  # None when the call was stopped at its time limit
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


class ItemTimeout(Exception):
    """An in-process call ran past its time limit."""


def _raise_timeout(signum, frame):
    raise ItemTimeout


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON output")


class WalkCliLarge:
    """`walk solve` as one child process per call, in four groups.

    * large: `std` at N = 1500, 1700, 1900, 2100 (a cycling), 0.27-0.38 MB
      of JSON each: solver arrays and the JSON edge at the largest sizes;
    * upper: 12 `std:a=1` calls at seeded N in 419..422; the tail falls in
      the middle of this group;
    * medium: 12 `std:a=1` calls at seeded N in 316..319; the median falls
      in the middle of this group;
    * cheap: 16 `prime` calls at seeded N in strata of 30..140, inside the
      range the acceptance sweep checks; start-up and import are most of
      their time.

    The sweep count, and so the cost, changes erratically with N and a (17
    to 20 sweeps at a = 1 and N near 300), so the large sizes are a fixed
    grid, and the upper and medium windows are ranges of N where a = 1
    takes 19 sweeps at every N: each group's calls cost the same within 1%.

    The optimal `std` excess stays at or below 0.8 of the bound (2+a)/(2aN),
    so its bound check is never decided by rounding.  `prime` is not run at
    large N: its optimal excess equals the bound, and from N of about 2000
    the solve's rounding passes the check's fixed 1e-12 slack for about two
    in five (N, a), so `walk solve` exits 2 on them.  Every call has a time
    limit of LIMIT_REF_S at the reference speed (see speed.py); a call
    stopped there is a failed item, timed at the limit.
    """

    name = "walk-cli-large"
    spawns_children = True
    LIMIT_REF_S = 10.0   # several times the slowest call, N = 2100

    def __init__(self, seed: int, smoke: bool, src_dir: str):
        r = random.Random(f"{self.name}-{seed}")
        if smoke:
            large, upper, medium = [40], [30], _strata(r, 20, 25, 2)
            cheap = _strata(r, 10, 30, 3)
        else:
            large = [1500, 1700, 1900, 2100]
            upper = [r.randint(419, 422) for _ in range(12)]
            medium = [r.randint(316, 319) for _ in range(12)]
            cheap = _strata(r, 30, 140, 16)
        models = [(n, f"std:a={A_VALUES[k % len(A_VALUES)]},b=1")
                  for k, n in enumerate(large)]
        models += [(n, "std:a=1.0,b=1") for n in upper + medium]
        models += [(n, f"prime:a={A_VALUES[k % len(A_VALUES)]}")
                   for k, n in enumerate(cheap)]
        self.items = [(n, ["walk", "solve", "--n", str(n), "--model", model])
                      for n, model in models]
        r.shuffle(self.items)
        self._cmd = [sys.executable, "-c",
                     "from coincomp.cli import entry; entry()"]
        self._env = dict(os.environ, PYTHONPATH=src_dir)
        # host speed against the reference, set by the harness before each
        # call, so that the time limit is the same amount of work
        self.speed_scale = 1.0

    def probe_kind(self, item) -> str:
        return "child"

    def startup_items(self) -> list:
        """The cheap prime calls, where start-up is most of the time."""
        return [item for item in self.items if item[1][-1].startswith(PRIME)]

    def _limit_s(self) -> float:
        return self.LIMIT_REF_S / self.speed_scale

    def run(self, item) -> CliRun:
        proc = subprocess.Popen(self._cmd + item[1], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self._env)
        killer = threading.Timer(self._limit_s(), proc.kill)
        killer.start()
        try:
            with proc.stdout, proc.stderr:
                out = proc.stdout.read()
                err = proc.stderr.read()
            # wait4 gives this child's own peak RSS, unmixed with other children
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stopped = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        return CliRun(None if stopped else proc.returncode, out, err,
                      usage.ru_maxrss)

    def run_inprocess(self, item) -> CliRun:
        buf = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, self._limit_s())
        try:
            with redirect_stdout(buf):
                code = cli.main(item[1])
        except ItemTimeout:
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return CliRun(code, buf.getvalue().encode(), b"", 0)

    def answer(self, item, raw: CliRun):
        if raw.returncode is None:
            print(f"walk solve --n {item[0]}: stopped at the time limit",
                  file=sys.stderr)
            return None
        if raw.returncode != 0:
            sys.stderr.write(raw.stderr.decode(errors="replace"))
            return None
        try:
            payload = json.loads(raw.stdout, parse_constant=_reject_constant)
        except ValueError as exc:
            print(f"walk solve --n {item[0]}: {exc}", file=sys.stderr)
            return None
        if not isinstance(payload, dict):
            return None
        return {"n": item[0], "bias": payload.get("bias"),
                "bound_ok": payload.get("bound_ok"),
                "policy": payload.get("policy")}

    def check(self, answers) -> list[bool]:
        oks = []
        for (n, _), ans in zip(self.items, answers):
            ok = (ans is not None and ans["bound_ok"] is True
                  and isinstance(ans["policy"], dict)
                  and set(ans["policy"]) == {str(z) for z in range(-n + 1, n)})
            oks.append(ok)
        return oks


@dataclass(frozen=True)
class MonteCarloItem:
    label: str
    kind: str              # "walk" or "tree"
    game: object           # WalkGame or tree
    model: CheatModel
    plan: dict             # walk policy or tree strategy
    trials: int
    seed: int
    exact: dict            # estimate key -> exact value


class MonteCarlo:
    """In-process `simulate_walk` and `simulate_tree` at workers=1."""

    name = "monte-carlo"

    def __init__(self, seed: int, smoke: bool):
        r = random.Random(f"{self.name}-{seed}")
        # a fixed per N: a changes walk lengths, and so the cost, too much
        # to leave to the seed.  Monte Carlo seeds per (N, variant) are
        # chosen so that the median falls in the middle of the group of
        # N = 10 walks and best-of-15 trees (as many items below it as
        # above), and the tail among the N = 30 walks: neither sits on a
        # boundary between two groups of different cost.
        walk_a = {5: 2.0, 10: 1.0, 30: 0.5}
        walk_seeds = {5: 2, 10: 3, 30: 4}
        # trial counts keep each block's arrays within a core's own cache:
        # larger blocks made the run's speed track other tenants' memory
        # traffic on a shared host
        walk_trials = {5: 20_000, 10: 10_000, 30: 5_000}
        tree_trials = {3: 20_000, 15: 20_000}
        if smoke:
            walk_trials = dict.fromkeys(walk_trials, 2_000)
            tree_trials = dict.fromkeys(tree_trials, 5_000)
        self.items = []
        for n, trials in walk_trials.items():
            for variant in (PRIME, STD):
                game = walk.WalkGame(n, CheatModel(walk_a[n], 1.0, variant))
                policy = walk.optimize(game).policy
                w0 = walk.evaluate_policy(game, policy).w[0]
                for _ in range(1 if smoke else walk_seeds[n]):
                    self.items.append(MonteCarloItem(
                        f"walk N={n} {variant}", "walk", game, game.model, policy,
                        trials, r.getrandbits(63), {"win": w0, "loss": 1.0 - w0}))
        for n, trials in tree_trials.items():
            tree = game_tree.gen_best_of(n)
            for a in A_VALUES:
                model = CheatModel(a, 2.0)
                strategy = composer.leading_order(tree, a, 2.0, 0.2).strategy
                t = composer.exact_outcome(tree, model, strategy)
                self.items.append(MonteCarloItem(
                    f"best-of-{n} a={a}", "tree", tree, model, strategy, trials,
                    r.getrandbits(63), {"win": t.p0, "loss": t.p1, "catch": t.pc}))
        r.shuffle(self.items)

    def run(self, item: MonteCarloItem, workers: int = 1):
        if item.kind == "walk":
            return simulate.simulate_walk(item.game, item.plan, item.trials,
                                          item.seed, workers=workers)
        return simulate.simulate_tree(item.game, item.model, item.plan,
                                      item.trials, item.seed, workers=workers)

    def answer(self, item, report) -> dict:
        return {"label": item.label, "trials": report.trials, "wins": report.wins,
                "losses": report.losses, "catches": report.catches,
                "overruns": report.overruns, "estimates": report.estimates,
                "stderr": report.stderr}

    def check(self, answers) -> list[bool]:
        oks = []
        for item, ans in zip(self.items, answers):
            if ans is None:
                oks.append(False)
                continue
            w, l, c, o = ans["wins"], ans["losses"], ans["catches"], ans["overruns"]
            if item.kind == "tree":
                ok = w + l + c == item.trials
            else:  # caught walk trials still end in a win or a loss
                ok = w + l == item.trials and 0 <= c <= item.trials and 0 <= o <= item.trials
            ok = ok and all(_within_sigmas(ans, key, value)
                            for key, value in item.exact.items())
            oks.append(ok)
        return oks

    def workers_speedup(self, workers: int, repeats: int = 3) -> tuple[float, bool]:
        """Time one walk call at workers=1 and at `workers`; same report?"""
        base = next(it for it in self.items if it.kind == "walk" and it.game.n == 5)
        item = MonteCarloItem(base.label, "walk", base.game, base.model, base.plan,
                              2 * workers * (1 << 16), base.seed, base.exact)
        times = {1: [], workers: []}
        reports = {}
        for _ in range(repeats):
            for w in times:
                t0 = time.perf_counter()
                reports[w] = self.run(item, workers=w)
                times[w].append(time.perf_counter() - t0)
        speedup = statistics.median(times[1]) / statistics.median(times[workers])
        return speedup, reports[1] == reports[workers]


@dataclass(frozen=True)
class TreeItem:
    call: str              # "leading_order", "exact_outcome" or "brute_force"
    label: str
    tree: object
    a: float
    b: float
    eps_tot: float
    strategy: dict | None = None     # exact_outcome input
    closed_form: float | None = None  # brute force: a_new * eps_tot**b


def _fair_labels(r: random.Random, depth: int) -> list[int]:
    labels = [0, 1] * (2 ** (depth - 1))
    r.shuffle(labels)
    return labels


def _random_fair(r: random.Random, max_depth: int, lo: int, hi: int,
                 live: bool = False):
    """A seeded gen_random_fair tree with lo..hi internal nodes.

    With `live`, every internal node has Delta != 0: a dead node keeps the
    oracle's frontiers tiny and makes its call several times cheaper.
    """
    while True:
        seed = r.getrandbits(31)
        tree = game_tree.gen_random_fair(max_depth, seed)
        internal = game_tree.annotate(tree).internal()
        if lo <= len(internal) <= hi and not (
                live and any(info.delta == 0.0 for _, info in internal)):
            return f"random-fair({max_depth}, {seed})", tree


class TreeOracle:
    """In-process composer calls: closed forms in ms, grid oracles near 0.4 s."""

    name = "tree-oracle"

    def __init__(self, seed: int, smoke: bool):
        r = random.Random(f"{self.name}-{seed}")
        if smoke:
            compose = [(f"best-of-{n}", game_tree.gen_best_of(n)) for n in (3, 5)]
            compose.append(("full(3)", game_tree.gen_full(3, _fair_labels(r, 3))))
            oracle = [("full(1)", game_tree.gen_full(1, [0, 1])),
                      ("full(2)", game_tree.gen_full(2, _fair_labels(r, 2)))]
        else:
            compose = [(f"best-of-{n}", game_tree.gen_best_of(n))
                       for n in range(7, 16, 2)]
            compose.append(("full(8)", game_tree.gen_full(8, _fair_labels(r, 8))))
            compose += [_random_fair(r, 8, lo, hi) for lo, hi in ((41, 80), (81, 119))]
            # four depth-10 trees with seeded labels: their twelve
            # leading_order calls cost nearly the same (about 5 ms) and hold
            # the median, so that it does not sit between two groups of
            # items of different cost
            compose += [(f"full(10) #{k}", game_tree.gen_full(10, _fair_labels(r, 10)))
                        for k in range(4)]
            # eleven 5-flip trees without a dead node, so that the slowest
            # items, and the tail among them, are oracle calls of about the
            # same cost
            oracle = [("best-of-3", game_tree.gen_best_of(3))]
            oracle += [_random_fair(r, 3, 5, 5, live=True) for _ in range(10)]
        self.items = []
        for label, tree in compose:
            a = r.choice(A_VALUES)
            eps_tot = r.choice((0.02, 0.05, 0.1))
            for b in (1.5, 2.0, 3.0):
                self.items.append(TreeItem("leading_order", label, tree, a, b, eps_tot))
            strategy = composer.leading_order(tree, a, 2.0, eps_tot).strategy
            self.items.append(TreeItem("exact_outcome", label, tree, a, 2.0,
                                       eps_tot, strategy=strategy))
        for label, tree in oracle:
            eps_tot = r.choice((0.02, 0.05))
            a_new = composer.leading_order(tree, 1.0, 2.0, eps_tot).a_new
            self.items.append(TreeItem("brute_force", label, tree, 1.0, 2.0, eps_tot,
                                       closed_form=a_new * eps_tot ** 2))
        r.shuffle(self.items)

    def probe_kind(self, item: TreeItem) -> str:
        return "numpy" if item.call == "brute_force" else "python"

    def run(self, item: TreeItem):
        if item.call == "leading_order":
            return composer.leading_order(item.tree, item.a, item.b, item.eps_tot)
        model = CheatModel(item.a, item.b)
        if item.call == "exact_outcome":
            return composer.exact_outcome(item.tree, model, item.strategy)
        return composer.brute_force_min_pc(item.tree, model, item.eps_tot, GRID_STEP)

    def answer(self, item, raw) -> dict:
        head = {"call": item.call, "tree": item.label, "a": item.a, "b": item.b,
                "eps_tot": item.eps_tot}
        if item.call == "leading_order":
            return {**head, "a_new": raw.a_new, "clipped": raw.clipped,
                    "strategy": raw.strategy}
        if item.call == "exact_outcome":
            return {**head, "exact": list(raw.as_tuple())}
        strategy, min_pc = raw
        return {**head, "min_pc": min_pc, "strategy": strategy}

    def check(self, answers) -> list[bool]:
        oks = []
        for item, ans in zip(self.items, answers):
            ok = ans is not None
            if ok and item.call == "leading_order" and item.b == 2.0:
                ok = abs(ans["a_new"] - item.a) / item.a <= FIXED_POINT_RTOL
            if ok and item.call == "brute_force":
                ok = (ans["min_pc"] - item.closed_form <= BRACKET_OVER
                      and item.closed_form - ans["min_pc"]
                      <= BRACKET_UNDER_STEPS * item.a * GRID_STEP)
            oks.append(ok)
        return oks


def make(name: str, seed: int, smoke: bool, src_dir: str):
    if name == "walk-sweep":
        return WalkSweep(seed, smoke)
    if name == "walk-cli-large":
        return WalkCliLarge(seed, smoke, src_dir)
    if name == "monte-carlo":
        return MonteCarlo(seed, smoke)
    if name == "tree-oracle":
        return TreeOracle(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
