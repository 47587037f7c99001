"""Monte Carlo cross-checks for tree games and walk games.

Trial i draws from its own splitmix64 stream seeded with mix(seed, i) (see
rng module), and its k-th draw is output k of that stream, so results are a
pure function of (inputs, seed): grouping trials into blocks, reordering the
blocks, or spreading them over worker threads cannot change a single draw.
Counts are integers and aggregation is a sum, so reports are bit-identical
for any worker count.

Draw rule at a node or walk site with triple (p0, p1, pc): a uniform
u in [0, 1) means "up"/"+1" when u < p0, "down"/"-1" when p0 <= u < p0+p1,
and "caught" otherwise.  In a tree game a catch ends the trial.  In a walk
game the trial keeps walking but with a fair coin from then on (pc = 0),
which is the honest continuation the analytic solver folds into its
terminal payoff.  Walk trials still unabsorbed after step_cap steps are
counted as overruns and settled by one final draw against the honest value
(N+z)/(2N), so every trial contributes to exactly one count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cheat_model, rng
from .cheat_model import CheatModel
from .composer import Strategy
from .game_tree import GameTree, annotate
from .walk import WalkGame, WalkPolicy, check_policy

_BLOCK = 1 << 16  # trials per vectorized block; fixed so layout never varies


@dataclass(frozen=True)
class SimReport:
    trials: int
    wins: int
    losses: int
    catches: int
    overruns: int
    estimates: dict[str, float]
    stderr: dict[str, float]
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "wins": self.wins,
            "losses": self.losses,
            "catches": self.catches,
            "overruns": self.overruns,
            "estimates": dict(self.estimates),
            "stderr": dict(self.stderr),
            "seed": self.seed,
        }


def _stderr(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


def _report(trials, wins, losses, catches, overruns, seed) -> SimReport:
    est = {
        "win": wins / trials,
        "loss": losses / trials,
        "catch": catches / trials,
    }
    err = {k: _stderr(p, trials) for k, p in est.items()}
    return SimReport(trials, wins, losses, catches, overruns, est, err, seed)


def _run_blocks(fn, trials: int, workers: int):
    spans = [(lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK)]
    if workers <= 1 or len(spans) == 1:
        parts = [fn(lo, hi) for lo, hi in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda span: fn(*span), spans))
    return [sum(col) for col in zip(*parts)]


def simulate_tree(tree: GameTree, model: CheatModel, strategy: Strategy,
                  trials: int, seed: int, workers: int = 1) -> SimReport:
    """Play the tree game `trials` times; a catch ends the trial."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    # per node, in the annotation's postorder: draw thresholds (0 on leaves)
    ann = annotate(tree)
    thr_up, thr_dn = [0.0] * len(ann.path), [0.0] * len(ann.path)
    for i, (at, u) in enumerate(zip(ann.path, ann.up)):
        if u >= 0:
            if at not in strategy:
                raise ValueError(f"strategy is missing node '{at}'")
            t = cheat_model.triple(model, strategy[at])
            thr_up[i], thr_dn[i] = t.p0, t.p0 + t.p1
    a_up = np.asarray(thr_up)
    a_dn = np.asarray(thr_dn)
    a_upix = np.asarray(ann.up, dtype=np.int32)
    a_dnix = np.asarray(ann.down, dtype=np.int32)
    a_leaf = a_upix < 0
    a_win = np.asarray(ann.p_w) == 1.0  # read on leaves only
    root = len(ann.path) - 1

    def block(lo: int, hi: int):
        m = hi - lo
        streams = rng.np_stream_seeds(seed, lo, hi)
        cur = np.full(m, root, dtype=np.int32)
        caught = np.zeros(m, dtype=bool)
        act = np.nonzero(~a_leaf[cur])[0]
        k = 0
        while act.size:
            u = rng.np_draw_double(streams[act], k)
            node = cur[act]
            go_up = u < a_up[node]
            move = go_up | (u < a_dn[node])
            stepped = act[move]
            cur[stepped] = np.where(go_up[move], a_upix[node[move]],
                                    a_dnix[node[move]])
            caught[act[~move]] = True
            act = stepped[~a_leaf[cur[stepped]]]
            k += 1
        n_catch = int(caught.sum())
        n_win = int((~caught & a_win[cur]).sum())
        return (n_win, m - n_win - n_catch, n_catch, 0)

    wins, losses, catches, overruns = _run_blocks(block, trials, workers)
    return _report(trials, wins, losses, catches, overruns, seed)


def simulate_walk(game: WalkGame, policy: WalkPolicy, trials: int, seed: int,
                  step_cap: int | None = None, workers: int = 1) -> SimReport:
    """Run the walk game; catches switch the trial to a fair coin."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = game.n
    if step_cap is None:
        step_cap = 64 * n * n
    if step_cap < 4 * n * n:
        raise ValueError(f"step_cap must be >= 4*N^2 = {4 * n * n}, got {step_cap}")
    t = cheat_model.triple(game.model, check_policy(game, policy))

    # per-site thresholds indexed by z + n; boundary rows are never consulted
    thr_up = np.pad(t.p0, 1)
    thr_dn = np.pad(t.p0 + t.p1, 1)

    def block(lo: int, hi: int):
        m = hi - lo
        streams = rng.np_stream_seeds(seed, lo, hi)
        z = np.zeros(m, dtype=np.int32)
        caught = np.zeros(m, dtype=bool)
        win = np.zeros(m, dtype=bool)
        act = np.arange(m)
        for k in range(step_cap):
            if not act.size:
                break
            u = rng.np_draw_double(streams[act], k)
            zi = z[act] + n
            fair = caught[act]
            go_up = u < np.where(fair, 0.5, thr_up[zi])
            go_dn = ~go_up & (u < np.where(fair, 1.0, thr_dn[zi]))
            z[act] += go_up.astype(np.int32) - go_dn.astype(np.int32)
            caught[act[~go_up & ~go_dn]] = True
            znew = z[act]
            win[act[znew == n]] = True
            act = act[(znew != n) & (znew != -n)]
        over = int(act.size)
        if act.size:
            # settle overruns by the honest payoff at the current site
            u = rng.np_draw_double(streams[act], step_cap)
            win[act[u < (n + z[act]) / (2.0 * n)]] = True
        n_win = int(win.sum())
        return (n_win, m - n_win, int(caught.sum()), over)

    wins, losses, catches, overruns = _run_blocks(block, trials, workers)
    return _report(trials, wins, losses, catches, overruns, seed)
