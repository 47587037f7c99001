"""Monte Carlo cross-checks for tree games and walk games.

Trial i draws from its own splitmix64 stream seeded with mix(seed, i) (see
splitmix), and its k-th draw is output k of that stream, so results are a
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

Both games share one phase-1 loop.  A game is a set of per-node arrays:
the annotation's postorder for a tree, sites -N..N as nodes 0..2N for a
walk.  The loop steps the uncaught trials, one draw per trial per pass,
over compacted arrays that shrink as trials stop or are caught, and a
trial caught by draw k - 1 leaves with its node and its next draw index k.
A caught tree trial is counted as a catch and ends there.  A caught walk
trial goes on to phase 2, which plays the fair coin many steps per pass.
A pass is laid out step-major, as a (width x walks) block whose row j
holds draw j of every walk in the batch: each walk's stream is skipped to
its next draw, so row j adds the same offset (j + 1) * GOLDEN to every
seed, and those offsets are computed once per call.  The block is
finalized in place in one buffer plus one scratch buffer, and without
splitmix64's last xorshift: a fair step only asks whether the output is
below 2**63 (the double below 1/2, HALF_U64), and z ^ (z >> 31)
leaves bit 63 as it was.  The rows become +-1 steps, a cumsum down the
rows turns them into paths, and a walk's absorption is the first row where
|z| = N, searched only in the columns whose running max reaches N or whose
running min reaches -N.  Rows at or past step_cap are zeroed, and a walk
that reaches the cap, including one caught by the last allowed draw, is
settled by draw step_cap.  When every site's thresholds are exactly fair
(0.5, 1.0), as under the honest policy, no trial can be caught and all of
them start in phase 2 at draw 0.  Each trial still reads output k of its
own stream at step k, with the same fair-step verdict, and the draws a
path makes after its absorption or past the cap are never read, so every
count is the one a one-draw-per-pass loop over all trials would give.

A tree game reads its strategy through composer.strategy_triples, which
makes one scalar cheat_model.triple call per distinct eps (with -0.0 kept
apart from 0.0): the leading-order best-of-15 strategy at eps_tot 0.2 has
12,869 internal nodes but only 26 distinct values.  Timings before and
after are in the README's Monte Carlo section.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import cheat_model, rng
from .cheat_model import CheatModel
from .composer import Strategy, strategy_triples
from .game_tree import GameTree, annotate
from .splitmix import HALF_U64
from .walk import WalkGame, WalkPolicy, check_policy

_BLOCK = 1 << 16  # trials per vectorized block; fixed so layout never varies
_FAIR_DRAWS = 1 << 15  # draws per fair-coin pass: its temporaries stay near 1 MiB


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
        return asdict(self)


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


def _check_run(trials: int, workers: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _run_blocks(fn, trials: int, workers: int):
    spans = [(lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK)]
    if workers == 1 or len(spans) == 1:
        parts = [fn(lo, hi) for lo, hi in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda span: fn(*span), spans))
    return [sum(col) for col in zip(*parts)]


def _phase1(graph, streams, start: int, cap: int):
    """Step trials from node `start` until each stops, is caught or has made
    `cap` draws.

    `graph` holds per-node arrays (thr_up, thr_dn, up, down, stop, win): the
    draw thresholds, the children, the nodes that end a trial and the ones
    of those that win.  Returns the wins, the (streams, nodes) live at the
    cap, and a (k, streams, nodes) for each draw k - 1 that caught trials.
    """
    thr_up, thr_dn, up, down, stop, win = graph
    child = np.stack((down, up), axis=1).ravel()  # node i's at 2i + went up
    end = stop.astype(np.int8) + win  # 0 live, 1 stops, 2 stops and wins
    node = np.full(streams.size, start, dtype=np.int32)
    wins, caught, k, move = 0, [], 0, True
    while True:
        # a trial caught by the last draw has move False and leaves here
        e = np.take(end, node)
        wins += int(np.count_nonzero((e == 2) & move))
        live = (e == 0) & move
        streams, node = streams[live], node[live]
        if not streams.size or k == cap:
            return wins, (streams, node), caught
        u = rng.np_draw_double(streams, k)
        k += 1
        go_up = u < np.take(thr_up, node)
        move = go_up | (u < np.take(thr_dn, node))
        if not move.all():
            caught.append((k, streams[~move], node[~move]))
        node = np.take(child, 2 * node + go_up)


def simulate_tree(tree: GameTree, model: CheatModel, strategy: Strategy,
                  trials: int, seed: int, workers: int = 1) -> SimReport:
    """Play the tree game `trials` times; a catch ends the trial."""
    _check_run(trials, workers)

    # per node, in the annotation's postorder: draw thresholds (0 on leaves)
    ann = annotate(tree)
    p0, p1, _ = strategy_triples(ann, model, strategy)
    thr_up = np.array(p0)
    thr_dn = thr_up + p1
    up = np.asarray(ann.up, dtype=np.int32)
    stop = up < 0
    graph = (thr_up, thr_dn, up, np.asarray(ann.down, dtype=np.int32), stop,
             stop & (np.asarray(ann.p_w) == 1.0))

    def block(lo: int, hi: int):
        # no trial makes as many draws as the tree has nodes
        streams = rng.np_stream_seeds(seed, lo, hi)
        wins, _, caught = _phase1(graph, streams, len(p0) - 1, len(p0))
        catches = sum(s.size for _, s, _ in caught)
        return (wins, hi - lo - wins - catches, catches, 0)

    wins, losses, catches, overruns = _run_blocks(block, trials, workers)
    return _report(trials, wins, losses, catches, overruns, seed)


def simulate_walk(game: WalkGame, policy: WalkPolicy, trials: int, seed: int,
                  step_cap: int | None = None, workers: int = 1) -> SimReport:
    """Run the walk game; catches switch the trial to a fair coin."""
    _check_run(trials, workers)
    n = game.n
    if step_cap is None:
        step_cap = 64 * n * n
    if step_cap < 4 * n * n:
        raise ValueError(f"step_cap must be >= 4*N^2 = {4 * n * n}, got {step_cap}")
    t = cheat_model.triple(game.model, check_policy(game, policy))
    p0, p1 = np.array(t.p0), np.array(t.p1)

    # node i is site i - n; boundary rows are stop nodes and never stepped
    node = np.arange(2 * n + 1, dtype=np.int32)
    ends = (node == 0) | (node == 2 * n)
    graph = (np.pad(p0, 1), np.pad(p0 + p1, 1), node + 1, node - 1, ends,
             node == 2 * n)
    # fair thresholds at every site (the honest policy) can never catch, so
    # every trial is a fair-coin walk from its first draw
    all_fair = bool(np.all(p0 == 0.5) and np.all(p0 + p1 == 1.0))
    # no walk gets near 2**62 steps; the bound keeps step counts in int64
    cap = min(step_cap, 1 << 62)
    rows = max(1, _FAIR_DRAWS // n)  # fair walks per pass

    def settle(streams, z, k) -> int:
        # overruns: draw k of each stream against the honest payoff at z
        if not streams.size:
            return 0
        u = rng.np_draw_double(streams, k)
        return int(np.count_nonzero(u < (n + z) / (2.0 * n)))

    # draw j of a pass adds offsets[j] to each walk's skipped stream seed;
    # no pass is wider than max(n, _FAIR_DRAWS) steps
    offsets = rng.np_draw_offsets(max(n, _FAIR_DRAWS))

    def fair(streams, z, left):
        # Fair-coin walks from sites z whose next draw is output 0 of their
        # stream, with `left` steps before the cap.  A batch of at most
        # `rows` walks advances `width` steps per pass, and walks that end
        # make room for queued ones, so a pass holds about _FAIR_DRAWS draws.
        queue, queued = (streams, z, left), 0
        batch = tuple(col[:0] for col in queue)
        wins = over = 0
        # width * m <= max(n, _FAIR_DRAWS) in every pass
        out = np.empty(offsets.size, dtype=np.uint64)
        scratch = np.empty_like(out)
        while True:
            room = rows - batch[0].size
            if room > 0 and queued < streams.size:
                batch = tuple(np.concatenate((b, col[queued:queued + room]))
                              for b, col in zip(batch, queue))
                queued += room
            s, z, left = batch
            m = s.size
            if not m:
                return wins, over
            width = max(n, _FAIR_DRAWS // m)
            # step-major: row j holds draw j of every walk in the batch, and
            # a step is up when the draw's top bit is clear
            size = width * m
            x = rng.np_draw_top(s, offsets[:width], out[:size].reshape(width, m),
                                scratch[:size].reshape(width, m))
            steps = (x < HALF_U64).view(np.int8)
            steps *= np.int8(2)
            steps -= np.int8(1)
            capped = left <= width
            if capped.any():
                steps[np.arange(width)[:, None] >= left] = 0
            path = np.cumsum(steps, axis=0, dtype=np.int32)
            path += z
            # only a walk whose path reaches +-N has a first hit to find
            hit = np.flatnonzero((path.max(axis=0) >= n) | (path.min(axis=0) <= -n))
            ends = path[:, hit]
            at = (np.abs(ends) == n).argmax(axis=0), np.arange(hit.size)
            wins += int(np.count_nonzero(ends[at] > 0))
            capped[hit] = False
            over += int(np.count_nonzero(capped))
            last = path[-1]
            wins += settle(s[capped], last[capped], left[capped])
            live = ~capped
            live[hit] = False
            batch = (rng.np_skip(s[live], width), last[live], left[live] - width)

    def block(lo: int, hi: int):
        m = hi - lo
        streams = rng.np_stream_seeds(seed, lo, hi)
        if all_fair:
            wins = over = catches = 0
            walks = [(streams, np.zeros(m, dtype=np.int32), np.full(m, cap))]
        else:
            # a trial caught by draw k - 1 goes on to `fair` with its stream
            # skipped to draw k, its site and the steps left before the cap
            wins, (s, at), caught = _phase1(graph, streams, n, cap)
            wins += settle(s, at - n, cap)
            over = s.size
            walks = [(rng.np_skip(s, k), at - n, np.full(s.size, cap - k))
                     for k, s, at in caught]
            catches = sum(w[0].size for w in walks)
        if walks:
            w, o = fair(*(np.concatenate(col) for col in zip(*walks)))
            wins += w
            over += o
        return (wins, m - wins, catches, over)

    wins, losses, catches, overruns = _run_blocks(block, trials, workers)
    return _report(trials, wins, losses, catches, overruns, seed)
