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
counted as overruns and settled by draw step_cap against the honest value
(N+z)/(2N), so every trial contributes to exactly one count.

Both games share one phase-1 loop.  A game is a set of per-node tables:
composer.strategy_table's rows for a tree (one per distinct subtree
under the strategy: the DAG for a per-row strategy, and for a per-node
one a row per distinct eps and child rows, so copies that differ split),
sites -N..N as nodes 0..2N for a walk, plus one sink node for caught
trials.  The loop draws a step-major
block of up to 64 steps for every uncaught trial in one call, row j
holding draw k + j of each, and about 2**14 draws in all, so a block of
more trials than that is one step deep.  It advances the trials row by
row with a few table lookups: stop nodes and the sink loop on themselves,
so a trial that ends inside a block steps in place, and its draws past
that point are made but never read.  The live set is compacted once per
block, and a trial caught by draw k - 1 leaves with its node and its next
draw index k, both read off the block's rows of nodes.
A caught tree trial is counted as a catch and ends there.  Phase 2, the
fair phase, takes every walk trial that phase 1 leaves unfinished at its
next draw k, with step_cap - k steps left: a caught trial at its k, one
uncaught at the cap at k = step_cap, and, when every site's thresholds
are exactly fair (0.5, 1.0) as under the honest policy, every trial at
k = 0, as no trial can be caught and phase 1 is skipped.  It settles all
of them, playing the fair coin many steps per pass.
A pass is laid out step-major, as a (width x walks) block whose row j
holds draw j of every walk in the batch: each walk's stream is skipped to
its next draw, so row j adds the same offset (j + 1) * GOLDEN to every
seed, and those offsets are computed once per process, on first use, and
kept read-only.  The block is
finalized in place in one buffer plus one scratch buffer, and without
splitmix64's last xorshift: a fair step only asks whether the output is
below 2**63 (the double below 1/2, HALF_U64), and z ^ (z >> 31)
leaves bit 63 as it was.  Each draw's verdict, 1 for up, goes into a
zeroed uint16 buffer, one lane per walk and the walks padded to a multiple
of four, and one cumsum down the rows of its uint64 view counts every
walk's ups, four walks to a word: no count passes 2**15, so no carry
crosses a lane, whatever the byte order.  Three word-wide passes turn an
up-count U after j + 1 steps into the displacement d = 2U - (j + 1) in
int16, and a walk from site z is absorbed at its first row where
d = N - z or d = -N - z, searched only in the columns whose max or min
reaches one of them.  A pass is at most 2**15 - 1 steps wide, which keeps
d in int16.  A walk keeps its displacement from the row of its last step
before step_cap on, and a walk that reaches the cap, including one with
no step left, is settled there by draw step_cap.  Each trial still reads
output k of its own stream at step k, with the same fair-step verdict,
and the draws a walk makes after its absorption or past the cap are never
read, so every count is the one a one-draw-per-pass loop over all trials
would give.

A tree game takes its strategy as a list of eps, one per DAG row of
annotate (leading_order's form) or one per node in its postorder (the
form composer.strategy_from_paths reads a path-keyed one into), and
reads it through composer.strategy_table, which checks each distinct
eps once, taking -0.0 as 0.0, and makes one cheat_model.columns call
over them.
A trial at a row draws against the row's thresholds, which are those of
every node the row stands for, and a trial's draws depend only on the
thresholds of the rows it visits, so the table plays every trial as the
tree's nodes would: the leading-order best-of-15 strategy at eps_tot 0.2
is 66 eps, one per row, and runs on those 66 rows, not 25,739 nodes,
with only 26 distinct eps.  Timings before and after are in the README's
Monte Carlo section.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import cheat_model, rng
from .cheat_model import CheatModel
from .composer import Strategy, strategy_table
from .game_tree import GameTree, annotate
from .splitmix import HALF_U64, check_seed
from .walk import WalkGame, WalkPolicy, check_policy

_BLOCK = 1 << 16  # trials per vectorized block; fixed so layout never varies
_FAIR_DRAWS = 1 << 15  # draws per fair-coin pass: its temporaries stay near 1 MiB
# steps per fair-coin pass at most: an up-count of at most width steps fits
# a uint16 lane with no carry out of it, and a displacement fits int16
_FAIR_WIDTH = (1 << 15) - 1
_TOP_BITS = np.uint64(0x8000_8000_8000_8000)  # bit 15 of each uint16 lane
_LANE_ONES = np.uint64(0x0001_0001_0001_0001)  # 1 in each uint16 lane
_PHASE1_DRAWS = 1 << 14  # draws per phase-1 block, or one step of every trial
_PHASE1_STEPS = 64  # steps per phase-1 block at most: ended trials draw on


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


# The one rule for an estimate's agreement with its exact value: a count
# agrees with p when divergence(count, trials, p) <= DIVERGENCE_LIMIT.
# 8 = 4**2/2: near normal, trials*D is about z**2/2, so this is a 4-sigma
# check (at 20,000 trials and p = 1/2 the cut falls at |z| = 3.99).  By the
# Chernoff bound (Hoeffding, JASA 1963), each tail of trials*D >= t has
# probability at most e**-t, so a comparison with the true p fails by
# chance with probability at most 2e**-8 = 6.7e-4, for every trials and p.
DIVERGENCE_LIMIT = 8.0


def divergence(count: int, trials: int, p: float) -> float:
    """trials * D(count/trials || p), with D(q||p) = q ln(q/p) +
    (1-q) ln((1-q)/(1-p)) and 0 ln 0 = 0: inf when an outcome of exact
    probability 0 or 1 is contradicted, -trials * ln(1-p) for a count of 0.
    """
    stat = 0.0
    for k, mean in ((count, trials * p), (trials - count, trials * (1.0 - p))):
        if k:
            stat += k * math.log(k / mean) if mean > 0.0 else math.inf
    return stat


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


def _check_count(name: str, value, lo: int, floor: str = "") -> None:
    # an int, not a bool (an int subclass) or a float, as for the seed and N
    if type(value) is bool or not isinstance(value, int) or value < lo:
        raise ValueError(f"{name} must be an int >= {floor}{lo}, got {value!r}")


def _check_run(trials: int, seed: int, workers: int) -> None:
    check_seed(seed)
    _check_count("trials", trials, 1)
    _check_count("workers", workers, 1)


def _run_blocks(fn, trials: int, workers: int):
    spans = [(lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK)]
    if workers == 1 or len(spans) == 1:
        parts = [fn(lo, hi) for lo, hi in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda span: fn(*span), spans))
    return [sum(col) for col in zip(*parts)]


def _graph(p0, p1, up: np.ndarray, down, win: np.ndarray):
    """Phase 1's tables, three slots per node.

    Nodes with up < 0 stop a trial, and the ones of those marked in `win`
    win.  One sink node, last, holds the caught trials.  A trial at node i
    is at slot 3i: thr[3i] and thr[3i + 1] are the node's thresholds p0 and
    p0 + p1, child[3i + c] is the slot it moves to on outcome c (0 caught,
    1 down, 2 up), and end[3i] is 0 live, 1 ended, 2 won or 3 caught.  Stop
    nodes and the sink move to themselves on every outcome, so a trial that
    has ended steps in place through the rest of its block.
    """
    sink = up.size
    stop = np.append(up < 0, True)
    thr = np.zeros((sink + 1, 3))
    thr[:-1, 0] = p0
    thr[:-1, 1] = p1
    thr[:, 1] += thr[:, 0]
    child = np.empty((sink + 1, 3), dtype=np.intp)
    child[:, 0] = sink
    child[:-1, 1] = down
    child[:-1, 2] = up
    child[stop] = np.flatnonzero(stop)[:, None]
    child *= 3
    end = np.zeros((sink + 1, 3), dtype=np.int8)
    end[:, 0] = stop
    end[:-1, 0] += stop[:-1] & win
    end[sink, 0] = 3
    return thr.ravel(), child.ravel(), end.ravel()


def _phase1(graph, streams, start: int, cap: int):
    """Step trials from node `start` until each stops, is caught or has made
    `cap` draws.

    `graph` is _graph's tables.  Returns the wins, the (streams, nodes) live
    at the cap, and a (k, streams, nodes) for each block that caught
    trials, k holding each one's next draw index: a trial caught by draw
    k - 1 at a node has k there.
    """
    thr, child, end = graph
    thr_dn = thr[1:]  # thr_dn[3i] is node i's p0 + p1
    sink = end.size - 3  # the sink's slot
    at = np.full(streams.size, 3 * start, dtype=np.intp)
    wins, caught, k = 0, [], 0
    while at.size and k < cap:
        m = at.size
        width = min(cap - k, _PHASE1_STEPS, max(1, _PHASE1_DRAWS // m))
        # step-major: row j holds draw k + j of every trial
        u = rng.np_draw_double(streams, np.arange(k, k + width)[:, None])
        path = np.empty((width, m), dtype=np.intp)
        first = at
        for j in range(width):
            # outcome 0 caught, 1 down, 2 up: thr <= thr_dn, so up moves
            c = np.less(u[j], thr[at]).view(np.uint8)
            c += np.less(u[j], thr_dn[at]).view(np.uint8)
            # every index is in range; mode "raise" would buffer `out`
            at = np.take(child, at + c, out=path[j], mode="clip")
        e = end[at]
        wins += int(np.count_nonzero(e == 2))
        out = np.flatnonzero(e == 3)
        if out.size:
            # a caught trial is at the sink from the row after its catch
            rows = path[:, out]
            j = np.count_nonzero(rows != sink, axis=0)
            before = np.where(j > 0, rows[j - 1, np.arange(out.size)], first[out])
            caught.append((k + j + 1, streams[out], before // 3))
        live = np.flatnonzero(e == 0)
        streams, at = streams[live], at[live]
        k += width
    return wins, (streams, at // 3), caught


def _displacements(x: np.ndarray) -> np.ndarray:
    """Fair-coin walks' displacements from a step-major block of draws.

    x[j, i] is draw j of walk i from rng.np_draw_top, an up step when below
    HALF_U64, and x has at most _FAIR_WIDTH rows.  Returns d, int16 of x's
    shape, with d[j, i] the displacement of walk i after its first j + 1
    steps: the cumsum of its +-1 steps.
    """
    width, m = x.shape
    # one uint16 lane per walk, four to a uint64 word, the padding lanes
    # zero: a cumsum of the words counts each walk's ups, and no count
    # passes 2**15, so no carry leaves its lane, whatever the byte order
    lanes = np.zeros((width, -(-m // 4) * 4), dtype=np.uint16)
    np.less(x, HALF_U64, out=lanes[:, :m], casting="unsafe")
    words = lanes.view(np.uint64)
    np.cumsum(words, axis=0, out=words)
    # up-count U after j + 1 steps to displacement 2U - (j + 1): the lane
    # holds 2U + 2**15 - (j + 1), in [1, 2**16), so no borrow leaves it
    # either, and flipping its top bit makes it that value in int16
    words <<= np.uint64(1)
    bias = np.arange(_FAIR_WIDTH, _FAIR_WIDTH - width, -1, dtype=np.uint64)
    bias *= _LANE_ONES
    words += bias[:, None]
    words ^= _TOP_BITS
    return lanes.view(np.int16)[:, :m]


def _tree_graph(tree: GameTree, model: CheatModel, strategy: Strategy):
    # per row of strategy_table, the root last: draw thresholds (0 on
    # leaves); the annotation and its views are dropped on return, before
    # any trial is played, and its columns stay with the tree
    p_w, up, down, p0, p1, _ = strategy_table(annotate(tree), model, strategy)
    size = len(up)
    return _graph(p0, p1, np.fromiter(up, np.intp, size), down,
                  np.fromiter(p_w, float, size) == 1.0)


def simulate_tree(tree: GameTree, model: CheatModel, strategy: Strategy,
                  trials: int, seed: int, workers: int = 1) -> SimReport:
    """Play the tree game `trials` times; a catch ends the trial."""
    _check_run(trials, seed, workers)
    graph = _tree_graph(tree, model, strategy)
    nodes = graph[0].size // 3 - 1  # the root is last, before the sink

    def block(lo: int, hi: int):
        # no trial makes as many draws as the table has rows: a trial meets
        # a different row at each draw
        streams = rng.np_stream_seeds(seed, lo, hi)
        wins, _, caught = _phase1(graph, streams, nodes - 1, nodes)
        catches = sum(s.size for _, s, _ in caught)
        return (wins, hi - lo - wins - catches, catches, 0)

    wins, losses, catches, overruns = _run_blocks(block, trials, workers)
    return _report(trials, wins, losses, catches, overruns, seed)


@functools.lru_cache(maxsize=1)
def _fair_offsets() -> np.ndarray:
    """rng.np_draw_offsets over a fair pass's widest block, read-only: the
    same in every call, so made once, on first use."""
    offsets = rng.np_draw_offsets(_FAIR_WIDTH)
    offsets.flags.writeable = False
    return offsets


def simulate_walk(game: WalkGame, policy: WalkPolicy, trials: int, seed: int,
                  step_cap: int | None = None, workers: int = 1) -> SimReport:
    """Run the walk game; catches switch the trial to a fair coin."""
    _check_run(trials, seed, workers)
    n = game.n
    if step_cap is None:
        step_cap = 64 * n * n
    _check_count("step_cap", step_cap, 4 * n * n, "4*N^2 = ")
    p0, p1, _ = cheat_model.columns(game.model, check_policy(game, policy))
    p0, p1 = np.array(p0), np.array(p1)

    # node i is site i - n; the boundary nodes stop the walk
    node = np.arange(2 * n + 1)
    up = node + 1
    up[[0, -1]] = -1
    graph = _graph(np.pad(p0, 1), np.pad(p1, 1), up, node - 1, node == 2 * n)
    # fair thresholds at every site (the honest policy) can never catch, so
    # every trial is a fair-coin walk from its first draw
    all_fair = bool(np.all(p0 == 0.5) and np.all(p0 + p1 == 1.0))
    # no walk gets near 2**62 steps; the bound keeps step counts in int64
    cap = min(step_cap, 1 << 62)
    rows = max(1, _FAIR_DRAWS // n)  # fair walks per pass

    # draw j of a pass adds offsets[j] to each walk's skipped stream seed
    offsets = _fair_offsets()

    def fair(streams, z, left):
        # Fair-coin walks from sites z whose next draw is output 0 of their
        # stream, with `left` steps before the cap.  A batch of at most
        # `rows` walks advances `width` steps per pass, and walks that end
        # make room for queued ones, so a pass holds about _FAIR_DRAWS draws.
        queue, queued = (streams, z, left), 0
        batch = tuple(col[:0] for col in queue)
        wins = over = 0
        # width * m <= _FAIR_DRAWS in every pass
        out = np.empty(_FAIR_DRAWS, dtype=np.uint64)
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
            width = min(max(n, _FAIR_DRAWS // m), _FAIR_WIDTH)
            # step-major: row j holds draw j of every walk in the batch, and
            # a step is up when the draw's top bit is clear
            size = width * m
            x = rng.np_draw_top(s, offsets[:width], out[:size].reshape(width, m),
                                scratch[:size].reshape(width, m))
            d = _displacements(x)
            capped = left <= width
            if capped.any():
                # a walk stays where its last allowed step took it, at 0
                # when it has no step left
                k = np.clip(left, 1, width) - 1
                stop = np.where(left > 0, d[k, np.arange(m)], 0)
                np.copyto(d, stop, where=np.arange(width)[:, None] >= left)
            # a walk from z ends at +-N where d = N - z or d = -N - z, and
            # only a walk whose d reaches one has a first hit to find
            top, bottom = n - z, -n - z
            hit = np.flatnonzero((d.max(axis=0) >= top) | (d.min(axis=0) <= bottom))
            ends = d[:, hit]
            # int16 bounds: a clipped bottom is below any d, and a clipped
            # top is reached only by a walk of all ups, which reaches no
            # bottom and so is a hit only when its top is not clipped
            top = np.minimum(top[hit], _FAIR_WIDTH).astype(np.int16)
            bottom = np.maximum(bottom[hit], -_FAIR_WIDTH - 1).astype(np.int16)
            at = ((ends == top) | (ends == bottom)).argmax(axis=0), np.arange(hit.size)
            wins += int(np.count_nonzero(ends[at] > 0))
            capped[hit] = False
            last = z + d[-1]
            if capped.any():
                # overruns: the draw at the cap against the honest payoff
                # (N+z)/(2N) at the walk's last site z
                u = rng.np_draw_double(s[capped], left[capped])
                wins += int(np.count_nonzero(u < (n + last[capped]) / (2.0 * n)))
                over += int(np.count_nonzero(capped))
            live = ~capped
            live[hit] = False
            batch = (rng.np_skip(s[live], width), last[live], left[live] - width)

    def block(lo: int, hi: int):
        m = hi - lo
        streams = rng.np_stream_seeds(seed, lo, hi)
        if all_fair:
            wins, catches = 0, 0
            walks = [(np.zeros(m, dtype=np.intp), streams, np.full(m, n))]
        else:
            wins, (s, at), walks = _phase1(graph, streams, n, cap)
            catches = sum(w[1].size for w in walks)
            # a trial uncaught at the cap has no step left: `fair` settles it
            walks.append((np.full(s.size, cap), s, at))
        # every unfinished trial goes on to `fair` at its next draw k, with
        # its stream skipped to k, its site as int32 (the type `fair` keeps
        # sites in) and cap - k steps left
        k, s, at = (np.concatenate(col) for col in zip(*walks))
        w, over = fair(rng.np_skip(s, k), (at - n).astype(np.int32), cap - k)
        return (wins + w, m - wins - w, catches, over)

    wins, losses, catches, overruns = _run_blocks(block, trials, workers)
    return _report(trials, wins, losses, catches, overruns, seed)
