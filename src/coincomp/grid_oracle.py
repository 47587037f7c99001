"""Grid-search oracle behind composer.brute_force_min_pc.

An exhaustive search of the per-node grid {-1/2, ..., 1/2} in steps of
grid_step, done as an exact dynamic program over per-subtree Pareto
frontiers of (win, catch) probability: the same minimum as a literal
product loop, in feasible time.  It is the independent check on composer's
closed form, so it reads only the annotated tree and never calls composer.
It reads the annotation's columns, not its path column, and returns the
strategy it found in the library's per-node form, in which copies of a
subtree may differ: a list of eps in the annotation's postorder, 0.0 at
the leaves.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import cheat_model
from .cheat_model import CheatModel
from .game_tree import TreeAnnotation

# ---------------------------------------------------------------------------
# The strategy space is the full grid product over internal nodes.  Instead
# of looping over it (1001**5 points for five nodes at step 1e-3), each
# subtree keeps the Pareto frontier of achievable (win, catch) pairs: a
# dropped pair is dominated by a kept one (win >= it, catch <= it), and both
# coordinates are monotone under composition with the parent flip, so the
# dropped pair can never beat the kept one downstream.  Per-strategy
# arithmetic is ordered exactly as in composer.exact_outcome's pass, which
# keeps this search bit-identical to the literal enumeration, including
# which grid points count as feasible.
#
# A child behind a branch of probability zero cannot change the outcome, so
# it enters the one combination expression as a one-entry frontier
# (w = 0, c = 0, index -1): p * 0.0 adds exactly +0.0, as it does in
# composer.exact_outcome for any child value, and index -1 tells the
# reconstruction to play that subtree honestly.
#
# A node below the root is combined in array passes.  The grid points fall
# into a few runs in which both children enter the same way (all of them
# but +-1/2, as a rule), and each candidate is p1*dw[j] + p0*uw[i] and
# p1*dc[j] + (pc + p0*uc[i]) at one (grid point, down entry j, up entry i),
# broadcast by _block.  The grid's triples come from one list call to
# cheat_model.triple, whose entries are the scalar triples bit for bit, and
# feed these arrays, so every candidate is the same float as in a loop over
# grid points.  _grid builds the grid and these arrays once per (model,
# grid_step) and keeps them read-only, so that repeated calls share them.
#
# Before the one _prune, a prefilter drops every candidate strictly
# dominated by the frontier of a sample of grid points: w' > w and c' <= c,
# or w' == w and c' < c.  That is exact.
# _prune orders pairs by w descending, then c ascending, then generation,
# and keeps a pair only if its c is below every c before it.  A strictly
# dominated pair comes after its dominator with a c no lower, so _prune
# never keeps it; and the dominator, itself a candidate that no frontier
# pair strictly dominates, survives, so every running minimum after the
# dropped pair is unchanged.  The survivors, put back in generation order
# (eps, then down, then up), give the same frontier, ties and indices
# included.
#
# The sample frontier is built coarse to fine.  First comes the frontier of
# every (_SAMPLE_STRIDE**2)-th grid point of each run; then every
# _SAMPLE_STRIDE-th grid point's candidates, run by run, go through the
# same mask against it before their _pareto.  Any set of achievable
# candidates makes an exact prefilter, so the coarse step changes only the
# work: on the 11 5-flip oracle calls of the tree-oracle benchmark (seed 1),
# with no bound (below), that _pareto gets 141,483 candidates instead of
# 613,932, and at best-of-3's two large nodes the traced peak of _combine
# falls from 2.16 and 2.69 MiB to 1.38 and 1.95 MiB (0.39 and 0.37 MiB
# under their caps).
#
# Most candidates are dropped without being built.  Each run's (grid point,
# down entry, up entry) block is cut into tiles of up to _TILE entries on
# each entry axis (min(len, _TILE), so a one-entry side gives 1-wide tiles).
# Within one grid point both children's frontiers strictly ascend in w and
# in c, p0 and p1 are >= 0, and rounding is monotone, so both coordinates of
# a candidate are nondecreasing in i and in j: a tile's least c is at its
# first corner and its largest w at its last corner, both evaluated by
# _block.  With k the first frontier pair whose w reaches that largest w,
# fc[k] < least c means pair k strictly dominates every candidate of the
# tile (w' >= w, c' < c), so the mask would drop them all and the tile is
# skipped.  The frontier ends in a virtual pair (inf, the least double
# above the node's catch cap, below), which skips only tiles that lie above
# the cap, and none with no cap.  Only the live tiles are built, in groups
# of about _CHUNK candidates, and go through the mask; at grid 1e-3 a large
# node with no cap builds 7-13% of its grid combinations.
#
# The root is never materialized.  At each grid point every candidate is
# (pc + p0*uc[i]) + p1*dc[j]; both frontiers ascend in c, p0 and p1 are
# >= 0 and rounding is monotone, so lb = (pc + p0*uc[0]) + p1*dc[0] is at
# most every one of them.  The grid points are searched in ascending lb,
# and the search stops at the first lb above the best catch found: no later
# grid point can reach or tie it.  Ties go to the smallest grid index, then
# to the first up entry, as in a search in grid order.
#
# Only a slice [i_lo, i_hi) of the up frontier is searched at a grid point,
# by the same monotonicity: up entries before i_lo miss the target even
# with the last down entry (one _first_feasible call finds i_lo at every
# grid point, with up and down swapped, which is exact since a + b == b + a
# in floating point), and from i_hi on they cost more than the best catch
# so far even with the first down entry.  An entry that ties the best stays
# in the slice, for the tie rule.  The grid points are taken in blocks of
# 1, 2, 4, ... up to _ROOT_BLOCK, each block's slices end to end, with one
# _first_feasible call per block for each entry's first feasible down entry
# and one minimum over the block.  A block searches past the first lb above
# the best only up to its own end, at grid points whose slices are then
# empty or dearer.  On the 11 oracle calls above, with no bound, the root
# searches 349,626 up entries at 837 grid points, where a search of each visited grid
# point's whole up frontier (3,304-5,403 entries) took 2,772,521 at 761.
#
# Catch caps.  Most of an uncapped frontier costs more than any optimal
# root strategy can pay there, so the search bounds the optimum first and
# then builds each node only as far as its parent can use it.
#
# The bound.  Before any frontier is built, _max_win runs a one-pass DP:
# per node, the largest p1*W_dn + p0*W_up over the grid, with W a child's
# largest win (a leaf's P_W) and the first grid point of that value picked.
# A candidate's win is nondecreasing in each child's and rounding is
# monotone, so W is the largest win of the node's frontier, bit for bit,
# and the root's W that of any grid strategy: below the target, search
# refuses the target at once.  Otherwise _bound evaluates candidate grid
# strategies, and B is the least catch among those that reach the target:
# - the shape family: eps_t(x) is the grid point nearest t*s(x), with
#   s(x) = sign(Delta(x)) * (|Delta(x)| / max |Delta|)**(1/(b-1)), and at
#   b = 1 sign(Delta(x)) on the nodes of largest |Delta| and 0 elsewhere,
#   for t over the grid's nonnegative points, all of them at once in one
#   postorder pass over arrays indexed by t;
# - the max-win strategy, whose win is the root's W, so that B is finite
#   whenever the target is feasible.
# A candidate's (w, c) comes from the DP's own expressions,
# p1*w_dn + p0*w_up and p1*c_dn + (pc + p0*c_up), on the same triple
# arrays: it is the float that one path through the frontier DP yields.
# By induction from the leaves every node's frontier holds a pair that
# weakly dominates the candidate's pair there: the candidate of the node's
# grid point and its children's dominating pairs has a win no lower and a
# catch no higher, rounding being monotone, and the frontier keeps a pair
# that weakly dominates each candidate.  So the root search has a strategy
# of win >= the target and catch <= B, and the optimum is <= B.  Any such
# B gives the same answer (below), so the shape, which is the direction
# of the leading-order optimum (computed here from the annotation; this
# module calls nothing in composer), steers only how much work the capped
# search does.  On the benchmark's trees at eps_tot 0.05 B is the optimum
# itself, and at 0.02 it is 2.5% above it.
#
# The caps, top down (_caps).  The root's cap is B.  A child behind branch
# probabilities p (p0 for up, p1 for down) of a node with cap kappa gets
#
#     kappa' = g * max over e of max(kappa*g - pc[e], tiny) / p[e],
#
# over the node's grid points with pc[e] <= kappa and p[e] > 0 (0 if none),
# where g = 1 + 2**-40 is the relative margin and tiny = 2**-1022, the least
# normal double.  A capped _combine leaves out the grid points with
# pc > kappa, and its mask's virtual pair (inf, nextafter(kappa, inf))
# drops every candidate with c > kappa, in the sample stages as in the
# tiles.  B = inf makes every cap inf and the virtual pair (inf, inf): the
# search with no bound.
#
# Why every answer is unchanged, bit for bit (u = 2**-53):
# - Every term is >= 0 and rounding is monotone, so a candidate's catch
#   fl(fl(p1*dc) + fl(pc + fl(p0*uc))) is >= pc, and >= fl(pc + fl(p*x))
#   for the entry x of either child behind p.  A grid point with pc > kappa
#   gives only candidates above kappa.
# - A child entry x > kappa' costs more than kappa at every kept grid point
#   e.  There p*x > max(fl(kappa*g) - pc, tiny) * g*(1-u)**2 >= tiny, so
#   fl(p*x) is normal and exceeds fl(kappa*g) - pc, since g*(1-u)**4 > 1.
#   Then fl(pc + fl(p*x)) > fl(kappa*g)*(1-u) > kappa when kappa*g is
#   normal, and fl(pc + fl(p*x)) >= fl(p*x) >= tiny > kappa otherwise.  So
#   every candidate of catch <= kappa is built from child entries within
#   the children's caps.
# - A pair with c <= kappa can be strictly dominated only by a pair with
#   c' <= kappa, and _prune keeps it exactly when no pair before it in its
#   order has a catch <= c.  So the frontier's pairs with c <= kappa depend
#   only on the candidates with c <= kappa, which the capped node builds,
#   in the same generation order, but for strictly dominated ones that the
#   mask may drop as before.
# - Frontiers ascend strictly in c, so each capped frontier is a prefix of
#   the uncapped one, and, by induction from the leaves, every eps_idx,
#   up_idx and down_idx keeps its value.
# - The root search is cut at B from its first block.  Its optimum and
#   every tie have c = c* <= B, and every root candidate of catch <= B is
#   built from entries within the caps, with the same values, so the
#   search picks the same one.
#
# On the 11 oracle calls above, the nodes cover 182,594 grid combinations
# instead of 9,592,044, the mask sees 82,554 candidates instead of
# 1,643,530, the frontiers hold 10,649 entries instead of 105,347, and the
# root searches 129,630 up entries instead of 349,626.  Nodes under a cap
# also cover fewer combinations, so _MAX_COMBOS refuses fewer trees:
# Flip(Flip(pair, pair), Leaf(0)) at grid 1e-3 and eps_tot 0.05 covers
# 2,810,052 at its largest node instead of 189,036,645.
#
# On a 2-vCPU Xeon VM, pinned to one CPU, the 11 calls take 30-33 ms a pass
# against 163-170 ms with no bound (medians of 7 passes, in alternating
# rounds of fresh interpreters; one round of ten read 50 ms), and 1.9-4.1
# ms a call against 13-17 ms.  _max_win and _bound take about 0.11 ms of
# a call.
# ---------------------------------------------------------------------------

# cap on the grid combinations one node covers, whether its tiles build
# them or skip them
_MAX_COMBOS = 10_000_000
# candidates (or tile corners) materialized at once per node, the grid-point
# stride of the sample whose frontier prefilters them, and the tile edge on
# each entry axis
_CHUNK = 1 << 14
_SAMPLE_STRIDE = 16
_TILE = 16
# most root grid points searched at once, which bounds a block's arrays to
# that many up frontiers; blocks grow 1, 2, 4, ... up to it
_ROOT_BLOCK = 16


class _Frontier:
    """Nondominated (w, c) pairs of one subtree, both strictly ascending.

    eps_idx / up_idx / down_idx record, per pair, the grid choice at this
    node and the child pairs that produced it (-1 where the child entered
    as the one-entry frontier of a zero-probability branch; reconstruction
    fills honest zeros).
    """

    __slots__ = ("w", "c", "eps_idx", "up_idx", "down_idx")

    def __init__(self, w, c, eps_idx, up_idx, down_idx):
        self.w = w
        self.c = c
        self.eps_idx = eps_idx
        self.up_idx = up_idx
        self.down_idx = down_idx

    @classmethod
    def leaf(cls, p_w: float) -> "_Frontier":
        none = np.full(1, -1, dtype=np.int32)
        return cls(np.array([p_w]), np.zeros(1), none.copy(), none.copy(),
                   none.copy())

    def __len__(self) -> int:
        return len(self.w)


def _pareto(w, c) -> np.ndarray:
    """Indices of the nondominated pairs, ascending in w and in c."""
    # sort win descending then catch ascending; lexsort is stable, so exact
    # ties resolve to the earliest-generated entry (eps, then down, then up)
    order = np.lexsort((c, -w))
    cs = c[order]
    keep = np.empty(len(cs), dtype=bool)
    keep[:1] = True  # a sample stage under a cap may have no pairs at all
    running = np.minimum.accumulate(cs)
    keep[1:] = cs[1:] < running[:-1]
    return order[keep][::-1]


def _prune(w, c, eps_idx, up_idx, down_idx) -> _Frontier:
    sel = _pareto(w, c)
    return _Frontier(w[sel], c[sel], eps_idx[sel], up_idx[sel], down_idx[sel])


_ABSENT = (np.zeros(1), np.zeros(1), np.full(1, -1, dtype=np.int32))


def _side(child: _Frontier, p: float) -> tuple:
    """(w, c, index) a child enters with behind a branch of probability p."""
    if p > 0.0:
        return child.w, child.c, np.arange(len(child), dtype=np.int32)
    return _ABSENT


def _runs(p0, p1, pc, up: _Frontier, down: _Frontier, cap: float) -> list:
    """Maximal runs (lo, hi, up side, down side) of grid points lo..hi-1
    whose children enter the combination the same way, leaving out the grid
    points whose pc is above the cap."""
    reach = np.where(pc > cap, -1, (p0 > 0.0) + 2 * (p1 > 0.0))
    cuts = [0, *(np.flatnonzero(np.diff(reach)) + 1).tolist(), len(reach)]
    return [(lo, hi, _side(up, p0[lo]), _side(down, p1[lo]))
            for lo, hi in zip(cuts[:-1], cuts[1:]) if reach[lo] >= 0]


def _block(p0, p1, pc, up, down):
    """Candidate (w, c) of grid points x down entries x up entries, as
    broadcast arrays in generation order.  A side's arrays are 1-D, shared
    by every grid point, or 2-D with one row per grid point (a tile's
    entries)."""
    (uw, uc, _), (dw, dc, _) = up, down
    q0 = p0[:, None]
    w = (p1[:, None] * dw)[:, :, None] + (q0 * uw)[:, None, :]
    c = (p1[:, None] * dc)[:, :, None] + (pc[:, None] + q0 * uc)[:, None, :]
    return w, c


def _undominated(fw, fc, w, c) -> np.ndarray:
    """Mask of the pairs that no pair of the frontier (fw, fc) strictly dominates.

    The frontier ends in a virtual pair (inf, the least double above the
    cap), which drops every pair above the cap.  Frontier pairs with w' >= w
    have c' >= fc[k], k the first of them, so only that pair needs checking.
    """
    k = np.searchsorted(fw, w)
    ck = fc[k]
    return (ck > c) | ((ck == c) & (fw[k] == w))


def _tiles(n: int) -> tuple:
    """An entry axis of n entries cut into tiles of edge min(n, _TILE):
    each tile's first and last entry, and its slots' entries (clipped to
    n - 1) with the mask of the slots that exist."""
    t = min(n, _TILE)
    first = np.arange(0, n, t)
    slots = first[:, None] + np.arange(t)
    return first, np.minimum(first + t, n) - 1, np.minimum(slots, n - 1), slots < n


def _combine(p0, p1, pc, up: _Frontier, down: _Frontier,
             cap: float = math.inf) -> _Frontier:
    """The node's frontier of catch <= cap: all of it at the default, no cap."""
    runs = _runs(p0, p1, pc, up, down, cap)
    total = sum((hi - lo) * len(u[0]) * len(d[0]) for lo, hi, u, d in runs)
    if total > _MAX_COMBOS:
        raise ValueError(f"tree too large for brute force at this grid step "
                         f"({total} grid combinations at one node)")

    # the sample frontier, coarse to fine: the frontier of every
    # (_SAMPLE_STRIDE**2)-th grid point prefilters every _SAMPLE_STRIDE-th
    ceiling = np.nextafter(cap, np.inf)
    fw, fc = np.array([np.inf]), np.array([ceiling])
    for s in (_SAMPLE_STRIDE ** 2, _SAMPLE_STRIDE):
        sw, sc = [], []
        for lo, hi, u, d in runs:
            w, c = _block(p0[lo:hi:s], p1[lo:hi:s], pc[lo:hi:s], u, d)
            keep = _undominated(fw, fc, w, c)
            sw.append(w[keep])
            sc.append(c[keep])
        sw, sc = np.concatenate(sw), np.concatenate(sc)
        sel = _pareto(sw, sc)
        fw, fc = np.append(sw[sel], np.inf), np.append(sc[sel], ceiling)

    ws, cs, es, us, ds = [], [], [], [], []
    for lo, hi, u, d in runs:
        (uw, uc, ui), (dw, dc, di) = u, d
        nu, nd = len(uw), len(dw)
        ufirst, ulast, uslot, uok = _tiles(nu)
        dfirst, dlast, dslot, dok = _tiles(nd)
        first_u, last_u = (uw[ufirst], uc[ufirst], ui), (uw[ulast], uc[ulast], ui)
        first_d, last_d = (dw[dfirst], dc[dfirst], di), (dw[dlast], dc[dlast], di)
        # (grid point, down tile, up tile) corners, whole grid points per chunk
        g_step = max(1, _CHUNK // (len(ufirst) * len(dfirst)))
        # live tiles materialized at once
        t_step = max(1, _CHUNK // (uslot.shape[1] * dslot.shape[1]))
        # the run's kept candidates and their (grid point, down, up) indices
        kw, kc, ke, kj, ki = [], [], [], [], []
        for e0 in range(lo, hi, g_step):
            e = slice(e0, min(e0 + g_step, hi))
            _, c_min = _block(p0[e], p1[e], pc[e], first_u, first_d)
            w_max, _ = _block(p0[e], p1[e], pc[e], last_u, last_d)
            ge, gj, gi = np.nonzero(fc[np.searchsorted(fw, w_max)] >= c_min)
            ge += e0
            for t0 in range(0, len(ge), t_step):
                te, tj, ti = (x[t0:t0 + t_step] for x in (ge, gj, gi))
                j, i = dslot[tj], uslot[ti]
                w, c = _block(p0[te], p1[te], pc[te], (uw[i], uc[i], ui),
                              (dw[j], dc[j], di))
                keep = dok[tj][:, :, None] & uok[ti][:, None, :]
                lt, lj, li = np.nonzero(keep & _undominated(fw, fc, w, c))
                kw.append(w[lt, lj, li])
                kc.append(c[lt, lj, li])
                ke.append(te[lt])
                kj.append(j[lt, lj])
                ki.append(i[lt, li])
        if not kw:
            continue
        # back to generation order (eps, then down, then up) within the run
        ke, kj, ki = np.concatenate(ke), np.concatenate(kj), np.concatenate(ki)
        order = np.argsort((ke * nd + kj) * nu + ki)
        ws.append(np.concatenate(kw)[order])
        cs.append(np.concatenate(kc)[order])
        es.append(ke[order].astype(np.int32))
        us.append(ui[ki[order]])
        ds.append(di[kj[order]])

    return _prune(np.concatenate(ws), np.concatenate(cs), np.concatenate(es),
                  np.concatenate(us), np.concatenate(ds))


def _settle(j, n: int, holds):
    """Move each guess j to the first k in [0, n] at which holds(k) is True.

    holds is elementwise and nondecreasing in k.  The guesses come from a
    division, which rounding can put an index or so off, so each is
    corrected in both directions against the exact comparison the plain
    enumeration would use.
    """
    for _ in range(64):
        back = (j > 0) & holds(np.maximum(j - 1, 0))
        if not back.any():
            break
        j = j - back
    else:
        raise RuntimeError("index search failed to settle (backward)")
    for _ in range(64):
        fwd = (j < n) & ~holds(np.minimum(j, n - 1))
        if not fwd.any():
            break
        j = j + fwd
    else:
        raise RuntimeError("index search failed to settle (forward)")
    return j


def _first_feasible(p, w, base, target: float) -> np.ndarray:
    """Per element, the first k with base + p*w[k] >= target (len(w) if none).

    p and base are arrays of one shape, p >= 0; w ascends.  At p = 0 every
    k gives base + 0.0 = base, so the answer is 0 or len(w) outright.
    """
    n = len(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.searchsorted(w, (target - base) / p)
    k = np.where(p > 0.0, k, np.where(base >= target, 0, n))
    return _settle(k, n, lambda k: base + p * w[k] >= target)


def _first_dearer(pc, p, c, tail, best: float) -> np.ndarray:
    """Per element, the first k with (pc + p*c[k]) + tail > best (len(c) if none).

    pc, p and tail are arrays of one shape, p >= 0; c ascends.
    """
    n = len(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.searchsorted(c, ((best - tail) - pc) / p, side="right")
    k = np.where(p > 0.0, k, np.where(pc + tail > best, 0, n))
    return _settle(k, n, lambda k: (pc + p * c[k]) + tail > best)


def _child_cap(cap: float, pc, p) -> float:
    """The catch cap of a child behind branch probabilities p, under its
    parent's cap: above it, a child entry costs the parent more than cap at
    every grid point the parent keeps."""
    reach = (pc <= cap) & (p > 0.0)
    grow = 1.0 + 2.0 ** -40  # the relative margin, far above rounding
    slack = np.maximum(cap * grow - pc[reach], np.finfo(float).tiny)
    with np.errstate(over="ignore"):  # a cap that overflows is no cap
        return float(np.max(slack / p[reach], initial=0.0) * grow)


def _caps(ann: TreeAnnotation, p0, p1, pc, bound: float) -> list[float]:
    """Per node in postorder, its catch cap: bound at the root, and each
    child's from its parent's, top down."""
    caps = [math.inf] * len(ann.up)
    caps[-1] = bound
    for i in range(len(caps) - 1, -1, -1):
        if ann.up[i] >= 0:
            caps[ann.up[i]] = _child_cap(caps[i], pc, p0)
            caps[ann.down[i]] = _child_cap(caps[i], pc, p1)
    return caps


def _frontiers(ann: TreeAnnotation, p0, p1, pc, caps) -> list[_Frontier]:
    """Per node below the root, in postorder, its frontier under its cap;
    the root is searched by _best instead."""
    frontier: list[_Frontier] = []
    for w, u, dn, cap in zip(ann.p_w[:-1], ann.up, ann.down, caps):
        frontier.append(_Frontier.leaf(w) if u < 0
                        else _combine(p0, p1, pc, frontier[u], frontier[dn], cap))
    return frontier


def _best(p0, p1, pc, up: _Frontier, down: _Frontier, target: float,
          bound: float):
    """The root's (pc, eps_idx, up entry, down entry) of least catch <= bound
    that reaches the target, ties to the smallest grid index and then to the
    first up entry; None if there is none."""
    # a child behind a zero-probability branch enters with its first entry
    # alone, under index -1; p * x adds +0.0 for every entry x, so its
    # values are those of the one-entry frontier
    lb = (pc + p0 * up.c[0]) + p1 * down.c[0]
    # up entries before i_lo miss the target even with the last down entry
    i_lo = _first_feasible(p0, up.w, p1 * down.w[-1], target)
    order = np.argsort(lb, kind="stable")
    best = None
    at, size = 0, 1
    while at < len(order):
        g = order[at:at + size]
        at, size = at + size, min(2 * size, _ROOT_BLOCK)
        cut = bound if best is None else best[0]
        if lb[g[0]] > cut:
            break
        q0, q1, qc = p0[g], p1[g], pc[g]
        lo = i_lo[g]
        # up entries from i_hi on cost more than the cut even with the
        # first down entry; a tie stays, for the tie rule
        hi = _first_dearer(qc, q0, up.c, q1 * down.c[0], cut)
        hi = np.where(q0 > 0.0, hi, np.minimum(hi, 1))
        n = np.maximum(hi - lo, 0)
        if not n.any():
            continue
        # the block's live slices, end to end, with each entry's grid point
        e = np.repeat(np.arange(len(g)), n)
        i = np.arange(len(e)) + np.repeat(lo - (np.cumsum(n) - n), n)
        q0, q1, qc = q0[e], q1[e], qc[e]
        j = _first_feasible(q1, down.w, q0 * up.w[i], target)
        cand = (qc + q0 * up.c[i]) + q1 * down.c[j]
        # ties go to the smallest grid index, then to the first up entry
        at_min = np.flatnonzero(cand == cand.min())
        k = at_min[np.argmin(g[e[at_min]])]
        key = (float(cand[k]), int(g[e[k]]))
        if best is None or key < best[:2]:
            best = (*key, int(i[k]) if q0[k] > 0.0 else -1,
                    int(j[k]) if q1[k] > 0.0 else -1)
    return best


def _max_win(ann: TreeAnnotation, p0, p1) -> tuple[float, list[int]]:
    """The largest win of any grid strategy, and a strategy that reaches it:
    per node in postorder, the first grid index of largest p1*W_dn + p0*W_up
    (-1 at the leaves)."""
    win: list = []
    pick: list[int] = []
    for w, u, dn in zip(ann.p_w, ann.up, ann.down):
        if u < 0:
            win.append(w)
            pick.append(-1)
            continue
        x = p1 * win[dn] + p0 * win[u]
        k = int(np.argmax(x))
        win.append(x[k])
        pick.append(k)
    return float(win[-1]), pick


def _candidates(ann: TreeAnnotation, b: float, p0, p1, pc, zero: int,
                pick: list[int]) -> tuple:
    """The candidate grid strategies of the bound, and their root (w, c).

    Returns the grid index per node in postorder (rows) and candidate
    (columns), and the root's win and catch per candidate.  Column k < the
    number of nonnegative grid points is the shape scaled to the k-th of
    them; the last column is the max-win strategy pick.  Leaf rows are
    never read.
    """
    gap = np.array([d if u >= 0 else 0.0 for d, u in zip(ann.delta, ann.up)])
    top = np.max(np.abs(gap))
    if top == 0.0:  # no node moves the outcome: only the honest strategy
        shape = np.zeros(len(gap))
    elif b == 1.0:
        shape = np.sign(gap) * (np.abs(gap) == top)
    else:
        shape = np.sign(gap) * (np.abs(gap) / top) ** (1.0 / (b - 1.0))
    k = np.arange(len(p0) - zero)
    idx = np.rint(shape[:, None] * k).astype(np.intp) + zero
    idx = np.column_stack((np.clip(idx, 0, len(p0) - 1), pick))
    w: list = []
    c: list = []
    for i, (p_w, u, dn) in enumerate(zip(ann.p_w, ann.up, ann.down)):
        if u < 0:
            w.append(p_w)
            c.append(0.0)
            continue
        e = idx[i]
        q0, q1 = p0[e], p1[e]
        w.append(q1 * w[dn] + q0 * w[u])
        c.append(q1 * c[dn] + (pc[e] + q0 * c[u]))
    return idx, w[-1], c[-1]


def _bound(ann: TreeAnnotation, b: float, p0, p1, pc, zero: int,
           pick: list[int], target: float) -> float:
    """An upper bound on the least catch: the least catch among the
    candidate strategies that reach the target; inf if none does."""
    _, w, c = _candidates(ann, b, p0, p1, pc, zero, pick)
    return float(np.min(c[w >= target], initial=np.inf))


@functools.lru_cache(maxsize=8)
def _grid(model: CheatModel, grid_step: float) -> tuple:
    """(grid, p0, p1, pc, index of eps = 0) of one model and grid step: the
    grid as a tuple, its triples as read-only float64 arrays."""
    kmax = int(math.floor(0.5 / grid_step + 1e-9))
    grid = [k * grid_step for k in range(-kmax, kmax + 1)]
    grid = [e for e in grid
            if abs(e) <= 0.5 and model.a * abs(e) ** model.b <= 1.0]
    arrays = [np.array(x) for x in cheat_model.triple(model, grid)]
    for x in arrays:
        x.flags.writeable = False
    return tuple(grid), *arrays, grid.index(0.0)


def search(ann: TreeAnnotation, model: CheatModel, eps_tot: float,
           grid_step: float) -> tuple[list[float], float]:
    """brute_force_min_pc's search on checked arguments: (strategy, min_pc),
    the strategy a list of eps in the annotation's postorder."""
    grid, p0, p1, pc, zero = _grid(model, grid_step)
    target = ann.p_w_root + eps_tot * (1.0 - grid_step)
    root_up, root_down = ann.up[-1], ann.down[-1]

    win, pick = _max_win(ann, p0, p1)
    if win < target:
        raise ValueError(f"no grid strategy reaches win excess "
                         f"{eps_tot * (1.0 - grid_step)}")
    bound = _bound(ann, model.b, p0, p1, pc, zero, pick, target)
    frontier = _frontiers(ann, p0, p1, pc, _caps(ann, p0, p1, pc, bound))
    best = _best(p0, p1, pc, frontier[root_up], frontier[root_down], target,
                 bound)

    # top-down over the reversed postorder: each node's frontier entry is
    # set by its parent first; -1 marks a subtree the cheater plays honestly
    # (the strategy list starts honest, so such a subtree and the leaves
    # keep their 0.0)
    entry = [-1] * len(ann.up)
    min_pc, e_idx, entry[root_up], entry[root_down] = best
    strategy = [0.0] * len(ann.up)
    strategy[-1] = grid[e_idx]
    for i in range(len(frontier) - 1, -1, -1):
        u, k = ann.up[i], entry[i]
        if u < 0 or k < 0:
            continue
        f = frontier[i]
        strategy[i] = grid[int(f.eps_idx[k])]
        entry[u], entry[ann.down[i]] = int(f.up_idx[k]), int(f.down_idx[k])
    return strategy, min_pc
