"""Grid-search oracle behind composer.brute_force_min_pc.

An exhaustive search of the per-node grid {-1/2, ..., 1/2} in steps of
grid_step, done as an exact dynamic program over per-subtree Pareto
frontiers of (win, catch) probability: the same minimum as a literal
product loop, in feasible time.  It is the independent check on composer's
closed form, so it reads only the annotated tree and never calls composer.
It reads the annotation's columns, not its path column, and returns the
strategy it found as the library's one tree strategy form: a list of eps
in the annotation's postorder, 0.0 at the leaves.
"""

from __future__ import annotations

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
# grid points.
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
# work: on the 11 5-flip oracle calls of the tree-oracle benchmark (seed 1)
# that _pareto gets 141,483 candidates instead of 613,932, and at
# best-of-3's two large nodes the traced peak of _combine falls from 2.16
# and 2.69 MiB to 1.38 and 1.95 MiB.
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
# skipped.  The frontier's (inf, inf) sentinel never skips a tile.  Only the
# live tiles are built, in groups of about _CHUNK candidates, and go
# through the mask; at grid 1e-3 a large node builds 7-13% of its grid
# combinations.
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
# empty or dearer.  On the 11 oracle calls above, the root searches 349,626
# up entries at 837 grid points, where a search of each visited grid
# point's whole up frontier (3,304-5,403 entries) took 2,772,521 at 761.
#
# On a 2-vCPU Xeon VM, a 5-flip call at grid 1e-3 takes 18-25 ms (25-42 ms
# with whole up frontiers at the root and the sample built in one step).
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
    keep[0] = True
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


def _runs(p0, p1, up: _Frontier, down: _Frontier) -> list:
    """Maximal runs (lo, hi, up side, down side) of grid points lo..hi-1
    whose children enter the combination the same way."""
    reach = (p0 > 0.0) + 2 * (p1 > 0.0)
    cuts = [0, *(np.flatnonzero(np.diff(reach)) + 1).tolist(), len(reach)]
    return [(lo, hi, _side(up, p0[lo]), _side(down, p1[lo]))
            for lo, hi in zip(cuts[:-1], cuts[1:])]


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

    The frontier ends in a pair (inf, inf).  Frontier pairs with w' >= w
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


def _combine(p0, p1, pc, up: _Frontier, down: _Frontier) -> _Frontier:
    runs = _runs(p0, p1, up, down)
    total = sum((hi - lo) * len(u[0]) * len(d[0]) for lo, hi, u, d in runs)
    if total > _MAX_COMBOS:
        raise ValueError(f"tree too large for brute force at this grid step "
                         f"({total} grid combinations at one node)")

    # the sample frontier, coarse to fine: the frontier of every
    # (_SAMPLE_STRIDE**2)-th grid point prefilters every _SAMPLE_STRIDE-th
    fw, fc = np.array([np.inf]), np.array([np.inf])
    for s in (_SAMPLE_STRIDE ** 2, _SAMPLE_STRIDE):
        sw, sc = [], []
        for lo, hi, u, d in runs:
            w, c = _block(p0[lo:hi:s], p1[lo:hi:s], pc[lo:hi:s], u, d)
            keep = _undominated(fw, fc, w, c)
            sw.append(w[keep])
            sc.append(c[keep])
        sw, sc = np.concatenate(sw), np.concatenate(sc)
        sel = _pareto(sw, sc)
        fw, fc = np.append(sw[sel], np.inf), np.append(sc[sel], np.inf)

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


def search(ann: TreeAnnotation, model: CheatModel, eps_tot: float,
           grid_step: float) -> tuple[list[float], float]:
    """brute_force_min_pc's search on checked arguments: (strategy, min_pc),
    the strategy a list of eps in the annotation's postorder."""
    kmax = int(math.floor(0.5 / grid_step + 1e-9))
    grid = [k * grid_step for k in range(-kmax, kmax + 1)]
    grid = [e for e in grid
            if abs(e) <= 0.5 and model.a * abs(e) ** model.b <= 1.0]
    t = cheat_model.triple(model, grid)
    p0, p1, pc = np.array(t.p0), np.array(t.p1), np.array(t.pc)
    target = ann.p_w_root + eps_tot * (1.0 - grid_step)

    # per node below the root, in postorder; the root is searched below
    # against the target instead of materializing its frontier
    frontier: list[_Frontier] = []
    for w, u, dn in zip(ann.p_w[:-1], ann.up, ann.down):
        frontier.append(_Frontier.leaf(w) if u < 0
                        else _combine(p0, p1, pc, frontier[u], frontier[dn]))

    up, down = frontier[ann.up[-1]], frontier[ann.down[-1]]
    nu = len(up)
    # a child behind a zero-probability branch enters with its first entry
    # alone, under index -1; p * x adds +0.0 for every entry x, so its
    # values are those of the one-entry frontier
    lb = (pc + p0 * up.c[0]) + p1 * down.c[0]
    # up entries before i_lo miss the target even with the last down entry
    i_lo = _first_feasible(p0, up.w, p1 * down.w[-1], target)
    order = np.argsort(lb, kind="stable")
    best = None  # (pc, eps_idx, up_entry, down_entry)
    at, size = 0, 1
    while at < len(order):
        g = order[at:at + size]
        at, size = at + size, min(2 * size, _ROOT_BLOCK)
        if best is not None and lb[g[0]] > best[0]:
            break
        q0, q1, qc = p0[g], p1[g], pc[g]
        lo = i_lo[g]
        # up entries from i_hi on cost more than best even with the first
        # down entry; a tie stays, for the tie rule
        hi = nu if best is None else _first_dearer(qc, q0, up.c,
                                                   q1 * down.c[0], best[0])
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

    if best is None:
        raise ValueError(f"no grid strategy reaches win excess "
                         f"{eps_tot * (1.0 - grid_step)}")

    # top-down over the reversed postorder: each node's frontier entry is
    # set by its parent first; -1 marks a subtree the cheater plays honestly
    # (the strategy list starts honest, so such a subtree and the leaves
    # keep their 0.0)
    entry = [-1] * len(ann.up)
    min_pc, e_idx, entry[ann.up[-1]], entry[ann.down[-1]] = best
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
