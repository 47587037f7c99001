"""Grid-search oracle behind composer.brute_force_min_pc.

An exhaustive search of the per-node grid {-1/2, ..., 1/2} in steps of
grid_step, done as an exact dynamic program over per-subtree Pareto
frontiers of (win, catch) probability: the same minimum as a literal
product loop, in feasible time.  It is the independent check on composer's
closed form, so it reads only the annotated tree and never calls composer.
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
# dominated by the frontier of a sample (every _SAMPLE_STRIDE-th grid point
# of each run, materialized at once, about 10 MB at the _MAX_COMBOS cap):
# w' > w and c' <= c, or w' == w and c' < c.  That is exact.
# _prune orders pairs by w descending, then c ascending, then generation,
# and keeps a pair only if its c is below every c before it.  A strictly
# dominated pair comes after its dominator with a c no lower, so _prune
# never keeps it; and the dominator, itself a candidate that no frontier
# pair strictly dominates, survives, so every running minimum after the
# dropped pair is unchanged.  The survivors, put back in generation order
# (eps, then down, then up), give the same frontier, ties and indices
# included.
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
# each with one _first_feasible step, and the search stops at the first lb
# above the best catch found: no later grid point can reach or tie it.
# Ties go to the smallest grid index, then to the first up entry, as in a
# search in grid order.
#
# On a 2-vCPU Xeon VM, a 5-flip call at grid 1e-3 takes 23-48 ms (57-86 ms
# with whole-grid passes instead of tiles).
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

    s = _SAMPLE_STRIDE
    sample = [_block(p0[lo:hi:s], p1[lo:hi:s], pc[lo:hi:s], u, d)
              for lo, hi, u, d in runs]
    sw = np.concatenate([w.ravel() for w, _ in sample])
    sc = np.concatenate([c.ravel() for _, c in sample])
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


def _first_feasible(p1: float, down_w: np.ndarray, rhs_base: np.ndarray,
                    target: float) -> np.ndarray:
    """Per up-entry, smallest down index j with rhs_base + p1*down_w[j] >= target.

    searchsorted on the divided threshold can be off by an ulp, so the result
    is corrected in both directions against the exact comparison the plain
    enumeration would use.  Returns len(down_w) where nothing is feasible.
    At p1 = 0 the down side is the one-entry frontier of an unreachable
    branch: the division yields +-inf or nan, and the corrections settle
    whatever index that gives in at most one step.
    """
    nd = len(down_w)
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.searchsorted(down_w, (target - rhs_base) / p1, side="left")
    for _ in range(64):
        jp = np.where(j > 0, j - 1, 0)
        back = (j > 0) & (rhs_base + p1 * down_w[jp] >= target)
        if not back.any():
            break
        j = np.where(back, j - 1, j)
    else:
        raise RuntimeError("feasibility search failed to settle (backward)")
    for _ in range(64):
        jc = np.where(j < nd, j, nd - 1)
        fwd = (j < nd) & (rhs_base + p1 * down_w[jc] < target)
        if not fwd.any():
            break
        j = np.where(fwd, j + 1, j)
    else:
        raise RuntimeError("feasibility search failed to settle (forward)")
    return j


def search(ann: TreeAnnotation, model: CheatModel, eps_tot: float,
           grid_step: float) -> tuple[dict[str, float], float]:
    """brute_force_min_pc's search on checked arguments: (strategy, min_pc)."""
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
    lb = ((pc + p0 * np.where(p0 > 0.0, up.c[0], 0.0))
          + p1 * np.where(p1 > 0.0, down.c[0], 0.0))
    best = None  # (pc, eps_idx, up_entry, down_entry)
    for e_idx in np.argsort(lb, kind="stable").tolist():
        if best is not None and lb[e_idx] > best[0]:
            break
        q0, q1, qc = t.p0[e_idx], t.p1[e_idx], t.pc[e_idx]
        uw, uc, ui = _side(up, q0)
        dw, dc, di = _side(down, q1)
        j = _first_feasible(q1, dw, q0 * uw, target)
        ok = j < len(dw)
        if not ok.any():
            continue
        jj = np.where(ok, j, 0)
        cand = (qc + q0 * uc) + q1 * dc[jj]
        cand[~ok] = np.inf
        i = int(np.argmin(cand))
        if best is None or (cand[i], e_idx) < best[:2]:
            best = (float(cand[i]), e_idx, int(ui[i]), int(di[jj[i]]))

    if best is None:
        raise ValueError(f"no grid strategy reaches win excess "
                         f"{eps_tot * (1.0 - grid_step)}")

    # top-down over the reversed postorder: each node's frontier entry is
    # set by its parent first; -1 marks a subtree the cheater plays honestly
    entry = [-1] * len(ann.path)
    min_pc, e_idx, entry[ann.up[-1]], entry[ann.down[-1]] = best
    strategy: dict[str, float] = {"": grid[e_idx]}
    for i in range(len(frontier) - 1, -1, -1):
        u, k = ann.up[i], entry[i]
        if u < 0:
            continue
        if k < 0:
            strategy[ann.path[i]] = 0.0
            continue
        f = frontier[i]
        strategy[ann.path[i]] = grid[int(f.eps_idx[k])]
        entry[u], entry[ann.down[i]] = int(f.up_idx[k]), int(f.down_idx[k])
    return strategy, min_pc
