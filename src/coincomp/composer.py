"""Adversary analysis for coin games composed over a tree.

A cheater playing a tree game picks a bias eps(x) for every internal node x.
To leading order in small biases, raising the win probability from 1/2 to
1/2 + eps_tot while minimizing the total catch probability is a constrained
optimization with a closed-form solution: with S = sum over internal nodes
of 2**-D(x) |Delta(x)|**(b/(b-1)),

    eps(x) = eps_tot * sign(Delta(x)) * |Delta(x)|**(1/(b-1)) / S

and the composed game is again a cheat-sensitive coin with the same exponent
b and coefficient a_new = a * S**(1-b).  For b = 2 the tree identity S = 1
(fair trees) makes a_new = a: quadratic detection survives composition
unchanged.  For b > 2 composition strictly weakens detection.

Everything here is for the standard model; linear detection (b = 1) breaks
the closed form's exponent 1/(b-1) and is handled exactly by the walk module
instead.

The tree passes (leading_order, a_new_of_b, strategy_triples and
exact_outcome) read annotate's postorder columns and write into lists
made once per call, never a container per node, so a pass leaves nothing
for Python's cyclic garbage collector to scan or free.  What depends on
Delta alone, |Delta|**(b/(b-1)) in S and each node's eps, is computed
once per distinct Delta and reused: a best-of-15 tree has 12,869 internal
nodes but 26 distinct Delta.  The reused float is the one a per-node
computation would give, so the answers are unchanged bit for bit.

brute_force_min_pc is the independent check on the closed form: an
exhaustive search of the per-node grid {-1/2, ..., 1/2} in steps of
grid_step.  It is implemented as an exact dynamic program over per-subtree
Pareto frontiers of (win probability, catch probability), which covers the
same strategy space and returns the same minimum as a literal product loop,
only in feasible time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cheat_model
from .cheat_model import CheatModel, OutcomeTriple
from .game_tree import MAX_DEPTH, GameTree, TreeAnnotation, annotate

Strategy = dict[str, float]

# cap on materialized grid combinations per node in the brute-force search
_MAX_COMBOS = 10_000_000


@dataclass(frozen=True)
class CompositionResult:
    """Leading-order optimum: composed sensitivity, multiplier, per-node biases."""

    a_new: float
    lam: float  # Lagrange multiplier, serialized as "lambda"
    strategy: Strategy
    eps_tot: float
    predicted_pc: float
    clipped: bool

    def to_json_dict(self) -> dict:
        return {
            "a_new": self.a_new,
            "lambda": self.lam,
            "eps_tot": self.eps_tot,
            "predicted_pc": self.predicted_pc,
            "clipped": self.clipped,
            "strategy": {path: eps for path, eps in sorted(self.strategy.items())},
        }


def _fair_annotation(tree: GameTree) -> TreeAnnotation:
    ann = annotate(tree)
    if ann.up[-1] < 0:
        raise ValueError("tree has no internal node; nothing to compose")
    if abs(ann.p_w_root - 0.5) > 1e-12:
        raise ValueError(f"tree is not fair: P_W(root) = {ann.p_w_root}")
    return ann


# 2**-d for every depth a tree may have
_HALF_POWERS = [2.0 ** (-d) for d in range(MAX_DEPTH + 1)]


def _weight_sum(ann: TreeAnnotation, b: float) -> float:
    expo = b / (b - 1.0)
    weight: dict[float, float] = {}  # |Delta|**expo per distinct Delta
    total = 0.0
    for d, gap in zip(ann.depth, ann.delta):
        if gap:  # None on leaves, 0.0 where a node cannot move the outcome
            g = weight.get(gap)
            if g is None:
                g = weight[gap] = abs(gap) ** expo
            total += _HALF_POWERS[d] * g
    return total


def leading_order(tree: GameTree, a: float, b: float, eps_tot: float) -> CompositionResult:
    """Closed-form optimal small-bias strategy and the composed a_new.

    Requires b > 1 (use the walk module for linear detection) and a fair
    tree.  Nodes with Delta = 0 cannot move the outcome and get eps = 0.
    Biases exceeding 1/2 in magnitude (possible when b != 2) are clamped
    and reported through the clipped flag.
    """
    for name, value in (("a", a), ("b", b), ("eps_tot", eps_tot)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if b <= 1.0:
        raise ValueError(f"leading_order requires b > 1, got {b}; linear "
                         "detection is solved exactly by the walk module")
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    if abs(eps_tot) > 0.5:
        raise ValueError(f"|eps_tot| must be <= 1/2, got {eps_tot}")
    ann = _fair_annotation(tree)
    s = _weight_sum(ann, b)
    if s == 0.0:
        raise ValueError("every Delta is zero; no strategy can move the outcome")

    expo = 1.0 / (b - 1.0)
    strategy: Strategy = {}
    bias: dict[float, float] = {}  # eps per distinct Delta
    clipped = False
    for at, gap in zip(ann.path, ann.delta):
        if gap is None:
            continue
        eps = bias.get(gap)
        if eps is None:
            eps = eps_tot * math.copysign(abs(gap) ** expo, gap) / s if gap else 0.0
            if abs(eps) > 0.5:
                eps = math.copysign(0.5, eps)
                clipped = True
            bias[gap] = eps
        strategy[at] = eps

    a_new = a * s ** (1.0 - b)
    lam = math.copysign(a * b * (abs(eps_tot) / s) ** (b - 1.0), eps_tot)
    predicted_pc = a_new * abs(eps_tot) ** b
    return CompositionResult(a_new, lam, strategy, eps_tot, predicted_pc, clipped)


def a_new_of_b(tree: GameTree, a: float, b: float) -> float:
    """Composed sensitivity a * S**(1-b) without building the strategy."""
    if b <= 1.0:
        raise ValueError(f"a_new_of_b requires b > 1, got {b}")
    s = _weight_sum(_fair_annotation(tree), b)
    if s == 0.0:
        raise ValueError("every Delta is zero; a_new is undefined")
    return a * s ** (1.0 - b)


def derivative_in_b(tree: GameTree, a: float, b: float, h: float = 0.01) -> float:
    """Central finite difference of a_new_of_b at b."""
    if not 0.0 < h <= 0.1:
        raise ValueError(f"h must be in (0, 0.1], got {h}")
    if b - h <= 1.0:
        raise ValueError(f"b - h must exceed 1, got b = {b}, h = {h}")
    return (a_new_of_b(tree, a, b + h) - a_new_of_b(tree, a, b - h)) / (2.0 * h)


def strategy_triples(ann: TreeAnnotation, model: CheatModel,
                     strategy: Strategy) -> tuple[list[float], ...]:
    """Per-node p0, p1 and pc of a tree strategy, as lists in postorder.

    The one reader of a tree strategy: its keys must be exactly the paths
    of the internal nodes.  Leaves read 0.0.  Each distinct eps costs one
    scalar cheat_model.triple call (an array call can round |eps|**b
    differently), and every later node with that eps one memo lookup.
    -0.0 equals 0.0 as a dict key, but the prime model's pc = a*eps tells
    them apart, so -0.0 is memoized under its own key, None.
    """
    size = len(ann.path)
    p0, p1, pc = [0.0] * size, [0.0] * size, [0.0] * size
    memo: dict[float | None, tuple[float, float, float]] = {}
    for i, (at, u) in enumerate(zip(ann.path, ann.up)):
        if u >= 0:
            try:
                eps = strategy[at]
            except KeyError:
                raise ValueError(f"strategy is missing node '{at}'") from None
            key = eps if eps or math.copysign(1.0, eps) > 0.0 else None
            t = memo.get(key)
            if t is None:
                t = memo[key] = cheat_model.triple(model, eps).as_tuple()
            p0[i], p1[i], pc[i] = t
    if len(strategy) > size - ann.up.count(-1):
        extra = sorted(set(strategy).difference(
            at for at, u in zip(ann.path, ann.up) if u >= 0))
        raise ValueError(f"strategy names {len(extra)} paths that are not "
                         f"internal nodes, first '{extra[0]}'")
    return p0, p1, pc


def exact_outcome(tree: GameTree, model: CheatModel, strategy: Strategy) -> OutcomeTriple:
    """Exact game outcome (p0, p1, pc) under a full per-node strategy.

    No leading-order approximation: one bottom-up pass weighting children by
    the per-node triple and accumulating catch mass along the way, into one
    preallocated column per outcome.
    """
    if model.variant != cheat_model.STD:
        raise ValueError("exact_outcome expects a standard-variant model")
    ann = annotate(tree)
    size = len(ann.path)
    o0, o1, oc = [0.0] * size, [0.0] * size, [0.0] * size
    for i, (w, u, dn, p0, p1, pc) in enumerate(zip(
            ann.p_w, ann.up, ann.down, *strategy_triples(ann, model, strategy))):
        if u < 0:
            o0[i], o1[i] = w, 1.0 - w
            continue
        o0[i] = p0 * o0[u] + p1 * o0[dn]
        o1[i] = p0 * o1[u] + p1 * o1[dn]
        oc[i] = pc + p0 * oc[u] + p1 * oc[dn]
    return OutcomeTriple(o0[-1], o1[-1], oc[-1])


# ---------------------------------------------------------------------------
# Brute-force oracle.
#
# The strategy space is the full grid product over internal nodes.  Instead
# of looping over it (1001**5 points for five nodes at step 1e-3), each
# subtree keeps the Pareto frontier of achievable (win, catch) pairs: a
# dropped pair is dominated by a kept one (win >= it, catch <= it), and both
# coordinates are monotone under composition with the parent flip, so the
# dropped pair can never beat the kept one downstream.  Per-strategy
# arithmetic is ordered exactly as in exact_outcome's pass, which keeps
# this search bit-identical to the literal enumeration, including which
# grid points count as feasible.
#
# A child behind a branch of probability zero cannot change the outcome, so
# it enters the one combination expression as a one-entry frontier
# (w = 0, c = 0, index -1): p * 0.0 adds exactly +0.0, as it does in
# exact_outcome for any child value, and index -1 tells the reconstruction
# to play that subtree honestly.
#
# A node below the root is combined in whole-grid array passes.  The grid
# points fall into a few runs in which both children enter the same way
# (all of them but +-1/2, as a rule), and each run broadcasts
# p1*dw + p0*uw and p1*dc + (pc + p0*uc) over (grid point, down entry, up
# entry), in chunks of about _CHUNK candidates, in generation order (eps,
# then down, then up).  The grid's triples come from one list call to
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
# dropped pair is unchanged.  The survivors, still in generation order,
# give the same frontier, ties and indices included.
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
# On a 2-vCPU Xeon VM, a 5-flip call at grid 1e-3 takes 60-110 ms.
# ---------------------------------------------------------------------------

# candidates materialized at once per node, and the grid-point stride of the
# sample whose frontier prefilters them
_CHUNK = 1 << 16
_SAMPLE_STRIDE = 16


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
    broadcast arrays in generation order."""
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
        nu, nd = len(u[0]), len(d[0])
        # whole grid points per chunk, or slices of one grid point's down entries
        g_step = max(1, _CHUNK // (nu * nd))
        d_step = nd if g_step > 1 else max(1, _CHUNK // nu)
        for e0 in range(lo, hi, g_step):
            e1 = min(e0 + g_step, hi)
            for j0 in range(0, nd, d_step):
                dpart = tuple(x[j0:j0 + d_step] for x in d)
                w, c = _block(p0[e0:e1], p1[e0:e1], pc[e0:e1], u, dpart)
                ei, ji, ii = np.nonzero(_undominated(fw, fc, w, c))
                ws.append(w[ei, ji, ii])
                cs.append(c[ei, ji, ii])
                es.append((e0 + ei).astype(np.int32))
                us.append(u[2][ii])
                ds.append(dpart[2][ji])

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


def brute_force_min_pc(tree: GameTree, model: CheatModel, eps_tot: float,
                       grid_step: float) -> tuple[Strategy, float]:
    """Exhaustive grid-search oracle for the minimum catch probability.

    Over strategies with every eps(x) on the grid of multiples of grid_step,
    restricted to those whose exact win excess reaches eps_tot*(1 - grid_step),
    returns a strategy of minimum exact catch probability and that minimum.
    eps_tot must be finite with |eps_tot| <= 1/2.  Small trees only; the
    search is exact over the full grid product.
    """
    if model.variant != cheat_model.STD:
        raise ValueError("brute force searches the standard model grid only")
    if not 1e-3 <= grid_step <= 0.5:
        raise ValueError(f"grid_step must be a finite number in [1e-3, 0.5], "
                         f"got {grid_step}")
    if not math.isfinite(eps_tot):
        raise ValueError(f"eps_tot must be finite, got {eps_tot}")
    if abs(eps_tot) > 0.5:
        raise ValueError(f"|eps_tot| must be <= 1/2, got {eps_tot}")
    ann = annotate(tree)
    n_internal = sum(u >= 0 for u in ann.up)
    if n_internal == 0:
        raise ValueError("tree has no internal node; nothing to search")
    if n_internal > 5:
        raise ValueError(f"tree too large: {n_internal} internal nodes, limit 5")

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
    strategy: Strategy = {"": grid[e_idx]}
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
