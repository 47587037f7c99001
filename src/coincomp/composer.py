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
from .game_tree import GameTree, TreeAnnotation, annotate

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


def _weight_sum(ann: TreeAnnotation, b: float) -> float:
    expo = b / (b - 1.0)
    total = 0.0
    for d, gap in zip(ann.depth, ann.delta):
        if gap:  # None on leaves, 0.0 where a node cannot move the outcome
            total += 2.0 ** (-d) * abs(gap) ** expo
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
    clipped = False
    for at, gap in zip(ann.path, ann.delta):
        if gap is None:
            continue
        eps = eps_tot * math.copysign(abs(gap) ** expo, gap) / s if gap else 0.0
        if abs(eps) > 0.5:
            eps = math.copysign(0.5, eps)
            clipped = True
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


def exact_outcome(tree: GameTree, model: CheatModel, strategy: Strategy) -> OutcomeTriple:
    """Exact game outcome (p0, p1, pc) under a full per-node strategy.

    No leading-order approximation: one bottom-up pass weighting children by
    the per-node triple and accumulating catch mass along the way.
    """
    if model.variant != cheat_model.STD:
        raise ValueError("exact_outcome expects a standard-variant model")
    ann = annotate(tree)
    out: list[tuple[float, float, float]] = []
    for at, w, u, dn in zip(ann.path, ann.p_w, ann.up, ann.down):
        if u < 0:
            out.append((w, 1.0 - w, 0.0))
            continue
        if at not in strategy:
            raise ValueError(f"strategy is missing node '{at}'")
        t = cheat_model.triple(model, strategy[at])
        u0, u1, uc = out[u]
        d0, d1, dc = out[dn]
        out.append((t.p0 * u0 + t.p1 * d0, t.p0 * u1 + t.p1 * d1,
                    t.pc + t.p0 * uc + t.p1 * dc))
    return OutcomeTriple(*out[-1])


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
# ---------------------------------------------------------------------------


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


def _prune(w, c, eps_idx, up_idx, down_idx) -> _Frontier:
    # sort win descending then catch ascending; lexsort is stable, so exact
    # ties resolve to the earliest-generated entry (eps, then down, then up)
    order = np.lexsort((c, -w))
    cs = c[order]
    keep = np.empty(len(cs), dtype=bool)
    keep[0] = True
    running = np.minimum.accumulate(cs)
    keep[1:] = cs[1:] < running[:-1]
    sel = order[keep][::-1]
    return _Frontier(w[sel], c[sel], eps_idx[sel], up_idx[sel], down_idx[sel])


def _branches(triples, up: _Frontier, down: _Frontier) -> list:
    """Per grid point, its triple and the (w, c, index) each child enters with."""
    absent = (np.zeros(1), np.zeros(1), np.full(1, -1, dtype=np.int32))
    u = (up.w, up.c, np.arange(len(up), dtype=np.int32))
    d = (down.w, down.c, np.arange(len(down), dtype=np.int32))
    return [(t, u if t[0] > 0.0 else absent, d if t[1] > 0.0 else absent)
            for t in triples]


def _combine(triples, up: _Frontier, down: _Frontier) -> _Frontier:
    branches = _branches(triples, up, down)
    total = sum(len(u[0]) * len(d[0]) for _, u, d in branches)
    if total > _MAX_COMBOS:
        raise ValueError(f"tree too large for brute force at this grid step "
                         f"({total} grid combinations at one node)")

    ws, cs, es, us, ds = [], [], [], [], []
    for e_idx, ((p0, p1, pc), (uw, uc, ui), (dw, dc, di)) in enumerate(branches):
        # down-major layout so stable sorts see (eps, down, up) order
        ws.append(((p1 * dw)[:, None] + (p0 * uw)[None, :]).ravel())
        cs.append(((p1 * dc)[:, None] + (pc + p0 * uc)[None, :]).ravel())
        us.append(np.tile(ui, len(di)))
        ds.append(np.repeat(di, len(ui)))
        es.append(np.full(len(ui) * len(di), e_idx, dtype=np.int32))

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
    Small trees only; the search is exact over the full grid product.
    """
    if model.variant != cheat_model.STD:
        raise ValueError("brute force searches the standard model grid only")
    if not 1e-3 <= grid_step <= 0.5:
        raise ValueError(f"grid_step must be a finite number in [1e-3, 0.5], "
                         f"got {grid_step}")
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
    triples = [cheat_model.triple(model, e).as_tuple() for e in grid]
    target = ann.p_w_root + eps_tot * (1.0 - grid_step)

    # per node below the root, in postorder; the root is combined below
    # against the target instead of materializing its frontier
    frontier: list[_Frontier] = []
    for w, u, dn in zip(ann.p_w[:-1], ann.up, ann.down):
        frontier.append(_Frontier.leaf(w) if u < 0
                        else _combine(triples, frontier[u], frontier[dn]))

    best = None  # (pc, eps_idx, up_entry, down_entry)
    branches = _branches(triples, frontier[ann.up[-1]], frontier[ann.down[-1]])
    for e_idx, ((p0, p1, pc), (uw, uc, ui), (dw, dc, di)) in enumerate(branches):
        j = _first_feasible(p1, dw, p0 * uw, target)
        ok = j < len(dw)
        if not ok.any():
            continue
        jj = np.where(ok, j, 0)
        cand = (pc + p0 * uc) + p1 * dc[jj]
        cand[~ok] = np.inf
        i = int(np.argmin(cand))
        if best is None or cand[i] < best[0]:
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
