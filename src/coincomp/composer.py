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

The closed form is for the standard model at b > 1.  Linear detection
(b = 1) breaks its exponent 1/(b-1), and no tree is solved at b = 1: the
walk module solves only the walk game.  leading_order, a_new_of_b and
derivative_in_b check their arguments in one place, _closed_form.
exact_outcome reads only each node's (p0, p1, pc), so it takes either box.

The tree passes (leading_order, a_new_of_b, strategy_triples and
exact_outcome) read annotate's postorder columns and write into lists
made once per call, never a container per node, so a pass leaves nothing
for Python's cyclic garbage collector to scan or free.  What depends on
Delta alone, |Delta|**(b/(b-1)) in S and each node's eps, is computed
once per distinct Delta and reused: a best-of-15 tree has 12,869 internal
nodes but 26 distinct Delta.  The reused float is the one a per-node
computation would give, so the answers are unchanged bit for bit.

brute_force_min_pc checks its arguments and runs grid_oracle, the grid-search
check on the closed form, importing it (and numpy) only then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cheat_model
from .cheat_model import CheatModel, OutcomeTriple
from .game_tree import HALF_POWERS, GameTree, TreeAnnotation, annotate

Strategy = dict[str, float]


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


def _check_eps_tot(eps_tot: float) -> None:
    if not math.isfinite(eps_tot):
        raise ValueError(f"eps_tot must be finite, got {eps_tot}")
    if abs(eps_tot) > 0.5:
        raise ValueError(f"|eps_tot| must be <= 1/2, got {eps_tot}")


def _weight_sum(ann: TreeAnnotation, b: float) -> float:
    expo = b / (b - 1.0)
    weight: dict[float, float] = {}  # |Delta|**expo per distinct Delta
    total = 0.0
    for d, gap in zip(ann.depth, ann.delta):
        if gap:  # None on leaves, 0.0 where a node cannot move the outcome
            g = weight.get(gap)
            if g is None:
                g = weight[gap] = abs(gap) ** expo
            total += HALF_POWERS[d] * g
    return total


def _closed_form(name: str, tree: GameTree, a: float,
                 b: float) -> tuple[TreeAnnotation, float]:
    """The closed form's entry check; returns the annotation and S.

    CheatModel refuses a non-finite a or b, a <= 0 and b < 1; the exponent
    1/(b-1) rules out b = 1.  The tree must be fair, with an internal node.
    """
    CheatModel(a, b)
    if b == 1.0:
        raise ValueError(f"{name} requires b > 1, got {b}; at b = 1 only the "
                         "walk game is solved (walk solve), not trees")
    ann = annotate(tree)
    if ann.up[-1] < 0:
        raise ValueError("tree has no internal node; nothing to compose")
    if abs(ann.p_w_root - 0.5) > 1e-12:
        raise ValueError(f"tree is not fair: P_W(root) = {ann.p_w_root}")
    s = _weight_sum(ann, b)
    if s == 0.0:
        raise ValueError("every Delta is zero; no strategy can move the outcome")
    return ann, s


def leading_order(tree: GameTree, a: float, b: float, eps_tot: float) -> CompositionResult:
    """Closed-form optimal small-bias strategy and the composed a_new.

    Requires b > 1 and a fair tree: at b = 1 the package solves only the
    walk game, not trees.  Nodes with Delta = 0 cannot move the outcome
    and get eps = 0.  Biases exceeding 1/2 in magnitude (possible when
    b != 2) are clamped and reported through the clipped flag.
    """
    _check_eps_tot(eps_tot)
    ann, s = _closed_form("leading_order", tree, a, b)

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
    _, s = _closed_form("a_new_of_b", tree, a, b)
    return a * s ** (1.0 - b)


def derivative_in_b(tree: GameTree, a: float, b: float) -> float:
    """Exact d a_new / db = a_new (-ln S + (1-b) S'/S) = a_new (L/((b-1) S) - ln S),
    where S' = L dp/db, L = sum 2**-D |Delta|**p ln|Delta|, p = b/(b-1)."""
    ann, s = _closed_form("derivative_in_b", tree, a, b)
    expo = b / (b - 1.0)
    log_sum = 0.0
    for d, gap in zip(ann.depth, ann.delta):
        if gap:
            log_sum += HALF_POWERS[d] * abs(gap) ** expo * math.log(abs(gap))
    return a * s ** (1.0 - b) * (log_sum / ((b - 1.0) * s) - math.log(s))


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
    memo: dict[float | None, OutcomeTriple] = {}
    for i, (at, u) in enumerate(zip(ann.path, ann.up)):
        if u >= 0:
            try:
                eps = strategy[at]
            except KeyError:
                raise ValueError(f"strategy is missing node '{at}'") from None
            key = eps if eps or math.copysign(1.0, eps) > 0.0 else None
            t = memo.get(key)
            if t is None:
                t = memo[key] = cheat_model.triple(model, eps)
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
    _check_eps_tot(eps_tot)
    ann = annotate(tree)
    n_internal = sum(u >= 0 for u in ann.up)
    if n_internal == 0:
        raise ValueError("tree has no internal node; nothing to search")
    if n_internal > 5:
        raise ValueError(f"tree too large: {n_internal} internal nodes, limit 5")

    from . import grid_oracle  # numpy, loaded only when the oracle runs
    return grid_oracle.search(ann, model, eps_tot, grid_step)
