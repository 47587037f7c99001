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

In the library a tree strategy is a list of eps, 0.0 at every leaf, in
one of two lengths.  Per DAG row of annotate, one eps per distinct
subtree, is the form leading_order returns: its optimum gives equal
subtrees equal eps.  Per node, in annotate's postorder, is the form for
a strategy whose copies of a subtree may differ: strategy_from_paths and
brute_force_min_pc return it.  strategy_table, exact_outcome and
simulate.simulate_tree take either, told apart by the list's length.
The path-keyed dicts of the JSON documents exist only at that edge,
through one converter pair: strategy_to_paths writes one from either
form, strategy_from_paths reads one and refuses a missing or an extra
path.

The tree passes (leading_order, a_new_of_b, exact_outcome and
simulate_tree) read annotate's DAG columns, and its occurrence column
only for a per-node strategy, never its path column or any other
per-node view, and write into lists made once per call, never a
container per node, so a pass leaves nothing for Python's cyclic
garbage collector to scan or free.  What depends on a subtree alone is
computed once per distinct subtree: a best-of-15 tree has 12,869
internal nodes but 64 distinct internal subtrees.  _closed_form computes
|Delta|**(b/(b-1)) once per DAG row, and leading_order computes eps once
per DAG row and returns that list.  S, derivative_in_b's L and lemma_sum
are each one call of TreeAnnotation.node_sum on a value per row: one
pass over the DAG rows, children before parents, each row adding its
value to half its children's totals, so the sums cost one step per
distinct subtree.

exact_outcome and simulate_tree run one loop over one node table, made
by strategy_table, with one row per distinct subtree under the
strategy.  For a per-row strategy that is the DAG itself.  A per-node
one is read once, in postorder over the occurrence column, into one row
per distinct (eps, up row, down row): copies of a subtree whose eps
agree share a row, and copies that differ split.  The composed coin at
a node is fixed by its bias and its two children's coins, so a row's
triple and outcome depend on its subtree and its eps alone, and the
answers are those of a per-node computation bit for bit.  A per-row
strategy costs O(rows) from leading_order to the answer; a per-node
one costs one step per node to read and one per row after.

brute_force_min_pc checks its arguments and runs grid_oracle, the grid-search
check on the closed form, importing it (and numpy) only then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import cheat_model
from .cheat_model import CheatModel, OutcomeTriple
from .game_tree import GameTree, TreeAnnotation, annotate

# eps per DAG row, or per node in annotate's postorder; 0.0 at leaves
Strategy = list[float]


@dataclass(frozen=True)
class CompositionResult:
    """Leading-order optimum: composed sensitivity, multiplier, per-row biases.

    The strategy holds one eps per DAG row of annotate(tree).  The tree is
    kept for to_json_dict, which names the nodes by path; its annotation
    is not, so a held result costs its strategy plus the columns the tree
    keeps from its first annotate (see game_tree).
    """

    a_new: float
    lam: float  # Lagrange multiplier, serialized as "lambda"
    strategy: Strategy
    eps_tot: float
    predicted_pc: float
    clipped: bool
    tree: GameTree = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        by_path = strategy_to_paths(annotate(self.tree), self.strategy)
        return {
            "a_new": self.a_new,
            "lambda": self.lam,
            "eps_tot": self.eps_tot,
            "predicted_pc": self.predicted_pc,
            "clipped": self.clipped,
            "strategy": dict(sorted(by_path.items())),
        }


def strategy_to_paths(ann: TreeAnnotation, strategy: Strategy) -> dict[str, float]:
    """Path -> eps of every internal node, in postorder: the JSON edge's form.

    A per-row strategy is spread over the nodes first, each node taking
    its row's eps.
    """
    if _check_list(ann, strategy):
        strategy = list(map(strategy.__getitem__, ann.row))
    return {at: eps for at, eps, u in zip(ann.path, strategy, ann.up) if u >= 0}


def strategy_from_paths(ann: TreeAnnotation, by_path: dict[str, float]) -> Strategy:
    """The list form of a path-keyed strategy.

    Its keys must be exactly the paths of the internal nodes; leaves get 0.0.
    The eps values are checked where the list is read (strategy_table).
    """
    strategy = [0.0] * len(ann.up)
    for i, (at, u) in enumerate(zip(ann.path, ann.up)):
        if u >= 0:
            try:
                strategy[i] = by_path[at]
            except KeyError:
                raise ValueError(f"strategy is missing node '{at}'") from None
    if len(by_path) > len(ann.up) - ann.up.count(-1):
        extra = sorted(set(by_path).difference(
            at for at, u in zip(ann.path, ann.up) if u >= 0))
        raise ValueError(f"strategy names {len(extra)} paths that are not "
                         f"internal nodes, first '{extra[0]}'")
    return strategy


def _check_list(ann: TreeAnnotation, strategy: Strategy) -> bool:
    # True for a per-row strategy, False for a per-node one.  The lengths
    # are equal only when the tree has at most one Flip.  A tree of I
    # internal nodes has 2I + 1 nodes; with a Flip at the root its DAG has
    # the two leaf rows and one row per distinct Flip, at most I of them,
    # so 2I + 1 <= I + 2 and I <= 1.  That leaves a lone leaf, whose one
    # row is its one node, and Flip(Leaf, Leaf), whose rows and nodes are
    # both leaf, leaf, root.  Leaves take 0.0, so a list that either
    # reading accepts is [0.0] or [0.0, 0.0, e], and means the same table
    # in both.
    if not isinstance(strategy, list):
        raise ValueError(f"a tree strategy is a list of eps per DAG row or per "
                         f"node in postorder, got {type(strategy).__name__}; "
                         "strategy_from_paths reads a path-keyed one")
    if len(strategy) == len(ann.dag_up):
        return True
    if len(strategy) != len(ann.row):
        raise ValueError(f"strategy has {len(strategy)} entries; the tree takes "
                         f"one per DAG row ({len(ann.dag_up)}) or one per node "
                         f"({len(ann.row)})")
    return False


def _check_eps_tot(eps_tot: float) -> None:
    if type(eps_tot) is bool:
        raise ValueError(f"eps_tot must be a number, not a bool, got {eps_tot!r}")
    if not math.isfinite(eps_tot):
        raise ValueError(f"eps_tot must be finite, got {eps_tot}")
    if abs(eps_tot) > 0.5:
        raise ValueError(f"|eps_tot| must be <= 1/2, got {eps_tot}")


def _closed_form(name: str, tree: GameTree, a: float,
                 b: float) -> tuple[TreeAnnotation, float, list[float]]:
    """The closed form's entry check; returns the annotation, S and the
    weight |Delta|**(b/(b-1)) of each DAG row, 0.0 on leaves and where
    Delta = 0.

    CheatModel refuses a non-finite a or b, a <= 0 and b < 1; the exponent
    1/(b-1) rules out b = 1.  The tree must be fair, with an internal node.
    """
    CheatModel(a, b)
    if b == 1.0:
        raise ValueError(f"{name} requires b > 1, got {b}; at b = 1 only the "
                         "walk game is solved (walk solve), not trees")
    ann = annotate(tree)
    if ann.dag_up[-1] < 0:
        raise ValueError("tree has no internal node; nothing to compose")
    if abs(ann.p_w_root - 0.5) > 1e-12:
        raise ValueError(f"tree is not fair: P_W(root) = {ann.p_w_root}")
    expo = b / (b - 1.0)
    weight = [abs(gap) ** expo if gap else 0.0 for gap in ann.dag_delta]
    # S > 0: the deepest node whose P_W is neither 0 nor 1 (the root's is
    # near 1/2, so there is one, at depth <= 51) has |Delta| = 1.  node_sum
    # adds nonnegative values, whose rounding is monotone, and halves
    # exactly, so that row's weight of 1 reaches the root as at least
    # 2**-51 and S >= 2**-51
    return ann, ann.node_sum(weight), weight


def leading_order(tree: GameTree, a: float, b: float, eps_tot: float) -> CompositionResult:
    """Closed-form optimal small-bias strategy and the composed a_new.

    The strategy has one eps per DAG row of annotate(tree).  Requires b > 1
    and a fair tree: at b = 1 the package solves only the walk game, not
    trees.  Nodes with Delta = 0 cannot move the outcome and get eps = 0,
    as do the leaves.  Biases exceeding 1/2 in magnitude (possible when
    b != 2) are clamped and reported through the clipped flag.
    """
    _check_eps_tot(eps_tot)
    ann, s, _ = _closed_form("leading_order", tree, a, b)

    expo = 1.0 / (b - 1.0)
    by_row = [0.0] * len(ann.dag_delta)
    clipped = False
    for k, gap in enumerate(ann.dag_delta):
        if gap:  # None on leaves, 0.0 where a node cannot move the outcome
            eps = eps_tot * math.copysign(abs(gap) ** expo, gap) / s
            if abs(eps) > 0.5:
                eps = math.copysign(0.5, eps)
                clipped = True
            by_row[k] = eps

    a_new = a * s ** (1.0 - b)
    lam = math.copysign(a * b * (abs(eps_tot) / s) ** (b - 1.0), eps_tot)
    predicted_pc = a_new * abs(eps_tot) ** b
    return CompositionResult(a_new, lam, by_row, eps_tot, predicted_pc, clipped,
                             tree)


def a_new_of_b(tree: GameTree, a: float, b: float) -> float:
    """Composed sensitivity a * S**(1-b) without building the strategy."""
    _, s, _ = _closed_form("a_new_of_b", tree, a, b)
    return a * s ** (1.0 - b)


def derivative_in_b(tree: GameTree, a: float, b: float) -> float:
    """Exact d a_new / db = a_new (-ln S + (1-b) S'/S) = a_new (L/((b-1) S) - ln S),
    where S' = L dp/db, L = sum 2**-D |Delta|**p ln|Delta|, p = b/(b-1)."""
    ann, s, weight = _closed_form("derivative_in_b", tree, a, b)
    # each row's value is the float w ln|Delta|, and node_sum's halvings
    # are exact above the subnormal range, so L is summed as S is, from
    # the same rows; every value is <= 0, as |Delta| <= 1
    log_sum = ann.node_sum([w * math.log(abs(gap)) if w else 0.0
                            for w, gap in zip(weight, ann.dag_delta)])
    return a * s ** (1.0 - b) * (log_sum / ((b - 1.0) * s) - math.log(s))


def _triples(up, model: CheatModel, strategy) -> tuple[list[float], ...]:
    # p0, p1 and pc per DAG row of a per-row strategy, leaf rows (up < 0)
    # at 0.0.  Each distinct eps is checked by model.check_eps where it
    # first appears, in row order.
    memo: dict[float, int] = {}
    keys = []
    for i, (eps, u) in enumerate(zip(strategy, up)):
        if u < 0:
            if eps != 0.0:
                raise ValueError(f"strategy gives eps = {eps!r} to the leaf at "
                                 f"DAG row {i}; leaves take 0.0")
            keys.append(-1)
            continue
        k = memo.get(eps)
        if k is None:
            model.check_eps(eps)
            k = memo[eps] = len(memo)
        keys.append(k)
    return _gather(model, memo, keys)


def _gather(model: CheatModel, memo: dict,
            keys: list[int]) -> tuple[list[float], ...]:
    # the triple columns of a table whose row reads memo's eps number
    # keys[row], or 0.0 for a leaf's key -1: one cheat_model.columns call
    # over the distinct, checked eps, each the scalar triple bit for bit
    cols = cheat_model.columns(model, list(memo))
    for col in cols:
        col.append(0.0)  # what key -1 reads
    return tuple([col[k] for k in keys] for col in cols)


def _node_rows(ann: TreeAnnotation, model: CheatModel,
               strategy: Strategy) -> tuple[list, ...]:
    # A per-node strategy read once, in postorder, into rows keyed by
    # (eps, up row, down row), the leaves rows 0 and 1 by label.  `top` is
    # the row of the last subtree read, and `stack` holds the rows of the
    # earlier subtrees whose parent is still to come.  Only a tree with two
    # or more Flips gets here (see _check_list), so its leaves are DAG rows
    # 0 and 1.  A key met before has an eps equal to one already checked;
    # a new key checks its eps unless an equal one was.  Counting positions
    # (enumerate) made the loop about 40% slower, so a leaf's refusal looks
    # its position up again: the first leaf whose eps is not 0.0.
    dag_p_w = ann.dag_p_w
    memo: dict[float, int] = {}
    rows: dict[tuple, int] = {}
    p_w, up, down, keys = [1.0, 0.0], [-1, -1], [-1, -1], [-1, -1]
    stack: list[int] = []
    top = -1
    for k, eps in zip(ann.row, strategy):
        if k < 2:
            if eps != 0.0:
                i = next(i for i, (j, e) in enumerate(zip(ann.row, strategy))
                         if j < 2 and e != 0.0)
                raise ValueError(f"strategy gives eps = {eps!r} to the leaf at "
                                 f"postorder position {i}; leaves take 0.0")
            stack.append(top)
            top = k
            continue
        u = stack.pop()
        key = eps, u, top
        r = rows.get(key)
        if r is None:
            e = memo.get(eps)
            if e is None:
                model.check_eps(eps)
                e = memo[eps] = len(memo)
            r = rows[key] = len(up)
            p_w.append(dag_p_w[k])
            up.append(u)
            down.append(top)
            keys.append(e)
        top = r
    return (p_w, up, down, *_gather(model, memo, keys))


def strategy_table(ann: TreeAnnotation, model: CheatModel,
                   strategy: Strategy) -> tuple[list, ...]:
    """The node table a tree pass runs on: (P_W, up, down, p0, p1, pc) columns.

    A per-row strategy gives the DAG, one row per distinct subtree, built
    straight from the list.  A per-node one is read once, in postorder,
    into one row per distinct (eps, up row, down row), the leaves rows 0
    and 1: copies of a subtree whose eps agree share a row, and copies
    that differ split.  Either way children come before parents, the
    root is last, leaves have up and down -1, and every row's triple is
    that of each node it stands for.  The strategy is checked as it is
    read, in row order for a per-row strategy and in postorder for a
    per-node one: each leaf's eps, and each distinct eps where it first
    appears, so the first refusal is the first bad entry in that order.
    """
    # 0.0 and -0.0 are one key here, in the memos and in _node_rows' rows,
    # though the prime model's pc = a*eps keeps the sign.  No answer can
    # see it: p0 and p1 are the same floats at either zero in both boxes;
    # pc enters only exact_outcome's pc + p0*oc[u] + p1*oc[dn], where every
    # child's catch is +0.0 or positive (a leaf's is +0.0), so a -0.0 pc
    # gives the same bits; and simulate's tables read only p0 and p0 + p1.
    if not _check_list(ann, strategy):
        return _node_rows(ann, model, strategy)
    return (ann.dag_p_w, ann.dag_up, ann.dag_down,
            *_triples(ann.dag_up, model, strategy))


def exact_outcome(tree: GameTree, model: CheatModel, strategy: Strategy) -> OutcomeTriple:
    """Exact game outcome (p0, p1, pc) under a per-row or per-node strategy.

    No leading-order approximation: one bottom-up pass over strategy_table's
    rows, weighting children by the row's triple and accumulating catch
    mass along the way, into one preallocated column per outcome.
    """
    p_w, up, down, *triples = strategy_table(annotate(tree), model, strategy)
    size = len(up)
    o0, o1, oc = [0.0] * size, [0.0] * size, [0.0] * size
    for i, (w, u, dn, p0, p1, pc) in enumerate(zip(p_w, up, down, *triples)):
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
    returns a strategy of minimum exact catch probability, a per-node list
    in annotate's postorder (copies of a subtree may differ), and that
    minimum.
    eps_tot must be finite with |eps_tot| <= 1/2.  Small trees only; the
    search is exact over the full grid product.  A one-pass search for the
    largest win comes first, and a target that no grid strategy reaches is
    refused before any frontier is built.  The least catch of a few grid
    strategies that reach the target (the leading-order shape scaled along
    the grid, and the largest-win strategy) then bounds the minimum, and
    each node is built only up to the catch its parent can use under that
    bound, which changes no answer.  A tree is refused when a node, under
    its cap, covers more than 10,000,000 grid combinations.
    """
    if model.variant != cheat_model.STD:
        raise ValueError("brute force searches the standard model grid only")
    if not 1e-3 <= grid_step <= 0.5:
        raise ValueError(f"grid_step must be a finite number in [1e-3, 0.5], "
                         f"got {grid_step}")
    _check_eps_tot(eps_tot)
    ann = annotate(tree)
    # rows 0 and 1 are the leaves, so the occurrence column counts the
    # internal nodes without the per-node up view
    n_internal = len(ann.row) - ann.row.count(0) - ann.row.count(1)
    if n_internal == 0:
        raise ValueError("tree has no internal node; nothing to search")
    if n_internal > 5:
        raise ValueError(f"tree too large: {n_internal} internal nodes, limit 5")

    from . import grid_oracle  # numpy, loaded only when the oracle runs
    return grid_oracle.search(ann, model, eps_tot, grid_step)
