"""Leading-order composition, exact evaluation, and the grid-search oracle."""

import hashlib
import gc
import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coincomp import cheat_model, composer, game_tree, grid_oracle, simulate
from coincomp.cheat_model import CheatModel
from conftest import (SMALL_SUITE, deep_chain, generated_trees, json_digest,
                      per_node, table_rows, unshared)


def by_path(tree, strategy):
    """A library strategy list as the JSON edge's path -> eps dict."""
    return composer.strategy_to_paths(game_tree.annotate(tree), strategy)


def from_paths(tree, strategy):
    """A path -> eps dict as the library's strategy list."""
    return composer.strategy_from_paths(game_tree.annotate(tree), strategy)


def literal_grid_min(tree, model, eps_tot, grid_step):
    """Reference oracle: enumerate every grid strategy with itertools.

    Keeps the lexicographically smallest strategy vector (paths sorted)
    among equal minima, matching the documented tie-break.
    """
    ann = game_tree.annotate(tree)
    paths = sorted(p for p, _ in ann.internal())
    k_max = int(0.5 / grid_step + 1e-9)
    grid = [k * grid_step for k in range(-k_max, k_max + 1)]
    grid = [e for e in grid
            if abs(e) <= 0.5 and model.a * abs(e) ** model.b <= 1.0]
    target = ann.p_w_root + eps_tot * (1.0 - grid_step)
    best = None
    best_vec = None
    for combo in itertools.product(grid, repeat=len(paths)):
        strategy = composer.strategy_from_paths(ann, dict(zip(paths, combo)))
        t = composer.exact_outcome(tree, model, strategy)
        if t.p0 >= target and (best is None or t.pc < best
                               or (t.pc == best and combo < best_vec)):
            best = t.pc
            best_vec = combo
    if best is None:
        raise ValueError("infeasible")
    return dict(zip(paths, best_vec)), best


# The grid oracle with one Python pass per grid point at every node, and at
# the root in grid order: the reference that brute_force_min_pc's whole-grid
# array passes must match byte for byte.  Its Pareto prune and feasibility
# search are its own, kept as they were before the root searched live
# slices, so the oracle is checked against that code and not against itself.

def _reference_pareto(w, c) -> np.ndarray:
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


def _reference_first_feasible(p1, down_w, rhs_base, target):
    """Per up-entry, smallest down index j with rhs_base + p1*down_w[j] >= target.

    searchsorted on the divided threshold can be off by an ulp, so the result
    is corrected in both directions against the exact comparison.  Returns
    len(down_w) where nothing is feasible.  At p1 = 0 the down side is the
    one-entry frontier of an unreachable branch, and the corrections settle
    whatever index the division gives in at most one step.
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


def _reference_branches(triples, up, down) -> list:
    """Per grid point, its triple and the (w, c, index) each child enters with."""
    absent = (np.zeros(1), np.zeros(1), np.full(1, -1, dtype=np.int32))
    u = (up.w, up.c, np.arange(len(up), dtype=np.int32))
    d = (down.w, down.c, np.arange(len(down), dtype=np.int32))
    return [(t, u if t[0] > 0.0 else absent, d if t[1] > 0.0 else absent)
            for t in triples]


def _reference_grid(model, grid_step) -> list:
    kmax = int(math.floor(0.5 / grid_step + 1e-9))
    grid = [k * grid_step for k in range(-kmax, kmax + 1)]
    return [e for e in grid
            if abs(e) <= 0.5 and model.a * abs(e) ** model.b <= 1.0]


def _reference_combine(triples, up, down):
    branches = _reference_branches(triples, up, down)
    total = sum(len(u[0]) * len(d[0]) for _, u, d in branches)
    if total > grid_oracle._MAX_COMBOS:
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

    w, c, e, u, d = (np.concatenate(x) for x in (ws, cs, es, us, ds))
    sel = _reference_pareto(w, c)
    return grid_oracle._Frontier(w[sel], c[sel], e[sel], u[sel], d[sel])


def reference_brute_force_min_pc(tree, model, eps_tot, grid_step):
    if model.variant != cheat_model.STD:
        raise ValueError("brute force searches the standard model grid only")
    if not 1e-3 <= grid_step <= 0.5:
        raise ValueError(f"grid_step must be a finite number in [1e-3, 0.5], "
                         f"got {grid_step}")
    ann = game_tree.annotate(tree)
    n_internal = sum(u >= 0 for u in ann.up)
    if n_internal == 0:
        raise ValueError("tree has no internal node; nothing to search")
    if n_internal > 5:
        raise ValueError(f"tree too large: {n_internal} internal nodes, limit 5")

    grid = _reference_grid(model, grid_step)
    triples = [cheat_model.triple(model, e).as_tuple() for e in grid]
    target = ann.p_w_root + eps_tot * (1.0 - grid_step)

    # per node below the root, in postorder; the root is combined below
    # against the target instead of materializing its frontier
    frontier = []
    for w, u, dn in zip(ann.p_w[:-1], ann.up, ann.down):
        frontier.append(grid_oracle._Frontier.leaf(w) if u < 0
                        else _reference_combine(triples, frontier[u], frontier[dn]))

    best = None  # (pc, eps_idx, up_entry, down_entry)
    branches = _reference_branches(triples, frontier[ann.up[-1]],
                                   frontier[ann.down[-1]])
    for e_idx, ((p0, p1, pc), (uw, uc, ui), (dw, dc, di)) in enumerate(branches):
        j = _reference_first_feasible(p1, dw, p0 * uw, target)
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
    # (a strategy list in postorder, 0.0 where the cheater plays honestly)
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


# the leading-order pins run at a = 0.75 on these trees, b in {1.5, 2, 3}
# and eps_tot in {0.05, -1/2}
LEADING_ORDER_TREES = {"best-of-5": game_tree.gen_best_of(5),
                       "best-of-15": game_tree.gen_best_of(15),
                       "full(4)": game_tree.gen_full(4, [0, 1] * 8),
                       "random-fair(6,1)": game_tree.gen_random_fair(6, 1)}


class TestLeadingOrder:
    def test_quadratic_is_fixed_point(self, fair_tree):
        for a in (0.5, 1.0, 2.0):
            res = composer.leading_order(fair_tree, a, 2.0, 0.1)
            assert abs(res.a_new - a) <= 1e-10 * a

    def test_quadratic_strategy_is_eps_tot_times_delta(self, fair_tree):
        res = composer.leading_order(fair_tree, 1.0, 2.0, 0.1)
        ann = game_tree.annotate(fair_tree)
        strategy = by_path(fair_tree, res.strategy)
        for path, info in ann.internal():
            assert abs(strategy[path] - 0.1 * info.delta) <= 1e-12

    def test_cubic_pinned_value(self, bo3):
        # S = (1/2)^{3/2} + 2 (1/2)(1/2)^{3/2} + 2 (1/4) = 1.20710678...
        # a_new = a S^{1-b} = S^{-2}
        res = composer.leading_order(bo3, 1.0, 3.0, 0.01)
        s = 2.0 ** -1.5 + 2.0 * 0.5 * 2.0 ** -1.5 + 2.0 * 0.25
        assert math.isclose(res.a_new, s ** -2, rel_tol=1e-14)
        assert math.isclose(res.a_new, 0.6862915010152397, rel_tol=1e-14)

    def test_predicted_pc_uses_composed_sensitivity(self, bo3):
        res = composer.leading_order(bo3, 1.0, 3.0, 0.02)
        assert math.isclose(res.predicted_pc, res.a_new * 0.02 ** 3,
                            rel_tol=1e-14)

    def test_multiplier_matches_stationarity(self, fair_tree):
        # at the optimum, a b eps(x)^{b-1} = lambda Delta(x) wherever
        # Delta != 0, so lambda is recoverable from any active node
        a, b, eps_tot = 1.0, 2.5, 0.05
        res = composer.leading_order(fair_tree, a, b, eps_tot)
        ann = game_tree.annotate(fair_tree)
        strategy = by_path(fair_tree, res.strategy)
        for path, info in ann.internal():
            if abs(info.delta) < 1e-15 or res.clipped:
                continue
            eps = strategy[path]
            lhs = math.copysign(a * b * abs(eps) ** (b - 1.0), eps)
            assert math.isclose(lhs, res.lam * info.delta,
                                rel_tol=1e-10, abs_tol=1e-15)

    def test_zero_eps_tot_gives_honest_strategy(self, fair_tree):
        res = composer.leading_order(fair_tree, 1.0, 2.0, 0.0)
        assert all(v == 0.0 for v in res.strategy)
        assert res.predicted_pc == 0.0
        assert not res.clipped

    def test_negative_eps_tot_flips_signs(self, bo3):
        pos = composer.leading_order(bo3, 1.0, 2.0, 0.1)
        neg = composer.leading_order(bo3, 1.0, 2.0, -0.1)
        for eps, flipped in zip(pos.strategy, neg.strategy, strict=True):
            assert flipped == -eps
        assert neg.a_new == pos.a_new
        assert neg.lam == -pos.lam

    def test_linear_b_is_rejected_toward_walk(self, bo3):
        with pytest.raises(ValueError, match="walk"):
            composer.leading_order(bo3, 1.0, 1.0, 0.1)

    @pytest.mark.parametrize("a,b,eps_tot", [
        (math.inf, 2.0, 0.1), (1.0, math.nan, 0.1), (1.0, math.inf, 0.1),
        (1.0, 2.0, math.nan),
    ])
    def test_non_finite_inputs_rejected(self, bo3, a, b, eps_tot):
        with pytest.raises(ValueError, match="finite"):
            composer.leading_order(bo3, a, b, eps_tot)

    def test_unfair_tree_rejected(self):
        tree = game_tree.gen_full(2, [0, 0, 0, 1])
        with pytest.raises(ValueError):
            composer.leading_order(tree, 1.0, 2.0, 0.1)

    def test_leafless_tree_rejected(self):
        with pytest.raises(ValueError):
            composer.leading_order(game_tree.Leaf(0), 1.0, 2.0, 0.1)

    def test_oversized_eps_tot_rejected(self, bo3):
        with pytest.raises(ValueError):
            composer.leading_order(bo3, 1.0, 2.0, 0.51)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_eps_tot_rejected(self, bo3, flag):
        with pytest.raises(ValueError, match=f"^eps_tot must be a number, not a bool, got {flag}$"):
            composer.leading_order(bo3, 1.0, 2.0, flag)

    def test_int_eps_tot_taken(self, bo3):
        assert composer.leading_order(bo3, 1, 2, 0) == composer.leading_order(bo3, 1.0, 2.0, 0.0)

    def test_a_case_clips(self):
        # best-of-5 at b = 1.5, eps_tot = -1/2 clips six of its 19 nodes
        tree = LEADING_ORDER_TREES["best-of-5"]
        res = composer.leading_order(tree, 0.75, 1.5, -0.5)
        assert res.clipped
        assert 0 < sum(abs(e) == 0.5 for e in per_node(tree, res.strategy)) < 19

    def test_clipping_flagged(self):
        # a unit-delta node wants eps = eps_tot * S^{-1/(b-1)} ... large
        # eps_tot with a spread-out tree pushes per-node eps past 1/2
        tree = game_tree.gen_best_of(7)
        res = composer.leading_order(tree, 1.0, 1.2, 0.5)
        assert res.clipped
        assert all(abs(v) <= 0.5 for v in res.strategy)

    def test_unclipped_for_small_bias(self, fair_tree):
        res = composer.leading_order(fair_tree, 1.0, 2.0, 0.01)
        assert not res.clipped

    def test_json_dict_shape(self, bo3):
        res = composer.leading_order(bo3, 1.0, 2.0, 0.1)
        d = res.to_json_dict()
        assert set(d) == {"a_new", "lambda", "eps_tot", "predicted_pc",
                          "clipped", "strategy"}
        assert list(d["strategy"]) == sorted(d["strategy"])


@pytest.mark.parametrize("a,b,message", [
    pytest.param(math.nan, 2.0, "a and b must be finite, got a = nan, b = 2.0",
                 id="nan-2.0-a must be finite"),
    pytest.param(math.inf, 2.0, "a and b must be finite, got a = inf, b = 2.0",
                 id="inf-2.0-a must be finite"),
    (-1.0, 2.0, "a must be positive"), (0.0, 2.0, "a must be positive"),
    (1.0, math.nan, "b must be finite"), (1.0, math.inf, "b must be finite"),
    (1.0, -math.inf, "b must be finite"), (1.0, 1.0, "requires b > 1"),
    pytest.param(1.0, 0.5, "b must be >= 1, got 0.5",
                 id="1.0-0.5-requires b > 1"),
])
@pytest.mark.parametrize("call", [
    lambda tree, a, b: composer.leading_order(tree, a, b, 0.1),
    composer.a_new_of_b,
    composer.derivative_in_b,
], ids=["leading_order", "a_new_of_b", "derivative_in_b"])
def test_detection_parameters_checked(bo3, call, a, b, message):
    # a_new_of_b returned nan at a = nan or b = inf, and -1.0 at a = -1;
    # CheatModel words every check but the b = 1 refusal
    with pytest.raises(ValueError, match=message):
        call(bo3, a, b)


CLOSED_FORM_CALLS = {
    "leading_order": lambda tree, a, b: composer.leading_order(tree, a, b, 0.1),
    "a_new_of_b": composer.a_new_of_b,
    "derivative_in_b": composer.derivative_in_b,
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CALLS))
def test_closed_form_refusals_worded_once(bo3, name):
    call = CLOSED_FORM_CALLS[name]
    # b = 1: the message names the call and the walk, the one game solved there
    with pytest.raises(ValueError, match=re.escape(
            f"{name} requires b > 1, got 1.0; at b = 1 only the walk game is "
            "solved (walk solve), not trees")):
        call(bo3, 1.0, 1.0)
    for tree, message in [
            (game_tree.Leaf(0), "tree has no internal node; nothing to compose"),
            (game_tree.gen_full(2, [0, 0, 0, 1]), "tree is not fair: P_W(root) = 0.75")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            call(tree, 1.0, 2.0)


@st.composite
def fair_trees(draw):
    """gen_random_fair, best-of and gen_full trees with as many 0 as 1 leaves."""
    kind = draw(st.sampled_from(["random-fair", "best-of", "full"]))
    if kind == "random-fair":
        return game_tree.gen_random_fair(draw(st.integers(1, 10)),
                                         draw(st.integers(0, 2 ** 32)))
    if kind == "best-of":
        return game_tree.gen_best_of(draw(st.sampled_from(range(1, 16, 2))))
    depth = draw(st.integers(1, 8))
    return game_tree.gen_full(depth, draw(st.permutations([0, 1] * 2 ** (depth - 1))))


@settings(max_examples=60, deadline=None)
@given(tree=fair_trees())
# the deepest node whose P_W is neither 0 nor 1 at depth 51, the deepest
# it can be: S is then 2**-51 and a little more from the nodes above it
@example(tree=game_tree.Flip(deep_chain(51), game_tree.mirror(deep_chain(51))))
def test_fair_tree_weight_sum_is_at_least_2_to_minus_52(tree):
    # A fair tree's deepest node whose P_W is neither 0 nor 1 has children
    # of P_W 0 and 1, so |Delta| = 1 there; it sits at depth <= 51, and
    # node_sum halves exactly and rounds sums of nonnegative values
    # monotonely, so its weight of 1 reaches S as at least 2**-51 at every
    # b > 1.  S = 0 never reaches the closed form's power of S.
    ann = game_tree.annotate(tree)
    assert ann.p_w_root == 0.5
    assert any(abs(x) == 1.0 and d <= 51 for d, x in zip(ann.depth, ann.delta)
               if x is not None)
    for b in (1.5, 2.0, 3.0):
        _, s, weight = composer._closed_form("test", tree, 1.0, b)
        assert s >= 2.0 ** -52
        # one weight per DAG row: |Delta|**(b/(b-1)), 0.0 on leaves and
        # where Delta = 0
        assert weight == [abs(x) ** (b / (b - 1.0)) if x else 0.0
                          for x in ann.dag_delta]


def _postorder_deltas(node, out):
    """P_W of the subtree, from its leaves; appends each node's Delta (None
    on leaves) to `out` in postorder, up subtree, down subtree, node."""
    if isinstance(node, game_tree.Leaf):
        out.append(None)
        return 1.0 if node.label == 0 else 0.0
    pu = _postorder_deltas(node.up, out)
    pd = _postorder_deltas(node.down, out)
    out.append(pu - pd)
    return (pu + pd) / 2.0


def _weights(b):
    """S's value of a node's Delta at b, |Delta|**(b/(b-1)) (0.0 where
    Delta = 0), and derivative_in_b's L value, that times ln|Delta|."""
    p = b / (b - 1.0)

    def weight(gap):
        return abs(gap) ** p if gap else 0.0

    def log_weight(gap):
        w = weight(gap)
        return w * math.log(abs(gap)) if w else 0.0

    return weight, log_weight


def _object_sum(node, value, memo):
    """(P_W, sum) of the subtree, from the Flip and Leaf objects alone: a
    node's sum is value(Delta) plus half the sum of its children's sums.
    `memo` holds each object worked out so far, by identity."""
    got = memo.get(id(node))
    if got is None:
        if isinstance(node, game_tree.Leaf):
            got = (1.0 if node.label == 0 else 0.0), 0.0
        else:
            pu, su = _object_sum(node.up, value, memo)
            pd, sd = _object_sum(node.down, value, memo)
            got = (pu + pd) / 2.0, value(pu - pd) + 0.5 * (su + sd)
        memo[id(node)] = got
    return got


@settings(max_examples=25, deadline=None)
@given(tree=st.one_of(generated_trees(), fair_trees()), copy=st.booleans())
# on each of these, a loop adding one term per node in postorder, one
# adding a reach weight times the value per DAG row, and math.fsum each
# give a float that differs from the pass in its last bits
@example(tree=game_tree.gen_best_of(7), copy=False)
@example(tree=game_tree.gen_best_of(11), copy=True)
def test_sums_match_a_recursion_over_the_objects(tree, copy):
    # S, derivative_in_b's L and lemma_sum, and the strategy eps_tot *
    # sign(Delta) |Delta|**(1/(b-1)) / S clamped at 1/2, bit for bit
    # against a recursion over the tree's objects that reads no annotation
    # column.  An unshared copy has one DAG row per node; copies stop at
    # best-of-11's 1,847 nodes, so that the test stays well under a second
    deltas = []
    p_w_root = _postorder_deltas(tree, deltas)
    if copy and len(deltas) < 2000:
        tree = unshared(tree)
    lemma = _object_sum(tree, lambda gap: gap * gap, {})[1]
    assert game_tree.lemma_sum(tree).hex() == lemma.hex()
    if p_w_root != 0.5:
        return
    for b in (1.0001, 1.01, 1.05, 1.5, 2.0, 3.0, 17.0):
        weight, log_weight = _weights(b)
        s = _object_sum(tree, weight, {})[1]
        log_sum = _object_sum(tree, log_weight, {})[1]
        assert composer._closed_form("test", tree, 1.0, b)[1].hex() == s.hex()
        want = s ** (1.0 - b) * (log_sum / ((b - 1.0) * s) - math.log(s))
        assert composer.derivative_in_b(tree, 1.0, b).hex() == want.hex()
        res = composer.leading_order(tree, 1.0, b, 0.05)
        assert [eps.hex() for eps in per_node(tree, res.strategy)] == \
            _object_strategy(tree, b, 0.05)


def _object_strategy(tree, b, eps_tot):
    """leading_order's strategy per node in postorder, as float.hex, from
    the Flip and Leaf objects alone: eps_tot * sign(Delta) *
    |Delta|**(1/(b-1)) / S clamped at 1/2, and 0.0 on leaves and where
    Delta = 0."""
    deltas = []
    _postorder_deltas(tree, deltas)
    s = _object_sum(tree, _weights(b)[0], {})[1]
    strategy = []
    for x in deltas:
        eps = 0.0
        if x:
            eps = eps_tot * math.copysign(abs(x) ** (1.0 / (b - 1.0)), x) / s
            eps = max(-0.5, min(0.5, eps))
        strategy.append(eps.hex())
    return strategy


ACCURACY_TREES = {f"best-of-{n}": game_tree.gen_best_of(n) for n in range(3, 16, 2)}
ACCURACY_TREES.update((f"full({d})", game_tree.gen_full(d, [0, 1] * 2 ** (d - 1)))
                      for d in range(1, 9))
ACCURACY_TREES.update((f"random-fair({d},{d})", game_tree.gen_random_fair(d, d))
                      for d in range(4, 11))
ACCURACY_TREES.update((f"unshared {name}", unshared(ACCURACY_TREES[name]))
                      for name in ("best-of-9", "full(8)", "random-fair(10,10)"))


@pytest.mark.parametrize("name", sorted(ACCURACY_TREES))
def test_sums_within_rounding_of_the_exact_sum(name):
    # node_sum rounds twice per level of its pass over nonnegative (for L,
    # nonpositive) values, so S, L and lemma_sum lie within 2 * height *
    # 2**-53 of the exact sum, over the nodes, of 2**-D times the float
    # value of the node's row; a loop of one term per node in postorder
    # drifted 16 times past that on best-of-15 at b = 3
    tree = ACCURACY_TREES[name]
    ann = game_tree.annotate(tree)
    reach = {}  # Delta -> the sum of 2**(52 - D) over its nodes, an exact int
    for d, gap in zip(ann.depth, ann.delta):
        if gap is not None:
            reach[gap] = reach.get(gap, 0) + 2 ** (game_tree.MAX_DEPTH - d)
    bound = Fraction(2 * max(ann.depth), 2 ** 53)

    def assert_close(got, value):
        exact = sum(Fraction(value(gap)) * count for gap, count in reach.items())
        exact /= 2 ** game_tree.MAX_DEPTH
        assert abs(Fraction(got) - exact) <= bound * abs(exact)

    assert_close(game_tree.lemma_sum(tree), lambda gap: gap * gap)
    for b in (1.05, 1.5, 2.0, 3.0, 17.0):
        weight, log_weight = _weights(b)
        assert_close(composer._closed_form("test", tree, 1.0, b)[1], weight)
        assert_close(ann.node_sum(list(map(log_weight, ann.dag_delta))), log_weight)


class TestANewOfB:
    def test_matches_leading_order(self, bo3):
        for tree in (bo3, *LEADING_ORDER_TREES.values()):
            for b in (1.5, 2.0, 3.0):
                assert composer.a_new_of_b(tree, 0.75, b) == \
                    composer.leading_order(tree, 0.75, b, 0.01).a_new

    def test_bool_a_rejected(self, bo3):
        with pytest.raises(ValueError, match="^a must be a number, not a bool, got True$"):
            composer.a_new_of_b(bo3, True, 2.0)

    def test_scales_linearly_in_a(self, bo3):
        one = composer.a_new_of_b(bo3, 1.0, 2.5)
        two = composer.a_new_of_b(bo3, 2.0, 2.5)
        assert math.isclose(two, 2.0 * one, rel_tol=1e-14)


class TestDerivativeInB:
    TREES = {"best-of-3": game_tree.gen_best_of(3),
             "best-of-9": game_tree.gen_best_of(9),
             "random-fair(6,1)": game_tree.gen_random_fair(6, 1)}

    @pytest.mark.parametrize("name", sorted(TREES))
    @pytest.mark.parametrize("b", [1.3, 1.5, 2.0, 3.0])
    def test_against_central_difference(self, name, b):
        # at h = 1e-4 the difference's truncation error (order h**2) and its
        # rounding error (order 1e-16 / h) stay below 1e-6 relative: the
        # worst case here, best-of-3 at b = 1.3, is off by 1.4e-7
        tree, h = self.TREES[name], 1e-4
        d = composer.derivative_in_b(tree, 1.0, b)
        fd = (composer.a_new_of_b(tree, 1.0, b + h)
              - composer.a_new_of_b(tree, 1.0, b - h)) / (2.0 * h)
        assert math.isclose(d, fd, rel_tol=1e-6)

    def test_bo3_closed_form_at_b2(self, bo3):
        # best-of-3 has S = 2 * 2**-p + 1/2 and L = sum 2**-D |Delta|**p
        # ln|Delta| = 2**-p ln(1/2) * 2; at b = p = 2, S = 1 and the
        # derivative a_new (L / ((b-1) S) - ln S) is -ln(2)/2
        assert math.isclose(composer.derivative_in_b(bo3, 1.0, 2.0),
                            -math.log(2.0) / 2.0, rel_tol=1e-14)

    def test_one_flip_derivative_is_zero(self):
        # a single unit-delta node has S = 2^-0 * 1 = 1 for every b
        tree = game_tree.gen_full(1, [0, 1])
        assert composer.derivative_in_b(tree, 1.0, 2.0) == 0.0


def exact_pass(tree, ann, triples):
    """The tree's outcome (p0, p1, pc) in Fractions, reading each internal
    node's float triple (postorder columns, as composer._triples returns
    them over the tree's per-node up column) exactly."""
    by_path = {at: t for at, *t in zip(ann.path, *triples)}

    def visit(node, at):
        if isinstance(node, game_tree.Leaf):
            return Fraction(1 - node.label), Fraction(node.label), Fraction(0)
        p0, p1, pc = map(Fraction, by_path[at])
        u0, u1, uc = visit(node.up, at + "U")
        d0, d1, dc = visit(node.down, at + "D")
        return p0 * u0 + p1 * d0, p0 * u1 + p1 * d1, pc + p0 * uc + p1 * dc

    return visit(tree, "")


# every |eps| <= 0.3 keeps a*|eps|**b <= 1 for the std models below; the
# prime box at a = 1 takes 0 <= eps <= 1/4
_EPS_VALUES = [0.0, -0.0, 0.3, -0.3, 0.05, -0.125, 0.01, 1e-9, -0.2999]
_PRIME_EPS_VALUES = [0.0, -0.0, 0.25, 0.05, 0.125, 0.01, 1e-9, 0.2499]
_OUTCOME_MODELS = [CheatModel(1.0, 2.0), CheatModel(0.5, 1.5),
                   CheatModel(4.0, 1.5), CheatModel(2.0, 3.0)]
_PRIME = CheatModel(1.0, 1.0, cheat_model.PRIME)


class TestExactOutcome:
    @settings(max_examples=80, deadline=None)
    @given(tree=generated_trees(), seed=st.integers(0, 2 ** 32),
           model=st.sampled_from(_OUTCOME_MODELS + [_PRIME]))
    def test_within_bound_of_exact_pass(self, tree, seed, model):
        # on the package's own float triples, each outcome is within 1e-15
        # of the exact value (the worst seen in 306 draws is 1.4e-16)
        ann = game_tree.annotate(tree)
        values = _PRIME_EPS_VALUES if model == _PRIME else _EPS_VALUES
        pick = random.Random(seed).choice
        strategy = composer.strategy_from_paths(
            ann, {p: pick(values) for p, _ in ann.internal()})
        got = composer.exact_outcome(tree, model, strategy)
        want = exact_pass(tree, ann, composer._triples(ann.up, model, strategy))
        for x, y in zip(got, want):
            assert abs(Fraction(x) - y) <= 1e-15

    def test_honest_play(self, fair_tree):
        ann = game_tree.annotate(fair_tree)
        strategy = [0.0] * len(ann.up)
        t = composer.exact_outcome(fair_tree, CheatModel(1.0, 2.0), strategy)
        assert t.p0 == ann.p_w_root
        assert t.p1 == 1.0 - ann.p_w_root
        assert t.pc == 0.0

    def test_probabilities_sum_to_one(self, fair_tree):
        res = composer.leading_order(fair_tree, 1.0, 2.0, 0.15)
        t = composer.exact_outcome(fair_tree, CheatModel(1.0, 2.0),
                                   res.strategy)
        assert math.isclose(t.p0 + t.p1 + t.pc, 1.0, abs_tol=1e-12)

    def test_one_flip_by_hand(self):
        tree = game_tree.gen_full(1, [0, 1])
        t = composer.exact_outcome(tree, CheatModel(1.0, 2.0), [0.0, 0.0, 0.1])
        keep = 1.0 - 0.01
        assert t.p0 == keep * 0.6
        assert t.p1 == keep * 0.4
        assert t.pc == 0.1 ** 2

    def test_two_level_by_hand(self):
        # bias only the root of a depth-2 tree; children play honestly
        tree = game_tree.gen_full(2, [0, 1, 1, 0])
        strategy = from_paths(tree, {"": 0.1, "U": 0.0, "D": 0.0})
        t = composer.exact_outcome(tree, CheatModel(1.0, 2.0), strategy)
        # both children have P_W = 1/2, so the root bias cancels exactly
        assert math.isclose(t.p0, (1.0 - 0.01) * 0.5, abs_tol=1e-15)
        assert t.pc == 0.1 ** 2

    def test_missing_path_rejected(self, bo3):
        with pytest.raises(ValueError, match="UD"):
            from_paths(bo3, {"": 0.0, "U": 0.0, "D": 0.0, "DU": 0.0})

    def test_win_excess_tracks_eps_tot(self, bo3):
        # the leading-order strategy really does deliver ~eps_tot of bias
        m = CheatModel(1.0, 2.0)
        for eps_tot in (0.01, 0.02, 0.05):
            res = composer.leading_order(bo3, 1.0, 2.0, eps_tot)
            t = composer.exact_outcome(bo3, m, res.strategy)
            assert abs((t.p0 - 0.5) - eps_tot) <= 2.0 * eps_tot ** 2

    def test_catch_approaches_prediction(self, bo3):
        # exact pc / predicted pc -> 1 as eps_tot -> 0
        m = CheatModel(1.0, 2.0)
        prev_gap = None
        for eps_tot in (0.05, 0.02, 0.01, 0.005):
            res = composer.leading_order(bo3, 1.0, 2.0, eps_tot)
            t = composer.exact_outcome(bo3, m, res.strategy)
            gap = abs(t.pc / res.predicted_pc - 1.0)
            assert gap <= 0.01
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap


def float_pass(tree, model, named):
    """exact_outcome's floats by a recursion over the tree itself: each
    internal node reads cheat_model.triple at its path's eps, and the
    outcomes combine in exact_outcome's order."""
    def visit(node, at):
        if isinstance(node, game_tree.Leaf):
            w = 1.0 if node.label == 0 else 0.0
            return w, 1.0 - w, 0.0
        p0, p1, pc = cheat_model.triple(model, named[at])
        u0, u1, uc = visit(node.up, at + "U")
        d0, d1, dc = visit(node.down, at + "D")
        return p0 * u0 + p1 * d0, p0 * u1 + p1 * d1, pc + p0 * uc + p1 * dc

    return visit(tree, "")


def _result_bits(res):
    # the strategy spread over the nodes, which a shared tree and its
    # unshared copy have alike
    return [repr(res.a_new), repr(res.lam), repr(res.predicted_pc), res.clipped,
            [repr(eps) for eps in per_node(res.tree, res.strategy)]]


class TestDagTable:
    """The node table of a per-row or a per-node strategy, one row per
    distinct subtree under the strategy, gives the answers of a per-node
    computation, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(tree=fair_trees())
    def test_shared_and_unshared_trees_agree(self, tree):
        # a parsed tree shares its equal subtrees, a copy built by a plain
        # recursion shares none: every answer is the same to the bit
        shared = game_tree.parse_tree(game_tree.serialize_tree(tree))
        plain = unshared(tree)
        for b in (1.5, 2.0, 3.0):
            assert _result_bits(composer.leading_order(shared, 0.7, b, 0.05)) == \
                _result_bits(composer.leading_order(plain, 0.7, b, 0.05))
        model = CheatModel(0.7, 2.0)
        strategy = per_node(shared, composer.leading_order(shared, 0.7, 2.0, 0.2).strategy)
        assert [repr(x) for x in composer.exact_outcome(shared, model, strategy)] \
            == [repr(x) for x in composer.exact_outcome(plain, model, strategy)]
        assert simulate.simulate_tree(shared, model, strategy, 3000, 17) == \
            simulate.simulate_tree(plain, model, strategy, 3000, 17)
        # rows are keyed by value, not by tree object: a per-node strategy
        # on the shared tree and on the unshared one makes the same table
        tables = [[[x.hex() if isinstance(x, float) else x for x in col]
                   for col in composer.strategy_table(game_tree.annotate(t), model,
                                                      strategy)]
                  for t in (shared, plain)]
        assert tables[0] == tables[1]

    @settings(max_examples=80, deadline=None)
    @given(tree=fair_trees(), seed=st.integers(0, 2 ** 32),
           model=st.sampled_from(_OUTCOME_MODELS + [_PRIME]), per_row=st.booleans())
    def test_table_follows_the_strategy(self, tree, seed, model, per_row):
        # eps drawn per DAG row runs on the DAG's rows; eps drawn per node,
        # which gives copies of one subtree different eps, splits the rows
        # of copies that differ by value.  Either way the outcome is the
        # recursion's, bit for bit.
        ann = game_tree.annotate(tree)
        pick = random.Random(seed).choice
        values = _PRIME_EPS_VALUES if model == _PRIME else _EPS_VALUES
        if per_row:
            eps = [pick(values) if u >= 0 else 0.0 for u in ann.dag_up]
            strategy = [eps[k] for k in ann.row]
        else:
            strategy = [pick(values) if u >= 0 else 0.0 for u in ann.up]
        copies = {}
        for k, e in zip(ann.row, strategy):
            copies.setdefault(k, set()).add(e)
        agree = all(len(equal) == 1 for equal in copies.values())
        assert agree or not per_row
        table = composer.strategy_table(ann, model, strategy)
        named = composer.strategy_to_paths(ann, strategy)
        assert len(table[1]) == table_rows(tree, named)
        assert agree == (len(table[1]) == len(ann.dag_up))
        assert [repr(x) for x in composer.exact_outcome(tree, model, strategy)] \
            == [repr(x) for x in float_pass(tree, model, named)]

    def test_copies_with_both_zeros_run_on_the_postorder_table(self):
        # a subtree given 0.0 on one copy and -0.0 on another shares its
        # row, with the answers of +0.0 on both copies; beside a node whose
        # copies truly differ, only the rows of those copies and their
        # ancestors split, and without it the table is the DAG
        sub = game_tree.gen_best_of(3)
        tree = game_tree.Flip(sub, game_tree.Flip(sub, game_tree.Leaf(1)))
        ann = game_tree.annotate(tree)
        for zero in (0.0, -0.0):
            for differ in (0.05, 0.1):
                named = {p: 0.1 for p, _ in ann.internal()}
                named["UD"], named["DUD"], named["DUU"] = zero, -zero, differ
                strategy = composer.strategy_from_paths(ann, named)
                table = composer.strategy_table(ann, _PRIME, strategy)
                assert len(table[1]) == table_rows(tree, named)
                assert (len(table[1]) == len(ann.dag_up)) == (differ == 0.1)
                plus = composer.strategy_from_paths(
                    ann, {p: abs(e) for p, e in named.items()})
                assert [[x.hex() for x in col] for col in table[3:5]] == \
                    [[x.hex() for x in col]
                     for col in composer.strategy_table(ann, _PRIME, plus)[3:5]]
                outcome = [repr(x) for x in composer.exact_outcome(tree, _PRIME, strategy)]
                assert outcome == [repr(x) for x in float_pass(tree, _PRIME, named)]
                assert outcome == \
                    [repr(x) for x in composer.exact_outcome(tree, _PRIME, plus)]

    @settings(max_examples=60, deadline=None)
    @given(tree=generated_trees(), seed=st.integers(0, 2 ** 32),
           model=st.sampled_from(_OUTCOME_MODELS + [_PRIME]), per_row=st.booleans())
    def test_sign_of_a_zero_eps_changes_no_answer(self, tree, seed, model, per_row):
        # eps drawn per DAG row runs on the DAG's rows; eps drawn per node,
        # which gives copies of one subtree different eps, splits the rows
        # of copies that differ by value.  Flipping the sign of any zero
        # eps, within a row's copies or across rows, keeps the table's size
        # and every answer: the outcome is the per-node recursion's, each
        # node reading the triple of its own eps, bit for bit, and the
        # Monte Carlo report is the same.
        ann = game_tree.annotate(tree)
        rand = random.Random(seed)
        values = _PRIME_EPS_VALUES if model == _PRIME else _EPS_VALUES
        if per_row:
            eps = [rand.choice(values) if u >= 0 else 0.0 for u in ann.dag_up]
            strategy = [eps[k] for k in ann.row]
        else:
            strategy = [rand.choice(values) if u >= 0 else 0.0 for u in ann.up]
        flipped = [-e if e == 0.0 and rand.random() < 0.5 else e for e in strategy]
        copies = {}
        for k, e in zip(ann.row, strategy):
            copies.setdefault(k, set()).add(e)  # 0.0 and -0.0 are one member
        agree = all(len(equal) == 1 for equal in copies.values())
        assert agree or not per_row
        rows = table_rows(tree, composer.strategy_to_paths(ann, strategy))
        assert agree == (rows == len(ann.dag_up))
        outcome = [repr(x) for x in composer.exact_outcome(tree, model, strategy)]
        report = simulate.simulate_tree(tree, model, strategy, 300, seed)
        for s in (strategy, flipped):
            assert len(composer.strategy_table(ann, model, s)[1]) == rows
            named = composer.strategy_to_paths(ann, s)
            assert [repr(x) for x in float_pass(tree, model, named)] == outcome
            assert [repr(x) for x in composer.exact_outcome(tree, model, s)] == outcome
            assert simulate.simulate_tree(tree, model, s, 300, seed) == report

    def test_refusals_are_those_of_the_postorder_table(self):
        # a per-node strategy is checked in postorder, each distinct eps
        # where it first appears, so the first refused node in postorder
        # names the eps; a leaf's eps is refused at its own position
        tree = game_tree.gen_best_of(5)
        ann = game_tree.annotate(tree)
        model = CheatModel(1.0, 2.0)
        by_row = [0.7 if k == 5 else 0.1 for k in range(len(ann.dag_up))]
        with pytest.raises(ValueError, match="got 0.7$"):
            composer.exact_outcome(tree, model, [
                by_row[k] if ann.dag_up[k] >= 0 else 0.0 for k in ann.row])
        leaf = ann.row.index(1, 3)
        bad = [0.0] * len(ann.row)
        bad[leaf] = 0.2
        with pytest.raises(ValueError, match=re.escape(
                f"eps = 0.2 to the leaf at postorder position {leaf};")):
            composer.exact_outcome(tree, model, bad)
        # a root eps that is not a float, beside zeros on the other nodes:
        # the table reads it as the root's key, and cheat_model.triple
        # refuses it as it would for any caller
        for eps, error, message in [
                ("x", TypeError, "bad operand type for abs(): 'str'"),
                (10 ** 400, ValueError, "standard model requires |eps| <= 1/2"),
                (True, ValueError, "standard model requires |eps| <= 1/2, got True")]:
            with pytest.raises(error, match=f"^{re.escape(message)}"):
                composer.exact_outcome(tree, model, [0.0] * (len(ann.row) - 1) + [eps])


class TestPerRowStrategy:
    """A strategy with one eps per DAG row: leading_order's form, read by
    strategy_table straight into the DAG table."""

    @settings(max_examples=40, deadline=None)
    @given(tree=st.one_of(generated_trees(), fair_trees()), copy=st.booleans(),
           seed=st.integers(0, 2 ** 32))
    @example(tree=game_tree.gen_best_of(15), copy=False, seed=0)
    @example(tree=game_tree.Leaf(1), copy=False, seed=0)
    def test_per_row_strategy_is_its_spread(self, tree, copy, seed):
        # an unshared copy has one DAG row per node; copies stop at
        # best-of-11's 1,847 nodes, so that the test stays well under a second
        if copy and len(game_tree.annotate(tree).row) < 2000:
            tree = unshared(tree)
        ann = game_tree.annotate(tree)
        cases = []
        if ann.dag_up[-1] >= 0 and ann.p_w_root == 0.5:
            for b in (1.5, 2.0, 3.0):
                res = composer.leading_order(tree, 0.7, b, 0.05)
                assert len(res.strategy) == len(ann.dag_up)
                assert [eps.hex() for eps in per_node(tree, res.strategy)] == \
                    _object_strategy(tree, b, 0.05)
                cases.append((CheatModel(0.7, b), res.strategy))
        else:  # leading_order refuses the tree: eps drawn per row
            pick = random.Random(seed).choice
            cases = [(model, [pick(_PRIME_EPS_VALUES) if u >= 0 else 0.0
                              for u in ann.dag_up])
                     for model in (CheatModel(1.0, 2.0), _PRIME)]
        for model, by_row in cases:
            spread = per_node(tree, by_row)
            assert [x.hex() for x in composer.exact_outcome(tree, model, by_row)] \
                == [x.hex() for x in composer.exact_outcome(tree, model, spread)]
            assert simulate.simulate_tree(tree, model, by_row, 300, seed) == \
                simulate.simulate_tree(tree, model, spread, 300, seed)
            assert composer.strategy_to_paths(ann, by_row) == \
                composer.strategy_to_paths(ann, spread)
        # refusals: a length that is neither, a leaf row's eps, a non-list
        model, by_row = cases[0]
        rows, nodes = len(ann.dag_up), len(ann.row)
        with pytest.raises(ValueError, match=re.escape(
                f"strategy has {nodes + 1} entries; the tree takes one per DAG "
                f"row ({rows}) or one per node ({nodes})")):
            composer.exact_outcome(tree, model, by_row + [0.0] * (nodes + 1 - rows))
        leaf = ann.dag_up.index(-1)
        with pytest.raises(ValueError, match=re.escape(
                f"strategy gives eps = 0.1 to the leaf at DAG row {leaf}; "
                "leaves take 0.0")):
            composer.exact_outcome(tree, model, [0.1 if k == leaf else e
                                                 for k, e in enumerate(by_row)])
        with pytest.raises(ValueError, match="^a tree strategy is a list of eps "
                                             "per DAG row or per node in "
                                             "postorder, got tuple;"):
            simulate.simulate_tree(tree, model, tuple(by_row), 10, seed)

    @pytest.mark.parametrize("model", [CheatModel(1.0, 2.0), _PRIME],
                             ids=["std", "prime"])
    def test_one_flip_reads_alike_either_way(self, model):
        # Flip(Leaf(1), Leaf(0)) has three rows (leaf 0, leaf 1, root) and
        # three nodes (leaf 1, leaf 0, root): only the root takes an eps, so
        # [0.0, 0.0, e] is one strategy per row and per node alike
        tree = game_tree.Flip(game_tree.Leaf(1), game_tree.Leaf(0))
        ann = game_tree.annotate(tree)
        assert (ann.row, ann.dag_p_w) == ([1, 0, 2], [1.0, 0.0, 0.5])
        strategy = [0.0, 0.0, 0.2]
        assert composer.strategy_to_paths(ann, strategy) == {"": 0.2}
        got = composer.exact_outcome(tree, model, strategy)
        assert [x.hex() for x in got] == \
            [x.hex() for x in float_pass(tree, model, {"": 0.2})]
        with pytest.raises(ValueError, match="to the leaf at DAG row 0;"):
            composer.exact_outcome(tree, model, [0.1, 0.0, 0.2])


class TestStrategyTriples:
    """composer._triples, which strategy_table calls on a per-row strategy,
    run over the tree's per-node up column: a strategy's per-node triples,
    one check per distinct eps and one cheat_model.columns call."""

    # repeated values and both zeros; prime takes eps >= 0, so -0.0 too
    MIXED = [0.0, -0.0, 0.1, 0.1, -0.0, 0.0, 0.05, 0.1, -0.0, 0.05, 0.0,
             -0.0, 0.1, 0.05, 0.0]

    @pytest.mark.parametrize("model", [CheatModel(2.0, 1.0, cheat_model.PRIME),
                                       CheatModel(1.0, 2.0),
                                       CheatModel(0.5, 3.0)],
                             ids=["prime", "std-b2", "std-b3"])
    def test_memo_matches_scalar_calls_bit_for_bit(self, model, monkeypatch):
        tree = game_tree.gen_full(4, [0, 1] * 8)
        ann = game_tree.annotate(tree)
        paths = [p for p, _ in ann.internal()]
        values = self.MIXED if model.variant == cheat_model.PRIME else \
            [e * s for e, s in zip(self.MIXED, itertools.cycle([1, -1, 1]))]
        named = dict(zip(paths, values))
        want = {p: cheat_model.triple(model, e).as_tuple() for p, e in named.items()}
        strategy = composer.strategy_from_paths(ann, named)
        calls, checks = [], []
        real, check = cheat_model.columns, CheatModel.check_eps

        def counted(model, eps):
            calls.append(list(eps))
            return real(model, eps)

        def checked(model, eps):
            checks.append(eps)
            return check(model, eps)

        monkeypatch.setattr(cheat_model, "columns", counted)
        monkeypatch.setattr(CheatModel, "check_eps", checked)
        got = composer._triples(ann.up, model, strategy)
        for i, (at, u) in enumerate(zip(ann.path, ann.up)):
            if u >= 0:
                # the memo keys 0.0 and -0.0 as one eps, so a zero node may
                # read the pc of the other zero: equal, and +-0.0 either way
                p0, p1, pc = (t[i] for t in got)
                assert [p0.hex(), p1.hex()] == [w.hex() for w in want[at][:2]], at
                assert pc == want[at][2], at
                if named[at] != 0.0:
                    assert pc.hex() == want[at][2].hex(), at
        # one scalar check per distinct value, 0.0 and -0.0 being one, in
        # row order, then one list call over those values
        distinct = list(dict.fromkeys(e for e, u in zip(strategy, ann.up) if u >= 0))
        assert len(distinct) == len(set(values))
        assert checks == distinct and calls == [distinct]

    @pytest.mark.parametrize("model, bad", [
        (CheatModel(1.0, 2.0), 0.7), (CheatModel(1.0, 2.0), math.nan),
        (CheatModel(2.0, 1.0, cheat_model.PRIME), -0.1)],
        ids=["std-0.7", "std-nan", "prime-negative"])
    def test_out_of_range_eps_after_zeros_raises(self, model, bad):
        # the zeros fill the memo first; the bad value must still be checked
        ann = game_tree.annotate(game_tree.gen_full(3, [0, 1] * 4))
        paths = [p for p, _ in ann.internal()]
        strategy = composer.strategy_from_paths(
            ann, dict(zip(paths, [0.0, -0.0] * 3 + [bad])))
        with pytest.raises(ValueError, match=f"{bad}"):
            composer._triples(ann.up, model, strategy)


class TestStrategyEdge:
    """The list form in the library and the path-keyed form at the JSON edge."""

    @settings(max_examples=60, deadline=None)
    @given(tree=generated_trees(), seed=st.integers(0, 2 ** 32))
    def test_round_trip_keeps_negative_zero(self, tree, seed):
        ann = game_tree.annotate(tree)
        pick = random.Random(seed).choice
        named = {p: pick(_PRIME_EPS_VALUES) for p, _ in ann.internal()}
        listed = composer.strategy_from_paths(ann, named)
        back = composer.strategy_to_paths(ann, listed)
        # the same paths, in postorder, each with its float spelled alike
        assert [(p, repr(e)) for p, e in back.items()] == \
            [(p, repr(e)) for p, e in named.items()]

    def test_reader_names_a_missing_and_an_extra_path(self, bo3):
        ann = game_tree.annotate(bo3)
        named = {p: 0.0 for p, _ in ann.internal()}
        del named["DU"]
        with pytest.raises(ValueError, match="^strategy is missing node 'DU'$"):
            composer.strategy_from_paths(ann, named)
        named.update({"DU": 0.0, "UU": 0.1, "X": 0.1})
        with pytest.raises(ValueError, match="^strategy names 2 paths that are "
                                             "not internal nodes, first 'UU'$"):
            composer.strategy_from_paths(ann, named)

    @pytest.mark.parametrize("call", ["exact_outcome", "strategy_table",
                                      "simulate_tree", "strategy_to_paths"])
    def test_list_form_checked_once_at_entry(self, bo3, call):
        ann, model = game_tree.annotate(bo3), CheatModel(1.0, 2.0)
        run = {
            "exact_outcome": lambda s: composer.exact_outcome(bo3, model, s),
            "strategy_table": lambda s: composer.strategy_table(ann, model, s),
            "simulate_tree": lambda s: simulate.simulate_tree(bo3, model, s, 10, 1),
            "strategy_to_paths": lambda s: composer.strategy_to_paths(ann, s),
        }[call]
        honest = {p: 0.0 for p, _ in ann.internal()}
        with pytest.raises(ValueError, match="^a tree strategy is a list of eps "
                                             "per DAG row or per node in "
                                             "postorder, got dict; "
                                             "strategy_from_paths reads a "
                                             "path-keyed one$"):
            run(honest)
        with pytest.raises(ValueError, match=re.escape(
                "strategy has 10 entries; the tree takes one per DAG row (6) "
                "or one per node (11)")):
            run([0.0] * 10)
        if call != "strategy_to_paths":  # which reads no eps
            # position 0 is the leaf UU
            with pytest.raises(ValueError, match=re.escape(
                    "strategy gives eps = 0.1 to the leaf at postorder "
                    "position 0; leaves take 0.0")):
                run([0.1] + [0.0] * 10)
            with pytest.raises(ValueError, match="standard model requires "
                                                 r"\|eps\| <= 1/2, got 0.7"):
                run([0.0] * 10 + [0.7])

    def test_tree_passes_build_no_path_column(self, monkeypatch, bo3):
        # only the JSON edge names nodes by path; the passes read the columns
        def refuse(self):
            raise AssertionError("a tree pass read the path column")

        monkeypatch.setattr(game_tree.TreeAnnotation, "path", property(refuse))
        model = CheatModel(1.0, 2.0)
        res = composer.leading_order(bo3, 1.0, 2.0, 0.05)
        composer.exact_outcome(bo3, model, res.strategy)
        simulate.simulate_tree(bo3, model, res.strategy, 100, 1)
        composer.brute_force_min_pc(bo3, model, 0.05, 0.01)
        with pytest.raises(AssertionError, match="path column"):
            res.to_json_dict()

    def test_brute_force_refusal_builds_no_up_view(self, monkeypatch):
        # the size refusal counts internal nodes on the occurrence column
        def refuse(self):
            raise AssertionError("the refusal read the up view")

        tree = game_tree.gen_best_of(15)
        monkeypatch.setattr(game_tree.TreeAnnotation, "up", property(refuse))
        with pytest.raises(ValueError, match="^tree too large: 12869 internal "
                                             "nodes, limit 5$"):
            composer.brute_force_min_pc(tree, CheatModel(1.0, 2.0), 0.05, 0.01)

    def test_result_keeps_the_tree_not_its_annotation(self, bo3):
        res = composer.leading_order(bo3, 1.0, 2.0, 0.05)
        assert res.tree is bo3
        assert not any(isinstance(v, game_tree.TreeAnnotation)
                       for v in vars(res).values())
        assert "tree" not in repr(res)


class TestBruteForce:
    @pytest.mark.parametrize("eps_tot", [0.0, 0.05, 0.1])
    def test_matches_literal_enumeration_small(self, eps_tot):
        m = CheatModel(1.0, 2.0)
        cases = [("one_flip", 0.02), ("full2_a", 0.1), ("full2_b", 0.1)]
        for name, grid_step in cases:
            tree = SMALL_SUITE[name]
            want_strat, want_pc = literal_grid_min(tree, m, eps_tot, grid_step)
            got_strat, got_pc = composer.brute_force_min_pc(tree, m, eps_tot,
                                                            grid_step)
            assert got_pc == want_pc, name
            assert by_path(tree, got_strat) == want_strat, name

    def test_matches_literal_enumeration_best_of_3(self):
        m = CheatModel(1.0, 2.0)
        tree = SMALL_SUITE["best_of_3"]
        want_strat, want_pc = literal_grid_min(tree, m, 0.1, 0.125)
        got_strat, got_pc = composer.brute_force_min_pc(tree, m, 0.1, 0.125)
        assert got_pc == want_pc
        assert by_path(tree, got_strat) == want_strat

    def test_matches_literal_on_other_exponents(self):
        tree = SMALL_SUITE["full2_a"]
        # (4, 2) puts pc = 1 at eps = +-1/2: both branch probabilities are zero
        for a, b in [(0.5, 2.0), (1.0, 3.0), (2.0, 1.5), (4.0, 2.0)]:
            m = CheatModel(a, b)
            want_strat, want_pc = literal_grid_min(tree, m, 0.05, 0.1)
            got_strat, got_pc = composer.brute_force_min_pc(tree, m, 0.05, 0.1)
            assert got_pc == want_pc, (a, b)
            assert by_path(tree, got_strat) == want_strat, (a, b)

    def test_returned_strategy_reproduces_minimum(self, small_tree):
        m = CheatModel(1.0, 2.0)
        strat, min_pc = composer.brute_force_min_pc(small_tree, m, 0.05, 0.05)
        t = composer.exact_outcome(small_tree, m, strat)
        assert t.pc == min_pc
        p = game_tree.annotate(small_tree).p_w_root
        assert t.p0 >= p + 0.05 * (1.0 - 0.05)

    def test_deterministic(self, small_tree):
        m = CheatModel(1.0, 2.0)
        first = composer.brute_force_min_pc(small_tree, m, 0.05, 0.05)
        second = composer.brute_force_min_pc(small_tree, m, 0.05, 0.05)
        assert first == second

    def test_zero_target_needs_no_cheating(self, small_tree):
        m = CheatModel(1.0, 2.0)
        strat, min_pc = composer.brute_force_min_pc(small_tree, m, 0.0, 0.1)
        assert min_pc == 0.0
        assert all(v == 0.0 for v in strat)

    def test_infeasible_target_raises(self):
        # the strongest achievable excess with a=2, b=1.5 caps out well
        # below 0.25 on a single flip
        tree = SMALL_SUITE["one_flip"]
        with pytest.raises(ValueError, match="win excess"):
            composer.brute_force_min_pc(tree, CheatModel(2.0, 1.5), 0.25, 0.02)

    def test_too_many_internal_nodes_rejected(self):
        tree = game_tree.gen_best_of(5)
        with pytest.raises(ValueError):
            composer.brute_force_min_pc(tree, CheatModel(1.0, 2.0), 0.05, 0.1)

    # Flip(Flip(pair, pair), Leaf(0)): its node with two internal children
    # counts the combinations it covers under its catch cap.  At eps_tot
    # 0.1 the candidates' bound caps the catch, and the cap still leaves
    # more than _MAX_COMBOS
    @pytest.mark.parametrize("grid_step, eps_tot, combos",
                             [(1e-3, 0.1, 33957081)])
    def test_combination_cap(self, grid_step, eps_tot, combos):
        pair = game_tree.Flip(game_tree.Leaf(0), game_tree.Leaf(1))
        tree = game_tree.Flip(game_tree.Flip(pair, pair), game_tree.Leaf(0))
        with pytest.raises(ValueError,
                           match=rf"\({combos} grid combinations at one node\)"):
            composer.brute_force_min_pc(tree, CheatModel(1.0, 2.0), eps_tot,
                                        grid_step)

    def test_infeasible_target_refused_before_any_frontier(self, monkeypatch):
        # at eps_tot 0.2 no grid strategy of Flip(Flip(pair, pair), Leaf(0))
        # reaches the target: its best win is 0.8951 against 0.9496 at grid
        # 2e-3.  The max-win pass says so before any node is combined, where
        # an uncapped node would cover 23,714,912 combinations (189,036,645
        # at 1e-3), too many to search
        pair = game_tree.Flip(game_tree.Leaf(0), game_tree.Leaf(1))
        tree = game_tree.Flip(game_tree.Flip(pair, pair), game_tree.Leaf(0))
        monkeypatch.setattr(grid_oracle, "_combine", None)  # never called
        for grid_step in (1e-3, 2e-3):
            with pytest.raises(ValueError, match=re.escape(
                    f"no grid strategy reaches win excess {0.2 * (1.0 - grid_step)}")):
                composer.brute_force_min_pc(tree, CheatModel(1.0, 2.0), 0.2,
                                            grid_step)

    def test_two_internal_children_at_the_finest_grid(self):
        # at eps_tot 0.05 the node with two internal children covers
        # 189,036,645 grid combinations uncapped and 2,810,052 under its
        # cap, so the finest grid is answered
        pair = game_tree.Flip(game_tree.Leaf(0), game_tree.Leaf(1))
        tree = game_tree.Flip(game_tree.Flip(pair, pair), game_tree.Leaf(0))
        m = CheatModel(1.0, 2.0)
        strategy, min_pc = composer.brute_force_min_pc(tree, m, 0.05, 1e-3)
        assert min_pc == 0.003854827729973
        t = composer.exact_outcome(tree, m, strategy)
        assert t.pc == min_pc
        assert t.p0 >= game_tree.annotate(tree).p_w_root + 0.05 * (1.0 - 1e-3)
        # the reference, which counts every combination, runs at 0.01
        assert composer.brute_force_min_pc(tree, m, 0.05, 0.01) == \
            reference_brute_force_min_pc(tree, m, 0.05, 0.01)

    def test_too_fine_grid_rejected(self, bo3):
        with pytest.raises(ValueError):
            composer.brute_force_min_pc(bo3, CheatModel(1.0, 2.0), 0.05, 5e-4)

    @pytest.mark.parametrize("grid_step", [math.nan, math.inf, -math.inf, 0.0,
                                           -0.1, 0.7, 0.5000001])
    def test_grid_step_outside_range_rejected(self, bo3, grid_step):
        with pytest.raises(ValueError, match="grid_step"):
            composer.brute_force_min_pc(bo3, CheatModel(1.0, 2.0), 0.05, grid_step)

    @pytest.mark.parametrize("eps_tot", [math.nan, math.inf, -math.inf, 0.7, -0.7])
    def test_eps_tot_outside_domain_rejected(self, bo3, eps_tot):
        with pytest.raises(ValueError, match="eps_tot"):
            composer.brute_force_min_pc(bo3, CheatModel(1.0, 2.0), eps_tot, 0.1)

    def test_coarsest_grid_accepted(self):
        # steps -1/2, 0, 1/2: the only cheat is a certain catch
        strat, min_pc = composer.brute_force_min_pc(
            SMALL_SUITE["one_flip"], CheatModel(1.0, 2.0), 0.05, 0.5)
        assert strat == [0.0, 0.0, 0.5]
        assert min_pc == 0.25

    def test_never_beats_leading_order_by_more_than_slack(self, small_tree):
        # grid answer >= true optimum ~ a_new eps_tot^2 minus grid slack
        m = CheatModel(1.0, 2.0)
        grid_step = 0.005
        res = composer.leading_order(small_tree, 1.0, 2.0, 0.05)
        _, min_pc = composer.brute_force_min_pc(small_tree, m, 0.05, grid_step)
        assert min_pc >= res.predicted_pc - 3.0 * m.a * grid_step


@st.composite
def small_trees(draw):
    """A tree of 1-5 internal nodes, any shape, random leaf labels."""
    def build(internal):
        if internal == 0:
            return game_tree.Leaf(draw(st.integers(0, 1)))
        up = draw(st.integers(0, internal - 1))
        return game_tree.Flip(build(up), build(internal - 1 - up))
    return build(draw(st.integers(1, 5)))


def _flip(up, down):
    """A Flip of two subtrees, each a subtree or a leaf label."""
    def node(x):
        return game_tree.Leaf(x) if isinstance(x, int) else x
    return game_tree.Flip(node(up), node(down))


def _oracle_answer(search, tree, model, eps_tot, grid_step):
    """repr of the strategy list and min_pc, or the error."""
    try:
        strategy, min_pc = search(tree, model, eps_tot, grid_step)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return repr((strategy, min_pc))


# (4, 2), (2, 1) and (8, 3) catch with certainty at eps = +-1/2, where both
# branch probabilities are zero
ORACLE_MODELS = [(1.0, 2.0), (4.0, 2.0), (2.0, 1.0), (0.5, 2.0), (1.0, 3.0),
                 (2.0, 1.5), (8.0, 3.0)]


class TestBruteForceMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(tree=small_trees(), model=st.sampled_from(ORACLE_MODELS),
           eps_tot=st.sampled_from([0.0, 0.05, -0.05, 0.1, 0.2, 0.35]),
           grid_step=st.floats(0.02, 0.5))
    @example(tree=game_tree.gen_best_of(3), model=(1.0, 2.0), eps_tot=0.05,
             grid_step=1e-3)
    @example(tree=game_tree.gen_random_fair(3, 0), model=(1.0, 2.0),
             eps_tot=-0.05, grid_step=1e-3)
    @example(tree=game_tree.gen_best_of(3), model=(4.0, 2.0), eps_tot=0.1,
             grid_step=1e-3)
    @example(tree=game_tree.gen_full(2, [0, 1, 1, 0]), model=(8.0, 3.0),
             eps_tot=0.2, grid_step=1e-3)
    @example(tree=game_tree.gen_full(1, [0, 1]), model=(2.0, 1.0),
             eps_tot=0.35, grid_step=1e-3)
    # the minimum catch 0.005000000000000001 ties at root grid points 0.0
    # and -0.1, searched in that order: the later one, with the smaller
    # grid index, wins only if neither the cut of dearer up entries nor the
    # stop test drops a tie
    @example(tree=_flip(1, _flip(0, _flip(_flip(0, 0), 1))), model=(0.5, 2.0),
             eps_tot=0.05, grid_step=0.1)
    # the minimum catch 0.0078125 ties across up entries at root grid point
    # 0.0 (U = 0.0 with D = -0.125, or U = 0.125 with D = 0.0); the first
    # up entry wins
    @example(tree=_flip(_flip(0, 1), _flip(_flip(1, 1), 0)), model=(8.0, 3.0),
             eps_tot=0.05, grid_step=0.125)
    def test_answers_identical(self, tree, model, eps_tot, grid_step):
        m = CheatModel(*model)
        assert _oracle_answer(composer.brute_force_min_pc, tree, m, eps_tot,
                              grid_step) == \
            _oracle_answer(reference_brute_force_min_pc, tree, m, eps_tot,
                           grid_step)


_COMBOS = re.compile(r"\((\d+) grid combinations at one node\)")


class TestCatchCaps:
    """The bound from candidate fine-grid strategies and the catch caps it
    gives each node change no answer: the search with them against the
    same search with no bound."""

    # half the grid steps are fine ones, where the bound is finite and
    # most nodes are capped
    @settings(max_examples=150, deadline=None)
    @given(tree=small_trees(), model=st.sampled_from(ORACLE_MODELS),
           eps_tot=st.sampled_from([0.0, 0.05, -0.05, 0.1, 0.2, 0.35]),
           grid_step=st.sampled_from([2e-3, 3e-3, 5e-3, 0.01]) | st.floats(2e-3, 0.5))
    @example(tree=game_tree.gen_best_of(3), model=(1.0, 2.0), eps_tot=0.05,
             grid_step=2e-3)
    @example(tree=game_tree.gen_random_fair(3, 0), model=(8.0, 3.0),
             eps_tot=0.1, grid_step=2e-3)
    @example(tree=game_tree.gen_full(2, [0, 1, 1, 0]), model=(4.0, 2.0),
             eps_tot=0.0, grid_step=2e-3)
    def test_capped_search_matches_uncapped(self, tree, model, eps_tot, grid_step):
        m = CheatModel(*model)
        capped = _oracle_answer(composer.brute_force_min_pc, tree, m, eps_tot,
                                grid_step)
        with mock.patch.object(grid_oracle, "_bound", lambda *args: math.inf):
            uncapped = _oracle_answer(composer.brute_force_min_pc, tree, m,
                                      eps_tot, grid_step)
        refused = isinstance(uncapped, tuple) and _COMBOS.search(uncapped[1])
        if not refused:  # answered, or infeasible: the same, bit for bit
            assert capped == uncapped
        elif isinstance(capped, tuple):
            # refused by the combination guard both times: the capped
            # search counts no more combinations
            assert int(_COMBOS.search(capped[1])[1]) <= int(refused[1])


def _bound_inputs(tree, m, eps_tot, grid_step):
    """The search's bound, its arguments and the grid they come from."""
    ann = game_tree.annotate(tree)
    grid, p0, p1, pc, zero = grid_oracle._grid(m, grid_step)
    target = ann.p_w_root + eps_tot * (1.0 - grid_step)
    win, pick = grid_oracle._max_win(ann, p0, p1)
    args = (ann, m.b, p0, p1, pc, zero, pick, target)
    return grid_oracle._bound(*args), args, grid, win


class TestCandidateBound:
    """The bound is the catch of a candidate fine-grid strategy that reaches
    the target: finite exactly where the target is feasible, never below
    the optimum, and close to it on the benchmark's trees."""

    @settings(max_examples=200, deadline=None)
    @given(tree=small_trees(), model=st.sampled_from(ORACLE_MODELS),
           eps_tot=st.sampled_from([0.0, 0.05, -0.05, 0.1, 0.2, 0.35]),
           grid_step=st.sampled_from([2e-3, 5e-3, 0.01]) | st.floats(2e-3, 0.5))
    @example(tree=game_tree.gen_full(2, [0, 1, 1, 0]), model=(2.0, 1.0),
             eps_tot=0.1, grid_step=2e-3)
    # a catch summed as (p1*c_dn + pc) + p0*c_up puts B one ulp low here
    @example(tree=game_tree.gen_best_of(3), model=(1.0, 3.0), eps_tot=0.1,
             grid_step=2e-3)
    def test_bound_is_a_feasible_candidates_catch(self, tree, model, eps_tot,
                                                  grid_step):
        m = CheatModel(*model)
        bound, args, grid, win = _bound_inputs(tree, m, eps_tot, grid_step)
        ann, target = args[0], args[-1]
        assert math.isfinite(bound) == (win >= target)
        if not math.isfinite(bound):
            with pytest.raises(ValueError, match=re.escape(
                    f"no grid strategy reaches win excess "
                    f"{eps_tot * (1.0 - grid_step)}")):
                composer.brute_force_min_pc(tree, m, eps_tot, grid_step)
            return
        # the max-win strategy's win is its exact outcome's, bit for bit
        idx, w, c = grid_oracle._candidates(*args[:-1])
        won = [grid[e] if u >= 0 else 0.0 for e, u in zip(idx[:, -1], ann.up)]
        assert composer.exact_outcome(tree, m, won).p0 == win
        feasible = np.flatnonzero(w >= target)
        k = feasible[np.argmin(c[feasible])]
        strategy = [grid[e] if u >= 0 else 0.0 for e, u in zip(idx[:, k], ann.up)]
        t = composer.exact_outcome(tree, m, strategy)
        assert t.pc == bound and t.p0 >= target
        try:
            _, min_pc = composer.brute_force_min_pc(tree, m, eps_tot, grid_step)
        except ValueError as exc:  # refused as too large
            assert _COMBOS.search(str(exc)), exc
        else:
            assert bound >= min_pc

    @pytest.mark.parametrize("tree", [game_tree.gen_best_of(3),
                                      game_tree.gen_random_fair(3, 0)],
                             ids=["best-of-3", "random-fair(3, 0)"])
    def test_bound_is_tight_on_fair_trees(self, tree):
        m = CheatModel(1.0, 2.0)
        bound = _bound_inputs(tree, m, 0.05, 1e-3)[0]
        _, min_pc = composer.brute_force_min_pc(tree, m, 0.05, 1e-3)
        assert min_pc <= bound <= 1.1 * min_pc

    def test_grid_built_once_per_model_and_step(self):
        m = CheatModel(1.0, 2.0)
        grid, p0, p1, pc, zero = grid_oracle._grid(m, 1e-3)
        assert grid_oracle._grid(CheatModel(1.0, 2.0), 1e-3)[1] is p0
        assert list(grid) == _reference_grid(m, 1e-3) and grid[zero] == 0.0
        t = cheat_model.triple(m, list(grid))
        for got, want in zip((p0, p1, pc), t):
            assert got.tobytes() == np.array(want).tobytes()
            assert not got.flags.writeable


def _frontier_bytes(f):
    return [(x.dtype.str, x.tobytes())
            for x in (f.w, f.c, f.eps_idx, f.up_idx, f.down_idx)]


class TestCombineMatchesReference:
    """Every node's frontier, the root's included, against the reference."""

    @settings(max_examples=60, deadline=None)
    @given(tree=small_trees(), model=st.sampled_from(ORACLE_MODELS),
           grid_step=st.floats(0.02, 0.5))
    # the root joins two 23-entry frontiers: more than one tile on each
    # entry axis, the last of them partial
    @example(tree=game_tree.gen_full(2, [0, 1, 1, 0]), model=(1.0, 2.0),
             grid_step=0.02)
    # nd = 1 with nu = 435 below the root (the root itself is over the cap)
    @example(tree=game_tree.gen_best_of(3), model=(1.0, 2.0), grid_step=1e-3)
    # certain catch at eps = +-1/2, where both children enter absent
    @example(tree=game_tree.gen_full(2, [0, 1, 1, 0]), model=(4.0, 2.0),
             grid_step=0.02)
    @example(tree=game_tree.gen_best_of(3), model=(2.0, 1.0), grid_step=0.05)
    @example(tree=game_tree.gen_random_fair(3, 0), model=(8.0, 3.0),
             grid_step=0.02)
    def test_frontiers_identical(self, tree, model, grid_step):
        m = CheatModel(*model)
        triples = [cheat_model.triple(m, e).as_tuple()
                   for e in _reference_grid(m, grid_step)]
        p0, p1, pc = (np.array(x) for x in zip(*triples))
        ann = game_tree.annotate(tree)
        frontier = []
        for w, u, dn in zip(ann.p_w, ann.up, ann.down):
            if u < 0:
                frontier.append(grid_oracle._Frontier.leaf(w))
                continue
            try:
                want = _reference_combine(triples, frontier[u], frontier[dn])
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    grid_oracle._combine(p0, p1, pc, frontier[u], frontier[dn])
                return
            got = grid_oracle._combine(p0, p1, pc, frontier[u], frontier[dn])
            assert _frontier_bytes(got) == _frontier_bytes(want)
            frontier.append(want)

    def test_tiles_skip_most_of_large_nodes(self, monkeypatch):
        # a node is checked tile by tile before its candidates are built;
        # whole-grid passes would send every grid combination to _undominated.
        # The ratio is taken with no bound, where every node is uncapped;
        # the search with its catch caps builds fewer still
        undominated, combine = grid_oracle._undominated, grid_oracle._combine
        built, nodes = [0], []

        def counting_undominated(fw, fc, w, c):
            built[0] += w.size
            return undominated(fw, fc, w, c)

        def recording_combine(p0, p1, pc, up, down, cap=math.inf):
            built[0] = 0
            f = combine(p0, p1, pc, up, down, cap)
            total = sum((hi - lo) * len(u[0]) * len(d[0]) for lo, hi, u, d
                        in grid_oracle._runs(p0, p1, pc, up, down, cap))
            nodes.append((total, built[0]))
            return f

        monkeypatch.setattr(grid_oracle, "_undominated", counting_undominated)
        monkeypatch.setattr(grid_oracle, "_combine", recording_combine)
        trees = (game_tree.gen_best_of(3), game_tree.gen_random_fair(3, 0))
        with mock.patch.object(grid_oracle, "_bound", lambda *args: math.inf):
            for tree in trees:
                composer.brute_force_min_pc(tree, CheatModel(1.0, 2.0), 0.05, 1e-3)
        uncapped, nodes[:] = nodes[:], []
        large = [(total, n) for total, n in uncapped if total > 100_000]
        assert len(large) == 4
        assert all(0 < n < total / 4 for total, n in large), large
        for tree in trees:
            composer.brute_force_min_pc(tree, CheatModel(1.0, 2.0), 0.05, 1e-3)
        assert 0 < sum(n for _, n in nodes) < sum(n for _, n in uncapped) / 4, \
            (nodes, uncapped)

    def test_root_searches_live_slices(self, monkeypatch):
        # at each visited grid point the root sends to the feasibility
        # search only the up entries that can be feasible and no dearer
        # than the best catch so far, not the whole up frontier.  The
        # ratio is taken with no bound, on uncapped frontiers; under the
        # bound and the caps the root searches fewer entries still
        first_feasible = grid_oracle._first_feasible
        first_dearer = grid_oracle._first_dearer
        best = grid_oracle._best
        roots, active = [], []  # active: the root search under way

        def recording_best(p0, p1, pc, up, down, target, bound):
            active.append({"up": 0, "searched": 0, "visited": 0})
            try:
                return best(p0, p1, pc, up, down, target, bound)
            finally:
                roots.append(active.pop())

        def counting_first_feasible(p, w, base, target):
            if active and not active[0]["up"]:  # the first call finds i_lo
                active[0]["up"] = len(w)
            elif active:
                active[0]["searched"] += base.size
            return first_feasible(p, w, base, target)

        def counting_first_dearer(pc, p, c, tail, cut):
            if active:
                active[0]["visited"] += pc.size
            return first_dearer(pc, p, c, tail, cut)

        monkeypatch.setattr(grid_oracle, "_best", recording_best)
        monkeypatch.setattr(grid_oracle, "_first_feasible", counting_first_feasible)
        monkeypatch.setattr(grid_oracle, "_first_dearer", counting_first_dearer)
        trees = (game_tree.gen_best_of(3), game_tree.gen_random_fair(3, 0))
        with mock.patch.object(grid_oracle, "_bound", lambda *args: math.inf):
            for tree in trees:
                composer.brute_force_min_pc(tree, CheatModel(1.0, 2.0), 0.05, 1e-3)
        uncapped, roots[:] = roots[:], []
        for root in uncapped:
            assert root["up"] > 1000 and root["visited"] > 10, root
            assert 0 < root["searched"] < root["visited"] * root["up"] / 4, root
        for tree in trees:
            composer.brute_force_min_pc(tree, CheatModel(1.0, 2.0), 0.05, 1e-3)
        for root, was in zip(roots, uncapped, strict=True):
            assert 0 < root["searched"] < was["searched"], (root, was)

    def test_combine_peak_memory(self, monkeypatch):
        # every node's combine of best-of-3 at grid 1e-3, the two large
        # ones included, stays under 2.85 MiB of traced allocations: with
        # no bound (four uncapped nodes), and in the search as it runs (the
        # four under their caps)
        combine, peaks = grid_oracle._combine, []

        def traced_combine(p0, p1, pc, up, down, cap=math.inf):
            tracemalloc.start()
            try:
                f = combine(p0, p1, pc, up, down, cap)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return f

        monkeypatch.setattr(grid_oracle, "_combine", traced_combine)
        tree, m = game_tree.gen_best_of(3), CheatModel(1.0, 2.0)
        with mock.patch.object(grid_oracle, "_bound", lambda *args: math.inf):
            composer.brute_force_min_pc(tree, m, 0.05, 1e-3)
        composer.brute_force_min_pc(tree, m, 0.05, 1e-3)
        assert len(peaks) == 8
        assert max(peaks) <= 2.85 * 2 ** 20, peaks


def test_tree_passes_leave_no_cyclic_garbage():
    # with no reference cycle, everything a pass allocates is freed by
    # reference counting, and the collector finds nothing left over
    tree, fair = game_tree.gen_best_of(9), game_tree.gen_random_fair(6, 3)
    model = CheatModel(1.0, 2.0)
    strategy = composer.leading_order(tree, 1.0, 2.0, 0.1).strategy
    ann = game_tree.annotate(tree)
    calls = {
        "annotate": lambda: game_tree.annotate(fair),
        "leading_order": lambda: composer.leading_order(tree, 1.0, 3.0, 0.1),
        "a_new_of_b": lambda: composer.a_new_of_b(fair, 1.0, 1.5),
        "exact_outcome": lambda: composer.exact_outcome(tree, model, strategy),
        "strategy_table": lambda: composer.strategy_table(ann, model, strategy),
        "simulate_tree": lambda: simulate.simulate_tree(tree, model, strategy,
                                                        2000, 5),
        "gen_best_of": lambda: game_tree.gen_best_of(7),
        "gen_full": lambda: game_tree.gen_full(4, [0, 1] * 8),
        "gen_random_fair": lambda: game_tree.gen_random_fair(6, 4),
        "leaf_win_mass": lambda: game_tree.leaf_win_mass(tree),
    }
    left = {}
    gc.disable()
    try:
        for name, call in calls.items():
            gc.collect()
            call()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(calls, 0)


class TestPinnedTreeAnswers:
    """Byte-level pins of every tree analysis; any ulp change trips them."""

    @staticmethod
    def _trees():
        trees = [(f"best-of-{n}", game_tree.gen_best_of(n)) for n in range(3, 16, 2)]
        trees += [(f"full({d})", game_tree.gen_full(d, [0, 1] * 2 ** (d - 1)))
                  for d in (4, 10)]
        trees += [(f"random-fair(8,{s})", game_tree.gen_random_fair(8, s))
                  for s in range(6)]
        return trees

    def test_annotation_and_composition_digest(self):
        h = hashlib.sha256()
        for name, tree in self._trees():
            rec = {"tree": name, "lemma_sum": game_tree.lemma_sum(tree),
                   "nodes": {p: [i.depth, i.p_w, i.delta]
                             for p, i in game_tree.annotate(tree).nodes.items()}}
            for b in (1.5, 2.0, 3.0):
                res = composer.leading_order(tree, 1.0, b, 0.05)
                exact = composer.exact_outcome(tree, CheatModel(1.0, b),
                                               res.strategy)
                rec[f"b={b}"] = [res.to_json_dict(), exact.as_tuple()]
            h.update((json.dumps(rec, sort_keys=True) + "\n").encode())
        assert h.hexdigest() == ("f787f2224a8402a45f94108bb148acbe"
                                 "ffbabaee8b711c3d8190e8a01cfed69a")

    def test_a_new_and_derivative_in_b_digest(self):
        # a_new_of_b and derivative_in_b read the per-row |Delta|**p of S
        records = [[name, b, composer.a_new_of_b(tree, 1.0, b),
                    composer.derivative_in_b(tree, 1.0, b)]
                   for name, tree in self._trees() for b in (1.5, 2.0, 3.0)]
        assert json_digest(records) == (
            "4dfef21edfd2a1c97cfa6e422c6f0580be0da8ed3876be2dbe00ee121c3ca55e")

    def test_leading_order_digest(self):
        # every float of each result, and the strategy in its postorder
        records = []
        for name, tree in sorted(LEADING_ORDER_TREES.items()):
            for b in (1.5, 2.0, 3.0):
                for eps_tot in (0.05, -0.5):
                    res = composer.leading_order(tree, 0.75, b, eps_tot)
                    records.append([name, b, eps_tot, res.a_new, res.lam,
                                    res.predicted_pc, res.clipped,
                                    list(by_path(tree, res.strategy).items())])
        assert json_digest(records) == (
            "e38939004923b43f4d3130e0e8d941bafda382cf3762c7fc93cc11a5d9654b18")

    def test_exact_outcome_digest(self):
        # six trees of each generator family at each std model of
        # _OUTCOME_MODELS, 96 cases, each with a seeded strategy
        rng = random.Random(18)
        trees = [game_tree.gen_random(d, rng.getrandbits(32))
                 for d in (2, 4, 6, 8, 10, 10)]
        trees += [game_tree.gen_random_fair(d, rng.getrandbits(32))
                  for d in (1, 3, 5, 7, 9, 10)]
        trees += [game_tree.gen_best_of(n) for n in (1, 3, 5, 7, 11, 15)]
        trees += [game_tree.gen_full(d, [rng.getrandbits(1) for _ in range(2 ** d)])
                  for d in (1, 2, 3, 5, 7, 8)]
        records, drawn = [], set()
        for tree in trees:
            paths = [p for p, _ in game_tree.annotate(tree).internal()]
            for model in _OUTCOME_MODELS:
                strategy = {p: rng.choice(_EPS_VALUES) for p in paths}
                records.append(list(composer.exact_outcome(
                    tree, model, from_paths(tree, strategy))))
                drawn.update(map(repr, strategy.values()))
        assert drawn == set(map(repr, _EPS_VALUES))  # -0.0 and 1e-9 among them
        assert json_digest(records) == (
            "dc8038bc60ce99c74a56e270543b6d40bfd7621eb9bacd59af76aeaf09b60742")

    def test_simulate_tree_counts(self):
        tree = game_tree.gen_best_of(15)
        strategy = composer.leading_order(tree, 1.0, 2.0, 0.1).strategy
        r = simulate.simulate_tree(tree, CheatModel(1.0, 2.0), strategy, 20000, 7)
        assert (r.wins, r.losses, r.catches, r.overruns) == (11863, 7940, 197, 0)

    def test_brute_force_best_of_3(self):
        tree = game_tree.gen_best_of(3)
        strategy, min_pc = composer.brute_force_min_pc(
            tree, CheatModel(1.0, 2.0), 0.05, 1e-3)
        assert min_pc == 0.002646773543068613
        assert by_path(tree, strategy) == {"": 0.026000000000000002, "D": 0.026000000000000002,
                            "DU": 0.051000000000000004, "U": 0.026000000000000002,
                            "UD": 0.051000000000000004}


    def test_brute_force_live_random_fair(self):
        # five live nodes; the root search visits 103 of 1001 grid points,
        # the most of any live 5-flip gen_random_fair(3, seed) tree
        tree = game_tree.gen_random_fair(3, 0)
        strategy, min_pc = composer.brute_force_min_pc(
            tree, CheatModel(1.0, 2.0), 0.05, 1e-3)
        assert min_pc == 0.002646773543068613
        assert by_path(tree, strategy) == {
            "": 0.026000000000000002, "D": 0.026000000000000002,
            "DU": 0.051000000000000004, "U": -0.026000000000000002,
            "UU": -0.051000000000000004}

    def test_brute_force_best_of_3_certain_catch(self):
        # (4, 2) catches with certainty at eps = +-1/2, where both branch
        # probabilities are zero
        tree = game_tree.gen_best_of(3)
        strategy, min_pc = composer.brute_force_min_pc(
            tree, CheatModel(4.0, 2.0), 0.05, 1e-3)
        assert min_pc == 0.012951084287640923
        assert by_path(tree, strategy) == {"": 0.029, "D": 0.035, "DU": 0.056, "U": 0.023,
                            "UD": 0.055}


@pytest.mark.parametrize("tree", [
    game_tree.gen_full(2, [0, 1, 0, 1]),
    game_tree.Flip(game_tree.Flip(game_tree.Leaf(0), game_tree.Leaf(0)),
                   game_tree.Flip(game_tree.Leaf(1), game_tree.Leaf(1))),
    game_tree.gen_random_fair(6, 0)], ids=["root", "children", "random-fair"])
def test_leading_order_gives_zero_where_delta_is_zero(tree):
    # a node with Delta = 0 gets no weight in S; it and every leaf get
    # exactly +0.0
    ann = game_tree.annotate(tree)
    assert 0.0 in ann.delta
    for b in (1.5, 2.0, 3.0):
        for eps_tot in (0.05, -0.5):
            strategy = composer.leading_order(tree, 1.0, b, eps_tot).strategy
            for gap, eps in zip(ann.delta, per_node(tree, strategy)):
                if not gap:
                    assert eps == 0.0 and math.copysign(1.0, eps) == 1.0
                else:
                    assert eps * eps_tot * gap > 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       eps_tot=st.floats(min_value=-0.3, max_value=0.3),
       b=st.floats(min_value=1.1, max_value=4.0))
def test_leading_order_properties_random_trees(seed, eps_tot, b):
    tree = game_tree.gen_random_fair(6, seed)
    res = composer.leading_order(tree, 1.0, b, eps_tot)
    assert res.a_new > 0.0
    assert all(abs(v) <= 0.5 for v in res.strategy)
    ann = game_tree.annotate(tree)
    strategy = by_path(tree, res.strategy)
    for path, info in ann.internal():
        eps = strategy[path]
        # each node biases toward its own advantage direction
        if info.delta == 0.0 or eps_tot == 0.0:
            assert eps == 0.0
        else:
            assert eps * math.copysign(1.0, eps_tot) * info.delta >= 0.0
