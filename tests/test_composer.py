"""Leading-order composition, exact evaluation, and the grid-search oracle."""

import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from coincomp import composer, game_tree, simulate
from coincomp.cheat_model import CheatModel
from conftest import SMALL_SUITE


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
        t = composer.exact_outcome(tree, model, dict(zip(paths, combo)))
        if t.p0 >= target and (best is None or t.pc < best
                               or (t.pc == best and combo < best_vec)):
            best = t.pc
            best_vec = combo
    if best is None:
        raise ValueError("infeasible")
    return dict(zip(paths, best_vec)), best


class TestLeadingOrder:
    def test_quadratic_is_fixed_point(self, fair_tree):
        for a in (0.5, 1.0, 2.0):
            res = composer.leading_order(fair_tree, a, 2.0, 0.1)
            assert abs(res.a_new - a) <= 1e-10 * a

    def test_quadratic_strategy_is_eps_tot_times_delta(self, fair_tree):
        res = composer.leading_order(fair_tree, 1.0, 2.0, 0.1)
        ann = game_tree.annotate(fair_tree)
        for path, info in ann.internal():
            assert abs(res.strategy[path] - 0.1 * info.delta) <= 1e-12

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
        for path, info in ann.internal():
            if abs(info.delta) < 1e-15 or res.clipped:
                continue
            eps = res.strategy[path]
            lhs = math.copysign(a * b * abs(eps) ** (b - 1.0), eps)
            assert math.isclose(lhs, res.lam * info.delta,
                                rel_tol=1e-10, abs_tol=1e-15)

    def test_zero_eps_tot_gives_honest_strategy(self, fair_tree):
        res = composer.leading_order(fair_tree, 1.0, 2.0, 0.0)
        assert all(v == 0.0 for v in res.strategy.values())
        assert res.predicted_pc == 0.0
        assert not res.clipped

    def test_negative_eps_tot_flips_signs(self, bo3):
        pos = composer.leading_order(bo3, 1.0, 2.0, 0.1)
        neg = composer.leading_order(bo3, 1.0, 2.0, -0.1)
        for path, eps in pos.strategy.items():
            assert neg.strategy[path] == -eps
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

    def test_clipping_flagged(self):
        # a unit-delta node wants eps = eps_tot * S^{-1/(b-1)} ... large
        # eps_tot with a spread-out tree pushes per-node eps past 1/2
        tree = game_tree.gen_best_of(7)
        res = composer.leading_order(tree, 1.0, 1.2, 0.5)
        assert res.clipped
        assert all(abs(v) <= 0.5 for v in res.strategy.values())

    def test_unclipped_for_small_bias(self, fair_tree):
        res = composer.leading_order(fair_tree, 1.0, 2.0, 0.01)
        assert not res.clipped

    def test_json_dict_shape(self, bo3):
        res = composer.leading_order(bo3, 1.0, 2.0, 0.1)
        d = res.to_json_dict()
        assert set(d) == {"a_new", "lambda", "eps_tot", "predicted_pc",
                          "clipped", "strategy"}
        assert list(d["strategy"]) == sorted(d["strategy"])


class TestANewOfB:
    def test_matches_leading_order(self, bo3):
        for b in (1.5, 2.0, 3.0):
            assert composer.a_new_of_b(bo3, 1.0, b) == \
                composer.leading_order(bo3, 1.0, b, 0.01).a_new

    def test_scales_linearly_in_a(self, bo3):
        one = composer.a_new_of_b(bo3, 1.0, 2.5)
        two = composer.a_new_of_b(bo3, 2.0, 2.5)
        assert math.isclose(two, 2.0 * one, rel_tol=1e-14)


class TestDerivativeInB:
    def test_step_validation(self, bo3):
        with pytest.raises(ValueError):
            composer.derivative_in_b(bo3, 1.0, 2.0, h=0.0)
        with pytest.raises(ValueError):
            composer.derivative_in_b(bo3, 1.0, 2.0, h=0.2)
        with pytest.raises(ValueError):
            composer.derivative_in_b(bo3, 1.0, 1.005, h=0.01)

    def test_against_direct_difference(self, bo3):
        h = 0.01
        d = composer.derivative_in_b(bo3, 1.0, 2.0, h=h)
        manual = (composer.a_new_of_b(bo3, 1.0, 2.0 + h)
                  - composer.a_new_of_b(bo3, 1.0, 2.0 - h)) / (2.0 * h)
        assert d == manual

    def test_one_flip_derivative_is_zero(self):
        # a single unit-delta node has S = 2^-0 * 1 = 1 for every b
        tree = game_tree.gen_full(1, [0, 1])
        assert composer.derivative_in_b(tree, 1.0, 2.0) == 0.0


class TestExactOutcome:
    def test_honest_play(self, fair_tree):
        ann = game_tree.annotate(fair_tree)
        strategy = {p: 0.0 for p, _ in ann.internal()}
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
        t = composer.exact_outcome(tree, CheatModel(1.0, 2.0), {"": 0.1})
        keep = 1.0 - 0.01
        assert t.p0 == keep * 0.6
        assert t.p1 == keep * 0.4
        assert t.pc == 0.1 ** 2

    def test_two_level_by_hand(self):
        # bias only the root of a depth-2 tree; children play honestly
        tree = game_tree.gen_full(2, [0, 1, 1, 0])
        strategy = {"": 0.1, "U": 0.0, "D": 0.0}
        t = composer.exact_outcome(tree, CheatModel(1.0, 2.0), strategy)
        # both children have P_W = 1/2, so the root bias cancels exactly
        assert math.isclose(t.p0, (1.0 - 0.01) * 0.5, abs_tol=1e-15)
        assert t.pc == 0.1 ** 2

    def test_missing_path_rejected(self, bo3):
        with pytest.raises(ValueError, match="UD"):
            composer.exact_outcome(bo3, CheatModel(1.0, 2.0),
                                   {"": 0.0, "U": 0.0, "D": 0.0, "DU": 0.0})

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
            assert got_strat == want_strat, name

    def test_matches_literal_enumeration_best_of_3(self):
        m = CheatModel(1.0, 2.0)
        tree = SMALL_SUITE["best_of_3"]
        want_strat, want_pc = literal_grid_min(tree, m, 0.1, 0.125)
        got_strat, got_pc = composer.brute_force_min_pc(tree, m, 0.1, 0.125)
        assert got_pc == want_pc
        assert got_strat == want_strat

    def test_matches_literal_on_other_exponents(self):
        tree = SMALL_SUITE["full2_a"]
        # (4, 2) puts pc = 1 at eps = +-1/2: both branch probabilities are zero
        for a, b in [(0.5, 2.0), (1.0, 3.0), (2.0, 1.5), (4.0, 2.0)]:
            m = CheatModel(a, b)
            want_strat, want_pc = literal_grid_min(tree, m, 0.05, 0.1)
            got_strat, got_pc = composer.brute_force_min_pc(tree, m, 0.05, 0.1)
            assert got_pc == want_pc, (a, b)
            assert got_strat == want_strat, (a, b)

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
        assert all(v == 0.0 for v in strat.values())

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

    @pytest.mark.parametrize("grid_step, combos", [(1e-3, 189036645),
                                                   (2e-3, 23714912)])
    def test_combination_cap(self, grid_step, combos):
        pair = game_tree.Flip(game_tree.Leaf(0), game_tree.Leaf(1))
        tree = game_tree.Flip(game_tree.Flip(pair, pair), game_tree.Leaf(0))
        with pytest.raises(ValueError,
                           match=rf"\({combos} grid combinations at one node\)"):
            composer.brute_force_min_pc(tree, CheatModel(1.0, 2.0), 0.05, grid_step)

    def test_too_fine_grid_rejected(self, bo3):
        with pytest.raises(ValueError):
            composer.brute_force_min_pc(bo3, CheatModel(1.0, 2.0), 0.05, 5e-4)

    @pytest.mark.parametrize("grid_step", [math.nan, math.inf, -math.inf, 0.0,
                                           -0.1, 0.7, 0.5000001])
    def test_grid_step_outside_range_rejected(self, bo3, grid_step):
        with pytest.raises(ValueError, match="grid_step"):
            composer.brute_force_min_pc(bo3, CheatModel(1.0, 2.0), 0.05, grid_step)

    def test_coarsest_grid_accepted(self):
        # steps -1/2, 0, 1/2: the only cheat is a certain catch
        strat, min_pc = composer.brute_force_min_pc(
            SMALL_SUITE["one_flip"], CheatModel(1.0, 2.0), 0.05, 0.5)
        assert strat == {"": 0.5}
        assert min_pc == 0.25

    def test_never_beats_leading_order_by_more_than_slack(self, small_tree):
        # grid answer >= true optimum ~ a_new eps_tot^2 minus grid slack
        m = CheatModel(1.0, 2.0)
        grid_step = 0.005
        res = composer.leading_order(small_tree, 1.0, 2.0, 0.05)
        _, min_pc = composer.brute_force_min_pc(small_tree, m, 0.05, grid_step)
        assert min_pc >= res.predicted_pc - 3.0 * m.a * grid_step


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
        assert h.hexdigest() == ("a7d33783b158f5c9da883f5a8d1b6bb3"
                                 "2a677d853633609d752083ee7b8ec1b6")

    def test_simulate_tree_counts(self):
        tree = game_tree.gen_best_of(15)
        strategy = composer.leading_order(tree, 1.0, 2.0, 0.1).strategy
        r = simulate.simulate_tree(tree, CheatModel(1.0, 2.0), strategy, 20000, 7)
        assert (r.wins, r.losses, r.catches, r.overruns) == (11863, 7940, 197, 0)

    def test_brute_force_best_of_3(self):
        strategy, min_pc = composer.brute_force_min_pc(
            game_tree.gen_best_of(3), CheatModel(1.0, 2.0), 0.05, 1e-3)
        assert min_pc == 0.002646773543068613
        assert strategy == {"": 0.026000000000000002, "D": 0.026000000000000002,
                            "DU": 0.051000000000000004, "U": 0.026000000000000002,
                            "UD": 0.051000000000000004}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       eps_tot=st.floats(min_value=-0.3, max_value=0.3),
       b=st.floats(min_value=1.1, max_value=4.0))
def test_leading_order_properties_random_trees(seed, eps_tot, b):
    tree = game_tree.gen_random_fair(6, seed)
    res = composer.leading_order(tree, 1.0, b, eps_tot)
    assert res.a_new > 0.0
    assert all(abs(v) <= 0.5 for v in res.strategy.values())
    ann = game_tree.annotate(tree)
    for path, info in ann.internal():
        eps = res.strategy[path]
        # each node biases toward its own advantage direction
        if info.delta == 0.0 or eps_tot == 0.0:
            assert eps == 0.0
        else:
            assert eps * math.copysign(1.0, eps_tot) * info.delta >= 0.0
