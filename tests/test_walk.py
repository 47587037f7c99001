"""Exact walk-game solves: evaluation, policy iteration, bound checks."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coincomp import cheat_model, simulate, walk
from coincomp.cheat_model import PRIME, STD, CheatModel


def prime_game(n, a=1.0):
    return walk.WalkGame(n, CheatModel(a, 1.0, PRIME))


def std_game(n, a=1.0):
    return walk.WalkGame(n, CheatModel(a, 1.0, STD))


class TestWalkGame:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            walk.WalkGame(0, CheatModel(1.0, 1.0, PRIME))

    def test_rejects_nonlinear_detection(self):
        with pytest.raises(ValueError):
            walk.WalkGame(3, CheatModel(1.0, 2.0, STD))

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_rejects_non_int_n(self, n):
        # 2.5 failed deep in optimize, and True solved N = 1
        with pytest.raises(ValueError, match="N must be an int"):
            walk.WalkGame(n, CheatModel(1.0, 1.0, PRIME))

    def test_interior_sites(self):
        assert list(prime_game(1).interior()) == [0]
        assert list(prime_game(3).interior()) == [-2, -1, 0, 1, 2]

    def test_target_is_linear_ramp(self):
        targ = walk._targets(4)
        assert len(targ) == 9
        assert (targ[0], targ[4], targ[8]) == (0.0, 0.5, 1.0)
        assert targ == tuple((4 + z) / 8.0 for z in range(-4, 5))


class TestEvaluatePolicy:
    def test_honest_value_is_the_ramp(self):
        for n in (1, 2, 5, 20):
            g = prime_game(n)
            sol = walk.evaluate_policy(g, walk.honest_policy(g))
            for z in range(-n, n + 1):
                assert abs(sol.w[z] - (n + z) / (2 * n)) <= 1e-12
                assert abs(sol.delta[z]) <= 1e-12
            assert abs(sol.bias) <= 1e-12

    def test_boundary_values_present(self):
        sol = walk.evaluate_policy(prime_game(3), walk.honest_policy(prime_game(3)))
        assert sol.w[3] == 1.0
        assert sol.w[-3] == 0.0

    def test_n1_prime_closed_form(self):
        # W(0) = (1/2+e) + a e /2 for one site, absorbing at +-1
        for a in (0.5, 1.0, 2.0):
            g = prime_game(1, a)
            for frac in (0.0, 0.3, 1.0):
                e = frac * g.model.eps_max
                sol = walk.evaluate_policy(g, {0: e})
                assert math.isclose(sol.w[0], 0.5 + e + a * e / 2.0,
                                    abs_tol=1e-14)

    def test_n1_std_closed_form(self):
        # W(0) = (1 - a e)(1/2 + e) + a e / 2
        g = std_game(1)
        for e in (0.0, 0.2, 0.5):
            sol = walk.evaluate_policy(g, {0: e})
            assert math.isclose(sol.w[0], (1 - e) * (0.5 + e) + e / 2.0,
                                abs_tol=1e-14)

    def test_policy_sites_must_match_interior(self):
        g = prime_game(3)
        with pytest.raises(ValueError):
            walk.evaluate_policy(g, {0: 0.0})
        bad = walk.honest_policy(g)
        bad[7] = 0.0
        with pytest.raises(ValueError):
            walk.evaluate_policy(g, bad)

    def test_policy_eps_domain_checked(self):
        g = prime_game(2)
        bad = walk.honest_policy(g)
        bad[0] = g.model.eps_max * 1.01
        with pytest.raises(ValueError):
            walk.evaluate_policy(g, bad)

    def test_bound_field(self):
        sol = walk.evaluate_policy(prime_game(10), walk.honest_policy(prime_game(10)))
        assert sol.bound == (2.0 + 1.0) / (2.0 * 1.0 * 10)
        assert sol.bound_ok

    def test_bound_ok_decided_on_demand(self):
        # no sweep decides the verdict; the returned solution does, once
        sol = walk.optimize(prime_game(10))
        assert "bound_ok" not in vars(sol)
        assert sol.bound_ok is True
        assert vars(sol)["bound_ok"] is True
        assert max(sol.delta_list) <= sol.bound + 1e-12
        assert replace(sol, bound=sol.bias / 2).bound_ok is False

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_value_in_unit_interval_and_monotone(self, n, seed):
        # any admissible prime policy keeps W a probability, increasing in z
        g = prime_game(n)
        emax = g.model.eps_max
        bits = seed
        policy = {}
        for z in g.interior():
            policy[z] = emax if bits & 1 else 0.0
            bits >>= 1
        sol = walk.evaluate_policy(g, policy)
        zs = sorted(sol.w)
        for z in zs:
            assert -1e-12 <= sol.w[z] <= 1.0 + 1e-12
        for lo, hi in zip(zs, zs[1:]):
            assert sol.w[lo] <= sol.w[hi] + 1e-12


class TestImprovePolicy:
    def test_prime_actions_are_binary(self):
        g = prime_game(6)
        sol = walk.evaluate_policy(g, walk.honest_policy(g))
        improved = walk.improve_policy(g, sol.w_list)
        emax = g.model.eps_max
        assert len(improved) == 11
        assert set(improved) <= {0.0, emax}

    def test_first_sweep_from_honest_cheats_everywhere(self):
        # against the honest ramp, the one-step gain coefficient at every
        # site is 3/(2N) > 0 for a=1, so every site switches on
        g = prime_game(5)
        sol = walk.evaluate_policy(g, walk.honest_policy(g))
        improved = walk.improve_policy(g, sol.w_list)
        assert improved == [g.model.eps_max] * 9

    @staticmethod
    def _reference_site_best(game, wp, wm, targ):
        # the per-site scalar maximizer, kept as the reference
        model = game.model

        def q(eps):
            t = cheat_model.triple(model, eps)
            return t.p0 * wp + t.p1 * wm + t.pc * targ

        if model.variant == PRIME:
            e = model.eps_max
            return e if q(e) > q(0.0) else 0.0
        a = model.a
        e_hi = min(0.5, 1.0 / a)
        cands = [0.0, e_hi]
        curv = -a * (wp - wm)
        if curv < 0.0:
            vertex = -((wp - wm) - a * (wp + wm) / 2.0 + a * targ) / (2.0 * curv)
            if 0.0 < vertex < e_hi:
                cands.append(vertex)
        best = max(q(e) for e in cands)
        return min(e for e in cands if q(e) == best)

    @given(st.sampled_from([PRIME, STD]), st.sampled_from([0.3, 1.0, 2.0]),
           st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                    min_size=1, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reference(self, variant, a, values):
        # arbitrary w, not only solver output: curvature of either sign,
        # and dyadic values that make exact ties
        n = (len(values) + 2) // 2
        g = walk.WalkGame(n, CheatModel(a, 1.0, variant))
        w = [values[i % len(values)] for i in range(2 * n + 1)]
        want = [self._reference_site_best(g, w[i + 2], w[i], (i + 1) / (2.0 * n))
                for i in range(2 * n - 1)]
        assert walk.improve_policy(g, w) == want

    def test_std_actions_respect_domain(self):
        g = std_game(6)
        sol = walk.evaluate_policy(g, walk.honest_policy(g))
        improved = walk.improve_policy(g, sol.w_list)
        for e in improved:
            assert 0.0 <= e <= 0.5


class TestOptimize:
    def test_pinned_n1(self):
        assert walk.optimize(prime_game(1)).bias == 0.375
        assert walk.optimize(std_game(1)).bias == 0.25

    def test_pinned_n1_policies(self):
        assert walk.optimize(prime_game(1)).policy == {0: 0.25}
        assert walk.optimize(std_game(1)).policy == {0: 0.5}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_matches_enumeration(self, n, a):
        # exact W(0) ties exist (eps_max zeroes p1, making sites below
        # unreachable), so policies may legitimately differ; the value
        # must not
        got = walk.optimize(prime_game(n, a))
        want = walk.brute_force_optimize(prime_game(n, a))
        assert abs(got.bias - want.bias) <= 1e-12
        assert got.w[0] >= want.w[0] - 1e-15

    def test_beats_every_constant_policy(self):
        # the optimum dominates the constant-eps family (dense scan)
        g = std_game(4)
        best_const = max(
            walk.evaluate_policy(g, {z: k / 100 for z in g.interior()}).bias
            for k in range(0, 51))
        assert walk.optimize(g).bias >= best_const - 1e-12

    def test_beats_all_emax(self):
        g = prime_game(8)
        emax = g.model.eps_max
        all_on = walk.evaluate_policy(g, {z: emax for z in g.interior()})
        assert walk.optimize(g).bias >= all_on.bias - 1e-12

    def test_bias_positive_and_bounded(self):
        for n in (1, 3, 10, 40):
            sol = walk.optimize(prime_game(n))
            assert 0.0 < sol.bias <= 0.5
            assert sol.bound_ok

    def test_bias_decreases_with_n(self):
        biases = [walk.optimize(prime_game(n)).bias for n in range(1, 21)]
        for lo, hi in zip(biases[1:], biases):
            assert lo <= hi + 1e-15

    def test_iterations_reported(self):
        sol = walk.optimize(prime_game(5))
        assert sol.iterations >= 2

    def test_delta_peaks_moderately(self):
        # per-site excess must respect the bound at every site, not only 0
        sol = walk.optimize(prime_game(30))
        for z, d in sol.delta.items():
            assert d <= sol.bound + 1e-12

    def test_large_n_settles(self):
        # near-tied policies at large N must not cycle forever
        sol = walk.optimize(prime_game(150, 0.5))
        assert sol.bound_ok
        assert sol.iterations <= 10 * 2 * 150

    def test_json_dict_round_trip_keys(self):
        d = walk.optimize(prime_game(2)).to_json_dict()
        assert set(d) == {"bias", "bound", "bound_ok", "iterations",
                          "policy", "w", "delta"}
        assert list(d["policy"]) == sorted(d["policy"], key=int)


class TestBruteForce:
    def test_rejects_std(self):
        with pytest.raises(ValueError):
            walk.brute_force_optimize(std_game(2))

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            walk.brute_force_optimize(prime_game(6))

    def test_enumeration_count(self):
        sol = walk.brute_force_optimize(prime_game(3))
        assert sol.iterations == 2 ** 5


class TestSweep:
    def test_rows_ascend_and_hold_bound(self):
        records = walk.sweep(CheatModel(1.0, 1.0, PRIME), range(1, 31))
        assert [r.n for r in records] == list(range(1, 31))
        assert all(r.bound_ok for r in records)

    @pytest.mark.parametrize("variant,a", [(PRIME, 1.0), (STD, 0.5)])
    def test_record_matches_optimize(self, variant, a):
        rec = walk.sweep(CheatModel(a, 1.0, variant), [7])[0]
        sol = walk.optimize(walk.WalkGame(7, CheatModel(a, 1.0, variant)))
        assert (rec.n, rec.a, rec.variant) == (7, a, variant)
        assert rec.bias == sol.bias
        assert rec.bound == sol.bound
        assert rec.bound_ok is sol.bound_ok
        assert rec.iterations == sol.iterations

    def test_rejects_nonlinear_model(self):
        with pytest.raises(ValueError, match="b = 1"):
            walk.sweep(CheatModel(1.0, 2.0, STD), [1, 2])

    def test_std_never_beats_prime(self):
        for n in (1, 2, 5, 10, 25):
            p = walk.optimize(prime_game(n)).bias
            s = walk.optimize(std_game(n)).bias
            assert s <= p + 1e-12


class TestPinnedAnswers:
    """Byte-level pins of the solver's output; any ulp change trips them."""

    DIGESTS = {
        (PRIME, 0.5): "6c9692a3ee6bbca5aced526d7d5315a83a45e7d574e4656b97216ad92440ee1e",
        (PRIME, 1.0): "5caaa15ff5f310e75da9026f93e31c74f3c87fbb70e36a32da55ea0b58b251a1",
        (PRIME, 2.0): "7d3a2388e8c257946ec65e1e7c6d3a290c1262ae5d691cf39ca8b0ab5e480cdf",
        (STD, 0.5): "d5425d9df8e13acd99a9157ae39fafa382ebb155f40c591a2f64ab2d78c54430",
        (STD, 1.0): "5111401912e0aa602c8895219d99043983b411329038da51d3b58d4fde8af85a",
        (STD, 2.0): "a99fdb3299e1585005f8e789f0dbfc60d25a652f2431deb4b1ffe32f8d67f5ed",
    }

    @pytest.mark.parametrize("variant,a", sorted(DIGESTS))
    def test_optimize_json_digest(self, variant, a):
        h = hashlib.sha256()
        for n in (1, 2, 7, 40, 150, 420):
            sol = walk.optimize(walk.WalkGame(n, CheatModel(a, 1.0, variant)))
            h.update((json.dumps(sol.to_json_dict()) + "\n").encode())
        assert h.hexdigest() == self.DIGESTS[(variant, a)]

    @pytest.mark.parametrize("variant,counts", [
        (PRIME, (12782, 7218, 18858, 0)),
        (STD, (11747, 8253, 19025, 0)),
    ])
    def test_simulate_walk_counts(self, variant, counts):
        g = walk.WalkGame(10, CheatModel(1.0, 1.0, variant))
        r = simulate.simulate_walk(g, walk.optimize(g).policy, 20000, 3)
        assert (r.wins, r.losses, r.catches, r.overruns) == counts


class TestArrayPath:
    @pytest.mark.parametrize("variant", [PRIME, STD])
    def test_few_triple_calls_per_sweep(self, variant, monkeypatch):
        calls = []
        real = cheat_model.triple

        def counting(model, eps):
            calls.append(eps)
            return real(model, eps)

        monkeypatch.setattr(cheat_model, "triple", counting)
        sol = walk.optimize(walk.WalkGame(200, CheatModel(1.0, 1.0, variant)))
        assert len(calls) <= 4 * sol.iterations

    def test_solution_holds_python_scalars(self):
        sol = walk.optimize(std_game(5))
        assert type(sol.bias) is float
        assert type(sol.bound_ok) is bool
        for d in (sol.w, sol.delta, sol.policy):
            assert all(type(z) is int and type(v) is float for z, v in d.items())
        assert list(sol.w) == list(range(-5, 6))

    def test_check_policy_returns_interior_array(self):
        g = prime_game(3)
        policy = {z: g.model.eps_max * (z > 0) for z in g.interior()}
        eps = walk.check_policy(g, policy)
        assert eps == [0.0, 0.0, 0.0, 0.25, 0.25]

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 0.3])
    def test_check_policy_rejects_bad_eps(self, bad):
        g = prime_game(3)
        policy = walk.honest_policy(g)
        policy[1] = bad
        with pytest.raises(ValueError):
            walk.check_policy(g, policy)

    def test_check_policy_names_missing_and_extra_sites(self):
        g = prime_game(2)
        with pytest.raises(ValueError, match=r"missing \[-1, 1\], unexpected \[5\]"):
            walk.check_policy(g, {0: 0.0, 5: 0.0})


# The numpy solver that the plain-list one replaced, kept as the reference:
# the array triple, evaluate_policy, improve_policy and optimize as they
# were, minus the input checks, with site-keyed dicts in and out.

def reference_triple(model, eps):
    if model.variant == PRIME:
        p0 = 0.5 + eps
        p1 = 0.5 - (1.0 + model.a) * eps
        pc = model.a * eps
        if p1.min() < 0.0:
            p1 = (p1 + abs(p1)) / 2.0
        return p0, p1, pc
    pc = model.a * abs(eps) ** model.b
    return (1.0 - pc) * (0.5 + eps), (1.0 - pc) * (0.5 - eps), pc


def reference_target(game, z):
    return (game.n + z) / (2.0 * game.n)


def reference_evaluate(game, policy, iterations=0):
    eps = np.array([policy[z] for z in game.interior()], dtype=float)
    p0a, p1a, pca = reference_triple(game.model, eps)
    n = game.n
    m = 2 * n - 1
    sites = range(-n, n + 1)
    targ = reference_target(game, np.array(sites))
    p0, p1 = p0a.tolist(), p1a.tolist()
    rhs = (pca * targ[1:-1]).tolist()
    rhs[m - 1] += p0[m - 1] * 1.0
    cp = [0.0] * m
    dp = [0.0] * m
    cp[0] = -p0[0]
    dp[0] = rhs[0]
    for i in range(1, m):
        piv = 1.0 - (-p1[i]) * cp[i - 1]
        cp[i] = -p0[i] / piv
        dp[i] = (rhs[i] - (-p1[i]) * dp[i - 1]) / piv
    w = [0.0] * (m + 1) + [1.0]
    w[m] = dp[m - 1]
    for i in range(m - 2, -1, -1):
        w[i + 1] = dp[i] - cp[i] * w[i + 2]
    wv = np.array(w)
    r = wv[1:-1] - (p0a * wv[2:] + p1a * wv[:-2] + pca * targ[1:-1])
    assert abs(r).max() <= 1e-10
    delta = wv - targ
    bound = (2.0 + game.model.a) / (2.0 * game.model.a * n)
    return {"w": dict(zip(sites, w)), "delta": dict(zip(sites, delta.tolist())),
            "policy": policy, "bias": float(delta[n]), "bound": bound,
            "bound_ok": bool((delta <= bound + 1e-12).all()),
            "iterations": iterations}


def reference_improve(game, w):
    model = game.model
    n = game.n
    wv = np.array([w[z] for z in range(-n, n + 1)])
    wp, wm, targ = wv[2:], wv[:-2], reference_target(game, np.arange(1 - n, n))

    def q(eps):
        t0, t1, tc = reference_triple(model, np.asarray(eps, dtype=float))
        return t0 * wp + t1 * wm + tc * targ

    if model.variant == PRIME:
        e = model.eps_max
        best = np.where(q(e) > q(0.0), e, 0.0)
    else:
        a = model.a
        e_hi = min(0.5, 1.0 / a)
        curv = -a * (wp - wm)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vertex = -((wp - wm) - a * (wp + wm) / 2.0 + a * targ) / (2.0 * curv)
        vertex = np.where(curv < 0.0, vertex.clip(0.0, e_hi), 0.0)
        q0, q_hi, q_v = q(0.0), q(e_hi), q(vertex)
        top = np.maximum(np.maximum(q0, q_hi), q_v)
        best = np.where(q0 == top, 0.0, np.where(q_v == top, vertex, e_hi))
    return dict(zip(game.interior(), best.tolist()))


def reference_optimize(game):
    policy = walk.honest_policy(game)
    prev = None
    for sweep_count in range(1, 10 * 2 * game.n + 1):
        sol = reference_evaluate(game, policy, iterations=sweep_count)
        improved = reference_improve(game, sol["w"])
        if improved == policy:
            return sol
        if prev is not None and sol["w"][0] <= prev["w"][0]:
            return dict(prev, iterations=sweep_count)
        prev = sol
        policy = improved
    raise AssertionError("no settle")


def _hexed(sol):
    """A solution's fields with every float spelled by float.hex."""
    if not isinstance(sol, dict):
        sol = {"w": sol.w, "delta": sol.delta, "policy": sol.policy,
               "bias": sol.bias, "bound": sol.bound, "bound_ok": sol.bound_ok,
               "iterations": sol.iterations}
    out = {}
    for key, value in sol.items():
        if isinstance(value, dict):
            out[key] = [(z, float(v).hex()) for z, v in value.items()]
        elif isinstance(value, float):
            out[key] = value.hex()
        else:
            out[key] = value
    return out


@st.composite
def walk_games(draw, max_n=40):
    variant = draw(st.sampled_from([PRIME, STD]))
    a = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0, 3.7, 7.0]))
    return walk.WalkGame(draw(st.integers(1, max_n)), CheatModel(a, 1.0, variant))


class TestMatchesNumpyReference:
    """Bit for bit against the numpy solver the list one replaced."""

    @given(walk_games())
    @settings(max_examples=60, deadline=None)
    def test_optimize(self, game):
        assert _hexed(walk.optimize(game)) == _hexed(reference_optimize(game))

    @given(walk_games(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_user_policy_evaluate_and_improve(self, game, fracs):
        # interior eps anywhere in the domain, not only the solver's picks
        e_max = game.model.eps_max
        policy = {z: e_max * fracs[(z + game.n) % len(fracs)]
                  for z in game.interior()}
        got = walk.evaluate_policy(game, policy)
        want = reference_evaluate(game, policy)
        assert _hexed(got) == _hexed(want)
        assert _hexed({"p": dict(zip(game.interior(),
                                     walk.improve_policy(game, got.w_list)))}) == \
            _hexed({"p": reference_improve(game, want["w"])})

    @pytest.mark.parametrize("n", [150, 317, 420])
    @pytest.mark.parametrize("variant,a", [(PRIME, 0.5), (STD, 1.0), (STD, 7.0)])
    def test_larger_games(self, variant, a, n):
        game = walk.WalkGame(n, CheatModel(a, 1.0, variant))
        assert _hexed(walk.optimize(game)) == _hexed(reference_optimize(game))


class TestListForm:
    def test_list_policy_equals_dict_policy(self):
        g = std_game(6)
        policy = {z: 0.03 * (z + 6) for z in g.interior()}
        by_dict = walk.evaluate_policy(g, policy)
        by_list = walk.evaluate_policy(g, [policy[z] for z in g.interior()])
        assert _hexed(by_list) == _hexed(by_dict)

    def test_list_policy_of_wrong_length(self):
        with pytest.raises(ValueError, match="policy list has 4 entries"):
            walk.evaluate_policy(prime_game(3), [0.0] * 4)

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_list_policy_values_checked(self, where):
        eps = [0.0] * 5
        eps[where] = math.nan
        with pytest.raises(ValueError, match="got nan"):
            walk.evaluate_policy(prime_game(3), eps)

    def test_site_dicts_match_lists(self):
        sol = walk.optimize(std_game(4))
        assert list(sol.w.values()) == sol.w_list
        assert list(sol.delta.values()) == sol.delta_list
        assert list(sol.policy.values()) == sol.eps_list
        assert sol.delta[0] == sol.bias
        assert sol.policy[-3] == sol.eps_list[0]

    def test_optimize_makes_no_site_dict(self, monkeypatch):
        # a sweep hands lists from evaluate_policy to improve_policy and back
        seen = []
        real_eval, real_improve = walk.evaluate_policy, walk.improve_policy
        monkeypatch.setattr(walk, "evaluate_policy",
                            lambda g, p, **kw: seen.append(type(p)) or real_eval(g, p, **kw))
        monkeypatch.setattr(walk, "improve_policy",
                            lambda g, w: seen.append(type(w)) or real_improve(g, w))
        sol = walk.optimize(std_game(30))
        assert set(seen) == {list}
        assert len(seen) == 2 * sol.iterations
        assert "w" not in vars(sol) and "policy" not in vars(sol)


class TestPolicyValidation:
    """A non-finite eps at the first, a middle or the last site."""

    @pytest.mark.parametrize("site", [-2, 0, 2])
    @pytest.mark.parametrize("variant,bad,message", [
        (PRIME, math.nan, "requires eps >= 0, got nan"),
        (PRIME, math.inf, "exceeds eps_max"),
        (PRIME, -math.inf, "requires eps >= 0, got -inf"),
        (STD, math.nan, r"\|eps\| <= 1/2, got nan"),
        (STD, math.inf, r"\|eps\| <= 1/2, got inf"),
        (STD, -math.inf, r"\|eps\| <= 1/2, got -inf"),
    ])
    def test_rejected_with_the_bound_named(self, variant, bad, message, site):
        g = walk.WalkGame(3, CheatModel(1.0, 1.0, variant))
        policy = {z: 0.1 for z in g.interior()}
        policy[site] = bad
        with pytest.raises(ValueError, match=message):
            walk.check_policy(g, policy)
        with pytest.raises(ValueError, match=message):
            walk.evaluate_policy(g, policy)
