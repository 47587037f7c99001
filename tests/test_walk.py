"""Exact walk-game solves: evaluation, policy iteration, bound checks."""

import hashlib
import json
import math

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

    def test_interior_sites(self):
        assert list(prime_game(1).interior()) == [0]
        assert list(prime_game(3).interior()) == [-2, -1, 0, 1, 2]

    def test_target_is_linear_ramp(self):
        g = prime_game(4)
        assert g.target(-4) == 0.0
        assert g.target(0) == 0.5
        assert g.target(4) == 1.0


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
        improved = walk.improve_policy(g, sol.w)
        emax = g.model.eps_max
        assert set(improved.values()) <= {0.0, emax}

    def test_first_sweep_from_honest_cheats_everywhere(self):
        # against the honest ramp, the one-step gain coefficient at every
        # site is 3/(2N) > 0 for a=1, so every site switches on
        g = prime_game(5)
        sol = walk.evaluate_policy(g, walk.honest_policy(g))
        improved = walk.improve_policy(g, sol.w)
        assert all(v == g.model.eps_max for v in improved.values())

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
        w = {z: values[(z + n) % len(values)] for z in range(-n, n + 1)}
        want = {z: self._reference_site_best(g, w[z + 1], w[z - 1], g.target(z))
                for z in g.interior()}
        assert walk.improve_policy(g, w) == want

    def test_std_actions_respect_domain(self):
        g = std_game(6)
        sol = walk.evaluate_policy(g, walk.honest_policy(g))
        improved = walk.improve_policy(g, sol.w)
        for e in improved.values():
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
        records = walk.sweep(1.0, PRIME, range(1, 31))
        assert [r.n for r in records] == list(range(1, 31))
        assert all(r.bound_ok for r in records)

    def test_record_matches_optimize(self):
        rec = walk.sweep(1.0, PRIME, [7])[0]
        sol = walk.optimize(prime_game(7))
        assert rec.bias == sol.bias
        assert rec.bound == sol.bound
        assert rec.iterations == sol.iterations

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
        assert eps.tolist() == [0.0, 0.0, 0.0, 0.25, 0.25]

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
