"""Exact walk-game solves: evaluation, policy iteration, bound checks."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coincomp import cheat_model, simulate, walk
from coincomp.cheat_model import PRIME, STD, CheatModel
from conftest import json_digest


# the detection coefficients a of the exact checks and pins below
WALK_A = [0.3, 0.5, 1.0, 2.0, 3.7, 7.0]


def prime_game(n, a=1.0):
    return walk.WalkGame(n, CheatModel(a, 1.0, PRIME))


def std_game(n, a=1.0):
    return walk.WalkGame(n, CheatModel(a, 1.0, STD))


def exact_triple(model, eps):
    """The box's (p0, p1, pc) at eps, in Fractions; a float enters exactly."""
    a, e = Fraction(model.a), Fraction(eps)
    if model.variant == PRIME:
        return Fraction(1, 2) + e, Fraction(1, 2) - (1 + a) * e, a * e
    pc = a * abs(e)  # b = 1
    return (1 - pc) * (Fraction(1, 2) + e), (1 - pc) * (Fraction(1, 2) - e), pc


def exact_w(game, eps):
    """W(z) at z = -N..N (index z + N) under the interior policy eps, exactly.

    Thomas elimination in Fractions on W(z) = p0 W(z+1) + p1 W(z-1)
    + pc (N+z)/(2N), W(N) = 1, W(-N) = 0, with W(z) = d + q W(z+1) kept
    per row; the boundary W(-N) = 0 is the row d = q = 0.
    """
    n = game.n
    q = d = Fraction(0)
    rows = []
    for z, e in zip(game.interior(), eps):
        p0, p1, pc = exact_triple(game.model, e)
        piv = 1 - p1 * q
        q, d = p0 / piv, (pc * Fraction(n + z, 2 * n) + p1 * d) / piv
        rows.append((q, d))
    w = [Fraction(1)]  # W(z) from z = N downwards
    for q, d in reversed(rows):
        w.append(d + q * w[-1])
    w.append(Fraction(0))
    return w[::-1]


class TestWalkGame:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            walk.WalkGame(0, CheatModel(1.0, 1.0, PRIME))

    def test_rejects_nonlinear_detection(self):
        with pytest.raises(ValueError, match="b = 1"):
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


class TestRecords:
    """The walk path's records are NamedTuples: read-only, hashable tuples."""

    @pytest.mark.parametrize("make,field", [
        (lambda: CheatModel(1.0, 2.0), "a"),
        (lambda: CheatModel(1.0, 1.0, PRIME), "variant"),
        (lambda: cheat_model.triple(CheatModel(1.0, 2.0), 0.1), "pc"),
        (lambda: prime_game(3), "n"),
        (lambda: prime_game(3), "model"),
        (lambda: walk.optimize(prime_game(3)), "bias"),
        (lambda: walk.optimize(prime_game(3)), "w_list"),
    ])
    def test_fields_are_read_only(self, make, field):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_equal_games_hash_alike(self):
        game = prime_game(4, a=2.0)
        twin = walk.WalkGame(4, CheatModel(a=2.0, b=1.0, variant=PRIME))
        assert game == twin and game is not twin
        assert hash(game) == hash(twin)
        assert {game: "solved"}[twin] == "solved"
        assert game != prime_game(4) and game != std_game(4, a=2.0)

    def test_records_are_tuples(self):
        model = CheatModel(1.0, 1.0, PRIME)
        assert model == (1.0, 1.0, PRIME)
        assert tuple(prime_game(2)) == (2, model)
        assert cheat_model.triple(model, 0.0) == (0.5, 0.5, 0.0)

    def test_replace_runs_the_checks(self):
        with pytest.raises(ValueError, match="a must be positive"):
            CheatModel(1.0, 2.0)._replace(a=-1.0)
        with pytest.raises(ValueError, match="N must be >= 1"):
            prime_game(3)._replace(n=0)
        assert prime_game(3)._replace(n=5) == prime_game(5)


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
        assert sol._replace(bound=sol.bias / 2).bound_ok is False

    def test_residual_failure_names_the_worst_site(self, monkeypatch):
        # with no tolerance left, any rounding dust fails the check; the
        # message must carry the largest residual and the site it is at.
        # Row z: W(z) - p0 W(z+1) - p1 W(z-1) - pc (N+z)/(2N), with the top
        # row's p0 W(N) moved to its right-hand side, as the solver has it
        game = std_game(8)
        eps = [0.5 * ((7 * i) % 15) / 15 for i in range(15)]
        w = walk.evaluate_policy(game, eps).w_list
        p0, p1, pc = cheat_model.triple(game.model, eps)
        res = {}
        for i, z in enumerate(game.interior()):
            rhs = pc[i] * ((i + 1) / 16.0)
            up = w[i + 2]
            if z == 7:
                rhs, up = rhs + p0[i], 0.0
            res[z] = w[i + 1] - (p0[i] * up + p1[i] * w[i] + rhs)
        worst = max(map(abs, res.values()))
        assert worst > 0.0
        monkeypatch.setattr(walk, "_RESIDUAL_TOL", 0.0)
        with pytest.raises(RuntimeError) as info:
            walk.evaluate_policy(game, eps)
        found = re.fullmatch(r"solver residual (\S+) at site (-?\d+) exceeds 0\.0",
                             str(info.value))
        value, site = float(found[1]), int(found[2])
        assert res[site] == value and abs(value) == worst

    def test_pivot_failure_names_the_row(self):
        # p1 W(z-1) with p1 = 2 and q = 1 above it leaves pivot 1 - 2 = -1
        rec = walk._Improved([0.0] * 3, [1.0] * 3, [2.0] * 3, [0.0] * 3)
        with pytest.raises(RuntimeError, match=r"pivot -1\.0 at row 1;"):
            walk.evaluate_policy(prime_game(2), rec)

    @pytest.mark.parametrize("a", WALK_A)
    @pytest.mark.parametrize("variant", [PRIME, STD])
    def test_matches_exact_solve(self, variant, a):
        # every W(z) within 2e-15 of the exact value, N <= 12: all-0,
        # all-eps_max and a seeded policy of 0, eps_max and values between.
        # The worst error, 1.3e-15, is on the honest ramp (N+z)/(2N)
        rng = random.Random(f"{variant}:a={a}")
        for n in range(1, 13):
            game = walk.WalkGame(n, CheatModel(a, 1.0, variant))
            e_max = game.model.eps_max
            seeded = [rng.choice([0.0, e_max, e_max * rng.random()])
                      for _ in game.interior()]
            for eps in ([0.0] * (2 * n - 1), [e_max] * (2 * n - 1), seeded):
                got = walk.evaluate_policy(game, eps).w_list
                for x, want in zip(got, exact_w(game, eps)):
                    assert abs(Fraction(x) - want) <= 2e-15

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
        improved = walk.improve_policy(g, sol.w_list).eps
        emax = g.model.eps_max
        assert len(improved) == 11
        assert set(improved) <= {0.0, emax}

    def test_first_sweep_from_honest_cheats_everywhere(self):
        # against the honest ramp, the one-step gain coefficient at every
        # site is 3/(2N) > 0 for a=1, so every site switches on
        g = prime_game(5)
        sol = walk.evaluate_policy(g, walk.honest_policy(g))
        improved = walk.improve_policy(g, sol.w_list).eps
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

    # arbitrary w, not only solver output: curvature of either sign, and
    # dyadic values that make exact ties
    W_CASES = (st.sampled_from([PRIME, STD]), st.sampled_from(WALK_A),
               st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                        min_size=1, max_size=14))

    @staticmethod
    def _game_and_w(variant, a, values):
        n = (len(values) + 2) // 2
        g = walk.WalkGame(n, CheatModel(a, 1.0, variant))
        return g, [values[i % len(values)] for i in range(2 * n + 1)]

    @given(*W_CASES)
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reference(self, variant, a, values):
        g, w = self._game_and_w(variant, a, values)
        n = g.n
        want = [self._reference_site_best(g, w[i + 2], w[i], (i + 1) / (2.0 * n))
                for i in range(2 * n - 1)]
        assert walk.improve_policy(g, w).eps == want

    @staticmethod
    def _assert_record_of_the_eps(g, got):
        # evaluate_policy solves from the record without checking it, so
        # every eps must be in the box's domain, every p0 and p1 must be
        # cheat_model.triple's at that eps, bit for bit, and every rhs entry
        # its pc (N+z)/(2N), the top row's plus p0 W(N) with W(N) = 1
        for e in got.eps:
            g.model.check_eps(e)
        p0, p1, pc = cheat_model.triple(g.model, got.eps)
        rhs = [c * ((i + 1) / (2.0 * g.n)) for i, c in enumerate(pc)]
        rhs[-1] += p0[-1]
        assert [list(map(float.hex, col)) for col in got[1:]] == \
            [list(map(float.hex, col)) for col in (p0, p1, rhs)]

    @given(*W_CASES)
    @settings(max_examples=150, deadline=None)
    def test_columns_are_the_triples_of_the_eps(self, variant, a, values):
        g, w = self._game_and_w(variant, a, values)
        self._assert_record_of_the_eps(g, walk.improve_policy(g, w))

    # a value function as the solver makes them: W(-N) = 0, W(N) = 1 and
    # increasing in between
    @given(st.sampled_from([PRIME, STD]), st.sampled_from(WALK_A),
           st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_record_on_increasing_w(self, variant, a, values):
        n = (len(values) + 1) // 2
        g = walk.WalkGame(n, CheatModel(a, 1.0, variant))
        w = [0.0, *sorted(values[i % len(values)] for i in range(2 * n - 1)), 1.0]
        got = walk.improve_policy(g, w)
        assert got.eps == [self._reference_site_best(g, w[i + 2], w[i],
                                                     (i + 1) / (2.0 * n))
                           for i in range(2 * n - 1)]
        self._assert_record_of_the_eps(g, got)

    def test_std_actions_respect_domain(self):
        g = std_game(6)
        sol = walk.evaluate_policy(g, walk.honest_policy(g))
        improved = walk.improve_policy(g, sol.w_list).eps
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_prime_optimum_equals_exact_enumeration(self, a, n):
        # the exact value of optimize's policy is the exact maximum over
        # every {0, eps_max} policy, with no tolerance
        game = prime_game(n, a)
        best = max(exact_w(game, eps)[n] for eps in
                   itertools.product((0.0, game.model.eps_max), repeat=2 * n - 1))
        assert exact_w(game, walk.optimize(game).eps_list)[n] == best

    @pytest.mark.parametrize("a", WALK_A)
    def test_std_optimum_passes_exact_bellman_check(self, a):
        # under optimize's policy, no site's exact best one-step value, over
        # 0, eps_max and the vertex of the concave quadratic q, beats the
        # exact W(z) by more than 1e-16 (the worst is 5.4e-17); N <= 12
        big_a = Fraction(a)
        for n in range(1, 13):
            game = std_game(n, a)
            w = exact_w(game, walk.optimize(game).eps_list)
            e_max = Fraction(game.model.eps_max)
            for i in range(1, 2 * n):
                wp, wm, g = w[i + 1], w[i - 1], Fraction(i, 2 * n)
                cands = [Fraction(0), e_max]
                slope = wp - wm
                if slope > 0:
                    v = (slope - big_a * (wp + wm) / 2 + big_a * g) / (2 * big_a * slope)
                    if 0 < v < e_max:
                        cands.append(v)
                best = max(t0 * wp + t1 * wm + tc * g for t0, t1, tc in
                           (exact_triple(game.model, e) for e in cands))
                assert best - w[i] <= 1e-16

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

    def test_std_never_beats_prime(self):
        for n in (1, 2, 5, 10, 25):
            p = walk.optimize(prime_game(n)).bias
            s = walk.optimize(std_game(n)).bias
            assert s <= p + 1e-12


class TestPrimeClosedForm:
    """All-eps_max in the prime box: delta(z) = c(1 - p0**(N-z)).

    With c = (2+a)/(2aN) and p0 = (2+a)/(2+2a), p1 = 0 and p0 + pc = 1,
    so the excess obeys delta(z) = p0 delta(z+1) + p0/(2N), delta(N) = 0.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 59, 88, 200, 800, 3200])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_float_solve_matches(self, a, n):
        game = prime_game(n, a)
        sol = walk.evaluate_policy(game, [game.model.eps_max] * (2 * n - 1))
        c = (2 + a) / (2 * a * n)
        p0 = (2 + a) / (2 + 2 * a)
        for z in range(-n + 1, n + 1):
            assert abs(sol.delta_list[z + n] - c * (1 - p0 ** (n - z))) <= 1e-11 * c
        want = c * (1 - p0 ** n)
        assert abs(sol.bias - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_exact_solve_is_strict_fixed_point(self, a, n):
        game = prime_game(n, float(a))
        e_max = 1 / (2 + 2 * a)  # exact; the float eps_max is not at a = 1/2 and 2
        w = exact_w(game, [e_max] * (2 * n - 1))
        c = (2 + a) / (2 * a * n)
        p0 = (2 + a) / (2 + 2 * a)
        for z in range(-n + 1, n + 1):
            assert w[z + n] - Fraction(n + z, 2 * n) == c * (1 - p0 ** (n - z))
        # the box is linear in eps, so q(eps) peaks at an end; eps_max
        # strictly beats honest at every interior site
        t0, t1, tc = exact_triple(game.model, e_max)
        for z in range(-n + 1, n):
            wu, wd, g = w[z + n + 1], w[z + n - 1], Fraction(n + z, 2 * n)
            assert t0 * wu + t1 * wd + tc * g > (wu + wd) / 2


class TestStdLaw:
    """The std box at b = 1: N * bias -> 1/a from below at rate N**-2.

    So the std cheater keeps 2/(2+a) of the prime bound (2+a)/(2aN), and
    the gap a*N**2*(1/a - N*bias) settles near 17.4-18.0 for these a and
    N.  The band leaves room for optimize's flap guard, which stops std
    solves a little early (ROADMAP item 1): at a = 1, N = 3200 it stops
    9.1e-13 below the best bias that further sweeps reach.
    """

    @pytest.mark.parametrize("n", [400, 800, 1600, 3200])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_bias_approaches_one_over_a_n(self, a, n):
        sol = walk.optimize(std_game(n, a))
        assert sol.bias / sol.bound < 2 / (2 + a)
        assert 15 <= a * n ** 2 * (1 / a - n * sol.bias) <= 20


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


def _optimized(variant, a, n):
    return walk.optimize(walk.WalkGame(n, CheatModel(a, 1.0, variant)))


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
        assert json_digest(_optimized(variant, a, n).to_json_dict()
                           for n in (1, 2, 7, 40, 150, 420)) == self.DIGESTS[(variant, a)]

    # every N up to 40 at every a of WALK_A, both variants: 480 games
    GAMES = [(variant, a, n) for variant in (PRIME, STD) for a in WALK_A
             for n in range(1, 41)]

    def test_optimize_json_digest_small_games(self):
        assert json_digest(_optimized(*game).to_json_dict() for game in self.GAMES) == (
            "e246b59977486e4e4359b55db20727c1a10ed738e61dc49c8d684d41c81c2df3")

    def test_optimize_json_digest_larger_games(self):
        assert json_digest(_optimized(variant, a, n).to_json_dict()
                           for variant, a in [(PRIME, 0.5), (STD, 1.0), (STD, 7.0)]
                           for n in (150, 317, 420)) == (
            "6dc786061fac98c1fe0774c92c223c39172184b6ae3b428c99f66182fb1ac5c1")

    def test_user_policy_json_digest(self):
        # seeded policies on the 480 games, eps_max times a fraction that is
        # 0, 1, 1/2, 1 - 2**-53 or uniform, and the greedy policy against W
        rng = random.Random(18)
        records = []
        for variant, a, n in self.GAMES:
            game = walk.WalkGame(n, CheatModel(a, 1.0, variant))
            e_max = game.model.eps_max
            policy = {z: e_max * (rng.random() if rng.random() < 0.5 else
                                  rng.choice([0.0, 1.0, 0.5, 1 - 2 ** -53]))
                      for z in game.interior()}
            sol = walk.evaluate_policy(game, policy)
            records.append([sol.to_json_dict(), walk.improve_policy(game, sol.w_list).eps])
        assert json_digest(records) == (
            "868274878e380d8c398a94202918e23e030cf520896605519d85fdb8bb58d16e")

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
        walk._box.cache_clear()
        game = walk.WalkGame(200, CheatModel(1.0, 1.0, variant))
        sol = walk.optimize(game)
        # one list call per solve, on the honest start, and one scalar call
        # at eps_max per model, whose triple improve_policy keeps for every
        # later sweep and solve
        assert sol.iterations > 1
        assert calls == [[0.0] * 399, game.model.eps_max]
        calls.clear()
        assert walk.optimize(game) == sol
        assert calls == [[0.0] * 399]

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

    @pytest.mark.parametrize("variant", [PRIME, STD])
    @pytest.mark.parametrize("call", ["evaluate_policy", "simulate_walk"])
    def test_site_keyed_policy_checked_once(self, monkeypatch, variant, call):
        # check_policy checks the eps list where the policy enters; the
        # triples are then built from it without a second check
        g = walk.WalkGame(4, CheatModel(1.0, 1.0, variant))
        policy = {z: 0.1 * (z > 0) for z in g.interior()}
        lists, check = [], CheatModel.check_eps

        def spy(model, eps):
            if isinstance(eps, list):
                lists.append(eps)
            return check(model, eps)

        monkeypatch.setattr(CheatModel, "check_eps", spy)
        if call == "evaluate_policy":
            walk.evaluate_policy(g, policy)
        else:
            simulate.simulate_walk(g, policy, 100, 1)
        assert lists == [[policy[z] for z in g.interior()]]

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

    # float() turned "0.1" into 0.1 and False into 0.0
    @pytest.mark.parametrize("bad", ["0.1", False, True, None], ids=repr)
    def test_check_policy_refuses_non_numbers(self, bad):
        g = prime_game(2)
        with pytest.raises(ValueError, match=re.escape(
                f"policy eps at site 0 must be a number, got {bad!r}")):
            walk.check_policy(g, {-1: 0.0, 0: bad, 1: 0.0})

    def test_check_policy_takes_ints_and_fractions(self):
        g = prime_game(2)
        assert walk.check_policy(g, {-1: 0, 0: Fraction(1, 8), 1: 0.25}) == \
            [0.0, 0.125, 0.25]


class TestListForm:
    def test_list_policy_equals_dict_policy(self):
        g = std_game(6)
        policy = {z: 0.03 * (z + 6) for z in g.interior()}
        by_dict = walk.evaluate_policy(g, policy)
        by_list = walk.evaluate_policy(g, [policy[z] for z in g.interior()])
        assert repr(by_list) == repr(by_dict)  # repr spells floats exactly

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
        # a sweep hands the W list from evaluate_policy to improve_policy and
        # improve_policy's record back; only the honest start is a bare list
        seen = []
        real_eval, real_improve = walk.evaluate_policy, walk.improve_policy
        monkeypatch.setattr(walk, "evaluate_policy",
                            lambda g, p, **kw: seen.append(type(p)) or real_eval(g, p, **kw))
        monkeypatch.setattr(walk, "improve_policy",
                            lambda g, w: seen.append(type(w)) or real_improve(g, w))
        sol = walk.optimize(std_game(30))
        assert sol.iterations > 1
        assert seen == [list, list] + [walk._Improved, list] * (sol.iterations - 1)
        assert "w" not in vars(sol) and "policy" not in vars(sol)

    def test_record_solves_as_its_eps_list(self):
        g = std_game(12)
        w = walk.optimize(g).w_list
        rec = walk.improve_policy(g, [x * x for x in w])
        assert repr(walk.evaluate_policy(g, rec)) == repr(walk.evaluate_policy(g, rec.eps))

    def test_record_of_another_n(self):
        rec = walk.improve_policy(prime_game(3), walk.optimize(prime_game(3)).w_list)
        with pytest.raises(ValueError, match="policy list has 5 entries, the interior has 7"):
            walk.evaluate_policy(prime_game(4), rec)


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
