"""Monte Carlo cross-checks: determinism, worker invariance, and agreement
with exact values by the package's one rule, simulate.divergence (a count
agrees with p when trials * D(count/trials || p) <= 8)."""

import hashlib
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coincomp import cheat_model, composer, game_tree, rng, simulate, splitmix, walk
from coincomp.cheat_model import CheatModel, PRIME, STD
from coincomp.simulate import DIVERGENCE_LIMIT, divergence
from conftest import BAD_SEEDS, finalize_input, seed_refused, unxorshift


class TestTree:
    def test_counts_partition_trials(self, bo3):
        m = CheatModel(1.0, 2.0)
        res = composer.leading_order(bo3, 1.0, 2.0, 0.2)
        r = simulate.simulate_tree(bo3, m, res.strategy, 40_000, 3)
        assert r.wins + r.losses + r.catches == r.trials == 40_000
        assert r.overruns == 0

    def test_single_trial(self, bo3):
        m = CheatModel(1.0, 2.0)
        strategy = [0.0] * len(game_tree.annotate(bo3).up)
        r = simulate.simulate_tree(bo3, m, strategy, 1, 42)
        assert r.wins + r.losses + r.catches == 1

    def test_honest_one_flip_near_half(self):
        tree = game_tree.gen_full(1, [0, 1])
        r = simulate.simulate_tree(tree, CheatModel(1.0, 2.0), [0.0, 0.0, 0.0],
                                   200_000, 42)
        assert r.catches == 0
        assert divergence(r.wins, r.trials, 0.5) <= DIVERGENCE_LIMIT

    def test_estimates_match_exact_recursion(self, bo3):
        m = CheatModel(1.0, 2.0)
        res = composer.leading_order(bo3, 1.0, 2.0, 0.1)
        exact = composer.exact_outcome(bo3, m, res.strategy)
        r = simulate.simulate_tree(bo3, m, res.strategy, 200_000, 42)
        assert divergence(r.wins, r.trials, exact.p0) <= DIVERGENCE_LIMIT
        assert divergence(r.losses, r.trials, exact.p1) <= DIVERGENCE_LIMIT
        assert divergence(r.catches, r.trials, exact.pc) <= DIVERGENCE_LIMIT

    def test_deterministic_in_seed(self, bo3):
        m = CheatModel(1.0, 2.0)
        res = composer.leading_order(bo3, 1.0, 2.0, 0.1)
        a = simulate.simulate_tree(bo3, m, res.strategy, 70_000, 9)
        b = simulate.simulate_tree(bo3, m, res.strategy, 70_000, 9)
        c = simulate.simulate_tree(bo3, m, res.strategy, 70_000, 10)
        assert a == b
        assert a != c

    def test_worker_count_invisible(self, bo3):
        # spans a few scheduling blocks so the parallel path is exercised
        m = CheatModel(1.0, 2.0)
        res = composer.leading_order(bo3, 1.0, 2.0, 0.1)
        reports = [simulate.simulate_tree(bo3, m, res.strategy, 150_000, 42,
                                          workers=w) for w in (1, 3, 8)]
        assert reports[0] == reports[1] == reports[2]

    def test_pure_catch_strategy(self):
        # eps at the domain edge of a=4,b=2 is caught with certainty
        tree = game_tree.gen_full(1, [0, 1])
        r = simulate.simulate_tree(tree, CheatModel(4.0, 2.0), [0.0, 0.0, 0.5],
                                   1_000, 0)
        assert r.catches == 1_000

    def test_strategy_must_cover_internal_nodes(self, bo3):
        # a list with an entry per node; a path-keyed one is read at the edge
        with pytest.raises(ValueError, match="^strategy has 3 entries, the "
                                             "tree has 11 nodes$"):
            simulate.simulate_tree(bo3, CheatModel(1.0, 2.0), [0.0, 0.0, 0.0],
                                   10, 1)
        with pytest.raises(ValueError, match="missing node 'UD'"):
            composer.strategy_from_paths(game_tree.annotate(bo3), {"": 0.0})

    def test_trials_validated(self):
        tree = game_tree.gen_full(1, [0, 1])
        with pytest.raises(ValueError):
            simulate.simulate_tree(tree, CheatModel(1.0, 2.0), [0.0, 0.0, 0.0],
                                   0, 1)

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_validated(self, workers):
        # a count below 1 ran serially without a word
        tree = game_tree.gen_full(1, [0, 1])
        with pytest.raises(ValueError, match="workers must be an int >= 1"):
            simulate.simulate_tree(tree, CheatModel(1.0, 2.0), [0.0, 0.0, 0.0],
                                   10, 1, workers=workers)

    def test_report_shape(self, bo3):
        m = CheatModel(1.0, 2.0)
        strategy = [0.0] * len(game_tree.annotate(bo3).up)
        r = simulate.simulate_tree(bo3, m, strategy, 100, 17)
        d = r.to_json_dict()
        assert set(d) == {"trials", "wins", "losses", "catches", "overruns",
                          "estimates", "stderr", "seed"}
        assert set(d["estimates"]) == {"win", "loss", "catch"}
        for key, p in d["estimates"].items():
            assert d["stderr"][key] == math.sqrt(p * (1.0 - p) / 100)
        assert d["seed"] == 17


class TestDivergence:
    NS = [1, 2, 3, 10, 100, 1000, 20000]
    PS = [0.0, 1e-9, 1e-4, 0.019, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-6, 1.0]

    def test_false_alarm_rate_within_chernoff_bound(self):
        # the exact binomial probability that a count of true probability p
        # fails the rule, summed in log space
        def xlog(k, p):  # ln(p**k), with 0**0 = 1
            if not k:
                return 0.0
            return k * math.log(p) if p else -math.inf

        for n in self.NS:
            log_fact = [math.lgamma(k + 1) for k in range(n + 1)]
            for p in self.PS:
                alarm = sum(math.exp(log_fact[n] - log_fact[k] - log_fact[n - k]
                                     + xlog(k, p) + xlog(n - k, 1.0 - p))
                            for k in range(n + 1)
                            if divergence(k, n, p) > DIVERGENCE_LIMIT)
                assert alarm <= 2 * math.exp(-DIVERGENCE_LIMIT), (n, p, alarm)

    def test_four_sigma_in_the_normal_regime(self):
        n, sd = 20000, math.sqrt(20000 * 0.25)
        ks = [k for k in range(n + 1) if divergence(k, n, 0.5) <= DIVERGENCE_LIMIT]
        assert 3.95 <= (ks[-1] + 1 - n / 2) / sd <= 4.05
        assert 3.95 <= (n / 2 - (ks[0] - 1)) / sd <= 4.05


class TestWalk:
    def test_honest_near_half(self):
        g = walk.WalkGame(5, CheatModel(1.0, 1.0, PRIME))
        r = simulate.simulate_walk(g, walk.honest_policy(g), 200_000, 42)
        assert divergence(r.wins, r.trials, 0.5) <= DIVERGENCE_LIMIT
        assert r.catches == 0
        assert r.overruns == 0

    def test_catch_continuation_matches_folded_value(self):
        # evaluate_policy folds a catch into the terminal ramp payoff; the
        # simulator instead keeps flipping a fair coin after the catch.
        # Both must agree.
        g = walk.WalkGame(1, CheatModel(1.0, 1.0, PRIME))
        policy = {0: 0.25}
        exact = walk.evaluate_policy(g, policy).w[0]
        assert exact == 0.875
        r = simulate.simulate_walk(g, policy, 200_000, 42)
        assert r.catches > 0
        assert r.wins + r.losses == r.trials
        assert divergence(r.wins, r.trials, exact) <= DIVERGENCE_LIMIT

    def test_optimal_policy_agrees_with_solver(self):
        g = walk.WalkGame(10, CheatModel(1.0, 1.0, PRIME))
        sol = walk.optimize(g)
        r = simulate.simulate_walk(g, sol.policy, 200_000, 42)
        assert divergence(r.wins, r.trials, sol.bias + 0.5) <= DIVERGENCE_LIMIT

    def test_overruns_settled_not_dropped(self):
        # a tight step cap leaves some honest walks unabsorbed; they settle
        # by one fair draw at the ramp value and still count
        g = walk.WalkGame(20, CheatModel(1.0, 1.0, PRIME))
        r = simulate.simulate_walk(g, walk.honest_policy(g), 100_000, 5,
                                   step_cap=1600)
        assert r.overruns == 901
        assert r.wins + r.losses == r.trials
        assert divergence(r.wins, r.trials, 0.5) <= DIVERGENCE_LIMIT

    def test_step_cap_floor_enforced(self):
        g = walk.WalkGame(5, CheatModel(1.0, 1.0, PRIME))
        with pytest.raises(ValueError):
            simulate.simulate_walk(g, walk.honest_policy(g), 100, 1,
                                   step_cap=99)

    def test_policy_validated_before_running(self):
        g = walk.WalkGame(3, CheatModel(1.0, 1.0, PRIME))
        with pytest.raises(ValueError):
            simulate.simulate_walk(g, {0: 0.0}, 100, 1)

    def test_worker_count_invisible(self):
        g = walk.WalkGame(5, CheatModel(1.0, 1.0, PRIME))
        pol = walk.optimize(g).policy
        reports = [simulate.simulate_walk(g, pol, 150_000, 42, workers=w)
                   for w in (1, 3, 8)]
        assert reports[0] == reports[1] == reports[2]

    def test_deterministic_in_seed(self):
        g = walk.WalkGame(3, CheatModel(1.0, 1.0, PRIME))
        pol = walk.honest_policy(g)
        assert simulate.simulate_walk(g, pol, 50_000, 1) == \
            simulate.simulate_walk(g, pol, 50_000, 1)
        assert simulate.simulate_walk(g, pol, 50_000, 1) != \
            simulate.simulate_walk(g, pol, 50_000, 2)

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_validated(self, workers):
        g = walk.WalkGame(2, CheatModel(1.0, 1.0, PRIME))
        with pytest.raises(ValueError, match="workers must be an int >= 1"):
            simulate.simulate_walk(g, walk.honest_policy(g), 10, 1,
                                   workers=workers)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_bounds_past_int16(self, monkeypatch, mirror):
        # scripted fair steps at N = 40,000: 31,383 down, 1,384 up, which
        # ends the first pass of _FAIR_WIDTH rows at z = -29,999, then 4,463
        # up and down from there on.  The second pass's top, 69,999 steps
        # up, is past int16 and unreachable; the walk reaches its bottom,
        # 10,001 down, and loses.  (Its top cast to int16 unclipped reads
        # 4,463, which the walk reaches first.)  The mirror image wins.
        game = walk.WalkGame(40_000, CheatModel(1.0, 1.0, STD))
        done = [0]

        def scripted(streams, offsets, out, scratch):
            t = done[0] + np.arange(len(offsets))[:, None]
            up = ((31_383 <= t) & (t < 32_767 + 4_463)) != mirror
            out[...] = np.where(up, np.uint64(0), np.uint64(splitmix.MASK))
            done[0] += len(offsets)
            return out

        monkeypatch.setattr(rng, "np_draw_top", scripted)
        r = simulate.simulate_walk(game, walk.honest_policy(game), 1, 0)
        assert (r.wins, r.losses, r.overruns) == ((1, 0, 0) if mirror else (0, 1, 0))
        assert done[0] == 2 * simulate._FAIR_WIDTH

    def test_std_variant_accepted(self):
        g = walk.WalkGame(2, CheatModel(1.0, 1.0))
        sol = walk.optimize(g)
        r = simulate.simulate_walk(g, sol.policy, 200_000, 8)
        assert divergence(r.wins, r.trials, sol.bias + 0.5) <= DIVERGENCE_LIMIT


# one cheap run of each simulator, given its seed
SEEDED = {
    "tree": lambda seed: simulate.simulate_tree(
        game_tree.gen_full(1, [0, 1]), CheatModel(1.0, 2.0), [0.0, 0.0, 0.1], 100, seed),
    "walk": lambda seed: simulate.simulate_walk(
        walk.WalkGame(2, CheatModel(1.0, 1.0, PRIME)), {-1: 0.1, 0: 0.1, 1: 0.1},
        100, seed),
}


class TestSeedRange:
    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    @pytest.mark.parametrize("kind", sorted(SEEDED))
    def test_outside_refused(self, kind, seed):
        # simulate_walk(..., seed=2**64 + 5) gave seed 5's counts and
        # reported the seed as 2**64 + 5
        with seed_refused(seed):
            SEEDED[kind](seed)

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("kind", sorted(SEEDED))
    def test_ends_of_the_range_run(self, kind, seed):
        assert SEEDED[kind](seed).seed == seed


# counts each simulator refuses: trials=True ran one trial and reported
# "trials": true, a bool or float worker count ran, step_cap=36.5 at N = 3
# ended in an IndexError and a numpy int ran; each is now a ValueError
BAD_COUNTS = [("trials", True), ("trials", np.int64(10)), ("workers", True),
              ("workers", 1.5)]


class TestCountRule:
    @pytest.mark.parametrize("name,value", BAD_COUNTS, ids=repr)
    def test_tree_refuses(self, name, value):
        args = {"trials": 10, "workers": 1, name: value}
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an int >= 1, got {value!r}")):
            simulate.simulate_tree(game_tree.gen_full(1, [0, 1]),
                                   CheatModel(1.0, 2.0), [0.0, 0.0, 0.0],
                                   args["trials"], 1, workers=args["workers"])

    @pytest.mark.parametrize("name,value", BAD_COUNTS + [
        ("step_cap", 36.5), ("step_cap", math.inf), ("step_cap", 35)], ids=repr)
    def test_walk_refuses(self, name, value):
        g = walk.WalkGame(3, CheatModel(1.0, 1.0, PRIME))
        args = {"trials": 10, "workers": 1, "step_cap": None, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an int >= "):
            simulate.simulate_walk(g, walk.honest_policy(g), args["trials"], 1,
                                   step_cap=args["step_cap"],
                                   workers=args["workers"])

    def test_numpy_float_policy_runs(self):
        # numpy floats are numbers, float32 too, which is no float subclass
        g = walk.WalkGame(2, CheatModel(1.0, 1.0, PRIME))
        policy = {z: np.float32(0.125) for z in g.interior()}
        assert simulate.simulate_walk(g, policy, 100, 1) == \
            simulate.simulate_walk(g, {z: 0.125 for z in g.interior()}, 100, 1)


def reference_simulate_walk(game, policy, trials, seed, step_cap=None,
                            workers=1):
    """The per-step walk simulator that the two-phase one replaced.

    Kept as the reference: one numpy pass per step over every unabsorbed
    trial, with caught trials masked onto fair thresholds.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = game.n
    if step_cap is None:
        step_cap = 64 * n * n
    if step_cap < 4 * n * n:
        raise ValueError(f"step_cap must be >= 4*N^2 = {4 * n * n}, got {step_cap}")
    t = cheat_model.triple(game.model, walk.check_policy(game, policy))
    p0, p1 = np.array(t.p0), np.array(t.p1)

    # per-site thresholds indexed by z + n; boundary rows are never consulted
    thr_up = np.pad(p0, 1)
    thr_dn = np.pad(p0 + p1, 1)

    def block(lo: int, hi: int):
        m = hi - lo
        streams = rng.np_stream_seeds(seed, lo, hi)
        z = np.zeros(m, dtype=np.int32)
        caught = np.zeros(m, dtype=bool)
        win = np.zeros(m, dtype=bool)
        act = np.arange(m)
        for k in range(step_cap):
            if not act.size:
                break
            u = rng.np_draw_double(streams[act], k)
            zi = z[act] + n
            fair = caught[act]
            go_up = u < np.where(fair, 0.5, thr_up[zi])
            go_dn = ~go_up & (u < np.where(fair, 1.0, thr_dn[zi]))
            z[act] += go_up.astype(np.int32) - go_dn.astype(np.int32)
            caught[act[~go_up & ~go_dn]] = True
            znew = z[act]
            win[act[znew == n]] = True
            act = act[(znew != n) & (znew != -n)]
        over = int(act.size)
        if act.size:
            # settle overruns by the honest payoff at the current site
            u = rng.np_draw_double(streams[act], step_cap)
            win[act[u < (n + z[act]) / (2.0 * n)]] = True
        n_win = int(win.sum())
        return (n_win, m - n_win, int(caught.sum()), over)

    wins, losses, catches, overruns = simulate._run_blocks(block, trials, workers)
    return simulate._report(trials, wins, losses, catches, overruns, seed)


# simulate_walk(N = 30, std, a = 0.5, its optimal policy, 5,000 trials, seed 4)
# as (wins, losses, catches, overruns), computed by the per-step simulator
PINNED_N30_STD = (2842, 2158, 4958, 0)


@st.composite
def walk_cases(draw):
    n = draw(st.integers(1, 12))
    variant = draw(st.sampled_from([PRIME, STD]))
    game = walk.WalkGame(n, CheatModel(draw(st.sampled_from([0.5, 1.0, 2.0])),
                                       1.0, variant))
    sites = list(game.interior())
    low = 0.0 if variant == PRIME else -1.0
    fracs = draw(st.one_of(
        st.just([0.0] * len(sites)),
        st.just([1.0] * len(sites)),
        st.lists(st.floats(low, 1.0), min_size=len(sites), max_size=len(sites))))
    policy = {z: f * game.model.eps_max for z, f in zip(sites, fracs)}
    step_cap = draw(st.one_of(st.none(),
                              st.integers(4 * n * n, 4 * n * n + 20)))
    # the reference pays a numpy pass per step over a whole block, so the
    # multi-block trial count stays at small N
    trials = draw(st.sampled_from([1, 7] + ([65_537] if n <= 6 else [])))
    seed = draw(st.one_of(st.integers(0, 1 << 32),
                          st.integers(1 << 63, (1 << 64) - 1)))
    return game, policy, trials, seed, step_cap, draw(st.sampled_from([1, 2]))


def _catch_step(game, policy, seed, trial, step_cap):
    """Draw index at which the trial is caught, replayed on the scalar stream."""
    s = splitmix.Stream(splitmix.mix(seed, trial))
    z = 0
    for k in range(step_cap):
        t = cheat_model.triple(game.model, policy[z])
        u = s.next_double()
        if u < t.p0:
            z += 1
        elif u < t.p0 + t.p1:
            z -= 1
        else:
            return k
        if abs(z) == game.n:
            return None
    return None


class TestWalkMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(walk_cases())
    def test_reports_identical(self, case):
        game, policy, trials, seed, step_cap, workers = case
        assert simulate.simulate_walk(game, policy, trials, seed, step_cap,
                                      workers) == \
            reference_simulate_walk(game, policy, trials, seed, step_cap, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_caught_on_last_allowed_step(self, workers, monkeypatch):
        # trial 4915 is caught by draw step_cap - 1: it leaves the catching
        # phase with no step left and settles as an overrun.  Phase 1 draws
        # that step as the last row of a multi-step block, given as (first
        # draw, rows): of 4 rows at 65,537 trials, and of 6 at 4,916
        # trials, where the blocks are 3, 7 and 6 rows.
        game = walk.WalkGame(2, CheatModel(1.0, 1.0, PRIME))
        policy = {z: 0.02 for z in game.interior()}
        seed, cap = (1 << 63) + 12345, 16
        assert _catch_step(game, policy, seed, 4915, cap) == cap - 1
        blocks, draw = [], rng.np_draw_double

        def recording_draw(streams, k):
            if np.ndim(k) == 2:  # phase 1's column of draw indices
                blocks.append((int(k[0, 0]), len(k)))
            return draw(streams, k)

        monkeypatch.setattr(rng, "np_draw_double", recording_draw)
        for trials, block in ((65_537, (12, 4)), (4_916, (10, 6))):
            blocks.clear()
            r = simulate.simulate_walk(game, policy, trials, seed, cap, workers)
            assert block in blocks, blocks
            assert r == reference_simulate_walk(game, policy, trials, seed, cap)
            assert r.overruns > 0

    @pytest.mark.parametrize("n,variant,a", [(5, PRIME, 2.0), (10, STD, 1.0),
                                             (30, PRIME, 0.5)])
    def test_optimal_and_honest_policies(self, n, variant, a):
        game = walk.WalkGame(n, CheatModel(a, 1.0, variant))
        for policy in (walk.optimize(game).policy, walk.honest_policy(game)):
            assert simulate.simulate_walk(game, policy, 3_000, 11) == \
                reference_simulate_walk(game, policy, 3_000, 11)

    @pytest.mark.parametrize("pre,wins", [(splitmix.HALF_U64 - 1, 1),
                                          (splitmix.HALF_U64, 0),
                                          (splitmix.HALF_U64 + 1, 0)])
    def test_fair_step_at_the_top_bit_edge(self, pre, wins):
        # trial 0's first draw holds `pre` before the generator's last
        # xorshift; at N = 1 under the honest policy that one fair step is
        # the game, up (a win) exactly when the draw is below 2**63
        s0 = (finalize_input(pre) - splitmix.GOLDEN) & splitmix.MASK
        seed = finalize_input(unxorshift(s0, 31))
        assert splitmix.mix(seed, 0) == s0
        game = walk.WalkGame(1, CheatModel(1.0, 1.0, STD))
        policy = walk.honest_policy(game)
        r = simulate.simulate_walk(game, policy, 1, seed)
        assert r.wins == wins
        assert r == reference_simulate_walk(game, policy, 1, seed)

    @pytest.mark.parametrize("n,trials,kind,seed", [
        (64, 16, "optimal", 64), (64, 16, "honest", 64), (200, 4, "optimal", 200),
        (200, 1, "optimal", 202), (200, 1, "honest", 202)])
    def test_few_walks_in_tall_passes(self, n, trials, kind, seed):
        # few walks take passes far taller than N: 2,048 rows for 16 walks,
        # 8,192 for 4, and one walk takes the widest, _FAIR_WIDTH rows; each
        # single walk at N = 200 takes two of those
        game = walk.WalkGame(n, CheatModel(1.0, 1.0, STD))
        policy = (walk.optimize(game).policy if kind == "optimal"
                  else walk.honest_policy(game))
        assert simulate.simulate_walk(game, policy, trials, seed) == \
            reference_simulate_walk(game, policy, trials, seed)

    def test_pinned_n30_std(self):
        game = walk.WalkGame(30, CheatModel(0.5, 1.0, STD))
        r = simulate.simulate_walk(game, walk.optimize(game).policy, 5_000, 4)
        assert (r.wins, r.losses, r.catches, r.overruns) == PINNED_N30_STD


class TestDisplacements:
    """The fair phase's prefix sum in uint16 lanes, against np.cumsum."""

    # m % 4 is 1, 0, 3, 1, 2 and 3: padding lanes of every count
    @pytest.mark.parametrize("shape", [(1, 1), (30, 1092), (2978, 11), (32767, 1),
                                       (64, 6), (32767, 3)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_matches_cumsum_of_steps(self, shape):
        width, m = shape
        x = np.random.default_rng(m).integers(0, 1 << 64, size=shape,
                                              dtype=np.uint64, endpoint=False)
        if width == simulate._FAIR_WIDTH:
            # the extremes of the widest pass: d reaches +-(2**15 - 1)
            x[:, 0] = 0
            x[:, 1:2] = splitmix.MASK
        d = simulate._displacements(x)
        steps = np.where(x < splitmix.HALF_U64, 1, -1)
        assert d.dtype == np.int16
        np.testing.assert_array_equal(d, np.cumsum(steps, axis=0))


class TestPhase1Cost:
    """Phase 1 draws multi-step blocks without holding more memory."""

    def test_pinned_call_draws_in_blocks(self, monkeypatch):
        # the pinned N = 30 call took 709 draw calls at one step per pass;
        # it takes 34 blocks of up to 64 steps (413,390 draws, 385,801 read)
        game = walk.WalkGame(30, CheatModel(0.5, 1.0, STD))
        policy = walk.optimize(game).policy
        calls, draw = [], rng.np_draw_double

        def counting_draw(streams, k):
            calls.append(k)
            return draw(streams, k)

        monkeypatch.setattr(rng, "np_draw_double", counting_draw)
        r = simulate.simulate_walk(game, policy, 5_000, 4)
        assert (r.wins, r.losses, r.catches, r.overruns) == PINNED_N30_STD
        assert len(calls) <= 50, len(calls)

    @pytest.mark.parametrize("case", ["best-of-15 tree", "pinned walk",
                                      "honest walk"])
    def test_peak_memory(self, case):
        # traced peaks before multi-step blocks, on Python 3.11 with numpy
        # 2.4: 6.58 MiB for the tree and 1.86 MiB for the walk.  The bound
        # is that plus 0.1 MiB: the blocks' tables and buffers must not add
        # to what the one-step loop held.  The honest walk, all of it in
        # the fair phase, peaked at 1.54 MiB before the prefix sum moved
        # into uint16 lanes, which must not add to it either.
        if case == "honest walk":
            game = walk.WalkGame(30, CheatModel(0.5, 1.0, STD))
            policy = walk.honest_policy(game)
            before = 1.54

            def call():
                simulate.simulate_walk(game, policy, 5_000, 4)
        elif case == "pinned walk":
            game = walk.WalkGame(30, CheatModel(0.5, 1.0, STD))
            policy = walk.optimize(game).policy
            before = 1.86

            def call():
                simulate.simulate_walk(game, policy, 5_000, 4)
        else:
            tree = game_tree.gen_best_of(15)
            strategy = composer.leading_order(tree, 1.0, 2.0, 0.2).strategy
            before = 6.58

            def call():
                simulate.simulate_tree(tree, CheatModel(1.0, 2.0), strategy,
                                       20_000, 5)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (before + 0.1) * 2 ** 20, peak / 2 ** 20


def reference_simulate_tree(tree, model, strategy, trials, seed, workers=1):
    """The per-node tree simulator that the shared phase-1 loop replaced.

    Kept as the reference: one numpy pass per draw over the trials still at
    an internal node, with a caught mask and the leaf label read at the end.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    # per node, in the annotation's postorder: draw thresholds (0 on leaves)
    ann = game_tree.annotate(tree)
    thr_up, thr_dn = [0.0] * len(ann.path), [0.0] * len(ann.path)
    for i, (at, u) in enumerate(zip(ann.path, ann.up)):
        if u >= 0:
            if at not in strategy:
                raise ValueError(f"strategy is missing node '{at}'")
            t = cheat_model.triple(model, strategy[at])
            thr_up[i], thr_dn[i] = t.p0, t.p0 + t.p1
    a_up = np.asarray(thr_up)
    a_dn = np.asarray(thr_dn)
    a_upix = np.asarray(ann.up, dtype=np.int32)
    a_dnix = np.asarray(ann.down, dtype=np.int32)
    a_leaf = a_upix < 0
    a_win = np.asarray(ann.p_w) == 1.0  # read on leaves only
    root = len(ann.path) - 1

    def block(lo: int, hi: int):
        m = hi - lo
        streams = rng.np_stream_seeds(seed, lo, hi)
        cur = np.full(m, root, dtype=np.int32)
        caught = np.zeros(m, dtype=bool)
        act = np.nonzero(~a_leaf[cur])[0]
        k = 0
        while act.size:
            u = rng.np_draw_double(streams[act], k)
            node = cur[act]
            go_up = u < a_up[node]
            move = go_up | (u < a_dn[node])
            stepped = act[move]
            cur[stepped] = np.where(go_up[move], a_upix[node[move]],
                                    a_dnix[node[move]])
            caught[act[~move]] = True
            act = stepped[~a_leaf[cur[stepped]]]
            k += 1
        n_catch = int(caught.sum())
        n_win = int((~caught & a_win[cur]).sum())
        return (n_win, m - n_win - n_catch, n_catch, 0)

    wins, losses, catches, overruns = simulate._run_blocks(block, trials, workers)
    return simulate._report(trials, wins, losses, catches, overruns, seed)


# (4, 2) and (2, 1) catch with certainty at eps_max = 1/2
TREE_MODELS = [CheatModel(1.0, 2.0), CheatModel(4.0, 2.0), CheatModel(2.0, 1.0),
               CheatModel(0.5, 3.0), CheatModel(1.0, 1.0, PRIME)]
SEEDS = st.one_of(st.integers(0, (1 << 32) - 1),
                  st.integers(1 << 63, (1 << 64) - 1))


@st.composite
def tree_cases(draw):
    tree = draw(st.one_of(
        st.builds(game_tree.gen_random, st.integers(0, 6), SEEDS),
        st.builds(game_tree.gen_random_fair, st.integers(1, 6), SEEDS),
        st.sampled_from([game_tree.Leaf(0), game_tree.Leaf(1),
                         game_tree.gen_best_of(3)])))
    model = draw(st.sampled_from(TREE_MODELS))
    paths = [p for p, _ in game_tree.annotate(tree).internal()]
    low = 0.0 if model.variant == PRIME else -1.0
    fracs = draw(st.one_of(
        st.just([0.0] * len(paths)),
        st.just([1.0] * len(paths)),
        st.lists(st.floats(low, 1.0), min_size=len(paths), max_size=len(paths))))
    strategy = {p: f * model.eps_max for p, f in zip(paths, fracs)}
    trials = draw(st.sampled_from([1, 7, 65_537]))
    return tree, model, strategy, trials, draw(SEEDS), draw(st.sampled_from([1, 2]))


def _everywhere(tree, eps):
    return {p: eps for p, _ in game_tree.annotate(tree).internal()}


_BO3, _BO7 = game_tree.gen_best_of(3), game_tree.gen_best_of(7)
_BO15 = game_tree.gen_best_of(15)
_CERTAIN = CheatModel(4.0, 2.0)  # caught with certainty at eps = 1/2


class TestTreeMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(tree_cases())
    # leaf-only trees, a certain catch at the root, and several blocks
    @example((game_tree.Leaf(0), _CERTAIN, {}, 70_000, 3, 2))
    @example((game_tree.Leaf(1), _CERTAIN, {}, 70_000, 3, 2))
    @example((_BO3, _CERTAIN, _everywhere(_BO3, 0.5), 70_000, 3, 2))
    @example((_BO7, _CERTAIN, _everywhere(_BO7, 0.1), 70_000, 1 << 63, 2))
    # 7 trials take one 64-row block, and 5 of them are caught inside it
    @example((_BO15, CheatModel(1.0, 2.0), _everywhere(_BO15, 0.45), 7, 4, 1))
    def test_reports_identical(self, case):
        # the cases are path-keyed, as the reference reads them
        tree, model, strategy, *rest = case
        listed = composer.strategy_from_paths(game_tree.annotate(tree), strategy)
        assert simulate.simulate_tree(tree, model, listed, *rest) == \
            reference_simulate_tree(*case)


class TestTreeTables:
    """simulate_tree on the DAG and on the postorder table, against the
    reference, which reads the tree's per-node columns."""

    @pytest.mark.parametrize("per_row", [True, False], ids=["per-row", "per-node"])
    @pytest.mark.parametrize("model", [CheatModel(1.0, 2.0),
                                       CheatModel(1.0, 1.0, PRIME)],
                             ids=["std", "prime"])
    def test_seeded_strategies_match_reference(self, model, per_row):
        # eps drawn per DAG row runs on the DAG's 18 rows, eps drawn per
        # node on the 139 nodes of best-of-7
        ann = game_tree.annotate(_BO7)
        draw = random.Random(26).uniform
        if per_row:
            eps = [draw(0.0, model.eps_max) if u >= 0 else 0.0 for u in ann.dag_up]
            strategy = [eps[k] for k in ann.row]
        else:
            strategy = [draw(0.0, model.eps_max) if u >= 0 else 0.0 for u in ann.up]
        rows = len(composer.strategy_table(ann, model, strategy)[1])
        assert rows == (18 if per_row else 139)
        named = composer.strategy_to_paths(ann, strategy)
        for trials, seed in ((7, 3), (20_000, 26)):
            assert simulate.simulate_tree(_BO7, model, strategy, trials, seed) == \
                reference_simulate_tree(_BO7, model, named, trials, seed)

    def test_copies_with_both_zeros_match_reference(self):
        # 0.0 on one copy of a subtree and -0.0 on another, under prime
        ann = game_tree.annotate(_BO7)
        named = _everywhere(_BO7, 0.1)
        shared = next(k for k, u in enumerate(ann.dag_up)
                      if u >= 0 and ann.row.count(k) > 1)
        first = ann.path[ann.dag_at[shared]]
        copy = next(p for p, k in zip(ann.path, ann.row) if k == shared and p != first)
        named[first], named[copy] = 0.0, -0.0
        strategy = composer.strategy_from_paths(ann, named)
        model = CheatModel(1.0, 1.0, PRIME)
        assert len(composer.strategy_table(ann, model, strategy)[1]) == 139
        assert simulate.simulate_tree(_BO7, model, strategy, 5000, 9) == \
            reference_simulate_tree(_BO7, model, named, 5000, 9)


def pinned_grid_reports():
    """The fixed grid of reports that PINNED_GRID_SHA256 hashes."""
    reports, seed = [], 0
    for n in (1, 2, 5, 30):
        for model in (CheatModel(2.0, 1.0, PRIME), CheatModel(0.5, 1.0, STD)):
            game = walk.WalkGame(n, model)
            for policy in (walk.honest_policy(game), walk.optimize(game).policy,
                           {z: model.eps_max for z in game.interior()}):
                for trials in (1, 7, 5_000):
                    seed += 1
                    reports.append(simulate.simulate_walk(game, policy, trials,
                                                          seed))
    # a cap of 4N^2 steps, which a few percent of honest walks outlast
    game = walk.WalkGame(5, CheatModel(1.0, 1.0, STD))
    reports.append(simulate.simulate_walk(game, walk.honest_policy(game), 5_000,
                                          (1 << 64) - 3, step_cap=100))
    for n in (3, 15):
        tree = game_tree.gen_best_of(n)
        for a in (0.5, 2.0):
            strategy = composer.leading_order(tree, a, 2.0, 0.2).strategy
            reports.append(simulate.simulate_tree(tree, CheatModel(a, 2.0),
                                                  strategy, 20_000, 100 + n))
    return reports


# sha256 of the JSON list of pinned_grid_reports()' to_json_dict(), computed
# with the simulators as they were before the fair-coin phase went
# step-major; independent of the reference simulators above
PINNED_GRID_SHA256 = (
    "86368b29ffafa4fc62010f46df418c73794c66ba88fce79b5f514120db8b5bd6")


def test_pinned_grid_reports():
    reports = pinned_grid_reports()
    assert reports[-5].overruns > 0
    text = json.dumps([r.to_json_dict() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_GRID_SHA256
