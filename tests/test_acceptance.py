"""Acceptance gate: eleven checks, one visible PASS/FAIL line each.

Each test prints its verdict through the capture so the line lands in the
terminal output of a plain `pytest -v` run.  Tolerances are pinned in the
assertions; a failure here means the package does not deliver what it
promises, never a flaky rerun.
"""

import math
import time

import numpy as np
import pytest

from coincomp import composer, game_tree, simulate, walk
from coincomp.cheat_model import PRIME, STD, CheatModel
from conftest import FAIR_SUITE, SMALL_SUITE


def verdict(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        tail = "" if ok else f"  ({detail})"
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sweeps():
    t0 = time.perf_counter()
    # table[(a, variant)][n - 1] is the optimal solution at N = n
    table = {(a, v): [walk.optimize(walk.WalkGame(n, CheatModel(a, 1.0, v)))
                      for n in range(1, 201)]
             for a in (0.5, 1.0, 2.0) for v in (PRIME, STD)}
    return table, time.perf_counter() - t0


def test_criterion_01_bo3_reproduction(capsys):
    ann = game_tree.annotate(game_tree.gen_best_of(3))
    p_w = {path: info.p_w for path, info in ann.nodes.items()}
    delta = {path: info.delta for path, info in ann.internal()}
    ok = (p_w[""] == 0.5 and p_w["U"] == 0.75 and p_w["D"] == 0.25
          and p_w["UD"] == 0.5 and p_w["DU"] == 0.5
          and delta == {"": 0.5, "U": 0.5, "D": 0.5, "UD": 1.0, "DU": 1.0})
    verdict(capsys, 1, "best-of-3 annotation labels", ok,
            f"p_w={p_w} delta={delta}")


def test_criterion_02_lemma_suite(capsys):
    worst = 0.0
    for n in (1, 3, 5, 7, 9, 11):
        worst = max(worst, abs(game_tree.lemma_sum(game_tree.gen_best_of(n)) - 1.0))
    for d in range(1, 11):
        labels = [0, 1] * (2 ** (d - 1))
        worst = max(worst, abs(game_tree.lemma_sum(game_tree.gen_full(d, labels)) - 1.0))
    for seed in range(500):
        tree = game_tree.gen_random_fair(6, seed)
        worst = max(worst, abs(game_tree.lemma_sum(tree) - 1.0))
    worst_general = 0.0
    for seed in range(200):
        tree = game_tree.gen_random(8, seed)
        p = game_tree.annotate(tree).p_w_root
        gap = abs(game_tree.lemma_sum(tree) - 4.0 * p * (1.0 - p))
        worst_general = max(worst_general, gap)
    ok = worst <= 1e-12 and worst_general <= 1e-12
    verdict(capsys, 2, "lemma_sum identities", ok,
            f"fair gap {worst:.2e}, general gap {worst_general:.2e}")


def test_criterion_03_quadratic_fixed_point(capsys):
    worst_rel = 0.0
    worst_strategy = 0.0
    for tree in FAIR_SUITE.values():
        ann = game_tree.annotate(tree)
        for a in (0.5, 1.0, 2.0):
            res = composer.leading_order(tree, a, 2.0, 0.1)
            worst_rel = max(worst_rel, abs(res.a_new - a) / a)
            if a == 1.0:
                strategy = composer.strategy_to_paths(ann, res.strategy)
                for path, info in ann.internal():
                    gap = abs(strategy[path] - 0.1 * info.delta)
                    worst_strategy = max(worst_strategy, gap)
    ok = worst_rel <= 1e-10 and worst_strategy <= 1e-12
    verdict(capsys, 3, "b=2 composition is a fixed point", ok,
            f"a_new rel gap {worst_rel:.2e}, strategy gap {worst_strategy:.2e}")


def test_criterion_04_lagrangian_vs_brute_force(capsys):
    grid_step = 1e-3
    model = CheatModel(1.0, 2.0)
    worst_over = -math.inf
    worst_under = -math.inf
    for name, tree in SMALL_SUITE.items():
        for eps_tot in (0.02, 0.05):
            res = composer.leading_order(tree, 1.0, 2.0, eps_tot)
            closed_form = res.a_new * eps_tot ** 2
            _, min_pc = composer.brute_force_min_pc(tree, model, eps_tot,
                                                    grid_step)
            worst_over = max(worst_over, min_pc - closed_form)
            worst_under = max(worst_under, closed_form - min_pc)
    slack = 3.0 * model.a * grid_step
    ok = worst_over <= 3e-3 and worst_under <= slack
    verdict(capsys, 4, "grid oracle brackets the closed form", ok,
            f"over by {worst_over:.2e} (cap 3e-3), "
            f"under by {worst_under:.2e} (cap {slack:.0e})")


def test_criterion_05_derivative_in_b(capsys):
    worst = -math.inf
    for tree in FAIR_SUITE.values():
        worst = max(worst, composer.derivative_in_b(tree, 1.0, 2.0))
    bo3 = FAIR_SUITE["best_of_3"]
    d_bo3 = composer.derivative_in_b(bo3, 1.0, 2.0)
    d_bo5 = composer.derivative_in_b(FAIR_SUITE["best_of_5"], 1.0, 2.0)
    a_new_cubic = composer.a_new_of_b(bo3, 1.0, 3.0)
    ok = (worst <= 0.0 and d_bo3 <= -1e-3 and d_bo5 <= -1e-3
          and abs(a_new_cubic - 0.68629) <= 5e-4)
    verdict(capsys, 5, "sensitivity decreases in b at b=2", ok,
            f"max derivative {worst:.2e}, bo3 {d_bo3:.4f}, bo5 {d_bo5:.4f}, "
            f"a_new(b=3) {a_new_cubic:.6f}")


def test_criterion_06_walk_bound(capsys, sweeps):
    table, elapsed = sweeps
    bad = [(a, v, n) for (a, v), sols in table.items()
           for n, sol in enumerate(sols, start=1) if not sol.bound_ok]
    ok = not bad and elapsed < 60.0
    verdict(capsys, 6, "bias bound (2+a)/(2aN) at every site", ok,
            f"violations {bad[:3]}, sweep time {elapsed:.1f}s")


def test_criterion_07_walk_oracle(capsys):
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for n in range(1, 6):
            game = walk.WalkGame(n, CheatModel(a, 1.0, PRIME))
            got = walk.optimize(game).bias
            want = walk.brute_force_optimize(game).bias
            worst = max(worst, abs(got - want))
    prime1 = walk.optimize(walk.WalkGame(1, CheatModel(1.0, 1.0, PRIME))).bias
    std1 = walk.optimize(walk.WalkGame(1, CheatModel(1.0, 1.0, STD))).bias
    ok = worst <= 1e-12 and prime1 == 0.375 and std1 == 0.25
    verdict(capsys, 7, "policy iteration equals enumeration", ok,
            f"worst gap {worst:.2e}, N=1 biases {prime1}/{std1}")


def test_criterion_08_emax_recursion(capsys):
    worst = 0.0
    for n in (5, 50):
        game = walk.WalkGame(n, CheatModel(1.0, 1.0, PRIME))
        emax = game.model.eps_max
        policy = {z: emax for z in game.interior()}
        sol = walk.evaluate_policy(game, policy)
        for z in game.interior():
            d_up = sol.delta[z + 1] if z + 1 < n else 0.0
            residual = sol.delta[z] - (0.5 + emax) * (d_up + 1.0 / (2 * n))
            worst = max(worst, abs(residual))
    ok = worst <= 1e-10
    verdict(capsys, 8, "all-eps_max excess recursion", ok,
            f"max residual {worst:.2e}")


def test_criterion_09_decay_law(capsys, sweeps):
    table, _ = sweeps
    ns = range(50, 201)
    xs = np.log([float(n) for n in ns])
    ys = np.log([table[(1.0, PRIME)][n - 1].bias for n in ns])
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = -1.3 <= slope <= -0.7
    verdict(capsys, 9, "optimal bias decays like 1/N", ok,
            f"slope {slope:.4f}")


def test_criterion_10_monte_carlo(capsys):
    trials, seed = 10 ** 6, 42
    failures = []

    def check(label, report, key, exact):
        gap = abs(report.estimates[key] - exact)
        if gap > 4.0 * report.stderr[key]:
            failures.append(f"{label}/{key} off by {gap:.2e}")

    m2 = CheatModel(1.0, 2.0)
    one_flip = game_tree.gen_full(1, [0, 1])
    bo3 = FAIR_SUITE["best_of_3"]

    r = simulate.simulate_tree(one_flip, m2, [0.0, 0.0, 0.0], trials, seed)
    check("one-flip honest", r, "win", 0.5)

    res = composer.leading_order(bo3, 1.0, 2.0, 0.1)
    exact = composer.exact_outcome(bo3, m2, res.strategy)
    r_tree = simulate.simulate_tree(bo3, m2, res.strategy, trials, seed)
    check("bo3 lo:0.1", r_tree, "win", exact.p0)
    check("bo3 lo:0.1", r_tree, "loss", exact.p1)
    check("bo3 lo:0.1", r_tree, "catch", exact.pc)

    single = simulate.simulate_tree(bo3, m2, res.strategy, 1, seed)
    if single.wins + single.losses + single.catches != 1:
        failures.append("single trial does not partition")

    g5 = walk.WalkGame(5, CheatModel(1.0, 1.0, PRIME))
    r = simulate.simulate_walk(g5, walk.honest_policy(g5), trials, seed)
    check("walk N=5 honest", r, "win", 0.5)

    g1 = walk.WalkGame(1, CheatModel(1.0, 1.0, PRIME))
    r = simulate.simulate_walk(g1, {0: 0.25}, trials, seed)
    check("walk N=1 quarter", r, "win", 0.875)

    g10 = walk.WalkGame(10, CheatModel(1.0, 1.0, PRIME))
    opt = walk.optimize(g10)
    r_walk = simulate.simulate_walk(g10, opt.policy, trials, seed)
    check("walk N=10 optimal", r_walk, "win", opt.bias + 0.5)
    if r_walk.overruns / trials > 1e-3:
        failures.append(f"overrun fraction {r_walk.overruns / trials:.1e}")

    if r_tree != simulate.simulate_tree(bo3, m2, res.strategy, trials, seed,
                                        workers=8):
        failures.append("tree report differs across workers")
    if r_walk != simulate.simulate_walk(g10, opt.policy, trials, seed,
                                        workers=8):
        failures.append("walk report differs across workers")

    verdict(capsys, 10, "Monte Carlo within 4 sigma, worker-invariant",
            not failures, "; ".join(failures))


def test_criterion_11_dominance(capsys, sweeps):
    table, _ = sweeps
    worst = -math.inf
    for a in (0.5, 1.0, 2.0):
        for rp, rs in zip(table[(a, PRIME)], table[(a, STD)]):
            worst = max(worst, rs.bias - rp.bias)
    ok = worst <= 1e-12
    verdict(capsys, 11, "standard box never beats prime box", ok,
            f"max std-minus-prime {worst:.2e}")
