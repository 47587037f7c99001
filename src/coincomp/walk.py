"""Exact solution of the random-walk game for linear cheat detection.

The game: a walker starts at z = 0 and flips one cheat-sensitive coin per
step, moving to z+1 on outcome 0 and z-1 on outcome 1; the analyzed player
wins on reaching +N, loses at -N.  A catch at site z ends the cheater's
influence and the honest players output win with probability (N+z)/(2N),
the honest continuation value, which folds catching into a terminal payoff.

For a stationary policy eps(z) the win value W(z) solves the tridiagonal
linear system

    W(z) = p0(eps(z)) W(z+1) + p1(eps(z)) W(z-1) + pc(eps(z)) (N+z)/(2N)

with W(N) = 1, W(-N) = 0, solved here by direct elimination.  The excess
delta(z) = W(z) - (N+z)/(2N) measures what cheating gains; for linear
detection with coefficient a it never exceeds (2+a)/(2aN), so the achievable
bias dies off as 1/N and serial composition defeats a linear detector.

The prime-variant box is linear in eps, so some optimal stationary policy
uses only the extreme biases {0, eps_max}; optimize() runs policy iteration
over those, and over the closed-form per-site quadratic maximizer for the
standard box.  brute_force_optimize() checks policy iteration against plain
enumeration of all binary policies for small N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import cheat_model
from .cheat_model import CheatModel

WalkPolicy = dict[int, float]

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class WalkGame:
    n: int
    model: CheatModel

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"N must be >= 1, got {self.n}")
        if self.model.b != 1:
            raise ValueError(f"walk games require b = 1, got b = {self.model.b}")

    def interior(self) -> range:
        return range(-self.n + 1, self.n)

    def target(self, z):
        """Honest continuation value (N+z)/(2N) at a site or an int array of sites."""
        return (self.n + z) / (2.0 * self.n)


@dataclass(frozen=True)
class WalkSolution:
    w: dict[int, float]
    delta: dict[int, float]
    policy: WalkPolicy
    bias: float
    bound: float
    bound_ok: bool
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "bias": self.bias,
            "bound": self.bound,
            "bound_ok": self.bound_ok,
            "iterations": self.iterations,
            "policy": {str(z): e for z, e in sorted(self.policy.items())},
            "w": {str(z): v for z, v in sorted(self.w.items())},
            "delta": {str(z): v for z, v in sorted(self.delta.items())},
        }


def check_policy(game: WalkGame, policy: WalkPolicy) -> np.ndarray:
    """Validate a site-keyed policy; return its eps over the interior as an array."""
    sites = set(game.interior())
    if set(policy) != sites:
        missing = sorted(sites - set(policy))
        extra = sorted(set(policy) - sites)
        raise ValueError(f"policy sites do not match interior: missing {missing}, "
                         f"unexpected {extra}")
    eps = np.array([policy[z] for z in game.interior()], dtype=float)
    game.model.check_eps(eps)
    return eps


def evaluate_policy(game: WalkGame, policy: WalkPolicy,
                    iterations: int = 0) -> WalkSolution:
    """Solve the walk's linear system for a fixed policy.

    Direct tridiagonal (Thomas) elimination.  The matrix has unit diagonal
    and off-diagonals -p0, -p1 with p0 + p1 <= 1, and the honest boundary
    rows keep it nonsingular; the pivots and the per-equation residuals are
    checked anyway and a failure raises RuntimeError.
    """
    t = cheat_model.triple(game.model, check_policy(game, policy))
    n = game.n
    m = 2 * n - 1
    sites = range(-n, n + 1)
    targ = game.target(np.array(sites))
    p0, p1 = t.p0.tolist(), t.p1.tolist()
    rhs = (t.pc * targ[1:-1]).tolist()
    rhs[m - 1] += p0[m - 1] * 1.0  # W(N) = 1; W(-N) = 0 adds nothing

    # forward elimination on rows [1, -p0] with subdiagonal -p1
    cp = [0.0] * m
    dp = [0.0] * m
    cp[0] = -p0[0]
    dp[0] = rhs[0]
    for i in range(1, m):
        piv = 1.0 - (-p1[i]) * cp[i - 1]
        if not piv > 1e-12:
            raise RuntimeError(f"tridiagonal pivot {piv} at row {i}; "
                               "system is numerically singular")
        cp[i] = -p0[i] / piv
        dp[i] = (rhs[i] - (-p1[i]) * dp[i - 1]) / piv
    w = [0.0] * (m + 1) + [1.0]  # W(z) at index z + N
    w[m] = dp[m - 1]
    for i in range(m - 2, -1, -1):
        w[i + 1] = dp[i] - cp[i] * w[i + 2]

    wv = np.array(w)
    r = wv[1:-1] - (t.p0 * wv[2:] + t.p1 * wv[:-2] + t.pc * targ[1:-1])
    i = int(abs(r).argmax())
    if abs(r[i]) > _RESIDUAL_TOL:
        raise RuntimeError(f"solver residual {r[i]} at site {i - n + 1} exceeds "
                           f"{_RESIDUAL_TOL}")

    delta = wv - targ
    bound = (2.0 + game.model.a) / (2.0 * game.model.a * n)
    return WalkSolution(dict(zip(sites, w)), dict(zip(sites, delta.tolist())),
                        policy, float(delta[n]), bound,
                        bool((delta <= bound + 1e-12).all()), iterations)


def improve_policy(game: WalkGame, w: dict[int, float]) -> WalkPolicy:
    """Greedy one-step policy against the value function w, tie to honest."""
    model = game.model
    n = game.n
    wv = np.array([w[z] for z in range(-n, n + 1)])
    wp, wm, targ = wv[2:], wv[:-2], game.target(np.arange(1 - n, n))

    def q(eps):
        t = cheat_model.triple(model, eps)
        return t.p0 * wp + t.p1 * wm + t.pc * targ

    if model.variant == cheat_model.PRIME:
        e = model.eps_max
        best = np.where(q(e) > q(0.0), e, 0.0)
    else:
        # standard, b = 1: q is the quadratic
        # -a(wp - wm) eps^2 + ((wp - wm) - a(wp + wm)/2 + a*targ) eps + (wp + wm)/2
        # on [0, e_hi]; maximize over endpoints and the vertex where concave.
        # A vertex outside (0, e_hi) clips to an endpoint and ties with it.
        a = model.a
        e_hi = min(0.5, 1.0 / a)
        curv = -a * (wp - wm)
        # a zero or subnormal curv sends the vertex to +-inf or nan; clipped
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vertex = -((wp - wm) - a * (wp + wm) / 2.0 + a * targ) / (2.0 * curv)
        vertex = np.where(curv < 0.0, vertex.clip(0.0, e_hi), 0.0)
        q0, q_hi, q_v = q(0.0), q(e_hi), q(vertex)
        top = np.maximum(np.maximum(q0, q_hi), q_v)
        best = np.where(q0 == top, 0.0, np.where(q_v == top, vertex, e_hi))
    return dict(zip(game.interior(), best.tolist()))


def honest_policy(game: WalkGame) -> WalkPolicy:
    return {z: 0.0 for z in game.interior()}


def optimize(game: WalkGame) -> WalkSolution:
    """Optimal stationary policy by iteration from the honest start.

    Each sweep evaluates the current policy exactly, then re-picks every
    site's eps greedily.  In exact arithmetic every policy change strictly
    increases W(0) (any interior site is reachable from 0), so the loop
    settles over the finite policy set.  In floating point two near-tied
    policies can flap forever on ulp-sized value noise, so a sweep that
    fails to increase W(0) stops the loop and the previous sweep's solution
    wins: every sweep before it raised W(0), so it is the best one seen.
    A cap of 10 * 2N sweeps turns anything stranger into a loud error.
    """
    policy = honest_policy(game)
    cap = 10 * 2 * game.n
    prev: WalkSolution | None = None
    for sweep_count in range(1, cap + 1):
        sol = evaluate_policy(game, policy, iterations=sweep_count)
        improved = improve_policy(game, sol.w)
        if improved == policy:
            return sol
        if prev is not None and sol.w[0] <= prev.w[0]:
            return replace(prev, iterations=sweep_count)
        prev = sol
        policy = improved
    raise RuntimeError(f"policy iteration did not settle within {cap} sweeps")


def brute_force_optimize(game: WalkGame) -> WalkSolution:
    """Enumerate all binary prime policies; oracle for optimize()."""
    if game.model.variant != cheat_model.PRIME:
        raise ValueError("brute force enumerates prime binary policies only")
    if game.n > 5:
        raise ValueError(f"N = {game.n} too large for enumeration, limit 5")
    sites = list(game.interior())
    best = None
    count = 0
    for choice in product((0.0, game.model.eps_max), repeat=len(sites)):
        count += 1
        policy = dict(zip(sites, choice))
        sol = evaluate_policy(game, policy, iterations=count)
        if best is None or sol.w[0] > best.w[0]:
            best = sol
    return replace(best, iterations=count)


@dataclass(frozen=True)
class SweepRecord:
    n: int
    a: float
    variant: str
    bias: float
    bound: float
    bound_ok: bool
    iterations: int


def sweep(a: float, variant: str, n_list) -> list[SweepRecord]:
    """optimize() across game sizes with a fixed model."""
    records = []
    for n in n_list:
        game = WalkGame(n, CheatModel(a, 1.0, variant))
        sol = optimize(game)
        records.append(SweepRecord(n, a, variant, sol.bias, sol.bound,
                                   sol.bound_ok, sol.iterations))
    return records
