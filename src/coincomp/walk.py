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

The solver works on plain lists indexed by site, W at z + N and the policy
at z + N - 1, and needs no numpy.  A sweep of optimize() makes one list
call to cheat_model.triple, one pass of elimination (forward, then back),
one residual pass and one improvement loop on those lists.  The
site-keyed dicts and the bound verdict exist only on the returned
WalkSolution, built on first use.  A site-keyed policy is validated once,
by check_policy, where it enters.

Improving a site compares q(0) with q(eps_max) in both boxes, ties to 0;
the standard box's q is a quadratic whose vertex, where it is concave, is
a third candidate.  A vertex outside (0, eps_max) clips to an endpoint,
where q(vertex) is the endpoint's q to the bit (the same float, so the
same triple), so q(vertex) is computed only for an inner vertex.
tests/test_walk.py pins the floats by digest (TestPinnedAnswers) and
checks them against exact rational solves of the same games.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from numbers import Real
from operator import sub
from typing import NamedTuple

from . import cheat_model
from .cheat_model import CheatModel

WalkPolicy = dict[int, float]

_RESIDUAL_TOL = 1e-10


class _WalkGameFields(NamedTuple):
    n: int
    model: CheatModel


class WalkGame(_WalkGameFields):
    """The walk on [-N, N] with one `model` coin per step, checked where built."""

    __slots__ = ()

    def __new__(cls, n: int, model: CheatModel):
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"N must be an int, got {n!r}")
        if n < 1:
            raise ValueError(f"N must be >= 1, got {n}")
        if model.b != 1:
            raise ValueError(f"walk games require b = 1, got b = {model.b}")
        return super().__new__(cls, n, model)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip __new__'s checks
        return cls(*iterable)

    def interior(self) -> range:
        return range(-self.n + 1, self.n)


@lru_cache(maxsize=1)
def _targets(n: int) -> tuple[float, ...]:
    # the honest continuation value (N+z)/(2N) for z = -N..N at index z + N:
    # the same in every sweep of a solve, and read by both of its halves
    two_n = 2.0 * n
    return tuple([i / two_n for i in range(2 * n + 1)])


class _WalkSolutionFields(NamedTuple):
    w_list: list[float]
    eps_list: list[float]
    bias: float
    bound: float
    iterations: int


class WalkSolution(_WalkSolutionFields):
    """A solved policy; delta, bound_ok and the site dicts are built on use.

    w_list (and delta_list) hold sites -N..N at index z + N, eps_list the
    policy over the interior sites -N+1..N-1 at index z + N - 1.  The fields
    are a NamedTuple's; this subclass adds the __dict__ that the
    cached_property members are stored in.
    """

    @cached_property
    def delta_list(self) -> list[float]:
        return list(map(sub, self.w_list, _targets(len(self.w_list) // 2)))

    @cached_property
    def bound_ok(self) -> bool:
        """Whether the excess stays within bound (+1e-12) at every site."""
        # delta_list's values, without keeping the list on the solution
        return max(WalkSolution.delta_list.func(self)) <= self.bound + 1e-12

    @cached_property
    def w(self) -> dict[int, float]:
        n = len(self.w_list) // 2
        return dict(zip(range(-n, n + 1), self.w_list))

    @cached_property
    def delta(self) -> dict[int, float]:
        n = len(self.w_list) // 2
        return dict(zip(range(-n, n + 1), self.delta_list))

    @cached_property
    def policy(self) -> WalkPolicy:
        n = len(self.w_list) // 2
        return dict(zip(range(1 - n, n), self.eps_list))

    def to_json_dict(self) -> dict:
        n = len(self.w_list) // 2
        sites = [str(z) for z in range(-n, n + 1)]
        return {
            "bias": self.bias,
            "bound": self.bound,
            "bound_ok": self.bound_ok,
            "iterations": self.iterations,
            "policy": dict(zip(sites[1:-1], self.eps_list)),
            "w": dict(zip(sites, self.w_list)),
            "delta": dict(zip(sites, self.delta_list)),
        }


def check_policy(game: WalkGame, policy: WalkPolicy) -> list[float]:
    """Validate a site-keyed policy; return its eps over the interior as a list."""
    sites = set(game.interior())
    if set(policy) != sites:
        missing = sorted(sites - set(policy))
        extra = sorted(set(policy) - sites)
        raise ValueError(f"policy sites do not match interior: missing {missing}, "
                         f"unexpected {extra}")
    eps = []
    for z in game.interior():
        e = policy[z]
        # float() takes "0.1" and False; a float skips the slow ABC check
        if type(e) is not float and (isinstance(e, bool) or not isinstance(e, Real)):
            raise ValueError(f"policy eps at site {z} must be a number, got {e!r}")
        eps.append(float(e))
    game.model.check_eps(eps)
    return eps


def evaluate_policy(game: WalkGame, policy: WalkPolicy | list[float]) -> WalkSolution:
    """Solve the walk's linear system for a fixed policy.

    The policy is site-keyed, or a list of eps over the interior at index
    z + N - 1 as improve_policy returns it, whose values cheat_model.triple
    checks.  Direct tridiagonal (Thomas) elimination.  The matrix has unit
    diagonal and off-diagonals -p0, -p1 with p0 + p1 <= 1, and the honest
    boundary rows keep it nonsingular; the pivots and the per-equation
    residuals are checked anyway and a failure raises RuntimeError.
    """
    n = game.n
    m = 2 * n - 1
    if isinstance(policy, list):
        if len(policy) != m:
            raise ValueError(f"policy list has {len(policy)} entries, the "
                             f"interior has {m} sites")
        eps = policy
    else:
        eps = check_policy(game, policy)
    t = cheat_model.triple(game.model, eps)
    p0, p1, pc = t.p0, t.p1, t.pc
    targ = _targets(n)
    src = [c * g for c, g in zip(pc, targ[1:-1])]
    rhs = src.copy()
    rhs[m - 1] += p0[m - 1] * 1.0  # W(N) = 1; W(-N) = 0 adds nothing

    # forward elimination on rows [1, -p0] with subdiagonal -p1: row i keeps
    # W(z) = d_i + q_i W(z+1), with q_i = -c'_i and d_i = d'_i of the
    # textbook recurrences, so that no negation is left in the loop
    q, d = p0[0], rhs[0]
    qs, ds = [q], [d]
    put_q, put_d = qs.append, ds.append
    for a0, a1, r in zip(p0[1:], p1[1:], rhs[1:]):
        piv = 1.0 - a1 * q
        if not piv > 1e-12:
            raise RuntimeError(f"tridiagonal pivot {piv} at row {len(qs)}; "
                               "system is numerically singular")
        q = a0 / piv
        d = (r + a1 * d) / piv
        put_q(q)
        put_d(d)
    x = ds.pop()
    w = [1.0, x]  # W(z) from z = N downwards
    put_w = w.append
    for d, q in zip(reversed(ds), reversed(qs[:-1])):
        x = d + q * x
        put_w(x)
    w.append(0.0)
    w.reverse()  # W(z) at index z + N

    res = [wz - (a0 * wu + a1 * wd + s)
           for wz, a0, wu, a1, wd, s in zip(w[1:-1], p0, w[2:], p1, w, src)]
    worst = max(map(abs, res))
    if worst > _RESIDUAL_TOL:
        i = list(map(abs, res)).index(worst)
        raise RuntimeError(f"solver residual {res[i]} at site {i - n + 1} "
                           f"exceeds {_RESIDUAL_TOL}")

    bound = (2.0 + game.model.a) / (2.0 * game.model.a * n)
    return WalkSolution(w, eps, w[n] - targ[n], bound, 0)


def improve_policy(game: WalkGame, w: list[float]) -> list[float]:
    """Greedy one-step policy against the values w, ties to honest.

    w holds sites -N..N at index z + N; site z's best eps comes back at
    index z + N - 1.
    """
    # q(eps) = t0 W(z+1) + t1 W(z-1) + tc (N+z)/(2N) with (t0, t1, tc) =
    # triple(eps); the honest coin is (1/2, 1/2, 0) in both models, so q(0)
    # is W(z+1)/2 + W(z-1)/2.  In the standard box q is the quadratic
    # -a(wp - wm) eps^2 + ((wp - wm) - a(wp + wm)/2 + a*targ) eps + (wp + wm)/2.
    # Python division by a tiny curvature overflows to +-inf, which clips
    # like any far vertex.  Ties go to 0, then to the vertex.
    model = game.model
    targ = _targets(game.n)[1:-1]
    e_hi = model.eps_max
    h0, h1, hc = cheat_model.triple(model, e_hi)
    vertex = model.variant == cheat_model.STD
    a = model.a
    best = []
    put = best.append
    for wp, wm, g in zip(w[2:], w, targ):
        q0 = 0.5 * wp + 0.5 * wm
        q_hi = h0 * wp + h1 * wm + hc * g
        if vertex:
            slope = wp - wm
            curv = -a * slope
            if curv < 0.0:
                v = -(slope - a * (wp + wm) * 0.5 + a * g) / (2.0 * curv)
                if 0.0 < v < e_hi:
                    # cheat_model.triple(model, v) written out: the standard
                    # box at b = 1, where a*|v|**1 is a*v to the bit
                    c = a * v
                    keep = 1.0 - c
                    q_v = keep * (0.5 + v) * wp + keep * (0.5 - v) * wm + c * g
                    if q_v > q0 and q_v >= q_hi:
                        put(v)
                        continue
        put(0.0 if q0 >= q_hi else e_hi)
    return best


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
    n = game.n
    policy = [0.0] * (2 * n - 1)  # honest, in list form
    cap = 10 * 2 * n
    prev: WalkSolution | None = None
    for sweep_count in range(1, cap + 1):
        sol = evaluate_policy(game, policy)
        improved = improve_policy(game, sol.w_list)
        if improved == policy:
            return sol._replace(iterations=sweep_count)
        if prev is not None and sol.w_list[n] <= prev.w_list[n]:
            return prev._replace(iterations=sweep_count)
        prev = sol
        policy = improved
    raise RuntimeError(f"policy iteration did not settle within {cap} sweeps")


def brute_force_optimize(game: WalkGame) -> WalkSolution:
    """Enumerate all binary prime policies; oracle for optimize()."""
    if game.model.variant != cheat_model.PRIME:
        raise ValueError("brute force enumerates prime binary policies only")
    n = game.n
    if n > 5:
        raise ValueError(f"N = {n} too large for enumeration, limit 5")
    best = None
    count = 0
    for choice in product((0.0, game.model.eps_max), repeat=2 * n - 1):
        count += 1
        sol = evaluate_policy(game, list(choice))
        if best is None or sol.w_list[n] > best.w_list[n]:
            best = sol
    return best._replace(iterations=count)

