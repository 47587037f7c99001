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
at z + N - 1, and needs no numpy.  optimize() makes one list call to
cheat_model.triple per solve, on the honest start; eps_max and its triple
are made once per model.  improve_policy hands back its eps list, the p0
and p1 lists of the actions it picked, and the next system's right-hand
side: each picked action's pc (N+z)/(2N), a product it has already formed
to compare the actions, with the top row's p0 W(N) added.  evaluate_policy
solves the next sweep from those lists as they are.  So a sweep is one
forward elimination pass, one back substitution pass that also checks
every row's residual, and one improvement loop.  The site-keyed dicts
and the bound verdict exist only on the returned WalkSolution, built on
first use.  A site-keyed policy is validated once, by check_policy, where it
enters (its lists then go through cheat_model.columns, which checks
nothing again), and a bare eps list by cheat_model.triple.

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


class _Improved(NamedTuple):
    """improve_policy's eps list, the p0 and p1 of each chosen action, and
    the right-hand side of the system that policy's solve runs on."""
    eps: list[float]
    p0: list[float]
    p1: list[float]
    rhs: list[float]


def evaluate_policy(game: WalkGame,
                    policy: WalkPolicy | list[float] | _Improved) -> WalkSolution:
    """Solve the walk's linear system for a fixed policy.

    The policy is site-keyed, which check_policy checks, or a list of eps
    over the interior at index z + N - 1, which cheat_model.triple checks
    and turns into (p0, p1, pc) lists, or improve_policy's result for this
    game, whose p0, p1 and right-hand side are solved as they are.  Direct
    tridiagonal (Thomas) elimination.  The matrix has unit diagonal and
    off-diagonals -p0, -p1 with p0 + p1 <= 1, and the honest boundary rows
    keep it nonsingular; the pivots and the per-equation residuals are
    checked anyway and a failure raises RuntimeError.
    """
    n = game.n
    m = 2 * n - 1
    targ = _targets(n)
    if isinstance(policy, _Improved):
        eps, p0, p1, rhs = policy
    elif isinstance(policy, list):
        eps = policy
        p0, p1, pc = cheat_model.triple(game.model, eps)
    else:  # check_policy checks the eps domain too
        eps = check_policy(game, policy)
        p0, p1, pc = cheat_model.columns(game.model, eps)
    if len(eps) != m:
        raise ValueError(f"policy list has {len(eps)} entries, the "
                         f"interior has {m} sites")
    if not isinstance(policy, _Improved):
        # row z's pc (N+z)/(2N), and the top row's p0 W(N), with W(N) = 1
        rhs = [c * g for c, g in zip(pc, targ[1:-1])]
        rhs[m - 1] += p0[m - 1]

    # forward elimination on rows [1, -p0] with subdiagonal -p1: row i keeps
    # W(z) = d_i + q_i W(z+1), with q_i = -c'_i and d_i = d'_i of the
    # textbook recurrences, so that no negation is left in the loop.  The
    # boundary W(-N) = 0 is the row d = q = 0 below the interior.
    q = d = 0.0
    qs, ds = [q], [d]
    for a0, a1, r in zip(p0, p1, rhs):
        piv = 1.0 - a1 * q
        if not piv > 1e-12:
            raise RuntimeError(f"tridiagonal pivot {piv} at row {len(qs) - 1}; "
                               "system is numerically singular")
        q = a0 / piv
        d = (r + a1 * d) / piv
        qs.append(q)
        ds.append(d)

    # back substitution down to the boundary row; once W(z-1) is known, so
    # is row z's residual W(z) - p0 W(z+1) - p1 W(z-1) - rhs, where the top
    # row's W(N) term is already in rhs
    x = ds.pop()
    qs.pop()  # the top row's q would multiply W(N)
    w = [1.0, x]  # W(z) from z = N downwards
    up = 0.0
    worst = 0.0
    for d, q, a0, a1, r in zip(reversed(ds), reversed(qs), reversed(p0),
                               reversed(p1), reversed(rhs)):
        down = d + q * x
        res = x - (a0 * up + a1 * down + r)
        if res > worst or -res > worst:
            worst, bad, site = abs(res), res, n + 1 - len(w)
        w.append(down)
        up, x = x, down
    if worst > _RESIDUAL_TOL:
        raise RuntimeError(f"solver residual {bad} at site {site} "
                           f"exceeds {_RESIDUAL_TOL}")
    w.reverse()  # W(z) at index z + N

    bound = (2.0 + game.model.a) / (2.0 * game.model.a * n)
    return WalkSolution(w, eps, w[n] - targ[n], bound, 0)


@lru_cache(maxsize=8)
def _box(model: CheatModel) -> tuple[float, float, float, float, bool]:
    # eps_max, its (p0, p1, pc), and whether the box is the standard one,
    # whose quadratic has a vertex to try: the same in every sweep
    e_hi = model.eps_max
    return (e_hi, *cheat_model.triple(model, e_hi), model.variant == cheat_model.STD)


def improve_policy(game: WalkGame, w: list[float]) -> _Improved:
    """Greedy one-step policy against the values w, ties to honest.

    w holds sites -N..N at index z + N; site z's best eps comes back at
    index z + N - 1 of the result's eps list, and the p0 and p1 of that
    eps, the cheat_model.triple entries bit for bit, at the same index of
    its p0 and p1 lists.  Its rhs list holds the pc (N+z)/(2N) of each
    chosen action, the product already formed to compare the candidates,
    and the top row adds p0 W(N) with W(N) = 1: the right-hand side that
    evaluate_policy would build from the triples, to the bit.
    evaluate_policy takes the result as it is.
    """
    # q(eps) = t0 W(z+1) + t1 W(z-1) + tc (N+z)/(2N) with (t0, t1, tc) =
    # triple(eps); the honest coin is (1/2, 1/2, 0) in both models, so q(0)
    # is W(z+1)/2 + W(z-1)/2 and its product tc (N+z)/(2N) is 0.0 (the
    # targets are >= 0).  In the standard box q is the quadratic
    # -a(wp - wm) eps^2 + ((wp - wm) - a(wp + wm)/2 + a*targ) eps + (wp + wm)/2,
    # concave where bend = a(wp - wm) > 0, with its vertex at
    # ((wp - wm) - a(wp + wm)/2 + a*targ) / (2 bend).  That is the textbook
    # -(...) / (2 * -bend) to the bit: negation is exact and rounding is
    # symmetric in sign.  Python division by a tiny bend overflows to
    # +-inf, which clips like any far vertex.  Ties go to 0, then to the
    # vertex.
    e_hi, h0, h1, hc, vertex = _box(game.model)
    a = game.model.a
    targ = _targets(game.n)[1:-1]
    best, p0, p1, rhs = [], [], [], []
    for wp, wm, g in zip(w[2:], w, targ):
        q0 = 0.5 * wp + 0.5 * wm
        r_hi = hc * g
        q_hi = h0 * wp + h1 * wm + r_hi
        if vertex:
            slope = wp - wm
            bend = a * slope
            if bend > 0.0:
                v = (slope - a * (wp + wm) * 0.5 + a * g) / (2.0 * bend)
                if 0.0 < v < e_hi:
                    # cheat_model.triple(model, v) written out: the standard
                    # box at b = 1, where a*|v|**1 is a*v to the bit
                    c = a * v
                    keep = 1.0 - c
                    t0, t1 = keep * (0.5 + v), keep * (0.5 - v)
                    r = c * g
                    q_v = t0 * wp + t1 * wm + r
                    if q_v > q0 and q_v >= q_hi:
                        best.append(v)
                        p0.append(t0)
                        p1.append(t1)
                        rhs.append(r)
                        continue
        if q0 >= q_hi:
            best.append(0.0)
            p0.append(0.5)
            p1.append(0.5)
            rhs.append(0.0)
        else:
            best.append(e_hi)
            p0.append(h0)
            p1.append(h1)
            rhs.append(r_hi)
    rhs[-1] += p0[-1]  # the top row's p0 W(N), with W(N) = 1
    return _Improved(best, p0, p1, rhs)


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
        if improved.eps == sol.eps_list:
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

