"""Command-line interface.

Commands: tree gen/analyze, compose, walk solve/sweep, simulate.  All
payloads go to stdout as JSON (or CSV for `walk sweep --csv`); diagnostics
go to stderr.  Exit codes: 0 success, 1 invalid input (a ValueError from the
flags, a file or the module that checks a value), 2 runtime invariant
violation (a result that should be impossible, reported loudly rather than
emitted quietly).

`walk` needs only walk and cheat_model, and loads no dataclasses; other
commands import their modules when they run, and only
`compose --brute-force` and `simulate` load numpy.  Without numpy those two
exit 1 with a one-line error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import cheat_model, walk
from .cheat_model import CheatModel
from .walk import WalkGame

if TYPE_CHECKING:
    from . import composer, game_tree, simulate


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through the exit-1 path
    def error(self, message):
        raise ValueError(message)


def _read_tree(path: str) -> game_tree.GameTree:
    from . import game_tree

    return game_tree.parse_tree(Path(path).read_text())


def _emit(payload) -> None:
    # NaN and Infinity are not JSON; refusing them raises ValueError, exit 1
    print(json.dumps(payload, allow_nan=False))


def _cmd_tree_gen(args) -> int:
    from . import game_tree

    if args.kind == "best-of":
        if args.n is None:
            raise ValueError("--kind best-of requires --n")
        tree = game_tree.gen_best_of(args.n)
    elif args.kind == "full":
        if args.depth is None or args.labels is None:
            raise ValueError("--kind full requires --depth and --labels")
        bad = set(args.labels) - {"0", "1"}
        if bad:
            raise ValueError(f"labels must be a string of 0/1, got {args.labels!r}")
        tree = game_tree.gen_full(args.depth, [int(ch) for ch in args.labels])
    else:  # random-fair
        if args.depth is None:
            raise ValueError("--kind random-fair requires --depth")
        tree = game_tree.gen_random_fair(args.depth, args.seed)
    print(game_tree.serialize_tree(tree))
    return 0


def _cmd_tree_analyze(args) -> int:
    from . import game_tree

    tree = _read_tree(args.infile)
    ann = game_tree.annotate(tree)
    total = ann.lemma_sum()
    p = ann.p_w_root
    expected = 4.0 * p * (1.0 - p)
    if abs(total - expected) > 1e-9:
        raise RuntimeError(f"lemma_sum {total} disagrees with 4p(1-p) {expected}")
    _emit({
        "p_w_root": p,
        "lemma_sum": total,
        "lemma_expected": expected,
        # paths are distinct, so the sort never compares past them
        "nodes": {path: {"depth": d, "p_w": w, "delta": x} for path, d, w, x
                  in sorted(zip(ann.path, ann.depth, ann.p_w, ann.delta))},
    })
    return 0


def _cmd_compose(args) -> int:
    from . import composer

    if args.grid is not None and not args.brute_force:
        raise ValueError("--grid is the grid step of --brute-force, which "
                         "was not given")
    tree = _read_tree(args.tree)
    result = composer.leading_order(tree, args.a, args.b, args.eps_tot)
    payload = result.to_json_dict()
    model = CheatModel(args.a, args.b, cheat_model.STD)
    if args.exact:
        t = composer.exact_outcome(tree, model, result.strategy)
        payload["exact"] = {"p0": t.p0, "p1": t.p1, "pc": t.pc}
    if args.brute_force:
        from . import game_tree

        grid = 1e-3 if args.grid is None else args.grid
        strategy, min_pc = composer.brute_force_min_pc(tree, model, args.eps_tot,
                                                       grid)
        by_path = composer.strategy_to_paths(game_tree.annotate(tree), strategy)
        payload["brute_force"] = {
            "min_pc": min_pc,
            "strategy": dict(sorted(by_path.items())),
        }
    _emit(payload)
    return 0


def _solved(model: CheatModel, n: int) -> walk.WalkSolution:
    """optimize() at N; a solution over the bias bound is an invariant violation."""
    sol = walk.optimize(WalkGame(n, model))
    if not sol.bound_ok:
        raise RuntimeError(f"bias bound violated at N={n}: bias {sol.bias} "
                           f"vs bound {sol.bound}")
    return sol


def _cmd_walk_solve(args) -> int:
    model = cheat_model.parse_model_string(args.model)
    sol = _solved(model, args.n)
    _emit({"n": args.n, "a": model.a, "variant": model.variant,
           **sol.to_json_dict()})
    return 0


def _csv_field(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.16e}" if isinstance(value, float) else str(value)


def _cmd_walk_sweep(args) -> int:
    model = cheat_model.parse_model_string(args.model)
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    rows = []
    for n in range(1, args.n_max + 1):
        sol = _solved(model, n)
        rows.append({"N": n, "a": model.a, "variant": model.variant,
                     "bias": sol.bias, "bound": sol.bound,
                     "bound_ok": sol.bound_ok, "iterations": sol.iterations})
    if args.csv:
        print(",".join(rows[0]))  # the header is the row's keys
        for row in rows:
            print(",".join(map(_csv_field, row.values())))
    else:
        _emit(rows)
    return 0


def _number_map(arg: str, kind: str) -> dict[str, float]:
    """A JSON file's object of finite numbers, maybe under a `kind` key."""
    from . import game_tree  # loaded already: both callers simulate a game

    try:
        # float(s) rounds an integer as float(int(s)) does, with no digit
        # limit (too large is inf); + 0.0 reads "-0" as 0.0, as int() does
        data = json.loads(Path(arg).read_text(),
                          parse_int=lambda s: float(s) + 0.0,
                          object_pairs_hook=game_tree.unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind} file {arg}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{kind} file {arg}: invalid JSON: nested too "
                         "deeply") from None
    except game_tree.TreeParseError as exc:  # a repeated key
        raise ValueError(f"{kind} file {arg}: {exc}") from None
    if isinstance(data, dict) and isinstance(data.get(kind), dict):
        data = data[kind]
    if not isinstance(data, dict):
        raise ValueError(f"{kind} file {arg}: expected an object")
    for key, value in data.items():
        if type(value) is not float:  # every JSON number decodes to a float
            raise ValueError(f"{kind} file {arg}: eps for {key!r} is not "
                             "a number")
        if not math.isfinite(value):  # also the NaN and Infinity literals
            raise ValueError(f"{kind} file {arg}: eps for {key!r} must be "
                             f"finite, got {value}")
    return data


def _strategy_from_arg(arg: str, tree, model: CheatModel) -> composer.Strategy:
    from . import composer, game_tree

    if arg.startswith("lo:"):
        try:
            eps_tot = float(arg[3:])
        except ValueError:
            raise ValueError(f"bad --strategy shorthand {arg!r}") from None
        return composer.leading_order(tree, model.a, model.b, eps_tot).strategy
    ann = game_tree.annotate(tree)
    if arg == "honest":
        return [0.0] * len(ann.row)
    return composer.strategy_from_paths(ann, _number_map(arg, "strategy"))


def _policy_from_arg(arg: str, game: WalkGame) -> walk.WalkPolicy:
    if arg == "optimal":
        return walk.optimize(game).policy
    if arg == "honest":
        return walk.honest_policy(game)
    out: walk.WalkPolicy = {}
    for key, eps in _number_map(arg, "policy").items():
        # one spelling per site, so no two keys can name the same site
        try:
            site = int(key)
        except ValueError:
            site = None
        if str(site) != key:
            raise ValueError(f"policy file {arg}: bad site {key!r}")
        out[site] = eps
    return out


def _check_against_exact(report: simulate.SimReport, exact: dict[str, float]) -> None:
    from .simulate import DIVERGENCE_LIMIT, divergence

    counts = {"win": report.wins, "loss": report.losses, "catch": report.catches}
    for key, p in exact.items():
        if (stat := divergence(counts[key], report.trials, p)) > DIVERGENCE_LIMIT:
            se = math.sqrt(max(0.0, p * (1.0 - p)) / report.trials)
            raise RuntimeError(f"estimate {key} = {report.estimates[key]}, exact {p} "
                               f"(stderr {se}): trials*D = {stat} > {DIVERGENCE_LIMIT}")


def _cmd_simulate(args) -> int:
    from . import composer, simulate

    model = cheat_model.parse_model_string(args.model)
    if (args.tree is None) == (not args.walk):
        raise ValueError("choose exactly one of --tree FILE or --walk")
    mode = "--tree" if args.tree is not None else "--walk"
    other = ({"--strategy": args.strategy} if args.walk else
             {"--n": args.n, "--policy": args.policy, "--step-cap": args.step_cap})
    for flag, value in other.items():
        if value is not None:
            raise ValueError(f"{flag} does not apply to {mode} simulation")
    if args.tree is not None:
        if args.strategy is None:
            raise ValueError("--tree simulation requires --strategy")
        tree = _read_tree(args.tree)
        strategy = _strategy_from_arg(args.strategy, tree, model)
        report = simulate.simulate_tree(tree, model, strategy, args.trials,
                                        args.seed, workers=args.workers)
        t = composer.exact_outcome(tree, model, strategy)
        _check_against_exact(report, {"win": t.p0, "loss": t.p1, "catch": t.pc})
    else:
        if args.n is None:
            raise ValueError("--walk simulation requires --n")
        if args.policy is None:
            raise ValueError("--walk simulation requires --policy")
        game = WalkGame(args.n, model)
        policy = _policy_from_arg(args.policy, game)
        report = simulate.simulate_walk(game, policy, args.trials, args.seed,
                                        step_cap=args.step_cap,
                                        workers=args.workers)
        exact_win = walk.evaluate_policy(game, policy).w[0]
        _check_against_exact(report, {"win": exact_win, "loss": 1.0 - exact_win})
    _emit(report.to_json_dict())
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="coincomp",
                     description="Cheat-sensitive coin-flipping composition "
                                 "analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="generate or analyze game trees")
    tree_sub = tree.add_subparsers(dest="subcommand", required=True)
    gen = tree_sub.add_parser("gen", help="emit a tree document")
    gen.add_argument("--kind", required=True,
                     choices=["best-of", "full", "random-fair"])
    gen.add_argument("--n", type=int, help="flip count for best-of")
    gen.add_argument("--depth", type=int, help="depth for full / random-fair")
    gen.add_argument("--labels", help="leaf labels for full, e.g. 0110")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_tree_gen)
    analyze = tree_sub.add_parser("analyze", help="annotate a tree document")
    analyze.add_argument("--in", dest="infile", required=True)
    analyze.set_defaults(func=_cmd_tree_analyze)

    compose = sub.add_parser("compose", help="leading-order adversary optimum")
    compose.add_argument("--tree", required=True)
    compose.add_argument("--a", type=float, required=True)
    compose.add_argument("--b", type=float, required=True)
    compose.add_argument("--eps-tot", type=float, required=True)
    compose.add_argument("--exact", action="store_true",
                         help="also emit the exact outcome of the strategy")
    compose.add_argument("--brute-force", action="store_true",
                         help="also emit the grid-search oracle minimum")
    compose.add_argument("--grid", type=float, default=None,
                         help="grid step for --brute-force (default 1e-3)")
    compose.set_defaults(func=_cmd_compose)

    wk = sub.add_parser("walk", help="solve the random-walk game")
    wk_sub = wk.add_subparsers(dest="subcommand", required=True)
    solve = wk_sub.add_parser("solve")
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--model", required=True)
    solve.set_defaults(func=_cmd_walk_solve)
    swp = wk_sub.add_parser("sweep")
    swp.add_argument("--n-max", type=int, required=True)
    swp.add_argument("--model", required=True)
    swp.add_argument("--csv", action="store_true")
    swp.set_defaults(func=_cmd_walk_sweep)

    sim = sub.add_parser("simulate", help="Monte Carlo cross-check")
    sim.add_argument("--tree", help="tree document to simulate")
    sim.add_argument("--walk", action="store_true",
                     help="simulate a walk game instead of a tree")
    sim.add_argument("--n", type=int, help="walk size N")
    sim.add_argument("--model", required=True)
    sim.add_argument("--strategy",
                     help="honest | lo:<eps_tot> | strategy JSON file")
    sim.add_argument("--policy", help="optimal | honest | policy JSON file")
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--step-cap", type=int, default=None)
    sim.add_argument("--workers", type=int, default=1)
    sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        if exc.name != "numpy":
            raise
        print("error: this command needs numpy, which could not be imported",
              file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
