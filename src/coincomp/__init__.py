"""Cheat-sensitive coin flipping: composition analysis and exact game solves.

The package has three layers.  `game_tree` and `cheat_model` define the
objects: binary outcome trees and the parametric cheating channels that can
be attached to every flip.  `composer` and `walk` do the analysis: the
leading-order adversary optimum under serial composition, an exact
brute-force oracle on small trees, and the absorbing random-walk game solved
by policy iteration on tridiagonal systems.  `simulate` cross-checks both
with deterministic Monte Carlo, and `cli` exposes it all as a command-line
tool.
"""

import importlib

# public name -> the module that defines it.  A module is imported on the
# first use of one of its names (PEP 562), so importing the package loads
# none of them.  Only rng, grid_oracle and simulate import numpy, so of the
# commands only `compose --brute-force` and `simulate` load it (the tree
# generators draw from splitmix, which needs no numpy).
_EXPORTS = {
    "cheat_model": ("PRIME", "STD", "CheatModel", "OutcomeTriple", "dominates",
                    "parse_model_string"),
    "composer": ("CompositionResult", "a_new_of_b", "brute_force_min_pc",
                 "derivative_in_b", "exact_outcome", "leading_order",
                 "strategy_from_paths", "strategy_to_paths"),
    "game_tree": ("Flip", "GameTree", "Leaf", "TreeParseError", "annotate",
                  "gen_best_of", "gen_full", "gen_random_fair", "lemma_sum",
                  "parse_tree", "serialize_tree"),
    "simulate": ("SimReport", "simulate_tree", "simulate_walk"),
    "walk": ("WalkGame", "WalkSolution", "brute_force_optimize",
             "evaluate_policy", "honest_policy", "optimize"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]
