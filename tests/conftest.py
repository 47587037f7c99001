"""Shared tree fixtures, generator inverses and the digest of pinned records.

FAIR_SUITE collects fair trees (P_W(root) = 1/2) of varied shape; the small
subset keeps brute-force enumeration affordable (at most 5 internal nodes).
"""

import hashlib
import json
import re

import pytest
from hypothesis import strategies as st

from coincomp import game_tree, splitmix


def _fair_suite():
    trees = {
        "one_flip": game_tree.gen_full(1, [0, 1]),
        "best_of_3": game_tree.gen_best_of(3),
        "best_of_5": game_tree.gen_best_of(5),
        "best_of_7": game_tree.gen_best_of(7),
        "full2_a": game_tree.gen_full(2, [0, 1, 1, 0]),
        "full2_b": game_tree.gen_full(2, [0, 0, 1, 1]),
        "full3": game_tree.gen_full(3, [0, 1, 1, 0, 1, 0, 0, 1]),
        "full4": game_tree.gen_full(4, [0, 1] * 8),
    }
    for seed in range(20):
        trees[f"random_fair_{seed}"] = game_tree.gen_random_fair(6, seed)
    return trees


FAIR_SUITE = _fair_suite()

SMALL_SUITE = {name: FAIR_SUITE[name]
               for name in ("one_flip", "best_of_3", "full2_a", "full2_b")}


def generated_trees():
    """Hypothesis strategy over every generator: gen_random, gen_random_fair,
    best-of 1-15 and gen_full with arbitrary labels."""
    seeds = st.integers(0, 2 ** 32)
    return st.one_of(
        st.builds(game_tree.gen_random, st.integers(0, 10), seeds),
        st.builds(game_tree.gen_random_fair, st.integers(1, 10), seeds),
        st.builds(game_tree.gen_best_of, st.sampled_from(range(1, 16, 2))),
        st.integers(1, 8).flatmap(lambda d: st.builds(
            game_tree.gen_full, st.just(d),
            st.lists(st.integers(0, 1), min_size=2 ** d, max_size=2 ** d))),
    )


def deep_chain(depth):
    """A tree of the given depth with one flip per level: each up child is
    a 0 leaf, and the deepest flip is over a 0 and a 1 leaf."""
    node = game_tree.Flip(game_tree.Leaf(0), game_tree.Leaf(1))
    for _ in range(depth - 1):
        node = game_tree.Flip(game_tree.Leaf(0), node)
    return node


def unshared(node):
    """A copy of the tree built by a plain recursion, in which no two nodes
    are one object."""
    if isinstance(node, game_tree.Leaf):
        return game_tree.Leaf(node.label)
    return game_tree.Flip(unshared(node.up), unshared(node.down))


def per_node(tree, by_row):
    """A per-row strategy (one eps per DAG row) spread over the tree's
    nodes, in postorder: each node takes its row's eps."""
    return [by_row[k] for k in game_tree.annotate(tree).row]


def table_rows(tree, by_path):
    """The rows of the node table a per-node strategy runs on, counted by a
    recursion over the tree objects and the path-keyed eps: one per leaf
    label and one per distinct internal (eps, up key, down key), which
    takes 0.0 and -0.0 as one eps.  A lone leaf is one row."""
    if isinstance(tree, game_tree.Leaf):
        return 1
    keys = set()
    _value_key(tree, "", by_path, keys)
    return 2 + len(keys)


def _value_key(node, at, by_path, keys):
    if isinstance(node, game_tree.Leaf):
        return node.label
    key = (by_path[at], _value_key(node.up, at + "U", by_path, keys),
           _value_key(node.down, at + "D", by_path, keys))
    keys.add(key)
    return key


def distinct_flips(tree):
    """Every distinct Flip object of the tree, by identity."""
    found, todo = {}, [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, game_tree.Flip) and id(node) not in found:
            found[id(node)] = node
            todo += [node.up, node.down]
    return list(found.values())


def json_digest(records):
    """sha256 over one JSON line per record; json spells floats exactly."""
    h = hashlib.sha256()
    for record in records:
        h.update((json.dumps(record) + "\n").encode())
    return h.hexdigest()


# seeds the generators and simulators refuse: each was reduced mod 2**64
# without a word, or (1.5) failed with a TypeError, or (True) ran as 1
BAD_SEEDS = [-1, 1 << 64, (1 << 64) + 5, 1.5, True]


def seed_refused(seed):
    """pytest.raises for the seed-range error naming `seed`."""
    return pytest.raises(ValueError, match=re.escape(
        f"seed must be an int in [0, 2**64), got {seed!r}"))


@pytest.fixture(params=sorted(FAIR_SUITE), ids=sorted(FAIR_SUITE))
def fair_tree(request):
    return FAIR_SUITE[request.param]


@pytest.fixture(params=sorted(SMALL_SUITE), ids=sorted(SMALL_SUITE))
def small_tree(request):
    return SMALL_SUITE[request.param]


@pytest.fixture
def bo3():
    return game_tree.gen_best_of(3)


def unxorshift(x: int, shift: int) -> int:
    """Inverse of x ^ (x >> shift) on 64 bits."""
    y = x
    for _ in range(64 // shift + 1):
        y = x ^ (y >> shift)
    return y


def finalize_input(pre: int) -> int:
    """The z whose splitmix.finalize(z) holds `pre` just before its last xorshift."""
    w = unxorshift(pre * pow(splitmix.MIX2, -1, 1 << 64) & splitmix.MASK, 27)
    return unxorshift(w * pow(splitmix.MIX1, -1, 1 << 64) & splitmix.MASK, 30)
