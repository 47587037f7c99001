"""Tree parsing, generation and annotation."""

import dataclasses
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coincomp import composer, game_tree, simulate
from coincomp.cheat_model import CheatModel
from coincomp.game_tree import Flip, Leaf, NodeInfo, TreeParseError
from conftest import (BAD_SEEDS, deep_chain, distinct_flips, generated_trees,
                      seed_refused, unshared)


CANONICAL_BEST_OF_3 = (
    '{"flip":{"up":{"flip":{"up":{"leaf":0},"down":{"flip":{"up":{"leaf":0},'
    '"down":{"leaf":1}}}}},"down":{"flip":{"up":{"flip":{"up":{"leaf":0},'
    '"down":{"leaf":1}}},"down":{"leaf":1}}}}}'
)


def tree_documents(max_depth=5):
    """Hypothesis strategy producing schema-valid tree JSON values."""
    leaf = st.sampled_from([{"leaf": 0}, {"leaf": 1}])
    return st.recursive(
        leaf,
        lambda node: st.fixed_dictionaries(
            {"flip": st.fixed_dictionaries({"up": node, "down": node})}),
        max_leaves=2 ** max_depth,
    )


class TestParse:
    def test_single_leaf(self):
        assert game_tree.parse_tree('{"leaf": 0}') == Leaf(0)

    def test_one_flip(self):
        tree = game_tree.parse_tree(
            '{"flip": {"up": {"leaf": 0}, "down": {"leaf": 1}}}')
        assert tree == Flip(Leaf(0), Leaf(1))

    def test_canonical_best_of_3_round_trip(self):
        tree = game_tree.parse_tree(CANONICAL_BEST_OF_3)
        assert game_tree.serialize_tree(tree) == CANONICAL_BEST_OF_3

    # the exact message of each refusal; the checks run in a fixed order:
    # budget, object, leaf label, inner object, missing up then down, extra
    # keys, depth
    MALFORMED = [
        ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", "node at path '': expected an object, got list"),
        ('{"leaf": 2}', "node at path '': leaf label must be 0 or 1, got 2"),
        ('{"leaf": true}', "node at path '': leaf label must be 0 or 1, got True"),
        ('{"leaf": 0.5}', "node at path '': leaf label must be 0 or 1, got 0.5"),
        ('{"leaf": 1.0}', "node at path '': leaf label must be 0 or 1, got 1.0"),
        ('{"flip": {"up": {"leaf": 0}}}', "node at path '': missing 'down' child"),
        ('{"flip": {"up": {"leaf": 0}, "down": {"leaf": 1}, "mid": {"leaf": 0}}}',
         "node at path '': unexpected keys ['mid']"),
        ('{"leaf": 0, "flip": {}}',
         "node at path '': expected exactly one of 'leaf' or 'flip'"),
        ('{"branch": {}}',
         "node at path '': expected exactly one of 'leaf' or 'flip'"),
        ("{}", "node at path '': expected exactly one of 'leaf' or 'flip'"),
        ('{"flip": 3}', "node at path '': 'flip' must hold an object"),
        ('{"flip": {"down": {"leaf": 1}}}', "node at path '': missing 'up' child"),
        # the extra keys are checked before the children are parsed
        ('{"flip": {"up": {"leaf": 0}, "down": {"flip": {"up": {"leaf": 1}, '
         '"down": 7, "x": 1}}}}', "node at path 'D': unexpected keys ['x']"),
        ('{"flip": {"up": {"leaf": 0}, "down": {"flip": {"up": {"leaf": 1}, '
         '"down": {"leaf": 0}, "b": 1, "a": 2}}}}',
         "node at path 'D': unexpected keys ['a', 'b']"),
        # a dict keeps a repeated key's last value: these read as Leaf(1)
        # and Flip(Leaf(1), Leaf(1))
        ('{"leaf": 0, "leaf": 1}', "repeated key 'leaf' in one object"),
        ('{"flip": {"up": {"leaf": 0}, "up": {"leaf": 1}, "down": {"leaf": 1}}}',
         "repeated key 'up' in one object"),
    ]

    @pytest.mark.parametrize("bad, message", MALFORMED,
                             ids=[bad for bad, _ in MALFORMED])
    def test_rejects_malformed(self, bad, message):
        with pytest.raises(TreeParseError, match=f"^{re.escape(message)}$"):
            game_tree.parse_tree(bad)

    def test_error_names_offending_path(self):
        doc = '{"flip": {"up": {"leaf": 0}, "down": {"flip": {"up": {"leaf": 3}, "down": {"leaf": 1}}}}}'
        with pytest.raises(TreeParseError, match="DU"):
            game_tree.parse_tree(doc)

    def test_long_number_is_refused_as_a_leaf_label(self):
        # int() of a 5,001-digit literal passed Python's digit limit, whose
        # message advised an interpreter setting
        message = ("a 5001-character number cannot be a leaf label, "
                   "which is 0 or 1")
        with pytest.raises(TreeParseError, match=f"^{message}$"):
            game_tree.parse_tree('{"leaf": 1' + "0" * 5000 + "}")

    @staticmethod
    def _left_spine(flips):
        text = '{"leaf":0}'
        for _ in range(flips):
            text = '{"flip":{"up":' + text + ',"down":{"leaf":1}}}'
        return text

    def test_depth_cap_accepted(self):
        tree = game_tree.parse_tree(self._left_spine(game_tree.MAX_DEPTH))
        assert max(game_tree.annotate(tree).depth) == game_tree.MAX_DEPTH

    def test_depth_cap_exceeded_names_path(self):
        with pytest.raises(TreeParseError, match="'" + "U" * 52 + "'"):
            game_tree.parse_tree(self._left_spine(game_tree.MAX_DEPTH + 1))

    def test_very_deep_document_is_a_parse_error(self):
        # json.loads itself recurses; RecursionError must not escape
        with pytest.raises(TreeParseError):
            game_tree.parse_tree(self._left_spine(3000))

    def test_node_budget(self, monkeypatch):
        # best-of-3 has 11 nodes: a budget of 11 keeps the parse, 10 stops it
        # at the eleventh node in preorder, the last leaf.  The leaf keys are
        # spelled with an escape, which the count before decoding cannot see,
        # so it is the parse's own node counter that stops this document.
        escaped = CANONICAL_BEST_OF_3.replace('"leaf"', '"\\u006ceaf"')
        tree = game_tree.parse_tree(CANONICAL_BEST_OF_3)
        monkeypatch.setattr(game_tree, "MAX_NODES", 11)
        assert game_tree.parse_tree(CANONICAL_BEST_OF_3) == tree
        assert game_tree.parse_tree(escaped) == tree
        monkeypatch.setattr(game_tree, "MAX_NODES", 10)
        with pytest.raises(TreeParseError, match="'DD'.*budget of 10 nodes"):
            game_tree.parse_tree(escaped)

    def test_node_budget_checked_before_decoding(self, monkeypatch):
        # 5 "flip" and 6 "leaf" keys: over a budget of 10 the document is
        # rejected without json.loads ever seeing it
        def loads(*args, **kwargs):
            raise AssertionError("json.loads called on an over-budget document")

        monkeypatch.setattr(game_tree, "MAX_NODES", 10)
        monkeypatch.setattr(game_tree.json, "loads", loads)
        with pytest.raises(TreeParseError, match="spells 11 'leaf' and 'flip' "
                                                 "keys.*budget of 10 nodes"):
            game_tree.parse_tree(CANONICAL_BEST_OF_3)

    @given(tree_documents())
    def test_round_trip(self, doc):
        text = json.dumps(doc)
        tree = game_tree.parse_tree(text)
        again = game_tree.parse_tree(game_tree.serialize_tree(tree))
        assert again == tree


class TestGenerators:
    def test_best_of_3_is_canonical(self):
        assert game_tree.serialize_tree(game_tree.gen_best_of(3)) == CANONICAL_BEST_OF_3

    def test_best_of_1_is_one_flip(self):
        assert game_tree.gen_best_of(1) == Flip(Leaf(0), Leaf(1))

    @pytest.mark.parametrize("n", [2, 0, -1, 4])
    def test_best_of_rejects_even(self, n):
        with pytest.raises(ValueError):
            game_tree.gen_best_of(n)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_best_of_is_fair(self, n):
        ann = game_tree.annotate(game_tree.gen_best_of(n))
        assert ann.p_w_root == 0.5

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_best_of_terminates_early(self, n):
        # the up-most branch settles after (n+1)/2 flips, not n
        tree = game_tree.gen_best_of(n)
        need = (n + 1) // 2
        node = tree
        for _ in range(need):
            assert isinstance(node, Flip)
            node = node.up
        assert node == Leaf(0)

    def test_full_labels_length_checked(self):
        with pytest.raises(ValueError):
            game_tree.gen_full(2, [0, 1])

    @pytest.mark.parametrize("labels", [[0, 2], [0.0, 1.0], [0, True]])
    def test_full_label_values_checked(self, labels):
        with pytest.raises(ValueError, match="leaf label must be 0 or 1"):
            game_tree.gen_full(1, labels)

    def test_full_over_budget_rejected(self, monkeypatch):
        # depth 2 has 7 nodes: a budget of 7 keeps it, 6 refuses it before
        # the labels are read, so even a wrong label count reports the budget
        monkeypatch.setattr(game_tree, "MAX_NODES", 7)
        assert len(game_tree.annotate(game_tree.gen_full(2, [0, 1, 1, 0])).path) == 7
        monkeypatch.setattr(game_tree, "MAX_NODES", 6)
        for labels in ([0, 1, 1, 0], []):
            with pytest.raises(ValueError, match="depth 2 has 7 nodes, over "
                                                 "the budget of 6"):
                game_tree.gen_full(2, labels)

    def test_full_depth_one(self):
        assert game_tree.gen_full(1, [0, 1]) == Flip(Leaf(0), Leaf(1))

    def test_full_leaf_order_is_up_first(self):
        tree = game_tree.gen_full(2, [0, 0, 1, 1])
        assert tree == Flip(Flip(Leaf(0), Leaf(0)), Flip(Leaf(1), Leaf(1)))

    def test_random_fair_is_deterministic(self):
        t1 = game_tree.gen_random_fair(6, 123)
        t2 = game_tree.gen_random_fair(6, 123)
        assert t1 == t2

    def test_random_fair_varies_with_seed(self):
        trees = {game_tree.serialize_tree(game_tree.gen_random_fair(6, s))
                 for s in range(30)}
        assert len(trees) > 1

    @pytest.mark.parametrize("seed", range(10))
    def test_random_fair_is_exactly_fair(self, seed):
        ann = game_tree.annotate(game_tree.gen_random_fair(6, seed))
        assert ann.p_w_root == 0.5

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    @pytest.mark.parametrize("gen", [game_tree.gen_random, game_tree.gen_random_fair])
    def test_seed_outside_range_refused(self, gen, seed):
        # gen_random_fair(4, 2**64 + 5) was gen_random_fair(4, 5)
        with seed_refused(seed):
            gen(4, seed)

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("gen", [game_tree.gen_random, game_tree.gen_random_fair])
    def test_seed_range_ends_run(self, gen, seed):
        assert gen(4, seed) == gen(4, seed)

    # gen_best_of(True) built best-of-1, gen_random(2.0, s) and
    # gen_random_fair(2.0, s) built trees, and gen_full(2.0, ...) raised a
    # TypeError; each generator's size argument follows one rule
    @pytest.mark.parametrize("gen,args,name,lo", [
        (game_tree.gen_best_of, (True,), "n", 1),
        (game_tree.gen_best_of, (53,), "n", 1),
        (game_tree.gen_full, (2.0, [0, 1, 1, 0]), "depth", 1),
        (game_tree.gen_full, (0, [0]), "depth", 1),
        (game_tree.gen_random, (2.0, 3), "max_depth", 0),
        (game_tree.gen_random, (-1, 3), "max_depth", 0),
        (game_tree.gen_random_fair, (2.0, 3), "max_depth", 1),
        (game_tree.gen_random_fair, (53, 3), "max_depth", 1),
    ])
    def test_size_must_be_an_int_in_range(self, gen, args, name, lo):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an int in [{lo}, 52], got {args[0]!r}")):
            gen(*args)

    def test_mirror_swaps_win_probability(self):
        tree = game_tree.gen_full(2, [0, 0, 0, 1])
        p = game_tree.annotate(tree).p_w_root
        q = game_tree.annotate(game_tree.mirror(tree)).p_w_root
        assert p + q == 1.0


def exact_annotate(tree):
    """(path, depth, P_W, Delta) of every node in postorder, with P_W and
    Delta in Fractions (Delta None on leaves)."""
    rows = []

    def visit(node, at):
        if isinstance(node, Leaf):
            w, gap = Fraction(1 - node.label), None
        else:
            pu, pd = visit(node.up, at + "U"), visit(node.down, at + "D")
            w, gap = (pu + pd) / 2, pu - pd
        rows.append((at, len(at), w, gap))
        return w

    visit(tree, "")
    return rows


def postorder_paths(node, at=""):
    """Every path of node's subtree in postorder: up subtree, down subtree,
    then the node."""
    if isinstance(node, Leaf):
        return [at]
    return (postorder_paths(node.up, at + "U")
            + postorder_paths(node.down, at + "D") + [at])


def shuffled_full_4():
    """A fair full(4) tree whose leaf labels are shuffled."""
    labels = [0, 1] * 8
    random.Random(4).shuffle(labels)
    return game_tree.gen_full(4, labels)


def spy_on_recursion(monkeypatch):
    """The list of nodes _annotate is entered with, from now on."""
    calls = []
    real = game_tree._annotate

    def spy(node, *args):
        calls.append(node)
        return real(node, *args)

    monkeypatch.setattr(game_tree, "_annotate", spy)
    return calls


class TestAnnotate:
    @settings(max_examples=80, deadline=None)
    @given(generated_trees())
    def test_columns_are_exact(self, tree):
        # every P_W and Delta equals its exact value, in postorder, and up
        # and down point at each node's children
        ann = game_tree.annotate(tree)
        rows = exact_annotate(tree)
        assert ann.path == [at for at, _, _, _ in rows]
        assert ann.depth == [d for _, d, _, _ in rows]
        for i, (at, _, w, gap) in enumerate(rows):
            assert Fraction(ann.p_w[i]) == w
            if gap is None:
                assert (ann.delta[i], ann.up[i], ann.down[i]) == (None, -1, -1)
            else:
                assert Fraction(ann.delta[i]) == gap
                assert (ann.path[ann.up[i]], ann.path[ann.down[i]]) == (at + "U", at + "D")

    @settings(max_examples=80, deadline=None)
    @given(generated_trees())
    @example(deep_chain(52))
    def test_lazy_path_column_is_the_postorder_of_paths(self, tree):
        # annotate builds no path string; the column is built on first use,
        # once, from the child positions, and lists the paths in the order
        # a recursion over the Flip/Leaf tree itself visits them
        ann = game_tree.annotate(tree)
        assert "path" not in vars(ann)
        assert ann.path == postorder_paths(tree)
        assert ann.path is ann.path

    @settings(max_examples=80, deadline=None)
    @given(generated_trees())
    @example(deep_chain(52))
    def test_lazy_depth_column_is_each_nodes_depth(self, tree):
        # annotate writes no per-node depth; the column is built on first
        # use, once, and holds each node's depth, the length of its path,
        # in postorder
        ann = game_tree.annotate(tree)
        assert "depth" not in vars(ann)
        assert ann.depth == [len(at) for at in postorder_paths(tree)]
        assert ann.depth is ann.depth

    @pytest.mark.parametrize("make", [
        lambda: game_tree.gen_best_of(5),
        lambda: game_tree.gen_full(3, [0, 1, 1, 0, 1, 0, 0, 1]),
        lambda: game_tree.gen_random_fair(6, 3)],
        ids=["best-of-5", "full(3)", "random-fair"])
    def test_recursion_enters_each_distinct_flip_once(self, monkeypatch, make):
        # each Flip writes its leaf children's entries, and a Flip met again
        # copies its first block, so the recursion runs once per distinct
        # Flip object, and the columns are those of a plain run.  A tree
        # object keeps its columns, so each annotate gets a tree of its own
        plain = game_tree.annotate(make())
        tree = make()
        calls = spy_on_recursion(monkeypatch)
        ann = game_tree.annotate(tree)
        assert all(isinstance(node, Flip) for node in calls)
        assert len({id(node) for node in calls}) == len(calls)
        assert len(calls) == len(distinct_flips(tree)) == len(ann.dag_up) - 2
        assert len(calls) <= sum(u >= 0 for u in ann.up) < len(ann.up)
        assert dataclasses.astuple(ann) == dataclasses.astuple(plain)

    def test_leaf_tree_gets_its_row_without_recursion(self, monkeypatch):
        monkeypatch.setattr(game_tree, "_annotate", None)  # a call would fail
        ann = game_tree.annotate(Leaf(0))
        assert (ann.depth, ann.p_w, ann.delta, ann.up, ann.down) == (
            [0], [1.0], [None], [-1], [-1])
        assert ann.path == [""]

    def test_leaf_win_convention(self):
        # outcome 0 is the win for the analyzed player
        assert game_tree.annotate(Leaf(0)).p_w_root == 1.0
        assert game_tree.annotate(Leaf(1)).p_w_root == 0.0

    def test_best_of_3_labels(self):
        ann = game_tree.annotate(game_tree.gen_best_of(3))
        p_w = {p: i.p_w for p, i in ann.nodes.items()}
        delta = {p: i.delta for p, i in ann.internal()}
        assert p_w[""] == 0.5
        assert p_w["U"] == 0.75
        assert p_w["D"] == 0.25
        assert p_w["UD"] == 0.5
        assert p_w["DU"] == 0.5
        assert delta == {"": 0.5, "U": 0.5, "D": 0.5, "UD": 1.0, "DU": 1.0}

    def test_depths_follow_paths(self, fair_tree):
        ann = game_tree.annotate(fair_tree)
        for path, info in ann.nodes.items():
            assert info.depth == len(path)

    def test_delta_matches_child_gap(self, fair_tree):
        ann = game_tree.annotate(fair_tree)
        for path, info in ann.internal():
            up = ann.nodes[path + "U"]
            down = ann.nodes[path + "D"]
            assert info.delta == up.p_w - down.p_w
            assert info.p_w == (up.p_w + down.p_w) / 2.0

    def test_p_w_root_equals_leaf_mass(self, fair_tree):
        ann = game_tree.annotate(fair_tree)
        assert ann.p_w_root == game_tree.leaf_win_mass(fair_tree)

    @given(tree_documents())
    def test_p_w_root_equals_leaf_mass_random(self, doc):
        tree = game_tree.parse_tree(json.dumps(doc))
        assert game_tree.annotate(tree).p_w_root == game_tree.leaf_win_mass(tree)

    def test_flip_at_depth_52_stops_the_pass(self):
        # the cap is checked on Flips: one at depth 52 would put its two
        # leaf children at depth 53
        tree = Flip(Leaf(0), Leaf(1))
        for _ in range(52):
            tree = Flip(Leaf(0), tree)
        with pytest.raises(ValueError, match=f"^tree depth exceeds "
                                             f"{game_tree.MAX_DEPTH};"):
            game_tree.annotate(tree)
        ann = game_tree.annotate(deep_chain(52))
        assert max(ann.depth) == 52
        assert max(d for d, u in zip(ann.depth, ann.up) if u >= 0) == 51

    def test_depth_cap_enforced(self):
        tree = Leaf(0)
        for _ in range(53):
            tree = Flip(tree, Leaf(1))
        with pytest.raises(ValueError):
            game_tree.annotate(tree)

    @pytest.mark.parametrize("side", ["up", "down"])
    def test_deep_hand_built_chain_stops_at_the_cap(self, side):
        # far deeper than the interpreter's recursion limit: the pass must
        # stop at depth 53 with the depth error, not recurse on
        tree = Leaf(0)
        for _ in range(3000):
            tree = Flip(tree, Leaf(1)) if side == "up" else Flip(Leaf(1), tree)
        with pytest.raises(ValueError, match=f"tree depth exceeds "
                                             f"{game_tree.MAX_DEPTH}"):
            game_tree.annotate(tree)

    @pytest.mark.parametrize("side", ["up", "down"])
    @pytest.mark.parametrize("name", ["leaf_win_mass", "mirror", "serialize_tree"])
    def test_other_tree_walks_stop_at_the_cap(self, name, side):
        # each walks the Flip/Leaf tree itself, so each needs its own check
        tree = Leaf(0)
        for _ in range(3000):
            tree = Flip(tree, Leaf(1)) if side == "up" else Flip(Leaf(1), tree)
        with pytest.raises(ValueError, match=f"tree depth exceeds "
                                             f"{game_tree.MAX_DEPTH}"):
            getattr(game_tree, name)(tree)

    @pytest.mark.parametrize("side", ["up", "down"])
    def test_other_tree_walks_accept_depth_52(self, side):
        tree = Leaf(0)
        for _ in range(52):
            tree = Flip(tree, Leaf(1)) if side == "up" else Flip(Leaf(1), tree)
        assert game_tree.leaf_win_mass(tree) == game_tree.annotate(tree).p_w_root
        assert game_tree.mirror(game_tree.mirror(tree)) == tree
        assert game_tree.parse_tree(game_tree.serialize_tree(tree)) == tree

    def test_depth_52_accepted(self):
        tree = Leaf(0)
        for _ in range(52):
            tree = Flip(tree, Leaf(1))
        ann = game_tree.annotate(tree)
        assert math.isfinite(ann.p_w_root)

    def test_lists_are_postorder(self, fair_tree):
        ann = game_tree.annotate(fair_tree)
        assert ann.path[-1] == ""
        for i, (gap, u, dn) in enumerate(zip(ann.delta, ann.up, ann.down)):
            if gap is None:
                assert (u, dn) == (-1, -1)
            else:
                # up subtree, then down subtree, then the node itself
                assert u < dn < i
                assert ann.path[u] == ann.path[i] + "U"
                assert ann.path[dn] == ann.path[i] + "D"
                assert ann.depth[u] == ann.depth[dn] == ann.depth[i] + 1

    def test_nodes_view_matches_lists(self, fair_tree):
        ann = game_tree.annotate(fair_tree)
        assert list(ann.nodes) == ann.path
        assert list(ann.nodes.values()) == [
            NodeInfo(d, w, x) for d, w, x in zip(ann.depth, ann.p_w, ann.delta)]
        assert [p for p, _ in ann.internal()] == [
            p for p, x in zip(ann.path, ann.delta) if x is not None]

    def test_internal_reads_the_columns(self):
        ann = game_tree.annotate(game_tree.gen_random_fair(6, 1))
        got = ann.internal()
        assert "nodes" not in vars(ann)  # no NodeInfo built for the leaves
        assert got == [(p, i) for p, i in ann.nodes.items() if i.delta is not None]


class TestColumnCache:
    """annotate's columns are made once per Flip object and kept on it."""

    def test_second_annotate_is_a_fresh_view_over_the_kept_columns(
            self, monkeypatch):
        tree = game_tree.gen_best_of(7)
        first = game_tree.annotate(tree)
        assert first.path and first.depth and first.up  # built on the first
        calls = spy_on_recursion(monkeypatch)
        second = game_tree.annotate(tree)
        assert calls == []
        assert second is not first
        assert dataclasses.astuple(second) == dataclasses.astuple(first)
        assert second.row is first.row  # the shared lists, not copies
        for view in ("path", "depth", "up"):
            assert view not in vars(second), view
        assert second.path == first.path

    def test_equal_tree_built_separately_recurses_again(self, monkeypatch):
        game_tree.annotate(game_tree.gen_best_of(7))
        tree = game_tree.gen_best_of(7)
        calls = spy_on_recursion(monkeypatch)
        game_tree.annotate(tree)
        assert len(calls) == len(distinct_flips(tree))

    def test_too_deep_tree_raises_on_every_call(self):
        tree = deep_chain(53)
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^tree depth exceeds "
                                                 f"{game_tree.MAX_DEPTH};"):
                game_tree.annotate(tree)
        assert "_columns" not in vars(tree)

    def test_leaf_annotations_are_fresh(self, monkeypatch):
        calls = spy_on_recursion(monkeypatch)
        first, second = game_tree.annotate(Leaf(0)), game_tree.annotate(Leaf(0))
        assert first is not second and first.row is not second.row
        assert first == second
        shared = [game_tree.parse_tree(json.dumps({"leaf": label}))
                  for label in (0, 1)]
        for leaf in shared:
            game_tree.annotate(leaf).path
            game_tree.annotate(leaf)
        assert [vars(leaf) for leaf in shared] == [{"label": 0}, {"label": 1}]
        assert calls == []

    @pytest.mark.parametrize("make", [
        lambda: game_tree.gen_best_of(3), lambda: game_tree.gen_best_of(7),
        lambda: game_tree.gen_random_fair(6, 3), shuffled_full_4],
        ids=["best-of-3", "best-of-7", "random-fair", "shuffled-full(4)"])
    def test_no_pass_writes_to_the_columns(self, make):
        # every pass reads the shared columns; afterwards they equal those
        # of a fresh recursion over a tree built apart
        tree = make()
        kept = game_tree.annotate(tree)
        model = CheatModel(1.0, 2.0)
        for b in (1.5, 2.0, 3.0):
            res = composer.leading_order(tree, 1.0, b, 0.05)
            composer.a_new_of_b(tree, 1.0, b)
            composer.derivative_in_b(tree, 1.0, b)
            composer.exact_outcome(tree, CheatModel(1.0, b), res.strategy)
        res = composer.leading_order(tree, 1.0, 2.0, 0.05)
        composer.strategy_table(game_tree.annotate(tree), model, res.strategy)
        simulate.simulate_tree(tree, model, res.strategy, 200, 1)
        if len(kept.row) - kept.row.count(0) - kept.row.count(1) <= 5:
            composer.brute_force_min_pc(tree, model, 0.05, 0.05)
        else:
            with pytest.raises(ValueError, match="tree too large"):
                composer.brute_force_min_pc(tree, model, 0.05, 0.05)
        res.to_json_dict()
        ann = game_tree.annotate(tree)
        by_path = composer.strategy_to_paths(ann, res.strategy)
        assert composer.strategy_from_paths(ann, by_path) == \
            [res.strategy[k] for k in ann.row]
        game_tree.lemma_sum(tree)
        after = game_tree.annotate(tree)
        assert after.row is kept.row
        assert dataclasses.astuple(after) == dataclasses.astuple(
            game_tree.annotate(make()))


class TestSharing:
    """Hash-consed construction, and annotate's DAG columns and occurrence column."""

    @staticmethod
    def _all_built():
        return [game_tree.gen_best_of(9), game_tree.gen_full(5, [0, 1] * 16),
                game_tree.gen_random(8, 4), game_tree.gen_random_fair(9, 2),
                game_tree.mirror(game_tree.gen_best_of(7)),
                game_tree.parse_tree(CANONICAL_BEST_OF_3)]

    def test_best_of_15_holds_64_distinct_flips(self):
        tree = game_tree.gen_best_of(15)
        assert len(distinct_flips(tree)) == 64
        ann = game_tree.annotate(tree)
        assert (len(ann.dag_up), len(ann.row)) == (66, 25_739)

    def test_best_of_21_is_refused_as_before(self):
        with pytest.raises(ValueError, match=re.escape(
                "best-of-21 has 1410863 nodes, over the budget of 1048576")):
            game_tree.gen_best_of(21)

    def test_equal_subtrees_are_one_object(self):
        for tree in self._all_built():
            flips = distinct_flips(tree)
            assert len({game_tree.serialize_tree(f) for f in flips}) == len(flips)
            leaves = {id(n) for f in flips for n in (f.up, f.down)
                      if isinstance(n, Leaf)}
            assert len(leaves) <= 2

    @settings(max_examples=60, deadline=None)
    @given(tree_documents(max_depth=6))
    def test_parsed_subtrees_are_shared(self, doc):
        tree = game_tree.parse_tree(json.dumps(doc))
        flips = distinct_flips(tree)
        assert len({game_tree.serialize_tree(f) for f in flips}) == len(flips)

    def test_no_table_outlives_its_call(self):
        # each call builds its own Flips; only the two leaves are shared
        for make in (lambda: game_tree.gen_best_of(5),
                     lambda: game_tree.gen_full(2, [0, 1, 1, 0]),
                     lambda: game_tree.gen_random_fair(6, 3),
                     lambda: game_tree.parse_tree(CANONICAL_BEST_OF_3)):
            first, second = make(), make()
            assert first == second and first is not second

    def test_mirror_shares_and_round_trips(self):
        tree = game_tree.gen_best_of(9)
        flipped = game_tree.mirror(tree)
        assert len(distinct_flips(flipped)) == len(distinct_flips(tree))
        assert game_tree.mirror(flipped) == tree == unshared(tree)
        assert game_tree.mirror(unshared(tree)) == flipped

    @settings(max_examples=80, deadline=None)
    @given(generated_trees())
    def test_views_equal_those_of_an_unshared_copy(self, tree):
        # a tree that shares nothing has one DAG row per Flip, and every
        # per-node view is the same as the shared tree's
        ann, plain = game_tree.annotate(tree), game_tree.annotate(unshared(tree))
        flips = (len(plain.row) - 1) // 2
        assert len(plain.dag_up) == (1 if isinstance(tree, Leaf) else flips + 2)
        for view in ("depth", "p_w", "delta", "up", "down", "path"):
            assert getattr(ann, view) == getattr(plain, view), view
        assert ann.nodes == plain.nodes
        assert ann.internal() == plain.internal()
        assert repr(ann.lemma_sum()) == repr(plain.lemma_sum())
        assert [ann.row[i] for i in ann.dag_at if i >= 0] == [
            k for k, u in enumerate(ann.dag_up) if u >= 0]

    @staticmethod
    def _two_copies(extra, deeper_first=False):
        # one 40-deep subtree, at depth 1 and at depth 1 + extra
        sub = deep_chain(40)
        node = sub
        for _ in range(extra):
            node = Flip(Leaf(0), node)
        return Flip(node, sub) if deeper_first else Flip(sub, node)

    @pytest.mark.parametrize("deeper_first", [False, True])
    def test_subtree_shared_at_two_depths(self, deeper_first):
        # the deeper copy reaches depth 52 and annotates; one level more
        # refuses the tree, whichever copy the pass meets first
        ann = game_tree.annotate(self._two_copies(11, deeper_first))
        assert max(ann.depth) == 52
        assert ann.depth == game_tree.annotate(
            unshared(self._two_copies(11, deeper_first))).depth
        tree = self._two_copies(12, deeper_first)
        for walk in (game_tree.annotate, game_tree.mirror, game_tree.leaf_win_mass):
            with pytest.raises(ValueError, match=f"^tree depth exceeds "
                                                 f"{game_tree.MAX_DEPTH};"):
                walk(tree)


class TestNodeBudget:
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
    def test_best_of_size_formula_counts_nodes(self, n):
        size = 2 * math.comb(n + 1, (n + 1) // 2) - 1
        assert len(game_tree.annotate(game_tree.gen_best_of(n)).path) == size

    def test_best_of_19_fits(self):
        assert isinstance(game_tree.gen_best_of(19), Flip)

    @pytest.mark.parametrize("n", [21, 23, 51])
    def test_best_of_over_budget_rejected(self, n):
        with pytest.raises(ValueError, match="budget"):
            game_tree.gen_best_of(n)

    @pytest.mark.parametrize("seed", range(5))
    def test_budget_is_exact_and_keeps_trees(self, monkeypatch, seed):
        tree = game_tree.gen_random_fair(8, seed)
        size = len(game_tree.annotate(tree).path)
        monkeypatch.setattr(game_tree, "MAX_NODES", size)
        assert game_tree.gen_random_fair(8, seed) == tree
        # Flip(T, mirror(T)) has an odd size, so size - 2 is one node short
        monkeypatch.setattr(game_tree, "MAX_NODES", size - 2)
        with pytest.raises(ValueError, match="budget"):
            game_tree.gen_random_fair(8, seed)

    def test_random_counts_every_node(self, monkeypatch):
        tree = game_tree.gen_random(8, 4)
        size = len(game_tree.annotate(tree).path)
        monkeypatch.setattr(game_tree, "MAX_NODES", size)
        assert game_tree.gen_random(8, 4) == tree
        monkeypatch.setattr(game_tree, "MAX_NODES", size - 1)
        with pytest.raises(ValueError, match="budget"):
            game_tree.gen_random(8, 4)


class TestLemmaSum:
    def test_best_of_3_terms(self):
        # 1*(1/4) + 2*(1/2)(1/4) + 2*(1/4)*1 = 1
        assert game_tree.lemma_sum(game_tree.gen_best_of(3)) == 1.0

    def test_fair_trees_sum_to_one(self, fair_tree):
        assert abs(game_tree.lemma_sum(fair_tree) - 1.0) <= 1e-12

    @given(tree_documents())
    def test_general_identity(self, doc):
        # sum over internal nodes of 2^-D Delta^2 = 4 p (1-p)
        tree = game_tree.parse_tree(json.dumps(doc))
        p = game_tree.annotate(tree).p_w_root
        assert abs(game_tree.lemma_sum(tree) - 4.0 * p * (1.0 - p)) <= 1e-12

    def test_single_leaf_sum_is_zero(self):
        assert game_tree.lemma_sum(Leaf(0)) == 0.0
        assert game_tree.lemma_sum(Leaf(1)) == 0.0

    def test_annotation_method_is_the_sum(self, fair_tree):
        ann = game_tree.annotate(fair_tree)
        assert ann.lemma_sum() == game_tree.lemma_sum(fair_tree)
