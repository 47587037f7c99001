"""Finite binary game trees for composed coin-flipping games.

A game is a binary tree: each internal node is one coin flip ("up" means
outcome 0, which is the side the analyzed player wants), each leaf ends the
game with label 0 (up side wins) or 1 (down side wins).  The honest game
reaches a node x of depth D(x) with probability 2**-D(x).

Per node we track the honest win probability P_W(x) (probability that
outcome 0 wins the game, given play has reached x) and, for internal nodes,
the advantage Delta(x) = P_W(up child) - P_W(down child), the amount a
cheater gains by winning the flip at x.

Depths are capped at 52 so every 2**-D and every P_W is an exact dyadic
rational in 64-bit floats; the identities tested elsewhere then hold to
machine precision instead of approximately.  Generators and the parser
also refuse trees of more than MAX_NODES nodes, so that a call ends in
seconds instead of running for minutes or exhausting memory.

Trees are built hash-consed.  The generators, mirror and parse_tree
hand out the two shared leaves, and inside one call one Flip object per
distinct subtree: a table kept for the call, keyed by the identities of
a Flip's two children, returns the Flip already made over them
(gen_best_of keys its table by the game's state, which names the
subtree).  No table outlives its call.  The paper's protocols compose
the same box again and again, so their trees repeat themselves:
best-of-15 has 25,739 nodes but 64 distinct Flips.  Trees still compare
by value, and a hand-built tree that shares nothing is a tree like any
other.

annotate recurses once per distinct Flip object and writes two kinds of
column.  The DAG columns hold one row per distinct subtree, children
before parents and the root last: P_W, Delta and the rows of the two
children, with rows 0 and 1 the leaves when the root is a Flip.  The
occurrence column holds one entry per node of the tree, in postorder:
the node's DAG row.  A subtree met again copies its first block of the
occurrence column by slice, and a copy that lies deeper than the first
is checked against the depth cap by the height of its row.  The per-node
columns of the tree (depth, P_W, Delta and the positions of each node's
children in postorder), the path column (the node names of the JSON
documents), `nodes` and `internal()` are views built on first use, for
the JSON edge, the grid oracle and the tests; the analyses read the DAG
columns and the occurrence column.  The sums over the nodes of 2**-D
times a value of the node's row (the closed form's S and L, and
lemma_sum) are one method, node_sum: one pass over the DAG rows,
children before parents, in which a row's total is its value plus half
the totals of its two children.

The columns are made once per tree object.  The first annotate of a
Flip keeps them on that object (Flip._columns, a cached property), and
every call, the first included, returns a new TreeAnnotation over those
lists, so the views one call builds die with its annotation.  The
columns are read-only: no pass writes to them.  The cache is per object,
not per value: an equal tree built apart recurses once for itself, and a
tree deeper than the cap raises on every call and keeps nothing.  The
columns live as long as the tree: O(rows) of DAG columns and 8 bytes
per node of occurrence column, about 0.2 MiB on best-of-15 and 3.0 MiB
on best-of-19.  A tree that is one leaf keeps nothing, since the two
shared leaves carry no state.

Every recursion over a tree is a module-level function that takes its
state as arguments.  A nested function that calls itself holds itself
through its closure cell, a reference cycle that keeps it and all it
refers to (such as a result list) alive until the cyclic garbage
collector runs; with no cycles, a pass's garbage is freed by reference
counting as soon as the pass ends.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from . import splitmix

MAX_DEPTH = 52
MAX_NODES = 1 << 20  # node budget for generated and parsed trees
_TOO_DEEP = f"tree depth exceeds {MAX_DEPTH}; dyadic exactness would be lost"


class TreeParseError(ValueError):
    """Malformed tree document; message names the node path or repeated key."""


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Flip:
    up: "Node"
    down: "Node"

    @cached_property
    def _columns(self) -> tuple[list, ...]:
        # annotate's six columns, made on the first annotate of this object
        # (a pass that raises caches nothing); rows 0 and 1 are the leaves,
        # labels 0 and 1
        columns = [1.0, 0.0], [None, None], [-1, -1], [-1, -1], [-1, -1], []
        _annotate(self, 0, {}, [-1, -1], [0, 0], *columns)
        return columns


Node = Leaf | Flip
GameTree = Node
_LEAVES = (Leaf(0), Leaf(1))  # the leaves the generators and parse_tree hand out


def _flip(made: dict, up: Node, down: Node) -> Flip:
    # the call's one Flip over these two child objects.  Every child comes
    # from `made` or _LEAVES, so it lives as long as the table and its id
    # is not reused within the call.
    key = id(up), id(down)
    node = made.get(key)
    if node is None:
        node = made[key] = Flip(up, down)
    return node


@dataclass(frozen=True)
class NodeInfo:
    depth: int
    p_w: float
    delta: float | None  # None on leaves


@dataclass(frozen=True)
class TreeAnnotation:
    """A tree's DAG columns and its occurrence column.

    DAG columns, one row per distinct subtree, children before parents and
    the root last: dag_p_w, dag_delta (None on leaves), the child rows
    dag_up and dag_down (-1 on leaves), and dag_at, the position in
    postorder of the row's first node (-1 on leaves).  Occurrence column,
    one entry per node of the tree in postorder (up subtree, down subtree,
    node): `row`, the node's DAG row.  The per-node columns depth, p_w,
    delta, up and down (child positions in postorder, -1 on leaves), and
    `path`, `nodes` and `internal`, are views built on request.  Every
    annotation of one tree object shares its six columns, which no one
    writes to; the views are the annotation's own.
    """

    dag_p_w: list[float]
    dag_delta: list[float | None]
    dag_up: list[int]
    dag_down: list[int]
    dag_at: list[int]
    row: list[int]

    @cached_property
    def p_w(self) -> list[float]:
        """Each node's P_W, in postorder."""
        return list(map(self.dag_p_w.__getitem__, self.row))

    @cached_property
    def delta(self) -> list[float | None]:
        """Each node's Delta (None on leaves), in postorder."""
        return list(map(self.dag_delta.__getitem__, self.row))

    @cached_property
    def up(self) -> list[int]:
        """Each node's up child's position: just before its down subtree."""
        size: list[int] = []  # each row's subtree, in nodes
        for u, dn in zip(self.dag_up, self.dag_down):
            size.append(1 + size[u] + size[dn] if u >= 0 else 1)
        return [i - 1 - size[dn] if dn >= 0 else -1
                for i, dn in enumerate(map(self.dag_down.__getitem__, self.row))]

    @cached_property
    def down(self) -> list[int]:
        """Each node's down child's position: just before the node."""
        dag_up = self.dag_up
        return [i - 1 if dag_up[k] >= 0 else -1 for i, k in enumerate(self.row)]

    @cached_property
    def path(self) -> list[str]:
        """Each node's path from the root ('' = root, then U/D), in postorder."""
        path = [""] * len(self.row)
        up, down = self.up, self.down
        # reversed postorder visits every parent before its children
        for i in range(len(path) - 1, -1, -1):
            u = up[i]
            if u >= 0:
                at = path[i]
                path[u], path[down[i]] = at + "U", at + "D"
        return path

    @cached_property
    def depth(self) -> list[int]:
        """Each node's depth, the length of its path, in postorder."""
        return list(map(len, self.path))

    @cached_property
    def nodes(self) -> dict[str, NodeInfo]:
        """Path -> NodeInfo, in postorder."""
        return {p: NodeInfo(d, w, x)
                for p, d, w, x in zip(self.path, self.depth, self.p_w, self.delta)}

    @property
    def p_w_root(self) -> float:
        return self.dag_p_w[-1]

    def internal(self) -> list[tuple[str, NodeInfo]]:
        """(path, NodeInfo) of every internal node, in postorder."""
        return [(p, NodeInfo(d, w, x))
                for p, d, w, x in zip(self.path, self.depth, self.p_w, self.delta)
                if x is not None]

    def node_sum(self, by_row: list[float]) -> float:
        """Sum over the tree's nodes of 2**-D(x) * by_row[row(x)].

        One pass over the DAG rows, children before parents: a leaf row's
        total is its value, an internal row's is its value plus half the
        sum of its children's totals, and the root's total is returned.
        Halving is exact, and a row's total depends on its subtree alone,
        so an unshared copy of a tree gives the same float.  It is a plain
        loop, never sum() (which compensates its rounding from Python 3.12
        on) or math.fsum, so S, derivative_in_b's L and lemma_sum are the
        same floats on every Python.
        """
        total = [0.0] * len(by_row)
        for k, (value, u, dn) in enumerate(zip(by_row, self.dag_up, self.dag_down)):
            total[k] = value + 0.5 * (total[u] + total[dn]) if u >= 0 else value
        return total[-1]

    def lemma_sum(self) -> float:
        """Sum over internal nodes of 2**-D(x) * Delta(x)**2 (see lemma_sum)."""
        return self.node_sum([gap * gap if gap else 0.0 for gap in self.dag_delta])


def parse_tree(text: str) -> GameTree:
    """Parse the JSON tree document.

    Schema: a node is {"leaf": 0|1} or {"flip": {"up": node, "down": node}}.
    Trees deeper than MAX_DEPTH or larger than MAX_NODES are rejected.  A
    document in the schema spells one "leaf" or "flip" key per node, so one
    with more of them than MAX_NODES is rejected before it is decoded;
    escaped spellings only lower the count, and the node counter of the
    parse itself catches those.  An object may not repeat a key.
    """
    keys = text.count('"leaf"') + text.count('"flip"')
    if keys > MAX_NODES:
        raise TreeParseError(f"the document spells {keys} 'leaf' and 'flip' "
                             f"keys and passes the budget of {MAX_NODES} nodes")
    try:
        doc = json.loads(text, parse_int=_label_int, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise TreeParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise TreeParseError(f"invalid JSON: nested too deeply for a tree of "
                             f"depth <= {MAX_DEPTH}") from None
    return _parse_node(doc, "", [MAX_NODES], {})


def unique_keys(pairs: list) -> dict:
    """json.loads's object_pairs_hook: a dict, refusing a repeated key,
    whose earlier values a dict would drop."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise TreeParseError(f"repeated key {key!r} in one object")
    return obj


def _label_int(literal: str) -> int:
    # a leaf label, 0 or 1, is the only number in a tree document; a longer
    # literal is refused before int() reaches Python's limit on digits
    if len(literal) > 2:
        raise TreeParseError(f"a {len(literal)}-character number cannot be "
                             "a leaf label, which is 0 or 1")
    return int(literal)


def _parse_node(obj, path: str, room: list[int], made: dict) -> Node:
    # room[0] counts down the nodes still allowed, one per node of the
    # document; `made` is the call's table of Flips (see _flip).  A valid
    # node is tested with len and in alone; a message is formatted only when
    # a check fails.
    room[0] -= 1
    if room[0] < 0:
        raise _parse_error(path, f"the document passes the budget of "
                                 f"{MAX_NODES} nodes")
    if not isinstance(obj, dict):
        raise _parse_error(path, f"expected an object, got {type(obj).__name__}")
    if len(obj) == 1:
        if "leaf" in obj:
            label = obj["leaf"]
            # the int 0 or 1 only: not a bool (an int subclass) or a float like 1.0
            if type(label) is not int or label not in (0, 1):
                raise _parse_error(path, f"leaf label must be 0 or 1, got {label!r}")
            return _LEAVES[label]
        if "flip" in obj:
            inner = obj["flip"]
            if not isinstance(inner, dict):
                raise _parse_error(path, "'flip' must hold an object")
            if "up" not in inner:
                raise _parse_error(path, "missing 'up' child")
            if "down" not in inner:
                raise _parse_error(path, "missing 'down' child")
            if len(inner) != 2:
                extra = sorted(set(inner) - {"up", "down"})
                raise _parse_error(path, f"unexpected keys {extra}")
            if len(path) >= MAX_DEPTH:
                raise _parse_error(path, f"a flip here makes the tree deeper "
                                         f"than {MAX_DEPTH}")
            return _flip(made, _parse_node(inner["up"], path + "U", room, made),
                         _parse_node(inner["down"], path + "D", room, made))
    raise _parse_error(path, "expected exactly one of 'leaf' or 'flip'")


def _parse_error(path: str, what: str) -> TreeParseError:
    return TreeParseError(f"node at path '{path}': {what}")


def serialize_tree(tree: GameTree) -> str:
    """Compact JSON document; round-trips through parse_tree."""
    return json.dumps(_to_obj(tree, 0), separators=(",", ":"))


def _to_obj(node: Node, d: int):
    if d > MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    if isinstance(node, Leaf):
        return {"leaf": node.label}
    return {"flip": {"up": _to_obj(node.up, d + 1),
                     "down": _to_obj(node.down, d + 1)}}


def _check_depth(name: str, size, lo: int) -> None:
    # the generators' size rule: an int in [lo, MAX_DEPTH], not a bool or float
    if type(size) is bool or not isinstance(size, int) or not lo <= size <= MAX_DEPTH:
        raise ValueError(f"{name} must be an int in [{lo}, {MAX_DEPTH}], got {size!r}")


def gen_best_of(n: int) -> GameTree:
    """Early-terminating majority game over n flips (n odd).

    A leaf appears as soon as one side has won ceil(n/2) flips; its label is
    0 when the up side took the majority.
    """
    _check_depth("n", n, 1)
    if n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}")
    need = (n + 1) // 2
    size = 2 * math.comb(n + 1, need) - 1
    if size > MAX_NODES:
        raise ValueError(f"best-of-{n} has {size} nodes, over the budget of "
                         f"{MAX_NODES}")

    return _best_of(0, 0, need, {})


def _best_of(up_wins: int, down_wins: int, need: int, made: dict) -> Node:
    # `made` maps each state met so far to its subtree.  A state names its
    # subtree (the subtree of need - up_wins more ups against need -
    # down_wins more downs), so equal subtrees are one object, and each is
    # built once.
    if up_wins == need:
        return _LEAVES[0]
    if down_wins == need:
        return _LEAVES[1]
    node = made.get((up_wins, down_wins))
    if node is None:
        node = made[up_wins, down_wins] = Flip(
            _best_of(up_wins + 1, down_wins, need, made),
            _best_of(up_wins, down_wins + 1, need, made))
    return node


def gen_full(tree_depth: int, labels) -> GameTree:
    """Complete tree of the given depth, leaves labeled left to right (up first)."""
    _check_depth("depth", tree_depth, 1)
    if (size := 2 ** (tree_depth + 1) - 1) > MAX_NODES:
        raise ValueError(f"a full tree of depth {tree_depth} has {size} nodes, "
                         f"over the budget of {MAX_NODES}")
    labels = list(labels)
    if len(labels) != 2 ** tree_depth:
        raise ValueError(f"need {2 ** tree_depth} labels for depth {tree_depth}, "
                         f"got {len(labels)}")
    for lab in labels:
        if type(lab) is not int or lab not in (0, 1):
            raise ValueError(f"leaf label must be 0 or 1, got {lab!r}")

    # one level at a time from the leaves up, each node over two neighbours
    made: dict = {}
    level = [_LEAVES[lab] for lab in labels]
    while len(level) > 1:
        level = [_flip(made, level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def mirror(tree: GameTree) -> GameTree:
    """Same shape with every leaf label complemented."""
    return _mirror(tree, 0, {}, {})


def _mirror(node: Node, d: int, made: dict, done: dict) -> Node:
    # `done` maps (id(node), d) to the mirror already made of that subtree
    # at that depth: a subtree met again at the same depth is mirrored once,
    # and one met at another depth is walked again under the depth check
    if d > MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    if isinstance(node, Leaf):
        return _LEAVES[1] if node.label == 0 else _LEAVES[0]
    key = id(node), d
    got = done.get(key)
    if got is None:
        got = done[key] = _flip(made, _mirror(node.up, d + 1, made, done),
                                _mirror(node.down, d + 1, made, done))
    return got


def _random_node(budget: int, stream: splitmix.Stream, room: list[int],
                 made: dict) -> Node:
    # room[0] counts down the nodes still allowed, one per node drawn
    room[0] -= 1
    if room[0] < 0:
        raise ValueError(f"random tree passes the budget of {MAX_NODES} nodes")
    if budget > 0 and stream.next_double() >= 1.0 / 3.0:
        up = _random_node(budget - 1, stream, room, made)
        down = _random_node(budget - 1, stream, room, made)
        return _flip(made, up, down)
    return _LEAVES[stream.next_u64() & 1]


def gen_random(max_depth: int, seed: int) -> GameTree:
    """Random tree of depth <= max_depth, deterministic in seed.

    Labels and shape are unconstrained; use gen_random_fair when the root
    must be a fair coin.
    """
    _check_depth("max_depth", max_depth, 0)
    splitmix.check_seed(seed)
    return _random_node(max_depth, splitmix.Stream(seed), [MAX_NODES], {})


def gen_random_fair(max_depth: int, seed: int) -> GameTree:
    """Random tree with P_W(root) exactly 1/2.

    Built as Flip(T, mirror(T)) for a random T of depth <= max_depth - 1;
    mirroring complements every leaf, so P_W(mirror(T)) = 1 - P_W(T) and the
    root averages to 1/2 with no rounding at all.
    """
    _check_depth("max_depth", max_depth, 1)
    splitmix.check_seed(seed)
    made: dict = {}
    sub = _random_node(max_depth - 1, splitmix.Stream(seed),
                       [(MAX_NODES - 1) // 2], made)
    return _flip(made, sub, _mirror(sub, 0, made, {}))


def annotate(tree: GameTree) -> TreeAnnotation:
    """Compute P_W and Delta for every distinct subtree, and every node's
    row, in one bottom-up pass.

    The one traversal of a Flip/Leaf tree; every analysis reads its columns.
    It runs on the first annotate of a Flip object, which keeps the
    columns: every call returns a new TreeAnnotation over the same
    read-only lists (see the module docstring).  The pass recurses once
    per distinct Flip object: each Flip writes its leaf children's entries
    itself, and a Flip met again copies its first block of occurrence
    entries.  A tree that is one leaf gets a new one-row annotation on
    every call.  A Flip at depth MAX_DEPTH, whose children would lie
    deeper than the cap, stops the pass as soon as it is reached, on
    every call.
    """
    if isinstance(tree, Leaf):
        return TreeAnnotation([1.0 if tree.label == 0 else 0.0], [None], [-1], [-1],
                              [-1], [0])
    return TreeAnnotation(*tree._columns)


def _annotate(node: Flip, d: int, seen: dict, starts: list, height: list,
              p_w: list, delta: list, up: list, down: list, at: list,
              row: list) -> int:
    # The first visit of a distinct Flip, at depth d: appends its DAG row
    # and its block of occurrence entries, and returns the row.  `seen` maps
    # each Flip visited so far, by identity, to its row k; row k's first
    # block runs from starts[k] to its own entry, at[k], and its subtree
    # is height[k] levels deep.  Each holds ints, which cost less to make
    # than a slice or a tuple per Flip.  The columns come as arguments: a
    # local is read faster than ann.<column>.
    if d >= MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    start = len(row)
    c = d + 1
    child = node.up
    if isinstance(child, Leaf):
        u = 0 if child.label == 0 else 1
        row.append(u)
    else:
        u = seen.get(id(child))
        if u is None:
            u = _annotate(child, c, seen, starts, height, p_w, delta, up, down,
                          at, row)
        else:
            _repeat(u, c, starts, height, at, row)
    child = node.down
    if isinstance(child, Leaf):
        dn = 0 if child.label == 0 else 1
        row.append(dn)
    else:
        dn = seen.get(id(child))
        if dn is None:
            dn = _annotate(child, c, seen, starts, height, p_w, delta, up, down,
                           at, row)
        else:
            _repeat(dn, c, starts, height, at, row)
    k = len(p_w)
    pu, pd = p_w[u], p_w[dn]
    p_w.append((pu + pd) / 2.0)
    delta.append(pu - pd)
    up.append(u)
    down.append(dn)
    starts.append(start)
    hu, hd = height[u], height[dn]
    height.append(1 + (hu if hu > hd else hd))  # no max(): a call per row
    at.append(len(row))
    row.append(k)
    seen[id(node)] = k
    return k


def _repeat(k: int, d: int, starts: list, height: list, at: list,
            row: list) -> None:
    # Row k's Flip met again, at depth d: appends a copy of its first
    # block.  The copy is refused when its deepest node, height[k] levels
    # below d, passes the cap, exactly when a Flip of the copy sits at
    # MAX_DEPTH or deeper; a copy no deeper than the first never is.
    if d + height[k] > MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    row.extend(row[starts[k]:at[k] + 1])


def lemma_sum(tree: GameTree) -> float:
    """Sum over internal nodes of 2**-D(x) * Delta(x)**2.

    Equals 4*p*(1-p) with p = P_W(root); in particular 1 for fair trees.
    """
    return annotate(tree).lemma_sum()


def leaf_win_mass(tree: GameTree) -> float:
    """P_W(root) recomputed as the direct leaf sum of 2**-D(y) * P_W(y).

    Walks the tree itself, not annotate's columns: it is the independent
    check on annotate's P_W.
    """
    return _leaf_win_mass(tree, 0)


def _leaf_win_mass(node: Node, d: int) -> float:
    if d > MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    if isinstance(node, Leaf):
        return 2.0 ** (-d) if node.label == 0 else 0.0
    return _leaf_win_mass(node.up, d + 1) + _leaf_win_mass(node.down, d + 1)
