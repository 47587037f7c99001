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

annotate writes one column per quantity (depth, P_W, Delta and the child
positions), appending to each in postorder; it keeps no container per
node and builds no path string.  Its recursion enters Flips only: each
Flip appends its leaf children's rows itself, so a pass makes one call
per internal node, and the depth cap is checked on Flips, since a node
lies deeper than MAX_DEPTH exactly when a Flip sits at MAX_DEPTH.  The
path column, the node names of the JSON documents, is built on first
use, once per annotation, from the child positions: only the JSON edge
(tree analyze, composer's strategy converters, `nodes` and `internal()`)
reads it, and the analyses never do.  Every recursion over a tree is a
module-level function that takes its state as arguments.  A nested
function that calls itself holds itself through its closure cell, a
reference cycle that keeps it and all it refers to (such as a result
list) alive until the cyclic garbage collector runs; with no cycles, a
pass's garbage is freed by reference counting as soon as the pass ends.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from . import splitmix

MAX_DEPTH = 52
MAX_NODES = 1 << 20  # node budget for generated and parsed trees
HALF_POWERS = [2.0 ** (-d) for d in range(MAX_DEPTH + 1)]  # 2**-D for every depth
_TOO_DEEP = f"tree depth exceeds {MAX_DEPTH}; dyadic exactness would be lost"


class TreeParseError(ValueError):
    """Malformed tree document; message names the offending node path."""


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Flip:
    up: "Node"
    down: "Node"


Node = Leaf | Flip
GameTree = Node


@dataclass(frozen=True)
class NodeInfo:
    depth: int
    p_w: float
    delta: float | None  # None on leaves


@dataclass(frozen=True)
class TreeAnnotation:
    """Per-node columns in postorder (children before parents, root last).

    Leaves have delta None and child positions up/down of -1.  `path`,
    `nodes` and `internal` are built on request, for the JSON edge.
    """

    depth: list[int]
    p_w: list[float]
    delta: list[float | None]
    up: list[int]
    down: list[int]

    @cached_property
    def path(self) -> list[str]:
        """Each node's path from the root ('' = root, then U/D), in postorder."""
        path = [""] * len(self.up)
        # reversed postorder visits every parent before its children
        for i in range(len(path) - 1, -1, -1):
            u = self.up[i]
            if u >= 0:
                at = path[i]
                path[u], path[self.down[i]] = at + "U", at + "D"
        return path

    @cached_property
    def nodes(self) -> dict[str, NodeInfo]:
        """Path -> NodeInfo, in postorder."""
        return {p: NodeInfo(d, w, x)
                for p, d, w, x in zip(self.path, self.depth, self.p_w, self.delta)}

    @property
    def p_w_root(self) -> float:
        return self.p_w[-1]

    def internal(self) -> list[tuple[str, NodeInfo]]:
        """(path, NodeInfo) of every internal node, in postorder."""
        return [(p, NodeInfo(d, w, x))
                for p, d, w, x in zip(self.path, self.depth, self.p_w, self.delta)
                if x is not None]

    def lemma_sum(self) -> float:
        """Sum over internal nodes of 2**-D(x) * Delta(x)**2 (see lemma_sum)."""
        total = 0.0
        for d, gap in zip(self.depth, self.delta):
            if gap is not None:
                total += HALF_POWERS[d] * gap * gap
        return total


def parse_tree(text: str) -> GameTree:
    """Parse the JSON tree document.

    Schema: a node is {"leaf": 0|1} or {"flip": {"up": node, "down": node}}.
    Trees deeper than MAX_DEPTH or larger than MAX_NODES are rejected.  A
    document in the schema spells one "leaf" or "flip" key per node, so one
    with more of them than MAX_NODES is rejected before it is decoded;
    escaped spellings only lower the count, and the node counter of the
    parse itself catches those.
    """
    keys = text.count('"leaf"') + text.count('"flip"')
    if keys > MAX_NODES:
        raise TreeParseError(f"the document spells {keys} 'leaf' and 'flip' "
                             f"keys and passes the budget of {MAX_NODES} nodes")
    try:
        doc = json.loads(text, parse_int=_label_int)
    except json.JSONDecodeError as exc:
        raise TreeParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise TreeParseError(f"invalid JSON: nested too deeply for a tree of "
                             f"depth <= {MAX_DEPTH}") from None
    return _parse_node(doc, "", [MAX_NODES])


def _label_int(literal: str) -> int:
    # a leaf label, 0 or 1, is the only number in a tree document; a longer
    # literal is refused before int() reaches Python's limit on digits
    if len(literal) > 2:
        raise TreeParseError(f"a {len(literal)}-character number cannot be "
                             "a leaf label, which is 0 or 1")
    return int(literal)


def _parse_node(obj, path: str, room: list[int]) -> Node:
    # room[0] counts down the nodes still allowed.  A valid node is tested
    # with len and in alone; a message is formatted only when a check fails.
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
            return Leaf(label)
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
            return Flip(_parse_node(inner["up"], path + "U", room),
                        _parse_node(inner["down"], path + "D", room))
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

    return _best_of(0, 0, need)


def _best_of(up_wins: int, down_wins: int, need: int) -> Node:
    if up_wins == need:
        return Leaf(0)
    if down_wins == need:
        return Leaf(1)
    return Flip(_best_of(up_wins + 1, down_wins, need),
                _best_of(up_wins, down_wins + 1, need))


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

    return _full(labels, 0, 2 ** tree_depth)


def _full(labels: list, lo: int, hi: int) -> Node:
    # the complete subtree over leaf labels lo..hi-1
    if hi - lo == 1:
        return Leaf(labels[lo])
    mid = (lo + hi) // 2
    return Flip(_full(labels, lo, mid), _full(labels, mid, hi))


def mirror(tree: GameTree) -> GameTree:
    """Same shape with every leaf label complemented."""
    return _mirror(tree, 0)


def _mirror(node: Node, d: int) -> Node:
    if d > MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    if isinstance(node, Leaf):
        return Leaf(1 - node.label)
    return Flip(_mirror(node.up, d + 1), _mirror(node.down, d + 1))


def _random_node(budget: int, stream: splitmix.Stream, room: list[int]) -> Node:
    # room[0] counts down the nodes still allowed
    room[0] -= 1
    if room[0] < 0:
        raise ValueError(f"random tree passes the budget of {MAX_NODES} nodes")
    if budget > 0 and stream.next_double() >= 1.0 / 3.0:
        up = _random_node(budget - 1, stream, room)
        down = _random_node(budget - 1, stream, room)
        return Flip(up, down)
    return Leaf(stream.next_u64() & 1)


def gen_random(max_depth: int, seed: int) -> GameTree:
    """Random tree of depth <= max_depth, deterministic in seed.

    Labels and shape are unconstrained; use gen_random_fair when the root
    must be a fair coin.
    """
    _check_depth("max_depth", max_depth, 0)
    splitmix.check_seed(seed)
    return _random_node(max_depth, splitmix.Stream(seed), [MAX_NODES])


def gen_random_fair(max_depth: int, seed: int) -> GameTree:
    """Random tree with P_W(root) exactly 1/2.

    Built as Flip(T, mirror(T)) for a random T of depth <= max_depth - 1;
    mirroring complements every leaf, so P_W(mirror(T)) = 1 - P_W(T) and the
    root averages to 1/2 with no rounding at all.
    """
    _check_depth("max_depth", max_depth, 1)
    splitmix.check_seed(seed)
    sub = _random_node(max_depth - 1, splitmix.Stream(seed), [(MAX_NODES - 1) // 2])
    return Flip(sub, mirror(sub))


def annotate(tree: GameTree) -> TreeAnnotation:
    """Compute depth, P_W and Delta for every node in one bottom-up pass.

    The one traversal of a Flip/Leaf tree; every analysis reads its columns.
    The pass recurses into Flips only: each Flip writes its leaf children's
    rows itself, and a tree that is one leaf gets its one row here.  A Flip
    at depth MAX_DEPTH, whose children would lie deeper than the cap, stops
    the pass as soon as it is reached.
    """
    if isinstance(tree, Leaf):
        return TreeAnnotation([0], [1.0 if tree.label == 0 else 0.0], [None],
                              [-1], [-1])
    ann = TreeAnnotation([], [], [], [], [])
    _annotate(tree, 0, ann.depth, ann.p_w, ann.delta, ann.up, ann.down)
    return ann


def _annotate(node: Flip, d: int, depth: list, p_w: list, delta: list,
              up: list, down: list) -> float:
    # appends the Flip's subtree to the columns in postorder; returns its P_W.
    # The columns come as arguments: a local is read faster than ann.<column>.
    if d >= MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    c = d + 1
    child = node.up
    if isinstance(child, Leaf):
        pu = 1.0 if child.label == 0 else 0.0
        depth.append(c)
        p_w.append(pu)
        delta.append(None)
        up.append(-1)
        down.append(-1)
    else:
        pu = _annotate(child, c, depth, p_w, delta, up, down)
    u = len(depth) - 1
    child = node.down
    if isinstance(child, Leaf):
        pd = 1.0 if child.label == 0 else 0.0
        depth.append(c)
        p_w.append(pd)
        delta.append(None)
        up.append(-1)
        down.append(-1)
    else:
        pd = _annotate(child, c, depth, p_w, delta, up, down)
    dn = len(depth) - 1
    w = (pu + pd) / 2.0
    depth.append(d)
    p_w.append(w)
    delta.append(pu - pd)
    up.append(u)
    down.append(dn)
    return w


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
