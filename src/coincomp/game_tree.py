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

annotate writes one column per quantity (path, depth, P_W, Delta and the
child positions), appending to each in postorder; it keeps no container
per node.  Every recursion over a tree is a module-level function that
takes its state as arguments.  A nested function that calls itself holds
itself through its closure cell, a reference cycle that keeps it and all
it refers to (such as a result list) alive until the cyclic garbage
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

    path[i] runs from the root ('' = root, then U/D); leaves have delta None
    and child positions up/down of -1.  `nodes` and `internal` build
    NodeInfo records on request, for callers that want them by path.
    """

    path: list[str]
    depth: list[int]
    p_w: list[float]
    delta: list[float | None]
    up: list[int]
    down: list[int]

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
    # room[0] counts down the nodes still allowed
    where = f"node at path '{path}'"
    room[0] -= 1
    if room[0] < 0:
        raise TreeParseError(f"{where}: the document passes the budget of "
                             f"{MAX_NODES} nodes")
    if not isinstance(obj, dict):
        raise TreeParseError(f"{where}: expected an object, got {type(obj).__name__}")
    if set(obj) == {"leaf"}:
        label = obj["leaf"]
        # the int 0 or 1 only: not a bool (an int subclass) or a float like 1.0
        if type(label) is not int or label not in (0, 1):
            raise TreeParseError(f"{where}: leaf label must be 0 or 1, got {label!r}")
        return Leaf(label)
    if set(obj) == {"flip"}:
        inner = obj["flip"]
        if not isinstance(inner, dict):
            raise TreeParseError(f"{where}: 'flip' must hold an object")
        for child in ("up", "down"):
            if child not in inner:
                raise TreeParseError(f"{where}: missing '{child}' child")
        if set(inner) != {"up", "down"}:
            extra = sorted(set(inner) - {"up", "down"})
            raise TreeParseError(f"{where}: unexpected keys {extra}")
        if len(path) >= MAX_DEPTH:
            raise TreeParseError(f"{where}: a flip here makes the tree deeper "
                                 f"than {MAX_DEPTH}")
        return Flip(_parse_node(inner["up"], path + "U", room),
                    _parse_node(inner["down"], path + "D", room))
    raise TreeParseError(f"{where}: expected exactly one of 'leaf' or 'flip'")


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
    A node deeper than MAX_DEPTH stops the pass as soon as it is reached.
    """
    ann = TreeAnnotation([], [], [], [], [], [])
    _annotate(tree, 0, "", ann)
    return ann


def _annotate(node: Node, d: int, at: str, ann: TreeAnnotation) -> float:
    # appends node's subtree to ann's columns in postorder; returns its P_W
    if d > MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    if isinstance(node, Leaf):
        w = 1.0 if node.label == 0 else 0.0
        gap, u, dn = None, -1, -1
    else:
        pu = _annotate(node.up, d + 1, at + "U", ann)
        u = len(ann.path) - 1
        pd = _annotate(node.down, d + 1, at + "D", ann)
        dn = len(ann.path) - 1
        w = (pu + pd) / 2.0
        gap = pu - pd
    ann.path.append(at)
    ann.depth.append(d)
    ann.p_w.append(w)
    ann.delta.append(gap)
    ann.up.append(u)
    ann.down.append(dn)
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
