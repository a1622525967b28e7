"""Shared test-side oracles, which must stay independent of the package
logic, the order-insensitive tree keys the tests compare by and the
child-reordered copies they are tested on, the outcome of a call that may
refuse, and the child-process environment for the CLI tests."""

import os
from itertools import combinations, groupby
from pathlib import Path

import cosec
from cosec.cotree import (
    JOIN, LEAF, UNION, Cotree, Graph, _subtree_end, from_nested, iter_set_bits,
)
from cosec.errors import BudgetExceededError, NotAJoinError


def outcome(fn, *args):
    """A call's value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (AssertionError, BudgetExceededError, NotAJoinError) as exc:
        return type(exc), str(exc)


def cosec_subprocess_env() -> dict[str, str]:
    """Environment for a child interpreter that must run the same ``cosec``
    package this test process imported, checkout or installed: the directory
    holding that package goes first on ``PYTHONPATH``."""
    env = dict(os.environ)
    package_root = str(Path(cosec.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + rest if rest else "")
    return env


def canonical_key(t: Cotree, root: int | None = None):
    """Order-insensitive structural key including leaf labels.

    Equal keys mean equal trees up to reordering children (the equality used
    throughout the tests).
    """
    return _key(t, t.root if root is None else root, with_labels=True)


def shape_key(t: Cotree, root: int | None = None):
    """Order-insensitive structural key ignoring leaf labels."""
    return _key(t, t.root if root is None else root, with_labels=False)


def _key(t: Cotree, root: int, with_labels: bool) -> tuple:
    """Per height in root's subtree, the sorted distinct node signatures
    ``(kind, label or None, sorted child codes)``, a node's code being
    ``(height, rank of its signature)``.  Equal keys mean isomorphic
    subtrees: the root is the one node of the top height, and each code
    names a signature in the key.  This is Aho, Hopcroft and Ullman's tree
    isomorphism test; keys nest to a fixed depth, so comparing two never
    recurses along the tree."""
    height: dict[int, int] = {}
    for v in reversed(range(root, _subtree_end(t, root))):
        height[v] = max(map(height.__getitem__, t.children[v]), default=-1) + 1
    code: dict[int, tuple[int, int]] = {}
    key = []
    for h, nodes in groupby(sorted(height, key=height.get), key=height.get):
        sigs = {
            v: (
                t.kinds[v],
                t.labels[v] if with_labels else None,
                tuple(sorted(map(code.__getitem__, t.children[v]))),
            )
            for v in nodes
        }
        level = sorted(set(sigs.values()))
        rank = {sig: (h, i) for i, sig in enumerate(level)}
        code.update((v, rank[sig]) for v, sig in sigs.items())
        key.append(tuple(level))
    return tuple(key)


def reordered_children(t: Cotree, reorder) -> Cotree:
    """t with each inner node's child list permuted in place by ``reorder``
    (``random.Random(seed).shuffle``, ``list.reverse``): the same tree up to
    child order, so the same cograph."""
    order = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(t.children[v])
    nested = {}
    for v in reversed(order):
        if t.kinds[v] == LEAF:
            nested[v] = t.labels[v]
        else:
            kids = [nested[c] for c in t.children[v]]
            reorder(kids)
            nested[v] = (t.kinds[v], kids)
    return from_nested(nested[t.root])


def reference_paths(t: Cotree):
    """Each node's path by definition, in id order: "root" for the root, else
    its parent's path, ".", and its index among the parent's children.

    Only the paths of parents with a child still to come are kept, so a
    caterpillar holds O(1) of them at a time.
    """
    parent = t.parents()
    index = {c: i for ch in t.children for i, c in enumerate(ch)}
    open_paths = {}
    for v in range(len(t)):
        p = parent[v]
        if p < 0:
            path = "root"
        else:
            path = open_paths[p] + "." + str(index[v])
            if t.children[p][-1] == v:
                del open_paths[p]
        if t.children[v]:
            open_paths[v] = path
        yield path


def deep_unnormalized_caterpillar(levels: int) -> tuple[str, list[str]]:
    """Cotree text ``levels`` nested levels deep, and the kinds of its
    branching spine levels in order.  The kind flips at two steps in three
    (the third repeats its parent's kind) and every other level is a unary
    wrapper."""
    parts, spine, kind = [], [], UNION
    for i in range(levels):
        if i % 3 != 2:
            kind = JOIN if kind == UNION else UNION
        op = "J" if kind == JOIN else "U"
        if i % 2:
            parts.append(f"({op} ")
        else:
            parts.append(f"({op} x{i} ")
            spine.append(kind)
    return "".join(parts) + "end" + ")" * levels, spine


def has_induced_p4(g: Graph) -> bool:
    """Brute-force induced-P4 search, organized by the path's middle edge.

    a-b-c-d is an induced P4 iff (b,c) is an edge, a is adjacent to b but
    not c, d is adjacent to c but not b, and a,d are non-adjacent.  Every
    induced P4 is found through its middle edge, so scanning all edges is
    exhaustive.
    """
    adj = g.adj
    for b, c in g.edges():
        a_side = adj[b] & ~adj[c] & ~(1 << c)
        d_side = adj[c] & ~adj[b] & ~(1 << b)
        if not a_side or not d_side:
            continue
        for a in iter_set_bits(a_side):
            if d_side & ~adj[a]:
                return True
    return False


def has_induced_p4_by_quadruples(g: Graph) -> bool:
    """Slow cross-check: an induced 4-vertex subgraph is a P4 exactly when
    it has 3 edges and degree sequence (1, 1, 2, 2)."""
    for quad in combinations(range(g.n), 4):
        mask = 0
        for v in quad:
            mask |= 1 << v
        degs = sorted((g.adj[v] & mask).bit_count() for v in quad)
        if degs == [1, 1, 2, 2]:
            return True
    return False


def graph_from_edges(n: int, edges) -> Graph:
    """Direct Graph construction for test graphs that are not cographs."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n=n, labels=tuple(f"x{i}" for i in range(n)), adj=tuple(adj))


def independent_shape_counts(max_leaves: int) -> list[int]:
    """Count normalized cotree shapes per leaf count, without enumerating.

    A union-rooted shape on n >= 2 leaves is a multiset of children drawn
    from one leaf kind (weight 1) and the join-rooted shapes of each weight
    m < n; any such multiset totaling n has >= 2 members because no single
    child weighs n.  Union/join symmetry gives the total 2·c(n) for n >= 2.
    Multisets are counted by the generating function ∏ (1 - x^w)^(-kinds_w).
    """
    c = [0] * (max_leaves + 1)  # c[n] = union-rooted (= join-rooted) shapes
    for n in range(2, max_leaves + 1):
        poly = [1] + [0] * n
        kinds_per_weight = [(1, 1)] + [(m, c[m]) for m in range(2, n)]
        for weight, kinds in kinds_per_weight:
            for _ in range(kinds):
                for i in range(weight, n + 1):
                    poly[i] += poly[i - weight]
        c[n] = poly[n]
    totals = [0] * (max_leaves + 1)
    totals[1] = 1
    for n in range(2, max_leaves + 1):
        totals[n] = 2 * c[n]
    return totals
