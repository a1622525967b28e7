"""Cotree data model: parsing, printing, normalization, materialization.

A cotree is a rooted tree whose leaves are the vertices of a cograph and whose
inner nodes are marked ``union`` or ``join``.  Two leaves are adjacent in the
represented graph exactly when their lowest common ancestor is a join node.

Representation notes:

- Nodes live in flat parallel tuples indexed by node id.  Ids are pre-order
  positions, so every child id is strictly greater than its parent id and a
  subtree occupies a contiguous id range.  Bottom-up passes are therefore a
  single reversed loop over ``range(len(tree))``.  ``parse_cotree`` loops
  over one token list, appending a node per leaf or ``(``.  Text in the
  grammar's alphabet, checked with ``bytes.translate`` 64 KiB at a time, is
  split on whitespace; any other character sends it through ``re.findall``,
  which gives the same list where both apply.  The first such character is
  then put in the parser's set of seen labels, so the leaf branch needs no
  alphabet test: the character fails as a duplicate, and only that error
  path tells the two messages apart.  A failing parse scans again to find
  its byte offset.  ``normalize``, ``subtree``, ``union`` and ``join`` copy
  id ranges with shifted ids.  Only ``from_nested`` reads nested input.
- No recursion, in Python or in C.
- ``Cotree`` and ``Graph`` values are immutable after construction and safe to
  share between threads.  All operations here are pure functions.
- Child order is preserved but carries no meaning.

Text format (``.cotree`` files)::

    cotree := leaf | "(" op ws cotree (ws cotree)* ")"
    op     := "U" | "J"
    leaf   := [A-Za-z0-9_]+

The parser is whitespace-liberal between tokens and accepts unnormalized
input (unary nodes, nested same-kind nodes); ``normalize`` is an explicit
separate pass.  Leaf labels must be unique within one tree.
"""

from __future__ import annotations

import math
import re
from itertools import islice
from operator import length_hint
from typing import Iterator

from .errors import CotreeParseError, UnknownLeafError

LEAF = "leaf"
UNION = "union"
JOIN = "join"

_OPPOSITE = {UNION: JOIN, JOIN: UNION}
_OPEN = {UNION: "(U", JOIN: "(J"}
_KIND_OF_OP = {"U": UNION, "J": JOIN}
_DOT_LABEL = {UNION: "∪", JOIN: "+"}

_LEAF_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
)
# A maximal run of leaf characters, or any one other character that is not
# whitespace: "(", ")" or a character the grammar does not allow.
_TOKEN = re.compile(r"[A-Za-z0-9_]+|[^ \t\r\n]")
# A character that is neither the grammar's nor its whitespace.  Text
# without one can be split on whitespace; ``str.split`` would also split on
# "\x0b", "\xa0", "\u2028" and more, which ``_TOKEN`` keeps as tokens.
_OUTSIDE = re.compile(r"[^A-Za-z0-9_() \t\r\n]")
# The same alphabet as bytes, which ``bytes.translate`` deletes: an ASCII
# chunk is in the alphabet when nothing is left of it.
_GRAMMAR_BYTES = "".join(sorted(_LEAF_CHARS)).encode("ascii") + b"() \t\r\n"
_CHUNK = 1 << 16

_TRAILING = "trailing content after complete cotree"
_NO_OPERATOR = "expected operator U or J after '('"
_EMPTY_NODE = "empty node: operator without children"

_CLOSE = object()  # sentinel for the iterative printer
_PATH_CELL_MAX = 64  # the widest path cell of the annotate table; see _node_paths


class _Record:
    """Base of the record types: ``__slots__`` classes compared, hashed and
    shown (``Name(field=value, ...)``) by their public slots, ``_fields``.
    ``_store(values)``, also ``__setstate__``, is the one writer of slots, past
    the refusing ``__setattr__``: each typed ``__init__`` ends in it, values in
    slot order, and unpickling passes it ``__getstate__``'s list.  A mutable
    subclass restores ``__setattr__`` and ``__delattr__`` and unsets ``__hash__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(s for s in cls.__slots__ if s[0] != "_")
        cls._setters = tuple(getattr(cls, s).__set__ for s in cls.__slots__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __getstate__(self) -> list:  # every slot, private ones included
        return [getattr(self, name) for name in self.__slots__]

    def _store(self, values) -> None:
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    __setstate__ = _store


class Cotree(_Record):
    """Cotree; see the module docstring for the id invariant.  Instances are
    immutable ``__slots__`` records with value equality, by their fields.

    ``validate()`` checks that invariant, and ``from_nested``, ``union`` and
    ``join`` call it; building a ``Cotree(...)`` directly skips it.
    ``annotate``, ``materialize``, ``_node_paths`` and ``verify._graph_ids``
    rely on the invariant without checking it: each passes over the ids in
    order or in reverse and assumes every child id exceeds its parent's.  So
    do ``normalize``, which on unnormalized input writes ``up[c]`` before it
    visits ``c``, and ``subtree``, whose ``_subtree_end`` follows last children.
    """

    __slots__ = ("kinds", "children", "labels", "root")

    def __init__(
        self, kinds: tuple[str, ...], children: tuple[tuple[int, ...], ...],
        labels: tuple[str | None, ...], root: int = 0,
    ):
        self._store((kinds, children, labels, root))

    def __len__(self) -> int:
        return len(self.kinds)

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v, k in enumerate(self.kinds) if k == LEAF)

    def n_leaves(self) -> int:
        return self.kinds.count(LEAF)

    def leaf_id(self, label: str) -> int:
        for v, lbl in enumerate(self.labels):
            if lbl == label:
                return v
        raise UnknownLeafError(label)

    def parents(self) -> list[int]:
        """Parent id per node, -1 for the root."""
        par = [-1] * len(self.kinds)
        for v, ch in enumerate(self.children):
            for c in ch:
                par[c] = v
        return par

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        n = len(self.kinds)
        if not (len(self.children) == len(self.labels) == n and n > 0):
            raise ValueError("inconsistent node arrays")
        if self.root != 0:
            raise ValueError("root must be node 0")
        seen_labels: set[str] = set()
        for v in range(n):
            kind = self.kinds[v]
            ch = self.children[v]
            if kind == LEAF:
                lbl = self.labels[v]
                if ch:
                    raise ValueError(f"leaf {v} has children")
                if not lbl or not set(lbl) <= _LEAF_CHARS:
                    raise ValueError(f"bad leaf label at node {v}: {lbl!r}")
                if lbl in seen_labels:
                    raise ValueError(f"duplicate leaf label {lbl!r}")
                seen_labels.add(lbl)
            elif kind in (UNION, JOIN):
                if not ch:
                    raise ValueError(f"inner node {v} has no children")
                if self.labels[v] is not None:
                    raise ValueError(f"inner node {v} carries a label")
            else:
                raise ValueError(f"unknown node kind {kind!r}")
        # ids must enumerate a pre-order DFS from the root
        expect = 0
        stack = [0]
        while stack:
            v = stack.pop()
            if v != expect:
                raise ValueError("node ids are not pre-order positions")
            expect += 1
            stack.extend(reversed(self.children[v]))
        if expect != n:
            raise ValueError("unreachable nodes present")


class Graph(_Record):
    """Simple undirected graph over vertices 0..n-1 with bitmask adjacency rows."""

    __slots__ = ("n", "labels", "adj")

    def __init__(self, n: int, labels: tuple[str, ...], adj: tuple[int, ...]):
        self._store((n, labels, adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_set_bits(rest):
                yield u, v

    def edge_labels(self) -> set[frozenset[str]]:
        """Edge set keyed by leaf labels; the label-matched equality used in tests."""
        return {frozenset((self.labels[u], self.labels[v])) for u, v in self.edges()}


def iter_set_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# construction

def from_nested(nested) -> Cotree:
    """Build a Cotree from nested ``(kind, [children])`` tuples / label strings.

    Assigns pre-order ids; ``Cotree.validate`` then raises ValueError for a
    bad or duplicate leaf label, an unknown kind or an empty inner node.
    """
    kinds: list[str] = []
    children: list[list[int]] = []
    labels: list[str | None] = []
    stack: list[tuple[object, int]] = [(nested, -1)]
    while stack:
        node, parent = stack.pop()
        nid = len(kinds)
        if parent >= 0:
            children[parent].append(nid)
        children.append([])
        if isinstance(node, str):
            kinds.append(LEAF)
            labels.append(node)
        else:
            kind, kids = node
            kinds.append(kind)
            labels.append(None)
            stack.extend((kid, nid) for kid in reversed(kids))
    t = Cotree(tuple(kinds), tuple(map(tuple, children)), tuple(labels))
    t.validate()
    return t


def leaf(label: str) -> Cotree:
    """Single-leaf cotree (the one-vertex graph)."""
    if not label or not set(label) <= _LEAF_CHARS:
        raise ValueError(f"bad leaf label {label!r}")
    return Cotree((LEAF,), ((),), (label,))


def union(*trees: Cotree) -> Cotree:
    """Combine cotrees under a fresh union root; labels must not clash."""
    return _combine(UNION, trees)


def join(*trees: Cotree) -> Cotree:
    """Combine cotrees under a fresh join root; labels must not clash."""
    return _combine(JOIN, trees)


def _combine(kind: str, trees: tuple[Cotree, ...]) -> Cotree:
    if len(trees) < 2:
        raise ValueError("need at least two cotrees to combine")
    kinds: list[str] = [kind]
    children: list[tuple[int, ...]] = [()]
    labels: list[str | None] = [None]
    roots: list[int] = []
    for t in trees:
        shift = len(kinds)
        roots.append(shift)
        kinds.extend(t.kinds)
        children.extend(tuple(c + shift for c in ch) for ch in t.children)
        labels.extend(t.labels)
    children[0] = tuple(roots)
    combined = Cotree(tuple(kinds), tuple(children), tuple(labels))
    combined.validate()  # rejects clashing labels
    return combined


def _subtree_end(t: Cotree, v: int) -> int:
    """One past the last id of v's subtree, which occupies ids v … end-1."""
    while t.children[v]:
        v = t.children[v][-1]
    return v + 1


def subtree(t: Cotree, v: int) -> Cotree:
    """The cotree rooted at node v, re-indexed from 0."""
    if not 0 <= v < len(t):
        raise ValueError(f"node id {v} out of range")
    end = _subtree_end(t, v)
    children = tuple(tuple(c - v for c in ch) for ch in t.children[v:end])
    return Cotree(t.kinds[v:end], children, t.labels[v:end])


# ---------------------------------------------------------------------------
# text format

def parse_cotree(text: str) -> Cotree:
    """Parse a cotree expression; see the module docstring for the grammar.

    The tree is returned exactly as written, without normalization.
    Errors report byte offsets into the UTF-8 encoding of ``text``.
    """
    tokens, outside = _tokenize(text)
    kinds: list[str] = []
    children: list[tuple[int, ...]] = []
    labels: list[str | None] = []
    # ``top`` is the innermost open node's child list, ``root`` before the
    # first "(" and after the last ")"; ``stack`` holds the lists around it
    # and ``opened`` the open nodes' ids.  Each list becomes a tuple and is freed
    # when its node closes (tracemalloc peak 167 MB, not 199, on a 500,000-leaf caterpillar).
    top = root = []
    stack: list[list[int]] = []
    opened: list[int] = []
    seen: set[str] = set() if outside is None else {outside}  # see _tokenize
    steps = iter(tokens)
    for tok in steps:
        if tok == "(":
            if top is root and kinds:
                raise _parse_error(text, _TRAILING, tokens, steps)
            op = next(steps, None)
            kind = _KIND_OF_OP.get(op)
            if kind is None:
                at = None if op is None else steps  # no operator: the end
                raise _parse_error(text, _NO_OPERATOR, tokens, at)
            top.append(len(kinds))
            opened.append(len(kinds))
            stack.append(top)
            top = []
            kinds.append(kind)
            children.append(())
            labels.append(None)
        elif tok == ")":
            if top is root:
                raise _parse_error(text, "unbalanced ')'", tokens, steps)
            if not top:
                raise _parse_error(text, _EMPTY_NODE, tokens, steps)
            children[opened.pop()] = tuple(top)
            top = stack.pop()
        elif tok in seen:  # a repeated label, or ``outside``
            if tok[0] in _LEAF_CHARS:
                message = f"duplicate leaf label {tok!r}"
            else:
                message = f"unexpected character {tok!r}"
            raise _parse_error(text, message, tokens, steps)
        else:
            seen.add(tok)
            if top is root and kinds:
                raise _parse_error(text, _TRAILING, tokens, steps)
            top.append(len(kinds))
            kinds.append(LEAF)
            children.append(())
            labels.append(tok)
    if top is not root:
        raise _parse_error(text, "unexpected end of input: unclosed '('", tokens)
    if not kinds:
        raise CotreeParseError("empty input", 0)
    return Cotree(tuple(kinds), tuple(children), tuple(labels))


def _tokenize(text: str) -> tuple[list[str], str | None]:
    """``_TOKEN.findall(text)``, and ``_OUTSIDE.search(text)``'s match or None.

    ``bytes.translate`` checks the alphabet one 64 KiB chunk of ASCII text at
    a time, so one chunk's copy is held, not the text's.  Text inside it is
    split on whitespace, at under half the cost of matching.  The match is a
    token of its own, and ``parse_cotree`` puts it in ``seen``: every parse
    that reaches it fails there, so no leaf token needs an alphabet test."""
    start = 0
    if text.isascii():
        for start in range(0, len(text), _CHUNK):
            if text[start : start + _CHUNK].encode("ascii").translate(None, _GRAMMAR_BYTES):
                break
        else:
            return text.replace("(", " ( ").replace(")", " ) ").split(), None
    return _TOKEN.findall(text), _OUTSIDE.search(text, start).group()


def _parse_error(
    text: str, message: str, tokens: list[str], steps: Iterator[str] | None = None
) -> CotreeParseError:
    """The error at the token of ``text`` that ``steps`` took last, or at the
    end of ``text`` without ``steps``.  Only a failing parse pays for this
    re-scan."""
    index = len(tokens) if steps is None else len(tokens) - length_hint(steps) - 1
    token = next(islice(_TOKEN.finditer(text), index, None), None)
    at = len(text) if token is None else token.start()
    return CotreeParseError(message, len(text[:at].encode("utf-8")))


def to_text(t: Cotree) -> str:
    """Canonical expression text; ``parse_cotree(to_text(t)) == t``."""
    parts: list[str] = []
    stack: list[object] = [t.root]
    kinds = t.kinds
    while stack:
        v = stack.pop()
        if v is _CLOSE:
            parts.append(")")
        elif kinds[v] == LEAF:
            parts.append(t.labels[v])
        else:
            parts.append(_OPEN[kinds[v]])
            stack.append(_CLOSE)
            stack.extend(reversed(t.children[v]))
    return " ".join(parts).replace(" )", ")")  # a label holds no space or ")"


def to_dot(t: Cotree) -> str:
    """Graphviz rendering: inner nodes show the set-union sign or '+'."""
    lines = ["graph cotree {", "  node [shape=circle];"]
    for v in range(len(t)):
        label = t.labels[v] if t.kinds[v] == LEAF else _DOT_LABEL[t.kinds[v]]
        lines.append(f'  n{v} [label="{label}"];')
    for v in range(len(t)):
        for c in t.children[v]:
            lines.append(f"  n{v} -- n{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(t: Cotree) -> dict:
    """JSON-ready document: {"root": id, "nodes": [{id, kind, label, children}]}."""
    return {
        "root": t.root,
        "nodes": [
            {
                "id": v,
                "kind": t.kinds[v],
                "label": t.labels[v],
                "children": list(t.children[v]),
            }
            for v in range(len(t))
        ],
    }


# ---------------------------------------------------------------------------
# normalization

def is_normalized(t: Cotree) -> bool:
    """True iff every inner node has >= 2 children and no same-kind child."""
    for v in range(len(t)):
        kind = t.kinds[v]
        if kind == LEAF:
            continue
        ch = t.children[v]
        if len(ch) < 2:
            return False
        for c in ch:
            if t.kinds[c] == kind:
                return False
    return True


def normalize(t: Cotree) -> Cotree:
    """Collapse unary nodes and flatten same-kind nesting.

    Idempotent; the induced graph is unchanged (leaves keep their labels).
    A tree that is already normalized is returned as is.  Otherwise,
    contraction keeps the pre-order of the remaining nodes, so this is one
    forward pass, in which a leaf, always kept and the anchor of no node,
    skips the branching test and the child loop.  As in the parser, a kept
    inner node's child list becomes a tuple and is freed once the pass leaves
    its subtree: on a 500,000-leaf caterpillar the pass peaks at 103 MB in
    tracemalloc, 130 MB without that.
    """
    if is_normalized(t):
        return t
    kinds, children, labels = t.kinds, t.children, t.labels
    up = [-1] * len(t)  # new id of each node's nearest kept proper ancestor
    out_kinds: list[str] = []
    out_children: list[list[int] | tuple[int, ...]] = []
    out_labels: list[str | None] = []
    # The kept inner nodes whose subtree the pass is still in, outermost
    # first.  A kept node's anchor is one of them, and those above it are done.
    inside: list[int] = []
    for v in range(len(t)):
        kind = kinds[v]
        anchor = up[v]
        if kind != LEAF:
            ch = children[v]
            if len(ch) < 2 or (anchor >= 0 and out_kinds[anchor] == kind):  # contracted
                for c in ch:
                    up[c] = anchor
                continue
        new = len(out_kinds)  # kept: every leaf and every other inner node
        if anchor >= 0:
            while inside[-1] != anchor:
                done = inside.pop()
                out_children[done] = tuple(out_children[done])
            out_children[anchor].append(new)
        out_kinds.append(kind)
        out_labels.append(labels[v])
        if kind == LEAF:  # anchors no node
            out_children.append(())
        else:
            out_children.append([])
            inside.append(new)
            for c in ch:
                up[c] = new
    for done in inside:
        out_children[done] = tuple(out_children[done])
    return Cotree(tuple(out_kinds), tuple(out_children), tuple(out_labels))


# ---------------------------------------------------------------------------
# graph materialization and adjacency

def materialize(t: Cotree) -> Graph:
    """The graph a cotree denotes: one vertex per leaf (in id order), an edge
    where the lowest common ancestor is a join node.

    Two linear passes: bottom up, each node's leaves as a mask; top down,
    each node's ``outside``, the vertices that every leaf below it is joined
    to by some ancestor.  A join hands each child its own ``outside`` plus
    the other children's leaves, and a leaf's row is its ``outside``.
    """
    kinds, children = t.kinds, t.children
    leaf_ids = [v for v, k in enumerate(kinds) if k == LEAF]
    masks = [0] * len(t)
    for i, v in enumerate(leaf_ids):
        masks[v] = 1 << i
    for v in range(len(t) - 1, -1, -1):
        if children[v]:
            total = 0
            for c in children[v]:
                total |= masks[c]
            masks[v] = total
    outside = [0] * len(t)
    for v, kind in enumerate(kinds):
        if kind == JOIN:
            total, above = masks[v], outside[v]
            for c in children[v]:
                outside[c] = above | (total ^ masks[c])
        elif outside[v]:  # a union passes its own on; a leaf has no children
            above = outside[v]
            for c in children[v]:
                outside[c] = above
    labels = t.labels
    return Graph(
        len(leaf_ids),
        tuple([labels[v] for v in leaf_ids]),
        tuple([outside[v] for v in leaf_ids]),
    )


def complement(t: Cotree) -> Cotree:
    """Swap union and join marks; materializes to the graph complement.

    An involution: ``complement(complement(t)) == t`` exactly (ids included).
    """
    new_kinds = tuple(k if k == LEAF else _OPPOSITE[k] for k in t.kinds)
    return Cotree(new_kinds, t.children, t.labels, t.root)


def lca_kind(t: Cotree, leaf1: str, leaf2: str) -> str:
    """Kind of the lowest common ancestor of two distinct leaves.

    Returns ``"join"`` iff the leaves are adjacent in ``materialize(t)``;
    an adjacency test without materializing.
    """
    if leaf1 == leaf2:
        raise ValueError("leaves must be distinct")
    a = t.leaf_id(leaf1)
    b = t.leaf_id(leaf2)
    par = t.parents()
    ancestors = set()
    v = a
    while v != -1:
        ancestors.add(v)
        v = par[v]
    v = b
    while v not in ancestors:
        v = par[v]
    return t.kinds[v]


def node_paths(t: Cotree) -> tuple[str, ...]:
    """Human-readable child-index path per node, e.g. "root.1.0"."""
    return tuple(_node_paths(t, math.inf)[1])


def _node_paths(t: Cotree, cap: float = _PATH_CELL_MAX) -> tuple[int, Iterator[str]]:
    """The widest path cell's length, and the cells one at a time in id order.

    A node's cell is its ``node_paths`` path when that has at most ``cap``
    characters, and ``^<parent id>.<i>`` when it is longer: the parent's id and
    the node's index among its children.  So on a tree of any depth the cells
    sum to O(n·cap) characters.  The table caps at ``_PATH_CELL_MAX``;
    ``node_paths`` passes no cap.

    One forward pass gives each node its path's length and last component
    ("root", or "." and its child index).  Only when some path is longer than
    ``cap`` does a second pass turn those nodes' last components into their
    ``^`` cells.  In pre-order the last path within ``cap`` before v's begins
    with v's parent's path, so v's path is that one cut to the parent's length
    plus v's last component: no join over all components, and only the
    current path is held."""
    steps = [(f".{i}", len(f".{i}")) for i in range(max(map(len, t.children)))]
    last = ["root"] * len(t)
    length = [len("root")] * len(t)
    # length[v] is final when the loop reads it: children have larger ids
    for ch, n in zip(t.children, length):
        if ch:  # a leaf skips building an empty zip
            for c, (step, d) in zip(ch, steps):
                last[c] = step
                length[c] = n + d
    widest = max(length)
    if widest > cap:
        for v, ch in enumerate(t.children):
            for c in ch:
                if length[c] > cap:
                    last[c] = f"^{v}{last[c]}"
        widest = max(n if n <= cap else len(s) for s, n in zip(last, length))

    def paths() -> Iterator[str]:
        path = ""
        for step, n in zip(last, length):
            if n > cap:
                yield step
            else:
                path = path[: n - len(step)] + step
                yield path

    return widest, paths()
