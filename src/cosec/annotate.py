"""Single bottom-up pass computing all per-node facts of a normalized cotree.

The pass is linear: each node is visited once and does O(#children) work.
Node ids are pre-order positions (child id > parent id), so "bottom-up" is a
plain reversed loop over the id range — no recursion, no explicit post-order
computation, safe for million-leaf caterpillars.

Facts per node (see :class:`NodeAnnotations`):

- ``size``    leaf count of the subtree
- ``is_clique``  the subtree graph is complete
- ``gamma``   domination number of the subtree graph
- ``label_r``  (union nodes) exactly two children, one with γ = 1 and one
  whose subtree is a clique — the clique flag standing in for γ_s = 1 via
  the complete ⟺ γ_s = 1 equivalence that the oracle suite validates
- ``union_of_two_cliques``  (union nodes) exactly two children, both cliques
- ``p_original`` / ``p_corrected``  (join nodes) the two competing
  two-vertex-secure-configuration verdicts; ``p_original`` is knowingly the
  flawed rule, kept so the counterexample family can demonstrate the flaw

Union/join-only facts are ``None`` where they do not apply, never ``False``,
so a report cannot conflate "fails the predicate" with "predicate undefined".
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields

from .cotree import JOIN, LEAF, UNION, Cotree
from .errors import NotAJoinError, NotNormalizedError

_NOT_NORMALIZED = "annotate requires a normalized cotree"


@dataclass(frozen=True)
class NodeAnnotations:
    size: int
    is_clique: bool
    gamma: int
    label_r: bool | None
    union_of_two_cliques: bool | None
    p_original: bool | None
    p_corrected: bool | None

    @property
    def gamma_is_one(self) -> bool:
        return self.gamma == 1


_FACTS = tuple(f.name for f in fields(NodeAnnotations))


class _AnnView(Mapping):
    """Read-only NodeId → NodeAnnotations mapping, built on demand.

    Annotations live in parallel arrays; materializing a dataclass per node
    up front would dominate the runtime on million-node trees.
    """

    __slots__ = ("_at",)

    def __init__(self, at: "AnnotatedCotree"):
        self._at = at

    def __getitem__(self, v: int) -> NodeAnnotations:
        if not 0 <= v < len(self._at.tree):
            raise KeyError(v)
        return self._at.node(v)

    def __iter__(self):
        return iter(range(len(self._at.tree)))

    def __len__(self) -> int:
        return len(self._at.tree)


@dataclass(frozen=True, slots=True, eq=False)
class AnnotatedCotree:
    """A cotree plus one column per :class:`NodeAnnotations` fact, indexed
    by node id; the column names are the fact names and the JSON keys."""

    tree: Cotree
    size: list[int]
    is_clique: list[bool]
    gamma: list[int]
    label_r: list[bool | None]
    union_of_two_cliques: list[bool | None]
    p_original: list[bool | None]
    p_corrected: list[bool | None]

    def __len__(self) -> int:
        return len(self.tree)

    @property
    def ann(self) -> Mapping:
        return _AnnView(self)

    def node(self, v: int) -> NodeAnnotations:
        return NodeAnnotations(*(getattr(self, name)[v] for name in _FACTS))

    def to_json_nodes(self) -> list[dict]:
        """Per-node dicts in the stable report schema (None → JSON null)."""
        t = self.tree
        columns = [(name, getattr(self, name)) for name in _FACTS]
        return [
            {
                "id": v,
                "kind": t.kinds[v],
                "children": list(t.children[v]),
                **{name: column[v] for name, column in columns},
            }
            for v in range(len(t))
        ]


def annotate(t: Cotree) -> AnnotatedCotree:
    """Compute every per-node fact in one bottom-up sweep; O(|T|) total.

    The sweep itself raises ``NotNormalizedError`` at an inner node with
    fewer than two children or with a child of its own kind.
    """
    n = len(t)
    kinds = t.kinds
    children = t.children
    size = [1] * n
    clique = [False] * n
    gamma = [1] * n
    lr: list[bool | None] = [None] * n
    u2c: list[bool | None] = [None] * n
    po: list[bool | None] = [None] * n
    pc: list[bool | None] = [None] * n
    for v in range(n - 1, -1, -1):
        k = kinds[v]
        if k == LEAF:
            clique[v] = True
            continue
        ch = children[v]
        if len(ch) < 2:
            raise NotNormalizedError(_NOT_NORMALIZED)
        if k == UNION:
            s = 0
            g = 0
            for c in ch:
                if kinds[c] == UNION:
                    raise NotNormalizedError(_NOT_NORMALIZED)
                s += size[c]
                g += gamma[c]
            size[v] = s
            gamma[v] = g
            if len(ch) == 2:
                x, y = ch
                cx = clique[x]
                cy = clique[y]
                u2c[v] = cx and cy
                lr[v] = (cy and gamma[x] == 1) or (cx and gamma[y] == 1)
            else:
                u2c[v] = False
                lr[v] = False
        else:
            s = 0
            any_gamma_one = False
            all_cliques = True
            eligible = 0  # children that are leaves or carry label_r
            has_two_clique_child = False
            for c in ch:
                kc = kinds[c]
                if kc == JOIN:
                    raise NotNormalizedError(_NOT_NORMALIZED)
                s += size[c]
                if gamma[c] == 1:
                    any_gamma_one = True
                if not clique[c]:
                    all_cliques = False
                if kc == LEAF or lr[c]:
                    eligible += 1
                if u2c[c]:  # a clique has γ = 1, so two clique children give ℛ
                    has_two_clique_child = True
            size[v] = s
            clique[v] = all_cliques
            gamma[v] = 1 if any_gamma_one else 2
            po[v] = eligible >= 2
            pc[v] = eligible >= 2 or has_two_clique_child
    return AnnotatedCotree(t, size, clique, gamma, lr, u2c, po, pc)


def property_p_original(c: int, ann: AnnotatedCotree) -> bool:
    """The published two-vertex-configuration rule at join node c: at least
    two children are leaves or carry label ℛ.

    This is intentionally the incorrect rule — the counterexample family
    exists to refute it — and is retained verbatim for falsification runs.
    """
    t = ann.tree
    if t.kinds[c] != JOIN:
        raise NotAJoinError(f"node {c} is {t.kinds[c]}, not a join")
    count = 0
    for u in t.children[c]:
        if t.kinds[u] == LEAF or ann.label_r[u]:
            count += 1
            if count == 2:
                return True
    return False


def property_p_corrected(c: int, ann: AnnotatedCotree) -> bool:
    """Corrected rule at join node c: the original condition, or some child
    that carries label ℛ and is a union of two cliques."""
    t = ann.tree
    if t.kinds[c] != JOIN:
        raise NotAJoinError(f"node {c} is {t.kinds[c]}, not a join")
    if property_p_original(c, ann):
        return True
    return any(ann.union_of_two_cliques[u] and ann.label_r[u] for u in t.children[c])
