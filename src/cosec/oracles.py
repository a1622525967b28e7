"""Definitional oracles: exact, exponential, deliberately unclever.

Everything in here evaluates a definition by exhaustive search over vertex
subsets.  These functions are the ground truth that the linear-time
annotation pass is validated against, so they must stay as close to the
written definitions as possible — no shortcuts that presuppose what we are
trying to check.

Subset arguments (``VertexSet``) are either an iterable of vertex indices or
an int bitmask; internally everything is bitmasks.  Both minimization oracles
read one scan, ``_dominating_masks``: the dominating subsets in ascending
cardinality from the empty set, each candidate one OR of a closed
neighbourhood onto its prefix's cover.  γ is the size of its first set and
γ_s the size of the first that passes the swap test: exact (the first size
with a witness is the minimum) and fast on dense graphs where both are small.
``OracleBudget.admit`` refuses a graph above the cap that governs a check
with :class:`~cosec.errors.BudgetExceededError`, never a heuristic; the scan
calls it before it reads a row.

A set S dominates when its closed neighbourhood N[S], the union of N[v] over
v ∈ S, is all of V.  The swap test of secure domination, "(S ∪ {x}) ∖ {y}
dominates" for an outsider x and a neighbour y ∈ S, is evaluated as
N[S ∖ {y}] ∪ N[x] = V.  That is the same set: N distributes over union and
x ∉ S.  N[S ∖ {y}] is built once per guard y, as the union of a prefix and a
suffix of the members' closed neighbourhoods, so one check costs O(|S|)
unions plus one OR per (x, y) pair it tries.  Every pair is still tried in
the written order, and only a set that dominates is checked for security.

The three Cotree-level checks (``property_p_definitional``,
``label_r_definitional``, ``label_r_structural``) are thin wrappers that
build the graphs of the nodes they ask about and call a graph-level function
of the same name plus ``_graph`` / ``_graphs``.  Callers that already hold a
node's adjacency rows, such as ``verify.check_tree``, call those directly
and build no cotree per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .cotree import (
    JOIN,
    UNION,
    Cotree,
    Graph,
    materialize,
    normalize,
    subtree,
)
from .errors import BudgetExceededError, NotAJoinError

VertexSet = int | Iterable[int]


@dataclass(frozen=True)
class OracleBudget:
    """Vertex caps for the 2^n subset scans.

    ``max_vertices_secure`` is the smaller cap because the secure-domination
    check multiplies the subset scan by a per-subset swap scan.
    """

    max_vertices_domination: int = 20
    max_vertices_secure: int = 16

    def __post_init__(self):
        if self.max_vertices_secure < 1 or self.max_vertices_domination < 1:
            raise ValueError("budget caps must be positive")
        if self.max_vertices_secure > self.max_vertices_domination:
            raise ValueError("secure cap must not exceed domination cap")

    def admit(self, check: str, n: int) -> None:
        """Refuse an n-vertex graph above the cap that governs ``check``: the
        secure cap for ``secure_domination_number``, else the domination cap."""
        secure = check == "secure_domination_number"
        cap = self.max_vertices_secure if secure else self.max_vertices_domination
        if n > cap:
            raise BudgetExceededError(check, n, cap)


DEFAULT_BUDGET = OracleBudget()


def as_mask(g: Graph, s: VertexSet) -> int:
    """Normalize a vertex set to a bitmask; rejects out-of-range indices."""
    if isinstance(s, int):
        if s < 0 or s >> g.n:
            raise IndexError(f"vertex mask {s:#x} out of range for n={g.n}")
        return s
    mask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise IndexError(f"vertex index {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """Does every vertex outside s have a neighbor in s?"""
    return _cover(g.adj, as_mask(g, s)) == g.full_mask


def is_secure_dominating(g: Graph, s: VertexSet) -> bool:
    """Dominating, and every outsider x has a neighbor y in s whose swap
    (s ∪ {x}) ∖ {y} still dominates."""
    mask = as_mask(g, s)
    full = g.full_mask
    return _cover(g.adj, mask) == full and _swaps_dominate(g.adj, full, mask)


def _cover(adj: tuple[int, ...], mask: int) -> int:
    """N[mask]: the vertices in mask and all their neighbours."""
    cover = mask
    while mask:
        low = mask & -mask
        cover |= adj[low.bit_length() - 1]
        mask ^= low
    return cover


def _swaps_dominate(adj: tuple[int, ...], full: int, mask: int) -> bool:
    """The security half of ``is_secure_dominating`` for a dominating mask:
    every outsider x has a neighbour y in mask with N[mask ∖ {y}] ∪ N[x] = V.

    N[mask ∖ {y}] is the union of the closed neighbourhoods before y and
    those after it: one prefix and one suffix pass over the members.
    """
    members = []  # (bit, closed neighbourhood) per member, ascending
    rest = mask
    while rest:
        low = rest & -rest
        members.append((low, adj[low.bit_length() - 1] | low))
        rest ^= low
    without = {}  # guard bit -> N[mask ∖ {guard}]
    suffix = 0
    for low, nbhd in reversed(members):
        without[low] = suffix
        suffix |= nbhd
    prefix = 0
    for low, nbhd in members:
        without[low] |= prefix
        prefix |= nbhd
    outside = full & ~mask
    while outside:
        xbit = outside & -outside
        x = xbit.bit_length() - 1
        reach = adj[x] | xbit
        guards = adj[x] & mask
        while guards:
            low = guards & -guards
            if without[low] | reach == full:
                break
            guards ^= low
        else:
            return False
        outside ^= xbit
    return True


def _dominating_masks(g: Graph, check: str, budget: OracleBudget) -> Iterator[int]:
    """The dominating subsets of g as bitmasks: round k = 0, 1, …, n yields
    those of ``combinations(range(n), k)`` in that order, so a check on
    C(n, k) fits before each round.  Round k ≥ 2 ORs each prefix, a
    (k-1)-subset of range(n - 1), once and tests its cover with N[w] for
    every w after it.  The cap check for ``check`` runs before any row is read.
    """
    budget.admit(check, g.n)
    n, full = g.n, g.full_mask
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    if not full:  # round 0: N[∅] is empty, so ∅ dominates only the empty graph
        yield 0
    for v in range(n):  # round 1
        if closed[v] == full:
            yield 1 << v
    for k in range(2, n + 1):
        for prefix in combinations(range(n - 1), k - 1):
            cover = 0
            for v in prefix:
                cover |= closed[v]
            for w in range(v + 1, n):  # v is prefix[-1]
                if cover | closed[w] == full:
                    yield sum(1 << u for u in prefix) | 1 << w


def domination_number(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """γ(g): the size of the first set of the ascending scan."""
    for mask in _dominating_masks(g, "domination_number", budget):
        return mask.bit_count()
    raise AssertionError("V(g) always dominates")  # pragma: no cover


def secure_domination_number(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """γ_s(g): the size of the first set of the ascending scan that passes the
    swap test, which evaluates each swap (S ∪ {x}) ∖ {y} as N[S ∖ {y}] ∪ N[x]
    (see the module docstring).  Both are the definition, on bitmasks.
    """
    adj, full = g.adj, g.full_mask
    for mask in _dominating_masks(g, "secure_domination_number", budget):
        if _swaps_dominate(adj, full, mask):
            return mask.bit_count()
    raise AssertionError("V(g) always secure-dominates")  # pragma: no cover


def is_clique(g: Graph, s: VertexSet) -> bool:
    """All pairs in s adjacent; vacuously true for |s| ≤ 1 (and empty s)."""
    return _is_clique(g.adj, as_mask(g, s))


def _is_clique(adj: tuple[int, ...], mask: int) -> bool:
    """``is_clique`` on a mask already known to be in range."""
    rest = mask
    while rest:
        low = rest & -rest
        if (mask ^ low) & ~adj[low.bit_length() - 1]:
            return False
        rest ^= low
    return True


def is_complete(g: Graph) -> bool:
    return _is_clique(g.adj, g.full_mask)


def gamma_is_one(g: Graph) -> bool:
    """Whether γ(g) = 1, i.e. some single vertex dominates.

    Same verdict as ``domination_number(g) == 1`` — the ascending scan's
    first round is exactly this singleton loop — but polynomial, so it
    needs no budget.
    """
    full = g.full_mask
    return any(g.closed_mask(v) == full for v in range(g.n))


def gamma_s_is_one(g: Graph) -> bool:
    """Whether γ_s(g) = 1, i.e. some single vertex secure-dominates.

    Singleton round of ``secure_domination_number``; polynomial.  Kept as a
    scan over the definition (not the "complete graph" shortcut) so it can
    serve as an independent check of that very equivalence.  A vertex v
    whose closed neighbourhood is all of V dominates; the swap test then
    asks, for each outsider x, whether N[∅] ∪ N[x] = V, which is the
    domination of {x}, the set the swap leaves.
    """
    adj, full = g.adj, g.full_mask
    return any(
        adj[v] | 1 << v == full and _swaps_dominate(adj, full, 1 << v)
        for v in range(g.n)
    )


def property_p_definitional(t: Cotree) -> bool:
    """Does the join-rooted cograph of t admit two vertices x ≠ y with
    {x, y} dominating and both V ∖ N[x], V ∖ N[y] empty or a clique?

    ``property_p_definitional_graph`` on the materialized graph.
    """
    tn = normalize(t)
    if tn.kinds[tn.root] != JOIN:
        raise NotAJoinError(
            f"property is defined for join-rooted cographs; root is {tn.kinds[tn.root]}"
        )
    return property_p_definitional_graph(materialize(tn))


def property_p_definitional_graph(g: Graph) -> bool:
    """Property 𝒫 of g, whose cotree the caller knows to be join-rooted.

    An O(n²) pair scan after an O(n²)-word precomputation of the per-vertex
    remainder-is-clique flags.
    """
    full, adj = g.full_mask, g.adj
    closed = [row | 1 << v for v, row in enumerate(adj)]
    ok = [_is_clique(adj, full & ~nbhd) for nbhd in closed]
    for x in range(g.n):
        if not ok[x]:
            continue
        for y in range(x + 1, g.n):
            if ok[y] and closed[x] | closed[y] == full:
                return True
    return False


def label_r_definitional(
    t: Cotree, u: int, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Is node u a union with exactly two children, one subtree with γ = 1
    and the other with γ_s = 1 (under some assignment)?

    ``label_r_definitional_graphs`` on the two children's graphs.  A child
    above the domination cap, and so above both caps, is refused there on its
    vertex count alone, so it is passed unbuilt: that count and no rows.
    """
    if t.kinds[u] != UNION or len(t.children[u]) != 2:
        return False

    def graph_of(v: int) -> Graph:
        sub = subtree(t, v)
        if sub.n_leaves() > budget.max_vertices_domination:
            return Graph(sub.n_leaves(), (), ())
        return materialize(sub)

    a, b = t.children[u]
    return label_r_definitional_graphs(graph_of(a), graph_of(b), budget)


def label_r_definitional_graphs(
    ga: Graph, gb: Graph, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Label ℛ of a union whose two children have graphs ga and gb: one with
    γ = 1 and the other with γ_s = 1.

    The two =1 tests are the singleton rounds of the minimization oracles;
    see ``gamma_is_one`` / ``gamma_s_is_one``.  Budget caps still apply to
    the child graphs so the call refuses the same inputs the full oracles
    would refuse.
    """
    deferred: BudgetExceededError | None = None
    for x, y in ((ga, gb), (gb, ga)):
        try:
            budget.admit("domination_number", x.n)
            if gamma_is_one(x):
                budget.admit("secure_domination_number", y.n)
                if gamma_s_is_one(y):
                    return True
        except BudgetExceededError as exc:
            deferred = exc
    if deferred is not None:
        raise deferred
    return False


def label_r_structural(t: Cotree, u: int) -> bool:
    """Lemma-style structural test on the graph of u's subtree; see
    ``label_r_structural_graph``."""
    return label_r_structural_graph(materialize(subtree(t, u)))


def label_r_structural_graph(g: Graph) -> bool:
    """g is disconnected and some vertex w leaves a clique as V ∖ N[w]."""
    if _is_connected(g):
        return False
    full, adj = g.full_mask, g.adj
    return any(_is_clique(adj, full & ~(row | 1 << w)) for w, row in enumerate(adj))


def _is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        frontier = _cover(g.adj, frontier) & ~seen
        seen |= frontier
    return seen == g.full_mask
