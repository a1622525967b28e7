"""The bit-parallel verifier kernels against the bodies they replaced, kept
here verbatim as the reference: ``is_dominating``, ``is_secure_dominating``,
``domination_number``, ``secure_domination_number``, ``gamma_s_is_one``,
``is_clique`` and ``_is_connected`` of ``cosec.oracles``, and
``cosec.cotree.materialize``.  Old and new must give the same verdict on
every input tried."""

import random
import sys
from itertools import combinations

import pytest

from cosec.cotree import (
    JOIN,
    LEAF,
    Graph,
    iter_set_bits,
    lca_kind,
    materialize,
    parse_cotree,
)
from cosec.errors import BudgetExceededError
from cosec.generators import RandomSpec, random_cotree
from cosec.oracles import (
    DEFAULT_BUDGET,
    OracleBudget,
    _dominating_masks,
    _is_connected,
    as_mask,
    domination_number,
    gamma_s_is_one,
    is_clique,
    is_dominating,
    is_secure_dominating,
    secure_domination_number,
)

from helpers import graph_from_edges, outcome


def reference_is_dominating(g: Graph, s) -> bool:
    """Does every vertex outside s have a neighbor in s?"""
    mask = as_mask(g, s)
    cover = mask
    for v in iter_set_bits(mask):
        cover |= g.adj[v]
    return cover == g.full_mask


def reference_is_secure_dominating(g: Graph, s) -> bool:
    """Dominating, and every outsider x has a neighbor y in s whose swap
    (s ∪ {x}) ∖ {y} still dominates."""
    mask = as_mask(g, s)
    if not reference_is_dominating(g, mask):
        return False
    adj = g.adj
    for x in iter_set_bits(g.full_mask & ~mask):
        guarded = False
        for y in iter_set_bits(adj[x] & mask):
            if reference_is_dominating(g, (mask | 1 << x) & ~(1 << y)):
                guarded = True
                break
        if not guarded:
            return False
    return True


def reference_domination_number(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """γ(g) by ascending-cardinality subset scan."""
    cap = budget.max_vertices_domination
    if g.n > cap:
        raise BudgetExceededError("domination_number", g.n, cap)
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    full = g.full_mask
    for k in range(1, g.n + 1):
        for sub in combinations(closed, k):
            cover = 0
            for m in sub:
                cover |= m
            if cover == full:
                return k
    raise AssertionError("V(g) always dominates")  # pragma: no cover


def reference_secure_domination_number(
    g: Graph, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """γ_s(g) by ascending-cardinality subset scan."""
    cap = budget.max_vertices_secure
    if g.n > cap:
        raise BudgetExceededError("secure_domination_number", g.n, cap)
    for k in range(1, g.n + 1):
        for sub in combinations(range(g.n), k):
            mask = 0
            for v in sub:
                mask |= 1 << v
            if reference_is_secure_dominating(g, mask):
                return k
    raise AssertionError("V(g) always secure-dominates")  # pragma: no cover


def reference_is_clique(g: Graph, s) -> bool:
    """All pairs in s adjacent; vacuously true for |s| ≤ 1 (and empty s)."""
    mask = as_mask(g, s)
    for v in iter_set_bits(mask):
        if mask & ~(1 << v) & ~g.adj[v]:
            return False
    return True


def reference_gamma_s_is_one(g: Graph) -> bool:
    """Whether γ_s(g) = 1, i.e. some single vertex secure-dominates.

    Singleton round of ``secure_domination_number``; polynomial.  Kept as a
    scan over the definition (not the "complete graph" shortcut) so it can
    serve as an independent check of that very equivalence.
    """
    return any(reference_is_secure_dominating(g, 1 << v) for v in range(g.n))


def reference_is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        grown = 0
        for v in iter_set_bits(frontier):
            grown |= g.adj[v]
        frontier = grown & ~seen
        seen |= frontier
    return seen == g.full_mask


def reference_materialize(t) -> Graph:
    """The graph a cotree denotes: one vertex per leaf (in id order), an edge
    where the lowest common ancestor is a join node."""
    leaf_ids = [v for v in range(len(t)) if t.kinds[v] == LEAF]
    index = {v: i for i, v in enumerate(leaf_ids)}
    n = len(leaf_ids)
    adj = [0] * n
    masks = [0] * len(t)
    for v in range(len(t) - 1, -1, -1):
        kind = t.kinds[v]
        if kind == LEAF:
            masks[v] = 1 << index[v]
            continue
        total = 0
        for c in t.children[v]:
            total |= masks[c]
        masks[v] = total
        if kind == JOIN:
            for c in t.children[v]:
                other = total ^ masks[c]
                if other:
                    for u in iter_set_bits(masks[c]):
                        adj[u] |= other
    return Graph(
        n=n,
        labels=tuple(t.labels[v] for v in leaf_ids),
        adj=tuple(adj),
    )


def _random_graphs(seed: int, count: int, max_n: int):
    """Seeded G(n, p) graphs: most are not cographs, so the kernels are
    tried off the cotree path too."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.random()
        yield graph_from_edges(
            n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        )


def _assert_kernels_agree_on_every_subset(g: Graph):
    """The three set predicates on every vertex subset, and the γ and γ_s
    those verdicts imply, against the oracles old and new."""
    gamma = gamma_s = g.n
    for mask in range(1 << g.n):
        dominating = reference_is_dominating(g, mask)
        secure = reference_is_secure_dominating(g, mask)
        assert is_dominating(g, mask) == dominating, (g, mask)
        assert is_secure_dominating(g, mask) == secure, (g, mask)
        assert is_clique(g, mask) == reference_is_clique(g, mask), (g, mask)
        if dominating:
            gamma = min(gamma, mask.bit_count())
        if secure:
            gamma_s = min(gamma_s, mask.bit_count())
    assert domination_number(g) == gamma
    assert secure_domination_number(g) == gamma_s
    assert reference_secure_domination_number(g) == gamma_s
    assert gamma_s_is_one(g) == reference_gamma_s_is_one(g) == (gamma_s == 1)
    assert _is_connected(g) == reference_is_connected(g)


def test_kernels_match_the_reference_on_every_subset_of_exhaustive8(exhaustive8):
    for t in exhaustive8:
        _assert_kernels_agree_on_every_subset(materialize(t))


def test_kernels_match_the_reference_on_random_graphs():
    for g in _random_graphs(20261018, 400, 8):
        _assert_kernels_agree_on_every_subset(g)


def test_minimization_oracles_match_the_reference_under_each_budget(exhaustive8):
    graphs = [
        *map(materialize, exhaustive8),
        *_random_graphs(20261019, 400, 8),
        Graph(5000, (), ()),  # unbuilt: refused on its vertex count alone
    ]
    empty = Graph(0, (), ())
    for budget in (DEFAULT_BUDGET, OracleBudget(4, 3), OracleBudget(1, 1)):
        for g in graphs:
            assert outcome(domination_number, g, budget) == outcome(
                reference_domination_number, g, budget
            ), (g, budget)
            assert outcome(secure_domination_number, g, budget) == outcome(
                reference_secure_domination_number, g, budget
            ), (g, budget)
        # The empty set dominates, and secure-dominates, the 0-vertex graph;
        # the references start at size 1 and raise their AssertionError there.
        assert domination_number(empty, budget) == 0
        assert secure_domination_number(empty, budget) == 0


def test_dominating_masks_are_the_dominating_combinations_in_order(exhaustive8):
    graphs = [
        *map(materialize, exhaustive8),
        *_random_graphs(20261020, 400, 9),
        Graph(0, (), ()),
    ]
    for g in graphs:
        expected = [
            mask
            for k in range(g.n + 1)
            for sub in combinations(range(g.n), k)
            if reference_is_dominating(g, mask := sum(1 << v for v in sub))
        ]
        assert list(_dominating_masks(g, "domination_number", DEFAULT_BUDGET)) == (
            expected
        ), g
    # unbuilt, with no rows: the refusal comes before the scan looks for one
    unbuilt = Graph(5000, (), ())
    with pytest.raises(BudgetExceededError):
        next(_dominating_masks(unbuilt, "domination_number", DEFAULT_BUDGET))


def test_materialize_matches_the_reference(exhaustive8, random5000):
    for t in (*exhaustive8, *random5000):
        assert materialize(t) == reference_materialize(t), t


def test_vertex_sets_keep_their_forms_and_errors():
    g = materialize(parse_cotree("(U (J a b) c)"))
    for s in ([0, 1], (0, 2), {1}, range(2, 3), 0b011):
        assert is_dominating(g, s) == reference_is_dominating(g, s)
        assert is_secure_dominating(g, s) == reference_is_secure_dominating(g, s)
        assert is_clique(g, s) == reference_is_clique(g, s)
    for s in ([3], [-1], 0b1000, -1):
        for kernel in (is_dominating, is_secure_dominating, is_clique):
            with pytest.raises(IndexError):
                kernel(g, s)


def test_secure_check_matches_the_reference_on_half_size_sets():
    g = materialize(random_cotree(RandomSpec(1000, 3)))
    rng = random.Random(3)
    for _ in range(3):
        s = rng.sample(range(g.n), g.n // 2)
        assert is_dominating(g, s) == reference_is_dominating(g, s)
        assert is_secure_dominating(g, s) == reference_is_secure_dominating(g, s)


def _alternating_caterpillar(leaves: int) -> str:
    """``(U a0 (J a1 (U a2 … (. a{n-2} a{n-1})…)))``: every inner node has a
    leaf and the next inner node as children, and the kinds alternate."""
    inner = leaves - 1
    opens = "".join(f"({'UJ'[i % 2]} a{i} " for i in range(inner))
    return opens + f"a{inner}" + ")" * inner


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_materialize_is_depth_safe_on_a_deep_caterpillar():
    text = _alternating_caterpillar(2000)
    t = parse_cotree(text)
    assert len(t) == 3999
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 50)  # far below the tree's depth
    try:
        g = materialize(t)
    finally:
        sys.setrecursionlimit(limit)
    assert g == reference_materialize(t)
    rng = random.Random(2000)
    for _ in range(300):
        a, b = rng.sample(range(g.n), 2)
        expected = lca_kind(t, g.labels[a], g.labels[b]) == JOIN
        assert (g.adj[a] >> b & 1) == expected, (a, b)
