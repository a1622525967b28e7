import random

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from cosec.cotree import (
    JOIN,
    UNION,
    Graph,
    materialize,
    parse_cotree,
    subtree,
    to_text,
)
from cosec.errors import BudgetExceededError, NotAJoinError
from cosec.generators import GkSpec, g_k, random_corpus
from cosec.oracles import (
    DEFAULT_BUDGET,
    OracleBudget,
    as_mask,
    domination_number,
    gamma_is_one,
    gamma_s_is_one,
    is_clique,
    is_complete,
    is_dominating,
    is_secure_dominating,
    label_r_definitional,
    label_r_definitional_graphs,
    label_r_structural,
    label_r_structural_graph,
    property_p_definitional,
    property_p_definitional_graph,
    secure_domination_number,
)
from cosec.verify import _graph_ids

from helpers import outcome, reordered_children
from strategies import cotrees, normalized_cotrees

P3 = parse_cotree("(J b (U a c))")  # path a - b - c


def _named_mask(g, *labels):
    return as_mask(g, (g.labels.index(x) for x in labels))


# ---------------------------------------------------------------------------
# is_dominating / is_secure_dominating

def test_a1_b_dominates_g1():
    g = materialize(g_k(GkSpec(1)))
    assert is_dominating(g, _named_mask(g, "a1", "b"))


def test_whole_vertex_set_dominates():
    g = materialize(parse_cotree("(U a (J b c) d)"))
    assert is_dominating(g, g.full_mask)


def test_p3_endpoint_does_not_dominate():
    g = materialize(P3)
    assert not is_dominating(g, _named_mask(g, "a"))
    assert is_dominating(g, _named_mask(g, "b"))


def test_vertex_sets_can_be_iterables_or_masks():
    g = materialize(P3)
    b = g.labels.index("b")
    assert is_dominating(g, {b})
    assert is_dominating(g, [b])
    assert is_dominating(g, 1 << b)


def test_out_of_range_vertices_are_rejected():
    g = materialize(P3)
    with pytest.raises(IndexError):
        is_dominating(g, {7})
    with pytest.raises(IndexError):
        is_dominating(g, 1 << 5)
    with pytest.raises(IndexError):
        is_clique(g, -1)


def test_k3_singleton_is_secure_dominating():
    g = materialize(parse_cotree("(J a b c)"))
    for v in range(3):
        assert is_secure_dominating(g, 1 << v)


def test_p3_center_alone_is_not_secure():
    g = materialize(P3)
    assert not is_secure_dominating(g, _named_mask(g, "b"))
    assert is_secure_dominating(g, _named_mask(g, "a", "b"))


@given(normalized_cotrees(), st.integers(0, 2**14 - 1), st.integers(0, 2**14 - 1))
@settings(deadline=None)
def test_dominating_is_monotone_under_supersets(t, bits, extra):
    g = materialize(t)
    s = bits & g.full_mask
    if is_dominating(g, s):
        assert is_dominating(g, s | (extra & g.full_mask))


# ---------------------------------------------------------------------------
# minimization oracles

@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_gamma_of_complete_graph_is_one(k):
    text = "a0" if k == 1 else "(J " + " ".join(f"a{i}" for i in range(k)) + ")"
    assert domination_number(materialize(parse_cotree(text))) == 1


def test_gamma_of_2k1_is_two():
    assert domination_number(materialize(parse_cotree("(U a b)"))) == 2


def test_gamma_of_g1_is_two():
    assert domination_number(materialize(g_k(GkSpec(1)))) == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_gamma_s_of_complete_graph_is_one(n):
    text = "a0" if n == 1 else "(J " + " ".join(f"a{i}" for i in range(n)) + ")"
    assert secure_domination_number(materialize(parse_cotree(text))) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_gamma_s_of_isolated_vertices_is_n(n):
    text = "a0" if n == 1 else "(U " + " ".join(f"a{i}" for i in range(n)) + ")"
    assert secure_domination_number(materialize(parse_cotree(text))) == n


def test_gamma_s_of_p3_is_two():
    assert secure_domination_number(materialize(P3)) == 2


def test_gamma_s_is_at_least_gamma(exhaustive8):
    for t in exhaustive8:
        g = materialize(t)
        assert secure_domination_number(g) >= domination_number(g)


def test_singleton_shortcuts_match_the_minimizers(exhaustive8):
    for t in exhaustive8:
        if t.n_leaves() > 6:
            continue
        g = materialize(t)
        assert gamma_is_one(g) == (domination_number(g) == 1)
        assert gamma_s_is_one(g) == (secure_domination_number(g) == 1)


def test_gamma_s_one_iff_complete(exhaustive8):
    for t in exhaustive8:
        g = materialize(t)
        assert gamma_s_is_one(g) == is_complete(g)


# ---------------------------------------------------------------------------
# is_clique

def test_clique_conventions():
    g = materialize(g_k(GkSpec(1)))
    assert is_clique(g, 0)  # empty set
    assert is_clique(g, _named_mask(g, "b"))  # singleton
    c4 = materialize(parse_cotree("(J (U a b) (U c d))"))
    assert not is_clique(c4, c4.full_mask)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_a_side_of_gk_is_a_clique(k):
    g = materialize(g_k(GkSpec(k)))
    assert is_clique(g, _named_mask(g, *(f"a{i}" for i in range(1, k + 1))))


# ---------------------------------------------------------------------------
# property 𝒫, definitionally

@pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
def test_gk_satisfies_property_p(k):
    assert property_p_definitional(g_k(GkSpec(k))) is True


def test_k2_satisfies_property_p():
    assert property_p_definitional(parse_cotree("(J a b)")) is True


def test_k33_fails_property_p():
    assert property_p_definitional(parse_cotree("(J (U a b c) (U d e f))")) is False


def test_property_p_requires_a_join_root():
    with pytest.raises(NotAJoinError):
        property_p_definitional(parse_cotree("(U a b)"))
    with pytest.raises(NotAJoinError):
        property_p_definitional(parse_cotree("x"))
    # normalization happens first: a unary join collapsing to a union root
    with pytest.raises(NotAJoinError):
        property_p_definitional(parse_cotree("(J (U a b))"))


@given(normalized_cotrees(), st.integers(0, 2**32))
@settings(deadline=None, max_examples=60)
def test_property_p_is_child_order_invariant(t, seed):
    if t.kinds[t.root] != JOIN:
        return
    shuffled = reordered_children(t, random.Random(seed).shuffle)
    assert property_p_definitional(shuffled) == property_p_definitional(t)


# ---------------------------------------------------------------------------
# label ℛ, both characterizations

@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_gk_right_union_child_has_label_r(k):
    t = g_k(GkSpec(k))
    left, right = t.children[t.root]
    assert label_r_definitional(t, right) is True
    assert label_r_structural(t, right) is True
    assert label_r_definitional(t, left) is False  # three children
    assert label_r_structural(t, left) is False


def test_two_isolated_vertices_have_label_r():
    t = parse_cotree("(U a b)")
    assert label_r_definitional(t, t.root) is True
    assert label_r_structural(t, t.root) is True


def test_label_r_is_false_off_union_nodes():
    t = g_k(GkSpec(2))
    assert label_r_definitional(t, t.root) is False  # join root
    leaf_node = t.leaf_id("b")
    assert label_r_definitional(t, leaf_node) is False
    assert label_r_structural(t, t.root) is False
    assert label_r_structural(t, leaf_node) is False


def test_label_r_characterizations_agree_on_random_corpus():
    for t in random_corpus(1000, 12, seed=97):
        for v in range(len(t)):
            if t.kinds[v] == UNION:
                assert label_r_definitional(t, v) == label_r_structural(t, v), (
                    f"node {v} of {to_text(t)}"
                )


# ---------------------------------------------------------------------------
# budgets

def test_budget_validation():
    with pytest.raises(ValueError):
        OracleBudget(0, 0)
    with pytest.raises(ValueError):
        OracleBudget(max_vertices_domination=8, max_vertices_secure=12)
    assert DEFAULT_BUDGET.max_vertices_secure <= DEFAULT_BUDGET.max_vertices_domination


def _wide_union(n):
    return parse_cotree("(U " + " ".join(f"v{i}" for i in range(n)) + ")")


def _refusal(check, n, cap):
    return f"{check} oracle budget exceeded: graph has {n} vertices, cap is {cap}"


def test_domination_budget_is_enforced():
    g = materialize(_wide_union(21))
    with pytest.raises(BudgetExceededError) as exc_info:
        domination_number(g)
    assert exc_info.value.needed == 21
    assert exc_info.value.cap == 20
    assert str(exc_info.value) == _refusal("domination_number", 21, 20)
    assert domination_number(g, OracleBudget(25, 16)) == 21


def test_secure_budget_is_enforced():
    g = materialize(_wide_union(17))
    with pytest.raises(BudgetExceededError) as exc_info:
        secure_domination_number(g)
    assert str(exc_info.value) == _refusal("secure_domination_number", 17, 16)


def test_minimization_oracles_refuse_on_the_vertex_count_alone():
    unbuilt = Graph(5000, (), ())  # no rows: reading one raises IndexError
    for oracle, cap in ((domination_number, 20), (secure_domination_number, 16)):
        with pytest.raises(BudgetExceededError) as exc_info:
            oracle(unbuilt)
        assert str(exc_info.value) == _refusal(oracle.__name__, 5000, cap)


def test_label_r_definitional_respects_budget():
    tight = OracleBudget(2, 2)
    for text, refusal in (
        ("(U (J a b c) (J d e f))", _refusal("domination_number", 3, 2)),
        # both orientations are tried; the second one's refusal is raised
        ("(U (J a b c) (J d e))", _refusal("secure_domination_number", 3, 2)),
        ("(U (J d e) (J a b c))", _refusal("domination_number", 3, 2)),
    ):
        t = parse_cotree(text)
        with pytest.raises(BudgetExceededError) as exc_info:
            label_r_definitional(t, t.root, tight)
        assert str(exc_info.value) == refusal
    # a decidable-within-budget True short-circuits before the caps matter
    t2 = parse_cotree("(U a b)")
    assert label_r_definitional(t2, t2.root, tight) is True


@given(st.one_of(cotrees(), normalized_cotrees()))
@settings(deadline=None)
def test_graph_cores_on_interned_rows_match_the_cotree_oracles(t):
    rows = []
    ids = _graph_ids(t, {}, rows, lambda key, graph_rows: None)

    def graph_of(v):
        return Graph(len(rows[ids[v]]), (), rows[ids[v]])  # no oracle reads labels

    budgets = (DEFAULT_BUDGET, OracleBudget(4, 3), OracleBudget(3, 1), OracleBudget(1, 1))
    for v in range(len(t)):
        assert label_r_structural_graph(graph_of(v)) == label_r_structural(t, v)
        if t.kinds[v] == JOIN:
            wrapped = outcome(property_p_definitional, subtree(t, v))
            if isinstance(wrapped, bool):  # else a unary join normalized away
                assert property_p_definitional_graph(graph_of(v)) is wrapped
        children = t.children[v]
        for budget in budgets:
            wrapped = outcome(label_r_definitional, t, v, budget)
            if t.kinds[v] == UNION and len(children) == 2:
                a, b = map(graph_of, children)
                assert outcome(label_r_definitional_graphs, a, b, budget) == wrapped
            else:
                assert wrapped is False


def test_label_r_definitional_builds_no_graph_above_the_caps(monkeypatch):
    import cosec.oracles

    built = []

    def recording(t):
        built.append(t.n_leaves())
        return materialize(t)

    monkeypatch.setattr(cosec.oracles, "materialize", recording)
    big = "(J " + " ".join(f"x{i}" for i in range(5000)) + ")"
    t = parse_cotree(f"(U a {big})")
    with pytest.raises(BudgetExceededError) as exc_info:
        label_r_definitional(t, t.root)
    assert str(exc_info.value) == (
        "domination_number oracle budget exceeded: graph has 5000 vertices, cap is 20"
    )
    assert built == [1]


def test_budget_error_is_not_false():
    assert not issubclass(BudgetExceededError, ValueError)
    assert issubclass(BudgetExceededError, RuntimeError)
