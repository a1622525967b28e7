import io
import json
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings

from cosec.annotate import annotate, property_p_corrected, property_p_original
from cosec.cli import main
from cosec.cotree import (
    JOIN,
    LEAF,
    UNION,
    is_normalized,
    materialize,
    parse_cotree,
    subtree,
)
from cosec.errors import NotAJoinError, NotNormalizedError
from cosec.generators import GkSpec, g_k
from cosec.oracles import domination_number, is_complete

from strategies import normalized_cotrees


def test_g3_root_annotations():
    at = annotate(g_k(GkSpec(3)))
    root = at.node(0)
    assert root.size == 7
    assert root.is_clique is False
    assert root.gamma == 2
    assert root.gamma_is_one is False


def test_gk_right_union_child_is_r_labeled_two_clique_union():
    t = g_k(GkSpec(4))
    at = annotate(t)
    _, right = t.children[t.root]
    a = at.node(right)
    assert a.label_r is True
    assert a.union_of_two_cliques is True


def test_triangle_is_clique_with_gamma_one():
    at = annotate(parse_cotree("(J a b c)"))
    a = at.node(0)
    assert a.is_clique is True and a.gamma == 1 and a.gamma_is_one


def test_single_leaf_annotates_trivially():
    at = annotate(parse_cotree("x"))
    a = at.node(0)
    assert (a.size, a.is_clique, a.gamma) == (1, True, 1)
    assert a.label_r is None
    assert a.union_of_two_cliques is None
    assert a.p_original is None
    assert a.p_corrected is None


def test_annotate_rejects_unnormalized_trees():
    with pytest.raises(NotNormalizedError):
        annotate(parse_cotree("(U a (U b c))"))
    with pytest.raises(NotNormalizedError):
        annotate(parse_cotree("(J (J a b))"))
    with pytest.raises(NotNormalizedError):  # a unary root
        annotate(parse_cotree("(U a)"))
    # a same-kind child at the highest inner id, the sweep's first inner node
    for text in ("(U a (J b c) (J d (J e f)))", "(J a (U b c) (U d (U e f)))"):
        with pytest.raises(NotNormalizedError):
            annotate(parse_cotree(text))


def _caterpillar(levels: int, bottom: str) -> str:
    """Alternating U/J spine of ``levels`` inner nodes with one leaf each;
    the bottom node is ``(bottom y z)``."""
    spine = "".join(f"({'UJ'[i % 2]} x{i} " for i in range(levels - 1))
    return spine + f"({bottom} y z)" + ")" * (levels - 1)


def test_annotate_finds_one_violation_at_the_bottom_of_a_deep_caterpillar():
    levels = 100_000
    parent_kind = "UJ"[(levels - 2) % 2]
    other = "UJ"[(levels - 1) % 2]
    assert annotate(parse_cotree(_caterpillar(levels, other))).node(0).size == levels + 1
    t = parse_cotree(_caterpillar(levels, parent_kind))
    assert not is_normalized(t)
    with pytest.raises(NotNormalizedError):
        annotate(t)


def test_join_rules_at_the_deepest_join_of_a_deep_caterpillar():
    levels = 100_000
    t = parse_cotree(_caterpillar(levels, "UJ"[(levels - 1) % 2]))
    at = annotate(t)
    joins = [v for v, k in enumerate(t.kinds) if k == JOIN]
    deepest = joins[-1]
    assert t.children[deepest] == (len(t) - 2, len(t) - 1)  # (J y z)
    assert property_p_original(deepest, at) and property_p_corrected(deepest, at)
    for v in joins:
        assert property_p_original(v, at) == at.p_original[v]
        assert property_p_corrected(v, at) == at.p_corrected[v]


def test_annotate_runs_no_separate_normalization_pass(monkeypatch, tmp_path):
    calls = []

    def counting(t):
        calls.append(len(t))
        return is_normalized(t)

    # Patch the name wherever a module holds it.  The modules come from
    # sys.modules: the package attribute ``cosec.annotate`` is the function.
    for name in ("cosec.annotate", "cosec.cli", "cosec.cotree"):
        if hasattr(sys.modules[name], "is_normalized"):
            monkeypatch.setattr(sys.modules[name], "is_normalized", counting)
    t = parse_cotree("(J a (U b c) (U d (J e f)))")
    annotate(t)
    assert calls == []
    # cosec annotate: at most the one check inside normalize
    for text in ("(J a (U b c) (U d (J e f)))", "(J a (J b (U c d)))"):
        path = tmp_path / "t.cotree"
        path.write_text(text)
        calls.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["annotate", str(path)]) == 0
        assert len(calls) <= 1


# ---------------------------------------------------------------------------
# the two join verdicts

def test_gk_root_verdicts_split():
    for k in (1, 2, 5):
        at = annotate(g_k(GkSpec(k)))
        root = at.node(0)
        assert root.p_original is False
        assert root.p_corrected is True


def test_c4_root_passes_the_original_rule():
    at = annotate(parse_cotree("(J (U a b) (U c d))"))
    assert at.node(0).p_original is True
    assert at.node(0).p_corrected is True


def test_two_leaves_pass_the_original_rule():
    at = annotate(parse_cotree("(J a b)"))
    assert at.node(0).p_original is True


def test_k33_fails_both_rules():
    at = annotate(parse_cotree("(J (U a b c) (U d e f))"))
    assert at.node(0).p_original is False
    assert at.node(0).p_corrected is False


def test_leaf_plus_r_child_passes_both_clauses():
    at = annotate(parse_cotree("(J a (U b c))"))
    assert at.node(0).p_original is True
    assert at.node(0).p_corrected is True


def test_predicate_functions_match_stored_verdicts(exhaustive8):
    for t in exhaustive8:
        if t.n_leaves() > 6:
            continue
        at = annotate(t)
        for v in range(len(t)):
            if t.kinds[v] == JOIN:
                assert property_p_original(v, at) == at.node(v).p_original
                assert property_p_corrected(v, at) == at.node(v).p_corrected


def test_predicate_functions_reject_non_joins():
    t = parse_cotree("(J a (U b c))")
    at = annotate(t)
    with pytest.raises(NotAJoinError):
        property_p_original(1, at)  # leaf a
    with pytest.raises(NotAJoinError):
        property_p_corrected(2, at)  # the union node


# ---------------------------------------------------------------------------
# cross-node invariants

def test_annotation_invariants_hold_corpus_wide(exhaustive8):
    for t in exhaustive8:
        at = annotate(t)
        for v in range(len(t)):
            a = at.node(v)
            kind = t.kinds[v]
            assert a.gamma_is_one == (a.gamma == 1)
            if a.is_clique:
                assert a.gamma_is_one
            if kind == UNION:
                assert a.label_r is not None and a.union_of_two_cliques is not None
                if a.union_of_two_cliques:
                    assert a.label_r
                assert a.p_original is None and a.p_corrected is None
            elif kind == JOIN:
                assert a.p_original is not None and a.p_corrected is not None
                if a.p_original:
                    assert a.p_corrected
                assert a.label_r is None and a.union_of_two_cliques is None
            else:
                assert a.label_r is None and a.p_original is None


def test_sizes_sum_over_children(exhaustive8):
    for t in exhaustive8[:200]:
        at = annotate(t)
        for v in range(len(t)):
            if t.kinds[v] != LEAF:
                assert at.node(v).size == sum(at.node(c).size for c in t.children[v])


@given(normalized_cotrees())
@settings(deadline=None, max_examples=60)
def test_gamma_matches_oracle_at_every_node(t):
    at = annotate(t)
    for v in range(len(t)):
        g = materialize(subtree(t, v))
        assert at.node(v).gamma == domination_number(g)


@given(normalized_cotrees())
@settings(deadline=None, max_examples=60)
def test_is_clique_matches_oracle_at_every_node(t):
    at = annotate(t)
    for v in range(len(t)):
        assert at.node(v).is_clique == is_complete(materialize(subtree(t, v)))


# ---------------------------------------------------------------------------
# container plumbing

def test_ann_mapping_view():
    t = g_k(GkSpec(1))
    at = annotate(t)
    assert len(at.ann) == len(t) == len(at)
    assert list(at.ann) == list(range(len(t)))
    assert at.ann[0] == at.node(0)
    with pytest.raises(KeyError):
        at.ann[len(t)]


def test_json_nodes_schema():
    at = annotate(g_k(GkSpec(1)))
    nodes = at.to_json_nodes()
    assert [n["id"] for n in nodes] == list(range(8))
    expected_keys = [
        "id", "kind", "children", "size", "is_clique", "gamma",
        "label_r", "union_of_two_cliques", "p_original", "p_corrected",
    ]
    assert all(list(n.keys()) == expected_keys for n in nodes)
    root = nodes[0]
    assert root["kind"] == "join"
    assert root["label_r"] is None
    assert root["p_original"] is False and root["p_corrected"] is True
    leafish = [n for n in nodes if n["kind"] == "leaf"]
    assert all(n["p_original"] is None and n["label_r"] is None for n in leafish)
    json.dumps(nodes)  # serializable as-is
