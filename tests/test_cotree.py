import json
import random
import re
import tracemalloc

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from cosec.annotate import annotate
from cosec.cotree import (
    JOIN,
    LEAF,
    UNION,
    Cotree,
    _node_paths,
    _subtree_end,
    complement,
    from_nested,
    is_normalized,
    iter_set_bits,
    join,
    lca_kind,
    leaf,
    materialize,
    node_paths,
    normalize,
    parse_cotree,
    subtree,
    to_dot,
    to_json,
    to_text,
    union,
)
from cosec.errors import CotreeParseError, UnknownLeafError

from helpers import (
    canonical_key,
    deep_unnormalized_caterpillar,
    reference_paths,
    reordered_children,
    shape_key,
)
from strategies import cotrees, deep_caterpillars, normalized_cotrees

G1_TEXT = "(J (U c d e) (U (J a1) b))"
G1_EDGES = {
    frozenset(e) for e in (("b", "c"), ("b", "d"), ("b", "e"),
                           ("a1", "c"), ("a1", "d"), ("a1", "e"))
}


# ---------------------------------------------------------------------------
# parsing

def test_parse_g1_shape():
    t = parse_cotree(G1_TEXT)
    assert t.n_leaves() == 5
    assert t.kinds[t.root] == JOIN
    assert sorted(t.labels[v] for v in t.leaves()) == ["a1", "b", "c", "d", "e"]


def test_parse_single_leaf():
    t = parse_cotree("x")
    assert len(t) == 1 and t.kinds[0] == LEAF and t.labels[0] == "x"


def test_parse_accepts_unnormalized_input():
    t = parse_cotree("(U a (U b c))")
    assert not is_normalized(t)
    # and unary nodes too
    assert parse_cotree("(J (J a b))").n_leaves() == 2


def test_parse_is_whitespace_liberal():
    assert parse_cotree("  (J\n\ta\r\n  b )\n") == parse_cotree("(J a b)")


def test_operator_names_are_legal_leaf_labels():
    t = parse_cotree("(U U J)")
    assert sorted(t.labels[v] for v in t.leaves()) == ["J", "U"]


@pytest.mark.parametrize(
    "text, offset, fragment",
    [
        ("(U a", 4, "unclosed"),
        ("(U a b))", 7, "unbalanced"),
        ("(X a b)", 1, "expected operator"),
        ("(U a a)", 5, "duplicate leaf label"),
        ("(U)", 2, "empty node"),
        ("(U a) b", 6, "trailing content"),
        ("a b", 2, "trailing content"),
        ("(U a) ,", 6, "unexpected character"),
        ("a a", 2, "duplicate leaf label"),
        ("(U a,b)", 4, "unexpected character"),
        ("", 0, "empty input"),
        ("   ", 0, "empty input"),
        (")", 0, "unbalanced"),
    ],
)
def test_parse_errors_carry_byte_offsets(text, offset, fragment):
    with pytest.raises(CotreeParseError) as exc_info:
        parse_cotree(text)
    assert exc_info.value.offset == offset
    assert fragment in str(exc_info.value)
    assert f"at byte {offset}" in str(exc_info.value)


def test_parse_rejects_non_ascii_with_offset():
    with pytest.raises(CotreeParseError) as exc_info:
        parse_cotree("(U à b)")
    assert exc_info.value.offset == 3
    assert "unexpected character" in str(exc_info.value)


@given(cotrees())
@settings(deadline=None)
def test_round_trip_parse_print(t):
    assert parse_cotree(to_text(t)) == t


@given(cotrees(), st.integers(0, 2**32))
@settings(deadline=None)
def test_parse_tolerates_extra_whitespace(t, seed):
    rng = random.Random(seed)
    text = to_text(t)
    loose = "".join(
        ch + rng.choice(["", " ", "\n", "  ", "\t"]) if ch in "() " else ch
        for ch in text
    )
    assert parse_cotree(" " + loose + "\n") == t


# ---------------------------------------------------------------------------
# printing

def test_to_text_canonical_spacing():
    assert to_text(parse_cotree("( J  a ( U b c ) )")) == "(J a (U b c))"


def test_to_dot_marks_inner_nodes():
    dot = to_dot(parse_cotree("(J a (U b c))"))
    assert '[label="+"]' in dot and '[label="∪"]' in dot
    assert '[label="a"]' in dot
    assert "n0 -- n1" in dot


def test_to_json_schema():
    doc = to_json(parse_cotree("(U a b)"))
    assert doc["root"] == 0
    assert doc["nodes"][0] == {"id": 0, "kind": "union", "label": None, "children": [1, 2]}
    assert doc["nodes"][1] == {"id": 1, "kind": "leaf", "label": "a", "children": []}
    json.dumps(doc)  # must be serializable as-is


# ---------------------------------------------------------------------------
# normalization

def test_normalize_flattens_same_kind_nesting():
    t = normalize(parse_cotree("(U a (U b c))"))
    assert to_text(t) == "(U a b c)"


def test_normalize_collapses_unary_nodes():
    assert to_text(normalize(parse_cotree("(J (J a b))"))) == "(J a b)"
    assert to_text(normalize(parse_cotree("(U (J (U x)))"))) == "x"


def test_normalize_keeps_normalized_trees_as_is():
    t = parse_cotree("(U (J a1 a2) b)")
    assert normalize(t) is t


@given(normalized_cotrees())
@settings(deadline=None)
def test_normalize_returns_a_normalized_tree_itself(t):
    assert normalize(t) is t


@given(cotrees())
@settings(deadline=None)
def test_normalize_is_idempotent(t):
    tn = normalize(t)
    assert is_normalized(tn)
    assert normalize(tn) == tn


@given(cotrees())
@settings(deadline=None)
def test_normalize_preserves_the_graph(t):
    ga, gb = materialize(t), materialize(normalize(t))
    assert set(ga.labels) == set(gb.labels)
    assert ga.edge_labels() == gb.edge_labels()


# ---------------------------------------------------------------------------
# materialization

def test_materialize_join_and_union_of_two():
    k2 = materialize(parse_cotree("(J a b)"))
    assert k2.edge_count() == 1 and k2.has_edge(0, 1)
    e2 = materialize(parse_cotree("(U a b)"))
    assert e2.edge_count() == 0


def test_materialize_g1_edge_set():
    g = materialize(parse_cotree(G1_TEXT))
    assert g.n == 5
    assert g.edge_labels() == G1_EDGES


def test_materialize_vertex_order_follows_leaf_ids():
    g = materialize(parse_cotree("(J (U c d e) (U (J a1) b))"))
    assert g.labels == ("c", "d", "e", "a1", "b")


def test_graph_degree_and_edges():
    g = materialize(parse_cotree("(J a (U b c))"))  # P3 centered at a
    assert g.degree(g.index_of("a")) == 2
    assert g.degree(g.index_of("b")) == 1
    assert sorted(g.edges()) == [(0, 1), (0, 2)]
    with pytest.raises(UnknownLeafError):
        g.index_of("nope")


def test_iter_set_bits():
    assert list(iter_set_bits(0b101001)) == [0, 3, 5]
    assert list(iter_set_bits(0)) == []


# ---------------------------------------------------------------------------
# complement

def test_complement_swaps_kinds():
    assert to_text(complement(parse_cotree("(J a b)"))) == "(U a b)"


def test_complement_of_c4_is_2k2():
    comp = complement(parse_cotree("(J (U a b) (U c d))"))
    assert to_text(comp) == "(U (J a b) (J c d))"
    g = materialize(comp)
    assert g.edge_labels() == {frozenset(("a", "b")), frozenset(("c", "d"))}


@given(cotrees())
@settings(deadline=None)
def test_complement_is_an_involution(t):
    assert complement(complement(t)) == t


@given(cotrees())
@settings(deadline=None)
def test_complement_materializes_to_graph_complement(t):
    g = materialize(t)
    gc = materialize(complement(t))
    all_pairs = {
        frozenset((g.labels[u], g.labels[v]))
        for u in range(g.n)
        for v in range(u + 1, g.n)
    }
    assert gc.edge_labels() == all_pairs - g.edge_labels()


# ---------------------------------------------------------------------------
# structure helpers

def test_lca_kind_matches_adjacency():
    t = parse_cotree(G1_TEXT)
    assert lca_kind(t, "b", "c") == JOIN
    assert lca_kind(t, "c", "d") == UNION
    assert lca_kind(parse_cotree("(J a b)"), "a", "b") == JOIN


def test_lca_kind_rejects_bad_leaves():
    t = parse_cotree("(J a b)")
    with pytest.raises(UnknownLeafError):
        lca_kind(t, "a", "zz")
    with pytest.raises(ValueError):
        lca_kind(t, "a", "a")


@given(cotrees())
@settings(deadline=None, max_examples=50)
def test_lca_kind_agrees_with_materialize(t):
    g = materialize(t)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            expected = JOIN if g.has_edge(u, v) else UNION
            assert lca_kind(t, g.labels[u], g.labels[v]) == expected


def test_leaf_builds_its_one_node_and_rejects_bad_labels():
    assert leaf("a1") == from_nested("a1") == parse_cotree("a1")
    for bad in ("", "a b", "a(", "é"):
        with pytest.raises(ValueError, match="bad leaf label"):
            leaf(bad)


def test_union_join_builders():
    t = join(leaf("a"), union(leaf("b"), leaf("c")))
    assert to_text(t) == "(J a (U b c))"
    with pytest.raises(ValueError):
        join(leaf("a"))
    with pytest.raises(ValueError):
        union(leaf("a"), leaf("a"))  # clashing labels


@given(cotrees(prefix="v"), cotrees(prefix="w"))
@settings(deadline=None)
def test_de_morgan_join_identity(t1, t2):
    direct = materialize(join(t1, t2))
    via_complement = materialize(
        complement(union(complement(t1), complement(t2)))
    )
    assert direct.edge_labels() == via_complement.edge_labels()


def test_subtree_reindexes_from_zero():
    t = parse_cotree(G1_TEXT)
    right = t.children[t.root][1]
    sub = subtree(t, right)
    assert sub.root == 0
    assert to_text(sub) == "(U (J a1) b)"
    sub.validate()
    with pytest.raises(ValueError):
        subtree(t, 99)


@given(cotrees(prefix="v"), cotrees(prefix="w"))
@settings(deadline=None)
def test_array_constructors_match_their_definitions(t1, t2):
    for v in range(len(t1)):
        sub = subtree(t1, v)
        sub.validate()
        assert canonical_key(sub) == canonical_key(t1, v)
    assert to_text(join(t1, t2)) == f"(J {to_text(t1)} {to_text(t2)})"
    assert to_text(union(t1, t2)) == f"(U {to_text(t1)} {to_text(t2)})"


def _check_deep_caterpillar(text: str, spine: list[str]) -> tuple[Cotree, int]:
    """Every stage on caterpillar text and the kinds of its branching levels;
    returns the normalized tree and the inner node whose subtree was checked."""
    t = parse_cotree(text)
    assert len(t) == text.count("(") + len(spine) + 1

    tn = normalize(t)
    assert is_normalized(tn)
    # one inner node per run of equal kinds along the branching spine levels
    runs = bool(spine) + sum(a != b for a, b in zip(spine, spine[1:]))
    assert len(tn) - tn.n_leaves() == runs
    assert [tn.labels[v] for v in tn.leaves()] == [t.labels[v] for v in t.leaves()]
    assert annotate(tn).node(tn.root).size == len(spine) + 1

    text = to_text(tn)
    assert parse_cotree(text) == tn
    inner = [v for v in range(len(tn)) if not tn.is_leaf(v)]
    mid = inner[len(inner) // 2] if inner else tn.root
    sub = subtree(tn, mid)
    assert to_text(sub) in text
    assert canonical_key(sub) == canonical_key(tn, mid)
    assert (shape_key(t) == shape_key(tn)) == is_normalized(t)
    return tn, mid


def test_deep_unnormalized_caterpillar_end_to_end():
    tn, mid = _check_deep_caterpillar(*deep_unnormalized_caterpillar(100_000))
    # a caterpillar's spine node owns the rest when every leaf comes first
    assert len(subtree(tn, mid)) == len(tn) - mid


@given(deep_caterpillars())
@settings(max_examples=12, deadline=None)
def test_drawn_deep_caterpillars_end_to_end(caterpillar):
    _check_deep_caterpillar(*caterpillar)


@given(deep_caterpillars())
@settings(max_examples=8, deadline=None)
def test_drawn_deep_caterpillars_through_the_public_functions(caterpillar):
    text, spine = caterpillar
    t = parse_cotree(text)
    n = len(t)

    dot = to_dot(t).splitlines()
    edges = [line for line in dot if " -- " in line]
    assert len(dot) == 2 + n + len(edges) + 1 and len(edges) == n - 1
    assert sorted(int(e.rsplit("n", 1)[1][:-1]) for e in edges) == list(range(1, n))
    doc = to_json(t)
    assert doc["root"] == 0 and len(doc["nodes"]) == n
    rebuilt = Cotree(
        tuple(d["kind"] for d in doc["nodes"]),
        tuple(tuple(d["children"]) for d in doc["nodes"]),
        tuple(d["label"] for d in doc["nodes"]),
    )
    assert rebuilt == t

    # the leaf x{i} hangs off level i, so its lca with anything below that
    # level is the level's node: the spine's kinds top-down, one per leaf
    xs = sorted(
        (lbl for lbl in t.labels if lbl and lbl != "end"), key=lambda x: int(x[1:])
    )
    assert len(xs) == len(spine)
    flipped = complement(t)
    swap = {LEAF: LEAF, UNION: JOIN, JOIN: UNION}
    assert flipped.kinds == tuple(swap[k] for k in t.kinds)
    assert complement(flipped) == t
    for j in {0, len(spine) // 2, len(spine) - 1} if spine else ():
        assert lca_kind(t, xs[j], "end") == spine[j]
        assert lca_kind(flipped, xs[j], "end") == swap[spine[j]]
    if len(spine) >= 2:
        assert lca_kind(t, xs[-1], xs[0]) == spine[0]

    nested: list = [None] * n
    for v in reversed(range(n)):
        nested[v] = t.labels[v] if t.is_leaf(v) else (
            t.kinds[v], [nested[c] for c in t.children[v]]
        )
    assert from_nested(nested[0]) == t


def _caterpillar(prefix: str, leaves: int) -> Cotree:
    """(U p0 (J p1 (U p2 … p{leaves-1}))): one leaf and one inner node per level."""
    parts = [f"({'UJ'[i % 2]} {prefix}{i} " for i in range(leaves - 1)]
    return parse_cotree("".join(parts) + f"{prefix}{leaves - 1}" + ")" * (leaves - 1))


def test_keys_of_a_join_of_two_deep_caterpillars():
    # Equal shapes 10**5 levels deep: nested keys would compare level by level.
    t = join(_caterpillar("x", 100_000), _caterpillar("y", 100_000))
    top = shape_key(t)[-1]  # the root is the one node of the top height
    assert len(top) == 1 and top[0][0] == JOIN
    first, second = top[0][2]
    assert first == second
    first, second = canonical_key(t)[-1][0][2]
    assert first != second


def test_public_functions_on_a_deep_caterpillar():
    leaves = 100_000
    t = _caterpillar("x", leaves)  # inner node i has kind "UJ"[i % 2]
    last = len(t) - 1

    dot = to_dot(t).splitlines()
    assert len(dot) == 2 + len(t) + (len(t) - 1) + 1
    assert f"  n{last - 2} -- n{last};" in dot
    nodes = to_json(t)["nodes"]
    assert len(nodes) == len(t)
    assert nodes[last - 2]["children"] == [last - 1, last]

    flipped = complement(t)
    assert flipped.kinds[last - 2] == JOIN and complement(flipped) == t
    deep = f"x{leaves - 1}"
    assert lca_kind(t, f"x{leaves - 2}", deep) == UNION
    assert lca_kind(t, f"x{leaves - 3}", deep) == JOIN
    assert lca_kind(t, "x0", deep) == UNION
    assert to_text(union(t, leaf("y"))) == f"(U {to_text(t)} y)"

    nested = deep
    for i in reversed(range(leaves - 1)):
        nested = ((UNION, JOIN)[i % 2], [f"x{i}", nested])
    assert from_nested(nested) == t  # validate walks it too


def test_node_paths():
    t = parse_cotree("(J a (U b c))")
    assert node_paths(t) == ("root", "root.0", "root.1", "root.1.0", "root.1.1")


@given(normalized_cotrees())
@settings(max_examples=200, deadline=None)
def test_node_paths_match_the_reference_definition(t):
    paths = node_paths(t)
    assert paths == tuple(reference_paths(t))
    assert _node_paths(t)[0] == max(map(len, paths))


def test_node_paths_with_multi_digit_child_indices():
    # root.0.10 has two children, whose paths are the widest; root.0.100 has
    # a three-digit index
    text = (
        "(U (J " + " ".join(f"x{i}" for i in range(10)) + " (U a b) "
        + " ".join(f"y{i}" for i in range(11, 101)) + ") c)"
    )
    t = parse_cotree(text)
    paths = node_paths(t)
    assert paths == tuple(reference_paths(t))
    assert {"root.0.10.1", "root.0.100", "root.1"} <= set(paths)
    assert _node_paths(t)[0] == len("root.0.10.1")


def test_node_paths_of_a_deep_caterpillar_stream_in_o_depth_memory():
    t = _caterpillar("x", 20_000)
    width, paths = _node_paths(t)
    for path, expected in zip(paths, reference_paths(t), strict=True):
        assert path == expected
    assert width == len(path) == len("root") + 2 * (20_000 - 1)
    total = 0
    tracemalloc.start()
    try:
        for path in _node_paths(t)[1]:
            total += len(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total > 4 * 10**8  # O(n·depth) characters in all
    assert peak < total // 100


@given(cotrees(), st.integers(0, 2**32))
@settings(deadline=None)
def test_canonical_key_ignores_child_order(t, seed):
    shuffled = reordered_children(t, random.Random(seed).shuffle)
    assert canonical_key(shuffled) == canonical_key(t)


def _nested_key(t: Cotree, root: int, with_labels: bool):
    """The nested-tuple key that the height-interned keys replaced, verbatim."""
    res: dict[int, tuple] = {}
    for v in reversed(range(root, _subtree_end(t, root))):
        if t.kinds[v] == LEAF:
            res[v] = ("L", t.labels[v]) if with_labels else ("L",)
        else:
            res[v] = (t.kinds[v], tuple(sorted(res[c] for c in t.children[v])))
    return res[root]


@given(cotrees(), cotrees(), st.integers(0, 2**32))
@settings(deadline=None)
def test_keys_are_equal_exactly_when_the_nested_keys_are(t1, t2, seed):
    shuffled = reordered_children(t1, random.Random(seed).shuffle)
    trees = (t1, normalize(t1), shuffled, t2, normalize(t2))
    nodes = [(t, v) for t in trees for v in range(len(t))]
    for key, with_labels in ((canonical_key, True), (shape_key, False)):
        new = [key(t, v) for t, v in nodes]
        old = [_nested_key(t, v, with_labels) for t, v in nodes]
        for i in range(len(nodes)):
            for j in range(i):
                assert (new[i] == new[j]) == (old[i] == old[j])


def test_canonical_key_distinguishes_labels_and_kinds():
    assert canonical_key(parse_cotree("(U a b)")) != canonical_key(parse_cotree("(J a b)"))
    assert canonical_key(parse_cotree("(U a b)")) != canonical_key(parse_cotree("(U a c)"))


@given(cotrees())
@settings(deadline=None)
def test_from_nested_output_validates(t):
    t.validate()


def test_validate_rejects_broken_trees():
    with pytest.raises(ValueError):
        Cotree(kinds=(UNION,), children=((),), labels=(None,)).validate()
    with pytest.raises(ValueError):
        # ids not in pre-order: root lists its children right-to-left
        Cotree(
            kinds=(UNION, LEAF, LEAF),
            children=((2, 1), (), ()),
            labels=(None, "a", "b"),
            root=0,
        ).validate()


@pytest.mark.parametrize(
    "tree, message",
    [
        (Cotree((LEAF,), (), ("a",)), "inconsistent node arrays"),
        (Cotree((LEAF,), ((),), ("a",), root=1), "root must be node 0"),
        (Cotree((LEAF, LEAF), ((1,), ()), ("a", "b")), "leaf 0 has children"),
        (
            Cotree((UNION, LEAF, LEAF), ((1, 2), (), ()), ("u", "a", "b")),
            "inner node 0 carries a label",
        ),
        (Cotree(("star", LEAF), ((1,), ()), (None, "a")), "unknown node kind 'star'"),
        (
            Cotree(
                (UNION, LEAF, LEAF, LEAF), ((1, 2), (), (), ()), (None, "a", "b", "c")
            ),
            "unreachable nodes present",
        ),
    ],
)
def test_validate_names_the_broken_invariant(tree, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tree.validate()


def test_leaf_id_lookup():
    t = parse_cotree("(U a b)")
    assert t.labels[t.leaf_id("b")] == "b"
    with pytest.raises(UnknownLeafError):
        t.leaf_id("zz")
