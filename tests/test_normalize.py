"""``cosec.cotree.normalize`` against the body it replaced, kept here
verbatim as the reference: equal arrays on every tree tried.  The new body
turns each kept node's child list into a tuple as the pass leaves it."""

from hypothesis import given, settings

from cosec.cotree import LEAF, Cotree, is_normalized, normalize, parse_cotree

from helpers import deep_unnormalized_caterpillar
from strategies import cotrees


def reference_normalize(t: Cotree) -> Cotree:
    """Collapse unary nodes and flatten same-kind nesting.

    Idempotent; the induced graph is unchanged (leaves keep their labels).
    A tree that is already normalized is returned as is.  Otherwise,
    contraction keeps the pre-order of the remaining nodes, so this is one
    forward pass.
    """
    if is_normalized(t):
        return t
    kinds, children, labels = t.kinds, t.children, t.labels
    up = [-1] * len(t)  # new id of each node's nearest kept proper ancestor
    out_kinds: list[str] = []
    out_children: list[list[int] | tuple[()]] = []
    out_labels: list[str | None] = []
    for v in range(len(t)):
        kind = kinds[v]
        anchor = up[v]
        # kept: leaves, and branching nodes whose kind differs from the anchor's
        if kind == LEAF or (
            len(children[v]) >= 2 and (anchor < 0 or out_kinds[anchor] != kind)
        ):
            if anchor >= 0:
                out_children[anchor].append(len(out_kinds))
            anchor = len(out_kinds)
            out_kinds.append(kind)
            out_children.append(() if kind == LEAF else [])
            out_labels.append(labels[v])
        for c in children[v]:
            up[c] = anchor
    return Cotree(tuple(out_kinds), tuple(map(tuple, out_children)), tuple(out_labels))


def _check(t: Cotree) -> Cotree:
    tn = normalize(t)
    assert tn == reference_normalize(t)
    assert all(type(ch) is tuple for ch in tn.children)
    assert normalize(tn) is tn  # already normalized: returned as is
    return tn


@given(cotrees())
@settings(deadline=None, max_examples=500)
def test_normalize_matches_the_reference_on_unnormalized_trees(t):
    _check(t)


def test_normalize_matches_the_reference_on_a_deep_caterpillar():
    text, spine = deep_unnormalized_caterpillar(100_000)
    t = parse_cotree(text)
    assert not is_normalized(t)
    assert _check(t).n_leaves() == len(spine) + 1


def _tree(*nodes: tuple[str, tuple[int, ...], str | None]) -> Cotree:
    """A cotree built directly from (kind, children, label) rows, so unary
    nodes and labelled inner nodes pass without validate()."""
    kinds, children, labels = zip(*nodes)
    return Cotree(kinds, children, labels)


def test_normalize_makes_a_wrapped_leaf_the_root():
    # (U (J (U a)))
    t = _tree(("union", (1,), None), ("join", (2,), None), ("union", (3,), None),
              ("leaf", (), "a"))
    assert _check(t) == _tree((LEAF, (), "a"))


def test_normalize_closes_a_kept_node_before_a_later_leaf():
    # (U (U (J a b)) c): the join closes before c joins the root
    t = _tree(("union", (1, 5), None), ("union", (2,), None), ("join", (3, 4), None),
              ("leaf", (), "a"), ("leaf", (), "b"), ("leaf", (), "c"))
    assert _check(t) == _tree(("union", (1, 4), None), ("join", (2, 3), None),
                              ("leaf", (), "a"), ("leaf", (), "b"), ("leaf", (), "c"))


def test_normalize_copies_the_label_of_a_kept_inner_node():
    # (U (U (J:x a b)) c): a label on an inner node is kept as it is
    t = _tree(("union", (1, 5), "r"), ("union", (2,), "gone"), ("join", (3, 4), "x"),
              ("leaf", (), "a"), ("leaf", (), "b"), ("leaf", (), "c"))
    assert _check(t).labels == ("r", "x", "a", "b", "c")
