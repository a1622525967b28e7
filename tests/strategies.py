"""Hypothesis strategies for cotrees, including unnormalized ones."""

import hypothesis.strategies as st

from cosec.cotree import JOIN, UNION, Cotree, from_nested, normalize

# Raw shapes: "L" for a leaf, (kind, [children]) otherwise.  min_size=1
# deliberately permits unary inner nodes so normalization paths get hit.
_raw_shapes = st.recursive(
    st.just("L"),
    lambda kids: st.tuples(
        st.sampled_from((UNION, JOIN)), st.lists(kids, min_size=1, max_size=4)
    ),
    max_leaves=12,
)


def _label_leaves(shape, prefix: str):
    counter = 0

    def walk(node):
        nonlocal counter
        if node == "L":
            lbl = f"{prefix}{counter}"
            counter += 1
            return lbl
        kind, kids = node
        return (kind, [walk(k) for k in kids])

    return walk(shape)


@st.composite
def cotrees(draw, prefix: str = "v") -> Cotree:
    """Arbitrary valid cotrees, unary nodes and same-kind nesting included."""
    return from_nested(_label_leaves(draw(_raw_shapes), prefix))


@st.composite
def normalized_cotrees(draw, prefix: str = "v") -> Cotree:
    return normalize(draw(cotrees(prefix)))


@st.composite
def deep_caterpillars(draw) -> tuple[str, list[str]]:
    """Cotree text 2,000–20,000 nested levels deep, and the kinds of its
    branching levels top-down.  A drawn pattern of levels repeats down the
    spine: each level keeps its parent's kind (a same-kind run) or flips it,
    and holds a leaf before its nested level, after it, or none (a unary
    wrapper)."""
    levels = draw(st.integers(2_000, 20_000))
    pattern = draw(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(("before", "after", None))),
            min_size=1,
            max_size=8,
        )
    )
    opens, closes, spine, kind = [], [], [], UNION
    for i in range(levels):
        flip, leaf = pattern[i % len(pattern)]
        if flip:
            kind = JOIN if kind == UNION else UNION
        op = "J" if kind == JOIN else "U"
        opens.append(f"({op} x{i} " if leaf == "before" else f"({op} ")
        closes.append(f" x{i})" if leaf == "after" else ")")
        if leaf:
            spine.append(kind)
    return "".join(opens) + "end" + "".join(reversed(closes)), spine
