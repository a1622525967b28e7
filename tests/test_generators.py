import hashlib
import random
from collections import Counter
from itertools import combinations, count

import pytest

from cosec.cotree import (
    _KIND_OF_OP,
    _OPPOSITE,
    JOIN,
    LEAF,
    UNION,
    Cotree,
    from_nested,
    is_normalized,
    leaf,
    materialize,
    normalize,
    parse_cotree,
    to_text,
)
from cosec.generators import (
    GkSpec,
    RandomSpec,
    _shapes,
    enumerate_cotrees,
    g_k,
    random_corpus,
    random_cotree,
)

from helpers import canonical_key, independent_shape_counts, shape_key

# Shape counts for 1..8 leaves, recorded from the enumerator and verified
# against the independent generating-function count below (and by hand for
# n <= 4).  These match the known census of unlabeled cographs per order.
EXPECTED_COUNTS = [1, 2, 4, 10, 24, 66, 180, 522]


# ---------------------------------------------------------------------------
# g_k

def test_gk_spec_validation():
    with pytest.raises(ValueError):
        GkSpec(0)
    with pytest.raises(ValueError):
        GkSpec(-3)


def test_g1_collapses_the_unary_join():
    assert to_text(g_k(GkSpec(1))) == "(J (U c d e) (U a1 b))"


def test_g3_keeps_the_inner_join():
    assert "(J a1 a2 a3)" in to_text(g_k(GkSpec(3)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_gk_edge_set_matches_the_formula(k):
    g = materialize(g_k(GkSpec(k)))
    a = [f"a{i}" for i in range(1, k + 1)]
    expected = {frozenset(p) for p in combinations(a, 2)}
    expected |= {frozenset(("b", x)) for x in "cde"}
    expected |= {frozenset((ai, x)) for ai in a for x in "cde"}
    assert g.edge_labels() == expected


def _nested_g_k(spec: GkSpec) -> Cotree:
    """The nested-tuple build that ``g_k`` replaced, verbatim."""
    a_side = (JOIN, [f"a{i}" for i in range(1, spec.k + 1)])
    nested = (JOIN, [(UNION, ["c", "d", "e"]), (UNION, [a_side, "b"])])
    return normalize(from_nested(nested))


@pytest.mark.parametrize("k", range(1, 9))
def test_gk_equals_the_nested_build(k):
    assert g_k(GkSpec(k)) == _nested_g_k(GkSpec(k))


def test_gk_sizes_through_k50():
    for k in range(1, 51):
        g = materialize(g_k(GkSpec(k)))
        assert g.n == k + 4
        assert g.edge_count() == k * (k - 1) // 2 + 3 * k + 3


# ---------------------------------------------------------------------------
# random_cotree

def test_random_spec_validation():
    with pytest.raises(ValueError):
        RandomSpec(leaf_count=0, seed=1)
    with pytest.raises(ValueError):
        RandomSpec(leaf_count=5, seed=1, max_arity=1)


def test_random_cotree_is_deterministic():
    spec = RandomSpec(leaf_count=10, seed=42)
    assert random_cotree(spec) == random_cotree(spec)


def test_random_cotree_single_leaf():
    t = random_cotree(RandomSpec(leaf_count=1, seed=9))
    assert len(t) == 1 and t.labels[0] == "v0"


@pytest.mark.parametrize("leaves,seed", [(2, 0), (7, 1), (14, 2), (30, 3), (100, 4)])
def test_random_cotree_is_normalized_with_exact_leaf_count(leaves, seed):
    t = random_cotree(RandomSpec(leaf_count=leaves, seed=seed))
    assert is_normalized(t)
    assert t.n_leaves() == leaves


def test_random_cotree_respects_max_arity():
    for seed in range(5):
        t = random_cotree(RandomSpec(leaf_count=40, seed=seed, max_arity=3))
        for v in range(len(t)):
            if t.kinds[v] != LEAF:
                assert 2 <= len(t.children[v]) <= 3
    binary = random_cotree(RandomSpec(leaf_count=33, seed=11, max_arity=2))
    assert all(
        len(binary.children[v]) == 2
        for v in range(len(binary))
        if binary.kinds[v] != LEAF
    )


def test_random_cotree_varies_with_seed():
    trees = {
        canonical_key(random_cotree(RandomSpec(leaf_count=12, seed=s)))
        for s in range(8)
    }
    assert len(trees) > 1


def _nested_random_cotree(spec: RandomSpec) -> Cotree:
    """The nested-list builder that ``random_cotree`` replaced, verbatim: the
    reference its pre-order arrays must equal."""
    rng = random.Random(spec.seed)
    if spec.leaf_count == 1:
        return leaf("v0")
    counter = 0

    def next_label() -> str:
        nonlocal counter
        lbl = f"v{counter}"
        counter += 1
        return lbl

    root: list = [rng.choice((UNION, JOIN)), []]
    stack: list[tuple[list, int]] = [(root, spec.leaf_count)]
    while stack:
        node, budget = stack.pop()
        arity = rng.randint(2, min(spec.max_arity, budget))
        cuts = sorted(rng.sample(range(1, budget), arity - 1))
        bounds = [0, *cuts, budget]
        parts = [bounds[i + 1] - bounds[i] for i in range(arity)]
        child_kind = _OPPOSITE[node[0]]
        inner: list[tuple[list, int]] = []
        for part in parts:
            if part == 1:
                node[1].append(next_label())
            else:
                child: list = [child_kind, []]
                node[1].append(child)
                inner.append((child, part))
        stack.extend(reversed(inner))
    return from_nested(root)


@pytest.mark.parametrize("max_arity", [2, 3, 4, 7, 10, 30])
def test_random_cotree_equals_the_nested_builder(max_arity):
    for seed in range(250):
        for leaves in (1, 2, 3, 5, 9, 16, 41):
            spec = RandomSpec(leaf_count=leaves, seed=seed, max_arity=max_arity)
            assert random_cotree(spec) == _nested_random_cotree(spec)
    spec = RandomSpec(leaf_count=3000, seed=max_arity, max_arity=max_arity)
    assert random_cotree(spec) == _nested_random_cotree(spec)


# sha256 of the corpora's text, recorded before ``random_cotree`` called
# ``Random.sample``.  The nested builder above draws through ``sample`` too,
# so only these catch a Python whose ``sample`` draws differently.  The
# random text runs both of ``sample``'s branches, the pool and the set.
@pytest.mark.parametrize(
    "trees, digest",
    [
        (
            lambda: [
                *random_corpus(300, 40, 5),
                *(random_cotree(RandomSpec(3000, a, a)) for a in (7, 10, 30)),
            ],
            "40bd4bee60c1c7e22a1eca09b23b017a29044d75a6877da4aab3aab48bf396bd",
        ),
        (
            lambda: enumerate_cotrees(9),
            "1d7fc87c19ba0f549e79fcabbba194dbcff85695d9a564ae3c39b826207a7463",
        ),
    ],
    ids=["random", "exhaustive9"],
)
def test_corpora_keep_their_bytes(trees, digest):
    text = "\n".join(map(to_text, trees()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_corpus_is_deterministic_and_bounded():
    a = list(random_corpus(50, 9, seed=5))
    b = list(random_corpus(50, 9, seed=5))
    assert a == b
    assert len(a) == 50
    assert all(1 <= t.n_leaves() <= 9 for t in a)
    assert all(is_normalized(t) for t in a)
    assert list(random_corpus(10, 9, seed=6)) != a[:10]


# ---------------------------------------------------------------------------
# exhaustive enumeration

def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(enumerate_cotrees(0))
    with pytest.raises(ValueError):
        list(enumerate_cotrees(11))


def test_enumeration_base_cases():
    ones = list(enumerate_cotrees(1))
    assert len(ones) == 1 and len(ones[0]) == 1
    twos = list(enumerate_cotrees(2))
    assert [to_text(t) for t in twos] == ["v0", "(U v0 v1)", "(J v0 v1)"]


def test_enumeration_counts_match_recorded_and_independent_values(exhaustive8):
    per_n = Counter(t.n_leaves() for t in exhaustive8)
    assert [per_n[n] for n in range(1, 9)] == EXPECTED_COUNTS
    dp = independent_shape_counts(8)
    assert [dp[n] for n in range(1, 9)] == EXPECTED_COUNTS


def test_enumeration_yields_no_duplicates(exhaustive8):
    keys = [canonical_key(t) for t in exhaustive8]
    assert len(keys) == len(set(keys))
    # stricter: also unique ignoring the auto labels
    skeys = [shape_key(t) for t in exhaustive8]
    assert len(skeys) == len(set(skeys))


def test_enumeration_output_is_normalized(exhaustive8):
    assert all(is_normalized(t) for t in exhaustive8)


def test_enumeration_labels_leaves_in_preorder(exhaustive8):
    for t in exhaustive8[:300]:
        labels = [t.labels[v] for v in t.leaves()]
        assert labels == [f"v{i}" for i in range(len(labels))]


def test_enumeration_contains_c4():
    c4 = shape_key(parse_cotree("(J (U a b) (U c d))"))
    assert any(shape_key(t) == c4 for t in enumerate_cotrees(4))


def test_enumeration_alternates_kinds(exhaustive8):
    for t in exhaustive8:
        for v in range(len(t)):
            for c in t.children[v]:
                if t.kinds[c] != LEAF:
                    assert t.kinds[c] != t.kinds[v]


# The nested-tuple enumerator that the flat shape strings replaced, verbatim
# but for the names and the n = 1 case taken out of the loop: the reference the corpus must equal, tree for tree and
# in order.
_L = ("L",)


def _nested_shapes(n: int, op: str, memo: dict) -> tuple[tuple, ...]:
    key = (n, op)
    if key in memo:
        return memo[key]
    other = "J" if op == "U" else "U"
    candidates: list[tuple[int, tuple]] = [(1, _L)]
    for m in range(2, n):
        candidates.extend((m, s) for s in _nested_shapes(m, other, memo))
    out: list[tuple] = []
    picked: list[tuple] = []

    def extend(lo: int, remaining: int) -> None:
        if remaining == 0:
            if len(picked) >= 2:
                out.append((op, *sorted(picked)))
            return
        for j in range(lo, len(candidates)):
            weight, shape = candidates[j]
            if weight <= remaining:
                picked.append(shape)
                extend(j, remaining - weight)
                picked.pop()

    extend(0, n)
    memo[key] = tuple(out)
    return memo[key]


def _nested_shape_to_cotree(shape: tuple) -> Cotree:
    counter = 0

    def conv(s: tuple):
        nonlocal counter
        if s == _L:
            lbl = f"v{counter}"
            counter += 1
            return lbl
        return (_KIND_OF_OP[s[0]], [conv(child) for child in s[1:]])

    return from_nested(conv(shape))


def _nested_enumerate_cotrees(max_leaves: int) -> list[Cotree]:
    memo: dict = {}
    out = [leaf("v0")]
    for n in range(2, max_leaves + 1):
        for op in ("U", "J"):
            out.extend(map(_nested_shape_to_cotree, _nested_shapes(n, op, memo)))
    return out


@pytest.mark.parametrize("max_leaves", range(1, 11))
def test_enumeration_equals_the_nested_reference(max_leaves):
    assert list(enumerate_cotrees(max_leaves)) == _nested_enumerate_cotrees(max_leaves)


def _shape_text(shape: str) -> str:
    """The cotree text the corpus was once parsed from: "(U"/"(J" opens a
    node, ")" closes it, and the leaves are v0, v1, … in pre-order."""
    labels = count()
    ops = {"U": "(U", "J": "(J", ")": ")"}
    return " ".join(ops.get(c) or f"v{next(labels)}" for c in shape)


@pytest.mark.parametrize("max_leaves", range(1, 9))
def test_enumeration_equals_the_parsed_shape_text(max_leaves):
    shapes = ["L"] + [
        s for n in range(2, max_leaves + 1) for op in ("U", "J") for s in _shapes(n, op)
    ]
    trees = list(enumerate_cotrees(max_leaves))
    assert len(trees) == len(shapes)
    for t, shape in zip(trees, shapes):
        ref = parse_cotree(_shape_text(shape))
        assert (t.kinds, t.children, t.labels) == (ref.kinds, ref.children, ref.labels)
