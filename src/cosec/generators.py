"""Corpus generators: the G_k counterexample family, seeded random cotrees,
and an exhaustive enumerator of small normalized cotree shapes."""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil, log
from typing import Iterator

from .cotree import _OPPOSITE, JOIN, LEAF, UNION, Cotree, leaf, normalize, parse_cotree


@dataclass(frozen=True)
class GkSpec:
    """Parameter for the counterexample family; k is the clique size."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class RandomSpec:
    leaf_count: int
    seed: int
    max_arity: int = 4

    def __post_init__(self):
        if self.leaf_count < 1:
            raise ValueError(f"leaf_count must be >= 1, got {self.leaf_count}")
        if self.max_arity < 2:
            raise ValueError(f"max_arity must be >= 2, got {self.max_arity}")


def g_k(spec: GkSpec) -> Cotree:
    """Cotree of G_k: K_k joined to the independent triple {c, d, e}, plus a
    vertex b adjacent to exactly c, d, e.

    Shape: (J (U c d e) (U (J a1 … ak) b)), normalized — for k = 1 the unary
    inner join collapses and the a-side is the single leaf a1.  The right
    union child is the classic label-ℛ witness: its components are the
    clique {a_i} and the single vertex b.
    """
    a_side = " ".join(f"a{i}" for i in range(1, spec.k + 1))
    return normalize(parse_cotree(f"(J (U c d e) (U (J {a_side}) b))"))


def random_cotree(spec: RandomSpec) -> Cotree:
    """Deterministic pseudo-random normalized cotree with exactly
    ``spec.leaf_count`` leaves.

    Levels alternate union/join (top kind random), arities are drawn from
    [2, max_arity], so the output is normalized by construction.  Leaves are
    labeled v0, v1, … in construction order.  Identical specs give identical
    trees.  The draws are ``random.py``'s ``choice``, ``randint`` and
    ``sample`` written out draw for draw over ``rng.getrandbits``.
    """
    rng = random.Random(spec.seed)
    if spec.leaf_count == 1:
        return leaf("v0")

    def below(n: int) -> int:  # random.py's _randbelow
        r = rng.getrandbits(n.bit_length())
        while r >= n:
            r = rng.getrandbits(n.bit_length())
        return r

    kinds: list[str] = []
    children: list = []
    labels: list[str | None] = []
    counter = 0
    # Popping a stack item gives the next pre-order id.  An item is (parent,
    # label) for a leaf, labeled when its parent draws, or (parent, leaf count)
    # for an inner node, which draws when it is popped: the draw and label
    # order the frozen corpora in tests/conftest.py were recorded with.
    stack: list[tuple[int, str | int]] = [(-1, spec.leaf_count)]
    top_kind = (UNION, JOIN)[below(2)]
    while stack:
        parent, item = stack.pop()
        v = len(kinds)
        if parent >= 0:
            children[parent].append(v)
        if item.__class__ is str:
            kinds.append(LEAF)
            labels.append(item)
            children.append(())
            continue
        kinds.append(_OPPOSITE[kinds[parent]] if parent >= 0 else top_kind)
        labels.append(None)
        children.append([])
        arity = 2 + below(min(spec.max_arity, item) - 1)
        n, k = item - 1, arity - 1  # sample(range(1, item), k)
        if k == 1:  # one draw, whichever way sample goes
            cuts = (1 + below(n),)
        elif n <= 21 + (4 ** ceil(log(3 * k, 4)) if k > 5 else 0):
            pool = list(range(1, item))
            for i in range(n, n - k, -1):
                j = below(i)
                pool[j], pool[i - 1] = pool[i - 1], pool[j]
            cuts = pool[n - k:]
        else:
            cuts = set()
            while len(cuts) < k:
                cuts.add(1 + below(n))
        kids: list[tuple[int, str | int]] = []
        last = 0
        for cut in (*sorted(cuts), item):
            if cut - last == 1:
                kids.append((v, f"v{counter}"))
                counter += 1
            else:
                kids.append((v, cut - last))
            last = cut
        stack.extend(reversed(kids))
    return Cotree(tuple(kinds), tuple(map(tuple, children)), tuple(labels))


def random_corpus(count: int, max_leaves: int, seed: int) -> Iterator[Cotree]:
    """``count`` random cotrees with 1..max_leaves leaves; fully determined
    by ``seed`` (leaf counts and per-tree seeds come from one master RNG)."""
    master = random.Random(seed)
    for _ in range(count):
        leaf_count = master.randint(1, max_leaves)
        yield random_cotree(RandomSpec(leaf_count, seed=master.getrandbits(63)))


# ---------------------------------------------------------------------------
# exhaustive enumeration of small shapes

_ENUMERATION_GUARD = 10
_SHAPE_KIND = {"L": LEAF, "U": UNION, "J": JOIN}


def enumerate_cotrees(max_leaves: int) -> Iterator[Cotree]:
    """Every normalized cotree shape with <= max_leaves leaves, each exactly
    once up to child-order permutation, leaves auto-labeled v0, v1, … in
    pre-order.

    Shapes are generated as canonically sorted child multisets, so no
    deduplication pass is needed.  Guarded at max_leaves <= 10: the count
    roughly triples per extra leaf.
    """
    if not 1 <= max_leaves <= _ENUMERATION_GUARD:
        raise ValueError(
            f"max_leaves must be in 1..{_ENUMERATION_GUARD}, got {max_leaves}"
        )
    memo: dict[tuple[int, str], tuple[str, ...]] = {}
    yield leaf("v0")
    for n in range(2, max_leaves + 1):
        for op in ("U", "J"):
            yield from map(_shape_to_cotree, _shapes(n, op, memo))


def _shapes(n: int, op: str, memo: dict) -> tuple[str, ...]:
    """All canonical shapes of an op-rooted normalized cotree on n leaves.

    A shape is a flat pre-order string: "L" is a leaf, op ("U" or "J") opens
    an inner node and ")" closes it, its children's shapes concatenated in
    sorted order between; they are leaves or nodes of the opposite op.
    Shapes are self-delimiting and ``")" < "J" < "L" < "U"``, so sorting them
    as strings keeps the recorded corpus order.
    """
    key = (n, op)
    if key in memo:
        return memo[key]
    other = "J" if op == "U" else "U"
    weights, shapes = [1], ["L"]  # the child candidates, in weight order
    for m in range(2, n):
        found = _shapes(m, other, memo)
        weights.extend([m] * len(found))
        shapes.extend(found)
    # Child multisets are the non-decreasing candidate index lists of weight
    # n, taken in lexicographic order: fill greedily from index j, then drop
    # the last pick and go on from the index after it.
    out: list[str] = []
    picked: list[int] = []
    remaining, j = n, 0
    while True:
        while remaining and j < len(weights) and weights[j] <= remaining:
            picked.append(j)
            remaining -= weights[j]
        if not remaining and len(picked) >= 2:
            out.append(op + "".join(sorted(shapes[i] for i in picked)) + ")")
        if not picked:
            break
        j = picked.pop()
        remaining += weights[j]
        j += 1
    memo[key] = tuple(out)
    return memo[key]


def _shape_to_cotree(shape: str) -> Cotree:
    """The cotree of a shape, leaves labeled v0, v1, … in pre-order, built in
    one pass over the shape: each character but ")" is the next node."""
    kinds: list[str] = []
    children: list = []
    labels: list[str | None] = []
    open_: list[int] = []  # ids of the inner nodes not yet closed
    leaves = 0
    for c in shape:
        if c == ")":
            v = open_.pop()
            children[v] = tuple(children[v])
            continue
        v = len(kinds)
        if open_:
            children[open_[-1]].append(v)
        kinds.append(_SHAPE_KIND[c])
        if c == "L":
            children.append(())
            labels.append(f"v{leaves}")
            leaves += 1
        else:
            children.append([])
            labels.append(None)
            open_.append(v)
    return Cotree(tuple(kinds), tuple(children), tuple(labels))
