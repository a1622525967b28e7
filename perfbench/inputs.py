"""Seeded writers for the benchmark's cotree input files.

These deliberately do not use ``cosec.generators``: the program's random
generator may be rewritten, while the benchmark inputs must stay
byte-identical across commits.  ``expected.json`` records the sha256 of every
file written here, and ``run.py`` refuses to measure when a file differs.

Only ``random.Random`` calls whose output is fixed for a given integer seed
are used (``randrange``/``random``), and both writers are iterative, so the
deep caterpillar is safe to write.
"""

from __future__ import annotations

import random

_OTHER = {"U": "J", "J": "U"}


def bushy(seed: int, leaves: int = 100_000, max_arity: int = 4) -> tuple[str, int]:
    """A normalized random cotree with exactly ``leaves`` leaves.

    Levels alternate union/join and every inner node has 2..max_arity
    children, so the tree is normalized as written and shallow (depth is
    logarithmic in ``leaves``).  Returns ``(text, node_count)``.
    """
    rng = random.Random(seed)
    tokens: list[str] = []
    nodes = 0
    label = 0
    stack: list[tuple[str, int] | None] = [("UJ"[rng.randrange(2)], leaves)]
    while stack:
        item = stack.pop()
        if item is None:
            tokens.append(")")
            continue
        nodes += 1
        op, budget = item
        if budget == 1:
            tokens.append(f"v{label}")
            label += 1
            continue
        arity = 2 + rng.randrange(min(max_arity, budget) - 1)
        cuts = sorted(_distinct(rng, 1, budget, arity - 1))
        bounds = [0, *cuts, budget]
        tokens.append("(" + op)
        stack.append(None)
        for i in range(arity - 1, -1, -1):
            stack.append((_OTHER[op], bounds[i + 1] - bounds[i]))
    return " ".join(tokens) + "\n", nodes


def _distinct(rng: random.Random, lo: int, hi: int, k: int) -> set[int]:
    """k distinct integers from [lo, hi)."""
    picked: set[int] = set()
    while len(picked) < k:
        picked.add(lo + rng.randrange(hi - lo))
    return picked


def caterpillar(seed: int, leaves: int = 50_000) -> tuple[str, int]:
    """An unnormalized caterpillar whose depth is close to its leaf count.

    The spine alternates union/join and carries one or two leaves per level.
    Noise that ``normalize`` must undo is mixed in: spine steps that repeat
    the parent's kind (same-kind chains), unary wrappers around leaves and
    unary wrappers around the next spine node.  Returns
    ``(text, raw_node_count)``.
    """
    rng = random.Random(seed)
    tokens: list[str] = []
    nodes = 0
    opened = 0
    label = 0
    op = "UJ"[rng.randrange(2)]
    while leaves - label > 2:
        if rng.random() < 0.05:
            tokens.append("(" + "UJ"[rng.randrange(2)])
            nodes += 1
            opened += 1
        tokens.append("(" + op)
        nodes += 1
        opened += 1
        for _ in range(min(1 if rng.random() < 0.8 else 2, leaves - label - 2)):
            if rng.random() < 0.1:
                tokens.append(f"({'UJ'[rng.randrange(2)]} v{label})")
                nodes += 1
            else:
                tokens.append(f"v{label}")
            nodes += 1
            label += 1
        if rng.random() >= 0.15:
            op = _OTHER[op]
    tokens.append(f"({op} v{label} v{label + 1})")
    nodes += 3
    return " ".join(tokens) + ")" * opened + "\n", nodes
