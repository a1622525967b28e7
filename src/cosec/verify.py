"""Corpus verification: cross-check the linear annotation pass against the
definitional oracles over exhaustive and seeded-random cotree corpora.

Two kinds of outcome are deliberately kept apart:

- A *mismatch* is a bug: the corrected join rule, the label-ℛ bookkeeping,
  or the γ recursion disagreeing with its oracle.  Any mismatch fails the
  run.
- An *original-lemma disagreement* is a finding, not a failure: join nodes
  where the published (incorrect) rule contradicts the definitional check
  are exactly what this tool exists to exhibit.

Expensive whole-subtree checks (full γ_s, per-node clique oracles) are
gated to trees with at most 8 leaves; the cheap singleton-level checks run
on every instance.

Each tree is materialized once.  Pre-order ids make the leaves of a subtree
a contiguous run of vertices, so every per-node check reads the graph of its
subtree as a slice of the tree's graph (``cotree._subtree_graphs``) and runs
the graph-level oracle on it.  The tree's text and node paths are built only
when the tree has a mismatch or a finding to report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .annotate import annotate
from .cotree import JOIN, UNION, Cotree, _subtree_graphs, materialize, node_paths, to_text
from .generators import enumerate_cotrees, random_corpus
from .oracles import (
    DEFAULT_BUDGET,
    OracleBudget,
    domination_number,
    gamma_s_is_one,
    is_complete,
    label_r_definitional_graphs,
    label_r_structural_graph,
    property_p_definitional_graph,
    secure_domination_number,
)

_DEEP_CHECK_MAX_LEAVES = 8


@dataclass(frozen=True)
class Mismatch:
    predicate: str
    cotree: str
    node: int
    path: str
    expected: object
    got: object

    def __str__(self) -> str:
        return (
            f"{self.predicate} at node {self.node} ({self.path}) of {self.cotree}: "
            f"expected {self.expected}, got {self.got}"
        )


@dataclass(frozen=True)
class OriginalLemmaFinding:
    """A join node where the published rule contradicts the definition."""

    cotree: str
    node: int
    path: str
    p_original: bool
    definitional: bool

    def __str__(self) -> str:
        return (
            f"original rule says {self.p_original} but definition says "
            f"{self.definitional} at node {self.node} ({self.path}) of {self.cotree}"
        )


@dataclass
class VerificationReport:
    corpus: str
    instances: int = 0
    joins_checked: int = 0
    unions_checked: int = 0
    graphs_checked: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    original_lemma_disagreements: list[OriginalLemmaFinding] = field(
        default_factory=list
    )
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_tree(t: Cotree, report: VerificationReport, budget: OracleBudget) -> None:
    """Run every oracle cross-check on one normalized cotree; append results."""
    at = annotate(t)
    g = materialize(t)
    graph_of = _subtree_graphs(t, g)
    report.instances += 1
    report.graphs_checked += 1
    shown = None  # (text, paths): built at the first mismatch or finding

    def where(node):
        nonlocal shown
        if shown is None:
            shown = to_text(t), node_paths(t)
        text, paths = shown
        return text, node, paths[node]

    def mismatch(predicate, node, expected, got):
        report.mismatches.append(Mismatch(predicate, *where(node), expected, got))

    oracle_gamma = domination_number(g, budget)
    if oracle_gamma != at._gamma[t.root]:
        mismatch("gamma", t.root, oracle_gamma, at._gamma[t.root])

    # γ_s = 1 ⟺ complete, via the definitional singleton scan
    complete = is_complete(g)
    if gamma_s_is_one(g) != complete:
        mismatch("gamma_s_is_one_iff_complete", t.root, complete, not complete)

    deep = t.n_leaves() <= _DEEP_CHECK_MAX_LEAVES
    if deep and secure_domination_number(g, budget) < oracle_gamma:
        mismatch("gamma_s_lower_bound", t.root, f">= {oracle_gamma}", "less")

    for v in range(len(t)):
        kind = t.kinds[v]
        if kind == JOIN:
            report.joins_checked += 1
            defn = property_p_definitional_graph(graph_of(v))
            if at._pc[v] != defn:
                mismatch("p_corrected", v, defn, at._pc[v])
            if at._po[v] and not at._pc[v]:
                mismatch("p_original_implies_corrected", v, True, False)
            if at._po[v] != defn:
                report.original_lemma_disagreements.append(
                    OriginalLemmaFinding(*where(v), at._po[v], defn)
                )
        elif kind == UNION:
            report.unions_checked += 1
            ch = t.children[v]
            defn = len(ch) == 2 and label_r_definitional_graphs(
                graph_of(ch[0]), graph_of(ch[1]), budget
            )
            struct = label_r_structural_graph(graph_of(v))
            if defn != struct:
                mismatch("label_r_structural", v, defn, struct)
            if defn != at._lr[v]:
                mismatch("label_r_annotate", v, defn, at._lr[v])
        if deep:
            sub_complete = is_complete(graph_of(v))
            if at._clique[v] != sub_complete:
                mismatch("is_clique", v, sub_complete, at._clique[v])


def verify_corpora(
    max_n: int | None = None,
    random_count: int = 0,
    random_leaves: int = 12,
    seed: int = 1,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> VerificationReport:
    """Verify the exhaustive corpus up to ``max_n`` leaves and/or a seeded
    random corpus; deterministic for fixed arguments."""
    parts = []
    if max_n is not None:
        parts.append(f"exhaustive cotrees with <= {max_n} leaves")
    if random_count:
        parts.append(
            f"{random_count} random cotrees with <= {random_leaves} leaves"
            f" (seed {seed})"
        )
    report = VerificationReport(corpus="; ".join(parts) or "empty corpus")
    start = time.perf_counter()
    if max_n is not None:
        for t in enumerate_cotrees(max_n):
            check_tree(t, report, budget)
    if random_count:
        for t in random_corpus(random_count, random_leaves, seed):
            check_tree(t, report, budget)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def report_text(report: VerificationReport) -> str:
    lines = [
        f"corpus: {report.corpus}",
        f"instances checked: {report.instances}",
        f"join nodes checked: {report.joins_checked}",
        f"union nodes checked: {report.unions_checked}",
        f"graphs checked against gamma oracle: {report.graphs_checked}",
        f"mismatches: {len(report.mismatches)}",
    ]
    lines.extend(f"  MISMATCH {m}" for m in report.mismatches)
    lines.append(
        "original-lemma disagreements (expected findings): "
        f"{len(report.original_lemma_disagreements)}"
    )
    lines.extend(
        f"  finding: {f}" for f in report.original_lemma_disagreements
    )
    lines.append(f"elapsed: {report.elapsed_ms:.1f} ms")
    lines.append("result: " + ("OK" if report.ok else "MISMATCH"))
    return "\n".join(lines) + "\n"


def report_json(report: VerificationReport) -> dict:
    """JSON document for the report.

    ``elapsed_ms`` is null here on purpose: JSON output is promised to be
    byte-identical across runs for identical inputs, and wall-clock time is
    the one field that never is.  The text report carries the timing.
    """
    return {
        "corpus": report.corpus,
        "instances": report.instances,
        "joins_checked": report.joins_checked,
        "unions_checked": report.unions_checked,
        "graphs_checked": report.graphs_checked,
        "mismatches": [
            {
                "predicate": m.predicate,
                "cotree": m.cotree,
                "node": m.node,
                "path": m.path,
                "expected": m.expected,
                "got": m.got,
            }
            for m in report.mismatches
        ],
        "original_lemma_disagreements": [
            {
                "cotree": f.cotree,
                "node": f.node,
                "path": f.path,
                "p_original": f.p_original,
                "definitional": f.definitional,
            }
            for f in report.original_lemma_disagreements
        ],
        "elapsed_ms": None,
        "ok": report.ok,
    }
