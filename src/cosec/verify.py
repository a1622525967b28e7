"""Corpus verification: cross-check the linear annotation pass against the
definitional oracles over exhaustive and seeded-random cotree corpora.

Two kinds of outcome are deliberately kept apart:

- A *mismatch* is a bug: the corrected join rule, the label-ℛ bookkeeping,
  or the γ recursion disagreeing with its oracle.  Any mismatch fails the
  run.
- An *original-lemma disagreement* is a finding, not a failure: join nodes
  where the published (incorrect) rule contradicts the definitional check
  are exactly what this tool exists to exhibit.

The full γ_s oracle is the one expensive check: it bounds γ_s ≥ γ on the
whole graph of trees with at most 8 leaves.  Every other check runs on every
node of every instance: γ, the clique flag, 𝒫 at joins and label ℛ at
unions, both definitionally and structurally.

Each tree is materialized once.  Pre-order ids make the leaves of a subtree
a contiguous run of vertices, so each node's graph is a slice of the tree's
graph (``cotree._subtree_graphs``), built once per node.  ``check_tree``
calls each graph-level oracle from one place, and it is the one cross-check
path: ``cosec annotate --oracle-check`` runs it on its one tree, so the CLI
and ``cosec verify`` check the same facts.  The tree's text and node paths
are built only when the tree has a mismatch or a finding to report.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from .annotate import annotate
from .cotree import JOIN, UNION, Cotree, _subtree_graphs, materialize, node_paths, to_text
from .errors import BudgetExceededError
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
    """Run every oracle cross-check on one normalized cotree; append results.

    Every oracle is called from one place here.  A tree above the domination
    cap is refused before any graph is built; below it no γ call can refuse,
    so the whole-graph γ_s check still refuses before any per-node check.
    """
    n = t.n_leaves()
    cap = budget.max_vertices_domination
    if n > cap:  # the largest graph: refuse before building any
        raise BudgetExceededError("domination_number", n, cap)
    at = annotate(t)
    # each node's graph, built once and shared by every check at that node
    graphs = list(map(_subtree_graphs(t, materialize(t)), range(len(t))))
    gamma = [domination_number(g, budget) for g in graphs]
    complete = [is_complete(g) for g in graphs]
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

    root, g = t.root, graphs[t.root]
    # γ_s = 1 ⟺ complete, via the definitional singleton scan
    if gamma_s_is_one(g) != complete[root]:
        mismatch("gamma_s_is_one_iff_complete", root, complete[root], not complete[root])

    deep = n <= _DEEP_CHECK_MAX_LEAVES
    if deep and secure_domination_number(g, budget) < gamma[root]:
        mismatch("gamma_s_lower_bound", root, f">= {gamma[root]}", "less")

    for v in range(len(t)):
        if gamma[v] != at.gamma[v]:
            mismatch("gamma", v, gamma[v], at.gamma[v])
        kind = t.kinds[v]
        if kind == JOIN:
            report.joins_checked += 1
            defn = property_p_definitional_graph(graphs[v])
            if at.p_corrected[v] != defn:
                mismatch("p_corrected", v, defn, at.p_corrected[v])
            if at.p_original[v] and not at.p_corrected[v]:
                mismatch("p_original_implies_corrected", v, True, False)
            if at.p_original[v] != defn:
                report.original_lemma_disagreements.append(
                    OriginalLemmaFinding(*where(v), at.p_original[v], defn)
                )
        elif kind == UNION:
            report.unions_checked += 1
            ch = t.children[v]
            defn = len(ch) == 2 and label_r_definitional_graphs(
                graphs[ch[0]], graphs[ch[1]], budget
            )
            struct = label_r_structural_graph(graphs[v])
            if defn != struct:
                mismatch("label_r_structural", v, defn, struct)
            if defn != at.label_r[v]:
                mismatch("label_r", v, defn, at.label_r[v])
        if at.is_clique[v] != complete[v]:
            mismatch("is_clique", v, complete[v], at.is_clique[v])


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
        # the dataclass fields, in order, are the JSON keys
        "mismatches": [asdict(m) for m in report.mismatches],
        "original_lemma_disagreements": [
            asdict(f) for f in report.original_lemma_disagreements
        ],
        "elapsed_ms": None,
        "ok": report.ok,
    }
