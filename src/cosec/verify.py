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
a contiguous run of vertices, so each node's adjacency rows are a slice of
the tree's graph (``cotree._subtree_rows``).  The report keeps its run's
oracle verdicts keyed by rows, so each distinct graph is built and evaluated
once.  ``check_tree`` is the one cross-check path, also run by ``cosec
annotate --oracle-check``; a tree's text and node paths are built only when
it has a mismatch or a finding to report.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import chain

from .annotate import annotate
from .cotree import JOIN, LEAF, UNION, Cotree, Graph, materialize, node_paths, to_text
from .cotree import _subtree_rows
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
# the keys of ``VerificationReport._verdicts``: the node checks by kind, then the rest
_CHECKS = (LEAF, UNION, JOIN, "gamma_s_is_one", "gamma_s", "label_r")


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
    _verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _nodes: int = field(default=0, init=False, repr=False, compare=False)
    _deep_trees: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_tree(t: Cotree, report: VerificationReport, budget: OracleBudget) -> None:
    """Run every oracle cross-check on one normalized cotree; append results.

    Every oracle is called from one place here, on rows the report holds no
    verdict for.  A tree above the domination cap is refused before any graph
    is built; below it no γ call can refuse, so the γ_s check refuses first.
    Verdicts are keyed by check and rows alone: one report, one budget.
    """
    n = t.n_leaves()
    cap = budget.max_vertices_domination
    if n > cap:  # the largest graph: refuse before building any
        raise BudgetExceededError("domination_number", n, cap)
    at = annotate(t)
    rows = _subtree_rows(t, materialize(t))
    memos = {check: report._verdicts.setdefault(check, {}) for check in _CHECKS}

    def verdict(check, oracle, graph_rows, *extra):
        """``oracle`` on unlabelled graphs with these rows, once per check and rows."""
        memo = memos[check]
        key = graph_rows[0] if len(graph_rows) == 1 else graph_rows
        value = memo.get(key)  # no verdict is None
        if value is None:  # no oracle reads labels
            value = memo[key] = oracle(*(Graph(len(r), (), r) for r in graph_rows), *extra)
        return value

    # per node: γ, the clique flag, and 𝒫 at a join or structural ℛ at a union
    facts = []
    for kind, r in zip(t.kinds, rows):
        memo = memos[kind]
        fact = memo.get(r)
        if fact is None:
            g = Graph(len(r), (), r)
            fact = memo[r] = domination_number(g, budget), is_complete(g), (
                property_p_definitional_graph(g) if kind == JOIN
                else kind == UNION and label_r_structural_graph(g)
            )
        facts.append(fact)
    report.instances += 1
    report.graphs_checked += 1
    report._nodes += len(t)
    shown = None  # (text, paths): built at the first mismatch or finding

    def where(node):
        nonlocal shown
        if shown is None:
            shown = to_text(t), node_paths(t)
        text, paths = shown
        return text, node, paths[node]

    def mismatch(predicate, node, expected, got):
        report.mismatches.append(Mismatch(predicate, *where(node), expected, got))

    root, r, (gamma, complete, _) = t.root, (rows[t.root],), facts[t.root]
    # γ_s = 1 ⟺ complete, via the definitional singleton scan
    if verdict("gamma_s_is_one", gamma_s_is_one, r) != complete:
        mismatch("gamma_s_is_one_iff_complete", root, complete, not complete)

    if n <= _DEEP_CHECK_MAX_LEAVES:
        if verdict("gamma_s", secure_domination_number, r, budget) < gamma:
            mismatch("gamma_s_lower_bound", root, f">= {gamma}", "less")
        report._deep_trees += 1

    for v, (gamma, complete, by_kind) in enumerate(facts):
        if gamma != at.gamma[v]:
            mismatch("gamma", v, gamma, at.gamma[v])
        kind = t.kinds[v]
        if kind == JOIN:
            report.joins_checked += 1
            if at.p_corrected[v] != by_kind:  # 𝒫, definitionally
                mismatch("p_corrected", v, by_kind, at.p_corrected[v])
            if at.p_original[v] and not at.p_corrected[v]:
                mismatch("p_original_implies_corrected", v, True, False)
            if at.p_original[v] != by_kind:
                report.original_lemma_disagreements.append(
                    OriginalLemmaFinding(*where(v), at.p_original[v], by_kind)
                )
        elif kind == UNION:
            report.unions_checked += 1
            pair = tuple(rows[c] for c in t.children[v])
            defn = len(pair) == 2 and verdict(
                "label_r", label_r_definitional_graphs, pair, budget
            )
            if defn != by_kind:  # ℛ, structurally
                mismatch("label_r_structural", v, defn, by_kind)
            if defn != at.label_r[v]:
                mismatch("label_r", v, defn, at.label_r[v])
        if at.is_clique[v] != complete:
            mismatch("is_clique", v, complete, at.is_clique[v])


def verify_corpora(
    max_n: int | None = None,
    random_count: int = 0,
    random_leaves: int = 12,
    seed: int = 1,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> VerificationReport:
    """Verify the exhaustive corpus up to ``max_n`` leaves and/or a seeded
    random corpus; deterministic for fixed arguments."""
    if random_count < 0:
        raise ValueError(f"random_count must be >= 0, got {random_count}")
    if random_count and random_leaves < 1:
        raise ValueError(f"random_leaves must be >= 1, got {random_leaves}")
    parts, corpora = [], []
    if max_n is not None:
        parts.append(f"exhaustive cotrees with <= {max_n} leaves")
        corpora.append(enumerate_cotrees(max_n))
    if random_count:
        parts.append(
            f"{random_count} random cotrees with <= {random_leaves} leaves"
            f" (seed {seed})"
        )
        corpora.append(random_corpus(random_count, random_leaves, seed))
    report = VerificationReport(corpus="; ".join(parts) or "empty corpus")
    start = time.perf_counter()
    for t in chain(*corpora):  # the generators build each tree when it is checked
        check_tree(t, report, budget)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def report_text(report: VerificationReport) -> str:
    def evaluated(*checks) -> int:
        return sum(len(report._verdicts.get(c, ())) for c in checks)

    lines = [
        f"corpus: {report.corpus}",
        f"instances checked: {report.instances}",
        f"join nodes checked: {report.joins_checked}",
        f"union nodes checked: {report.unions_checked}",
        *(
            f"{predicate}: {compared} compared, {n} oracle evaluations"
            for predicate, compared, n in (
                ("gamma, is_clique", report._nodes, evaluated(LEAF, UNION, JOIN)),
                ("p_corrected", report.joins_checked, evaluated(JOIN)),
                ("label_r_structural", report.unions_checked, evaluated(UNION)),
                ("label_r", report.unions_checked, evaluated("label_r")),
                ("gamma_s_is_one", report.instances, evaluated("gamma_s_is_one")),
                ("gamma_s", report._deep_trees, evaluated("gamma_s")),
            )
        ),
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
