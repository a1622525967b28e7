"""Corpus verification: cross-check the linear annotation pass against the
definitional oracles over exhaustive and seeded-random cotree corpora.

Two kinds of outcome are deliberately kept apart:

- A *mismatch* is a bug: the corrected join rule, the label-ℛ bookkeeping,
  or the γ recursion disagreeing with its oracle.  Any mismatch fails the
  run.
- An *original-lemma disagreement* is a finding, not a failure: join nodes
  where the published (incorrect) rule contradicts the definitional check
  are exactly what this tool exists to exhibit.

The full γ_s oracle is the one expensive check: it bounds γ_s ≥ γ at every
node whose graph has at most 8 vertices.  Every other check runs on every
node of every instance and covers every ``annotate`` column: size, γ, the
clique flag and γ_s = 1 against the clique verdict; 𝒫 and ``p_original`` at
joins; label ℛ, definitionally and structurally, and the union-of-two-cliques
flag at unions.  A fact is None where it does not apply, so a value the pass
puts there is a mismatch.

No tree's graph is built.  Each node's graph gets an id, interned by its
kind and its children's sorted ids (``_graph_ids``): one id per cograph up to
isomorphism, as a normalized cotree fixes its cograph up to child order.  A
new id's rows are built from its children's, laid out like its first node's.
Every fact checked is an isomorphism invariant, so each cograph is built and
evaluated once per run.  A tree is walked node by node, and its
text and node paths built, only when some node's rows differ or a join holds
a finding.  ``check_tree`` is the one cross-check path, also run by ``cosec
annotate --oracle-check``.
"""

from __future__ import annotations

import time
from itertools import chain

from .annotate import annotate
from .cotree import JOIN, LEAF, UNION, Cotree, Graph, _Record, node_paths, to_text
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

_GAMMA_S_MAX_VERTICES = 8


class Mismatch(_Record):
    __slots__ = ("predicate", "cotree", "node", "path", "expected", "got")

    def __init__(
        self, predicate: str, cotree: str, node: int, path: str, expected: object, got: object
    ):
        self._store((predicate, cotree, node, path, expected, got))

    def __str__(self) -> str:
        return (
            f"{self.predicate} at node {self.node} ({self.path}) of {self.cotree}: "
            f"expected {self.expected}, got {self.got}"
        )


class OriginalLemmaFinding(_Record):
    """A join node where the published rule contradicts the definition."""

    __slots__ = ("cotree", "node", "path", "p_original", "definitional")

    def __init__(
        self, cotree: str, node: int, path: str, p_original: bool, definitional: bool
    ):
        self._store((cotree, node, path, p_original, definitional))

    def __str__(self) -> str:
        return (
            f"original rule says {self.p_original} but definition says "
            f"{self.definitional} at node {self.node} ({self.path}) of {self.cotree}"
        )


class _Verdicts:
    """A run's node graphs, one id per cograph up to isomorphism, and the
    verdicts on them by id.  A new id's facts, definitional ℛ included, are
    formed when it is first seen, children first, and stored only if none
    refuses."""

    def __init__(self):
        self.ids = {}  # (kind, *sorted child graph ids) -> graph id
        self.rows = []  # adjacency rows, laid out as each id's first node
        self.facts = []  # per id: the tuple described in check_tree
        self.label_r = 0  # definitional ℛ evaluations


class VerificationReport(_Record):
    """A run's counts and results; mutable and unhashable.  The private
    slots (the verdicts, nodes compared and nodes given the γ_s check) are
    left out of ``==`` and ``repr``."""

    __slots__ = (
        "corpus", "instances", "joins_checked", "unions_checked", "graphs_checked",
        "mismatches", "original_lemma_disagreements", "elapsed_ms",
        "_verdicts", "_nodes", "_gamma_s_nodes",
    )
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(
        self, corpus: str, instances: int = 0, joins_checked: int = 0,
        unions_checked: int = 0, graphs_checked: int = 0,
        mismatches: list[Mismatch] | None = None,
        original_lemma_disagreements: list[OriginalLemmaFinding] | None = None,
        elapsed_ms: float = 0.0,
    ):
        self.corpus, self.instances, self.elapsed_ms = corpus, instances, elapsed_ms
        self.joins_checked, self.unions_checked = joins_checked, unions_checked
        self.graphs_checked = graphs_checked
        self.mismatches = [] if mismatches is None else mismatches
        findings = original_lemma_disagreements
        self.original_lemma_disagreements = [] if findings is None else findings
        self._verdicts, self._nodes, self._gamma_s_nodes = _Verdicts(), 0, 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _graph_ids(t: Cotree, ids: dict, rows: list, first_sight) -> list[int]:
    """Per node of t, its graph id: an index of ``rows``, the graphs'
    adjacency rows, interned in ``ids`` by ``(kind, *sorted child graph
    ids)``, one id per cograph up to isomorphism, its rows laid out as its
    first node's.  A leaf is id 0.  ``first_sight(key, rows)`` runs before
    a new id is stored."""
    if not rows:  # the one-vertex graph
        first_sight((LEAF,), (0,))
        rows.append((0,))
    kinds, children = t.kinds, t.children
    node_ids = [0] * len(t)
    for v in range(len(t) - 1, -1, -1):  # children before parents
        if children[v]:
            child_ids = [*map(node_ids.__getitem__, children[v])]
            key = kinds[v], *sorted(child_ids)
            i = ids.get(key)
            if i is None:  # laid out in tree order, like this first node
                graph_rows = _combined_rows(kinds[v], [rows[c] for c in child_ids])
                first_sight(key, graph_rows)
                i = ids[key] = len(rows)
                rows.append(graph_rows)
            node_ids[v] = i
    return node_ids


def _combined_rows(kind: str, parts: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The rows of the union or join of graphs with rows ``parts``, each
    part's vertices following the last's: a row shifts to its part's offset,
    and in a join it also gains every other part's vertices."""
    full, lo, out = (1 << sum(map(len, parts))) - 1, 0, []
    for part in parts:
        others = full ^ ((1 << lo + len(part)) - (1 << lo)) if kind == JOIN else 0
        out += [row << lo | others for row in part]
        lo += len(part)
    return tuple(out)


def check_tree(t: Cotree, report: VerificationReport, budget: OracleBudget) -> None:
    """Run every oracle cross-check on one normalized cotree; append results.

    Every oracle is called from one place here, on graphs the report holds
    no verdict for.  A tree above the domination cap is refused before any
    graph is built, so no γ call can refuse.  γ_s and label ℛ refuse at the
    first graph above the secure cap in the order node graphs are first
    seen: children before parents.  A refused tree adds no count, mismatch
    or finding, but the verdicts first seen in it stay in ``_verdicts``.
    Verdicts are keyed by graph id alone: one report, one budget.

    A graph's facts are (size, γ, clique flag, union of two cliques, 𝒫,
    structural ℛ, definitional ℛ, γ_s = 1, min(γ, γ_s)), None where they do
    not apply.  γ_s is evaluated only on graphs of at most 8 vertices, and
    the last fact is γ on larger ones: γ_s ≥ γ holds exactly when it is γ.
    A node's rows ``(predicate, expected, got)`` set the facts against its
    annotation, the two γ_s rows first.  The tree is walked only when a row
    differs or a finding exists: the zip of whole columns compares the same
    columns as the rows.
    """
    budget.admit("domination_number", t.n_leaves())  # the largest graph: first
    at = annotate(t)
    known = report._verdicts
    rows, facts = known.rows, known.facts

    def first_sight(key, graph_rows):
        kind, g = key[0], Graph(len(graph_rows), (), graph_rows)
        union, two = kind == UNION, len(key) == 3
        gamma = domination_number(g, budget)
        facts.append((
            g.n, gamma, is_complete(g),
            two and facts[key[1]][2] and facts[key[2]][2] if union else None,  # clique pair
            property_p_definitional_graph(g) if kind == JOIN else None,
            label_r_structural_graph(g) if union else None,
            two and label_r_definitional_graphs(graph(key[1]), graph(key[2]), budget)
            if union else None,
            gamma_s_is_one(g),
            min(gamma, secure_domination_number(g, budget))
            if g.n <= _GAMMA_S_MAX_VERTICES else gamma,
        ))
        known.label_r += union and two

    def graph(i):  # no oracle reads labels
        return Graph(len(rows[i]), (), rows[i])

    ids = _graph_ids(t, known.ids, rows, first_sight)
    report.instances += 1
    report.graphs_checked += 1
    report._nodes += len(t)
    sizes = map(len, map(rows.__getitem__, ids))  # of the node graphs, not the pass's
    report._gamma_s_nodes += sum(map(_GAMMA_S_MAX_VERTICES.__ge__, sizes))
    report.joins_checked += t.kinds.count(JOIN)
    report.unions_checked += t.kinds.count(UNION)
    node_facts = list(map(facts.__getitem__, ids))
    columns = list(zip(  # in the facts' order
        at.size, at.gamma, at.is_clique, at.union_of_two_cliques, at.p_corrected,
        at.label_r, at.label_r, at.is_clique, at.gamma,
    ))
    if at.p_original == at.p_corrected and node_facts == columns:
        return  # no mismatch and no finding
    text, paths = to_text(t), node_paths(t)  # the walk reports at least one

    def mismatch(predicate, node, expected, got):
        report.mismatches.append(Mismatch(predicate, text, node, paths[node], expected, got))

    for v, (fact, column, p_orig) in enumerate(zip(node_facts, columns, at.p_original)):
        p_corr = at.p_corrected[v]
        if fact == column and p_orig == p_corr:
            continue  # every row agrees, and p_original is no finding
        size, gamma, complete, two_cliques, p_defn, r_struct, defn, one, bound = fact
        lower = f">= {gamma}"
        for predicate, expected, got in (
            ("gamma_s_is_one_iff_complete", complete, one),  # γ_s = 1 ⟺ complete
            ("gamma_s_lower_bound", lower, lower if bound == gamma else "less"),
            ("size", size, at.size[v]),
            ("gamma", gamma, at.gamma[v]),
            ("p_corrected", p_defn, p_corr),  # 𝒫, definitionally
            ("p_original_implies_corrected", True, not p_orig or bool(p_corr)),
            ("p_original", None if p_defn is None else p_orig, p_orig),  # joins: below
            ("label_r_structural", defn, r_struct),  # ℛ, structurally
            ("label_r", defn, at.label_r[v]),
            ("union_of_two_cliques", two_cliques, at.union_of_two_cliques[v]),
            ("is_clique", complete, at.is_clique[v]),
        ):
            if expected != got:
                mismatch(predicate, v, expected, got)
        if p_defn is not None and p_orig != p_defn:  # joins only
            finding = OriginalLemmaFinding(text, v, paths[v], p_orig, p_defn)
            report.original_lemma_disagreements.append(finding)


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
    known = report._verdicts
    joins = sum(fact[4] is not None for fact in known.facts)
    unions = sum(fact[5] is not None for fact in known.facts)
    gamma_s = sum(fact[0] <= _GAMMA_S_MAX_VERTICES for fact in known.facts)
    lines = [
        f"corpus: {report.corpus}",
        f"instances checked: {report.instances}",
        f"join nodes checked: {report.joins_checked}",
        f"union nodes checked: {report.unions_checked}",
        *(
            f"{predicate}: {compared} compared, {n} oracle evaluations"
            for predicate, compared, n in (
                ("gamma, is_clique", report._nodes, len(known.rows)),
                ("p_corrected", report.joins_checked, joins),
                ("label_r_structural", report.unions_checked, unions),
                ("label_r", report.unions_checked, known.label_r),
                ("gamma_s_is_one", report._nodes, len(known.rows)),
                ("gamma_s", report._gamma_s_nodes, gamma_s),
            )
        ),
        f"mismatches: {len(report.mismatches)}",
    ]
    lines.extend(f"  MISMATCH {m}" for m in report.mismatches)
    lines.append(
        "original-lemma disagreements (expected findings): "
        f"{len(report.original_lemma_disagreements)}"
    )
    lines.extend(f"  finding: {f}" for f in report.original_lemma_disagreements)
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
        **report._asdict(),  # the record fields, in order, are the JSON keys
        "mismatches": [m._asdict() for m in report.mismatches],
        "original_lemma_disagreements": [f._asdict() for f in report.original_lemma_disagreements],
        "elapsed_ms": None,
        "ok": report.ok,
    }
