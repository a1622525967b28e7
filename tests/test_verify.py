import hashlib
import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from cosec.annotate import NodeAnnotations
from cosec.cotree import (
    JOIN,
    UNION,
    Graph,
    leaf,
    materialize,
    parse_cotree,
    subtree,
    to_text,
    union,
)
from cosec.errors import BudgetExceededError
from cosec.generators import GkSpec, enumerate_cotrees, g_k, random_corpus
from cosec.oracles import OracleBudget
from cosec.verify import (
    Mismatch,
    VerificationReport,
    _graph_ids,
    check_tree,
    report_json,
    report_text,
    verify_corpora,
)

from helpers import reordered_children, shape_key
from strategies import cotrees, normalized_cotrees


def test_exhaustive_n4_is_totally_clean():
    report = verify_corpora(max_n=4)
    assert report.instances == 1 + 2 + 4 + 10
    assert report.mismatches == []
    assert report.original_lemma_disagreements == []
    assert report.ok


def test_exhaustive_n10_is_clean_with_its_findings():
    report = verify_corpora(max_n=10)
    assert report.instances == 6965
    assert report.ok and report.mismatches == []
    assert len(report.original_lemma_disagreements) == 1011


def test_random_n16_corpus_is_clean_with_its_findings():
    report = verify_corpora(random_count=5000, random_leaves=16, seed=99)
    assert report.instances == 5000
    assert report.ok and report.mismatches == []
    assert len(report.original_lemma_disagreements) == 497
    assert (report.joins_checked, report.unions_checked) == (12174, 12175)


def test_gamma_is_checked_below_the_root(monkeypatch):
    import cosec.verify

    real = cosec.verify.annotate

    def off_by_one_at_node_1(t):
        at = real(t)
        if len(t) > 1:
            at.gamma[1] += 1
        return at

    monkeypatch.setattr(cosec.verify, "annotate", off_by_one_at_node_1)
    report = verify_corpora(max_n=4)
    assert not report.ok
    gamma = [m for m in report.mismatches if m.predicate == "gamma"]
    assert gamma and all(m.node == 1 and m.got == m.expected + 1 for m in gamma)


def test_n5_finds_the_g1_disagreement():
    report = verify_corpora(max_n=5)
    assert report.ok  # disagreements are findings, not failures
    assert len(report.original_lemma_disagreements) >= 1
    g1 = shape_key(g_k(GkSpec(1)))
    found = {
        shape_key(parse_cotree(f.cotree))
        for f in report.original_lemma_disagreements
    }
    assert g1 in found


def test_findings_say_original_false_definition_true():
    report = verify_corpora(max_n=5)
    for f in report.original_lemma_disagreements:
        assert f.p_original is False and f.definitional is True


def test_verify_is_deterministic():
    a = verify_corpora(max_n=4, random_count=40, random_leaves=10, seed=3)
    b = verify_corpora(max_n=4, random_count=40, random_leaves=10, seed=3)
    assert report_json(a) == report_json(b)
    assert json.dumps(report_json(a)) == json.dumps(report_json(b))


def test_report_json_nulls_the_elapsed_field():
    report = verify_corpora(max_n=3)
    assert report.elapsed_ms > 0.0
    doc = report_json(report)
    assert doc["elapsed_ms"] is None
    assert doc["ok"] is True
    json.dumps(doc)


def test_report_text_mentions_counts_and_result():
    text = report_text(verify_corpora(max_n=4))
    assert "instances checked: 17" in text
    assert "mismatches: 0" in text
    assert "result: OK" in text
    assert "elapsed:" in text


def test_check_tree_on_g1():
    report = VerificationReport(corpus="g1")
    check_tree(g_k(GkSpec(1)), report, budget=OracleBudget())
    assert report.joins_checked == 1
    assert report.unions_checked == 2
    assert report.mismatches == []
    assert len(report.original_lemma_disagreements) == 1
    finding = report.original_lemma_disagreements[0]
    assert finding.node == 0 and finding.path == "root"
    assert "original rule says False" in str(finding)


def test_a_finding_below_the_root_carries_its_own_path():
    t = union(leaf("x"), g_k(GkSpec(1)))
    report = VerificationReport(corpus="x + g1")
    check_tree(t, report, budget=OracleBudget())
    [finding] = report.original_lemma_disagreements
    assert (finding.cotree, finding.node, finding.path) == (to_text(t), 2, "root.1")


def test_tight_budget_propagates():
    with pytest.raises(BudgetExceededError):
        verify_corpora(max_n=5, budget=OracleBudget(3, 3))


def test_report_text_counts_comparisons_and_oracle_calls_per_predicate(monkeypatch):
    import cosec.verify

    calls = {}

    def counting(name):
        real = getattr(cosec.verify, name)

        def oracle(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(cosec.verify, name, oracle)

    for name in (
        "domination_number", "is_complete", "property_p_definitional_graph",
        "label_r_structural_graph", "label_r_definitional_graphs",
        "gamma_s_is_one", "secure_domination_number",
    ):
        counting(name)
    report = verify_corpora(max_n=7, random_count=60, random_leaves=11, seed=4)
    assert calls["domination_number"] == calls["is_complete"]
    trees = [*enumerate_cotrees(7), *random_corpus(60, 11, 4)]
    nodes = sum(map(len, trees))
    deep = sum(t.n_leaves() <= 8 for t in trees)
    assert 0 < deep < len(trees)
    lines = report_text(report).splitlines()
    for predicate, compared, oracle in (
        ("gamma, is_clique", nodes, "domination_number"),
        ("p_corrected", report.joins_checked, "property_p_definitional_graph"),
        ("label_r_structural", report.unions_checked, "label_r_structural_graph"),
        ("label_r", report.unions_checked, "label_r_definitional_graphs"),
        ("gamma_s_is_one", len(trees), "gamma_s_is_one"),
        ("gamma_s", deep, "secure_domination_number"),
    ):
        line = f"{predicate}: {compared} compared, {calls[oracle]} oracle evaluations"
        assert line in lines
    assert not any(line.startswith("graphs checked") for line in lines)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"random_count": -5}, "random_count must be >= 0, got -5"),
        ({"random_count": 5, "random_leaves": 0}, "random_leaves must be >= 1, got 0"),
    ],
)
def test_bad_random_corpus_arguments_raise(kwargs, message):
    with pytest.raises(ValueError) as exc_info:
        verify_corpora(max_n=3, **kwargs)
    assert str(exc_info.value) == message


def test_random_leaves_is_unused_without_a_random_corpus():
    assert verify_corpora(max_n=3, random_leaves=0).instances == 1 + 2 + 4


def test_corpus_description_names_both_sources():
    report = verify_corpora(max_n=3, random_count=5, random_leaves=6, seed=2)
    assert "exhaustive" in report.corpus
    assert "random" in report.corpus and "seed 2" in report.corpus


_EXHAUSTIVE_6 = list(enumerate_cotrees(6))


def _merged_outcome(reports):
    """Counts, mismatches and findings of several reports, concatenated."""
    return (
        sum(r.instances for r in reports),
        sum(r.joins_checked for r in reports),
        sum(r.unions_checked for r in reports),
        sum(r.graphs_checked for r in reports),
        [m for r in reports for m in r.mismatches],
        [f for r in reports for f in r.original_lemma_disagreements],
    )


@given(
    st.lists(normalized_cotrees(), min_size=1, max_size=6),
    st.sampled_from([None, 0, 1, 3]),
    st.booleans(),
)
@settings(deadline=None, max_examples=60)
def test_one_report_per_corpus_equals_one_report_per_tree(trees, fault, wrong_p):
    import cosec.verify

    # repeated graphs hit the memo; the exhaustive part holds unions that
    # share one child and differ in label ℛ
    corpus = trees + _EXHAUSTIVE_6 + trees[::-1]
    real = cosec.verify.annotate

    def off_by_one(t):
        at = real(t)
        if fault is not None and len(t) > fault:
            at.gamma[fault] += 1
        return at

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cosec.verify, "annotate", off_by_one)
        if wrong_p:  # a wrong oracle whose verdict depends on the rows alone
            mp.setattr(
                cosec.verify, "property_p_definitional_graph", lambda g: g.n % 3 == 0
            )
        whole = VerificationReport(corpus="c")
        for t in corpus:
            check_tree(t, whole, OracleBudget())
        single = []
        for t in corpus:
            single.append(VerificationReport(corpus="c"))
            check_tree(t, single[-1], OracleBudget())
    merged = VerificationReport("c", *_merged_outcome(single))
    assert whole == merged  # the memo takes no part in equality
    assert report_json(whole) == report_json(merged)
    assert repr(whole) == repr(merged)


def test_gamma_oracle_runs_once_per_distinct_node_graph(monkeypatch):
    import cosec.verify

    calls = []
    real = cosec.verify.domination_number

    def counting(g, budget):
        calls.append(g.adj)
        return real(g, budget)

    monkeypatch.setattr(cosec.verify, "domination_number", counting)
    report = verify_corpora(max_n=6)
    assert report.ok
    trees = list(enumerate_cotrees(6))
    node_rows = [materialize(subtree(t, v)).adj for t in trees for v in range(len(t))]
    assert len(calls) == len(set(calls)) == len(set(node_rows))
    assert set(calls) == set(node_rows)
    assert (
        f"gamma, is_clique: {len(node_rows)} compared, "
        f"{len(set(node_rows))} oracle evaluations"
    ) in report_text(report).splitlines()


def test_each_predicate_line_counts_the_distinct_graphs_it_asked_about():
    report = verify_corpora(max_n=7, random_count=300, random_leaves=14, seed=5)
    trees = [*enumerate_cotrees(7), *random_corpus(300, 14, 5)]
    nodes = [(t, v, shape_key(t, v)) for t in trees for v in range(len(t))]
    joins = [k for t, v, k in nodes if t.kinds[v] == JOIN]
    unions = [k for t, v, k in nodes if t.kinds[v] == UNION]
    two_child = [k for t, v, k in nodes if t.kinds[v] == UNION and len(t.children[v]) == 2]
    roots = [shape_key(t) for t in trees]
    deep = [shape_key(t) for t in trees if t.n_leaves() <= 8]
    expected = [  # graphs up to isomorphism: one oracle run per cograph
        ("gamma, is_clique", len(nodes), len({k for _, _, k in nodes})),
        ("p_corrected", len(joins), len(set(joins))),
        ("label_r_structural", len(unions), len(set(unions))),
        ("label_r", len(unions), len(set(two_child))),
        ("gamma_s_is_one", len(trees), len(set(roots))),
        ("gamma_s", len(deep), len(set(deep))),
    ]
    assert _count_lines(report) == [
        f"{predicate}: {compared} compared, {n} oracle evaluations"
        for predicate, compared, n in expected
    ]


def test_readme_count_block_is_the_seed_3_report():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("--max-n 9 --random 2000 --leaves 14 --seed 3`:\n\n```\n")[1]
    block = block.split("```")[0].splitlines()
    report = verify_corpora(max_n=9, random_count=2000, random_leaves=14, seed=3)
    assert block == _count_lines(report)


def _count_lines(report):
    lines = report_text(report).splitlines()
    return [line for line in lines if line.endswith(" oracle evaluations")]


@given(st.lists(st.one_of(cotrees(), normalized_cotrees()), min_size=1, max_size=4))
@settings(deadline=None)
def test_interned_rows_are_the_subtree_graphs(trees):
    ids, rows, seen = {}, [], []

    def first_sight(key, graph_rows):
        seen.append((key, graph_rows, len(rows)))  # the id is not stored yet

    per_tree = [_graph_ids(t, ids, rows, first_sight) for t in trees]
    assert [(graph_rows, i) for _, graph_rows, i in seen] == list(zip(rows, range(len(rows))))
    assert {key: i for key, _, i in seen[1:]} == ids  # id 0, the leaf's, has no key
    first, shapes = {}, set()
    for t, graph_ids in zip(trees, per_tree):
        assert len(graph_ids) == len(t)
        for v in reversed(range(len(t))):  # the order _graph_ids hands ids out in
            first.setdefault(graph_ids[v], (t, v))
            shapes.add((shape_key(t, v), graph_ids[v]))
    # one id per graph up to isomorphism: equal shape keys ⟺ equal ids
    assert len(shapes) == len({k for k, _ in shapes}) == len({i for _, i in shapes})
    assert sorted(first) == list(range(len(rows)))
    for i, (t, v) in first.items():  # rows laid out like the first node's graph
        sub = subtree(t, v)
        labels = tuple(sub.labels[w] for w in sub.leaves())
        assert Graph(len(rows[i]), labels, rows[i]) == materialize(sub)  # n, labels, adj


@pytest.mark.parametrize("n, cographs", [(5, 41), (6, 107), (7, 287), (8, 809)])
def test_one_graph_id_per_cograph(n, cographs):
    # Σ A000084(1..n): the cographs on 1..n vertices, one exhaustive tree each
    report = verify_corpora(max_n=n)
    known = report._verdicts
    assert len(known.rows) == cographs == report.instances
    counts = len(known.rows), len(known.gamma_s), len(known.gamma_s_is_one), known.label_r

    def no_new_id(key, graph_rows):
        raise AssertionError(f"new graph id for {key}")

    for t in random_corpus(500, n, n):  # relabelled copies of decided graphs
        check_tree(t, report, OracleBudget())
        flipped = reordered_children(t, list.reverse)
        root_ids = (
            _graph_ids(tree, known.ids, known.rows, no_new_id)[tree.root]
            for tree in (t, flipped)
        )
        assert len(set(root_ids)) == 1
    assert report.ok and report.instances == cographs + 500
    assert (
        len(known.rows), len(known.gamma_s), len(known.gamma_s_is_one), known.label_r
    ) == counts


def test_report_json_of_a_mixed_corpus_keeps_its_bytes():
    report = verify_corpora(max_n=7, random_count=300, random_leaves=14, seed=5)
    text = json.dumps(report_json(report), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e43f08bbc1c6a8dbea5bb3bc5637c6c5ea501672e3aec22df9278478105678b3"
    )


def test_refusals_come_in_the_documented_order():
    message = (
        "secure_domination_number oracle budget exceeded: graph has {} vertices, cap is {}"
    )
    t = parse_cotree("(U (J v0 v1) (J v2 v3))")
    with pytest.raises(BudgetExceededError) as exc_info:
        check_tree(t, VerificationReport(corpus="one tree"), OracleBudget(8, 1))
    assert str(exc_info.value) == message.format(4, 1)  # the root's γ_s, not ℛ's
    trees = list(enumerate_cotrees(8))
    for s in range(1, 8):
        report = VerificationReport(corpus="exhaustive <= 8")
        for t in trees:
            n = t.n_leaves()
            for _ in range(2 if n > s else 1):  # a refused tree refuses again
                try:
                    check_tree(t, report, OracleBudget(8, s))
                except BudgetExceededError as exc:
                    assert n > s and str(exc) == message.format(n, s)
                else:
                    assert n <= s
        # a refused tree adds no instance to the report
        assert report.instances == sum(t.n_leaves() <= s for t in trees)
        assert report.ok


def test_no_verdict_outlives_its_run(monkeypatch):
    import cosec.verify

    assert verify_corpora(max_n=5).ok
    monkeypatch.setattr(cosec.verify, "domination_number", lambda g, budget: 0)
    report = verify_corpora(max_n=5)
    gamma = {(m.cotree, m.node) for m in report.mismatches if m.predicate == "gamma"}
    trees = list(enumerate_cotrees(5))
    assert gamma == {(to_text(t), v) for t in trees for v in range(len(t))}


def test_budget_refusals_are_not_cached():
    message = (
        "secure_domination_number oracle budget exceeded: graph has 5 vertices, cap is 4"
    )
    budget = OracleBudget(8, 4)
    with pytest.raises(BudgetExceededError) as exc_info:
        verify_corpora(max_n=7, budget=budget)
    assert str(exc_info.value) == message
    report = VerificationReport(corpus="exhaustive <= 7")
    refused = None
    for t in enumerate_cotrees(7):
        try:
            check_tree(t, report, budget)
        except BudgetExceededError as exc:
            assert str(exc) == message
            refused = t
            break
    assert refused is not None
    with pytest.raises(BudgetExceededError) as exc_info:
        check_tree(refused, report, budget)
    assert str(exc_info.value) == message


def _faulty_columns(column, node, value):
    """``annotate`` with one column entry overwritten."""
    import cosec.verify

    real = cosec.verify.annotate

    def faulty(t):
        at = real(t)
        getattr(at, column)[node] = value
        return at

    return faulty


@pytest.mark.parametrize(
    "text, name, fault, predicate, node, path, expected, got",
    [
        (
            "(J (U c d e) (U a1 b))", "gamma_s_is_one", lambda g: True,
            "gamma_s_is_one_iff_complete", 0, "root", False, True,
        ),
        (
            "(J (U c d e) (U a1 b))", "secure_domination_number",
            lambda g, budget: 1, "gamma_s_lower_bound", 0, "root", ">= 2", "less",
        ),
        (
            "(J (U a b c) (U d e f))", "annotate",
            _faulty_columns("p_original", 0, True),
            "p_original_implies_corrected", 0, "root", True, False,
        ),
        (
            "(J (U c d e) (U a1 b))", "annotate", _faulty_columns("is_clique", 1, True),
            "is_clique", 1, "root.0", False, True,
        ),
        (
            "(U (J a b) c)", "annotate", _faulty_columns("label_r", 0, False),
            "label_r", 0, "root", True, False,
        ),
        (
            "(U (J a b) c)", "label_r_structural_graph", lambda g: False,
            "label_r_structural", 0, "root", True, False,
        ),
        (
            "(U a b c)", "label_r_structural_graph", lambda g: True,
            "label_r_structural", 0, "root", False, True,
        ),
        (
            "(J (U c d e) (U a1 b))", "annotate", _faulty_columns("p_corrected", 0, False),
            "p_corrected", 0, "root", True, False,
        ),
        (
            "(U (J a b) c)", "annotate", _faulty_columns("gamma", 0, 3),
            "gamma", 0, "root", 2, 3,
        ),
        (
            "(U (J a b) c)", "annotate", _faulty_columns("size", 1, 3),
            "size", 1, "root.0", 2, 3,
        ),
        (
            "(U (J a b) c)", "annotate", _faulty_columns("union_of_two_cliques", 0, False),
            "union_of_two_cliques", 0, "root", True, False,
        ),
    ],
    ids=[
        "gamma_s_is_one", "gamma_s", "p_original", "is_clique", "label_r",
        "label_r_structural", "label_r_structural_three_children", "p_corrected",
        "gamma", "size", "union_of_two_cliques",
    ],
)
def test_each_injected_fault_is_reported_by_its_own_predicate(
    monkeypatch, text, name, fault, predicate, node, path, expected, got
):
    import cosec.verify

    t = parse_cotree(text)
    report = VerificationReport(corpus="one tree")
    check_tree(t, report, OracleBudget())
    assert report.mismatches == []
    monkeypatch.setattr(cosec.verify, name, fault)
    report = VerificationReport(corpus="one tree")
    check_tree(t, report, OracleBudget())
    assert report.mismatches == [Mismatch(predicate, text, node, path, expected, got)]


@pytest.mark.parametrize(
    "text, faults",
    [
        ("(U (J a b) c)", {"label_r_definitional_graphs": lambda ga, gb, budget: False}),
        (
            "(U a b c)",
            {
                "label_r_structural_graph": lambda g: True,
                "annotate": _faulty_columns("label_r", 0, True),
            },
        ),
    ],
    ids=["two_children", "three_children"],
)
def test_label_r_is_checked_where_the_pass_and_the_structural_rule_agree(
    monkeypatch, text, faults
):
    import cosec.verify

    for name, fault in faults.items():
        monkeypatch.setattr(cosec.verify, name, fault)
    t = parse_cotree(text)
    report = VerificationReport(corpus="one tree")
    check_tree(t, report, OracleBudget())
    assert report.mismatches == [
        Mismatch("label_r_structural", text, 0, "root", False, True),
        Mismatch("label_r", text, 0, "root", False, True),
    ]


_G1 = "(J (U c d e) (U a1 b))"


@pytest.mark.parametrize(
    "node, faults, expected",
    [
        (
            0,
            {"gamma": 3, "p_corrected": False, "is_clique": True},
            [
                ("gamma_s_is_one_iff_complete", 0, "root", False, True),
                ("gamma", 0, "root", 2, 3),
                ("p_corrected", 0, "root", True, False),
                ("is_clique", 0, "root", False, True),
            ],
        ),
        (
            5,
            {"gamma": 3, "label_r": False, "is_clique": True},
            [
                ("gamma_s_is_one_iff_complete", 0, "root", False, True),
                ("gamma", 5, "root.1", 2, 3),
                ("label_r", 5, "root.1", True, False),
                ("is_clique", 5, "root.1", False, True),
            ],
        ),
    ],
    ids=["join", "union"],
)
def test_faults_at_one_node_and_the_root_are_reported_in_order(
    monkeypatch, capsys, tmp_path, node, faults, expected
):
    import cosec.verify
    from cosec.cli import main

    real = cosec.verify.annotate

    def faulty(t):
        at = real(t)
        for column, value in faults.items():
            getattr(at, column)[node] = value
        return at

    monkeypatch.setattr(cosec.verify, "annotate", faulty)
    monkeypatch.setattr(cosec.verify, "gamma_s_is_one", lambda g: True)
    report = VerificationReport(corpus="one tree")
    check_tree(parse_cotree(_G1), report, OracleBudget())
    assert report.mismatches == [Mismatch(p, _G1, *rest) for p, *rest in expected]
    p = tmp_path / "g1.cotree"
    p.write_text(_G1 + "\n")
    assert main(["annotate", str(p), "--oracle-check"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"MISMATCH {predicate} at {path}: oracle {want}, pass {got}"
        for predicate, _, path, want, got in expected
    ]


@st.composite
def _one_entry_faults(draw):
    """A normalized cotree, one annotate column, one node and a value."""
    t = draw(normalized_cotrees())
    column = draw(st.sampled_from(NodeAnnotations._fields))
    node = draw(st.integers(0, len(t) - 1))
    value = draw(st.sampled_from([None, True, False, 0, 1, 2, t.n_leaves() + 1]))
    return t, column, node, value


@given(_one_entry_faults())
@example((parse_cotree("(J (U a b) c)"), "label_r", 0, True))
@example((parse_cotree("(J (U a b) c)"), "label_r", 4, False))
@example((parse_cotree("(U (J a b) c)"), "p_corrected", 0, False))
@example((parse_cotree("(U (J a b) c)"), "p_original", 0, True))
@settings(deadline=None, max_examples=200)
def test_an_entry_changes_the_report_exactly_when_its_value_does(fault):
    import cosec.verify

    t, column, node, value = fault
    clean = VerificationReport(corpus="one tree")
    check_tree(t, clean, OracleBudget())
    old = getattr(cosec.verify.annotate(t), column)[node]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cosec.verify, "annotate", _faulty_columns(column, node, value))
        report = VerificationReport(corpus="one tree")
        check_tree(t, report, OracleBudget())
    outcome = report.mismatches, report.original_lemma_disagreements
    assert (outcome != (clean.mismatches, clean.original_lemma_disagreements)) == (
        value != old
    )


_FAULTY_REPORT_JSON = """\
{
  "corpus": "one tree",
  "instances": 1,
  "joins_checked": 1,
  "unions_checked": 2,
  "graphs_checked": 1,
  "mismatches": [
    {
      "predicate": "gamma_s_lower_bound",
      "cotree": "(J (U c d e) (U a1 b))",
      "node": 0,
      "path": "root",
      "expected": ">= 2",
      "got": "less"
    },
    {
      "predicate": "is_clique",
      "cotree": "(J (U c d e) (U a1 b))",
      "node": 1,
      "path": "root.0",
      "expected": false,
      "got": true
    }
  ],
  "original_lemma_disagreements": [
    {
      "cotree": "(J (U c d e) (U a1 b))",
      "node": 0,
      "path": "root",
      "p_original": false,
      "definitional": true
    }
  ],
  "elapsed_ms": null,
  "ok": false
}"""


def test_report_json_of_mismatches_and_a_finding_keeps_its_bytes(monkeypatch):
    import cosec.verify

    monkeypatch.setattr(cosec.verify, "annotate", _faulty_columns("is_clique", 1, True))
    monkeypatch.setattr(cosec.verify, "secure_domination_number", lambda g, budget: 1)
    report = VerificationReport(corpus="one tree")
    check_tree(parse_cotree("(J (U c d e) (U a1 b))"), report, OracleBudget())
    assert json.dumps(report_json(report), indent=2) == _FAULTY_REPORT_JSON
