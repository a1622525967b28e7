import json

import pytest

from cosec.cotree import leaf, parse_cotree, shape_key, to_text, union
from cosec.errors import BudgetExceededError
from cosec.generators import GkSpec, g_k
from cosec.oracles import OracleBudget
from cosec.verify import (
    VerificationReport,
    check_tree,
    report_json,
    report_text,
    verify_corpora,
)


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


def test_corpus_description_names_both_sources():
    report = verify_corpora(max_n=3, random_count=5, random_leaves=6, seed=2)
    assert "exhaustive" in report.corpus
    assert "random" in report.corpus and "seed 2" in report.corpus
