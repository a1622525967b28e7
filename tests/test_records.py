"""The public record types' value behaviour: construction and defaults,
validation messages, equality, hashing, ``repr`` text, immutability, and
``pickle`` / ``copy.deepcopy`` round trips."""

import copy
import pickle

import pytest

from cosec.annotate import AnnotatedCotree, NodeAnnotations
from cosec.cotree import Cotree, Graph
from cosec.generators import GkSpec, RandomSpec
from cosec.oracles import OracleBudget
from cosec.verify import Mismatch, OriginalLemmaFinding, VerificationReport

_KINDS = ("join", "leaf", "leaf")
_CHILDREN = ((1, 2), (), ())
_LABELS = (None, "a", "b")

# (positional construction, keyword construction with every default spelled
# out, an unequal value, field names, repr text), one row per frozen type
FROZEN = [
    pytest.param(
        Cotree(_KINDS, _CHILDREN, _LABELS),
        Cotree(kinds=_KINDS, children=_CHILDREN, labels=_LABELS, root=0),
        Cotree(("union", "leaf", "leaf"), _CHILDREN, _LABELS),
        ("kinds", "children", "labels", "root"),
        "Cotree(kinds=('join', 'leaf', 'leaf'), children=((1, 2), (), ()),"
        " labels=(None, 'a', 'b'), root=0)",
        id="Cotree",
    ),
    pytest.param(
        Graph(2, ("a", "b"), (2, 1)),
        Graph(n=2, labels=("a", "b"), adj=(2, 1)),
        Graph(2, ("a", "b"), (0, 0)),
        ("n", "labels", "adj"),
        "Graph(n=2, labels=('a', 'b'), adj=(2, 1))",
        id="Graph",
    ),
    pytest.param(
        NodeAnnotations(3, False, 1, None, None, True, True),
        NodeAnnotations(
            size=3, is_clique=False, gamma=1, label_r=None,
            union_of_two_cliques=None, p_original=True, p_corrected=True,
        ),
        NodeAnnotations(3, False, 1, None, None, False, True),
        (
            "size", "is_clique", "gamma", "label_r", "union_of_two_cliques",
            "p_original", "p_corrected",
        ),
        "NodeAnnotations(size=3, is_clique=False, gamma=1, label_r=None,"
        " union_of_two_cliques=None, p_original=True, p_corrected=True)",
        id="NodeAnnotations",
    ),
    pytest.param(
        OracleBudget(),
        OracleBudget(max_vertices_domination=20, max_vertices_secure=16),
        OracleBudget(20, 15),
        ("max_vertices_domination", "max_vertices_secure"),
        "OracleBudget(max_vertices_domination=20, max_vertices_secure=16)",
        id="OracleBudget",
    ),
    pytest.param(
        GkSpec(3),
        GkSpec(k=3),
        GkSpec(4),
        ("k",),
        "GkSpec(k=3)",
        id="GkSpec",
    ),
    pytest.param(
        RandomSpec(10, 7),
        RandomSpec(leaf_count=10, seed=7, max_arity=4),
        RandomSpec(10, 7, 5),
        ("leaf_count", "seed", "max_arity"),
        "RandomSpec(leaf_count=10, seed=7, max_arity=4)",
        id="RandomSpec",
    ),
    pytest.param(
        Mismatch("gamma", "(J a b)", 0, "root", 1, 2),
        Mismatch(predicate="gamma", cotree="(J a b)", node=0, path="root", expected=1, got=2),
        Mismatch("gamma", "(J a b)", 0, "root", 1, 3),
        ("predicate", "cotree", "node", "path", "expected", "got"),
        "Mismatch(predicate='gamma', cotree='(J a b)', node=0, path='root',"
        " expected=1, got=2)",
        id="Mismatch",
    ),
    pytest.param(
        OriginalLemmaFinding("(J a b)", 0, "root", False, True),
        OriginalLemmaFinding(
            cotree="(J a b)", node=0, path="root", p_original=False, definitional=True
        ),
        OriginalLemmaFinding("(J a b)", 1, "root.0", False, True),
        ("cotree", "node", "path", "p_original", "definitional"),
        "OriginalLemmaFinding(cotree='(J a b)', node=0, path='root', p_original=False,"
        " definitional=True)",
        id="OriginalLemmaFinding",
    ),
]

_ROW = "value, keyword, other, names, text"


@pytest.mark.parametrize(_ROW, FROZEN)
def test_frozen_records_compare_and_hash_by_their_fields(value, keyword, other, names, text):
    assert value == keyword and not value != keyword
    assert value != other and not value == other
    assert value != object() and not value == object()
    assert value.__eq__(object()) is NotImplemented
    assert value != Graph(0, (), ()) and value != Cotree(("leaf",), ((),), ("a",))
    assert [getattr(value, name) for name in names] == [getattr(keyword, name) for name in names]
    assert hash(value) == hash(keyword) == hash(tuple(getattr(value, n) for n in names))
    assert len({value, keyword, other}) == 2
    assert repr(value) == repr(keyword) == text
    assert type(value).__match_args__ == names


@pytest.mark.parametrize(_ROW, FROZEN)
def test_frozen_records_refuse_every_assignment_and_deletion(value, keyword, other, names, text):
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == keyword


@pytest.mark.parametrize(_ROW, FROZEN)
@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, *(
        lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    )],
    ids=["copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))],
)
def test_frozen_records_survive_copy_and_pickle(roundtrip, value, keyword, other, names, text):
    back = roundtrip(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value) and repr(back) == text
    with pytest.raises(AttributeError):
        setattr(back, names[0], getattr(value, names[0]))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GkSpec(0), "k must be >= 1, got 0"),
        (lambda: GkSpec(k=-2), "k must be >= 1, got -2"),
        (lambda: RandomSpec(0, 1), "leaf_count must be >= 1, got 0"),
        (lambda: RandomSpec(5, 1, 1), "max_arity must be >= 2, got 1"),
        (lambda: RandomSpec(0, 1, max_arity=1), "leaf_count must be >= 1, got 0"),
        (lambda: OracleBudget(0, 0), "budget caps must be positive"),
        (lambda: OracleBudget(5, 0), "budget caps must be positive"),
        (lambda: OracleBudget(max_vertices_domination=0), "budget caps must be positive"),
        (lambda: OracleBudget(3, 4), "secure cap must not exceed domination cap"),
        (lambda: OracleBudget(max_vertices_domination=15), "secure cap must not exceed domination cap"),
    ],
)
def test_records_that_validate_raise_their_messages(make, message):
    with pytest.raises(ValueError) as exc_info:
        make()
    assert str(exc_info.value) == message


@pytest.mark.parametrize(
    "make",
    [
        lambda: Cotree(_KINDS, _CHILDREN),
        lambda: Cotree(_KINDS, _CHILDREN, _LABELS, 0, 1),
        lambda: Graph(n=2, labels=("a", "b")),
        lambda: GkSpec(),
        lambda: GkSpec(3, k=3),
        lambda: RandomSpec(10, 7, max_arity=4, depth=2),
        lambda: Mismatch("gamma", "(J a b)", 0, "root", 1),
        lambda: VerificationReport(),
        lambda: VerificationReport("c", _nodes=1),
    ],
)
def test_records_refuse_a_wrong_argument_list(make):
    with pytest.raises(TypeError):
        make()


def _annotated():
    tree = Cotree(_KINDS, _CHILDREN, _LABELS)
    return AnnotatedCotree(
        tree, [2, 1, 1], [True, True, True], [1, 1, 1],
        [None, None, None], [None, None, None], [True, None, None], [True, None, None],
    )


def test_annotated_cotree_compares_and_hashes_by_identity():
    at, twin = _annotated(), _annotated()
    assert at == at and at != twin and not at == twin
    assert hash(at) == object.__hash__(at)
    assert len({at, twin, at}) == 2
    assert repr(at) == (
        "AnnotatedCotree(tree=Cotree(kinds=('join', 'leaf', 'leaf'),"
        " children=((1, 2), (), ()), labels=(None, 'a', 'b'), root=0),"
        " size=[2, 1, 1], is_clique=[True, True, True], gamma=[1, 1, 1],"
        " label_r=[None, None, None], union_of_two_cliques=[None, None, None],"
        " p_original=[True, None, None], p_corrected=[True, None, None])"
    )
    keyword = AnnotatedCotree(
        tree=at.tree, size=at.size, is_clique=at.is_clique, gamma=at.gamma,
        label_r=at.label_r, union_of_two_cliques=at.union_of_two_cliques,
        p_original=at.p_original, p_corrected=at.p_corrected,
    )
    assert repr(keyword) == repr(at) and keyword != at
    assert AnnotatedCotree.__match_args__ == ("tree", *NodeAnnotations.__match_args__)


def test_annotated_cotree_is_frozen_but_its_columns_are_lists():
    at = _annotated()
    for name in ("tree", "size", "p_corrected"):
        with pytest.raises(AttributeError):
            setattr(at, name, getattr(at, name))
        with pytest.raises(AttributeError):
            delattr(at, name)
    at.gamma[0] = 2  # the columns themselves stay writable
    assert at.node(0) == NodeAnnotations(2, True, 2, None, None, True, True)


@pytest.mark.parametrize("roundtrip", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
def test_annotated_cotree_survives_copy_and_pickle(roundtrip):
    at = _annotated()
    back = roundtrip(at)
    assert type(back) is AnnotatedCotree and back != at
    assert repr(back) == repr(at) and back.tree == at.tree
    assert back.size == at.size and back.size is not at.size


def test_verification_report_defaults_equality_and_repr():
    report = VerificationReport("c")
    keyword = VerificationReport(
        corpus="c", instances=0, joins_checked=0, unions_checked=0, graphs_checked=0,
        mismatches=[], original_lemma_disagreements=[], elapsed_ms=0.0,
    )
    assert report == keyword and not report != keyword
    assert report.mismatches == [] and report.mismatches is not VerificationReport("c").mismatches
    assert report.original_lemma_disagreements is not keyword.original_lemma_disagreements
    assert report != VerificationReport("d") and report != VerificationReport("c", 1)
    assert report != object() and report.__eq__(object()) is NotImplemented
    text = (
        "VerificationReport(corpus='c', instances=0, joins_checked=0,"
        " unions_checked=0, graphs_checked=0, mismatches=[],"
        " original_lemma_disagreements=[], elapsed_ms=0.0)"
    )
    assert repr(report) == repr(keyword) == text
    assert VerificationReport.__match_args__ == (
        "corpus", "instances", "joins_checked", "unions_checked", "graphs_checked",
        "mismatches", "original_lemma_disagreements", "elapsed_ms",
    )
    assert report.ok
    given, findings = [], []
    report = VerificationReport("c", mismatches=given, original_lemma_disagreements=findings)
    assert report.mismatches is given and report.original_lemma_disagreements is findings


def test_verification_report_is_mutable_unhashable_and_ignores_private_fields():
    report, other = VerificationReport("c"), VerificationReport("c")
    with pytest.raises(TypeError):
        hash(report)
    report.instances += 2
    report.mismatches.append(Mismatch("gamma", "(J a b)", 0, "root", 1, 2))
    assert report != other and not report.ok
    other.instances = 2
    other.mismatches = [Mismatch("gamma", "(J a b)", 0, "root", 1, 2)]
    other._nodes, other._gamma_s_nodes = 5, 1
    other._verdicts.label_r = 3
    assert report == other and repr(report) == repr(other)
    assert "_nodes" not in repr(other) and "_verdicts" not in repr(other)
    assert report._verdicts is not VerificationReport("c")._verdicts


@pytest.mark.parametrize("roundtrip", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
def test_verification_report_survives_copy_and_pickle(roundtrip):
    report = VerificationReport("c", 3, 1, 2, 3, [Mismatch("gamma", "(J a b)", 0, "root", 1, 2)])
    report.original_lemma_disagreements.append(
        OriginalLemmaFinding("(J a b)", 0, "root", False, True)
    )
    report._nodes, report._gamma_s_nodes = 7, 2
    report._verdicts.rows.append((0,))
    back = roundtrip(report)
    assert type(back) is VerificationReport
    assert back == report and repr(back) == repr(report)
    assert back.mismatches is not report.mismatches
    assert (back._nodes, back._gamma_s_nodes, back._verdicts.rows) == (7, 2, [(0,)])
    back.instances = 4
    assert back != report
