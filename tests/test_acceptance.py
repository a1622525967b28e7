"""Acceptance gate: one test per shipping criterion, each printing a
one-line verdict.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the verdict lines as they happen.

The corpora are the session fixtures from conftest: every normalized cotree
shape with <= 8 leaves, plus 5000 seeded random cotrees with <= 14 leaves.
"""

import gc
import json
import statistics
import subprocess
import sys
import time

from cosec.annotate import annotate
from cosec.cotree import (
    JOIN,
    LEAF,
    UNION,
    complement,
    from_nested,
    join,
    materialize,
    normalize,
    parse_cotree,
    subtree,
    to_text,
    union,
)
from cosec.generators import GkSpec, RandomSpec, g_k, random_cotree
from cosec.oracles import (
    domination_number,
    is_complete,
    label_r_definitional,
    label_r_structural,
    property_p_definitional,
    secure_domination_number,
)

from helpers import cosec_subprocess_env, has_induced_p4, shape_key


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status} — {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_counterexample_family_reproduced():
    start = time.perf_counter()
    bad = []
    for k in range(1, 51):
        t = g_k(GkSpec(k))
        root = annotate(t).node(0)
        if not (
            property_p_definitional(t) is True
            and root.p_corrected is True
            and root.p_original is False
        ):
            bad.append(k)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "G_k root verdicts for k=1..50 (definitional true, corrected true, "
        "original false) in under 10 s",
        not bad and elapsed < 10.0,
        f"elapsed {elapsed:.2f} s" + (f", failing k: {bad}" if bad else ""),
    )


def test_criterion_2_corrected_rule_matches_definition(exhaustive8, random5000):
    start = time.perf_counter()
    joins = 0
    mismatches = []
    for t in (*exhaustive8, *random5000):
        at = annotate(t)
        for v in range(len(t)):
            if t.kinds[v] != JOIN:
                continue
            joins += 1
            if at.node(v).p_corrected != property_p_definitional(subtree(t, v)):
                mismatches.append((to_text(t), v))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "corrected join rule agrees with the definitional check at every "
        "join node of both corpora in under 10 min",
        not mismatches and elapsed < 600.0,
        f"{joins} join nodes, elapsed {elapsed:.1f} s"
        + (f", first mismatch {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_3_label_r_three_way_agreement(exhaustive8, random5000):
    unions = 0
    mismatches = []
    for t in (*exhaustive8, *random5000):
        at = annotate(t)
        for v in range(len(t)):
            if t.kinds[v] != UNION:
                continue
            unions += 1
            defn = label_r_definitional(t, v)
            if not (defn == label_r_structural(t, v) == at.node(v).label_r):
                mismatches.append((to_text(t), v))
    _verdict(
        3,
        "label ℛ: definitional = structural = annotation at every union "
        "node of both corpora",
        not mismatches,
        f"{unions} union nodes"
        + (f", first mismatch {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_4_gamma_matches_oracle(exhaustive8, random5000):
    graphs = 0
    mismatches = []
    for t in (*exhaustive8, *random5000):
        graphs += 1
        if annotate(t).node(0).gamma != domination_number(materialize(t)):
            mismatches.append(to_text(t))
    _verdict(
        4,
        "annotation gamma equals the domination-number oracle on every "
        "corpus graph",
        not mismatches,
        f"{graphs} graphs" + (f", first mismatch {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_5_gamma_s_one_iff_complete(exhaustive8):
    bad = []
    for t in exhaustive8:
        g = materialize(t)
        if (secure_domination_number(g) == 1) != is_complete(g):
            bad.append(to_text(t))
    extremes_ok = True
    for n in range(1, 9):
        k_n = "a0" if n == 1 else "(J " + " ".join(f"a{i}" for i in range(n)) + ")"
        n_k1 = "a0" if n == 1 else "(U " + " ".join(f"a{i}" for i in range(n)) + ")"
        if secure_domination_number(materialize(parse_cotree(k_n))) != 1:
            extremes_ok = False
        if secure_domination_number(materialize(parse_cotree(n_k1))) != n:
            extremes_ok = False
    _verdict(
        5,
        "secure domination number is 1 exactly on complete graphs (all "
        "graphs with <= 8 vertices), with K_n and n·K_1 values exact",
        not bad and extremes_ok,
        f"{len(exhaustive8)} graphs",
    )


def _cli_verify_json(max_n: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "cosec", "verify", "--max-n", str(max_n), "--json"],
        capture_output=True,
        text=True,
        timeout=300,
        env=cosec_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_criterion_6_smallest_counterexample_search():
    clean = _cli_verify_json(4)
    found = _cli_verify_json(5)
    g1 = shape_key(g_k(GkSpec(1)))
    shapes = {
        shape_key(parse_cotree(f["cotree"]))
        for f in found["original_lemma_disagreements"]
    }
    ok = (
        clean["original_lemma_disagreements"] == []
        and clean["mismatches"] == []
        and len(found["original_lemma_disagreements"]) >= 1
        and g1 in shapes
    )
    _verdict(
        6,
        "verify --max-n 4 reports no original-rule disagreements; "
        "--max-n 5 reports at least one, including the 5-vertex witness",
        ok,
        f"n<=5 disagreements: {len(found['original_lemma_disagreements'])}",
    )


def _median_annotate_seconds(
    *leaf_counts: int, repeats: int = 5
) -> list[tuple[float, int]]:
    """Median ``annotate`` time and node count per tree size.

    Every tree is built and annotated once before any is timed, so all are
    timed in the same heap.  The timed calls alternate between the sizes,
    with garbage collected before each, so a change of host load during the
    test reaches every size alike rather than one median alone.
    """
    trees = [random_cotree(RandomSpec(leaf_count=n, seed=7)) for n in leaf_counts]
    for t in trees:
        annotate(t)  # warmup so allocator and cache effects do not skew the ratio
    times = [[] for _ in trees]
    for _ in range(repeats):
        for t, timed in zip(trees, times):
            gc.collect()
            start = time.perf_counter()
            annotate(t)
            timed.append(time.perf_counter() - start)
    return [(statistics.median(timed), len(t)) for t, timed in zip(trees, times)]


def test_criterion_7_annotation_scales_linearly():
    (t_small, _), (t_big, nodes_big) = _median_annotate_seconds(10**5, 10**6)
    ratio = t_big / t_small
    ns_per_node = t_big * 1e9 / nodes_big
    _verdict(
        7,
        "annotate grows linearly: t(1e6)/t(1e5) < 15 and < 5000 ns/node "
        "at a million leaves",
        ratio < 15.0 and ns_per_node < 5000.0,
        f"ratio {ratio:.1f}, {ns_per_node:.0f} ns/node",
    )


def _relabel(t, prefix):
    order = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(t.children[v])
    nested = {}
    counter = 0
    for v in reversed(order):
        if t.kinds[v] == LEAF:
            nested[v] = None  # filled below in id order
        else:
            nested[v] = (t.kinds[v], [])
    fresh = {}
    for v in order:
        if t.kinds[v] == LEAF:
            fresh[v] = f"{prefix}{counter}"
            counter += 1
    for v in reversed(order):
        if t.kinds[v] != LEAF:
            nested[v] = (t.kinds[v], [nested[c] if t.kinds[c] != LEAF else fresh[c]
                                      for c in t.children[v]])
    top = nested[t.root] if t.kinds[t.root] != LEAF else fresh[t.root]
    return from_nested(top)


def test_criterion_8_structural_invariants(exhaustive8, random5000):
    corpus = (*exhaustive8, *random5000)
    failures = []
    for t in corpus:
        if parse_cotree(to_text(t)) != t:
            failures.append(("round-trip", to_text(t)))
        tn = normalize(t)
        if normalize(tn) != tn:
            failures.append(("idempotence", to_text(t)))
        if complement(complement(t)) != t:
            failures.append(("involution", to_text(t)))
        if has_induced_p4(materialize(t)):
            failures.append(("p4-free", to_text(t)))
    for a, b in zip(exhaustive8[:150], random5000[:150]):
        t1, t2 = _relabel(a, "p"), _relabel(b, "q")
        direct = materialize(join(t1, t2)).edge_labels()
        via = materialize(
            complement(union(complement(t1), complement(t2)))
        ).edge_labels()
        if direct != via:
            failures.append(("de-morgan", (to_text(t1), to_text(t2))))
    _verdict(
        8,
        "structural invariants (round-trip, normalize idempotence, "
        "complement involution, De Morgan join, P4-freeness) hold corpus-wide",
        not failures,
        f"{len(corpus)} trees"
        + (f", first failure {failures[0]}" if failures else ""),
    )
