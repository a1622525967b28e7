import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cosec.annotate import annotate
from cosec.cli import main
from cosec.cotree import node_paths, parse_cotree, to_text
from cosec.generators import GkSpec, g_k
from cosec.oracles import OracleBudget
from cosec.verify import VerificationReport, check_tree

from helpers import cosec_subprocess_env

G1 = "(J (U c d e) (U a1 b))\n"


@pytest.fixture
def g1_file(tmp_path):
    p = tmp_path / "g1.cotree"
    p.write_text(G1)
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse

def test_parse_prints_canonical_text(capsys, tmp_path):
    p = tmp_path / "t.cotree"
    p.write_text("( J  a ( U b c ) )")
    rc, out, _ = run(capsys, "parse", str(p))
    assert rc == 0 and out == "(J a (U b c))\n"


def test_parse_normalize_flag(capsys, tmp_path):
    p = tmp_path / "t.cotree"
    p.write_text("(U a (U b c))")
    rc, out, _ = run(capsys, "parse", str(p), "--normalize")
    assert rc == 0 and out == "(U a b c)\n"


def test_parse_dot_output(capsys, g1_file):
    rc, out, _ = run(capsys, "parse", g1_file, "--dot")
    assert rc == 0
    assert out.startswith("graph cotree {")
    assert '[label="∪"]' in out and '[label="+"]' in out


def test_parse_json_output_is_stable(capsys, g1_file):
    rc1, out1, _ = run(capsys, "parse", g1_file, "--json")
    rc2, out2, _ = run(capsys, "parse", g1_file, "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["nodes"][0]["kind"] == "join"


def test_parse_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("(J a b)"))
    rc, out, _ = run(capsys, "parse", "-")
    assert rc == 0 and out == "(J a b)\n"


def test_parse_error_exits_2_with_byte_offset(capsys, tmp_path):
    p = tmp_path / "bad.cotree"
    p.write_text("(U a (U b")
    rc, _, err = run(capsys, "parse", str(p))
    assert rc == 2
    assert "syntax error at byte" in err


def test_crlf_input_reports_the_same_byte_offset_from_a_file_and_stdin(tmp_path):
    p = tmp_path / "crlf.cotree"
    p.write_bytes(b"(U a\r\nb))")
    for argv, stdin in (([str(p)], None), (["-"], p.read_bytes())):
        proc = subprocess.run(
            [sys.executable, "-m", "cosec", "parse", *argv],
            input=stdin,
            capture_output=True,
            timeout=60,
            env=cosec_subprocess_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr == b"error: syntax error at byte 8: unbalanced ')'\n"


def test_missing_file_exits_1(capsys, tmp_path):
    rc, _, err = run(capsys, "parse", str(tmp_path / "nope.cotree"))
    assert rc == 1 and "error:" in err


def test_conflicting_output_flags_exit_2(g1_file):
    with pytest.raises(SystemExit) as exc_info:
        main(["parse", g1_file, "--dot", "--json"])
    assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# annotate

def test_annotate_table(capsys, g1_file):
    rc, out, _ = run(capsys, "annotate", g1_file)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["id", "path", "kind", "size"]
    root_row = lines[1].split()
    assert root_row[0] == "0" and root_row[2] == "join"
    assert root_row[-2:] == ["no", "yes"]  # p_original, p_corrected


def test_annotate_normalizes_input(capsys, tmp_path):
    p = tmp_path / "u.cotree"
    p.write_text("(U a (U b c))")
    rc, out, _ = run(capsys, "annotate", str(p))
    assert rc == 0
    assert len(out.splitlines()) == 1 + 4  # header + union node + 3 leaves


def test_annotate_json_matches_schema(capsys, g1_file):
    rc, out, _ = run(capsys, "annotate", g1_file, "--json")
    assert rc == 0
    nodes = json.loads(out)["nodes"]
    assert nodes[0]["p_original"] is False and nodes[0]["p_corrected"] is True
    assert nodes[0]["label_r"] is None


def test_annotate_oracle_check_passes(capsys, g1_file):
    rc, _, err = run(capsys, "annotate", g1_file, "--oracle-check")
    assert rc == 0
    assert "oracle check: OK" in err


def test_annotate_oracle_check_blows_tiny_budget(capsys, g1_file):
    rc, _, err = run(capsys, "annotate", g1_file, "--oracle-check", "--budget", "4")
    assert rc == 4
    assert "budget exceeded" in err


def test_budget_env_var_applies(capsys, g1_file, monkeypatch):
    monkeypatch.setenv("COSEC_BUDGET", "4")
    rc, _, _ = run(capsys, "annotate", g1_file, "--oracle-check")
    assert rc == 4


def test_budget_flag_beats_env_var(capsys, g1_file, monkeypatch):
    monkeypatch.setenv("COSEC_BUDGET", "4")
    rc, _, err = run(capsys, "annotate", g1_file, "--oracle-check", "--budget", "20,16")
    assert rc == 0, err


def test_malformed_budget_exits_2(capsys, g1_file):
    rc, out, err = run(capsys, "annotate", g1_file, "--oracle-check", "--budget", "x,y")
    assert rc == 2 and "bad budget" in err
    assert out == ""


def test_malformed_budget_from_the_env_exits_2_before_any_output(
    capsys, g1_file, monkeypatch
):
    monkeypatch.setenv("COSEC_BUDGET", "5,9")
    rc, out, err = run(capsys, "annotate", g1_file, "--oracle-check")
    assert (rc, out) == (2, "")
    assert err == "error: bad budget '5,9': secure cap must not exceed domination cap\n"
    # a plain annotate reads no budget
    rc, out, _ = run(capsys, "annotate", g1_file)
    assert rc == 0 and out.startswith("id ")


def test_malformed_budget_flag_without_oracle_check_exits_2(capsys, g1_file):
    rc, out, err = run(capsys, "annotate", g1_file, "--budget", "x,y")
    assert (rc, out) == (2, "")
    assert "bad budget 'x,y'" in err
    rc, out, _ = run(capsys, "annotate", g1_file, "--budget", "20,16")
    assert rc == 0 and out.startswith("id ")


def test_annotate_oracle_check_reports_mismatches(capsys, g1_file, monkeypatch):
    import cosec.verify

    monkeypatch.setattr(
        cosec.verify, "property_p_definitional_graph", lambda g: False
    )
    rc, _, err = run(capsys, "annotate", g1_file, "--oracle-check")
    assert rc == 3
    assert "MISMATCH" in err


def test_annotate_oracle_check_refuses_a_large_tree_before_building_it(
    capsys, tmp_path
):
    leaves = 20_000
    text = "".join(f"({'UJ'[i % 2]} x{i} " for i in range(leaves - 2))
    p = tmp_path / "caterpillar.cotree"
    p.write_text(text + "(U a b" + ")" * (leaves - 1))
    start = time.perf_counter()
    rc, _, err = run(capsys, "annotate", str(p), "--json", "--oracle-check")
    assert rc == 4
    assert err == (
        "error: domination_number oracle budget exceeded: "
        "graph has 20000 vertices, cap is 20\n"
    )
    # building the whole tree's graph, as the check once did, takes minutes
    assert time.perf_counter() - start < 60


def test_oracle_check_mismatch_paths_match_node_paths(capsys, tmp_path, monkeypatch):
    import cosec.verify

    # every node is reported, with paths through a multi-digit child index
    monkeypatch.setattr(cosec.verify, "domination_number", lambda g, budget: 0)
    text = "(J (U a b (J c d) e f g h i j k (J l m)) (U n (J o (U p q))))"
    p = tmp_path / "t.cotree"
    p.write_text(text)
    rc, _, err = run(capsys, "annotate", str(p), "--oracle-check")
    assert rc == 3
    t = parse_cotree(text)
    gamma = annotate(t).gamma
    paths = node_paths(t)
    assert "root.0.10.1" in paths
    expected = [
        f"MISMATCH gamma at {paths[v]}: oracle 0, pass {gamma[v]}" for v in range(len(t))
    ]
    assert err.splitlines() == expected


def test_oracle_check_prints_the_check_tree_mismatches(capsys, g1_file, monkeypatch):
    import cosec.verify

    # one injected fault: label ℛ's definitional oracle answers inverted
    real = cosec.verify.label_r_definitional_graphs
    monkeypatch.setattr(
        cosec.verify, "label_r_definitional_graphs", lambda *a: not real(*a)
    )
    t = parse_cotree(G1)
    report = VerificationReport(corpus="g1")
    check_tree(t, report, OracleBudget())
    # at the one two-child union, (U a1 b), whose ℛ holds
    assert [(m.predicate, m.path) for m in report.mismatches] == [
        ("label_r_structural", "root.1"),
        ("label_r", "root.1"),
    ]
    rc, _, err = run(capsys, "annotate", g1_file, "--oracle-check")
    assert rc == 3
    assert err.splitlines() == [
        f"MISMATCH {m.predicate} at {m.path}: oracle {m.expected}, pass {m.got}"
        for m in report.mismatches
    ]


def test_oracle_check_refuses_whole_graph_gamma_s_under_a_small_secure_cap(
    capsys, tmp_path
):
    # g_3 has 7 leaves, so its whole-graph γ_s check runs: above a secure cap
    # of 5 it is refused, though every per-node check fits the caps
    p = tmp_path / "g3.cotree"
    p.write_text(to_text(g_k(GkSpec(3))))
    rc, _, err = run(capsys, "annotate", str(p), "--oracle-check", "--budget", "20,5")
    assert rc == 4
    assert err == (
        "error: secure_domination_number oracle budget exceeded: "
        "graph has 7 vertices, cap is 5\n"
    )


# ---------------------------------------------------------------------------
# gk

def test_gk_stdout(capsys):
    rc, out, _ = run(capsys, "gk", "1")
    assert rc == 0 and out == G1


def test_gk_writes_file(capsys, tmp_path):
    out_path = tmp_path / "g3.cotree"
    rc, out, _ = run(capsys, "gk", "3", "--out", str(out_path))
    assert rc == 0 and out == ""
    assert "(J a1 a2 a3)" in out_path.read_text()


def test_gk_zero_exits_2(capsys):
    rc, _, err = run(capsys, "gk", "0")
    assert rc == 2 and "k must be >= 1" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_max_n_4_is_clean(capsys):
    rc, out, _ = run(capsys, "verify", "--max-n", "4")
    assert rc == 0
    assert "result: OK" in out
    assert "original-lemma disagreements (expected findings): 0" in out


def test_verify_max_n_5_reports_the_finding_but_exits_0(capsys):
    rc, out, _ = run(capsys, "verify", "--max-n", "5")
    assert rc == 0
    assert "original-lemma disagreements (expected findings): 1" in out
    assert "finding" in out


def test_verify_random_corpus_is_deterministic(capsys):
    args = ("verify", "--random", "40", "--leaves", "9", "--seed", "1", "--json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1)["elapsed_ms"] is None


def test_verify_without_corpus_exits_2(capsys):
    rc, _, err = run(capsys, "verify")
    assert rc == 2 and "nothing to verify" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (("--random", "-5"), "random_count must be >= 0, got -5"),
        (("--random", "5", "--leaves", "0"), "random_leaves must be >= 1, got 0"),
        (
            ("--max-n", "3", "--random", "2", "--leaves", "-1"),
            "random_leaves must be >= 1, got -1",
        ),
    ],
)
def test_verify_bad_random_arguments_exit_2(capsys, args, message):
    rc, out, err = run(capsys, "verify", *args)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_verify_guard_exits_2(capsys):
    rc, _, err = run(capsys, "verify", "--max-n", "11")
    assert rc == 2 and "max_leaves" in err


def test_verify_mismatch_exits_3(capsys, monkeypatch):
    import cosec.verify

    monkeypatch.setattr(cosec.verify, "property_p_definitional_graph", lambda g: False)
    rc, out, _ = run(capsys, "verify", "--max-n", "3")
    assert rc == 3
    assert "MISMATCH" in out


def test_verify_budget_exits_4(capsys):
    rc, _, err = run(capsys, "verify", "--max-n", "5", "--budget", "3,3")
    assert rc == 4 and "budget exceeded" in err


@pytest.mark.parametrize(
    "budget, refusal",
    [
        # label ℛ's γ_s = 1 test on an 11-leaf union child of a random tree
        ("20,8", "secure_domination_number oracle budget exceeded: "
                 "graph has 11 vertices, cap is 8"),
        # the whole-graph γ_s of the first 5-leaf tree, before any per-node check
        ("12,4", "secure_domination_number oracle budget exceeded: "
                 "graph has 5 vertices, cap is 4"),
    ],
    ids=["label-r-child", "whole-graph"],
)
def test_verify_budget_refusal_is_the_first_in_check_order(capsys, budget, refusal):
    args = ("verify", "--max-n", "9", "--random", "300", "--leaves", "14")
    rc, _, err = run(capsys, *args, "--budget", budget)
    assert rc == 4
    assert err == f"error: {refusal}\n"


# ---------------------------------------------------------------------------
# bench

def test_bench_prints_a_row_per_size(capsys):
    rc, out, _ = run(capsys, "bench", "--sizes", "50,200", "--repeats", "1")
    assert rc == 0
    lines = out.splitlines()
    assert "ns_per_node" in lines[0]
    assert len(lines) == 3


def test_bench_times_the_writers_into_a_sink(capsys):
    rc, out, _ = run(capsys, "bench", "--sizes", "30", "--repeats", "1")
    assert rc == 0
    header, row = out.splitlines()
    assert header.split() == [
        "leaves", "nodes", "median_ms", "ns_per_node", "table_ns", "json_ns",
        "parse_ns",
    ]
    cells = row.split()
    assert len(cells) == 7 and all(float(x) > 0 for x in cells[3:])


def test_bench_rejects_bad_sizes(capsys):
    rc, _, _ = run(capsys, "bench", "--sizes", "0")
    assert rc == 2
    rc, _, _ = run(capsys, "bench", "--sizes", "ten")
    assert rc == 2


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_bench_rejects_repeats_below_one_before_any_output(capsys, repeats):
    rc, out, err = run(capsys, "bench", "--sizes", "30", "--repeats", repeats)
    assert rc == 2
    assert out == ""
    assert err == "error: repeats must be a positive integer\n"


# ---------------------------------------------------------------------------
# console script

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_console_script() -> str:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"]["cosec"]


def _launcher_source(spec: str) -> str:
    """The body of the script pip generates for a console-script entry point
    ``module:attr``."""
    module, attr = spec.split(":")
    return (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'cosec'\n"
        f"sys.exit({attr}())\n"
    )


def test_console_script_is_installed():
    """The declared ``cosec`` entry point, run the way its installed launcher
    runs it, exits 0 with the expected bytes; where a ``cosec`` script is on
    PATH, that script must do the same."""
    spec = _declared_console_script()
    assert spec == "cosec.cli:main"
    expected = "(J (U c d e) (U (J a1 a2) b))\n"
    proc = subprocess.run(
        [sys.executable, "-c", _launcher_source(spec), "gk", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=cosec_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    installed = shutil.which("cosec")
    if installed is not None:
        proc = subprocess.run(
            [installed, "gk", "2"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
