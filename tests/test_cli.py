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
from cosec.cotree import node_paths, normalize, parse_cotree, to_text
from cosec.generators import GkSpec, RandomSpec, g_k, random_cotree
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
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"(J a b)")))
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


def test_undecodable_input_gives_the_same_error_from_a_file_and_stdin(tmp_path):
    p = tmp_path / "latin1.cotree"
    p.write_bytes(b"(U a \xff)")
    for encoding in (None, "latin-1"):  # stdin is UTF-8 whatever the locale says
        env = cosec_subprocess_env()
        env.pop("PYTHONIOENCODING", None)
        if encoding:
            env["PYTHONIOENCODING"] = encoding
        for argv, stdin in (([str(p)], None), (["-"], p.read_bytes())):
            proc = subprocess.run(
                [sys.executable, "-m", "cosec", "parse", *argv],
                input=stdin, capture_output=True, timeout=60, env=env,
            )
            assert proc.returncode == 2
            assert proc.stderr == (
                b"error: 'utf-8' codec can't decode byte 0xff in position 5:"
                b" invalid start byte\n"
            )


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


# annotate sweeps the parsed tree and normalizes it only when the sweep
# refuses it; either way the output is that of the normalized tree.
@pytest.mark.parametrize("text", [
    "(U a (U b c))",
    "(J (J a b))",
    "(U (J (U a)))",
    "(U x)",
    "(J (U c d e) (U (J a1 (J b y)) (U z)))",
    "(J (U (U c d) (J e)) (U a1 b))",
])
def test_annotate_of_unnormalized_text_is_that_of_its_normalized_text(capsys, tmp_path, text):
    raw, normal = tmp_path / "raw.cotree", tmp_path / "normal.cotree"
    t = normalize(parse_cotree(text))
    raw.write_text(text)
    normal.write_text(to_text(t))
    for args in ([], ["--json"]):
        assert run(capsys, "annotate", str(raw), *args) == run(
            capsys, "annotate", str(normal), *args
        )
    rc, out, err = run(capsys, "annotate", str(raw), "--oracle-check")
    assert rc == 0 and out
    assert err == f"oracle check: OK ({len(t)} nodes)\n"


def test_annotate_of_a_large_normalized_tree_under_a_unary_root(capsys, tmp_path):
    # The costliest input for sweeping first: the sweep fails only at the
    # root, after the whole tree, and the tree is then normalized and swept.
    body = to_text(random_cotree(RandomSpec(leaf_count=100_000, seed=3)))
    raw, normal = tmp_path / "raw.cotree", tmp_path / "normal.cotree"
    raw.write_text(f"(U {body})")
    normal.write_text(body)
    for args in ([], ["--json"]):
        rc, out, err = run(capsys, "annotate", str(raw), *args)
        assert (rc, err) == (0, "")
        assert (rc, out, err) == run(capsys, "annotate", str(normal), *args)


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


def test_a_budget_of_three_caps_exits_2_from_the_flag_or_the_env(capsys, g1_file, monkeypatch):
    expected = (2, "", "error: bad budget '1,2,3': expected CAP or DOM,SECURE\n")
    assert run(capsys, "annotate", g1_file, "--oracle-check", "--budget", "1,2,3") == expected
    monkeypatch.setenv("COSEC_BUDGET", "1,2,3")
    assert run(capsys, "verify", "--max-n", "3") == expected


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
    _, plain, _ = run(capsys, "annotate", g1_file)
    rc, out, err = run(capsys, "annotate", g1_file, "--budget", "20,16")
    assert (rc, out) == (0, plain)
    assert err == "warning: --budget applies only with --oracle-check\n"


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
    # γ_s runs on every node graph of at most 8 vertices: g_3's whole 7-vertex
    # graph is the one above a secure cap of 5
    p = tmp_path / "g3.cotree"
    p.write_text(to_text(g_k(GkSpec(3))))
    rc, _, err = run(capsys, "annotate", str(p), "--oracle-check", "--budget", "20,5")
    assert rc == 4
    assert err == (
        "error: secure_domination_number oracle budget exceeded: "
        "graph has 7 vertices, cap is 5\n"
    )


def test_oracle_check_refuses_a_small_node_graph_of_a_large_tree(capsys, tmp_path):
    # g_5 has 9 leaves, so its whole graph gets no γ_s, but its 6-vertex
    # (U (J a1 .. a5) b) does, and that is above a secure cap of 5
    p = tmp_path / "g5.cotree"
    p.write_text(to_text(g_k(GkSpec(5))))
    rc, out, err = run(capsys, "annotate", str(p), "--oracle-check", "--budget", "20,5")
    assert rc == 4
    assert out == run(capsys, "annotate", str(p))[1]  # the table comes first
    assert err == (
        "error: secure_domination_number oracle budget exceeded: "
        "graph has 6 vertices, cap is 5\n"
    )
    rc, _, err = run(capsys, "annotate", str(p), "--oracle-check")  # default caps
    assert (rc, err) == (0, "oracle check: OK (13 nodes)\n")


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
        # the γ_s of the first 5-vertex node graph, the first 5-leaf tree's root
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
# start-up: what each command imports

# Modules only some commands need.  ``--help``, ``parse`` and ``annotate``
# must not load them: every module a command imports is compiled at start
# when no bytecode cache is written.
DEFERRED_MODULES = (
    "cosec.verify", "cosec.oracles", "cosec.generators", "json", "statistics", "timeit"
)
# Modules no command needs: ``dataclasses`` alone pulls in ``inspect``,
# ``ast``, ``dis`` and ``tokenize``.
NEVER_LOADED = ("dataclasses", "inspect")

# ``python -m cosec ARGS``, run in-process by runpy, then one stderr line
# naming the DEFERRED_MODULES and NEVER_LOADED that were not loaded before
# cosec ran.
_RUN_AND_LIST = f"""
import runpy, sys
before = set(sys.modules)
sys.argv = ["cosec", *sys.argv[1:]]
try:
    runpy.run_module("cosec", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = [m for m in {DEFERRED_MODULES + NEVER_LOADED!r} if m in sys.modules and m not in before]
print("loaded:", *loaded, file=sys.stderr)
sys.exit(code)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    """A child interpreter that imports the cosec this process imported."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=cosec_subprocess_env(),
    )


def _loaded_by(*argv: str) -> tuple[int, str, list[str]]:
    """Exit code, stdout and the deferred modules ``cosec ARGV`` loaded, run
    in a child interpreter."""
    proc = _python("-c", _RUN_AND_LIST, *argv)
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("loaded:"), proc.stderr
    return proc.returncode, proc.stdout, last.split()[1:]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["annotate", "{file}"],
        ["annotate", "--json", "{file}"],
        ["parse", "{file}"],
        ["parse", "--json", "{file}"],
    ],
    ids=" ".join,
)
def test_help_parse_and_annotate_load_no_deferred_module(g1_file, argv):
    rc, out, loaded = _loaded_by(*(a.format(file=g1_file) for a in argv))
    assert rc == 0 and out
    assert loaded == []


@pytest.mark.parametrize(
    "argv, needed",
    [
        (["gk", "2"], ["cosec.generators"]),
        (["annotate", "{file}", "--oracle-check"], ["cosec.verify", "cosec.oracles"]),
        (["verify", "--max-n", "4", "--json"], ["cosec.verify", "json"]),
        (
            ["bench", "--sizes", "20", "--repeats", "1"],
            ["cosec.generators", "statistics", "timeit"],
        ),
    ],
)
def test_commands_that_need_a_deferred_module_load_it_and_run(g1_file, argv, needed):
    rc, out, loaded = _loaded_by(*(a.format(file=g1_file) for a in argv))
    assert rc == 0 and out
    assert set(needed) <= set(loaded)
    assert not set(NEVER_LOADED) & set(loaded)


@pytest.mark.parametrize(
    "first",
    [
        "import cosec",
        "import cosec.annotate",
        "from cosec.annotate import annotate",
        "import cosec.cli",
        "import cosec.cotree",
        "import cosec.generators",
        "import cosec.oracles",
        "import cosec.verify",
    ],
)
def test_package_annotate_is_the_function_whatever_was_imported_first(first):
    code = (
        f"{first}\n"
        "import sys, cosec\n"
        "assert cosec.annotate is sys.modules['cosec.annotate'].annotate, cosec.annotate\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_star_import_and_dir_cover_every_public_name():
    code = (
        "import sys, cosec\n"
        "listed = set(dir(cosec))\n"
        "ns = {}\n"
        "exec('from cosec import *', ns)\n"
        "missing = [n for n in cosec.__all__ if n not in listed or n not in ns]\n"
        "assert not missing, missing\n"
        "for n in cosec.__all__:\n"
        "    assert ns[n] is getattr(cosec, n), n\n"
        "assert not hasattr(cosec, 'no_such_name')\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


# The cosec.cli names that perfbench's tracer reads with getattr (its
# allocation stages) before it rebinds them; the handlers must then call
# them as attributes of the module for the wrappers to take effect.
TRACED_CLI_NAMES = ("parse_cotree", "normalize", "annotate", "verify_corpora")


def test_cli_resolves_every_name_the_tracer_reads():
    code = (
        "import importlib\n"
        "cli = importlib.import_module('cosec.cli')\n"
        f"for n in {TRACED_CLI_NAMES!r}:\n"
        "    fn = getattr(cli, n)\n"
        "    home = importlib.import_module(fn.__module__)\n"
        "    assert fn is getattr(home, n), n\n"
        "assert not hasattr(cli, 'no_such_name')\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def test_tracer_runs_on_the_current_members(tmp_path):
    # the tracer rebinds AnnotatedCotree.node and to_json_nodes by name, so a
    # deleted or renamed member fails here rather than only in a traced bench
    source = tmp_path / "g2.cotree"
    source.write_text(to_text(g_k(GkSpec(2))) + "\n")
    spans = tmp_path / "spans.json"
    proc = _python(str(TRACER), str(spans), "--", "annotate", str(source))
    assert proc.returncode == 0, proc.stderr
    names = json.loads(spans.read_text())["names"]
    assert {"annotate.node_view", "annotate.to_json_nodes"} <= set(names)
    peaks = tmp_path / "alloc.json"
    proc = _python(
        str(TRACER), str(peaks), "--alloc", "--", "verify", "--max-n", "4", "--json"
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify.verify_corpora" in json.loads(peaks.read_text())["alloc_peak_bytes"]


def test_handlers_call_the_deferred_names_through_the_module(capsys, monkeypatch):
    import cosec.cli

    calls = []
    for name in ("verify_corpora", "report_json", "g_k"):
        real = getattr(cosec.cli, name)

        def recording(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cosec.cli, name, recording)
    assert run(capsys, "verify", "--max-n", "3", "--json")[0] == 0
    assert run(capsys, "gk", "1")[0] == 0
    assert calls == ["verify_corpora", "report_json", "g_k"]


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
