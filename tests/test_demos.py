"""Each script under demos/ runs to completion in a child interpreter that
imports the same ``cosec`` package as the test process, and README's
examples say what the package does."""

import io
import subprocess
import sys
from pathlib import Path

import pytest

from cosec.cli import main
from cosec.verify import report_text, verify_corpora

from helpers import cosec_subprocess_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path) -> str:
    done = subprocess.run(
        [sys.executable, str(demo)],
        env=cosec_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_there_are_demos():
    assert [demo.name[:3] for demo in DEMOS] == ["01_", "02_", "03_"]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_0(demo):
    _run(demo)


def test_exhaustive_search_demo_prints_the_n5_report():
    def timeless(text):
        lines = text.splitlines(keepends=True)
        return "".join(line for line in lines if not line.startswith("elapsed:"))

    [demo] = [demo for demo in DEMOS if demo.name == "03_exhaustive_search.py"]
    report = timeless(report_text(verify_corpora(max_n=5)))
    # a blank line, then the report as print() writes it
    assert timeless(_run(demo)).endswith("\n\n" + report + "\n")


def _readme_block(after: str) -> str:
    """The first fenced block after the line ``after`` in README.md, fences removed."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rest = text[text.index(f"\n{after}\n"):]
    body = rest[rest.index("\n", rest.index("```")) + 1:]
    return body[: body.index("```")]


def test_readme_quick_start_runs():
    exec(compile(_readme_block("## Library quick start"), "README.md", "exec"), {})


def test_readme_annotate_rows_are_the_first_rows_for_g3(capsys, monkeypatch):
    rows = _readme_block("`cosec annotate` prints one row per node:").splitlines()
    assert rows[-1] == "..."
    assert main(["gk", "3"]) == 0
    gk3 = capsys.readouterr().out.encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(gk3)))
    assert main(["annotate", "-"]) == 0
    assert capsys.readouterr().out.splitlines()[: len(rows) - 1] == rows[:-1]
