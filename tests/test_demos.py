"""Each script under demos/ runs to completion in a child interpreter that
imports the same ``cosec`` package as the test process."""

import subprocess
import sys
from pathlib import Path

import pytest

from cosec.verify import report_text, verify_corpora

from helpers import cosec_subprocess_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
