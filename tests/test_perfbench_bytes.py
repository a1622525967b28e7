"""The benchmark's output gate, run in process: ``cosec annotate`` and
``cosec annotate --json`` on perfbench's seeded inputs print the bytes that
``perfbench/expected.json`` records.  The writers and the recorded rows are
read from ``perfbench/`` as they are; this file changes neither."""

import hashlib
import io
import json
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cosec.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.mark.parametrize(
    "workload, variant, writer, args",
    [
        ("annotate-json-deep", 0, "caterpillar", ["--json"]),
        ("annotate-json-deep", 1, "caterpillar", ["--json"]),
        ("annotate-table", 0, "bushy", []),
        # the widest path of the 32 bushy variants, 62 characters: the nearest
        # to the table's 64-character path cell cap
        ("annotate-table", 7, "bushy", []),
    ],
)
def test_annotate_prints_the_recorded_bytes(tmp_path, workload, variant, writer, args):
    row = EXPECTED[workload][variant]
    # run_path compiles the writers from source and leaves no bytecode in perfbench/
    text, raw_nodes = runpy.run_path(str(PERFBENCH / "inputs.py"))[writer](variant)
    data = text.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == row["input_sha256"]
    assert raw_nodes == row["raw_nodes"]
    path = tmp_path / "input.cotree"
    path.write_bytes(data)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["annotate", *args, str(path)])
    assert rc == row["exit_code"]
    stdout = out.getvalue()
    # node records counted as perfbench/record.py counts them
    nodes = stdout.count('\n    {\n      "id": ') if args else stdout.count("\n") - 1
    assert nodes == row["normalized_nodes"]
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == row["stdout_sha256"]
