"""End-to-end benchmark of the ``cosec`` command on three seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` spawns ``python -m cosec ...`` repeatedly for about S seconds,
stdout to a file, and reports the end-to-end metrics.  ``--trace 1`` runs the
same command untraced, then once under tracemalloc, then in-process under
``traced.py`` (spans per layer) for the rest of the S seconds, and reports
the per-layer metrics.  Every
invocation's exit code and stdout sha256 are checked against
``expected.json``; a wrong one counts as failed.  Human-readable lines come
first; the last stdout line is one JSON object (correct, attempted, failed,
metrics).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
MIN_SAMPLES = 5
PROBES = 3  # ``--help`` probes before every sample
# Nominal reference time.  setup_s is the probe time over the reference time,
# in seconds on a machine that runs reference.py in REF_S.
# Never change it: that would change every setup_s.
REF_S = 0.5

# name -> (cosec arguments, input writer); "{input}" and "{variant}" are
# filled in per run.
WORKLOADS = {
    "annotate-table": (["annotate", "{input}"], inputs.bushy),
    "annotate-json-deep": (["annotate", "--json", "{input}"], inputs.caterpillar),
    "verify-mixed": (
        ["verify", "--max-n", "9", "--random", "2000", "--leaves", "14",
         "--seed", "{variant}", "--json"],
        None,
    ),
}
ORACLES = (
    "domination_number",
    "secure_domination_number",
    "property_p_definitional",
    "label_r_definitional",
    "label_r_structural",
    "gamma_s_is_one",
    "is_complete",
)
SELF_TIMES = (
    "cli.render_self_ms",
    "verify.check_tree.self_ms",
    *(f"oracles.{fn}.self_ms" for fn in ORACLES),
)
# Printed for the reader but not in the result: the raw end-to-end figures,
# the tracer's cost per child span, and the share of each raw self time
# that was that cost and is taken out of the figure reported.
PRINT_ONLY = {
    "wall_s": "s",
    "setup_raw_s": "s",
    "reference_s": "s",
    "nodes_per_s": "nodes/s",
    "trees_per_s": "trees/s",
    "trace.span_overhead_ns": "ns",
    "trace.runs": "count",
    "trace.elapsed_s": "s",
    **{f"{name}.tracer_share": "ratio" for name in SELF_TIMES},
}
ALLOC_STAGES = {
    "cotree.parse_cotree": "cotree.parse_cotree.alloc_peak_mb",
    "cotree.normalize": "cotree.normalize.alloc_peak_mb",
    "annotate.annotate": "annotate.annotate.alloc_peak_mb",
    "render": "cli.render.alloc_peak_mb",
}


class Refused(Exception):
    """The benchmark cannot measure here; exit non-zero without a result."""


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    setup_s: float  # median of the --help probes just before it


def cosec_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def spawn(cmd: list[str], stdout: Path) -> tuple[int, int, float, int]:
    """Run cmd to completion with stdout to a file.

    Returns (start_ns, end_ns, peak RSS in MB, exit code).  The peak comes
    from ``os.wait4`` for this child alone, not RUSAGE_CHILDREN, which keeps
    the largest child reaped so far.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=cosec_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, usage.ru_maxrss / 1024.0, proc.returncode


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def output_ok(rc: int, stdout: Path, expected: dict) -> bool:
    """Exit code and stdout bytes as recorded in expected.json; for verify,
    also the report's verdict and counts."""
    ok = rc == expected["exit_code"] and sha256_file(stdout) == expected["stdout_sha256"]
    if ok and "instances" in expected:
        doc = json.loads(stdout.read_bytes())
        ok = (
            doc["ok"] is True
            and not doc["mismatches"]
            and len(doc["original_lemma_disagreements"]) == expected["findings"]
            and all(doc[k] == expected[k] for k in ("instances", "joins_checked", "unions_checked"))
        )
    if not ok:
        print(f"wrong output: exit {rc}, see {stdout}", file=sys.stderr)
    return ok


def write_input(workload: str, variant: int) -> tuple[list[str], str | None, int | None]:
    """Write the seeded input; return the cosec arguments, the input's
    sha256 and its raw node count (None for verify, whose input is its
    arguments)."""
    args, writer = WORKLOADS[workload]
    path = WORK / f"{workload}.cotree"
    digest = raw_nodes = None
    if writer is not None:
        text, raw_nodes = writer(variant)
        data = text.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        path.write_bytes(data)
    rel = str(path.relative_to(ROOT))
    return [a.format(input=rel, variant=variant) for a in args], digest, raw_nodes


def probe(attempts: list[bool]) -> float:
    """Wall time of one ``python -m cosec --help``: the interpreter,
    ``import cosec`` and building the parser."""
    out = WORK / "help.out"
    start, end, _, rc = spawn([sys.executable, "-m", "cosec", "--help"], out)
    attempts.append(rc == 0 and out.read_bytes().startswith(b"usage: cosec"))
    return (end - start) / 1e9


def reference() -> float:
    """Wall time of one run of ``reference.py``."""
    start, end, _, rc = spawn([sys.executable, str(HERE / "reference.py")], WORK / "reference.out")
    if rc != 0:
        raise RuntimeError(f"reference.py exited {rc}")
    return (end - start) / 1e9


def timed(
    cmd, stdout, expected, budget_s, minimum, attempts
) -> tuple[list[Sample], list[float]]:
    """Spawn cmd until the next run would pass budget_s (at least minimum).

    PROBES ``--help`` probes precede every sample, so set-up time is sampled
    over the same stretch of time as the command.  A reference run precedes
    the first sample's probes and follows every sample.  Returns the samples
    and the reference times.
    """
    samples: list[Sample] = []
    began = time.monotonic()
    step_s = 0.0
    refs = [reference()]
    while len(samples) < minimum or time.monotonic() - began + step_s <= budget_s:
        step = time.monotonic()
        setup = statistics.median(probe(attempts) for _ in range(PROBES))
        start, end, rss, rc = spawn(cmd, stdout)
        attempts.append(output_ok(rc, stdout, expected))
        wall = (end - start) / 1e9
        refs.append(reference())
        samples.append(Sample(wall, rss, setup))
        step_s = time.monotonic() - step
    return samples, refs


def end_to_end(samples, refs, expected) -> dict[str, float]:
    """Medians over the timed samples; see README.md for each metric."""
    wall = statistics.median(s.wall_s for s in samples)
    setup = statistics.median(s.setup_s for s in samples)
    ref = statistics.median(refs)
    rel = wall / ref
    nodes = expected["normalized_nodes"]
    trees = expected.get("instances", 1)
    return {
        "wall_rel": rel,
        "nodes_per_ref": nodes / rel,
        "trees_per_ref": trees / rel,
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": REF_S * setup / ref,
        "wall_s": wall,
        "setup_raw_s": setup,
        "reference_s": ref,
        "nodes_per_s": nodes / wall,
        "trees_per_s": trees / wall,
    }


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics from one traced command's spans.

    Each child span charges its parent ``span_overhead_ns`` of wrapper cost,
    so that much per descendant span is taken out of a span's time, and per
    child span out of its self time.
    """
    names = doc["names"]
    spans = doc["spans"]
    cost = doc["span_overhead_ns"]
    child_ns = [0] * len(spans)
    children = [0] * len(spans)
    below = [0] * len(spans)
    # A parent starts before its children, so it has the lower row index.
    for i in range(len(spans) - 1, -1, -1):
        _, parent, start, end, _, _ = spans[i]
        if parent >= 0:
            child_ns[parent] += end - start
            children[parent] += 1
            below[parent] += below[i] + 1
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_ns: dict[str, float] = defaultdict(float)
    self_cost: dict[str, float] = defaultdict(float)
    units: dict[str, int] = defaultdict(int)
    check_tree_ms = []
    refusals = 0
    for i, (nid, _, start, end, n, raised) in enumerate(spans):
        name = names[nid]
        took = end - start - cost * below[i]
        calls[name] += 1
        incl[name] += took
        self_ns[name] += end - start - child_ns[i] - cost * children[i]
        self_cost[name] += cost * children[i]
        units[name] += n
        if name == "verify.check_tree":
            check_tree_ms.append(took / 1e6)
        if name.startswith("oracles.") and raised == "BudgetExceededError":
            refusals += 1

    def per_unit(name, denominator):
        return incl[name] / denominator[name] if denominator[name] else 0.0

    trees = calls["verify.check_tree"]
    check_tree_ms.sort()
    m = {
        "cli.read_ms": incl["cli.read"] / 1e6,
        "cotree.parse_ns_per_node": per_unit("cotree.parse_cotree", units),
        "cotree.normalize_ns_per_node": per_unit("cotree.normalize", units),
        "cotree.node_paths_ns_per_node": per_unit("cotree.node_paths", units),
        "cotree.subtree_ms": incl["cotree.subtree"] / 1e6,
        "cotree.subtree_calls": calls["cotree.subtree"],
        "cotree.materialize_ms": incl["cotree.materialize"] / 1e6,
        "cotree.materialize_calls": calls["cotree.materialize"],
        "cotree.materialize_per_tree": calls["cotree.materialize"] / trees if trees else 0.0,
        "cotree.to_text_ms": incl["cotree.to_text"] / 1e6,
        "annotate.annotate_ns_per_node": per_unit("annotate.annotate", units),
        "annotate.calls": calls["annotate.annotate"],
        "annotate.node_view_ns_per_node": per_unit("annotate.node_view", calls),
        "annotate.to_json_nodes_ns_per_node": per_unit("annotate.to_json_nodes", units),
        "oracles.budget_refusals": refusals,
        "generators.next_ms": incl["generators.next"] / 1e6,
        "generators.trees": units["generators.next"],
        "verify.check_tree_ms.p50": percentile(check_tree_ms, 50),
        "verify.check_tree_ms.p99": percentile(check_tree_ms, 99),
        "verify.check_tree_ms.samples": trees,
    }
    for fn in ORACLES:
        m[f"oracles.{fn}.calls"] = calls[f"oracles.{fn}"]
    self_spans = {
        "cli.render_self_ms": [k for k in names if k.startswith("cli.cmd_")],
        "verify.check_tree.self_ms": ["verify.check_tree"],
        **{f"oracles.{fn}.self_ms": [f"oracles.{fn}"] for fn in ORACLES},
    }
    for metric, keys in self_spans.items():
        kept = sum(self_ns[k] for k in keys)
        taken = sum(self_cost[k] for k in keys)
        m[metric] = max(0.0, kept) / 1e6
        m[f"{metric}.tracer_share"] = taken / (kept + taken) if kept + taken else 0.0
    m["trace.span_overhead_ns"] = cost
    return m


def percentile(ordered: list[float], q: int) -> float:
    """Nearest-rank percentile of a sorted list; 0 when it is empty."""
    if not ordered:
        return 0.0
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def traced(workload, cmd_args, expected, seconds, attempts) -> dict[str, float]:
    """Per-layer metrics: untraced runs, one tracemalloc run, traced runs.

    The untraced runs take about a fifth of ``seconds`` and the traced runs
    what the tracemalloc run leaves, so the whole takes about ``seconds``
    unless one run of each does not fit.  The last traced run's spans stay
    in ``.work/spans-<workload>.json``.
    """
    began = time.monotonic()
    stdout = WORK / "traced.out"
    untraced, _ = timed(
        [sys.executable, "-m", "cosec", *cmd_args], stdout, expected, 0.2 * seconds, 1, attempts
    )
    runner = [sys.executable, str(HERE / "traced.py")]
    alloc_path = WORK / "alloc.json"
    alloc_path.unlink(missing_ok=True)
    _, _, _, rc = spawn([*runner, str(alloc_path), "--alloc", "--", *cmd_args], stdout)
    attempts.append(output_ok(rc, stdout, expected))
    peaks = json.loads(alloc_path.read_bytes())["alloc_peak_bytes"]
    spans_path = WORK / f"spans-{workload}.json"
    per_run: list[dict[str, float]] = []
    totals = []
    while not per_run or time.monotonic() - began + totals[-1] <= seconds:
        spans_path.unlink(missing_ok=True)
        start, _, _, rc = spawn([*runner, str(spans_path), "--", *cmd_args], stdout)
        attempts.append(output_ok(rc, stdout, expected))
        doc = json.loads(spans_path.read_bytes())
        totals.append((doc["main_end_ns"] - start) / 1e9)
        per_run.append(layer_metrics(doc))
    metrics = {k: statistics.median(run[k] for run in per_run) for k in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(totals) - statistics.median(
        s.wall_s for s in untraced
    )
    for stage, name in ALLOC_STAGES.items():
        metrics[name] = peaks.get(stage, 0) / 2**20
    metrics["trace.runs"] = len(per_run)
    metrics["trace.elapsed_s"] = time.monotonic() - began
    return metrics


def load_spec() -> tuple[dict, dict]:
    """BENCHMARK.json and the unit of every metric by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, {**units, **PRINT_ONLY}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cosec" / "cli.py").is_file():
        raise Refused(f"no cosec sources under {ROOT / 'src'}")
    spec, units = load_spec()
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
    variant = args.seed % len(table)
    expected = table[variant]
    WORK.mkdir(exist_ok=True)

    cmd_args, digest, raw_nodes = write_input(args.workload, variant)
    if (digest, raw_nodes) != (expected.get("input_sha256"), expected.get("raw_nodes")):
        raise Refused(f"{args.workload} input {variant} differs from {EXPECTED.name}")
    attempts: list[bool] = []
    probe(attempts)  # warm-up: fills the bytecode cache
    if args.trace:
        values = traced(args.workload, cmd_args, expected, args.seconds, attempts)
        names = [m["name"] for m in spec["per_layer"]]
        samples = None
    else:
        samples, refs = timed(
            [sys.executable, "-m", "cosec", *cmd_args],
            WORK / f"{args.workload}.out",
            expected,
            args.seconds,
            MIN_SAMPLES,
            attempts,
        )
        values = end_to_end(samples, refs, expected)
        names = [m["name"] for m in spec["end_to_end"]]

    failed = attempts.count(False)
    print(f"workload {args.workload}  seed {args.seed}  input variant {variant}")
    if samples:
        walls = sorted(s.wall_s for s in samples)
        print(f"  samples {len(samples)} (each after {PROBES} --help probes)  "
              f"wall_s min {walls[0]:.4f} max {walls[-1]:.4f}")
    print(f"  failed_frac {failed / len(attempts):.4f} ratio  ({failed}/{len(attempts)} invocations)")
    for name in values:
        print(f"  {name:42} {values[name]:>16.6f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        sys.exit(3)
