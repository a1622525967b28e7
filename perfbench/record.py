"""Record ``expected.json``: per workload and input variant, the input's
sha256 and node counts and the command's exit code and stdout sha256.

Usage::

    python3 perfbench/record.py

Run it only on a commit whose output is the contract (it was recorded from
the code the benchmark was introduced on); ``run.py`` then fails any
invocation whose output differs, and refuses inputs that differ.
"""

from __future__ import annotations

import json
import sys

import run

VARIANTS = 32  # input variants per workload; run.py picks ``--seed mod VARIANTS``


def corpus_nodes(cosec_args: list[str]) -> int:
    """Node count of the corpus ``cosec verify`` builds from these arguments."""
    from cosec.generators import enumerate_cotrees, random_corpus

    def opt(flag: str) -> int:
        return int(cosec_args[cosec_args.index(flag) + 1])

    trees = [*enumerate_cotrees(opt("--max-n")),
             *random_corpus(opt("--random"), opt("--leaves"), opt("--seed"))]
    return sum(len(t) for t in trees)


def record(workload: str, variant: int) -> dict:
    cosec_args, digest, raw_nodes = run.write_input(workload, variant)
    stdout = run.WORK / "record.out"
    _, _, _, rc = run.spawn([sys.executable, "-m", "cosec", *cosec_args], stdout)
    if rc != 0:
        raise SystemExit(f"{workload} variant {variant} exited {rc}")
    row = {"exit_code": rc, "stdout_sha256": run.sha256_file(stdout)}
    if digest is None:
        doc = json.loads(stdout.read_bytes())
        row["normalized_nodes"] = corpus_nodes(cosec_args)
        for key in ("instances", "joins_checked", "unions_checked"):
            row[key] = doc[key]
        row["findings"] = len(doc["original_lemma_disagreements"])
    else:
        row["input_sha256"] = digest
        row["raw_nodes"] = raw_nodes
        if "--json" in cosec_args:
            row["normalized_nodes"] = len(json.loads(stdout.read_bytes())["nodes"])
        else:
            with open(stdout, "rb") as fh:
                row["normalized_nodes"] = sum(1 for _ in fh) - 1
    return row


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.WORK.mkdir(exist_ok=True)
    table = {}
    for workload in run.WORKLOADS:
        table[workload] = []
        for variant in range(VARIANTS):
            table[workload].append(record(workload, variant))
            print(workload, variant, table[workload][-1], file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
