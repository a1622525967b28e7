"""Command-line surface: ``cosec parse | annotate | gk | verify | bench``.

Exit codes are a stable contract:

======  =========================================================
0       success (for ``verify``: zero mismatches; original-lemma
        disagreements are findings, not failures)
1       I/O error
2       usage or parse error
3       verification mismatch (oracle disagrees with annotation)
4       oracle budget exceeded
======  =========================================================

``COSEC_BUDGET`` overrides the default oracle caps; the value is either a
single integer applied to both caps or ``DOM,SECURE``.  A ``--budget`` flag
beats the environment.

``annotate`` (table and ``--json``) and ``parse --json`` stream their output
in batches of nodes straight from the cotree and annotation arrays.
``annotate --oracle-check`` runs ``verify.check_tree``, the cross-check that
``verify`` runs on every corpus tree, and prints each mismatch on stderr as
``MISMATCH {predicate} at {path}: oracle {expected}, pass {got}``.

``main`` runs every command, ``bench`` included, with the cyclic garbage
collector paused, and restores its previous state on return or raise.  The
trees, annotation columns and rendered rows refer only downward, so
reference counting frees all of them; a collection would only walk the
live heap, the input tree included.  ``--help`` and usage errors exit
inside argparse, before the pause.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import islice

from . import _DEFERRED, _deferred_getattr
from .annotate import _FACTS, annotate
from .cotree import _node_paths, normalize, parse_cotree, to_dot, to_text
from .errors import BudgetExceededError

# The generator, oracle and verify names load on first use (PEP 562), so
# ``--help``, ``parse`` and ``annotate`` never import those modules.  The
# handlers read them as attributes of this module, ``_cli.<name>``: a
# wrapper set on the module then takes effect as it would for an import.
__getattr__ = _deferred_getattr(
    globals(),
    {**_DEFERRED, **dict.fromkeys(("check_tree", "report_json", "report_text"), "verify")},
)
_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    # newline="" keeps every "\r\n" as two characters, so a parse error
    # reports the offset it has in the file, as it does for stdin
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _resolve_budget(flag_value: str | None) -> OracleBudget:
    text = flag_value if flag_value is not None else os.environ.get("COSEC_BUDGET")
    if text is None:
        return _cli.DEFAULT_BUDGET
    parts = text.split(",")
    try:
        if len(parts) == 1:
            cap = int(parts[0])
            return _cli.OracleBudget(cap, cap)
        if len(parts) == 2:
            return _cli.OracleBudget(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ValueError(f"bad budget {text!r}: {exc}") from None
    raise ValueError(f"bad budget {text!r}: expected CAP or DOM,SECURE")


def cmd_parse(args) -> int:
    t = parse_cotree(_read_source(args.file))
    if args.normalize:
        t = normalize(t)
    if args.dot:
        sys.stdout.write(to_dot(t))
    elif args.json:
        _write_tree_json(t)
    else:
        print(to_text(t))
    return EXIT_OK


# The writers give the bytes of ``json.dumps(..., indent=2)`` and of the padded
# table, _BATCH nodes per write: none holds its whole output or a string per node.
# A table row holds its node's path, so on a deep tree a table batch has fewer
# rows, about _BATCH_CHARS characters' worth.
_BATCH = 4096
_BATCH_CHARS = 1 << 20
_JSON_LITERAL = {None: "null", True: "true", False: "false"}
_CELL = {None: "-", True: "yes", False: "no"}
_TABLE_HEADER = (
    "id path kind size clique gamma label_r two_cliques p_original p_corrected".split()
)


def _write_batched(head: str, parts, sep: str, tail: str, size: int = _BATCH) -> None:
    """Write ``head + sep.join(parts) + tail`` to stdout, ``size`` parts per write."""
    write = sys.stdout.write
    write(head)
    lead = ""
    while batch := list(islice(parts, size)):
        write(lead)
        write(sep.join(batch))
        lead = sep
    write(tail)


class _JsonIds(dict):
    """``ids[len(c)] % c`` lays out a node's id tuple ``c`` as ``json.dumps(indent=2)``
    lays out a node field.  A template is made at an arity's first use; each
    writer call has its own, so no template outlives the output it laid out."""

    def __missing__(self, arity: int) -> str:
        fmt = self[arity] = (
            "[\n        " + ",\n        ".join(["%d"] * arity) + "\n      ]" if arity else "[]"
        )
        return fmt


def _write_tree_json(t) -> None:
    """``print(json.dumps(to_json(t), indent=2))``.  Labels come from
    ``parse_cotree``, whose ``[A-Za-z0-9_]`` alphabet needs no JSON escaping."""
    kinds, labels, children, ids = t.kinds, t.labels, t.children, _JsonIds()

    def node(v: int) -> str:
        label = "null" if labels[v] is None else f'"{labels[v]}"'
        c = children[v]
        return (
            f'    {{\n      "id": {v},\n      "kind": "{kinds[v]}",\n      "label": {label},'
            f'\n      "children": {ids[len(c)] % c}\n    }}'
        )

    head = f'{{\n  "root": {t.root},\n  "nodes": [\n'
    _write_batched(head, map(node, range(len(t))), ",\n", "\n  ]\n}\n")


def _write_annotations_json(t, at) -> None:
    """``print(json.dumps({"nodes": at.to_json_nodes()}, indent=2))``."""
    kinds, children, lit, ids = t.kinds, t.children, _JSON_LITERAL, _JsonIds()

    def node(v: int) -> str:
        c = children[v]
        return (
            f'    {{\n      "id": {v},\n      "kind": "{kinds[v]}",\n'
            f'      "children": {ids[len(c)] % c},\n      "size": {at.size[v]},\n'
            f'      "is_clique": {lit[at.is_clique[v]]},\n      "gamma": {at.gamma[v]},\n'
            f'      "label_r": {lit[at.label_r[v]]},\n'
            f'      "union_of_two_cliques": {lit[at.union_of_two_cliques[v]]},\n'
            f'      "p_original": {lit[at.p_original[v]]},\n'
            f'      "p_corrected": {lit[at.p_corrected[v]]}\n    }}'
        )

    head = '{\n  "nodes": [\n'
    _write_batched(head, map(node, range(len(t))), ",\n", "\n  ]\n}\n")


def _write_table(t, at) -> None:
    """One row per node; each column as wide as its widest cell or header.
    The columns after ``size`` are formatted once per distinct value tuple."""
    yes_no = max(map(len, _CELL.values()))
    path_width, paths = _node_paths(t)
    widest = (
        len(str(len(t) - 1)),
        path_width,
        max(map(len, t.kinds)),
        len(str(max(at.size))),
        yes_no,
        len(str(max(at.gamma))),
        *[yes_no] * 4,
    )
    fmt = [f"%-{max(len(h), w)}s" for h, w in zip(_TABLE_HEADER, widest)]
    row = "  ".join(fmt[:4]) + "  %s"  # id, path, kind, size, then the tail
    tail = "  ".join(fmt[4:])
    cell = _CELL.__getitem__
    columns = [getattr(at, name) for name in _FACTS[1:]]  # the facts after size
    tails = {
        key: (tail % (cell(key[0]), key[1], *map(cell, key[2:]))).rstrip()
        for key in set(zip(*columns))
    }
    rows = zip(
        range(len(t)), paths, t.kinds, at.size,
        map(tails.__getitem__, zip(*columns)),
    )
    padded = row % (*_TABLE_HEADER[:4], tail % tuple(_TABLE_HEADER[4:]))
    size = min(_BATCH, max(1, _BATCH_CHARS // len(padded)))
    _write_batched(padded.rstrip() + "\n", map(row.__mod__, rows), "\n", "\n", size)


def cmd_annotate(args) -> int:
    if args.oracle_check or args.budget is not None:  # a bad one fails before output
        budget = _resolve_budget(args.budget)
    if args.budget is not None and not args.oracle_check:
        print("warning: --budget applies only with --oracle-check", file=sys.stderr)
    t = normalize(parse_cotree(_read_source(args.file)))
    at = annotate(t)
    if args.json:
        _write_annotations_json(t, at)
    else:
        _write_table(t, at)
    if args.oracle_check:
        report = _cli.VerificationReport(corpus=args.file)
        _cli.check_tree(t, report, budget)
        for m in report.mismatches:
            print(
                f"MISMATCH {m.predicate} at {m.path}: oracle {m.expected}, pass {m.got}",
                file=sys.stderr,
            )
        if report.mismatches:
            return EXIT_MISMATCH
        print(f"oracle check: OK ({len(t)} nodes)", file=sys.stderr)
    return EXIT_OK


def cmd_gk(args) -> int:
    text = to_text(_cli.g_k(_cli.GkSpec(args.k))) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    import json

    if args.max_n is None and not args.random:
        raise ValueError("nothing to verify: pass --max-n and/or --random")
    report = _cli.verify_corpora(
        max_n=args.max_n,
        random_count=args.random,
        random_leaves=args.leaves,
        seed=args.seed,
        budget=_resolve_budget(args.budget),
    )
    if args.json:
        print(json.dumps(_cli.report_json(report), indent=2))
    else:
        sys.stdout.write(_cli.report_text(report))
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _median_s(fn, repeats: int) -> float:
    import statistics
    import time

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cmd_bench(args) -> int:
    from contextlib import redirect_stdout

    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive integers")
    if args.repeats < 1:
        raise ValueError("repeats must be a positive integer")
    print(
        f"{'leaves':>10}  {'nodes':>10}  {'median_ms':>12}  {'ns_per_node':>12}  "
        f"{'table_ns':>10}  {'json_ns':>10}  {'parse_ns':>10}"
    )
    for size in sizes:
        t = _cli.random_cotree(_cli.RandomSpec(leaf_count=size, seed=args.seed))
        median_s = _median_s(lambda: annotate(t), args.repeats)
        at = annotate(t)
        with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
            table_s = _median_s(lambda: _write_table(t, at), args.repeats)
            json_s = _median_s(lambda: _write_annotations_json(t, at), args.repeats)
        text = to_text(t)
        parse_s = _median_s(lambda: parse_cotree(text), args.repeats)
        per_node = 1e9 / len(t)
        print(
            f"{size:>10}  {len(t):>10}  {median_s * 1000.0:>12.2f}  "
            f"{median_s * per_node:>12.0f}  {table_s * per_node:>10.0f}  "
            f"{json_s * per_node:>10.0f}  {parse_s * per_node:>10.0f}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosec",
        description="Cotree toolkit: annotate cographs with domination facts "
        "and cross-check the join rules against definitional oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a .cotree file; print text, DOT, or JSON")
    p.add_argument("file", help="path to a .cotree file, or - for stdin")
    p.add_argument("--normalize", action="store_true", help="normalize before output")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    out.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("annotate", help="print per-node annotations (normalizes first)")
    p.add_argument("file", help="path to a .cotree file, or - for stdin")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check every node against the definitional oracles, as verify does",
    )
    p.add_argument("--budget", help="oracle caps: CAP or DOM,SECURE")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("gk", help="emit the k-th counterexample cotree")
    p.add_argument("k", type=int)
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_gk)

    p = sub.add_parser("verify", help="cross-check corpora against the oracles")
    p.add_argument("--max-n", type=int, help="exhaustive corpus up to this leaf count")
    p.add_argument("--random", type=int, default=0, metavar="COUNT")
    p.add_argument("--leaves", type=int, default=12, help="random corpus leaf cap")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget", help="oracle caps: CAP or DOM,SECURE")
    p.add_argument("--json", action="store_true", help="emit JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the annotation pass on random cotrees")
    p.add_argument("--sizes", default="1000,10000,100000", help="comma-separated leaf counts")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()  # the pause: see the module docstring
    gc.disable()
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
