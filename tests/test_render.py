"""Byte identity of the streaming writers behind ``cosec annotate`` and
``cosec parse --json`` with the reference renderers they replaced: one
``json.dumps(..., indent=2)`` of ``to_json``/``to_json_nodes`` and the
row-list table builder, kept here verbatim, with path cells from the
test-side definition in ``helpers.reference_paths`` and the 64-character cap
(``reference_cells``)."""

import io
import json
import os
import tracemalloc
from contextlib import redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from cosec import cli
from cosec.annotate import _FACTS, AnnotatedCotree, annotate
from cosec.cli import _BATCH, _write_annotations_json, _write_table, _write_tree_json, main
from cosec.cotree import Cotree, normalize, parse_cotree, to_json, to_text
from cosec.generators import RandomSpec, random_cotree

from helpers import reference_paths
from strategies import cotrees


def _fmt(value) -> str:
    if value is None:
        return "-"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return str(value)


_CELL_MAX = 64
# The widest table line with 7-digit ids and sizes: the id, a path cell of at
# most _CELL_MAX characters, and kind to p_corrected, two spaces apart.
_LINE_MAX = len("1234567  ") + _CELL_MAX + len(
    "  union  1234567  clique  1234567  label_r  two_cliques  p_original  p_corrected"
)


def reference_cells(t) -> list[str]:
    """Each node's table path cell: its path if that has at most _CELL_MAX
    characters, else "^", its parent's id, "." and its index in the parent."""
    parent = t.parents()
    return [
        path if len(path) <= _CELL_MAX else f"^{parent[v]}.{t.children[parent[v]].index(v)}"
        for v, path in enumerate(reference_paths(t))
    ]


def reference_table(t) -> str:
    at = annotate(t)
    paths = reference_cells(t)
    header = (
        "id",
        "path",
        "kind",
        "size",
        "clique",
        "gamma",
        "label_r",
        "two_cliques",
        "p_original",
        "p_corrected",
    )
    rows = [header]
    for v in range(len(t)):
        a = at.node(v)
        rows.append(
            (
                str(v),
                paths[v],
                t.kinds[v],
                str(a.size),
                _fmt(a.is_clique),
                str(a.gamma),
                _fmt(a.label_r),
                _fmt(a.union_of_two_cliques),
                _fmt(a.p_original),
                _fmt(a.p_corrected),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n"
        for r in rows
    )


def reference_outputs(text: str) -> dict[tuple[str, ...], str]:
    """Expected stdout per argument list, from the reference renderers."""
    raw = parse_cotree(text)
    t = normalize(raw)
    return {
        ("annotate",): reference_table(t),
        ("annotate", "--json"): json.dumps(
            {"nodes": annotate(t).to_json_nodes()}, indent=2
        )
        + "\n",
        ("parse", "--json"): json.dumps(to_json(raw), indent=2) + "\n",
        ("parse", "--json", "--normalize"): json.dumps(to_json(t), indent=2) + "\n",
    }


def assert_writers_match_references(path, text: str) -> None:
    path.write_text(text)
    for args, expected in reference_outputs(text).items():
        out = io.StringIO()
        with redirect_stdout(out):
            rc = main([args[0], str(path), *args[1:]])
        assert rc == 0
        assert out.getvalue() == expected, args


def _caterpillar_text(levels: int) -> str:
    """(U x0 (J x1 (U x2 … end))): a leaf and a nested level per level."""
    return "".join(f"({'UJ'[i % 2]} x{i} " for i in range(levels)) + "end" + ")" * levels


@given(st.sampled_from(("v", "Z_", "_9x")).flatmap(cotrees))
# 40 levels: paths up to root.1.1…, 84 characters, so both cell forms
@example(t=parse_cotree(_caterpillar_text(40)))
@settings(deadline=None, max_examples=150)
def test_writers_match_reference_renderers(tmp_path_factory, t):
    path = tmp_path_factory.mktemp("render") / "t.cotree"
    assert_writers_match_references(path, to_text(t))


@pytest.mark.parametrize(
    "text",
    [
        # exactly two batches: a join of 2·_BATCH - 1 leaves
        "(J " + " ".join(f"x{i}" for i in range(2 * _BATCH - 1)) + ")",
        # more than two batches, with paths of mixed widths
        to_text(random_cotree(RandomSpec(leaf_count=2 * _BATCH, seed=5))),
        # the widest paths (root.0.1000 on, 11 characters) are shallower
        # than the deepest (root.1.1.0 and root.1.1.1, 10 characters)
        "(U (J " + " ".join(f"x{i}" for i in range(2 * _BATCH + 8)) + ")"
        " (J a (U b c)))",
    ],
    ids=["two-batches", "more-than-two-batches", "widest-path-is-not-deepest"],
)
def test_writers_match_references_across_batches(tmp_path, text):
    assert len(normalize(parse_cotree(text))) >= 2 * _BATCH
    assert_writers_match_references(tmp_path / "t.cotree", text)


def _assert_json_writer_matches_dumps(at) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        _write_annotations_json(at.tree, at)
    assert out.getvalue() == json.dumps({"nodes": at.to_json_nodes()}, indent=2) + "\n"
    return out.getvalue()


# (U a (J b c)): leaves at ids 1, 3 and 4
_SMALL = normalize(parse_cotree("(U a (J b c))"))


@pytest.mark.parametrize(
    "column, value",
    [
        (None, None),  # every leaf has the constant facts
        ("size", 2),
        ("is_clique", False),
        ("gamma", 2),
        ("label_r", False),
        ("union_of_two_cliques", False),
        ("p_original", True),
        ("p_corrected", False),
    ],
)
def test_json_writer_templates_only_leaves_with_the_leaf_facts(column, value):
    columns = {name: list(getattr(annotate(_SMALL), name)) for name in _FACTS}
    if column is not None:
        columns[column][3] = value
    at = AnnotatedCotree(_SMALL, **columns)
    _assert_json_writer_matches_dumps(at)


def test_json_writer_templates_no_childless_union():
    # built directly, so validate() does not refuse the childless union at id 2,
    # whose facts are a leaf's
    t = Cotree(("join", "leaf", "union"), ((1, 2), (), ()), (None, "a", None))
    at = AnnotatedCotree(
        t, [2, 1, 1], [True, True, True], [1, 1, 1], [None, None, None],
        [None, None, None], [False, None, None], [False, None, None],
    )
    assert '"kind": "union",\n      "children": []' in _assert_json_writer_matches_dumps(at)


class _CountingSink(io.TextIOBase):
    """Discards what is written; keeps the node record count and the end."""

    def __init__(self):
        self.records = 0
        self.tail = ""

    def write(self, s: str) -> int:
        self.records += s.count('"id": ')
        self.tail = (self.tail + s)[-16:]
        return len(s)


def test_annotate_json_on_a_deep_caterpillar(tmp_path):
    levels = 100_000
    path = tmp_path / "deep.cotree"
    path.write_text(_caterpillar_text(levels))
    sink = _CountingSink()
    with redirect_stdout(sink):
        rc = main(["annotate", "--json", str(path)])
    assert rc == 0
    assert sink.records == 2 * levels + 1
    assert sink.tail.endswith('}\n  ]\n}\n')


class _RecordingSink(io.TextIOBase):
    """Keeps every string written, one list entry per write."""

    def __init__(self):
        self.writes = []

    def write(self, s: str) -> int:
        self.writes.append(s)
        return len(s)


def _table_writes(path, text: str) -> list[str]:
    path.write_text(text)
    sink = _RecordingSink()
    with redirect_stdout(sink):
        assert main(["annotate", str(path)]) == 0
    return sink.writes


class _LineSink(io.TextIOBase):
    """Discards what is written; keeps the line count and the widest line."""

    def __init__(self):
        self.lines = 0
        self.widest = 0
        self.open = ""  # the line the last write left unfinished

    def write(self, s: str) -> int:
        *done, self.open = (self.open + s).split("\n")
        self.lines += len(done)
        self.widest = max(self.widest, len(self.open), *map(len, done))
        return len(s)


def test_annotate_table_on_a_deep_caterpillar(tmp_path):
    levels = 100_000
    path = tmp_path / "deep.cotree"
    path.write_text(_caterpillar_text(levels))
    sink = _LineSink()
    with redirect_stdout(sink):
        rc = main(["annotate", str(path)])
    assert rc == 0
    assert sink.lines == 1 + 2 * levels + 1  # the header, then a row per node
    assert sink.open == ""
    assert sink.widest <= _LINE_MAX


def test_table_path_cells_name_the_parent_and_child_index(tmp_path):
    levels = 2_000
    writes = _table_writes(tmp_path / "deep.cotree", _caterpillar_text(levels))
    rows = [line.split()[:2] for line in "".join(writes).splitlines()[1:]]
    t = normalize(parse_cotree(_caterpillar_text(levels)))
    parent = t.parents()
    capped = 0
    for (v, cell), path in zip(rows, reference_paths(t), strict=True):
        v = int(v)
        assert len(cell) <= _CELL_MAX
        if cell.startswith("^"):
            p, i = map(int, cell[1:].split("."))
            assert p == parent[v] and t.children[p][i] == v
            assert len(path) > _CELL_MAX
            capped += 1
        else:
            assert cell == path
    assert capped == len(t) - 61  # root, and two nodes per level to depth 30


def test_table_batches_are_bounded_by_size(tmp_path):
    # a caterpillar's paths reach 2·leaves characters; its cells stay short
    leaves = 1500
    deep = _table_writes(tmp_path / "deep.cotree", _caterpillar_text(leaves - 1))
    assert all(w.count("\n") <= _BATCH for w in deep)
    assert max(len(line) for w in deep for line in w.splitlines()) <= _LINE_MAX
    assert sum(w.count("\n") for w in deep) == 1 + 2 * leaves - 1
    # a shallow tree keeps whole batches of _BATCH rows
    wide = "(J " + " ".join(f"x{i}" for i in range(2 * _BATCH - 1)) + ")"
    writes = _table_writes(tmp_path / "wide.cotree", wide)
    assert [w.count("\n") for w in writes[1:]] == [_BATCH, _BATCH]  # after the header


# A node's output is under 400 characters.  In flight it is a str, its list
# slot, and its share of the batch's join and of that join's UTF-8 bytes.
_NODE_IN_FLIGHT = 1024
# What a writer may hold in flight.  On perfbench's caterpillar a batch of 4096
# JSON records (3.5 MB traced) lifted `cosec annotate --json`'s peak RSS 3-4 MB
# over what the command holds after `annotate`; a batch of 1024 (0.9 MB) did not.
_IN_FLIGHT_MAX = 1 << 20


def _traced_peak(write) -> int:
    """The traced peak of ``write()`` with stdout an encoding file on devnull."""
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_writers_hold_one_batch_in_flight(monkeypatch):
    t = normalize(parse_cotree(_caterpillar_text(50_000)))
    at = annotate(t)
    assert len(t) >= 10**5
    in_flight = {
        "annotate --json": _traced_peak(lambda: _write_annotations_json(t, at)),
        "parse --json": _traced_peak(lambda: _write_tree_json(t)),
    }
    # The table also holds what no batch size changes: _node_paths' two
    # per-node lists and, on a caterpillar, a rest cell per inner node.  That
    # share is its peak with a batch of 16 rows.
    table = _traced_peak(lambda: _write_table(t, at))
    monkeypatch.setattr(cli, "_BATCH", 16)
    in_flight["annotate"] = table - _traced_peak(lambda: _write_table(t, at))
    for writer, peak in in_flight.items():
        assert peak <= _BATCH * _NODE_IN_FLIGHT, writer  # by the batch, not by n
        assert peak <= _IN_FLIGHT_MAX, writer
