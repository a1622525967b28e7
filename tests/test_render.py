"""Byte identity of the streaming writers behind ``cosec annotate`` and
``cosec parse --json`` with the reference renderers they replaced: one
``json.dumps(..., indent=2)`` of ``to_json``/``to_json_nodes`` and the
row-list table builder, kept here verbatim, with paths from the test-side
definition in ``helpers.reference_paths``."""

import io
import json
from contextlib import redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cosec.annotate import annotate
from cosec.cli import _BATCH, _BATCH_CHARS, main
from cosec.cotree import normalize, parse_cotree, to_json, to_text
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


def reference_table(t) -> str:
    at = annotate(t)
    paths = list(reference_paths(t))
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


@given(st.sampled_from(("v", "Z_", "_9x")).flatmap(cotrees))
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
    text = (
        "".join(f"({'UJ'[i % 2]} x{i} " for i in range(levels))
        + "end"
        + ")" * levels
    )
    path = tmp_path / "deep.cotree"
    path.write_text(text)
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


def test_table_batches_are_bounded_by_size(tmp_path):
    # rows carry paths of up to 2·leaves characters on this caterpillar
    leaves = 1500
    text = "".join(f"({'UJ'[i % 2]} x{i} " for i in range(leaves - 1))
    deep = _table_writes(tmp_path / "deep.cotree", text + "end" + ")" * (leaves - 1))
    assert sum(map(len, deep)) > 4 * _BATCH_CHARS
    assert max(map(len, deep)) <= _BATCH_CHARS + _BATCH
    # a shallow tree keeps whole batches of _BATCH rows
    wide = "(J " + " ".join(f"x{i}" for i in range(2 * _BATCH - 1)) + ")"
    writes = _table_writes(tmp_path / "wide.cotree", wide)
    batches = [w for w in writes[1:] if len(w) > 1]  # not the header or a separator
    assert [w.count("\n") + 1 for w in batches] == [_BATCH, _BATCH]
