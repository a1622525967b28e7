"""Run one ``cosec`` command in-process with span-recording wrappers.

Usage::

    python perfbench/traced.py SPANS.json [--alloc] -- COSEC_ARGS...

Before ``cosec.cli.main(COSEC_ARGS)`` runs, every public cosec function that
one cosec module imports from another is rebound, in the importing module,
to a wrapper that records a span (name, parent, start, end).  So are the
command handlers ``cli.cmd_*``, ``cli._read_source`` (span ``cli.read``),
``verify.check_tree`` and the per-node ``AnnotatedCotree.node`` /
``to_json_nodes`` methods.  The corpus iterators are lazy, so their wrapper
times each ``next()`` (span ``generators.next``).  No program file is
changed; calls a module makes to its own functions stay unwrapped.

Spans stay in memory and are written to SPANS.json when the command ends,
together with ``main_end_ns``, the monotonic clock reading when ``main``
returned (the parent compares it with its own spawn time), and
``span_overhead_ns``: the wrapper's own cost that one child span adds to its
parent's time, measured on a wrapped no-op after ``main`` returns.

With ``--alloc`` no spans are recorded.  Instead tracemalloc runs, and the
peak allocation above the starting level is recorded for the stages the
command handler calls (``parse_cotree``, ``normalize``, ``annotate``,
``verify_corpora``) and for the render: the part of the handler after its
last stage returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc

_MODULES = ("cli", "verify", "oracles", "annotate", "generators", "cotree")
# Bit-scan helper called in the oracles' inner loops: it is not a layer
# boundary, and a span per call would swamp the oracle timings.
_SKIP = frozenset({"iter_set_bits"})
_DONE = object()
_now = time.monotonic_ns

# Work units per span, for the ns-per-node figures.
_UNITS = {
    "cotree.parse_cotree": lambda args, result: len(result),
    "cotree.normalize": lambda args, result: len(args[0]),
    "cotree.node_paths": lambda args, result: len(args[0]),
    "annotate.annotate": lambda args, result: len(args[0]),
    "annotate.to_json_nodes": lambda args, result: len(result),
    "generators.next": lambda args, result: int(result is not _DONE),
}


class SpanTracer:
    """Spans in parallel lists; a span's parent is the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._open = [-1]

    def wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        units = _UNITS.get(name)
        spans = self.spans
        open_ = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [nid, open_[-1], 0, 0, 0, None]
            open_.append(len(spans))
            spans.append(span)
            span[2] = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[3] = _now()
                open_.pop()
            if units is not None:
                span[4] = units(args, result)
            return result

        return wrapper

    def wrap_iterator(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = self.wrap(functools.partial(next, fn(*args, **kwargs), _DONE), name)
            while (item := step()) is not _DONE:
                yield item

        return wrapper

    def install(self) -> None:
        for short in _MODULES:
            mod = importlib.import_module("cosec." + short)
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_") or attr in _SKIP:
                    continue
                home = obj.__module__
                if home == mod.__name__ or not home.startswith("cosec."):
                    continue
                if inspect.isgeneratorfunction(obj):
                    setattr(mod, attr, self.wrap_iterator(obj, "generators.next"))
                else:
                    setattr(mod, attr, self.wrap(obj, f"{home[6:]}.{attr}"))
        cli = sys.modules["cosec.cli"]
        for attr, obj in list(vars(cli).items()):
            if attr.startswith("cmd_"):
                setattr(cli, attr, self.wrap(obj, "cli." + attr))
        cli._read_source = self.wrap(cli._read_source, "cli.read")
        verify = sys.modules["cosec.verify"]
        verify.check_tree = self.wrap(verify.check_tree, "verify.check_tree")
        cls = sys.modules["cosec.annotate"].AnnotatedCotree
        cls.node = self.wrap(cls.node, "annotate.node_view")
        cls.to_json_nodes = self.wrap(cls.to_json_nodes, "annotate.to_json_nodes")

    def dump(self, fh, main_end_ns: int) -> None:
        json.dump(
            {
                "fields": ["name", "parent", "start_ns", "end_ns", "units", "raised"],
                "names": self.names,
                "spans": self.spans,
                "main_end_ns": main_end_ns,
                "span_overhead_ns": span_overhead_ns(),
            },
            fh,
            separators=(",", ":"),
        )


def span_overhead_ns() -> float:
    """Wrapper cost that one child span adds to its parent's time.

    A parent's span covers the whole call of a wrapped child, but the
    child's span starts and ends inside the wrapper.  So the parent is
    charged the wrapper's call and its bookkeeping around the two clock
    reads.  This times 20 000 calls of a wrapped no-op from outside, takes
    away the time inside their spans and the bare loop, and returns the
    median per call over nine trials.
    """
    calls = 20_000
    per_call = []
    for _ in range(9):
        tracer = SpanTracer()
        noop = tracer.wrap(lambda *args: None, "noop")
        loop = range(calls)
        start = _now()
        for _ in loop:
            pass
        bare = _now() - start
        start = _now()
        for _ in loop:
            noop(None)
        outside = _now() - start
        inside = sum(span[3] - span[2] for span in tracer.spans)
        per_call.append((outside - inside - bare) / calls)
    return statistics.median(per_call)


class AllocTracer:
    """Peak tracemalloc allocation per command stage and for the render."""

    STAGES = ("parse_cotree", "normalize", "annotate", "verify_corpora")

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self._render_base = 0

    def _restart(self) -> int:
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def _record(self, name: str, base: int) -> None:
        peak = tracemalloc.get_traced_memory()[1] - base
        self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def stage(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = self._restart()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(name, base)
                self._render_base = self._restart()

        return wrapper

    def command(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._render_base = self._restart()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record("render", self._render_base)

        return wrapper

    def install(self) -> None:
        cli = importlib.import_module("cosec.cli")
        for attr in self.STAGES:
            fn = getattr(cli, attr)
            setattr(cli, attr, self.stage(fn, f"{fn.__module__[6:]}.{attr}"))
        for attr, obj in list(vars(cli).items()):
            if attr.startswith("cmd_"):
                setattr(cli, attr, self.command(obj))
        tracemalloc.start()

    def dump(self, fh, main_end_ns: int) -> None:
        json.dump({"alloc_peak_bytes": self.peaks, "main_end_ns": main_end_ns}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    out_path, flags, cosec_args = argv[0], argv[1:split], argv[split + 1 :]
    tracer = AllocTracer() if "--alloc" in flags else SpanTracer()
    tracer.install()
    try:
        return sys.modules["cosec.cli"].main(cosec_args)
    finally:
        sys.stdout.flush()
        end = _now()
        tracemalloc.stop()
        with open(out_path, "w", encoding="utf-8") as fh:
            tracer.dump(fh, end)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
