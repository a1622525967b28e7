"""``cli.main`` runs each command with the cyclic garbage collector paused.

cosec's trees, annotation columns and rendered rows hold no reference
cycles, so the pause frees nothing later than reference counting would.
These tests pin the three parts of that claim: ``main`` restores the
collector's state on every path, no collection runs inside a command, and
the cyclic garbage a command leaves does not grow with its input.
"""

import gc

import pytest

import cosec.cli
from cosec.cli import main
from cosec.errors import BudgetExceededError

from helpers import deep_unnormalized_caterpillar


@pytest.fixture
def collector():
    """Yield a setter for the collector's state; restore it afterwards."""
    was = gc.isenabled()

    def set_state(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(was)


def caterpillar_file(tmp_path, leaves: int) -> str:
    """A deep unnormalized caterpillar with ``leaves`` leaves, as a file."""
    text, _ = deep_unnormalized_caterpillar(2 * leaves - 2)
    p = tmp_path / f"caterpillar{leaves}.cotree"
    p.write_text(text)
    return str(p)


def _returns(code):
    return lambda: code


def _raises(exc):
    def handler(*args):
        raise exc

    return handler


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "outcome, code",
    [
        (_returns(0), 0),
        (_raises(OSError("no such file")), 1),
        (_raises(ValueError("bad value")), 2),
        (_returns(3), 3),
        (_raises(BudgetExceededError("domination_number", 30, 20)), 4),
    ],
    ids=["exit-0", "exit-1", "exit-2", "exit-3", "exit-4"],
)
def test_main_pauses_the_collector_and_restores_its_state(
    capsys, monkeypatch, collector, enabled, outcome, code
):
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        return outcome()

    monkeypatch.setattr(cosec.cli, "cmd_gk", handler)
    collector(enabled)
    assert main(["gk", "1"]) == code
    assert gc.isenabled() is enabled
    assert seen == [False]
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector_when_a_handler_raises(
    monkeypatch, collector, enabled
):
    monkeypatch.setattr(cosec.cli, "cmd_gk", _raises(RuntimeError("boom")))
    collector(enabled)
    with pytest.raises(RuntimeError, match="boom"):
        main(["gk", "1"])
    assert gc.isenabled() is enabled


def test_usage_errors_exit_inside_argparse_before_the_pause(capsys, collector):
    collector(True)
    with pytest.raises(SystemExit):
        main(["annotate"])
    assert gc.isenabled()
    capsys.readouterr()


def test_no_collection_runs_inside_a_command(capsys, tmp_path, collector):
    path = caterpillar_file(tmp_path, 10_000)
    collector(True)
    # argparse runs before the pause; after a full collection its few hundred
    # allocations stay under the young generation's threshold
    gc.collect()
    before = [s["collections"] for s in gc.get_stats()]
    rc = main(["annotate", "--json", path])
    # the command's allocations still count toward the young generation, so
    # the next allocation after the pause collects: read the stats first
    gc.disable()
    assert [s["collections"] for s in gc.get_stats()] == before
    assert rc == 0
    capsys.readouterr()


def _garbage(capsys, argv) -> int:
    """Objects in unreachable cycles that ``main(argv)`` leaves behind."""
    gc.collect()
    assert main(argv) == 0
    capsys.readouterr()
    return gc.collect()


@pytest.mark.parametrize(
    "small, large",
    [
        (["annotate", "--json", 10], ["annotate", "--json", 10_000]),
        (["parse", "--json", 10], ["parse", "--json", 10_000]),
        (["verify", "--random", "100"], ["verify", "--random", "3000"]),
        (["verify", "--max-n", "5"], ["verify", "--max-n", "8"]),
    ],
    ids=["annotate-json", "parse-json", "verify-random", "verify-max-n"],
)
def test_cyclic_garbage_does_not_grow_with_the_input(
    capsys, tmp_path, collector, small, large
):
    # an int argument is a caterpillar's leaf count
    small, large = (
        [caterpillar_file(tmp_path, a) if isinstance(a, int) else a for a in argv]
        for argv in (small, large)
    )
    collector(False)  # no automatic collection between a command and the count
    _garbage(capsys, small)  # first use loads the modules a command defers
    assert _garbage(capsys, small) == _garbage(capsys, large)
