"""Pair verdicts of ``tools/bench_pairs.py``'s summary."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))
import bench_pairs  # noqa: E402
from latsamp import cli  # noqa: E402

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "ok_share", "better": "higher", "bound": 0.01}]


def _summary(parent, change):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, (wall, ok) in (("parent", p), ("change", c)):
            runs.append({"workload": "w", "pair": pair, "side": side,
                         "metrics": {"wall_s": wall, "ok_share": ok}})
    return bench_pairs.summarize(runs, METRICS)["w"]


@pytest.mark.parametrize("change_wall, wins, resolved", [
    # every pair won, medians 0.2 apart against a parent spread of 0.045
    ([0.8 + 0.01 * i for i in range(10)], 10, True),
    # nine of ten pairs won by a hair: the medians differ by less than the spread
    ([0.99 + 0.01 * i for i in range(9)] + [2.0], 9, False),
    # eight of ten pairs won by far: too few pairs
    ([0.5] * 8 + [2.0, 2.0], 8, False),
])
def test_gain_resolved_needs_nine_tenths_of_pairs_and_the_parent_spread(change_wall, wins,
                                                                        resolved):
    entry = _summary([(1.0 + 0.01 * i, 1.0) for i in range(10)],
                     [(w, 1.0) for w in change_wall])["wall_s"]
    assert entry["change_better_pairs"] == wins
    assert entry["gain_resolved"] is resolved
    assert entry["worse_beyond_bound"] is False


def test_worse_beyond_bound_is_a_share_of_the_parent_median():
    parent = [(1.0, 1.0)] * 4
    assert _summary(parent, [(1.24, 0.991)] * 4)["wall_s"]["worse_beyond_bound"] is False
    assert _summary(parent, [(1.24, 0.991)] * 4)["ok_share"]["worse_beyond_bound"] is False
    assert _summary(parent, [(1.26, 0.98)] * 4)["wall_s"]["worse_beyond_bound"] is True
    assert _summary(parent, [(1.26, 0.98)] * 4)["ok_share"]["worse_beyond_bound"] is True


@pytest.mark.parametrize("parent_wall, change_wall, unresolved", [
    # parent quartiles 0.85 and 1.15: a spread of 0.3 against a bound of 0.25
    ([0.7, 0.9, 1.1, 1.3] * 2, [1.0] * 8, True),
    # the same spread, but every change run beats every parent run
    ([0.7, 0.9, 1.1, 1.3] * 2, [0.6] * 8, False),
    # a spread of 0.015, well inside the bound
    ([0.99, 1.0, 1.01, 1.02] * 2, [1.1] * 8, False),
])
def test_unresolved_when_the_parent_spread_exceeds_the_bound(parent_wall, change_wall,
                                                             unresolved):
    entry = _summary([(w, 1.0) for w in parent_wall], [(w, 1.0) for w in change_wall])
    assert entry["wall_s"]["unresolved"] is unresolved
    assert entry["ok_share"]["unresolved"] is False


def test_cli_pairs_alternate_and_summarize_wall_time():
    """``--cli`` runs each default subcommand once per side per pair, the parent
    first in even pairs, at ``--seed 7``, and summarizes them as ``cli:CMD``
    workloads on ``wall_s`` alone."""
    calls = []

    def fake(tree, command):
        calls.append((tree, command))
        wall = {"parent": 2.0, "change": 1.0}[tree] + 0.01 * len(calls)
        return {"attempted": 1, "failed": 0, "exit": 0, "metrics": {"wall_s": wall}}

    runs = bench_pairs.time_cli({"parent": "parent", "change": "change"}, 2, run=fake)
    assert [c for _, c in calls[::4]] == list(bench_pairs.CLI_COMMANDS)
    assert [t for t, _ in calls[:4]] == ["parent", "change", "change", "parent"]
    assert {r["seed"] for r in runs} == {7}
    assert [r["order"] for r in runs[:4]] == [1, 2, 1, 2]
    summary = bench_pairs.summarize(runs, METRICS)
    assert sorted(summary) == sorted(f"cli:{c}" for c in bench_pairs.CLI_COMMANDS)
    entry = summary["cli:rates"]
    assert entry["pairs"] == 2 and "ok_share" not in entry
    assert entry["wall_s"]["change_better_pairs"] == 2


def test_cli_commands_are_the_cli_subcommands():
    """``CLI_COMMANDS`` keeps its own copy, because it times parent trees and
    cannot import their CLI; it lists the CLI's subcommands in their order."""
    assert bench_pairs.CLI_COMMANDS == tuple(cli._COMMANDS)
