"""Every run of ``golden/runs.txt`` and every demo against its golden record.

Each run executes in this process through ``cli.main`` at ``--seed 7``, and
each demo through ``runpy``, under ``warnings.simplefilter("error")``, so a
new RuntimeWarning or deprecation fails it.  ``golden_record.compare_run`` and
``golden_record.compare_stdout`` state what must be equal and how close a
float must stay: rounding level (1e-12 relative) for quadrature and FFT
columns, looser where digits cancel or HiGHS's absolute tolerances set the
value, with an absolute floor where a cell is zero in exact arithmetic.
``python3 tools/rewrite_golden.py`` rewrites the record.
"""

import copy
import re

import pytest

import golden_record as g

RUNS = g.read_runs()


def test_every_record_file_belongs_to_a_run_or_a_demo():
    names = [g.run_name(line) for line in RUNS]
    assert len(set(names)) == len(names)
    on_disk = {path.name for path in g.GOLDEN.glob("*")
               if path.suffix in (".csv", ".json", ".stdout", ".help")}
    assert on_disk == g.record_files()


@pytest.mark.parametrize("line", RUNS, ids=g.run_name)
def test_run_matches_the_record(line):
    diffs = g.compare_run(line, g.read_record(g.run_name(line)), g.run_cli(line))
    assert not diffs, "\n".join(diffs)


@pytest.mark.parametrize("demo", g.DEMOS, ids=lambda path: path.stem)
def test_demo_matches_the_record(demo):
    expected = g.GOLDEN.joinpath(f"{demo.stem}.stdout").read_text(encoding="utf-8")
    diffs = g.compare_stdout(expected, g.run_demo(demo))
    assert not diffs, "\n".join(diffs)


@pytest.mark.parametrize("words", g.HELPS, ids=lambda words: " ".join(["latsamp"] + words))
def test_help_matches_the_record(words):
    """Every flag, its metavar and its help string, and each subcommand's CSV
    columns, as ``--help`` prints them at a terminal width of 80."""
    assert g.run_help(words) == g.GOLDEN.joinpath(g.help_file(words)).read_text(encoding="utf-8")


@pytest.mark.parametrize("command", sorted(g.cli._COMMANDS))
def test_help_prints_each_column_name_whole(command):
    """Each CSV column name of a subcommand is one word of ``latsamp --help``
    and of its own ``--help`` at a terminal width of 80: the names are
    joined by ``", "``, and argparse wraps lines only at spaces."""
    for words in ([], [command]):
        printed = set(re.split(r"[\s,]+", g.run_help(words)))
        split = [name for name in g.cli._COMMANDS[command].columns if name not in printed]
        assert not split, (words, split)


def _replace_cell(record, line, column, text):
    rows = record["csv"].splitlines()
    cells = rows[line - 1].split(",")
    cells[rows[0].split(",").index(column)] = text
    rows[line - 1] = ",".join(cells)
    record["csv"] = "\n".join(rows) + "\n"


def test_the_comparison_sees_each_kind_of_move():
    """Mutated copies of recorded runs, with no run: a float cell moved by 10
    times its tolerance, a text cell, a dropped row, an exit code, an
    assertion's passed and measured value and the config echo all show;
    a move within the tolerance and an unmoved copy do not."""
    line = "equiv --r 4 --s 8"
    recorded = g.read_record(g.run_name(line))
    assert g.compare_run(line, recorded, copy.deepcopy(recorded)) == []

    header = recorded["csv"].splitlines()[0].split(",")
    ratio = float(recorded["csv"].splitlines()[1].split(",")[header.index("ratio")])
    rule = g.COLUMNS["equiv.ratio"]
    for factor, moved in ((0.5, False), (10.0, True)):
        fresh = copy.deepcopy(recorded)
        _replace_cell(fresh, 2, "ratio",
                      repr(ratio + factor * (rule.rtol * ratio + rule.atol)))
        assert bool(g.compare_run(line, recorded, fresh)) is moved

    fresh = copy.deepcopy(recorded)
    _replace_cell(fresh, 2, "f_label", "square")
    assert g.compare_run(line, recorded, fresh) == [
        f"line 2 f_label: square, recorded {recorded['csv'].splitlines()[1].split(',')[0]}"]

    fresh = copy.deepcopy(recorded)
    fresh["csv"] = "\n".join(fresh["csv"].splitlines()[:-1]) + "\n"
    assert g.compare_run(line, recorded, fresh) == ["15 rows, recorded 16"]

    fresh = dict(recorded, exit=2)
    assert g.compare_run(line, recorded, fresh) == ["exit 2, recorded 0"]

    fresh = copy.deepcopy(recorded)
    fresh["assertions"][-1][1] = False
    assert g.compare_run(line, recorded, fresh) == [
        "assertion equiv_spread: passed False, recorded True"]
    fresh = copy.deepcopy(recorded)
    fresh["assertions"][-1][2] *= 1 + 10 * rule.rtol
    assert len(g.compare_run(line, recorded, fresh)) == 1

    fresh = copy.deepcopy(recorded)
    fresh["config"]["study"] = "kfunc"
    assert g.compare_run(line, recorded, fresh)


def test_ratios_over_lp_noise_are_compared_by_class():
    """``report --op br:1`` records ratios over LP-noise denominators (inf
    over a one-sided value of 0, or a ratio such as 9.6e27 over one of
    1e-28): any value above the cap stands in for another, but one that falls
    within the cap, or a ratio within the cap that moves, shows."""
    line = "report --op br:1"
    recorded = g.read_record(g.run_name(line))
    cap = recorded["config"]["onesided_ratio_cap"]
    rows = recorded["csv"].splitlines()
    noisy = [i for i, row in enumerate(rows, 1)
             if row.startswith("onesided,smooth,") and not float(row.split(",")[-1]) <= cap]
    bounded = [i for i, row in enumerate(rows, 1) if row.startswith("onesided,cusp15,")]
    assert noisy and bounded
    for line_no, text, moved in ((noisy[0], "9.6e27", False), (noisy[0], "1e30", False),
                                 (noisy[0], "3.5", True), (bounded[0], "inf", True),
                                 (bounded[0], "9.5", True)):
        fresh = copy.deepcopy(recorded)
        _replace_cell(fresh, line_no, "value", text)
        assert bool(g.compare_run(line, recorded, fresh)) is moved, (line_no, text)


def test_demo_floats_may_move_one_printed_digit():
    """A demo prints rounded floats: one unit in the last printed digit is a
    rounding-level move, two are not; values below the floor agree, and text
    and integers must be equal."""
    recorded = "  n =  16   continuous = 0.173830   discrete = 1.43e-15\n"
    for fresh, moved in (
            (recorded, False),
            ("  n =  16   continuous = 0.173831   discrete = 1.43e-15\n", False),
            ("  n =  16   continuous = 0.173830   discrete = 9.85e-16\n", False),
            ("  n =  16   continuous = 0.173840   discrete = 1.43e-15\n", True),
            ("  n =  16   continuous = 0.173830   discrete = 1.43e-10\n", True),
            ("  n =  17   continuous = 0.173830   discrete = 1.43e-15\n", True),
            ("  n =  16   continuous = 0.173830   discrete: 1.43e-15\n", True),
            (recorded + "extra line\n", True)):
        assert bool(g.compare_stdout(recorded, fresh)) is moved, fresh
    # zero printed as "0." may not move to a printed non-zero
    assert g.compare_stdout("[0.  1.5]\n", "[0.  1.5]\n") == []
    assert g.compare_stdout("[0.  1.5]\n", "[0.1 1.5]\n")
