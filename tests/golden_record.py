"""The golden record of the CLI runs and the demos, and the one runner that
both ``tests/test_golden.py`` and ``tools/rewrite_golden.py`` use.

``golden/runs.txt`` lists the runs, one a line: ``cmd[:spec] [more arguments]``.
Each run executes in this process through ``cli.main`` with ``--seed 7`` and a
temporary ``--out``, under ``warnings.simplefilter("error")``.  Its record is
two files in ``golden/``: ``<name>.csv``, the CSV as the CLI writes it, and
``<name>.json``, holding the exit code, the ``summary.json`` config echo
without ``out`` (a temporary path) and the ``[name, passed, measured]``
triple of each assertion.  Each demo's record is its stdout,
``golden/<demo>.stdout``, and the help of ``latsamp`` and of each subcommand,
printed at a terminal width of 80, is ``golden/latsamp[-<command>].help``.

How a record is compared with a fresh run is stated in :func:`compare_run`
and :func:`compare_stdout`.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import runpy
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np

from latsamp import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((GOLDEN.parent.parent / "demos").glob("*.py"))
SEED = 7
# the arguments before --help: the program's help, then each subcommand's
HELPS = [[]] + [[command] for command in cli._COMMANDS]


def read_runs():
    """The run lines of ``runs.txt``, comments and blank lines left out."""
    lines = GOLDEN.joinpath("runs.txt").read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.startswith("#")]


def run_name(line):
    """The file stem of a run's record: its words joined by ``-``."""
    return re.sub(r"[^A-Za-z0-9]+", "-", line).strip("-")


def run_argv(line, out):
    """``cli.main``'s arguments for one run line."""
    words = line.split()
    command, _, spec = words[0].partition(":")
    args = words[1:]
    for i, word in enumerate(args[:-1]):
        if word == "--config":
            args[i + 1] = str(GOLDEN / args[i + 1])
    return ([command] + (["--spec", spec] if spec else []) + args
            + ["--seed", str(SEED), "--out", out])


def run_cli(line):
    """The record of one run: exit code, CSV text, config echo, assertions.
    A run that writes no outputs (exit 1) has only its exit code."""
    command = line.split()[0].partition(":")[0]
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main(run_argv(line, out))
        record = {"exit": code, "csv": None, "config": None, "assertions": None}
        csv_path = os.path.join(out, f"{command}_{SEED}.csv")
        if not os.path.exists(csv_path):
            return record
        with open(csv_path, encoding="utf-8") as fh:
            record["csv"] = fh.read()
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    summary["config"].pop("out")
    record["config"] = summary["config"]
    record["assertions"] = [[a["name"], a["passed"], a["measured"]]
                            for a in summary["assertions"]]
    return record


def run_demo(path):
    """A demo's stdout.  ``np.printoptions`` puts back the print options a
    demo sets, so no other test sees them."""
    buffer = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(buffer), np.printoptions():
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    return buffer.getvalue()


def help_file(words):
    """The record file of ``latsamp <words> --help``."""
    return "-".join(["latsamp"] + words) + ".help"


def run_help(words):
    """What ``latsamp <words> --help`` prints at a terminal width of 80."""
    buffer = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(buffer):
        try:
            cli.main(words + ["--help"])
        except SystemExit as ex:
            if ex.code != 0:
                raise
        else:
            raise AssertionError(f"latsamp {' '.join(words)} --help did not exit")
    return buffer.getvalue()


def read_record(name):
    """A run's record as :func:`run_cli` returns it, read from ``golden/``."""
    record = json.loads(GOLDEN.joinpath(f"{name}.json").read_text(encoding="utf-8"))
    record["csv"] = GOLDEN.joinpath(f"{name}.csv").read_text(encoding="utf-8")
    return record


def record_files():
    """The file names the record holds: two a run, one a demo, one a help text."""
    names = [run_name(line) for line in read_runs()]
    return ({f"{name}.{suffix}" for name in names for suffix in ("csv", "json")}
            | {f"{demo.stem}.stdout" for demo in DEMOS}
            | {help_file(words) for words in HELPS})


def write_record(name, record):
    if record["csv"] is None:
        raise ValueError(f"{name} exited {record['exit']} and wrote no outputs to record")
    meta = {key: value for key, value in record.items() if key != "csv"}
    GOLDEN.joinpath(f"{name}.json").write_text(
        json.dumps(meta, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    GOLDEN.joinpath(f"{name}.csv").write_text(record["csv"], encoding="utf-8")


# ----------------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------------


class Rule(NamedTuple):
    """Two floats agree when ``|a - b| <= rtol * |b| + atol``.  With ``cap``,
    the name of a config key, they are compared by class first: both finite
    and at most the run's threshold, or neither; only the first class is
    compared by value."""
    rtol: float
    atol: float = 0.0
    cap: str = ""


# Quadrature and FFT quantities of functions of size about 1: rounding level.
ROUNDING = Rule(1e-12)
# The same where a cell can be zero in exact arithmetic (the discrete error of
# an interpolant, K3 and K4 of an operator that reproduces T_n, the error on a
# member of T_n): such a cell is rounding noise, up to 2.1e-15 seen.
ROUNDING_ZERO = Rule(1e-12, 1e-13)
# Differences of up to 8 Steklov levels cancel digits: the order-8 modulus of
# ``equiv --r 4 --s 8`` moved by 6.1e-12 relative when numpy's SIMD kernels
# and OpenBLAS's core type were switched.
DIFFERENCES = Rule(1e-9, 1e-13)
# A log-log least-squares fit's intercept and residual are small differences
# of log values of size 1 to 10: 4.7e-11 relative seen under the same switch.
FIT = Rule(1e-8)
# The one-sided LP: HiGHS applies its feasibility tolerances (1e-7) absolutely.
LP = Rule(0.0, 1e-6)
# error / one-sided value.  A denominator of at least 0.01 moved by 1e-6 moves
# the ratio by at most 1e-4; a ratio over an LP-noise denominator (inf over 0,
# 9.6e27 over 1e-28) is compared by class only.
LP_RATIO = Rule(1e-4, cap="onesided_ratio_cap")

# The rule of each float column, as "command.column".  Every other column is
# text (labels, integer scales, booleans) and must be equal.  A ``report`` row
# follows the rule of the column its section and metric name.
COLUMNS = {
    "probe.value": ROUNDING_ZERO,
    "equiv.lhs_continuous": ROUNDING,
    "equiv.lhs_discrete": ROUNDING_ZERO,
    "equiv.rhs_continuous": DIFFERENCES,
    "equiv.rhs_discrete": DIFFERENCES,
    "equiv.ratio": DIFFERENCES,
    "rates.slope": Rule(1e-10),
    "rates.intercept": FIT,
    "rates.residual": FIT,
    "counterexample.continuous_error": ROUNDING,
    "counterexample.discrete_error": ROUNDING,
    "counterexample.ratio": ROUNDING,
    # FFT noise that grows with n (1.0e-13 at n = 128); 1% of coeff_tol
    "counterexample.coeff_max": Rule(1e-12, 1e-11),
    "onesided.error": ROUNDING_ZERO,
    "onesided.onesided": LP,
    "onesided.ratio_onesided": LP_RATIO,
    "onesided.besov": ROUNDING_ZERO,
    "onesided.ratio_besov": ROUNDING,
    "convergence.error": ROUNDING_ZERO,
}

# The rule of an assertion's measured floats, as "command.check": the rule of
# the column it reads.  Any other measured float follows ROUNDING.
MEASURED = {
    "probe.constants_finite_nonnegative": COLUMNS["probe.value"],
    "probe.inf_le_sup": COLUMNS["probe.value"],
    "equiv.min_ratio_positive": COLUMNS["equiv.ratio"],
    "equiv.equiv_spread": COLUMNS["equiv.ratio"],
    "rates.square_error_slope": COLUMNS["rates.slope"],
    # |slope(error) - slope(modulus)|: two slopes of size <= 2 within 1e-10
    "rates.slope_match": Rule(0.0, 1e-9),
    "counterexample.annihilated_coefficients": COLUMNS["counterexample.coeff_max"],
    "onesided.error_vs_onesided_bounded": COLUMNS["onesided.ratio_onesided"],
}


def _agree(a, b, rule, config):
    """Whether float ``a`` (fresh) agrees with ``b`` (recorded) under ``rule``."""
    if rule.cap:
        cap = float(config[rule.cap])
        within = [math.isfinite(v) and v <= cap for v in (a, b)]
        if within[0] != within[1]:
            return False
        if not within[1]:
            return True
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= rule.rtol * abs(b) + rule.atol


def _as_float(v):
    """A JSON float, or a non-finite float that ``summary.json`` spells as a string."""
    if isinstance(v, float):
        return v
    if isinstance(v, str) and v in ("inf", "-inf", "nan"):
        return float(v)
    return None


def _measured_agree(a, b, rule, config):
    if isinstance(b, (list, dict)):
        if type(a) is not type(b) or len(a) != len(b):
            return False
        if isinstance(b, dict):
            return a.keys() == b.keys() and all(
                _measured_agree(a[k], b[k], rule, config) for k in b)
        return all(_measured_agree(x, y, rule, config) for x, y in zip(a, b))
    fa, fb = _as_float(a), _as_float(b)
    if fb is not None and fa is not None:
        return _agree(fa, fb, rule, config)
    return type(a) is type(b) and a == b


def _cell_rule(command, column, row):
    """The rule of a float cell, or None for a text cell."""
    if command == "report" and column == "value":
        section = row["section"]
        return COLUMNS[f"{section}.{'value' if section == 'probe' else row['metric']}"]
    return COLUMNS.get(f"{command}.{column}")


def compare_csv(command, expected, actual, config):
    """Differences between two CSV texts of ``command``, one message each."""
    exp_rows = list(csv.reader(io.StringIO(expected)))
    act_rows = list(csv.reader(io.StringIO(actual)))
    if exp_rows[:1] != act_rows[:1]:
        return [f"header {act_rows[:1]} != {exp_rows[:1]}"]
    if len(act_rows) != len(exp_rows):
        return [f"{len(act_rows) - 1} rows, recorded {len(exp_rows) - 1}"]
    header, diffs = exp_rows[0], []
    for line, (exp, act) in enumerate(zip(exp_rows[1:], act_rows[1:]), 2):
        row = dict(zip(header, exp))
        for column, b, a in zip(header, exp, act):
            rule = _cell_rule(command, column, row)
            same = (a == b if rule is None
                    else _agree(float(a), float(b), rule, config))
            if not same:
                diffs.append(f"line {line} {column}: {a}, recorded {b}")
    return diffs


def compare_run(line, expected, actual):
    """Differences between a run's record and a fresh run, one message each.

    Exit codes, the config echo, assertion names and ``passed`` must be
    equal, and so must every text cell (labels, integer scales, booleans).
    A float cell agrees under its column's rule in ``COLUMNS``, and the
    floats of an assertion's measured value under ``MEASURED``.
    """
    command = line.split()[0].partition(":")[0]
    if actual["exit"] != expected["exit"]:
        return [f"exit {actual['exit']}, recorded {expected['exit']}"]
    if actual["config"] != expected["config"]:
        return [f"config echo {actual['config']}, recorded {expected['config']}"]
    config = expected["config"]
    diffs = compare_csv(command, expected["csv"], actual["csv"], config)
    names = [[name for name, _, _ in record["assertions"]] for record in (expected, actual)]
    if names[1] != names[0]:
        return diffs + [f"assertions {names[1]}, recorded {names[0]}"]
    for (name, passed, measured), (_, exp_passed, exp_measured) in zip(
            actual["assertions"], expected["assertions"]):
        if passed != exp_passed:
            diffs.append(f"assertion {name}: passed {passed}, recorded {exp_passed}")
        elif not _measured_agree(measured, exp_measured, _measured_rule(command, name),
                                 config):
            diffs.append(f"assertion {name}: measured {measured}, recorded {exp_measured}")
    return diffs


def _measured_rule(command, name):
    """The rule of an assertion's measured floats.  A ``report`` assertion is
    named ``section:check``, a ``rates`` one may be ``check:label``."""
    if command == "report":
        command, _, name = name.partition(":")
    return MEASURED.get(f"{command}.{name.partition(':')[0]}", ROUNDING)


_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
# A demo value below this is rounding noise of a zero (``discrete = 7.78e-16``).
DEMO_FLOOR = 1e-12


def _last_digit(token):
    """One unit in the last printed digit of a float token: ``0.0012`` gives
    1e-4 and ``2.06e-15`` 1e-17.  Zero printed as ``0.`` shows no digit to
    count, so it gets none."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 0.0 if float(token) == 0 else 10.0 ** (int(exponent or 0) - decimals)


def _tokens_agree(a, b):
    if "." not in b and "e" not in b.lower():
        return a == b
    # printed values differ by whole units: 1.5 units is one, with float slack
    return abs(float(a) - float(b)) <= max(1.5 * _last_digit(b), DEMO_FLOOR)


def compare_stdout(expected, actual):
    """Differences between a demo's recorded stdout and a fresh one, one
    message per line.

    Text and integers must be equal.  A demo prints floats rounded, so a
    rounding-level move shows as at most one unit in the last printed digit,
    which is what a float token may differ by; two tokens within DEMO_FLOOR
    agree whatever they print.
    """
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(act_lines) != len(exp_lines):
        return [f"{len(act_lines)} lines, recorded {len(exp_lines)}"]
    diffs = []
    for number, (exp, act) in enumerate(zip(exp_lines, act_lines), 1):
        exp_parts, act_parts = _NUMBER.split(exp), _NUMBER.split(act)
        if len(act_parts) != len(exp_parts) or not all(
                _tokens_agree(a, b) if i % 2 else a == b
                for i, (a, b) in enumerate(zip(act_parts, exp_parts))):
            diffs.append(f"line {number}: {act!r}, recorded {exp!r}")
    return diffs
