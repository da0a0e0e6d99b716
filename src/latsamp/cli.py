"""Command-line front end: experiment orchestration and CSV/JSON reports.

Subcommands
    probe           assumption constants K1-K4 plus MZ/Bernstein ratios
    equiv           error-vs-smoothness equivalence tables
    rates           log-log decay fits of error and modulus
    counterexample  vanishing-coefficient bump trains
    onesided        one-sided gap and dilation-sum comparisons
    report          a compact battery of all of the above

Outputs land in ``<out>/<command>_<seed>.csv`` plus ``<out>/summary.json``.
Runs are deterministic: same config and seed give byte-identical files (no
wall-clock data is written).  Exit codes: 0 all assertions pass, 1 usage or
runtime error (partial outputs removed), 2 assertion failure (outputs kept).

Config files are flat ``key = value`` lines (``#`` comments); command-line
flags win over file values.  Unknown keys are rejected by name.  Assertion
thresholds (spread caps, slope targets, tolerances) are config keys, not code
constants.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import __version__
from .bestapprox import LP_MAX_DEGREE
from .harness import (_FIT_MIN_SCALES, _TREND_MIN_SCALES, _vanishes_at_band_edge,
                      convergence_criterion, counterexample_run, equivalence_study,
                      mz_probe, onesided_study, probe_assumptions, rate_study)
from .model import MAX_RESOLUTION, _window_resolution, corpus
from .norms import parse_spec
from .operators import OP_IDS, parse_operator
from .steklov import MAX_ITERATES

SPEC_CHOICES = "l1|l2|lp:<p>|wlp:<p>:<beta>|orlicz:llogl"


class _Key(NamedTuple):
    parse: type
    default: object = None
    flag: str = ""  # the help of its command-line flag; "" for a file-only key


# every config key with its parser, default and flag help; thresholds live
# here, not in harness code.  spec, n and functions default per subcommand
# (_COMMANDS), and seed has no default.
_KEYS = {
    "op": _Key(str, "lagrange", f"operator: {OP_IDS}"),
    "spec": _Key(str, flag=f"norm: {SPEC_CHOICES}"),
    "n": _Key(str, flag="comma-separated strictly increasing scales"),
    "r": _Key(int, 1, f"Steklov iterate count, 1..{MAX_ITERATES} (discrete part)"),
    "s": _Key(int, 2, "smoothness order, 1..2r"),
    "seed": _Key(int, flag="RNG seed (required; no clock default)"),
    "trials": _Key(int, 50, "ensemble size per scale"),
    "gamma": _Key(float, flag="Steklov width factor: h = gamma/n"),
    "out": _Key(str, "latsamp-out", "output directory"),
    "functions": _Key(str), "scheme": _Key(str, "uniform"),
    "study": _Key(str, "error_vs_modulus"), "jitter": _Key(float, 0.4),
    "eps": _Key(float, 1e-6), "besov_cap": _Key(int, 256),
    "mz_sup_cap": _Key(float, 10.0), "mz_inf_floor": _Key(float, 0.05),
    "jackson_spread": _Key(float, 4.0), "converse_spread": _Key(float, 4.0),
    "equiv_spread": _Key(float, 400.0),
    "rate_slope": _Key(float, -0.5), "rate_slope_tol": _Key(float, 0.1),
    "rate_match_tol": _Key(float, 0.15),
    "counterexample_ratio_floor": _Key(float, 100.0),
    "counterexample_disc_tol": _Key(float, 1e-6),
    "coeff_tol": _Key(float, 1e-9), "onesided_ratio_cap": _Key(float, 10.0),
}


class _Command(NamedTuple):
    run: Callable  # cfg -> (rows keyed by column name, assertions)
    columns: Tuple[str, ...]  # its CSV header and --help text
    n: str  # default scales
    functions: Optional[str] = None  # default corpus functions
    spec: str = "l2"  # default norm
    least: int = 1  # least number of scales


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # spec'd exit codes: usage errors are 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _jsonable(v):
    """Plain-python mirror of numpy scalars/containers for json.dump."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if np.isfinite(f) else repr(f)
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v) if not isinstance(v, str) else v


def build_parser() -> _Parser:
    p = _Parser(prog="latsamp", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"latsamp {__version__}")
    sub = p.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        csv_help = f"CSV columns: {', '.join(command.columns)}"
        q = sub.add_parser(name, help=csv_help, description=csv_help)
        for key, k in _KEYS.items():
            if k.flag:
                q.add_argument(f"--{key}", type=k.parse, help=k.flag)
        q.add_argument("--config", help="flat key=value config file (flags win)")
    return p


def load_config_file(path: str) -> Dict[str, object]:
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    out: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise UsageError(f"{path}:{lineno}: expected key = value, got {text!r}")
            key, _, raw = text.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            parse = _KEYS[key].parse
            try:
                out[key] = parse(raw)
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: key {key!r} needs a {parse.__name__}, got {raw!r}")
    return out


def merge_config(args: argparse.Namespace) -> Dict[str, object]:
    command = _COMMANDS[args.command]
    cfg = {key: k.default for key, k in _KEYS.items()}
    cfg.update(spec=command.spec, n=command.n, functions=command.functions)
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    for key, k in _KEYS.items():
        if k.flag and getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if cfg["seed"] is None:
        raise UsageError("--seed is required (determinism policy: no clock default)")
    ns = []
    for piece in str(cfg["n"]).split(","):
        piece = piece.strip()
        if piece:
            try:
                ns.append(int(piece))
            except ValueError:
                raise UsageError(f"--n entries must be integers, got {piece!r}")
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise UsageError(f"--n must be strictly increasing, got {cfg['n']!r}")
    if min(ns) < 1:
        raise UsageError("--n entries must be positive")
    if len(ns) < command.least:
        raise UsageError(
            f"--n needs at least {command.least} scales for {args.command}, got {len(ns)}")
    if args.command in ("onesided", "report"):
        if args.command == "onesided" and ns[-1] > LP_MAX_DEGREE:
            raise UsageError(f"onesided scales are capped at n = {LP_MAX_DEGREE} (LP size)")
        cfg["onesided_n"] = [n for n in ns if n <= LP_MAX_DEGREE] or [4, 8, 16]
        top = cfg["onesided_n"][-1]
        if int(cfg["besov_cap"]) < top:
            raise UsageError(f"besov_cap = {cfg['besov_cap']} is below the largest onesided "
                             f"scale n = {top}, whose dilation sum would be empty")
    cfg["n_list"] = ns
    if int(cfg["trials"]) < 1:
        raise UsageError(f"--trials must be >= 1, got {cfg['trials']}")
    r, s = int(cfg["r"]), int(cfg["s"])
    if not 1 <= r <= MAX_ITERATES:
        raise UsageError(f"--r must lie in 1..{MAX_ITERATES}, got {r}")
    if not 1 <= s <= 2 * r:
        raise UsageError(f"--s must lie in 1..2r = 1..{2 * r}, got {s}")
    if cfg["gamma"] is not None:
        if not 0.0 < cfg["gamma"] < np.inf:
            raise UsageError(f"--gamma must be positive and finite, got {cfg['gamma']!r}")
        # the window gamma/n of the smallest scale is the widest; one period at most
        if cfg["gamma"] / ns[0] > 2.0 * np.pi:
            raise UsageError(
                f"--gamma {cfg['gamma']:g} is too large for n = {ns[0]}: its window "
                f"gamma/n = {cfg['gamma'] / ns[0]:g} is wider than one period 2*pi")
        # the window gamma/n of the largest scale sets the finest partition
        needed = _window_resolution(cfg["gamma"] / ns[-1])
        if needed > MAX_RESOLUTION:
            raise UsageError(
                f"--gamma {cfg['gamma']:g} is too small for n = {ns[-1]}: its window "
                f"gamma/n needs {needed} grid cells, above MAX_RESOLUTION = {MAX_RESOLUTION}")
    if not 0.0 < cfg["eps"] < np.inf:
        raise UsageError(f"eps must be positive and finite, got {cfg['eps']!r}")
    for key, k in _KEYS.items():
        if k.parse is float and cfg[key] is not None and not np.isfinite(cfg[key]):
            raise UsageError(f"config key {key!r} must be finite, got {cfg[key]!r}")
    try:
        cfg["spec_obj"] = parse_spec(str(cfg["spec"]))
        cfg["op_obj"] = parse_operator(str(cfg["op"]))
    except ValueError as ex:
        raise UsageError(str(ex))
    if args.command == "onesided" and cfg["spec_obj"].id != command.spec:
        raise UsageError(f"--spec {cfg['spec']} is not {command.spec}: onesided measures "
                         "in L1, the norm of its one-sided LP")
    # echo the canonical ids, so two spellings of one run write one summary.json
    cfg["spec"], cfg["op"] = cfg["spec_obj"].id, cfg["op_obj"].op_id
    if cfg["functions"] is not None:
        available = corpus()
        names = [name.strip() for name in str(cfg["functions"]).split(",") if name.strip()]
        for name in names:
            if name not in available:
                raise UsageError(f"unknown corpus function {name!r}; available: "
                                 f"{','.join(sorted(available))}")
        if not names:
            raise UsageError("functions list is empty")
        cfg["functions_map"] = {name: available[name] for name in names}
    return cfg


def _check(assertions: List[dict], name: str, passed: bool, measured,
           threshold, note: str = "") -> None:
    entry = {"name": name, "passed": bool(passed), "measured": measured,
             "threshold": threshold}
    if note:
        entry["note"] = note
    assertions.append(entry)


def _spread_ok(values, cap: float, floor: float = 1e-9):
    vals = [v for v in values if np.isfinite(v)]
    if not vals or max(vals) <= floor:
        return True, 0.0
    lo = min(vals)
    if lo <= 0:
        return False, np.inf
    return max(vals) / lo <= cap, max(vals) / lo


# ----------------------------------------------------------------------------
# command implementations: each returns (rows keyed by column name, assertions)
# ----------------------------------------------------------------------------


def _cmd_probe(cfg):
    spec = cfg["spec_obj"]
    asserts: List[dict] = []
    pa = probe_assumptions(cfg["op_obj"], spec, int(cfg["s"]), cfg["n_list"],
                           trials=int(cfg["trials"]), seed=int(cfg["seed"]))
    mz = mz_probe(spec, str(cfg["scheme"]), cfg["n_list"],
                  trials=int(cfg["trials"]), seed=int(cfg["seed"]),
                  jitter=float(cfg["jitter"]))
    rows = []
    for rep, section in ((pa, "assumptions"), (mz, "mz")):
        # each scale's metrics, then the constants over all scales at n = 0
        cells = [(per["n"], metric, value) for per in rep.per_n
                 for metric, value in per.items() if metric != "n"]
        cells += [(0, metric, value) for metric, value in rep.constants.items()]
        rows += [{"section": section, "probe_id": rep.probe_id, "n": n, "metric": metric,
                  "value": value} for n, metric, value in cells]
    flat = [v for rep in (pa, mz) for v in rep.constants.values()]
    _check(asserts, "constants_finite_nonnegative",
           all(np.isfinite(v) and v >= 0 for v in flat), flat, "finite, >= 0")
    _check(asserts, "inf_le_sup",
           pa.constants["K2"] <= pa.constants["K1"] + 1e-12
           and pa.constants["K4"] <= pa.constants["K3"] + 1e-12,
           [pa.constants["K2"], pa.constants["K1"],
            pa.constants["K4"], pa.constants["K3"]], "K2<=K1, K4<=K3")
    ok, spread = _spread_ok([p["k3_sup"] for p in pa.per_n],
                            float(cfg["jackson_spread"]))
    _check(asserts, "jackson_per_n_spread", ok, spread, cfg["jackson_spread"])
    ok, spread = _spread_ok([p["k4_inf"] for p in pa.per_n],
                            float(cfg["converse_spread"]))
    _check(asserts, "converse_per_n_spread", ok, spread, cfg["converse_spread"])
    _check(asserts, "mz_sup_cap", mz.constants["MZ_upper"] < cfg["mz_sup_cap"],
           mz.constants["MZ_upper"], cfg["mz_sup_cap"])
    if spec.kind == "lebesgue" and spec.p > 1.0 and cfg["scheme"] == "uniform":
        _check(asserts, "mz_inf_floor",
               mz.constants["MZ_lower"] > cfg["mz_inf_floor"],
               mz.constants["MZ_lower"], cfg["mz_inf_floor"])
    return rows, asserts


def _cmd_equiv(cfg):
    table = equivalence_study(str(cfg["study"]), cfg["functions_map"],
                              cfg["op_obj"], cfg["spec_obj"], int(cfg["r"]),
                              int(cfg["s"]), cfg["n_list"], gamma=cfg["gamma"])
    asserts: List[dict] = []
    if not table.rows and table.notes:
        _check(asserts, "study_skipped", True, 0.0, "precondition",
               note="; ".join(table.notes))
        return table.rows, asserts
    _check(asserts, "zero_rhs_rows_clean", not table.violations,
           len(table.violations), 0,
           note="rows with rhs=0 must have lhs <= 1e-9")
    _check(asserts, "min_ratio_positive", table.min_ratio > 0,
           table.min_ratio, 0.0)
    _check(asserts, "equiv_spread", table.spread <= cfg["equiv_spread"],
           table.spread, cfg["equiv_spread"])
    return table.rows, asserts


def _cmd_rates(cfg):
    asserts: List[dict] = []
    rows = []
    for label, f in cfg["functions_map"].items():
        err_fit, mod_fit = rate_study(f, cfg["op_obj"], cfg["spec_obj"],
                                      cfg["n_list"], r=int(cfg["r"]),
                                      s=int(cfg["s"]), gamma=cfg["gamma"])
        rows += [{"f_label": label, "measure": measure, "slope": fit.slope,
                  "intercept": fit.intercept, "residual": fit.residual, "exact": fit.exact}
                 for measure, fit in (("error", err_fit), ("modulus", mod_fit))]
        if not (err_fit.exact or mod_fit.exact):
            _check(asserts, f"slope_match:{label}",
                   abs(err_fit.slope - mod_fit.slope) <= cfg["rate_match_tol"],
                   abs(err_fit.slope - mod_fit.slope), cfg["rate_match_tol"])
        if label == "square":
            _check(asserts, "square_error_slope",
                   abs(err_fit.slope - cfg["rate_slope"]) <= cfg["rate_slope_tol"],
                   err_fit.slope,
                   f"{cfg['rate_slope']} +- {cfg['rate_slope_tol']}")
    rows.sort(key=lambda row: (row["f_label"], row["measure"]))
    return rows, asserts


def _cmd_counterexample(cfg):
    spec = cfg["spec_obj"]
    op = cfg["op_obj"]
    window = op.op_id if _vanishes_at_band_edge(op) else "fejer"
    table = counterexample_run(cfg["n_list"], spec=spec, window=window)
    asserts: List[dict] = []
    disc = [r["discrete_error"] for r in table.rows]
    if spec.kind == "lebesgue":
        tol = cfg["counterexample_disc_tol"]
        _check(asserts, "discrete_error_is_one",
               all(abs(d - 1.0) <= tol for d in disc),
               disc, f"1 +- {tol}")
    else:
        _check(asserts, "discrete_error_constant",
               max(disc) - min(disc) <= cfg["counterexample_disc_tol"],
               disc, "constant across n")
    cont = [r["continuous_error"] for r in table.rows]
    _check(asserts, "continuous_error_decreasing",
           all(b < a for a, b in zip(cont, cont[1:])), cont, "monotone down")
    _check(asserts, "final_ratio",
           table.final_ratio > cfg["counterexample_ratio_floor"],
           table.final_ratio, cfg["counterexample_ratio_floor"])
    note = f"window {table.window}"
    if table.window != op.op_id:
        note += (f" ran in place of {op.op_id}, whose window does not vanish "
                 "at the band edge")
    _check(asserts, "annihilated_coefficients",
           table.max_coefficient <= cfg["coeff_tol"],
           table.max_coefficient, cfg["coeff_tol"], note=note)
    return table.rows, asserts


def _cmd_onesided(cfg):
    rows = onesided_study(cfg["functions_map"], cfg["onesided_n"],
                          op=cfg["op_obj"], eps=float(cfg["eps"]),
                          besov_cap=int(cfg["besov_cap"]))
    asserts: List[dict] = []
    _check(asserts, "lp_converged", all(r["lp_converged"] for r in rows),
           sum(1 for r in rows if not r["lp_converged"]), 0)
    live = [r for r in rows if not r["excluded"]]
    ratios = [r["ratio_onesided"] for r in live]
    _check(asserts, "error_vs_onesided_bounded",
           all(np.isfinite(v) and v <= cfg["onesided_ratio_cap"] for v in ratios),
           ratios, cfg["onesided_ratio_cap"])
    mono_ok = True
    for label in cfg["functions_map"]:
        vals = [r["onesided"] for r in rows if r["f_label"] == label]
        if any(b > a + 1e-9 for a, b in zip(vals, vals[1:])):
            mono_ok = False
    _check(asserts, "onesided_nonincreasing", mono_ok, mono_ok, True)
    return rows, asserts


# the report row of one row of each section: its (label, metric, value)
_REPORT_SECTIONS = {
    "probe": lambda r: (r["probe_id"], r["metric"], r["value"]),
    "equiv": lambda r: (r["f_label"], "ratio", r["ratio"]),
    "counterexample": lambda r: ("bump_train", "ratio", r["ratio"]),
    "onesided": lambda r: (r["f_label"], "ratio_onesided", r["ratio_onesided"]),
}


def _cmd_report(cfg):
    """Compact battery: every section at the configured (small) scales."""
    asserts: List[dict] = []
    rows = []
    dropped = [n for n in cfg["n_list"] if n not in cfg["onesided_n"]]
    note = f"scales {dropped} above the LP cap n = {LP_MAX_DEGREE} dropped" if dropped else ""
    if len(dropped) == len(cfg["n_list"]):
        note += f"; ran at n = {cfg['onesided_n']} in their place"
    for section, pick in _REPORT_SECTIONS.items():
        section_rows, section_asserts = _COMMANDS[section].run(cfg)
        for row in section_rows:
            label, metric, value = pick(row)
            rows.append({"section": section, "label": label, "n": row["n"],
                         "metric": metric, "value": value})
        extra = {"note": note} if section == "onesided" and note else {}
        asserts += [dict(a, name=f"{section}:{a['name']}", **extra) for a in section_asserts]

    cv = convergence_criterion(next(iter(cfg["functions_map"].values())),
                               cfg["op_obj"], cfg["spec_obj"], int(cfg["r"]),
                               cfg["n_list"], gamma=cfg["gamma"])
    rows += [{"section": "convergence", "label": "trend", "n": n, "metric": "error",
              "value": e} for n, e in zip(cv.n_range, cv.errors)]
    _check(asserts, "convergence:verdicts_agree", cv.agree,
           {"error": cv.error_converges, "modulus": cv.modulus_converges}, True)
    return rows, asserts


_COMMANDS = {
    "probe": _Command(_cmd_probe, ("section", "probe_id", "n", "metric", "value"),
                      "8,16,32,64"),
    "equiv": _Command(_cmd_equiv, ("f_label", "n", "lhs_continuous", "lhs_discrete",
                                   "rhs_continuous", "rhs_discrete", "ratio"),
                      "8,16,32,64", "square,cusp05,cusp15,sawtooth"),
    "rates": _Command(_cmd_rates, ("f_label", "measure", "slope", "intercept",
                                   "residual", "exact"),
                      "16,32,64,128,256", "square,cusp15", least=_FIT_MIN_SCALES),
    "counterexample": _Command(_cmd_counterexample, ("n", "continuous_error",
                                                     "discrete_error", "ratio", "coeff_max"),
                               "8,16,32,64,128"),
    # measured in L1, the norm of its one-sided LP
    "onesided": _Command(_cmd_onesided, ("f_label", "n", "error", "onesided",
                                         "ratio_onesided", "besov", "besov_truncated",
                                         "ratio_besov", "lp_converged", "excluded"),
                         "4,8,16,32", "sine,square,sawtooth", spec="l1"),
    "report": _Command(_cmd_report, ("section", "label", "n", "metric", "value"),
                       "8,16,32", "smooth,cusp15", least=_TREND_MIN_SCALES),
}


def _write_outputs(cfg, command, rows, assertions):
    outdir = str(cfg["out"])
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, f"{command}_{cfg['seed']}.csv")
    json_path = os.path.join(outdir, "summary.json")
    header = _COMMANDS[command].columns
    try:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row[column]) for column in header])
        echo = {k: v for k, v in sorted(cfg.items()) if k in _KEYS and v is not None}
        summary = {
            "command": command,
            "version": __version__,
            "config": _jsonable(echo),
            "assertions": _jsonable(assertions),
            "all_passed": all(a["passed"] for a in assertions),
            "outputs": [os.path.basename(csv_path)],
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except Exception:
        for path in (csv_path, json_path):
            if os.path.exists(path):
                os.remove(path)
        raise
    return csv_path, json_path


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError(f"a subcommand is required ({'|'.join(_COMMANDS)})")
        cfg = merge_config(args)
        rows, assertions = _COMMANDS[args.command].run(cfg)
        csv_path, _ = _write_outputs(cfg, args.command, rows, assertions)
    except (UsageError, ValueError, ArithmeticError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    failed = [a for a in assertions if not a["passed"]]
    for a in assertions:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"{status} {a['name']} measured={_fmt_short(a['measured'])} "
              f"threshold={a['threshold']}")
    print(f"wrote {csv_path}")
    return 2 if failed else 0


def _fmt_short(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_short(x) for x in v[:4]) + (
            ", ..." if len(v) > 4 else "") + "]"
    return str(v)


if __name__ == "__main__":
    sys.exit(main())
