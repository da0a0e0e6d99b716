"""Command-line interface: argument handling, config files, outputs, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from latsamp import cli, harness


def run(args):
    return cli.main(args)


def read_summary(outdir):
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_rows(path):
    """Rows of ``<command>_<seed>.csv``, whose first line must be the
    command's entry in ``cli._HEADERS``."""
    command = os.path.basename(path).rsplit("_", 1)[0]
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.readline() == ",".join(cli._HEADERS[command]) + "\n"
        fh.seek(0)
        return list(csv.DictReader(fh))


# ----------------------------------------------------------------------------
# usage errors (exit code 1, no outputs)
# ----------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_missing_seed_is_usage_error(tmp_path, capsys):
    code = run(["probe", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "seed" in capsys.readouterr().err.lower()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [
    ["probe", "--seed", "1", "--n", "8,8,16"],          # not strictly increasing
    ["probe", "--seed", "1", "--n", "0,4"],             # non-positive scale
    ["probe", "--seed", "1", "--r", "1", "--s", "3"],   # violates 2r >= s
    ["probe", "--seed", "1", "--gamma", "-2"],
    ["probe", "--seed", "1", "--gamma", "nan"],
    ["equiv", "--seed", "1", "--gamma", "inf"],
    ["probe", "--seed", "1", "--spec", "l0"],
    ["probe", "--seed", "1", "--op", "zzz"],
    ["equiv", "--seed", "1", "--functions", "nosuchfn"],
    ["equiv", "--seed", "1", "--study", "bogus"],
    ["probe", "--seed", "1", "--spec", "lp:inf"],
    ["probe", "--seed", "1", "--spec", "lp:nan"],
    ["probe", "--seed", "1", "--trials", "0"],
    ["equiv", "--seed", "7", "--n", "8", "--gamma", "1e-6"],  # 2^32 cells
    ["equiv", "--seed", "7", "--op", "br:nan"],
    ["equiv", "--seed", "7", "--op", "br:inf"],
])
def test_bad_arguments_exit_one(tmp_path, args, capsys):
    assert run(args + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.strip()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, flag", [
    (["equiv", "--r", "5", "--s", "2"], "--r"),   # above steklov.MAX_ITERATES
    (["equiv", "--r", "0", "--s", "1"], "--r"),
    (["probe", "--s", "0"], "--s"),
    (["equiv", "--r", "2", "--s", "5"], "--s"),    # above 2r
])
def test_orders_out_of_range_are_usage_errors(tmp_path, args, flag, capsys):
    """``--r`` and ``--s`` are checked against the library's ranges while the
    config is merged, and the error names the flag."""
    out = tmp_path / "o"
    assert run(args + ["--seed", "7", "--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r, s", [(3, 5), (4, 8)])
def test_the_whole_order_range_runs(tmp_path, r, s):
    """s <= 2r with r <= 4: a shifted chain of order s up to 8 is accepted."""
    args = ["equiv", "--r", str(r), "--s", str(s), "--seed", "7", "--out", str(tmp_path)]
    assert run(args) == 0
    rows = read_rows(tmp_path / "equiv_7.csv")
    assert rows and all(np.isfinite(float(row["ratio"])) for row in rows)


def test_gamma_too_small_for_largest_scale_is_usage_error(tmp_path, capsys):
    """A window gamma/n finer than MAX_RESOLUTION cells allow is refused by name
    while the config is merged, before any cache is built."""
    from latsamp.model import MAX_RESOLUTION, _window_resolution

    parse = cli.build_parser().parse_args
    with pytest.raises(cli.UsageError, match="--gamma"):
        cli.merge_config(parse(["equiv", "--seed", "7", "--n", "8", "--gamma", "1e-6"]))
    # the smallest gamma/8 whose window resolution is still within the cap is accepted
    gamma = 8 * 64 * 2 * np.pi / MAX_RESOLUTION
    assert _window_resolution(gamma / 8) == MAX_RESOLUTION
    assert cli.merge_config(parse(["equiv", "--seed", "7", "--n", "4,8",
                                   "--gamma", repr(gamma)]))["gamma"] == gamma
    with pytest.raises(cli.UsageError, match="n = 8"):
        cli.merge_config(parse(["equiv", "--seed", "7", "--n", "4,8",
                                "--gamma", repr(gamma * 0.999)]))
    out = tmp_path / "o"
    assert run(["equiv", "--seed", "7", "--n", "8", "--gamma", "1e-6", "--out", str(out)]) == 1
    assert "--gamma" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_too_large_for_smallest_scale_is_usage_error(tmp_path, capsys):
    """A window gamma/n wider than one period at the smallest scale is refused
    by flag and scale while the config is merged (before, the first task failed
    with "window width h must lie in (0, 2*pi]")."""
    parse = cli.build_parser().parse_args
    with pytest.raises(cli.UsageError, match="--gamma 100 is too large for n = 8"):
        cli.merge_config(parse(["equiv", "--seed", "7", "--n", "8,16", "--gamma", "100"]))
    # gamma/8 = 2 pi exactly is one period, which a window may span
    gamma = 16 * np.pi
    assert cli.merge_config(parse(["equiv", "--seed", "7", "--n", "8,16",
                                   "--gamma", repr(gamma)]))["gamma"] == gamma
    out = tmp_path / "o"
    assert run(["equiv", "--seed", "7", "--n", "8,16", "--gamma", "100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--gamma" in err and "n = 8" in err
    assert not out.exists()


@pytest.mark.parametrize("args, least", [
    (["rates", "--n", "8,16,32"], harness._FIT_MIN_SCALES),
    (["rates", "--n", "8,16,32,64"], harness._FIT_MIN_SCALES),
    (["report", "--n", "8"], harness._TREND_MIN_SCALES),
])
def test_too_few_scales_is_usage_error(monkeypatch, tmp_path, args, least, capsys):
    """``rates`` fits a rate to at least five scales and ``report`` takes a
    trend over at least two; fewer are refused by flag before any cache is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("a cache was built")

    monkeypatch.setattr(harness, "build_cache", no_build)
    out = tmp_path / "o"
    assert run(args + ["--seed", "7", "--out", str(out)]) == 1
    assert f"--n needs at least {least} scales" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, ns, cap, top", [
    ("onesided", "4,8,16", 8, 16),
    ("report", "8,16,32", 16, 32),
    ("report", "8,40", 4, 8),          # 40 is above the LP cap; onesided runs at 8
    ("report", "40,64", 8, 16),        # none left; onesided runs at 4, 8, 16
])
def test_besov_cap_below_largest_onesided_scale_is_usage_error(tmp_path, command, ns,
                                                              cap, top, capsys):
    """A dilation sum capped below its base degree would be empty: the largest
    scale onesided runs at must not exceed ``besov_cap``."""
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"besov_cap = {cap}\n")
    out = tmp_path / "o"
    assert run([command, "--n", ns, "--seed", "7", "--config", str(cfgfile),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"besov_cap = {cap}" in err and f"n = {top}" in err
    assert not out.exists()
    cfgfile.write_text(f"besov_cap = {top}\n")
    assert cli.merge_config(cli.build_parser().parse_args(
        [command, "--n", ns, "--seed", "7", "--config", str(cfgfile)]))["besov_cap"] == top


@pytest.mark.parametrize("op", ["wks", "linefejer"])
def test_line_operator_is_usage_error(tmp_path, op, capsys):
    out = tmp_path / "o"
    assert run(["counterexample", "--seed", "5", "--n", "4,8", "--op", op,
                "--out", str(out)]) == 1
    assert "lagrange|fejer|br:<alpha>" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_exits_one(tmp_path, capsys):
    assert run(["probe", "--seed", "1", "--wibble", "2"]) == 1


# ----------------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------------


def test_config_file_supplies_values(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = 7\nn = 4,8\ntrials = 6\n# comment line\n\nop = fejer\n")
    out = tmp_path / "o"
    code = run(["probe", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["config"]["seed"] == 7
    assert summary["config"]["trials"] == 6
    assert summary["config"]["op"] == "fejer"


def test_flags_override_config(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = 7\ntrials = 6\nn = 4,8\n")
    out = tmp_path / "o"
    assert run(["probe", "--config", str(cfgfile), "--trials", "9",
                "--out", str(out)]) == 0
    assert read_summary(out)["config"]["trials"] == 9


def test_unknown_config_key_names_the_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("seed = 1\nwobble = 3\n")
    assert run(["probe", "--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert "wobble" in err


def test_config_type_error_is_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("seed = banana\n")
    assert run(["probe", "--config", str(cfgfile)]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("line, key", [
    ("eps = nan", "eps"), ("eps = inf", "eps"), ("eps = 0", "eps"), ("eps = -1", "eps"),
    ("gamma = nan", "--gamma"), ("gamma = inf", "--gamma"),
    ("coeff_tol = nan", "coeff_tol"),
    ("counterexample_ratio_floor = -inf", "counterexample_ratio_floor"),
])
def test_scalar_not_positive_finite_is_usage_error(tmp_path, line, key, capsys):
    """A scalar that must be positive and finite is refused by name while the
    config is merged: NaN passes every ``<=`` check, and a NaN or an infinite
    ``eps`` would never stop a dilation sum.  Every other float key must be
    finite: a NaN ``coeff_tol`` fails a passing counterexample run, and a
    ``counterexample_ratio_floor`` of -inf makes its check vacuous."""
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line + "\n")
    out = tmp_path / "o"
    assert run(["onesided", "--seed", "7", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    assert run(["probe", "--seed", "1", "--config", str(tmp_path / "gone.cfg")]) == 1


# ----------------------------------------------------------------------------
# happy paths
# ----------------------------------------------------------------------------


def test_probe_command_writes_outputs(tmp_path, capsys):
    out = tmp_path / "probe-out"
    code = run(["probe", "--seed", "3", "--n", "4,8,16", "--trials", "8",
                "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    csv_path = out / "probe_3.csv"
    assert csv_path.exists()
    rows = read_rows(csv_path)
    assert set(rows[0]) == {"section", "probe_id", "n", "metric", "value"}
    assert {int(r["n"]) for r in rows} == {0, 4, 8, 16}  # 0 marks the totals
    assert {r["section"] for r in rows} == {"assumptions", "mz"}
    summary = read_summary(out)
    assert summary["command"] == "probe"
    assert summary["all_passed"] is True
    assert summary["outputs"] == ["probe_3.csv"]
    assert all(a["passed"] for a in summary["assertions"])


def test_mz_probe_scheme_from_config(tmp_path):
    cfgfile = tmp_path / "jit.cfg"
    cfgfile.write_text("scheme = jittered\njitter = 0.3\n")
    out = tmp_path / "o"
    code = run(["probe", "--seed", "11", "--n", "4,8", "--trials", "10",
                "--spec", "lp:4", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    rows = read_rows(out / "probe_11.csv")
    assert any(r["metric"] == "mz_sup" for r in rows)
    assert any(r["probe_id"] == "mz:jittered" for r in rows)


def test_equiv_command(tmp_path):
    cfgfile = tmp_path / "eq.cfg"
    cfgfile.write_text("functions = square,cusp15\n")
    out = tmp_path / "o"
    code = run(["equiv", "--seed", "2", "--op", "br:1", "--n", "8,16",
                "--r", "1", "--s", "2", "--config", str(cfgfile),
                "--out", str(out)])
    assert code == 0
    rows = read_rows(out / "equiv_2.csv")
    assert {"f_label", "n", "lhs_continuous", "lhs_discrete",
            "rhs_continuous", "rhs_discrete", "ratio"} <= set(rows[0])
    assert len(rows) == 4


def test_counterexample_command(tmp_path):
    out = tmp_path / "o"
    code = run(["counterexample", "--seed", "5", "--n", "8,16,32",
                "--out", str(out)])
    assert code == 0
    rows = read_rows(out / "counterexample_5.csv")
    ratios = [float(r["ratio"]) for r in rows]
    assert ratios == sorted(ratios)
    disc = [float(r["discrete_error"]) for r in rows]
    np.testing.assert_allclose(disc, 1.0, atol=1e-9)


def test_counterexample_names_the_window_that_ran(tmp_path):
    """The Dirichlet window does not vanish at the band edge, so ``--op
    lagrange`` runs the Fejer window; the summary says so."""
    outs = {}
    for op in ("lagrange", "fejer"):
        out = tmp_path / op
        assert run(["counterexample", "--seed", "7", "--n", "8,16", "--op", op,
                    "--out", str(out)]) == 0
        outs[op] = out
    csvs = [(outs[op] / "counterexample_7.csv").read_bytes() for op in outs]
    assert csvs[0] == csvs[1]
    summary = read_summary(outs["lagrange"])
    assert summary["config"]["op"] == "lagrange"
    note = {a["name"]: a.get("note", "") for a in summary["assertions"]}
    assert "window fejer ran in place of lagrange" in note["annihilated_coefficients"]
    fejer = {a["name"]: a.get("note", "") for a in read_summary(outs["fejer"])["assertions"]}
    assert fejer["annihilated_coefficients"] == "window fejer"


def test_onesided_command(tmp_path):
    cfgfile = tmp_path / "os.cfg"
    cfgfile.write_text("functions = square,sine\nbesov_cap = 32\n")
    out = tmp_path / "o"
    code = run(["onesided", "--seed", "4", "--n", "4,8",
                "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    rows = read_rows(out / "onesided_4.csv")
    assert len(rows) == 4
    # with no spec given, the summary echoes the norm the study measures in
    assert read_summary(out)["config"]["spec"] == "l1"


@pytest.mark.parametrize("given", ["flag", "config"])
def test_onesided_rejects_a_spec_other_than_l1(tmp_path, given, capsys):
    """The one-sided study measures in L1; a spec given for it by flag or
    config key that is not L1 is a usage error naming ``--spec``, not a run
    whose summary echoes a norm it did not use."""
    cfgfile = tmp_path / "os.cfg"
    cfgfile.write_text("functions = sine\nbesov_cap = 32\n"
                       + ("spec = wlp:2:0.5\n" if given == "config" else ""))
    out = tmp_path / "o"
    args = ["onesided", "--seed", "7", "--n", "4,8", "--config", str(cfgfile),
            "--out", str(out)]
    code = run(args + (["--spec", "wlp:2:0.5"] if given == "flag" else []))
    assert code == 1
    assert "--spec wlp:2:0.5" in capsys.readouterr().err
    assert not out.exists()
    # L1 in any spelling, and no spec at all, still run
    for extra in (["--spec", "l1"], ["--spec", "lp:1"], []):
        if given == "config" and not extra:
            continue
        assert run(args + extra) == 0


def test_probe_orlicz_power_is_the_l2_probe(tmp_path):
    """``orlicz:power:2`` is a spelling of L2: its probe writes the L2 CSV
    byte for byte and checks the MZ lower floor, as the L2 probe does."""
    outs = {}
    for spec in ("l2", "orlicz:power:2"):
        outs[spec] = tmp_path / spec.replace(":", "-")
        assert run(["probe", "--spec", spec, "--seed", "7", "--out", str(outs[spec])]) == 0
    csvs = [(out / "probe_7.csv").read_bytes() for out in outs.values()]
    assert csvs[0] == csvs[1]
    names = {a["name"] for a in read_summary(outs["orlicz:power:2"])["assertions"]}
    assert "mz_inf_floor" in names


def test_rates_command(tmp_path):
    cfgfile = tmp_path / "r.cfg"
    cfgfile.write_text("functions = cusp15\n"
                       "rate_slope = -1.5\n"
                       "rate_slope_tol = 0.3\n"
                       "rate_match_tol = 0.35\n")
    out = tmp_path / "o"
    code = run(["rates", "--seed", "6", "--n", "8,16,32,64,128", "--s", "2",
                "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    rows = read_rows(out / "rates_6.csv")
    assert rows, "rates CSV should carry the fitted slopes"


def test_report_command_composes(tmp_path, capsys):
    out = tmp_path / "o"
    code = run(["report", "--seed", "1", "--n", "8,16,32", "--trials", "10",
                "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    names = [a["name"] for a in summary["assertions"]]
    # prefixes from each composed stage
    assert any(n.startswith("probe") for n in names)
    assert any(n.startswith("counterexample") for n in names)
    assert summary["all_passed"]
    assert not any("note" in a for a in summary["assertions"]
                   if a["name"].startswith("onesided:"))
    assert {r["section"] for r in read_rows(out / "report_1.csv")} >= {
        "probe", "equiv", "counterexample", "onesided", "convergence"}


@pytest.mark.parametrize("ns, onesided_ns, note", [
    ("8,40", {"8"}, "scales [40] above the LP cap n = 32 dropped"),
    ("40,64", {"4", "8", "16"}, "scales [40, 64] above the LP cap n = 32 dropped; "
                                "ran at n = [4, 8, 16] in their place"),
])
def test_report_names_the_onesided_scales_it_changed(tmp_path, ns, onesided_ns, note):
    """Scales above the LP cap leave the one-sided section, and a run with
    none left falls back to 4, 8, 16; every onesided assertion says which."""
    cfgfile = tmp_path / "r.cfg"
    cfgfile.write_text("functions = square\nbesov_cap = 32\n")
    out = tmp_path / "o"
    run(["report", "--seed", "1", "--n", ns, "--trials", "4",
         "--config", str(cfgfile), "--out", str(out)])
    assertions = read_summary(out)["assertions"]
    assert {a["name"]: a.get("note") for a in assertions if a["name"].startswith("onesided:")} == {
        "onesided:lp_converged": note, "onesided:error_vs_onesided_bounded": note,
        "onesided:onesided_nonincreasing": note}
    rows = read_rows(out / "report_1.csv")
    assert {r["n"] for r in rows if r["section"] == "onesided"} == onesided_ns


# ----------------------------------------------------------------------------
# determinism and failure semantics
# ----------------------------------------------------------------------------


def test_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "o"
    args = ["probe", "--seed", "9", "--n", "4,8", "--trials", "6",
            "--out", str(out)]
    assert run(args) == 0
    first_csv = (out / "probe_9.csv").read_bytes()
    first_json = (out / "summary.json").read_bytes()
    assert run(args) == 0
    assert (out / "probe_9.csv").read_bytes() == first_csv
    assert (out / "summary.json").read_bytes() == first_json


def test_threshold_failure_exits_two_and_keeps_outputs(tmp_path, capsys):
    cfgfile = tmp_path / "tight.cfg"
    cfgfile.write_text("functions = square\nequiv_spread = 1.0000001\n")
    out = tmp_path / "o"
    code = run(["equiv", "--seed", "2", "--op", "br:1",
                "--n", "8,16", "--r", "1", "--s", "2",
                "--config", str(cfgfile), "--out", str(out)])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out
    assert (out / "equiv_2.csv").exists()
    summary = read_summary(out)
    assert summary["all_passed"] is False


def test_summary_config_echo_is_complete(tmp_path):
    out = tmp_path / "o"
    run(["probe", "--seed", "3", "--n", "4,8", "--trials", "5", "--out", str(out)])
    cfg = read_summary(out)["config"]
    # echo is flat, json-clean, and sorted
    assert list(cfg.keys()) == sorted(cfg.keys())
    for v in cfg.values():
        assert isinstance(v, (int, float, str, bool, type(None), list))


def test_floats_round_trip_at_full_precision(tmp_path):
    out = tmp_path / "o"
    run(["counterexample", "--seed", "5", "--n", "8,16", "--out", str(out)])
    rows = read_rows(out / "counterexample_5.csv")
    v = float(rows[0]["continuous_error"])
    # 17 significant digits survive the text round trip
    assert rows[0]["continuous_error"] == f"{v:.17g}"
