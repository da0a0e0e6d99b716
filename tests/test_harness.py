"""Experiment harness: probes, equivalence tables, rate fits, counterexamples."""

from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

import latsamp
from latsamp import (approx_error, bestapprox, besov_sum, build_cache, corpus, harness,
                     one_sided_best, parse_operator, parse_spec)
from latsamp.harness import (
    EQUIV_STUDIES,
    bump_train,
    convergence_criterion,
    counterexample_run,
    equivalence_study,
    fit_loglog,
    mz_probe,
    onesided_study,
    parallel_map,
    probe_assumptions,
    random_real_poly,
    rate_study,
    smooth_bump,
)

L1 = parse_spec("l1")
L2 = parse_spec("l2")
C = corpus()


def test_public_names():
    """The exported names, frozen: removing or adding one is a visible edit."""
    assert sorted(latsamp.__all__) == [
        "ApproxError", "BesovSum", "BestApprox", "ConvergenceVerdict",
        "CounterexampleTable", "DenseGridCache", "EquivTable", "LemderCheck",
        "ModulusReport", "NodeSet", "NormSpec", "OneSided", "OperatorSpec",
        "PointwiseFunction", "ProbeReport", "RateFit", "RealizationReport",
        "TrigPoly", "__version__", "analyze", "apply_operator",
        "apply_window", "approx_error", "bandlimited_signal", "besov_sum",
        "best_approx", "br_window", "build_cache", "bump_train",
        "convergence_criterion", "corpus",
        "counterexample_run", "default_width", "dilation_norm",
        "dilation_norm_info", "dirichlet_window", "discrete_seminorm",
        "ensure_window_resolution", "equivalence_study", "fejer_window",
        "fit_loglog", "fourier_coefficients", "i_minus_a_pow",
        "i_minus_a_pow_at", "kernel_eval", "kfunc_vp", "lagrange",
        "lemder_check", "line_kernel", "line_quasi", "make_jittered_nodes",
        "make_uniform_nodes", "multiplier", "mz_probe", "norm",
        "one_sided_best", "onesided_study", "parallel_map", "parse_operator",
        "parse_spec", "poly_norm", "probe_assumptions",
        "quasi_interp", "rate_study", "realization", "semidiscrete_modulus",
        "smooth_bump", "steklov_chain", "subtract_poly", "vp_mean", "wks", "wrap_angle",
    ]
    for name in latsamp.__all__:
        assert getattr(latsamp, name) is not None


def test_parallel_map_keeps_submission_order():
    import time

    def job(k):
        time.sleep(0.01 * (5 - k))
        return k * k

    assert parallel_map(job, range(5)) == [0, 1, 4, 9, 16]


def test_random_real_poly_is_real_valued():
    rng = np.random.default_rng(0)
    p = random_real_poly(6, rng)
    assert p.degree == 6
    x = np.linspace(-np.pi, np.pi, 64)
    assert np.max(np.abs(p.at(x).imag)) < 1e-12
    # seeded reproducibility
    q = random_real_poly(6, np.random.default_rng(0))
    assert_allclose(p.coeffs, q.coeffs, rtol=0, atol=0)


# ----------------------------------------------------------------------------
# assumption probes
# ----------------------------------------------------------------------------


def test_probe_lagrange_l2_constants_are_unity():
    """Grid Parseval: interpolation is an isometry from node data to L2."""
    rep = probe_assumptions("lagrange", L2, 1, (4, 8, 16), trials=20, seed=0)
    assert_allclose(rep.constants["K1"], 1.0, rtol=1e-9)
    assert_allclose(rep.constants["K2"], 1.0, rtol=1e-9)
    # interpolation reproduces polynomials: the K3 numerators are pure noise
    assert rep.constants["K3"] < 1e-9
    for row in rep.per_n:
        assert_allclose(row["k1_sup"], 1.0, rtol=1e-9)


def test_probe_fejer_l2_jackson_exact():
    """1 - triangle = |k|/n makes the s=1 L2 ratio exactly 1 for every T."""
    rep = probe_assumptions("fejer", L2, 1, (8, 16), trials=15, seed=1)
    assert_allclose(rep.constants["K3"], 1.0, rtol=1e-9)
    assert_allclose(rep.constants["K4"], 1.0, rtol=1e-9)


def test_probe_br1_residual_is_scaled_second_derivative():
    """1 - (1-xi^2) = xi^2: the s=2 residual is -T''/n^2 pointwise, any norm."""
    for spec in (L1, L2):
        rep = probe_assumptions("br:1", spec, 2, (8, 16), trials=10, seed=2)
        assert_allclose(rep.constants["K3"], 1.0, rtol=1e-8)
        assert_allclose(rep.constants["K4"], 1.0, rtol=1e-8)


def test_probe_rejects_line_operator_and_bad_s():
    with pytest.raises(ValueError):
        probe_assumptions("wks", L2, 1, (8,))
    with pytest.raises(ValueError):
        probe_assumptions("fejer", L2, 0, (8,))


@pytest.mark.parametrize("trials", [0, -3])
def test_probes_reject_empty_ensembles(trials):
    """No trial would leave every constant at +-inf."""
    with pytest.raises(ValueError, match="trials"):
        probe_assumptions("fejer", L2, 1, (8,), trials=trials)
    with pytest.raises(ValueError, match="trials"):
        mz_probe(L2, "uniform", (8,), trials=trials)


def test_probe_report_fields():
    rep = probe_assumptions("fejer", L1, 1, (4, 8), trials=5, seed=3)
    assert rep.trials == 5 and rep.seed == 3
    assert rep.n_range == (4, 8)
    assert rep.spec_id == "l1"
    assert {"K1", "K2", "K3", "K4"} <= set(rep.constants)


def test_probe_rows_do_not_depend_on_the_other_scales():
    """Each scale draws from ``SeedSequence([seed, tag, n])``: its row is the
    same whether it runs alone or after other scales, which share memoized
    partitions and weighted masses."""
    spec = parse_spec("wlp:2:-0.5")
    probes = (
        lambda ns: probe_assumptions("fejer", spec, 1, ns, trials=8, seed=5),
        lambda ns: mz_probe(spec, "jittered", ns, trials=8, seed=5),
    )
    for probe in probes:
        together = probe((4, 8, 16)).per_n
        assert [row["n"] for row in together] == [4, 8, 16]
        for row in together:
            assert probe((row["n"],)).per_n == [row]


# ----------------------------------------------------------------------------
# MZ probes
# ----------------------------------------------------------------------------


def test_mz_uniform_l2_is_parseval():
    rep = mz_probe(L2, "uniform", (4, 8, 16), trials=20, seed=0)
    assert_allclose(rep.constants["MZ_upper"], 1.0, rtol=1e-11)
    assert_allclose(rep.constants["MZ_lower"], 1.0, rtol=1e-11)


def test_mz_uniform_l4_two_sided():
    rep = mz_probe(parse_spec("lp:4"), "uniform", (4, 8, 16), trials=25, seed=0)
    assert rep.constants["MZ_upper"] < 10
    assert rep.constants["MZ_lower"] > 0.05


def test_mz_jittered_stays_comparable():
    rep = mz_probe(parse_spec("lp:4"), "jittered", (8, 16), trials=25, seed=0,
                   jitter=0.4)
    print("jittered L4 ratios:", rep.constants)
    assert rep.constants["MZ_upper"] < 10
    assert rep.constants["MZ_lower"] > 0.05


def test_mz_bernstein_sharpness_l2():
    """||T'||_2 <= n||T||_2 with near-equality once sin(nx) shows up."""
    rep = mz_probe(L2, "uniform", (8,), trials=40, seed=0)
    b = rep.constants["Bernstein"]
    assert b <= 1.0 + 1e-9
    assert b > 0.5


def test_mz_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        mz_probe(L2, "chebyshev", (8,))


# ----------------------------------------------------------------------------
# equivalence tables
# ----------------------------------------------------------------------------


def test_equivalence_error_vs_modulus_square():
    fns = {"square": C["square"], "cusp15": C["cusp15"]}
    table = equivalence_study("error_vs_modulus", fns, "br:1", L2, r=1, s=2,
                              n_range=(8, 16, 32))
    assert len(table.rows) == 6
    assert table.min_ratio > 0
    assert table.spread < 50
    labels = [(r["f_label"], r["n"]) for r in table.rows]
    assert labels == sorted(labels)
    print("modulus study spread:", table.spread)


def test_equivalence_reproduction_rows_are_excluded():
    """A polynomial member interpolates exactly; its rows leave the summary."""
    fns = {"smooth": C["smooth"]}
    table = equivalence_study("error_vs_modulus", fns, "lagrange", L2, 1, 1,
                              n_range=(4, 8))
    assert len(table.rows) == 0
    assert len(table.excluded) == 2
    assert not table.violations


@pytest.mark.parametrize("study", ["modulus", "kfunc", "realization"])
def test_equivalence_constant_rows_are_below_both_floors(study):
    """f = 1 is reproduced exactly and has nothing to measure: every row
    leaves the table as "both sides below 1e-12", none as a violation."""
    one = latsamp.PointwiseFunction("one", lambda x: np.ones_like(np.asarray(x, dtype=float)))
    table = equivalence_study(study, {"one": one}, "lagrange", L2, 1, 2, (4, 8))
    assert table.rows == []
    assert [(row["n"], row["note"]) for row in table.excluded] == [
        (4, "both sides below 1e-12"), (8, "both sides below 1e-12")]
    assert not table.violations


def test_zero_rhs_rule_fires(monkeypatch, tmp_path, capsys):
    """A row whose modulus is exactly 0 while its error is not is excluded as
    "rhs zero", counted as a violation, and fails the CLI's
    ``zero_rhs_rows_clean`` assertion (exit 2)."""
    import json

    from latsamp import cli, harness
    from latsamp.smoothness import ModulusReport

    real = harness.semidiscrete_modulus

    def zero_on_square(cache, n, r, s, spec, **kwargs):
        if cache.fn.label != "square":
            return real(cache, n, r, s, spec, **kwargs)
        return ModulusReport(continuous=0.0, discrete=0.0, n=n, r=r, s=s,
                             h=np.pi / (2 * n + 1), spec_id=spec.id)

    monkeypatch.setattr(harness, "semidiscrete_modulus", zero_on_square)
    fns = {"square": C["square"], "sawtooth": C["sawtooth"]}
    table = equivalence_study("error_vs_modulus", fns, "lagrange", L2, 1, 2, (8,))
    assert [(row["f_label"], row["note"]) for row in table.excluded] == [("square", "rhs zero")]
    assert [row["f_label"] for row in table.violations] == ["square"]
    assert [row["f_label"] for row in table.rows] == ["sawtooth"]

    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("functions = square,sawtooth\n")
    out = tmp_path / "o"
    assert cli.main(["equiv", "--seed", "7", "--n", "8", "--config", str(cfgfile),
                     "--out", str(out)]) == 2
    assert "FAIL zero_rhs_rows_clean" in capsys.readouterr().out
    with open(out / "summary.json", encoding="utf-8") as fh:
        failed = [a["name"] for a in json.load(fh)["assertions"] if not a["passed"]]
    assert failed == ["zero_rhs_rows_clean"]


def test_equivalence_alias_names():
    fns = {"sawtooth": C["sawtooth"]}
    a = equivalence_study("modulus", fns, "br:1", L2, 1, 2, (8,))
    b = equivalence_study("error_vs_modulus", fns, "br:1", L2, 1, 2, (8,))
    assert_allclose(a.rows[0]["ratio"], b.rows[0]["ratio"], rtol=0)


def test_equivalence_kfunc_and_realization_studies():
    fns = {"cusp15": C["cusp15"]}
    for study in ("error_vs_kfunc", "error_vs_realization"):
        table = equivalence_study(study, fns, "br:1", L2, 1, 2, (8, 16))
        assert table.rows, study
        assert np.isfinite(table.spread)
        assert table.min_ratio > 0


def test_equivalence_realization_applies_the_operator_once_per_task(monkeypatch):
    """A realization row takes its lhs from the realization report, whose one
    ``G_n f`` also gives the derivative term: one ``apply_operator`` per task."""
    from latsamp import operators, smoothness

    calls = Counter()
    apply_operator = operators.apply_operator

    def counting(op, f, n):
        calls[n] += 1
        return apply_operator(op, f, n)

    for module in (operators, smoothness):
        monkeypatch.setattr(module, "apply_operator", counting)
    fns = {"cusp15": C["cusp15"], "square": C["square"]}
    table = equivalence_study("error_vs_realization", fns, "br:1", L2, 1, 2, (8, 16))
    assert table.rows
    assert calls == {8: 2, 16: 2}


def test_equivalence_br_riesz_guard():
    fns = {"square": C["square"]}
    with pytest.raises(ValueError):
        equivalence_study("br_riesz", fns, "fejer", L2, 1, 2, (8,))
    table = equivalence_study("br_riesz", fns, "br:1", L2, 1, 2, (8, 16))
    assert table.rows


def test_equivalence_br_fejer_guards():
    fns = {"square": C["square"]}
    with pytest.raises(ValueError):
        equivalence_study("br_fejer", fns, "br:1", L2, 1, 1, (8,))
    # L1 endpoint: the converse needs reflexivity; the study declines politely
    table = equivalence_study("br_fejer", fns, "fejer", L1, 1, 1, (8,))
    assert not table.rows
    assert any("precondition" in note for note in table.notes)
    # and runs on a reflexive space
    ok = equivalence_study("br_fejer", fns, "fejer", L2, 1, 1, (8, 16))
    assert ok.rows


def test_equivalence_unknown_study():
    with pytest.raises(ValueError):
        equivalence_study("mystery", {}, "br:1", L2, 1, 2, (8,))
    assert "error_vs_modulus" in EQUIV_STUDIES


# ----------------------------------------------------------------------------
# rate fits
# ----------------------------------------------------------------------------


def test_fit_loglog_recovers_power_law():
    ns = (8, 16, 32, 64, 128)
    vals = [3.0 * n ** -1.5 for n in ns]
    fit = fit_loglog(ns, vals)
    assert_allclose(fit.slope, -1.5, atol=1e-10)
    assert_allclose(np.exp(fit.intercept), 3.0, rtol=1e-9)
    assert fit.residual < 1e-10
    assert not fit.exact


def test_fit_loglog_flags_floored_sequences():
    fit = fit_loglog((8, 16, 32, 64, 128), [1e-15] * 5)
    assert fit.exact
    assert fit.slope == 0.0


def test_fit_loglog_needs_five_points():
    with pytest.raises(ValueError):
        fit_loglog((8, 16, 32), [1.0, 0.5, 0.25])


def test_rate_study_square_lagrange():
    err_fit, mod_fit = rate_study(C["square"], "lagrange", L2,
                                  (16, 32, 64, 128, 256), r=1, s=2)
    print("square err slope:", err_fit.slope, "mod slope:", mod_fit.slope)
    assert abs(err_fit.slope + 0.5) < 0.1
    assert abs(mod_fit.slope + 0.5) < 0.15


def test_rate_study_fits_the_modulus_study_totals():
    """``rate_study`` maps the ``error_vs_modulus`` task, so the values it fits
    are that table's lhs and rhs, summed in the same order."""
    ns = (8, 16, 32, 64, 128)
    err_fit, mod_fit = rate_study(C["cusp15"], "fejer", L2, ns, r=1, s=2)
    table = equivalence_study("error_vs_modulus", {"cusp15": C["cusp15"]}, "fejer",
                              L2, 1, 2, ns)
    assert err_fit.values == tuple(row["lhs"] for row in table.rows)
    assert mod_fit.values == tuple(row["rhs"] for row in table.rows)


# ----------------------------------------------------------------------------
# vanishing-coefficient counterexample
# ----------------------------------------------------------------------------


def test_smooth_bump_profile():
    u = np.array([-0.6, -0.5, 0.0, 0.49, 0.5, 2.0])
    v = smooth_bump(u)
    assert v[0] == 0.0 and v[1] == 0.0 and v[4] == 0.0 and v[5] == 0.0
    assert v[2] == 1.0
    assert 0 < v[3] < 1e-8  # flat tangency at the edge


def test_bump_train_sits_on_nodes():
    n = 6
    width = np.pi / (2 * n + 1)
    f = bump_train(n, k0=n, width=width)
    t = 2 * np.pi * np.arange(2 * n + 1) / (2 * n + 1)
    vals = f(t)
    assert_allclose(np.abs(vals), 1.0, atol=1e-12)  # bump peak at every node
    # supports are disjoint: midpoints between nodes see nothing
    mid = t + np.pi / (2 * n + 1)
    assert np.max(np.abs(f(mid))) < 1e-15


def test_counterexample_discrete_stays_continuous_collapses():
    table = counterexample_run((8, 16, 32))
    assert table.window == "fejer"
    conts = [row["continuous_error"] for row in table.rows]
    for row in table.rows:
        assert_allclose(row["discrete_error"], 1.0, atol=1e-9)
        assert row["coeff_max"] < 1e-12
    assert conts[0] > conts[1] > conts[2] > 0
    assert table.final_ratio > table.rows[0]["ratio"]
    print("counterexample ratios:", [f"{r['ratio']:.1f}" for r in table.rows])


def test_counterexample_orlicz_route():
    """In the t log(1+t) norm the discrete error is the norm of the constant
    1, the lambda with (1/lambda) log(1 + 1/lambda) = 1: constant in n, not 1."""
    one = 1.0 / brentq(lambda t: t * np.log1p(t) - 1.0, 0.5, 2.0, xtol=1e-15)
    table = counterexample_run((8, 16), spec=parse_spec("orlicz:llogl"))
    for row in table.rows:
        assert_allclose(row["discrete_error"], one, rtol=1e-12)
        assert row["continuous_error"] > 0
    assert table.rows[0]["continuous_error"] > table.rows[1]["continuous_error"]


def test_counterexample_rejects_weighted_and_open_windows():
    with pytest.raises(ValueError):
        counterexample_run((8,), spec=parse_spec("wlp:2:0.5"))
    with pytest.raises(ValueError):
        counterexample_run((8,), window="lagrange")
    # the norm has one slot, ``spec``
    with pytest.raises(TypeError):
        counterexample_run((8,), p=2.0)


# ----------------------------------------------------------------------------
# one-sided study and convergence verdicts
# ----------------------------------------------------------------------------


def test_onesided_study_rows():
    rows = onesided_study({"square": C["square"]}, (4, 8), besov_cap=32)
    assert len(rows) == 2
    for row in rows:
        assert not row["excluded"]
        assert row["onesided"] >= row["error"] - 1e-6
        assert row["ratio_onesided"] <= 1.0 + 1e-9
        assert row["besov_truncated"]  # the square wave sum diverges
        assert row["lp_converged"]


@pytest.mark.parametrize("cap", [64, 256])
def test_onesided_study_computes_each_level_once(monkeypatch, cap):
    """Rows equal, bit for bit, those built task by task on fresh caches, while
    each ``E_d`` runs once per function and each cache is built once per
    function and resolution (cap 256 takes E_256 on a finer cache)."""
    fns = {label: C[label] for label in ("sine", "square", "sawtooth")}
    op = parse_operator("lagrange")
    expected = []
    for label, f in fns.items():
        for n in (4, 8, 16):
            cache = build_cache(f, n_scale=max(2 * n, 8))
            bs = besov_sum(cache, n, L1, max_degree=cap)
            expected.append((label, n, approx_error(cache, op, n, L1).continuous,
                             one_sided_best(f, n, L1).value, bs.value, bs.truncated))
    levels, builds = Counter(), Counter()
    best, build = bestapprox.best_approx, harness.build_cache

    def counted_best(cache, n, *args, **kwargs):
        levels[cache.fn.label, n] += 1
        return best(cache, n, *args, **kwargs)

    def counted_build(f, **kwargs):
        cache = build(f, **kwargs)
        builds[f.label, cache.resolution] += 1
        return cache

    monkeypatch.setattr(bestapprox, "best_approx", counted_best)
    for module in (harness, bestapprox):
        monkeypatch.setattr(module, "build_cache", counted_build)
    rows = onesided_study(fns, (4, 8, 16), besov_cap=cap)
    assert [(r["f_label"], r["n"], r["error"], r["onesided"], r["besov"], r["besov_truncated"])
            for r in rows] == sorted(expected)
    assert levels and set(levels.values()) == {1}
    assert set(builds.values()) == {1}
    assert (("square", 8192) in builds) == (cap == 256)


def test_onesided_study_excludes_members():
    rows = onesided_study({"sine": C["sine"]}, (4,), besov_cap=32)
    assert rows[0]["excluded"]
    assert np.isnan(rows[0]["ratio_onesided"])


def test_convergence_criterion_agreement():
    v = convergence_criterion(C["cusp15"], "br:1", L2, r=1, n_range=(8, 32, 128))
    assert v.error_converges and v.modulus_converges and v.agree
    w = convergence_criterion(C["smooth"], "lagrange", L2, r=1, n_range=(4, 16))
    assert w.error_converges  # reproduced exactly: error at the floor
    assert w.agree


def test_convergence_needs_two_scales():
    with pytest.raises(ValueError):
        convergence_criterion(C["sine"], "lagrange", L2, 1, (8,))
