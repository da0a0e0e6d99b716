"""End-to-end acceptance battery.

Each test exercises one advertised guarantee of the library at desk scale,
prints a single ACCEPTANCE verdict line, and enforces the stated runtime
budget where one exists.  Tolerances here are contractual -- do not loosen
them to make a failing build green.
"""
import time

import numpy as np

from latsamp.bestapprox import best_approx, lemder_check, one_sided_best
from latsamp.harness import (counterexample_run, equivalence_study, mz_probe,
                             probe_assumptions, random_real_poly, rate_study)
from latsamp.model import PointwiseFunction, build_cache, corpus
from latsamp.norms import dilation_norm, parse_spec
from latsamp.operators import bandlimited_signal, lagrange, quasi_interp, wks
from latsamp.steklov import multiplier, steklov_values
from latsamp.trigpoly import br_window, dirichlet_window, fejer_window, kernel_eval

SEED = 20260823
DYADIC = (8, 16, 32, 64, 128, 256)

FNS = corpus()


def _verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {tag}  {detail}")
    return ok


# Assumption-probe reports are shared between the Jackson and converse tests
# so the ensemble is generated once.
_PROBE_REPORTS = {}


def _probe_report(op_id, s, spec_id):
    key = (op_id, s, spec_id)
    if key not in _PROBE_REPORTS:
        _PROBE_REPORTS[key] = probe_assumptions(
            op_id, parse_spec(spec_id), s, DYADIC, trials=50, seed=SEED)
    return _PROBE_REPORTS[key]


def test_01_multiplier_vs_quadrature_on_pure_frequencies():
    # Both Steklov evaluation routes on e^{ikx} for every |k| <= 64 and all
    # three window widths.  The probes have unit amplitude, so the absolute
    # deviation below *is* the deviation relative to the input scale; a
    # literal ratio against the multiplier output would divide by zero at the
    # width/frequency pairs where the average annihilates the mode exactly
    # (k*h = 2*pi*m, e.g. k = 18, 36, 54 at h = pi/9).
    t0 = time.perf_counter()
    probe = np.linspace(-np.pi, np.pi, 257)
    worst = 0.0
    for k in range(-64, 65):
        f = PointwiseFunction(label=f"mode{k}",
                              evaluator=lambda x, k=k: np.exp(1j * k * x))
        cache = build_cache(f, n_scale=abs(k) if k else None)
        for h in (np.pi / 9, np.pi / 33, np.pi / 129):
            for centered in (True, False):
                m = multiplier(h, np.array([k]), centered=centered)[0]
                quad = steklov_values(cache, h, probe, centered=centered)
                dev = np.max(np.abs(quad - m * np.exp(1j * k * probe)))
                worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _verdict(1, "steklov-multiplier-exactness", ok,
             f"max_dev={worst:.3e} time={elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_02_interpolation_reproduces_polynomials():
    rng = np.random.default_rng(SEED)
    grid = np.linspace(-np.pi, np.pi, 513)
    dwin = dirichlet_window()
    t0 = time.perf_counter()
    worst_repro = 0.0
    worst_dirichlet = 0.0
    for n in (8, 32, 128):
        for _ in range(100):
            T = random_real_poly(n, rng)
            L = lagrange(T, n)
            worst_repro = max(worst_repro,
                              float(np.max(np.abs(L.at(grid) - T.at(grid)))))
            Q = quasi_interp(T, n, dwin)
            worst_dirichlet = max(worst_dirichlet,
                                  float(np.max(np.abs(Q.at(grid) - L.at(grid)))))
    elapsed = time.perf_counter() - t0
    ok = worst_repro <= 1e-9 and worst_dirichlet <= 1e-9 and elapsed < 10.0
    _verdict(2, "interpolation-reproduction", ok,
             f"repro={worst_repro:.3e} flat-window={worst_dirichlet:.3e} "
             f"time={elapsed:.2f}s")
    assert worst_repro <= 1e-9
    assert worst_dirichlet <= 1e-9
    assert elapsed < 10.0


def test_03_windowed_interpolant_is_kernel_convolution():
    # Oracle: T * phi_n by the uniform M-point quadrature with M = 4n + 9.
    # The integrand has trig degree 2n < M, where that rule is exact, so the
    # only error left is roundoff.
    rng = np.random.default_rng(SEED + 3)
    xs = np.linspace(-np.pi, np.pi, 129)
    worst = 0.0
    for win in (fejer_window(), br_window(1.0)):
        for n in (8, 16, 32, 64):
            M = 4 * n + 9
            ts = -np.pi + 2.0 * np.pi * np.arange(M) / M
            kernel = kernel_eval(win, n, xs[:, None] - ts[None, :])
            for _ in range(50):
                T = random_real_poly(n, rng)
                conv = (kernel @ T.at(ts)) / M
                qv = quasi_interp(T, n, win).at(xs)
                worst = max(worst, float(np.max(np.abs(qv - conv))))
    ok = worst <= 1e-8
    _verdict(3, "window-convolution-identity", ok, f"max_dev={worst:.3e}")
    assert worst <= 1e-8


def test_04_discrete_continuous_norm_comparability():
    t0 = time.perf_counter()
    reports = {}
    for spec_id, scheme in (("l2", "uniform"), ("lp:1.5", "uniform"),
                            ("lp:4", "uniform"), ("l2", "jittered"),
                            ("lp:4", "jittered")):
        reports[(spec_id, scheme)] = mz_probe(parse_spec(spec_id), scheme,
                                              DYADIC, trials=200, seed=SEED)
    elapsed = time.perf_counter() - t0

    # uniform nodes in L2: grid Parseval makes every ratio 1 to rounding
    parseval = reports[("l2", "uniform")]
    dev = max(max(abs(row["mz_sup"] - 1.0), abs(row["mz_inf"] - 1.0))
              for row in parseval.per_n)
    sup_caps = {key: reports[key].constants["MZ_upper"]
                for key in (("lp:4", "uniform"), ("l2", "jittered"),
                            ("lp:4", "jittered"))}
    inf_floors = {p: reports[(p, "uniform")].constants["MZ_lower"]
                  for p in ("lp:1.5", "l2", "lp:4")}

    ok = (dev <= 1e-10 and all(v < 10.0 for v in sup_caps.values())
          and all(v > 0.05 for v in inf_floors.values()) and elapsed < 60.0)
    _verdict(4, "mz-norm-comparability", ok,
             f"parseval_dev={dev:.2e} sup_max={max(sup_caps.values()):.3f} "
             f"inf_min={min(inf_floors.values()):.3f} time={elapsed:.1f}s")
    assert dev <= 1e-10
    for key, v in sup_caps.items():
        assert v < 10.0, (key, v)
    for p, v in inf_floors.items():
        assert v > 0.05, (p, v)
    assert elapsed < 60.0


def test_05_direct_error_bound_is_uniform_in_n():
    t0 = time.perf_counter()
    spreads = {}
    for op_id, s in (("fejer", 1), ("br:1", 2)):
        for spec_id in ("l1", "l2"):
            rep = _probe_report(op_id, s, spec_id)
            sups = [row["k3_sup"] for row in rep.per_n]
            assert all(np.isfinite(v) and v > 0 for v in sups)
            spreads[(op_id, spec_id)] = max(sups) / min(sups)
    elapsed = time.perf_counter() - t0
    worst = max(spreads.values())
    ok = worst <= 4.0 and elapsed < 120.0
    _verdict(5, "jackson-ratio-uniformity", ok,
             f"max_spread={worst:.3f} time={elapsed:.1f}s")
    for key, v in spreads.items():
        assert v <= 4.0, (key, v)
    assert elapsed < 120.0


def test_06_lower_error_bound_stays_positive():
    floors = {}
    spreads = {}
    for op_id, s, spec_id in (("fejer", 1, "l2"), ("br:1", 2, "l1"),
                              ("br:1", 2, "l2")):
        rep = _probe_report(op_id, s, spec_id)
        infs = [row["k4_inf"] for row in rep.per_n]
        floors[(op_id, spec_id)] = min(infs)
        spreads[(op_id, spec_id)] = max(infs) / min(infs)
    ok = all(v > 0 for v in floors.values()) and max(spreads.values()) <= 4.0
    _verdict(6, "converse-ratio-floor", ok,
             f"min_inf={min(floors.values()):.4f} "
             f"max_spread={max(spreads.values()):.3f}")
    for key, v in floors.items():
        assert v > 0.0, (key, v)
    for key, v in spreads.items():
        assert v <= 4.0, (key, v)


def test_07_error_modulus_equivalence_over_corpus():
    four = {k: FNS[k] for k in ("square", "cusp05", "cusp15", "sawtooth")}
    t0 = time.perf_counter()
    tables = {}
    for spec_id in ("l2", "wlp:2:0.5"):
        tables[spec_id] = equivalence_study("br_riesz", four, "br:1",
                                            parse_spec(spec_id), r=1, s=2,
                                            n_range=DYADIC)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    for spec_id, table in tables.items():
        print(f"  {spec_id}: rows={len(table.rows)} min={table.min_ratio:.4f} "
              f"spread={table.spread:.2f} violations={len(table.violations)}")
        ok = ok and (len(table.rows) == 24 and table.min_ratio > 0.0
                     and table.spread <= 400.0 and not table.violations)
    _verdict(7, "two-sided-equivalence", ok, f"time={elapsed:.1f}s")
    for spec_id, table in tables.items():
        assert len(table.rows) == 24, spec_id
        assert table.min_ratio > 0.0, spec_id
        assert table.spread <= 400.0, (spec_id, table.spread)
        assert not table.violations, (spec_id, table.violations)
    assert elapsed < 600.0


def test_08_decay_rates_match_theory():
    ns = (16, 32, 64, 128, 256, 512)
    spec = parse_spec("l2")
    t0 = time.perf_counter()
    err_sq, _ = rate_study(FNS["square"], "lagrange", spec, ns, r=1, s=1)
    err_cusp, mod_cusp = rate_study(FNS["cusp15"], "lagrange", spec, ns,
                                    r=1, s=2)
    elapsed = time.perf_counter() - t0
    slope_dev = abs(err_sq.slope + 0.5)
    match_dev = abs(err_cusp.slope - mod_cusp.slope)
    ok = slope_dev <= 0.1 and match_dev <= 0.15 and elapsed < 300.0
    _verdict(8, "rate-reproduction", ok,
             f"square_slope={err_sq.slope:.4f} cusp_match_dev={match_dev:.4f} "
             f"time={elapsed:.1f}s")
    assert slope_dev <= 0.1, err_sq.slope
    assert match_dev <= 0.15, (err_cusp.slope, mod_cusp.slope)
    assert elapsed < 300.0


def test_09_node_data_alone_cannot_control_error():
    t0 = time.perf_counter()
    table = counterexample_run((8, 16, 32, 64, 128))
    elapsed = time.perf_counter() - t0
    disc = [row["discrete_error"] for row in table.rows]
    cont = [row["continuous_error"] for row in table.rows]
    disc_dev = max(abs(d - 1.0) for d in disc)
    monotone = all(b < a for a, b in zip(cont, cont[1:]))
    ok = (disc_dev <= 1e-6 and monotone and table.final_ratio > 100.0
          and table.max_coefficient <= 1e-9 and elapsed < 60.0)
    _verdict(9, "vanishing-coefficient-counterexample", ok,
             f"disc_dev={disc_dev:.2e} final_ratio={table.final_ratio:.0f} "
             f"coeff={table.max_coefficient:.2e} time={elapsed:.1f}s")
    assert disc_dev <= 1e-6
    assert monotone, cont
    assert table.final_ratio > 100.0
    assert table.max_coefficient <= 1e-9
    assert elapsed < 60.0


def test_10_one_sided_gap_dominates_and_shrinks():
    spec = parse_spec("l1")
    ns = (4, 8, 16, 32)
    t0 = time.perf_counter()
    gaps = []
    for n in ns:
        os = one_sided_best(FNS["square"], n, spec)
        eb = best_approx(FNS["square"], n, spec, method="refined").value
        assert os.value >= eb - 1e-6, (n, os.value, eb)
        gaps.append(os.value)
    monotone = all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))

    dsine = PointwiseFunction("dsine", np.cos)
    ratios = [lemder_check(FNS["sine"], n, 1, spec, dsine).ratio for n in ns]
    finite = all(np.isfinite(v) for v in ratios)
    if max(ratios) <= 1e-9:
        # sin x is itself a polynomial of every tested degree, so both sides
        # of the derivative comparison vanish; bounded holds vacuously
        spread_ok = True
    else:
        pos = [v for v in ratios if v > 1e-9]
        spread_ok = max(pos) / min(pos) <= 8.0
    elapsed = time.perf_counter() - t0
    ok = monotone and finite and spread_ok and elapsed < 300.0
    _verdict(10, "one-sided-approximation", ok,
             f"gaps={['%.4f' % g for g in gaps]} ratios={ratios} "
             f"time={elapsed:.1f}s")
    assert monotone, gaps
    assert finite and spread_ok, ratios
    assert elapsed < 300.0


def test_11_cardinal_series_certified_reconstruction():
    sig = bandlimited_signal(8.0)  # band [-16, 16], margin below pi*sigma/2
    x = np.linspace(-4.0, 4.0, 1601)
    t0 = time.perf_counter()
    sups = {}
    certified = True
    for K in (256, 512):
        vals, bound = wks(sig, 32.0, K, x)
        err = np.abs(vals - sig(x))
        certified = certified and bool(np.all(np.isfinite(bound))
                                       and np.all(err <= bound))
        sups[K] = float(err.max())
    elapsed = time.perf_counter() - t0
    improves = sups[512] < sups[256]
    ok = certified and improves and elapsed < 30.0
    _verdict(11, "cardinal-series-bound", ok,
             f"sup256={sups[256]:.3e} sup512={sups[512]:.3e} "
             f"time={elapsed:.2f}s")
    assert certified
    assert improves, sups
    assert elapsed < 30.0


def test_12_dilation_norm_closed_forms():
    worst_orlicz = 0.0
    exact = True
    for p, spec_id in ((1.0, "l1"), (1.5, "lp:1.5"), (2.0, "l2"),
                       (4.0, "lp:4")):
        for r in (0.1, 0.25, 0.5, 0.9):
            exact = exact and dilation_norm(parse_spec(spec_id), r) == r ** (-1.0 / p)
    for p in (1.5, 2.0, 3.0):
        for r in (0.1, 0.25, 0.5, 0.9):
            value = dilation_norm(parse_spec(f"orlicz:power:{p:g}"), r)
            worst_orlicz = max(worst_orlicz, abs(value - r ** (-1.0 / p)))
    ok = exact and worst_orlicz <= 1e-8
    _verdict(12, "dilation-norms", ok,
             f"lebesgue_exact={exact} orlicz_dev={worst_orlicz:.2e}")
    assert exact
    assert worst_orlicz <= 1e-8
