"""Best approximation: projections, the refined routes, the one-sided LP, sums."""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.optimize import brentq, linprog, minimize_scalar

from latsamp import (
    PointwiseFunction,
    TrigPoly,
    best_approx,
    besov_sum,
    build_cache,
    corpus,
    lemder_check,
    norm,
    one_sided_best,
    parse_spec,
    poly_norm,
    subtract_poly,
)
from latsamp import bestapprox, norms
from latsamp.bestapprox import LP_MAX_DEGREE, LP_MAX_GRID, _real_basis_matrix
from latsamp.model import TWO_PI
from latsamp.norms import _cache_mass
from latsamp.trigpoly import _as_cache, _real_poly, fourier_coefficients, vp_mean

L1 = parse_spec("l1")
L2 = parse_spec("l2")
C = corpus()


def square_tail_l2(n):
    """Exact E_n(square)_2: the series has |c_k| = 2/(pi k) at odd k."""
    odd = np.arange(1, n + 1, 2, dtype=float)
    return float(np.sqrt((8 / np.pi ** 2) * (np.pi ** 2 / 8 - np.sum(odd ** -2))))


def sawtooth_tail_l2(n):
    """Exact E_n(sawtooth)_2 from |c_k| = 1/(2k)."""
    ks = np.arange(1, n + 1, dtype=float)
    return float(np.sqrt(0.5 * (np.pi ** 2 / 6 - np.sum(ks ** -2))))


# ----------------------------------------------------------------------------
# L2 projection
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("n,value", [
    (4, 0.315225723114),
    (8, 0.224504440230),
    (16, 0.159051853007),
])
def test_best_l2_square_frozen_values(n, value):
    res = best_approx(C["square"], n, L2)
    assert_allclose(res.value, value, atol=2e-10)
    assert_allclose(res.value, square_tail_l2(n), rtol=1e-10)
    assert res.poly.degree <= n


@pytest.mark.parametrize("n", [4, 8, 32])
def test_best_l2_sawtooth(n):
    res = best_approx(C["sawtooth"], n, L2)
    assert_allclose(res.value, sawtooth_tail_l2(n), rtol=1e-9)


def test_best_l2_projection_coefficients():
    """The optimal degree-n polynomial is the truncated Fourier series."""
    res = best_approx(C["square"], 5, L2)
    assert_allclose(res.poly.coeff(3), 2.0 / (3j * np.pi), atol=1e-10)
    assert abs(res.poly.coeff(2)) < 1e-10


def test_best_l2_zero_for_member():
    res = best_approx(C["sine"], 3, L2)
    assert res.value < 1e-9


def test_best_l2_optimality_against_perturbations():
    """Any perturbation of the projection does worse in L2."""
    f = C["cusp15"]
    n = 6
    res = best_approx(f, n, L2)
    cache = build_cache(f, n_scale=4 * n)
    rng = np.random.default_rng(0)
    for _ in range(8):
        bump = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        cand = TrigPoly(res.poly.coeffs + 1e-2 * bump)
        from latsamp import subtract_poly, norm
        worse = norm(subtract_poly(cache, cand), L2)
        assert worse >= res.value - 1e-12


def test_refined_never_worse_than_start():
    f = C["square"]
    for spec in (L1, parse_spec("lp:1.5")):
        base = best_approx(f, 6, spec, method="auto")
        ref = best_approx(f, 6, spec, method="refined")
        print(spec.id, "auto:", base.value, "refined:", ref.value)
        assert ref.value <= base.value + 1e-12


@pytest.mark.parametrize("spec_id", ["l1", "l2", "lp:1.5", "wlp:2:-0.5", "wlp:1:-0.5",
                                     "orlicz:llogl"])
def test_route_value_is_the_norm_of_its_residual(spec_id):
    """The node-minimizing refined routes (the LP for weighted L1 of real
    samples, IRLS for the other norms) report the norm ``norm`` gives their
    residual on the cache they minimized over.  Unweighted L1 takes the sign
    certificate, whose value is the integral E_6(square)_1 = 1/7 itself: the
    cache's quadrature of ``|r|`` crosses r's kinks, so it is not the bar."""
    spec = parse_spec(spec_id)
    cache = build_cache(C["square"], n_scale=12)
    res = best_approx(cache, 6, spec, method="refined")
    if spec_id == "l1":
        assert_allclose(res.value, 1.0 / 7.0, rtol=1e-13)
    else:
        assert_allclose(res.value, norm(subtract_poly(cache, res.poly), spec), rtol=1e-12)
    assert res.poly.degree == 6


def test_refined_value_is_the_norm_of_its_residual():
    """The refined value is the norm ``norm`` reports, weight included."""
    f = C["square"]
    spec = parse_spec("wlp:2:-0.5")
    cache = build_cache(f, n_scale=8)
    res = best_approx(cache, 4, spec, method="refined")
    assert_allclose(res.value, norm(subtract_poly(cache, res.poly), spec), rtol=1e-12)
    assert res.value <= best_approx(cache, 4, spec, method="vp").value


def test_best_approx_methods_and_validation():
    for method in ("magic", "projection"):
        with pytest.raises(ValueError):
            best_approx(C["sine"], 4, L2, method=method)
    res = best_approx(C["sine"], 4, L2, method="auto")
    assert res.method in ("l2-projection", "projection", "auto", "vp", "exact")
    assert np.isnan(res.gap)
    assert np.isnan(best_approx(C["square"], 4, L1, method="vp").gap)


def test_best_approx_monotone_in_degree():
    vals = [best_approx(C["cusp05"], n, L2).value for n in (2, 4, 8, 16)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------------
# refined best approximation: the L1 sign certificate, the L1 active-set LP
# and IRLS
# ----------------------------------------------------------------------------

# best_approx(..., method="refined") values of the coordinate descent that
# the two routes replaced, on the default caches
DESCENT_VALUES = [
    ("square", "l1", 6, 0.14285740204061037),
    ("square", "lp:1.5", 6, 0.20483278418213793),
    ("square", "wlp:2:-0.5", 4, 0.5006191635930317),
    ("sawtooth", "orlicz:llogl", 1, 0.4053240009652313),
]


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_l1_square_best_error_is_one_over_n_plus_one(n):
    """E_n(square)_1 = 1/(n+1) for even n, to rounding: the sign certificate
    reads the integral, not a quadrature of ``|f - T|``."""
    res = best_approx(C["square"], n, L1, method="refined")
    assert abs(res.value * (n + 1) - 1.0) <= 1e-12
    assert res.gap <= 1e-12


# E_n(f)_1 in closed form, from Markov's sign criterion with the corpus's
# normalisation (measure dx/2pi, square +-1, sawtooth (w - pi)/2)
L1_CLOSED_FORMS = {
    "square": lambda n: 1.0 / (2 * -(-n // 2) + 1),
    "sawtooth": lambda n: np.pi / (4 * (n + 1)),
}
CLOSED_FORM_DEGREES = (1, 2, 3, 4, 5, 6, 15, 16, 31, 32, 127, 128, 511, 512)


def counting_linprog(monkeypatch):
    """Route ``bestapprox.linprog`` through a counter; returns its call list."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(bestapprox, "linprog", counting)
    return calls


@pytest.mark.parametrize("n", CLOSED_FORM_DEGREES)
@pytest.mark.parametrize("label", sorted(L1_CLOSED_FORMS))
def test_l1_refined_is_the_closed_form(monkeypatch, label, n):
    """The refined L1 value is E_n itself at every degree tried, up to 512,
    within 1e-12 relative, with no LP and in under a second."""
    calls = counting_linprog(monkeypatch)
    start = time.perf_counter()
    res = best_approx(C[label], n, L1, method="refined")
    elapsed = time.perf_counter() - start
    assert calls == []
    assert res.method == "refined" and res.gap <= 1e-12 * res.value
    assert_allclose(res.value, L1_CLOSED_FORMS[label](n), rtol=1e-12, atol=0)
    assert elapsed < 1.0


def test_l1_refined_cusp_even_and_odd_degree_agree():
    """``cusp15`` is even and pi-periodic, so E_32 = E_33; the node LP had
    them 5.3e-6 apart."""
    e32, e33 = (best_approx(C["cusp15"], n, L1, method="refined") for n in (32, 33))
    assert e32.method == e33.method == "refined"
    assert_allclose(e32.value, e33.value, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [6, 33])
@pytest.mark.parametrize("label", ["cusp05", "cusp15"])
def test_l1_refined_cusp_matches_adaptive_quadrature(label, n):
    """The certified value is ``int |f - T| / 2pi`` for its own T, integrated
    by adaptive quadrature between the residual's sign changes, which are
    found by root bracketing on a fine grid."""
    res = best_approx(C[label], n, L1, method="refined")
    f, poly = C[label], res.poly

    def r(x):
        return float(f(x) - poly.at(x).real)

    grid = np.linspace(-np.pi, np.pi, 64 * (2 * n + 4) + 1)
    vals = np.array([r(x) for x in grid])
    ends = [grid[0]] + [brentq(r, a, b, xtol=1e-15)
                        for a, b, va, vb in zip(grid, grid[1:], vals, vals[1:])
                        if va * vb < 0] + [0.0, grid[-1]]
    ends = np.unique(ends)
    total = sum(quad(lambda x: abs(r(x)), a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(ends, ends[1:]))
    assert_allclose(res.value, total / TWO_PI, rtol=1e-12)


@pytest.mark.parametrize("label", ["square", "sawtooth", "cusp15"])
def test_l1_degree_zero_is_the_weighted_median(label):
    cache = build_cache(C[label], resolution=1024)
    mass = _cache_mass(cache, L1).ravel()
    f = cache.gl_values.real.ravel()
    order = np.argsort(f)
    cum = np.cumsum(mass[order])
    median = f[order][np.searchsorted(cum, 0.5 * cum[-1])]
    want = np.sum(mass * np.abs(f - median)) / TWO_PI
    res = best_approx(cache, 0, L1, method="refined")
    assert_allclose(res.value, want, rtol=1e-12)


def lp_route(source, n, spec=L1):
    """The L1 linear-program route, :func:`bestapprox._l1_active_set`, on the
    cache and from the start that ``best_approx`` gives it: ``(poly, value,
    gap)``."""
    cache = _as_cache(source, 2 * n)
    start = vp_mean(cache, n // 2) if n >= 2 else TrigPoly(fourier_coefficients(cache, n))
    start = TrigPoly(fourier_coefficients(start, n))
    return bestapprox._l1_active_set(cache, _cache_mass(cache, spec), start, spec)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("label", ["square", "sawtooth", "cusp15"])
def test_l1_active_set_matches_the_full_lp(label, n):
    """The dual LP with every node free, ``max sum u f`` subject to
    ``sum u phi = 0`` and ``|u| <= m``, reaches the value the active set
    certifies; its equality multipliers are the coefficients.  The route is
    called directly: ``best_approx`` certifies these f by their signs."""
    cache = build_cache(C[label], resolution=1024)
    mass = _cache_mass(cache, L1).ravel()
    f = cache.gl_values.real.ravel()
    basis = _real_basis_matrix(cache.gl_points().ravel(), n)
    full = linprog(-f, A_eq=basis.T, b_eq=np.zeros(2 * n + 1),
                   bounds=np.column_stack([-mass, mass]), method="highs",
                   options={"primal_feasibility_tolerance": 1e-10,
                            "dual_feasibility_tolerance": 1e-10})
    assert full.status == 0
    poly = _real_poly(-full.eqlin.marginals)
    oracle = norm(subtract_poly(cache, poly), L1)
    _, value, gap = lp_route(cache, n)
    assert_allclose(value, oracle, rtol=1e-12)
    assert_allclose(value, -full.fun / TWO_PI, rtol=1e-12)
    assert gap <= 1e-12


@pytest.mark.parametrize("label,n", [("square", 6), ("cusp15", 4), ("sawtooth", 2)])
def test_l1_active_set_doubles_until_feasible(monkeypatch, label, n):
    """With one free node per unknown the first LP is infeasible; the loop
    doubles the free nodes and reaches the default run's value and gap."""
    _, want, _ = lp_route(C[label], n)
    statuses = []

    def recording_linprog(*args, **kwargs):
        res = linprog(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(bestapprox, "LP_START_COLUMNS", 1)
    monkeypatch.setattr(bestapprox, "linprog", recording_linprog)
    _, value, gap = lp_route(C[label], n)
    assert statuses[0] == 2 and statuses[-1] == 0
    assert_allclose(value, want, rtol=1e-12)
    assert gap <= bestapprox.GAP_TOL


def test_l1_lp_route_fails_fast_above_its_cap():
    """Weighted L1 has only the LP route, which stops at LP_MAX_DEGREE: a
    ValueError naming the route and the cap, before any LP runs."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"linear-program route.*{LP_MAX_DEGREE}"):
        best_approx(C["square"], LP_MAX_DEGREE + 1, parse_spec("wlp:1:-0.5"), method="refined")
    assert time.perf_counter() - start < 1.0


POLY_MEMBERS = [
    ("sine", 5, "l1"), ("smooth", 4, "l1"),
    # the smoothed L1 start meets a residual with more exact zeros than free
    # nodes (smooth at n = 2, 3 after its first step), so its floor must not be 0
    ("sine", 1, "l1"), ("smooth", 2, "l1"), ("smooth", 3, "l1"), ("sine", 1, "wlp:1:-0.5"),
]


@pytest.mark.parametrize("label,n,spec_id", POLY_MEMBERS,
                         ids=[f"{f}-{n}" + ("" if s == "l1" else f"-{s}")
                              for f, n, s in POLY_MEMBERS])
def test_l1_of_a_polynomial_member_solves_no_lp(monkeypatch, label, n, spec_id):
    """A member of the space solves no LP (each would be infeasible on sign
    noise).  In L1 its interpolant at the canonical points is itself, and
    every node's residual lies in the sign check's rounding band.  In
    weighted L1, a start whose residual is at rounding level is its own
    certificate: u = 0 is dual feasible with objective 0, so the duality
    gap is the value itself."""
    calls = counting_linprog(monkeypatch)
    spec = parse_spec(spec_id)
    res = best_approx(C[label], n, spec, method="refined")
    assert calls == []
    tol = bestapprox.GAP_TOL * norm(build_cache(C[label], n_scale=2 * n), spec)
    assert res.value <= tol
    if spec.kind == "weighted":
        assert res.method == "refined-lp" and res.gap == res.value
    else:
        assert res.method == "refined" and res.gap <= tol
    # the square wave, outside the space, reads E_6 = 1/7 with no LP either
    res = best_approx(C["square"], 6, L1, method="refined")
    assert calls == []
    assert_allclose(res.value, 1.0 / 7.0, rtol=1e-14)
    # and in weighted L1 it still runs its LP
    assert best_approx(C["square"], 6, parse_spec("wlp:1:-0.5"),
                       method="refined").method == "refined-lp"
    assert calls


@pytest.mark.parametrize("spec_id", ["l1", "lp:1.5"])
def test_irls_pure_frequency_above_the_band(spec_id):
    """``exp(3ix)`` is complex, so it takes the IRLS route; its best
    approximation of degree 2 is 0, with error 1 in every Lebesgue norm."""
    e3 = TrigPoly(np.array([0, 0, 0, 0, 0, 0, 1], dtype=complex))
    res = best_approx(e3, 2, parse_spec(spec_id), method="refined")
    assert_allclose(res.value, 1.0, rtol=1e-12)


def test_l1_step_is_the_minimum_over_the_kinks():
    """The weighted-median step reaches the least ``sum m |r - t d|`` over
    every kink ``t = r_j / d_j``, with tied kinks and zero ``d_j`` mixed in."""
    rng = np.random.default_rng(21)
    for size in (1, 2, 3, 8, 51, 400):
        r = rng.standard_normal(size)
        d = rng.standard_normal(size)
        m = rng.uniform(0.1, 1.0, size)
        d[rng.random(size) < 0.2] = 0.0
        tied = rng.random(size) < 0.3
        r[tied] = 0.75 * d[tied]
        if size > 2:
            r[:2] = d[:2] = 0.0

        def cost(t):
            return float(np.sum(m * np.abs(r - t * d)))

        t = bestapprox._l1_step(r, d, m)
        kinks = r[d != 0.0] / d[d != 0.0]
        best = min((cost(k) for k in kinks), default=cost(0.0))
        assert cost(t) <= best * (1.0 + 1e-14), (size, t)
        assert t in kinks or not kinks.size


def test_line_search_brent_only_off_real_l1(monkeypatch):
    """A real L1 refined solve takes the exact step and never calls Brent;
    complex samples in L1 (``exp(3ix)``) still search with it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return minimize_scalar(*args, **kwargs)

    monkeypatch.setattr(bestapprox, "minimize_scalar", counting)
    res = best_approx(C["square"], 6, L1, method="refined")
    assert abs(res.value * 7 - 1.0) <= 1e-6
    assert not calls
    e3 = TrigPoly(np.array([0, 0, 0, 0, 0, 0, 1], dtype=complex))
    best_approx(e3, 2, L1, method="refined")
    assert calls


def test_llogl_line_search_warm_starts_luxemburg(monkeypatch):
    """Each Luxemburg solve of an ``orlicz:llogl`` refined solve starts at the
    previous one in its line search: at most 4 modular passes per solve on
    average, against about 7 from a cold start at ``max |r|``."""
    solves, passes = [], []
    luxemburg = norms.luxemburg

    def counting(modular, scale):
        solves.append(1)

        def counted(lam):
            passes.append(1)
            return modular(lam)

        return luxemburg(counted, scale)

    monkeypatch.setattr(norms, "luxemburg", counting)
    res = best_approx(C["sawtooth"], 1, parse_spec("orlicz:llogl"), method="refined")
    assert res.value <= DESCENT_VALUES[3][3] + 1e-12
    assert len(passes) <= 4 * len(solves)


@pytest.mark.parametrize("spec_id", ["lp:1.5", "lp:3", "wlp:2:-0.5", "orlicz:llogl"])
def test_irls_optimal_against_coefficient_perturbations(spec_id):
    spec = parse_spec(spec_id)
    n = 3
    cache = build_cache(C["sawtooth"], n_scale=2 * n)
    res = best_approx(cache, n, spec, method="refined")
    for k in range(2 * n + 1):
        for step in (1e-6, -1e-6, 1e-6j, -1e-6j):
            coeffs = res.poly.coeffs.copy()
            coeffs[k] += step
            moved = norm(subtract_poly(cache, TrigPoly(coeffs)), spec)
            assert moved >= res.value * (1.0 - 1e-12), (k, step)


@pytest.mark.parametrize("label,spec_id,n,descent", DESCENT_VALUES)
def test_refined_never_worse_than_coordinate_descent(label, spec_id, n, descent):
    res = best_approx(C[label], n, parse_spec(spec_id), method="refined")
    assert res.value <= descent + 1e-12


@pytest.mark.parametrize("spec_id", ["l1", "lp:1.5", "orlicz:llogl"])
def test_refined_reproduces_polynomials(spec_id):
    rng = np.random.default_rng(3)
    poly = TrigPoly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    for n in (4, 6):
        assert best_approx(poly, n, parse_spec(spec_id), method="refined").value <= 1e-14


# ----------------------------------------------------------------------------
# one-sided LP
# ----------------------------------------------------------------------------


def test_one_sided_sine_is_zero():
    res = one_sided_best(C["sine"], 4, L1)
    assert res.value == 0.0
    assert res.converged


def test_one_sided_sandwich_and_duality():
    f = C["square"]
    res = one_sided_best(f, 8, L1)
    assert res.converged
    assert res.value > 0.2  # jumps force a visible one-sided gap
    assert res.feasibility_gap <= 1e-7
    assert res.duality_gap <= 1e-8
    # the sandwich holds at the constraint grid (between grid points a jump
    # target can poke through; that is the nature of a discretized LP)
    m = res.grid_size
    y = -np.pi + 2 * np.pi * np.arange(m) / m
    assert np.min(res.upper.at(y).real - f(y)) > -1e-7
    assert np.min(f(y) - res.lower.at(y).real) > -1e-7


def test_one_sided_sandwich_off_grid_for_continuous_target():
    f = C["cusp15"]
    res = one_sided_best(f, 8, L1)
    x = np.linspace(-np.pi, np.pi, 907, endpoint=False)
    assert np.min(res.upper.at(x).real - f(x)) > -1e-3
    assert np.min(f(x) - res.lower.at(x).real) > -1e-3


def test_one_sided_objective_is_mean_gap():
    """value = c_0(U - L): the cell rule is exact for the polynomial gap."""
    res = one_sided_best(C["square"], 6, L1)
    gap = res.upper - res.lower
    assert_allclose(res.value, float(np.real(gap.coeff(0))), atol=1e-9)
    # ||gap||_1 >= mean(gap); off-grid dips keep the two within a hair
    n1 = poly_norm(gap, L1)
    assert n1 >= res.value - 1e-9
    assert_allclose(n1, res.value, rtol=1e-3)


def test_one_sided_dominates_unrestricted():
    for n in (4, 8, 16):
        os_res = one_sided_best(C["square"], n, L1)
        free = best_approx(C["square"], n, L1, method="refined")
        assert os_res.value >= free.value - 1e-6


def test_one_sided_monotone_in_degree():
    vals = [one_sided_best(C["sawtooth"], n, L1).value for n in (4, 8, 16)]
    print("sawtooth one-sided:", vals)
    assert vals[0] >= vals[1] >= vals[2] > 0


@pytest.mark.parametrize("scale,n", [(1e-6, 4), (1e-6, 8), (1e-8, 8)])
def test_one_sided_small_f_breaking_its_constraints_is_not_converged(scale, n):
    """HiGHS's feasibility tolerance is absolute, so for a small square wave
    it returns status 0 with envelopes that cross f by 7.5% to 150% of its
    amplitude; ``converged`` then reads False.  At scale 1 the same problems
    are converged, with gaps at rounding level."""
    sq = C["square"]
    small = PointwiseFunction("small-square", lambda x: scale * sq.evaluator(x),
                              breakpoints=sq.breakpoints)
    res = one_sided_best(small, n, L1)
    assert res.feasibility_gap > 0.05 * scale
    assert not res.converged
    res = one_sided_best(sq, n, L1)
    assert res.converged and res.feasibility_gap <= 1e-12


def test_one_sided_validation():
    with pytest.raises(ValueError):
        one_sided_best(C["square"], 8, L2)  # only the L1 norm is supported
    with pytest.raises(ValueError):
        one_sided_best(C["square"], 0, L1)
    with pytest.raises(ValueError):
        one_sided_best(C["square"], LP_MAX_DEGREE + 1, L1)
    with pytest.raises(ValueError):
        one_sided_best(C["square"], 8, L1, grid_size=4 * LP_MAX_GRID)


def test_one_sided_value_monotone_under_nested_grids():
    """Doubling a grid anchored at -pi only adds constraints, so the optimum
    can only go up; successive increments should taper."""
    vals = [one_sided_best(C["square"], 4, L1, grid_size=g).value
            for g in (128, 256, 512, 1024)]
    print("square n=4 one-sided by grid:", vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    diffs = np.diff(vals)
    assert diffs[-1] < diffs[0]
    assert diffs[-1] < 2e-2


# ----------------------------------------------------------------------------
# dilation-weighted error sums
# ----------------------------------------------------------------------------


def test_besov_sum_vanishes_for_polynomial_members():
    res = besov_sum(C["sine"], 2, L2)
    assert res.converged
    assert not res.truncated
    assert res.value < 1e-9


def test_besov_sum_square_truncates_at_cap():
    """E_n(square) ~ 1/n in L1 (no faster in ``t log(1+t)``) against the
    closed-form weights 2^nu of both norms: the sum diverges, and the degree
    cap reports that honestly."""
    for spec in (L1, parse_spec("orlicz:llogl")):
        res = besov_sum(C["square"], 8, spec, eps=1e-6, max_degree=64)
        assert res.truncated
        assert not res.converged
        assert res.value > 0
        assert len(res.terms) >= 2
        assert [row["dilation"] for row in res.terms] == [2.0 ** row["nu"] for row in res.terms]
        terms = [row["term"] for row in res.terms]
        print(spec.id, "square besov terms:", [f"{t:.3f}" for t in terms])
        # weights 2^nu outpace E ~ 1/n: the partial terms do not decay
        assert terms[-1] > 0.8 * terms[0]
        assert_allclose(res.value, np.sum(terms), rtol=1e-12)


def test_besov_sum_rejects_bad_eps():
    """``eps`` must be positive and finite, or the ``term < eps`` stop could
    never fire."""
    for eps in (np.nan, -1.0, 0.0, np.inf):
        with pytest.raises(ValueError, match="eps"):
            besov_sum(C["square"], 8, L1, eps=eps)


def test_besov_sum_converges_for_smooth_nonpolynomial():
    """E_n decays superpolynomially for an analytic target, beating 2^{nu/2}."""
    import latsamp
    f = latsamp.PointwiseFunction("esin", lambda x: np.exp(np.sin(x)),
                                  smoothness_hint=np.inf)
    res = besov_sum(f, 4, L2, eps=1e-8)
    assert res.converged
    assert not res.truncated
    assert res.value < 0.2


def test_besov_sum_memo_is_keyed_by_norm():
    """One cache shared by three norms: each sum equals its fresh-cache value,
    so no norm reads a level memoized for another; a spawned cache starts empty."""
    f = C["square"]
    shared = build_cache(f, n_scale=16)
    specs = [parse_spec(s) for s in ("l1", "lp:1.5", "orlicz:llogl")]
    for spec in specs:
        fresh = besov_sum(build_cache(f, n_scale=16), 8, spec, max_degree=64)
        assert besov_sum(shared, 8, spec, max_degree=64) == fresh
    assert {key for key in shared.best} == {(d, s) for s in specs for d in (8, 16, 32, 64)}
    assert shared.spawn(shared.gl_values).best == {}


def test_besov_sum_rejects_weighted():
    with pytest.raises(ValueError):
        besov_sum(C["square"], 8, parse_spec("wlp:2:0.5"))


def test_besov_sum_on_a_derived_cache_cannot_refine():
    """A level finer than a derived cache resolves needs a cache rebuilt from
    the function, which a residual does not have: a ``ValueError``."""
    resid = subtract_poly(build_cache(C["square"], n_scale=8), TrigPoly(np.ones(1)))
    with pytest.raises(ValueError, match="derived cache"):
        besov_sum(resid, 8, L1)


# ----------------------------------------------------------------------------
# one-sided vs derivative comparison
# ----------------------------------------------------------------------------


def _cusp15_derivative(x):
    s = np.sin(x)
    return 1.5 * np.abs(s) ** 0.5 * np.sign(s) * np.cos(x)


DSINE = PointwiseFunction("dsine", np.cos)
DCUSP15 = PointwiseFunction("dcusp15", _cusp15_derivative, breakpoints=(-np.pi, 0.0))


def test_lemder_degenerate_member():
    """sin lies in every T_n, so both sides vanish; the ratio reads 0."""
    res = lemder_check(C["sine"], 4, 1, L1, DSINE)
    assert res.onesided == 0.0
    assert res.ratio == 0.0


@pytest.mark.parametrize("n", [4, 8])
def test_lemder_cusp_finite_ratio(n):
    res = lemder_check(C["cusp15"], n, 1, L1, DCUSP15)
    assert np.isfinite(res.ratio)
    assert res.ratio > 0
    assert res.n == n and res.r == 1
    print(f"lemder cusp15 n={n}: ratio={res.ratio:.4f}")


def test_lemder_ratios_stay_bounded():
    ratios = [lemder_check(C["cusp15"], n, 1, L1, DCUSP15).ratio for n in (4, 8, 16)]
    finite = [r for r in ratios if r > 0]
    assert finite
    assert max(finite) / min(finite) < 8.0
