"""Spectral layer: TrigPoly, windows, sampling analysis, Fourier quadrature."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import latsamp as ls
from latsamp import (
    TrigPoly,
    analyze,
    apply_window,
    br_window,
    build_cache,
    corpus,
    dirichlet_window,
    fejer_window,
    fourier_coefficients,
    kernel_eval,
    subtract_poly,
    vp_mean,
)


def random_poly(n, rng, real=False):
    c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    if real:
        c = c + np.conj(c[::-1])
    return TrigPoly(c)


def test_eval_against_direct_sum():
    rng = np.random.default_rng(0)
    p = random_poly(5, rng)
    x = rng.uniform(-np.pi, np.pi, 64)
    direct = np.zeros_like(x, dtype=complex)
    for k, c in zip(p.freqs, p.coeffs):
        direct += c * np.exp(1j * k * x)
    assert_allclose(p.at(x), direct, atol=1e-12)


def test_degree_and_coeff_lookup():
    p = TrigPoly(np.array([1.0, 2.0, 3.0, 4.0, 5.0], dtype=complex))
    assert p.degree == 2
    assert list(p.freqs) == [-2, -1, 0, 1, 2]
    assert p.coeff(0) == 3.0
    assert p.coeff(-2) == 1.0
    assert p.coeff(7) == 0.0  # out of band


def test_arithmetic_consistency():
    rng = np.random.default_rng(1)
    p = random_poly(3, rng)
    q = random_poly(6, rng)
    x = np.linspace(-np.pi, np.pi, 50)
    assert_allclose((p + q).at(x), p.at(x) + q.at(x), atol=1e-12)
    assert_allclose((p - q).at(x), p.at(x) - q.at(x), atol=1e-12)
    assert_allclose((p * 2.5).at(x), 2.5 * p.at(x), atol=1e-12)


def test_derivative_multiplier():
    rng = np.random.default_rng(2)
    p = random_poly(4, rng)
    d = p.derivative(1)
    assert_allclose(d.coeffs, p.coeffs * 1j * p.freqs, atol=0)
    # second derivative by two routes
    assert_allclose(p.derivative(2).coeffs, d.derivative(1).coeffs, atol=0)
    assert TrigPoly(np.zeros(1)).derivative(1).degree == 0


def test_on_uniform_grid_matches_at():
    rng = np.random.default_rng(4)
    p = random_poly(7, rng)
    m = 40
    grid = -np.pi + 2 * np.pi * np.arange(m) / m
    assert_allclose(p.on_uniform_grid(m), p.at(grid), atol=1e-11)
    with pytest.raises(ValueError):
        p.on_uniform_grid(10)  # under-resolves degree 7


# ----------------------------------------------------------------------------
# analyze: the (2n+1)-point sampling transform and aliasing
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 4, 13])
def test_analyze_recovers_polynomial(n):
    rng = np.random.default_rng(5 + n)
    p = random_poly(n, rng)
    samples = p.sample_uniform(2 * n + 1)
    q = analyze(samples)
    assert q.degree == n
    assert_allclose(q.coeffs, p.coeffs, atol=1e-12)


def test_analyze_aliases_to_band():
    """e^{i(n+1)x} sampled on 2n+1 nodes is indistinguishable from e^{-inx}."""
    n = 6
    t = 2 * np.pi * np.arange(2 * n + 1) / (2 * n + 1)
    q = analyze(np.exp(1j * (n + 1) * t))
    want = np.zeros(2 * n + 1, dtype=complex)
    want[0] = 1.0  # frequency -n
    assert_allclose(q.coeffs, want, atol=1e-12)


def test_analyze_constant():
    q = analyze(np.full(9, 2.0))
    assert_allclose(q.coeff(0), 2.0, atol=1e-14)
    assert np.max(np.abs(q.coeffs[q.freqs != 0])) < 1e-14


# ----------------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------------


def test_window_profiles():
    xi = np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    assert_allclose(dirichlet_window()(xi), [0, 1, 1, 1, 1, 1, 0], atol=0)
    assert_allclose(fejer_window()(xi), [0, 0, 0.5, 1.0, 0.5, 0, 0], atol=1e-15)
    assert_allclose(br_window(1.0)(xi), [0, 0, 0.75, 1.0, 0.75, 0, 0], atol=1e-15)
    assert_allclose(br_window(2.0)(np.array([0.5])), [0.5625], atol=1e-15)


def test_br_window_validates_alpha():
    with pytest.raises(ValueError):
        br_window(0.0)
    with pytest.raises(ValueError):
        br_window(-1.0)


def test_apply_window_scales_coefficients():
    rng = np.random.default_rng(8)
    n = 5
    p = random_poly(n, rng)
    g = apply_window(p, fejer_window(), n)
    assert_allclose(g.coeffs, p.coeffs * (1 - np.abs(p.freqs) / n), atol=1e-15)
    # band-edge coefficients die under the triangle profile
    assert g.coeff(n) == 0.0 and g.coeff(-n) == 0.0


@pytest.mark.parametrize("n", [0, -2])
def test_kernel_eval_rejects_scale_below_one(n):
    """n = 0 once gave a silent all-zero kernel (0/0), n = -2 an IndexError."""
    with pytest.raises(ValueError, match="window scale n must be >= 1"):
        kernel_eval(dirichlet_window(), n, np.array([0.0, 1.0]))


def test_fejer_kernel_nonnegative_unit_mean():
    n = 12
    x = np.linspace(-np.pi, np.pi, 803)
    vals = kernel_eval(fejer_window(), n, x)
    assert np.max(np.abs(vals.imag)) < 1e-10
    assert vals.real.min() > -1e-10
    # mean over an oversampled uniform grid picks out the k=0 coefficient
    m = 4 * n + 3
    grid = 2 * np.pi * np.arange(m) / m
    assert_allclose(np.mean(kernel_eval(fejer_window(), n, grid)).real, 1.0, atol=1e-12)


def test_dirichlet_kernel_peak():
    n = 9
    assert_allclose(kernel_eval(dirichlet_window(), n, np.array([0.0]))[0],
                    2 * n + 1, atol=1e-10)


# ----------------------------------------------------------------------------
# Fourier coefficients by quadrature
# ----------------------------------------------------------------------------


def test_fourier_coefficients_square_wave():
    """The square wave has c_k = 2/(i pi k) at odd k, zero elsewhere."""
    sq = corpus()["square"]
    kmax = 9
    got = fourier_coefficients(sq, kmax)
    ks = np.arange(-kmax, kmax + 1)
    want = np.zeros_like(ks, dtype=complex)
    odd = ks % 2 != 0
    want[odd] = 2.0 / (1j * np.pi * ks[odd])
    assert_allclose(got, want, atol=1e-10)


def test_fourier_coefficients_pure_mode():
    f = corpus()["exp3"]
    got = fourier_coefficients(f, 5)
    want = np.zeros(11, dtype=complex)
    want[8] = 1.0  # frequency +3
    assert_allclose(got, want, atol=1e-12)


def test_fourier_coefficients_of_poly_exact():
    rng = np.random.default_rng(11)
    p = random_poly(6, rng)
    got = fourier_coefficients(p, 6)
    assert_allclose(got, p.coeffs, atol=1e-12)


@pytest.mark.parametrize("n", [2, 5])
def test_vp_mean_reproduces_low_degrees(n):
    rng = np.random.default_rng(21 + n)
    p = random_poly(n, rng)
    v = vp_mean(p, n)
    x = np.linspace(-np.pi, np.pi, 101)
    assert_allclose(v.at(x), p.at(x), atol=1e-10)
    assert v.degree <= 2 * n


def test_vp_mean_from_cache():
    f = corpus()["sine"]
    cache = build_cache(f, resolution=512)
    v = vp_mean(cache, 4)
    x = np.linspace(-np.pi, np.pi, 64)
    assert_allclose(v.at(x).real, np.sin(x), atol=1e-9)


def test_subtract_poly_residual():
    f = corpus()["smooth"]  # sin x + cos 2x, a degree-2 polynomial
    cache = build_cache(f, resolution=256)
    p = TrigPoly(fourier_coefficients(cache, 2))
    resid = subtract_poly(cache, p)
    assert abs(complex(resid.total)) < 1e-9
    x = np.linspace(-np.pi, np.pi, 40)
    assert np.max(np.abs(resid.values_at(x))) < 1e-7


def test_analyze_rejects_even_counts():
    with pytest.raises(ValueError):
        analyze(np.ones(8))


# ----------------------------------------------------------------------------
# Panel-FFT transforms against direct sums
# ----------------------------------------------------------------------------

_REF_CHUNK = 4096


def direct_synthesis(poly, x):
    """Reference ``sum c_k exp(ikx)`` at the points x, summed term by term."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.size, dtype=complex)
    for lo in range(0, flat.size, _REF_CHUNK):
        xc = flat[lo:lo + _REF_CHUNK]
        out[lo:lo + _REF_CHUNK] = np.exp(1j * np.outer(xc, poly.freqs)) @ poly.coeffs
    return out.reshape(x.shape)


def direct_analysis(cache, kmax):
    """Reference ``(1/2pi) sum w f exp(-ikx)`` over every cache node."""
    ks = np.arange(-kmax, kmax + 1)
    gx = cache.gl_points().ravel()
    gv = (cache.gl_weights() * cache.gl_values).ravel()
    out = np.zeros(ks.size, dtype=complex)
    for lo in range(0, gx.size, _REF_CHUNK):
        out += np.exp(-1j * np.outer(ks, gx[lo:lo + _REF_CHUNK])) @ gv[lo:lo + _REF_CHUNK]
    return out / (2 * np.pi)


def rel_dev(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _rotated_sawtooth():
    """Sawtooth with its jump moved to 0.3, which is not a grid edge."""
    saw = corpus()["sawtooth"]
    return ls.PointwiseFunction("sawtooth_0.3", lambda x: saw(np.asarray(x) - 0.3),
                                breakpoints=(0.3,))


def _transform_caches():
    fns = corpus()
    caches = {}
    for label in ("square", "sawtooth"):
        for res in (1024, 4096):
            caches[f"{label}@{res}"] = build_cache(fns[label], resolution=res)
    caches["rotated@4096"] = build_cache(_rotated_sawtooth(), resolution=4096)
    refined = ls.ensure_window_resolution(build_cache(fns["square"], resolution=1024), 0.03)
    assert refined.resolution == 13440
    caches["square@13440"] = refined
    base = caches["sawtooth@1024"]
    caches["spawned@1024"] = base.spawn(base.gl_values ** 2 + 1j)
    return caches


TRANSFORM_CACHES = _transform_caches()


def test_transform_caches_mix_uniform_and_graded_panels():
    for cache in TRANSFORM_CACHES.values():
        panels, _cells = ls.model.uniform_cells(cache.edges, cache.resolution)
        assert 0 < panels.size < cache.panel_count
        # only the few cells graded toward a breakpoint or 0 are split
        assert panels.size >= cache.resolution - 16


@pytest.mark.parametrize("name", sorted(TRANSFORM_CACHES))
@pytest.mark.parametrize("degree", [3, 40])
def test_subtract_poly_matches_direct_sum(name, degree):
    cache = TRANSFORM_CACHES[name]
    p = random_poly(degree, np.random.default_rng(degree))
    resid = subtract_poly(cache, p)
    gl = direct_synthesis(p, cache.gl_points())
    assert rel_dev(cache.gl_values - resid.gl_values, gl) <= 1e-12


@pytest.mark.parametrize("name", sorted(TRANSFORM_CACHES))
def test_fourier_coefficients_match_direct_sum(name):
    cache = TRANSFORM_CACHES[name]
    kmax = 50
    assert rel_dev(fourier_coefficients(cache, kmax), direct_analysis(cache, kmax)) <= 1e-12


def test_polynomial_cache_is_synthesised_exactly():
    p = random_poly(30, np.random.default_rng(40))
    cache = build_cache(p.as_pointwise(), resolution=1024)
    assert rel_dev(cache.gl_values, direct_synthesis(p, cache.gl_points())) <= 1e-12


def test_synthesis_folds_degrees_above_the_grid():
    """2*deg+1 > R: the folded FFT stays exact at the cache points."""
    cache = TRANSFORM_CACHES["square@1024"]
    p = random_poly(600, np.random.default_rng(41))
    assert 2 * p.degree + 1 > cache.resolution
    resid = subtract_poly(cache, p)
    assert rel_dev(cache.gl_values - resid.gl_values,
                   direct_synthesis(p, cache.gl_points())) <= 1e-12


@pytest.mark.parametrize("spec_id", ["wlp:2:-0.5", "wlp:1.5:0.3", "orlicz:llogl"])
def test_poly_norm_matches_direct_cache(spec_id):
    spec = ls.parse_spec(spec_id)
    p = random_poly(20, np.random.default_rng(42), real=True)
    direct = ls.PointwiseFunction("direct", lambda x: direct_synthesis(p, x))
    want = ls.norm(build_cache(direct, resolution=1024), spec)
    assert abs(ls.poly_norm(p, spec) - want) <= 1e-12 * want


def test_analysis_is_adjoint_of_synthesis():
    """sum w conj(T) v == 2 pi sum conj(c_k) v_k over the cache quadrature."""
    rng = np.random.default_rng(43)
    base = TRANSFORM_CACHES["rotated@4096"]
    v = base.spawn(rng.standard_normal(base.gl_values.shape)
                   + 1j * rng.standard_normal(base.gl_values.shape))
    p = random_poly(60, rng)
    synth = v.gl_values - subtract_poly(v, p).gl_values
    lhs = np.sum(v.gl_weights() * np.conj(synth) * v.gl_values)
    rhs = 2 * np.pi * np.sum(np.conj(p.coeffs) * fourier_coefficients(v, p.degree))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_sample_uniform_folds_when_under_resolved():
    p = random_poly(9, np.random.default_rng(44))
    m = 7
    t = 2 * np.pi * np.arange(m) / m
    assert rel_dev(p.sample_uniform(m), direct_synthesis(p, t)) <= 1e-12


# ----------------------------------------------------------------------------
# Horner evaluator and its adjoint against oracles
# ----------------------------------------------------------------------------


def mp_synthesis(poly, x):
    """``sum c_k exp(ikx)`` in 30-digit mpmath arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        terms = [(k, mpmath.mpc(complex(c))) for k, c in zip(poly.freqs.tolist(), poly.coeffs)]
        return np.array([complex(mpmath.fsum(c * mpmath.expj(k * mpmath.mpf(xi))
                                             for k, c in terms))
                         for xi in np.asarray(x, dtype=float).tolist()])


@pytest.mark.parametrize("degree", [0, 1, 64, 1024, ls.trigpoly.MAX_DEGREE])
def test_at_matches_mpmath_sum(degree):
    rng = np.random.default_rng(degree)
    p = random_poly(degree, rng)
    x = np.concatenate([rng.uniform(-np.pi, np.pi, 8), [np.pi, -np.pi, np.pi - 1e-9]])
    err = np.max(np.abs(p.at(x) - mp_synthesis(p, x)))
    assert err <= 1e-14 * np.sum(np.abs(p.coeffs))


def test_fejer_kernel_matches_closed_form_near_zero():
    """``(1/n) (sin(nx/2) / sin(x/2))^2`` at n = 4096, in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    n = 4096
    x = np.array([1e-7, -1e-7, 1e-3, 0.25, 2.0, np.pi])
    with mpmath.workdps(30):
        want = np.array([float((mpmath.sin(n * mpmath.mpf(xi) / 2)
                                / mpmath.sin(mpmath.mpf(xi) / 2)) ** 2 / n)
                         for xi in x.tolist()])
    got = kernel_eval(fejer_window(), n, x)
    assert np.max(np.abs(got - want)) <= 1e-14 * n


@pytest.mark.parametrize("kmax", [0, 1, 64])
def test_power_sums_match_exp_sum(kmax):
    rng = np.random.default_rng(kmax + 50)
    x = rng.uniform(-np.pi, np.pi, 300)
    v = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    want = np.exp(-1j * np.outer(np.arange(-kmax, kmax + 1), x)) @ v
    got = ls.trigpoly._power_sums(x, v, kmax)
    assert got.shape == (2 * kmax + 1,)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(v))


def test_at_keeps_the_shape_of_its_argument():
    p = random_poly(3, np.random.default_rng(51))
    x = np.linspace(-3, 3, 12).reshape(3, 4)
    assert p.at(x).shape == (3, 4)
    assert_allclose(p.at(x), direct_synthesis(p, x), atol=1e-13)
    assert p.at(0.5).shape == ()
    assert kernel_eval(fejer_window(), 5, x).shape == (3, 4)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_evaluation_memory_is_linear_in_points():
    """No points-by-frequencies matrix: 8192 points at degree 512."""
    p = random_poly(512, np.random.default_rng(52))
    x = np.random.default_rng(53).uniform(-np.pi, np.pi, 8192)
    assert _peak_mb(lambda: p.at(x)) <= 4.0
    assert _peak_mb(lambda: kernel_eval(fejer_window(), 512, x)) <= 4.0


def test_cache_analysis_memory_is_linear_in_points():
    cache = build_cache(corpus()["square"], resolution=8192)
    assert _peak_mb(lambda: fourier_coefficients(cache, 1024)) <= 4.0


# ----------------------------------------------------------------------------
# One route from a quantity's input to its cache
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("n_scale", [1, 8, 100])
@pytest.mark.parametrize("degree", [3, 200])
def test_as_cache_resolution(n_scale, degree):
    """A cache passes through; a function is cached at its quantity's scale,
    a polynomial (or its function) at that scale or its degree."""
    as_cache = ls.trigpoly._as_cache
    cache = TRANSFORM_CACHES["rotated@4096"]
    assert as_cache(cache, n_scale) is cache
    assert as_cache(corpus()["sine"], n_scale).resolution == max(4096, 64 * n_scale)
    p = random_poly(degree, np.random.default_rng(degree))
    want = max(4096, 64 * max(n_scale, degree))
    assert as_cache(p, n_scale).resolution == as_cache(p.as_pointwise(), n_scale).resolution == want


@pytest.mark.parametrize("name", ["square@1024", "rotated@4096", "spawned@1024"])
def test_analyze_matches_direct_power_sums(name):
    """The cache transform equals the direct sum over every node."""
    part = TRANSFORM_CACHES[name].partition
    rng = np.random.default_rng(60)
    shape = part.gl_points().shape
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = ls.trigpoly._power_sums(part.gl_points().ravel(), v.ravel(), 50)
    assert rel_dev(ls.trigpoly._analyze(part, v, 50), want) <= 1e-13


@pytest.mark.parametrize("spec_id", ["l2", "lp:4"])
def test_polynomial_best_approximations_match_spectral_values(spec_id):
    """``best_approx`` and ``besov_sum`` read a polynomial on its cache; the
    values equal the norms of the residuals of its exact coefficients
    (``auto`` is the projection in L2, the de la Vallee Poussin start otherwise)."""
    spec = ls.parse_spec(spec_id)
    p = random_poly(40, np.random.default_rng(61))

    def spectral(d, method):
        if d >= 2 and (method == "vp" or spec_id != "l2"):
            return ls.poly_norm(p - vp_mean(p, d // 2), spec)
        return ls.poly_norm(p - TrigPoly(fourier_coefficients(p, d)), spec)

    for n in (1, 6, 25):
        for method in ("auto", "vp"):
            want = spectral(n, method)
            assert abs(ls.best_approx(p, n, spec, method=method).value - want) <= 1e-13 * want
    bs = ls.besov_sum(p, 4, spec, max_degree=32)
    assert [t["degree"] for t in bs.terms] == [4, 8, 16, 32]
    for t in bs.terms:
        want = spectral(t["degree"], "auto")
        assert abs(t["best"] - want) <= 1e-13 * want


def _high_degree_poly():
    """Modes |k| <= 2 plus exp(+-4000ix), with |T| >= 0.46 so |T| is smooth."""
    d = 4000
    c = np.zeros(2 * d + 1, dtype=complex)
    c[d - 2:d + 3] = [0.25 - 0.1j, 0.5j, 3.0, -0.5j, 0.25 + 0.1j]
    c[0] = c[-1] = 0.5
    return TrigPoly(c)


HIGH = _high_degree_poly()


def _rel(got, want):
    return abs(got - want) / abs(want)


def test_high_degree_quantities_match_spectral_values():
    """A polynomial near ``MAX_DEGREE`` is cached at its degree, not at the
    quantity's scale n = 8, in every quantity that caches it."""
    l2 = ls.parse_spec("l2")
    op = ls.parse_operator("lagrange")
    err = ls.approx_error(HIGH, op, 8, l2)
    assert _rel(err.continuous, ls.poly_norm(HIGH - ls.apply_operator(op, HIGH, 8), l2)) <= 1e-12
    v = vp_mean(HIGH, 8)
    want = ls.poly_norm(HIGH - v, l2) + 8.0 ** -2 * ls.poly_norm(v.derivative(2), l2)
    assert _rel(ls.kfunc_vp(HIGH, 1 / 8, 2, l2), want) <= 1e-12
    got = ls.semidiscrete_modulus(HIGH.as_pointwise(), 8, 1, 2, l2)
    want = ls.semidiscrete_modulus(HIGH, 8, 1, 2, l2)
    assert _rel(got.continuous, want.continuous) <= 1e-12
    assert _rel(got.discrete, want.discrete) <= 1e-12
    for spec_id in ("l1", "l2"):
        spec = ls.parse_spec(spec_id)
        assert _rel(ls.norm(HIGH.as_pointwise(), spec), ls.poly_norm(HIGH, spec)) <= 1e-12
    got = fourier_coefficients(HIGH.as_pointwise(), 4)
    assert np.max(np.abs(got - HIGH.coeffs[4000 - 4:4000 + 5])) <= 1e-14
