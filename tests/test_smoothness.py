"""Moduli of smoothness, K-functional surrogates, realization functionals."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latsamp import (
    TrigPoly,
    approx_error,
    besov_sum,
    best_approx,
    build_cache,
    corpus,
    default_width,
    kfunc_vp,
    parse_operator,
    parse_spec,
    realization,
    semidiscrete_modulus,
    subtract_poly,
)
from latsamp.harness import random_real_poly
from spectral_oracle import i_minus_a_pow_poly

L1 = parse_spec("l1")
L2 = parse_spec("l2")
C = corpus()


def test_default_width():
    assert_allclose(default_width(8), np.pi / 17)
    assert_allclose(default_width(10, gamma=2.0), 0.2)
    for gamma in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            default_width(10, gamma=gamma)


# ----------------------------------------------------------------------------
# semidiscrete modulus
# ----------------------------------------------------------------------------


def test_semidiscrete_sine_closed_form():
    """Both parts of the measure are explicit for sin in L2.

    Continuous part (shifted average, s=1): |1 - e^{ih/2} sinc(h/2pi)|/sqrt2.
    Discrete part (centered, r=1, uniform nodes): (1 - sinc(h/2pi))/sqrt2.
    """
    n = 8
    h = np.pi / (2 * n + 1)
    rep = semidiscrete_modulus(C["sine"], n, r=1, s=1, spec=L2)
    m_shift = np.exp(0.5j * h) * np.sinc(h / (2 * np.pi))
    m_cent = np.sinc(h / (2 * np.pi))
    assert_allclose(rep.continuous, abs(1 - m_shift) / np.sqrt(2), rtol=1e-9)
    assert_allclose(rep.discrete, (1 - m_cent) / np.sqrt(2), rtol=1e-6)
    assert rep.h == h
    assert_allclose(rep.total, rep.continuous + rep.discrete)


def test_semidiscrete_gamma_rescales_width():
    rep = semidiscrete_modulus(C["sine"], 10, 1, 1, L2, gamma=1.5)
    assert_allclose(rep.h, 0.15)


def _random_polys():
    """Random real T of degree 16 to 256, as ``random_real_poly`` draws them."""
    rng = np.random.default_rng(0)
    return [random_real_poly(deg, rng) for deg in (16, 32, 64, 128, 256)]


@pytest.mark.parametrize("spec_id", ["l1", "lp:1.5", "orlicz:llogl", "l2"])
def test_semidiscrete_trigpoly_route_matches_function_route(spec_id):
    """A polynomial is cached as its function is, so both parts agree bit for
    bit: ``1 + cos 2x`` at n = 6, (r, s) = (2, 2), and random T at n = 32,
    (r, s) = (1, 2)."""
    spec = parse_spec(spec_id)
    p = TrigPoly(np.array([0.5, 0, 1.0, 0, 0.5], dtype=complex))  # 1 + cos 2x
    for poly, n, r in [(p, 6, 2)] + [(T, 32, 1) for T in _random_polys()]:
        rep_poly = semidiscrete_modulus(poly, n, r, 2, spec)
        rep_fn = semidiscrete_modulus(poly.as_pointwise(), n, r, 2, spec)
        assert (rep_poly.continuous, rep_poly.discrete) == (rep_fn.continuous, rep_fn.discrete)


def _rectangle_l1(poly, points=2 ** 22, block=2 ** 16):
    """The mean of ``|poly|`` on ``points`` uniform points, taken as
    ``points / block`` shifted FFT grids of ``block`` points."""
    total = 0.0
    for j in range(points // block):
        grid = np.zeros(block, dtype=complex)
        grid[poly.freqs % block] = poly.coeffs * np.exp(2j * np.pi * j * poly.freqs / points)
        total += np.sum(np.abs(np.fft.ifft(grid))) * block
    return total / points


def test_semidiscrete_l1_of_random_polys_against_a_fine_rectangle_rule():
    """The L1 continuous part of the random T at n = 32, s = 2, within 1e-6
    relative of the spectral ``(I - A_h^shifted)^2 T`` averaged over 2^22
    points (2^20 points agree with it to 2.7e-9 at degree 256).  Measured:
    8.9e-7 at worst, at degree 256.  The spectral route normed by
    ``poly_norm``'s rectangle rule, which took a polynomial before, was off
    by up to 9.8e-5, at degree 16."""
    h = default_width(32)
    for T in _random_polys():
        cont = semidiscrete_modulus(T, 32, 1, 2, L1).continuous
        want = _rectangle_l1(i_minus_a_pow_poly(T, h, 2, centered=False))
        assert abs(cont - want) <= 1e-6 * want, T.degree


def test_semidiscrete_vanishes_on_constants():
    p = TrigPoly(np.array([4.0 + 0j]))
    rep = semidiscrete_modulus(p, 5, 1, 1, L2)
    assert rep.total < 1e-13


def test_semidiscrete_order_constraint():
    with pytest.raises(ValueError):
        semidiscrete_modulus(C["sine"], 8, r=1, s=3, spec=L2)  # needs 2r >= s
    with pytest.raises(ValueError, match="order r"):
        semidiscrete_modulus(C["sine"], 8, r=5, s=2, spec=L2)  # r <= MAX_ITERATES
    with pytest.raises(ValueError):
        semidiscrete_modulus(C["sine"], 0, 1, 1, L2)


def test_semidiscrete_shrinks_with_n():
    vals = [semidiscrete_modulus(C["cusp15"], n, 1, 2, L2).total for n in (4, 16, 64)]
    print("cusp15 semidiscrete:", vals)
    assert vals[2] < vals[1] < vals[0]


# ----------------------------------------------------------------------------
# K-functional surrogate and realization
# ----------------------------------------------------------------------------


def test_kfunc_reproducing_case():
    """V_n reproduces sin for n >= 1, leaving exactly delta^s ||cos||."""
    got = kfunc_vp(C["sine"], 0.25, 1, L2)
    assert_allclose(got, 0.25 / np.sqrt(2), rtol=1e-7)
    got2 = kfunc_vp(C["sine"], 0.25, 2, L2)
    assert_allclose(got2, 0.25 ** 2 / np.sqrt(2), rtol=1e-7)


def test_kfunc_monotone_in_delta():
    deltas = (1 / 32, 1 / 16, 1 / 8)
    vals = [kfunc_vp(C["square"], d, 1, L1) for d in deltas]
    print("square K-values:", vals)
    assert vals[0] <= vals[1] * (1 + 1e-9)
    assert vals[1] <= vals[2] * (1 + 1e-9)


def test_kfunc_validation():
    for delta in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta"):
            kfunc_vp(C["sine"], delta, 1, L2)
    with pytest.raises(ValueError):
        kfunc_vp(C["sine"], 0.1, 0, L2)


def test_realization_on_reproduced_polynomial():
    """Interpolation reproduces sin, so only the derivative term survives."""
    op = parse_operator("lagrange")
    rep = realization(C["sine"], 4, 1, op, L2)
    assert rep.continuous < 1e-10
    assert rep.discrete < 1e-10
    assert_allclose(rep.derivative_term, (1 / 4) / np.sqrt(2), rtol=1e-7)
    assert_allclose(rep.total, rep.continuous + rep.discrete + rep.derivative_term)


def test_realization_applies_the_operator_once(monkeypatch):
    """One ``G_n f`` serves the error and the derivative term, which match
    ``approx_error`` on the same cache."""
    from latsamp import operators, smoothness

    calls = []
    apply_operator = operators.apply_operator

    def counting(*args, **kwargs):
        calls.append(1)
        return apply_operator(*args, **kwargs)

    op = parse_operator("fejer")
    cache = build_cache(C["square"], n_scale=16)
    err = approx_error(cache, op, 16, L1)
    for module in (operators, smoothness):
        monkeypatch.setattr(module, "apply_operator", counting)
    rep = realization(cache, 16, 1, op, L1)
    assert len(calls) == 1
    assert (rep.continuous, rep.discrete) == (err.continuous, err.discrete)


def test_realization_tracks_error_for_rough_function():
    op = parse_operator("fejer")
    rep = realization(C["square"], 16, 1, op, L2)
    assert rep.continuous > 0.05  # the square wave is genuinely hard
    assert rep.derivative_term > 0
    assert np.isfinite(rep.total)


# ----------------------------------------------------------------------------
# one argument per input: a cache is passed as the source
# ----------------------------------------------------------------------------

# (quantity, corpus label, scale the base cache is built at, the arguments
# after the source, keywords, and the fields read off the result)
CACHE_SOURCE_CASES = {
    "approx_error": (approx_error, "cusp15", 16, (parse_operator("br:1"), 8, L2), {},
                     ("continuous", "discrete")),
    "semidiscrete_modulus": (semidiscrete_modulus, "square", 32, (16, 1, 2, L2), {},
                             ("continuous", "discrete")),
    "kfunc_vp": (kfunc_vp, "sawtooth", 16, (1 / 8, 2, L1), {}, ()),
    "realization": (realization, "cusp05", 16,
                    (8, 2, parse_operator("fejer"), parse_spec("lp:1.5")), {},
                    ("continuous", "discrete", "derivative_term")),
    "best_approx": (best_approx, "square", 12, (6, L1), {"method": "refined"}, ("value",)),
    "besov_sum": (besov_sum, "square", 16, (8, L1), {"max_degree": 64}, ("value",)),
}

# each case's values with the function as the source and the same cache
# given through the ``cache=`` keyword these functions had before
KEYWORD_VALUES = {
    "approx_error": (0.023689008189257534, 0.023982821810282367),
    # within 1.2e-16 of the oracle's 0.1797866299901979 (test_modulus_oracle.py)
    # and of its zero discrete part
    "semidiscrete_modulus": (0.179786629990198, 1.0932720593655596e-16),
    "kfunc_vp": (0.1424560838463557,),
    "realization": (0.06378495328771044, 0.0808569068767945, 0.015873679776712998),
    # the sign certificate's E_6(square)_1 = 1/7; through the keyword, the
    # node LP gave 0.14285712735667366
    "best_approx": (1.0 / 7.0,),
    "besov_sum": (1.0229308121098266,),
}


def _case_values(name, source):
    fn, _label, _scale, args, kwargs, fields = CACHE_SOURCE_CASES[name]
    result = fn(source, *args, **kwargs)
    return tuple(getattr(result, f) for f in fields) if fields else (result,)


@pytest.mark.parametrize("name", sorted(CACHE_SOURCE_CASES))
def test_cache_as_source_gives_the_keyword_values(name):
    """A base cache passed as the source gives the values the same cache gave
    through the ``cache=`` keyword, and, built at the scale the quantity
    caches its function at, the values of the function itself."""
    _fn, label, scale, _args, _kwargs, _fields = CACHE_SOURCE_CASES[name]
    got = _case_values(name, build_cache(C[label], n_scale=scale))
    assert_allclose(got, KEYWORD_VALUES[name], rtol=1e-13, atol=0)
    # every case's scale is at most 64, so its cache is the default 4096 panels
    assert got == _case_values(name, C[label])


@pytest.mark.parametrize("name", sorted(CACHE_SOURCE_CASES))
def test_cache_keyword_is_gone(name):
    fn, label, scale, args, kwargs, _fields = CACHE_SOURCE_CASES[name]
    f = C[label]
    with pytest.raises(TypeError, match="cache"):
        fn(f, *args, cache=build_cache(f, n_scale=scale), **kwargs)


def test_node_samples_need_a_base_cache():
    """The discrete part samples f exactly at the nodes, which a derived cache
    (here a residual) cannot do."""
    cache = build_cache(C["square"], n_scale=16)
    derived = subtract_poly(cache, TrigPoly(np.array([0.5], dtype=complex)))
    assert derived.fn is None
    op = parse_operator("lagrange")
    with pytest.raises(ValueError, match="derived cache"):
        approx_error(derived, op, 8, L2)
    with pytest.raises(ValueError, match="derived cache"):
        realization(derived, 8, 2, op, L2)
