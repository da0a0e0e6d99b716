"""Moduli of smoothness, K-functional surrogates, realization functionals."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latsamp import (
    TrigPoly,
    build_cache,
    corpus,
    default_width,
    kfunc_vp,
    parse_operator,
    parse_spec,
    realization,
    semidiscrete_modulus,
)

L1 = parse_spec("l1")
L2 = parse_spec("l2")
C = corpus()


def test_default_width():
    assert_allclose(default_width(8), np.pi / 17)
    assert_allclose(default_width(10, gamma=2.0), 0.2)
    with pytest.raises(ValueError):
        default_width(10, gamma=-1.0)


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


def test_semidiscrete_trigpoly_route_matches_function_route():
    p = TrigPoly(np.array([0.5, 0, 1.0, 0, 0.5], dtype=complex))  # 1 + cos 2x
    rep_poly = semidiscrete_modulus(p, 6, 2, 2, L2)
    rep_fn = semidiscrete_modulus(p.as_pointwise(), 6, 2, 2, L2)
    assert_allclose(rep_poly.continuous, rep_fn.continuous, rtol=1e-8)
    assert_allclose(rep_poly.discrete, rep_fn.discrete, rtol=1e-6, atol=1e-12)


def test_semidiscrete_vanishes_on_constants():
    p = TrigPoly(np.array([4.0 + 0j]))
    rep = semidiscrete_modulus(p, 5, 1, 1, L2)
    assert rep.total < 1e-13


def test_semidiscrete_order_constraint():
    with pytest.raises(ValueError):
        semidiscrete_modulus(C["sine"], 8, r=1, s=3, spec=L2)  # needs 2r >= s
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
    with pytest.raises(ValueError):
        kfunc_vp(C["sine"], 0.0, 1, L2)
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


def test_realization_tracks_error_for_rough_function():
    op = parse_operator("fejer")
    rep = realization(C["square"], 16, 1, op, L2)
    assert rep.continuous > 0.05  # the square wave is genuinely hard
    assert rep.derivative_term > 0
    assert np.isfinite(rep.total)
