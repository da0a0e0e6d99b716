"""The spectral route for ``(I - A_h)^r`` on trigonometric polynomials: the
oracle that the library's one route, iterated window integrals on a cache, is
tested against.  Its multiplier ``(1 - m)^r`` is pinned against mpmath in
``test_steklov.py``."""

from math import factorial

import numpy as np

from latsamp import TrigPoly, multiplier

# 1 - sinc(theta) = sum_{k>=1} (-1)^(k+1) theta^(2k)/(2k+1)!, to eps for |theta| < 1
SINC_SERIES = tuple((-1.0) ** (k + 1) / factorial(2 * k + 1) for k in range(1, 9))


def one_minus_multiplier(h: float, ks, centered: bool = True) -> np.ndarray:
    """``1 - m`` without cancellation: with ``theta = kh/2``, ``1 - sinc`` by
    its series where ``|theta| < 1``; shifted, ``1 - sinc exp(i theta) =
    (1 - sinc) exp(i theta) - 2i sin(theta/2) exp(i theta/2)``."""
    theta = 0.5 * h * np.asarray(ks, dtype=float)
    small = np.abs(theta) < 1.0
    t2 = np.where(small, theta, 0.0) ** 2
    series = np.zeros_like(t2)
    for c in SINC_SERIES[::-1]:
        series = series * t2 + c
    one_minus = np.where(small, t2 * series, 1.0 - multiplier(h, ks))
    if centered:
        return one_minus
    half = np.exp(0.5j * theta)
    return one_minus * half * half - 2j * np.sin(0.5 * theta) * half


def i_minus_a_pow_poly(poly: TrigPoly, h: float, r: int, centered: bool = True) -> TrigPoly:
    """``(I - A_h)^r`` of a polynomial: its coefficients times ``(1 - m)^r``."""
    return TrigPoly(poly.coeffs * one_minus_multiplier(h, poly.freqs, centered) ** r)
