"""Window (moving) averages and their iterates.

``A_h`` is the centered average over ``[x - h/2, x + h/2]``; the shifted
variant ``A_h^. = A_h f(x + h/2)`` averages over ``[x, x + h]``.  On spectra
both act diagonally: ``exp(ikx)`` picks up ``sin(kh/2)/(kh/2)``, times the
phase ``exp(ikh/2)`` for the shifted variant.

Two backends:

* TrigPoly -> exact coefficient multipliers;
* DenseGridCache -> antiderivative differences ``(F(x+h/2) - F(x-h/2))/h``.
  Partial panels integrate the in-panel interpolant on every cache, base or
  derived; iterated averages materialize one derived cache per level, its
  values taken at the 5 Gauss-Legendre nodes of each panel (cost linear in
  the iteration count r, supported for r <= 4).  A level reads both window
  ends by fixed per-node functionals on the uniform cells
  (:meth:`DenseGridCache.node_antiderivative`), not by a panel search.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Union

import numpy as np

from .model import DenseGridCache, PointwiseFunction, ensure_window_resolution
from .trigpoly import TrigPoly, _as_cache

MAX_ITERATES = 4

# 1 - sinc(theta) = sum_{k>=1} (-1)^(k+1) theta^(2k)/(2k+1)!, to eps for |theta| < 1
_SINC_SERIES = tuple((-1.0) ** (k + 1) / factorial(2 * k + 1) for k in range(1, 9))

Averageable = Union[TrigPoly, DenseGridCache, PointwiseFunction]


def _check_h(h: float, r=None):
    if not 0.0 < h <= 2.0 * np.pi:
        raise ValueError("window width h must lie in (0, 2*pi]")
    if r is not None and not 1 <= r <= MAX_ITERATES:
        raise ValueError(f"iteration count must lie in 1..{MAX_ITERATES}")


def multiplier(h: float, ks, centered: bool = True) -> np.ndarray:
    """Spectral factor of the window average at integer frequencies ``ks``."""
    ks = np.asarray(ks)
    m = np.sinc(ks * h / (2.0 * np.pi))
    if not centered:
        m = m * np.exp(0.5j * ks * h)
    return m


def _one_minus_multiplier(h: float, ks, centered: bool = True) -> np.ndarray:
    """``1 - m`` without cancellation: with ``theta = kh/2``, ``1 - sinc`` by
    its series where ``|theta| < 1``; shifted, ``1 - sinc exp(i theta) =
    (1 - sinc) exp(i theta) - 2i sin(theta/2) exp(i theta/2)``."""
    theta = 0.5 * h * np.asarray(ks, dtype=float)
    small = np.abs(theta) < 1.0
    t2 = np.where(small, theta, 0.0) ** 2
    series = np.zeros_like(t2)
    for c in _SINC_SERIES[::-1]:
        series = series * t2 + c
    one_minus = np.where(small, t2 * series, 1.0 - multiplier(h, ks))
    if centered:
        return one_minus
    half = np.exp(0.5j * theta)
    return one_minus * half * half - 2j * np.sin(0.5 * theta) * half


def steklov_values(cache: DenseGridCache, h: float, points, centered: bool = True) -> np.ndarray:
    """Window average of a cached function at arbitrary points."""
    _check_h(h)
    x = np.asarray(points, dtype=float)
    lo, hi = (-0.5 * h, 0.5 * h) if centered else (0.0, h)
    return (cache.antiderivative(x + hi) - cache.antiderivative(x + lo)) / h


def _steklov_cache(cache: DenseGridCache, h: float, centered: bool) -> DenseGridCache:
    """One averaging level: ``A_h`` at the cache's Gauss-Legendre nodes."""
    lo, hi = (-0.5 * h, 0.5 * h) if centered else (0.0, h)
    return cache.spawn((cache.node_antiderivative(hi) - cache.node_antiderivative(lo)) / h)


def _window_cache(obj: Union[DenseGridCache, PointwiseFunction], h: float) -> DenseGridCache:
    """``obj`` as a cache resolving the window ``h``: a function is cached
    (:func:`~latsamp.trigpoly._as_cache`), a base cache refined
    (:func:`ensure_window_resolution`); a derived cache passes through as it is."""
    cache = _as_cache(obj, 0)
    return cache if cache.fn is None else ensure_window_resolution(cache, h)


def steklov(obj: Averageable, h: float, centered: bool = True) -> Averageable:
    """Apply the window average once; the result has the input's type.

    Base caches are refined first if the window would span fewer than 64
    uniform grid steps.
    """
    _check_h(h)
    if isinstance(obj, TrigPoly):
        return TrigPoly(obj.coeffs * multiplier(h, obj.freqs, centered))
    return _steklov_cache(_window_cache(obj, h), h, centered)


def steklov_chain(obj: Union[DenseGridCache, PointwiseFunction], h: float, r: int,
                  centered: bool = True):
    """``[f, A_h f, A_h^2 f, ..., A_h^r f]`` as materialized caches."""
    _check_h(h, r)
    chain = [_window_cache(obj, h)]
    for _ in range(r):
        chain.append(_steklov_cache(chain[-1], h, centered))
    return chain


def i_minus_a_pow(obj: Averageable, h: float, r: int, centered: bool = True) -> Averageable:
    """``(I - A_h)^r f``: the multiplier ``(1 - m)^r`` on polynomials, the
    binomial expansion over iterated averages on caches."""
    _check_h(h, r)
    if isinstance(obj, TrigPoly):
        return TrigPoly(obj.coeffs * _one_minus_multiplier(h, obj.freqs, centered) ** r)
    chain = steklov_chain(obj, h, r, centered)
    return chain[0].spawn(sum(((-1.0) ** k * comb(r, k) * link.gl_values
                               for k, link in enumerate(chain)), 0j))


def i_minus_a_pow_at(cache: Union[DenseGridCache, PointwiseFunction], h: float, r: int,
                     points, centered: bool = True) -> np.ndarray:
    """``(I - A_h)^r f`` evaluated at arbitrary points.

    The zeroth term uses the exact evaluator when the cache has one, so node
    samples honor declared jump values.
    """
    _check_h(h, r)
    cache = _window_cache(cache, h)
    pts = np.asarray(points, dtype=float)
    out = cache.values_at(pts).astype(complex)
    level = cache
    for k in range(1, r + 1):
        out = out + ((-1.0) ** k) * comb(r, k) * steklov_values(level, h, pts, centered)
        if k < r:
            level = _steklov_cache(level, h, centered)
    return out
