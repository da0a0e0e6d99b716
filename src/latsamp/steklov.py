"""Window (moving) averages and their iterates.

``A_h`` is the centered average over ``[x - h/2, x + h/2]``; the shifted
variant ``A_h^. = A_h f(x + h/2)`` averages over ``[x, x + h]``.  On spectra
both act diagonally: ``exp(ikx)`` picks up ``sin(kh/2)/(kh/2)``, times the
phase ``exp(ikh/2)`` for the shifted variant (:func:`multiplier`).

Every source, a polynomial included, is averaged on a cache
(:func:`~latsamp.trigpoly._as_cache`), as antiderivative differences
``(F(x+h/2) - F(x-h/2))/h``.  Partial panels integrate the in-panel
interpolant on every cache, base or derived; iterated averages materialize one
derived cache per level, its values taken at the 5 Gauss-Legendre nodes of each
panel (cost linear in the iteration count).  A level reads each window end as a
(5, 5) kernel product, a prefix add and a gather, through the window's two
landing plans, built once per chain for all its levels.  Base caches are first
put on a grid the window spans in whole cells
(:func:`~latsamp.model.ensure_window_resolution`): at the default width
``pi/(2n+1)`` both window ends, centered or shifted, and the kinks of every
level of a function with breakpoints on the grid fall on cell edges, so each
level of a piecewise polynomial is read exactly.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .model import DenseGridCache, ensure_window_resolution
from .trigpoly import Sourceable, _as_cache

# the discrete part's order r; the shifted chain of order s <= 2r takes up to twice as many
MAX_ITERATES = 4


def _check_h(h: float, r=None, cap: int = MAX_ITERATES):
    if not 0.0 < h <= 2.0 * np.pi:
        raise ValueError("window width h must lie in (0, 2*pi]")
    if r is not None and not 1 <= r <= cap:
        raise ValueError(f"iteration count must lie in 1..{cap}")


def multiplier(h: float, ks, centered: bool = True) -> np.ndarray:
    """Spectral factor of the window average at integer frequencies ``ks``."""
    ks = np.asarray(ks)
    m = np.sinc(ks * h / (2.0 * np.pi))
    if not centered:
        m = m * np.exp(0.5j * ks * h)
    return m


def steklov_values(cache: DenseGridCache, h: float, points, centered: bool = True) -> np.ndarray:
    """Window average of a cached function at arbitrary points."""
    _check_h(h)
    x = np.asarray(points, dtype=float)
    lo, hi = (-0.5 * h, 0.5 * h) if centered else (0.0, h)
    anchor = cache.partition.locate(x.ravel())[0]
    return (cache.antiderivative(x, hi, anchor) - cache.antiderivative(x, lo, anchor)) / h


def _chain(cache: DenseGridCache, h: float, r: int, centered: bool) -> list:
    """``[cache, A_h cache, ..., A_h^r cache]``, every level at the cache's
    Gauss-Legendre nodes, reading both window ends through the same two plans."""
    ends = (-0.5 * h, 0.5 * h) if centered else (0.0, h)
    lo, hi = [cache.partition.landing_plan(end) for end in ends] if r else (None, None)
    chain = [cache]
    for _ in range(r):
        values = chain[-1].node_antiderivative(hi)
        values -= chain[-1].node_antiderivative(lo)
        values /= h
        chain.append(chain[-1].spawn(values))
    return chain


def _window_cache(obj: Sourceable, h: float) -> DenseGridCache:
    """``obj`` as a cache resolving the window ``h``: a function or polynomial is
    cached (:func:`~latsamp.trigpoly._as_cache`), a base cache put on its grid
    (:func:`ensure_window_resolution`); a derived cache passes through as it is."""
    cache = _as_cache(obj, 0)
    return cache if cache.fn is None else ensure_window_resolution(cache, h)


def steklov_chain(obj: Sourceable, h: float, r: int, centered: bool = True):
    """``[f, A_h f, A_h^2 f, ..., A_h^r f]`` as materialized caches, for
    ``r <= 2 * MAX_ITERATES`` (the shifted chain of order ``s <= 2r``)."""
    _check_h(h, r, 2 * MAX_ITERATES)
    return _chain(_window_cache(obj, h), h, r, centered)


def i_minus_a_pow(obj: Sourceable, h: float, r: int, centered: bool = True) -> DenseGridCache:
    """``(I - A_h)^r f`` as a cache: the binomial expansion over the levels of
    :func:`steklov_chain`."""
    chain = steklov_chain(obj, h, r, centered)
    out = chain[0].gl_values.copy()
    for k, link in enumerate(chain[1:], 1):
        out += (-1.0) ** k * comb(r, k) * link.gl_values
    return chain[0].spawn(out)


def i_minus_a_pow_at(cache: Sourceable, h: float, r: int, points,
                     centered: bool = True) -> np.ndarray:
    """``(I - A_h)^r f`` evaluated at arbitrary points, for ``r <= MAX_ITERATES``.

    The zeroth term uses the exact evaluator when the cache has one, so node
    samples honor declared jump values.
    """
    _check_h(h, r)
    cache = _window_cache(cache, h)
    pts = np.asarray(points, dtype=float)
    out = cache.values_at(pts).astype(complex)
    for k, level in enumerate(_chain(cache, h, r - 1, centered), 1):
        out = out + ((-1.0) ** k) * comb(r, k) * steklov_values(level, h, pts, centered)
    return out
