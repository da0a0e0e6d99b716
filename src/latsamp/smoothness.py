"""Smoothness measures: difference moduli, window-average moduli, K-functional
realizers.

The central object is the semi-discrete modulus at scale n,

    continuous part   ||(I - A_h^shifted)^s f||_X
    node-cell part    ||(I - A_h)^r f||_{X_n}        (2r >= s)

with the window width ``h = pi/(2n+1)`` unless a mesh parameter gamma is
supplied (then ``h = gamma/n``).  The two parts are reported separately; the
workhorse equivalences compare their sum against sampling-operator errors and
against K-functionals, which are realized here through de la Vallee Poussin
means (``kfunc_vp``) and through the operators themselves (``realization``).

The classical translation modulus ``omega_r(f, delta)_p`` is kept for
cross-checks; it only makes sense on translation-invariant (Lebesgue) norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .model import (TWO_PI, DenseGridCache, NodeSet, PointwiseFunction, build_cache,
                    ensure_window_resolution, make_uniform_nodes, partition)
from .norms import NormSpec, _measure_norm, discrete_seminorm, norm, poly_norm
from .operators import OperatorSpec, apply_operator, approx_error
from .steklov import i_minus_a_pow, i_minus_a_pow_at
from .trigpoly import TrigPoly, subtract_poly, vp_mean


def default_width(n: int, gamma: Optional[float] = None) -> float:
    """Window width at scale n: ``pi/(2n+1)``, or ``gamma/n`` when given."""
    if gamma is not None:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return gamma / n
    return np.pi / (2 * n + 1)


@dataclass
class ModulusReport:
    """One smoothness measurement, split into its two components."""

    continuous: float
    discrete: float
    n: int
    r: int
    s: int
    h: float
    spec_id: str

    @property
    def total(self) -> float:
        return self.continuous + self.discrete


def classical_modulus(f: PointwiseFunction, r: int, delta: float, spec: NormSpec) -> float:
    """Translation modulus ``sup_{0<h<=delta} ||Delta_h^r f||_p``.

    The sup runs over a geometric grid of 32 widths in ``[delta/64, delta]``.
    Only Lebesgue norms are translation invariant, so others are rejected.
    """
    if spec.kind != "lebesgue":
        raise ValueError("classical modulus needs a translation-invariant norm")
    if r < 1:
        raise ValueError("difference order must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    hs = delta * (1.0 / 64.0) ** (np.arange(32) / 31)
    best = 0.0
    for h in hs:
        best = max(best, _difference_norm(f, r, float(h), spec, 2048))
    return best


def _difference_norm(f: PointwiseFunction, r: int, h: float, spec: NormSpec,
                     resolution: int) -> float:
    """||Delta_h^r f||_p with panels split at every shifted breakpoint."""
    shifted = []
    for b in f.breakpoints:
        for nu in range(r + 1):
            shifted.append(float(np.mod(b - nu * h + np.pi, TWO_PI) - np.pi))
    part = partition(resolution, shifted)
    gx = part.gl_points()
    diff = np.zeros_like(gx, dtype=complex)
    for nu in range(r + 1):
        diff += ((-1.0) ** nu) * comb(r, nu) * f(gx + (r - nu) * h)
    return _measure_norm(np.abs(diff), part.gl_weights(), spec)


def semidiscrete_modulus(f, n: int, r: int, s: int, spec: NormSpec,
                         nodes: Optional[NodeSet] = None,
                         gamma: Optional[float] = None,
                         cache: Optional[DenseGridCache] = None) -> ModulusReport:
    """The two-part window-average modulus at scale n (requires 2r >= s)."""
    if n < 1:
        raise ValueError("scale n must be >= 1")
    if not (1 <= s <= 2 * r):
        raise ValueError("orders must satisfy 1 <= s <= 2r")
    return _modulus(f, n, r, s, default_width(n, gamma), spec, nodes, cache, centered=False)


def omega2_star(f, n: int, spec: NormSpec,
                nodes: Optional[NodeSet] = None,
                cache: Optional[DenseGridCache] = None) -> ModulusReport:
    """Single-average variant: both parts use the centered ``A_{pi/(2n+1)}``."""
    if n < 1:
        raise ValueError("scale n must be >= 1")
    return _modulus(f, n, 1, 1, np.pi / (2 * n + 1), spec, nodes, cache, centered=True)


def _modulus(f, n, r, s, h, spec, nodes, cache, centered) -> ModulusReport:
    """``||(I - A_h)^s f||_X`` (``centered`` or shifted average) and
    ``||(I - A_h)^r f||_{X_n}``; a base cache is refined once for both."""
    if nodes is None:
        nodes = make_uniform_nodes(n)
    if isinstance(f, TrigPoly):
        cont = poly_norm(i_minus_a_pow(f, h, s, centered=centered), spec)
        disc_vals = i_minus_a_pow(f, h, r, centered=True).at(nodes.nodes)
    else:
        if cache is None:
            cache = build_cache(f, n_scale=n)
        if cache.fn is not None:
            cache = ensure_window_resolution(cache, h)
        cont = norm(i_minus_a_pow(cache, h, s, centered=centered), spec)
        disc_vals = i_minus_a_pow_at(cache, h, r, nodes.nodes, centered=True)
    disc = discrete_seminorm(disc_vals, nodes, spec)
    return ModulusReport(continuous=float(cont), discrete=float(disc),
                         n=n, r=r, s=s, h=h, spec_id=spec.id)


def kfunc_vp(f, delta: float, s: int, spec: NormSpec,
             cache: Optional[DenseGridCache] = None) -> float:
    """K-functional realizer ``||f - V_n f|| + delta^s ||(V_n f)^(s)||``.

    ``n = ceil(1/delta)``; the de la Vallee Poussin mean reproduces
    polynomials of degree <= n, so for those the value is exactly
    ``delta^s ||f^(s)||``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if s < 1:
        raise ValueError("order s must be >= 1")
    n = int(np.ceil(1.0 / delta))
    if isinstance(f, TrigPoly):
        f = f.as_pointwise()
    if cache is None:
        cache = build_cache(f, n_scale=2 * n)
    v = vp_mean(cache, n)
    resid = norm(subtract_poly(cache, v), spec)
    return float(resid + delta ** s * poly_norm(v.derivative(s), spec))


@dataclass
class RealizationReport:
    """Error components plus the scaled derivative of the approximant."""

    continuous: float
    discrete: float
    derivative_term: float
    n: int
    s: int
    spec_id: str

    @property
    def total(self) -> float:
        return self.continuous + self.discrete + self.derivative_term


def realization(f, n: int, s: int, op: OperatorSpec, spec: NormSpec,
                nodes: Optional[NodeSet] = None,
                cache: Optional[DenseGridCache] = None) -> RealizationReport:
    """``||f - G_n f||_X + ||f - G_n f||_{X_n} + n^{-s} ||(G_n f)^(s)||_X``."""
    if n < 1:
        raise ValueError("scale n must be >= 1")
    if s < 1:
        raise ValueError("order s must be >= 1")
    err = approx_error(f, op, n, spec, nodes=nodes, cache=cache)
    g = apply_operator(op, f, n)
    dterm = float(n ** (-s) * poly_norm(g.derivative(s), spec))
    return RealizationReport(continuous=err.continuous, discrete=err.discrete,
                             derivative_term=dterm, n=n, s=s, spec_id=spec.id)
