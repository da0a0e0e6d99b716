"""Smoothness measures: the semidiscrete window-average modulus and
K-functional realizers.

The central object is the semi-discrete modulus at scale n,

    continuous part   ||(I - A_h^shifted)^s f||_X
    node-cell part    ||(I - A_h)^r f||_{X_n}        (2r >= s)

with the window width ``h = pi/(2n+1)`` unless a mesh parameter gamma is
supplied (then ``h = gamma/n``).  The two parts are reported separately; the
workhorse equivalences compare their sum against sampling-operator errors and
against K-functionals, which are realized here through de la Vallee Poussin
means (``kfunc_vp``) and through the operators themselves (``realization``).

There is no translation modulus ``omega_r(f, delta)_p``: it is defined only
on translation-invariant (Lebesgue) norms, not on the general lattices X
treated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import make_uniform_nodes
from .norms import NormSpec, discrete_seminorm, norm, poly_norm
from .operators import OperatorSpec, _error_components, apply_operator
from .steklov import MAX_ITERATES, _window_cache, i_minus_a_pow, i_minus_a_pow_at
from .trigpoly import _as_cache, subtract_poly, vp_mean


def default_width(n: int, gamma: Optional[float] = None) -> float:
    """Window width at scale n: ``pi/(2n+1)``, or ``gamma/n`` when given."""
    if gamma is not None:
        if not 0.0 < gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
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


def semidiscrete_modulus(f, n: int, r: int, s: int, spec: NormSpec,
                         gamma: Optional[float] = None) -> ModulusReport:
    """The two-part window-average modulus at scale n (requires 2r >= s):
    ``||(I - A_h^shifted)^s f||_X`` and ``||(I - A_h)^r f||_{X_n}`` on the
    uniform nodes.  ``f`` is a function, a polynomial or a cache (shared by
    passing it here), cached as :func:`~latsamp.trigpoly._as_cache` does; a
    base cache is refined once for both parts."""
    if n < 1:
        raise ValueError("scale n must be >= 1")
    if not 1 <= r <= MAX_ITERATES:
        raise ValueError(f"order r must lie in 1..{MAX_ITERATES}, got {r}")
    if not (1 <= s <= 2 * r):
        raise ValueError("orders must satisfy 1 <= s <= 2r")
    h = default_width(n, gamma)
    nodes = make_uniform_nodes(n)
    cache = _window_cache(_as_cache(f, n), h)
    cont = norm(i_minus_a_pow(cache, h, s, centered=False), spec)
    disc_vals = i_minus_a_pow_at(cache, h, r, nodes.nodes, centered=True)
    disc = discrete_seminorm(disc_vals, nodes, spec)
    return ModulusReport(continuous=float(cont), discrete=float(disc),
                         n=n, r=r, s=s, h=h, spec_id=spec.id)


def kfunc_vp(f, delta: float, s: int, spec: NormSpec) -> float:
    """K-functional realizer ``||f - V_n f|| + delta^s ||(V_n f)^(s)||``.

    ``n = ceil(1/delta)``; the de la Vallee Poussin mean reproduces
    polynomials of degree <= n, so for those the value is exactly
    ``delta^s ||f^(s)||``.  ``f`` is a function, a polynomial or a cache,
    which callers share by passing it here.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if s < 1:
        raise ValueError("order s must be >= 1")
    n = int(np.ceil(1.0 / delta))
    cache = _as_cache(f, 2 * n)
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


def realization(f, n: int, s: int, op: OperatorSpec, spec: NormSpec) -> RealizationReport:
    """``||f - G_n f||_X + ||f - G_n f||_{X_n} + n^{-s} ||(G_n f)^(s)||_X``, with
    ``f`` (a function, polynomial or base cache, shared by passing it) cached once
    and ``G_n f`` formed once for all three terms."""
    if n < 1:
        raise ValueError("scale n must be >= 1")
    if s < 1:
        raise ValueError("order s must be >= 1")
    cache = _as_cache(f, n)
    g = apply_operator(op, cache, n)
    err = _error_components(cache, g, n, spec)
    dterm = float(n ** (-s) * poly_norm(g.derivative(s), spec))
    return RealizationReport(continuous=err.continuous, discrete=err.discrete,
                             derivative_term=dterm, n=n, s=s, spec_id=spec.id)
