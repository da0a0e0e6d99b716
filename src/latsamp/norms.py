"""Lattice norms on the circle: Lebesgue, weighted Lebesgue, Orlicz.

All continuous norms use the normalized measure ``dx/2pi``, so the constant 1
has norm 1 in every Lebesgue space.  The weighted spaces carry the weight
``|2 sin(x/2)|^beta`` with ``-1 < beta < p - 1`` (singular or degenerate at
``x = 0``).  The Orlicz norm is the Luxemburg norm of ``t log(1+t)``, by
regula falsi on the log of its modular.

Norms run through one kernel, ``_measure_norm(|f|, mass, spec)``, on a
measure: the Gauss-Legendre nodes of a cache, the cells of a node set, or any
quadrature a caller supplies.  Two polynomial norms never evaluate the
polynomial on a cache (:func:`poly_norm`): the Lebesgue norm is a mean over
an FFT grid, and the weighted ``L^2`` norm is a Toeplitz form in the moments
of the weighted cache masses, which equals that cache's quadrature.  Weighted
masses come from the closed form of the weight's integral over a cell, an
incomplete beta function.

The discrete seminorm of a function over a node set is the norm of the step
function ``sum_k |f(x_k)| chi_[x_k, x_{k+1})``.  Step-function norms are exact
closed forms, never generic quadrature — this keeps them an independent route
from the continuous quadrature norms they are compared against.
The dilation norms ``||f(r .)||_X`` weighing dilation sums are closed forms too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import beta as beta_fn, betainc

from .model import (TWO_PI, DenseGridCache, NodeSet, PointwiseFunction,
                    build_cache, partition)
from .trigpoly import TrigPoly, _analyze, _as_cache


@dataclass(frozen=True)
class NormSpec:
    """Identifies a lattice norm; each kind takes exactly its own parameters.

    kind = 'lebesgue' (a finite exponent ``1 <= p``), 'weighted' (``p`` and a
    weight exponent ``-1 < beta < p - 1``, ``beta != 0``), or 'orlicz' (the
    Luxemburg norm of ``t log(1+t)``, no ``p`` or ``beta``).
    """

    kind: str
    p: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        takes = {"lebesgue": "only p", "weighted": "p and beta", "orlicz": "no p or beta"}
        if self.kind not in takes:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if ((self.p is None) != (self.kind == "orlicz")
                or (self.beta is None) != (self.kind != "weighted")):
            raise ValueError(f"a {self.kind} norm takes {takes[self.kind]}")
        if self.p is not None and not 1.0 <= self.p < np.inf:
            raise ValueError(f"{self.kind} norm needs a finite exponent 1 <= p < inf, "
                             f"got {self.p}")
        if self.kind == "weighted" and not (-1.0 < self.beta < self.p - 1.0 and self.beta != 0.0):
            raise ValueError("weight exponent must satisfy -1 < beta < p-1, beta != 0")

    @property
    def id(self) -> str:
        if self.kind == "lebesgue":
            return f"lp:{self.p:g}" if self.p not in (1.0, 2.0) else f"l{self.p:g}"
        if self.kind == "weighted":
            return f"wlp:{self.p:g}:{self.beta:g}"
        return "orlicz:llogl"

    def weight(self, x) -> np.ndarray:
        """The lattice weight ``|2 sin(x/2)|^beta`` (1 when not weighted)."""
        x = np.asarray(x, dtype=float)
        if self.kind != "weighted":
            return np.ones_like(x)
        return np.abs(2.0 * np.sin(0.5 * x)) ** self.beta

    def young(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "orlicz":
            return t * np.log1p(t)
        return t ** self.p


def parse_spec(text: str) -> NormSpec:
    """Parse ids like 'l1', 'l2', 'lp:1.5', 'wlp:2:0.5', 'orlicz:llogl'; 'wlp:p:0'
    (weight 1) and 'orlicz:power:p' (Young function t^p) are 'lp:p'."""
    t = text.strip().lower()
    if t in ("l1", "l2"):
        return NormSpec("lebesgue", p=float(t[1]))
    parts = t.split(":")
    try:
        if parts[0] == "lp" and len(parts) == 2:
            return NormSpec("lebesgue", p=float(parts[1]))
        if parts[0] == "wlp" and len(parts) == 3:
            p, beta = float(parts[1]), float(parts[2])
            return NormSpec("weighted", p, beta) if beta != 0.0 else NormSpec("lebesgue", p)
        if parts[0] == "orlicz":
            if len(parts) == 2 and parts[1] == "llogl":
                return NormSpec("orlicz")
            if len(parts) == 3 and parts[1] == "power":
                return NormSpec("lebesgue", p=float(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad norm id {text!r}: {exc}") from None
    raise ValueError(f"bad norm id {text!r}")


def luxemburg(modular, scale: float) -> float:
    """Luxemburg norm: the lambda with ``modular(lambda) = 1``.

    ``modular(lambda)`` is ``sum m Phi(|f|/lambda)`` for a convex Young
    function with ``Phi(0) = 0``.  So ``lambda * modular(lambda)`` is
    nonincreasing, and the root lies between a positive ``scale`` and
    ``scale * modular(scale)``.  Anderson-Bjorck regula falsi (BIT 13, 1973)
    solves ``log modular(e^u) = 0`` in multiplicative steps, to a few ulp at
    any magnitude; it is linear in ``u`` for a power ``Phi`` (one step is
    exact) and of slope in [-2, -1] for ``t log(1+t)``.  A ``scale`` at the
    root, or within rounding of it, is allowed: once two modular values
    round to the same number the latest iterate is returned.
    """
    if not 0.0 < scale < np.inf:
        raise ValueError(f"luxemburg needs a positive finite scale, got {scale!r}")
    m = modular(scale)
    if m == 0.0 or m == 1.0:
        return float(scale) if m else 0.0
    # (lam_a, g_a) and (lam_b, g_b) bracket the root; b is the latest iterate
    lam_a, g_a, lam_b = scale, np.log(m), scale * m
    g_b = np.log(modular(lam_b))
    for _ in range(64):
        # g_b == g_a: the bracket is below the modular's rounding, and the
        # secant step would divide by 0
        if g_b == 0.0 or g_b == g_a:
            return float(lam_b)
        step = np.log(lam_a / lam_b) * g_b / (g_b - g_a)
        lam_c = lam_b * np.exp(step)
        if abs(step) <= 4.0 * np.finfo(float).eps:
            return float(lam_c)
        g_c = np.log(modular(lam_c))
        if (g_c > 0.0) == (g_b > 0.0):
            ratio = 1.0 - g_c / g_b
            g_a *= ratio if ratio > 0.0 else 0.5
        else:
            lam_a, g_a = lam_b, g_b
        lam_b, g_b = lam_c, g_c
    raise ArithmeticError("luxemburg: regula falsi did not converge")


# ----------------------------------------------------------------------------
# The norm kernel and the measures it runs on
# ----------------------------------------------------------------------------


def _measure_norm(a: np.ndarray, measure, spec: NormSpec,
                  scale: Optional[float] = None) -> float:
    """``||f||_X`` from ``a = |f|`` at points carrying mass ``measure``.

    ``measure`` is the mass of each value: Gauss-Legendre weights, cell
    widths, weighted cell or node masses.  Lebesgue and weighted norms are
    ``(sum a^p measure / 2pi)^(1/p)``, computed in place in ``a`` (which is
    overwritten); the Orlicz norm is :func:`luxemburg` of a modular filling two
    buffers allocated once per call, started at ``scale`` when given (a
    nearby norm, which saves modular passes) and at ``max a`` otherwise.
    NaN or inf values give a NaN or inf norm.
    """
    if spec.kind == "orlicz":
        amax = a.max(initial=0.0)
        if amax == 0.0 or not np.isfinite(amax):
            return float(amax)
        t, y = np.empty_like(a), np.empty_like(a)
        def modular(lam):
            np.divide(a, lam, out=t)
            np.log1p(t, out=y)
            np.multiply(t, y, out=y)
            np.multiply(measure, y, out=y)
            return float(np.sum(y) / TWO_PI)
        return luxemburg(modular, scale=amax if scale is None else scale)
    np.power(a, spec.p, out=a)
    np.multiply(a, measure, out=a)
    return float((np.sum(a) / TWO_PI) ** (1.0 / spec.p))


def weight_cell_integrals(lefts: np.ndarray, widths: np.ndarray, beta: float) -> np.ndarray:
    """Integral of the weight ``|2 sin(x/2)|^beta`` over each cell ``[x_k, x_k + width_k)``.

    Closed form (DLMF 8.17): for ``0 <= a <= pi``,
    ``int_0^a |2 sin(x/2)|^beta dx = 2^beta B(sin^2(a/2); (beta+1)/2, 1/2)``.
    Each cell is cut at the multiples of pi and every piece is reflected into
    ``[0, pi]`` (the weight is even and 2pi-periodic).  A piece ``[c, d]``
    with ``c >= pi/2`` is taken as ``int_c^pi - int_d^pi`` through the
    complement ``int_c^pi = 2^beta B(cos^2(c/2); 1/2, (beta+1)/2)``, so
    cells at or across ``+-pi`` do not cancel.
    """
    a = np.asarray(lefts, dtype=float)
    b = a + np.asarray(widths, dtype=float)
    # a cell spans at most three half periods [k pi, (k+1) pi]; empty pieces
    # clip to one point and contribute exactly 0
    k = np.floor(a / np.pi) + np.arange(3)[:, None]
    lo = k * np.pi
    hi = lo + np.pi
    c, d = np.clip(a, lo, hi), np.clip(b, lo, hi)
    odd = k % 2 == 1
    u = np.where(odd, hi - d, c - lo)
    v = np.where(odd, hi - c, d - lo)
    s = 0.5 * (beta + 1.0)
    far = u >= 0.5 * np.pi
    near = ~far
    piece = np.empty_like(u)
    piece[far] = (betainc(0.5, s, np.cos(0.5 * u[far]) ** 2)
                  - betainc(0.5, s, np.cos(0.5 * v[far]) ** 2))
    piece[near] = (betainc(s, 0.5, np.sin(0.5 * v[near]) ** 2)
                   - betainc(s, 0.5, np.sin(0.5 * u[near]) ** 2))
    return 2.0 ** beta * beta_fn(s, 0.5) * piece.sum(axis=0)


def _cache_mass(cache: DenseGridCache, spec: NormSpec) -> np.ndarray:
    """Mass of each Gauss-Legendre node of a cache: ``dx``, or ``w dx`` when weighted.

    Gauss-Legendre loses digits on the weight over a panel lying closer to
    its singularity at 0 than eight panel widths (two widths away it is
    1.2e-10 off at beta = -0.9).  Such panels carry their exact weight
    integral, split among their nodes in proportion to the Gauss-Legendre
    masses.  A weighted mass is kept read-only on the partition, by ``beta``.
    """
    if spec.kind != "weighted":
        return cache.gl_weights()
    mass = cache.partition.weighted_mass.get(spec.beta)
    if mass is not None:
        return mass
    mass = cache.gl_weights() * spec.weight(cache.gl_points())
    lo, hi, widths = cache.edges[:-1], cache.edges[1:], cache.widths
    near = 8.0 * widths > np.minimum(np.abs(lo), np.abs(hi))
    exact = weight_cell_integrals(lo[near], widths[near], spec.beta)
    mass[near] *= (exact / mass[near].sum(axis=1))[:, None]
    mass.setflags(write=False)
    return cache.partition.weighted_mass.setdefault(spec.beta, mass)


def _weight_moments(resolution: int, spec: NormSpec) -> np.ndarray:
    """``mu_k = sum_i m_i exp(-ik x_i)`` for ``|k| <= resolution // 8``.

    ``x_i`` are the nodes of ``partition(resolution)`` and ``m_i`` their
    weighted masses (:func:`_cache_mass`), so ``sum_i m_i |T(x_i)|^2`` is
    ``Re sum_k A_k conj(mu_k)`` with ``A`` the autocorrelation of ``T``'s
    coefficients.  Analysed once from the constant-1 cache and kept
    read-only on the partition, by ``beta``.
    """
    part = partition(resolution)
    mu = part.weighted_moments.get(spec.beta)
    if mu is None:
        one = build_cache(PointwiseFunction("one", np.ones_like), resolution=resolution)
        mu = _analyze(part, _cache_mass(one, spec) * one.gl_values, resolution // 8)
        mu.setflags(write=False)
        mu = part.weighted_moments.setdefault(spec.beta, mu)
    return mu


# ----------------------------------------------------------------------------
# Norms of the package's types
# ----------------------------------------------------------------------------


def poly_norm(poly: TrigPoly, spec: NormSpec) -> float:
    """Norm of a trigonometric polynomial.

    Lebesgue norms use the uniform rectangle rule on an oversampled FFT
    grid (exact for even integer p once the grid resolves ``p * degree``).
    Other norms use the graded panel cache at resolution ``R = max(1024, 16 * degree)``: a weighted
    ``L^2`` norm as the Toeplitz form ``Re sum_k A_k conj(mu_k) / 2pi`` of
    the coefficients' autocorrelation ``A`` against the cache's weight
    moments ``mu`` (:func:`_weight_moments`; ``|k| <= 2 degree <= R // 8``),
    which is the cache's quadrature of ``w |T|^2``; other weighted and
    Orlicz norms are taken on a cache of the polynomial.
    """
    deg = max(poly.degree, 1)
    if spec.kind == "lebesgue":
        vals = np.abs(poly.on_uniform_grid(max(1024, 32 * deg)))
        return float(np.mean(vals ** spec.p) ** (1.0 / spec.p))
    resolution = max(1024, 16 * deg)
    if spec.kind == "weighted" and spec.p == 2.0:
        kmax, band = resolution // 8, 2 * poly.degree
        mu = _weight_moments(resolution, spec)[kmax - band: kmax + band + 1]
        form = np.correlate(poly.coeffs, poly.coeffs, "full") @ np.conj(mu)
        return float(np.sqrt(form.real / TWO_PI))
    return norm(build_cache(poly.as_pointwise(), resolution=resolution), spec)


def norm(obj: Union[DenseGridCache, TrigPoly, PointwiseFunction], spec: NormSpec) -> float:
    """Norm dispatcher for the types the package works with.

    Caches integrate over their panels; polynomials use :func:`poly_norm`;
    functions are cached first (:func:`~latsamp.trigpoly._as_cache`, a
    polynomial's at its degree).  Node data go to :func:`discrete_seminorm`.
    """
    if isinstance(obj, TrigPoly):
        return poly_norm(obj, spec)
    cache = _as_cache(obj, 0)
    return _measure_norm(np.abs(cache.gl_values), _cache_mass(cache, spec), spec)


def discrete_seminorm(f, nodes: NodeSet, spec: NormSpec) -> float:
    """Norm of the step function carrying ``|f(x_k)|`` on the node cell
    ``[x_k, x_{k+1})``: an exact sum over the cells ``nodes.gaps()``, each
    weighted by its closed-form weight integral when the norm is weighted.

    ``f`` may be a PointwiseFunction (sampled exactly, honoring declared jump
    values), a TrigPoly, or a plain value array in the order of ``nodes.nodes``.
    """
    if isinstance(f, PointwiseFunction):
        values = f(nodes.nodes)
    elif isinstance(f, TrigPoly):
        values = f.at(nodes.nodes)
    else:
        values = np.asarray(f)
        if values.size != nodes.count:
            raise ValueError("value array must match the node count")
    mass = nodes.gaps()
    if spec.kind == "weighted":
        mass = weight_cell_integrals(nodes.nodes, mass, spec.beta)
    return _measure_norm(np.abs(values).astype(float), mass, spec)


# ----------------------------------------------------------------------------
# Dilation norms
# ----------------------------------------------------------------------------


def dilation_norm(spec: NormSpec, r: float) -> float:
    """Operator norm of ``f -> f(r .)``, ``0 < r < inf``, in closed form:
    ``r^(-1/p)``, or for ``phi(t) = t log(1+t)`` the sup of ``phi^{-1}(t)/phi^{-1}(rt)``
    (Boyd, Pacific J. Math. 38, 1971), ``max(1/r, r^(-1/2))``.  Proof:

    - ``r <= 1``: ``phi(t)/t = log(1+t)`` increases, so ``phi^{-1}(y)/y`` decreases and the
      ratio is at most ``1/r``; it tends to ``1/r`` because ``phi^{-1}(y) ~ y/log y``.
    - ``r >= 1``: ``log(1+sqrt(r) u) <= sqrt(r) log(1+u)`` gives ``phi(sqrt(r) u) <= r phi(u)``,
      so the ratio is at most ``r^(-1/2)``, its limit as ``t -> 0``, where ``phi(u) ~ u^2``.

    A weighted norm has no certified value here: ``ValueError``.
    """
    if not 0.0 < r < np.inf:
        raise ValueError(f"dilation factor r must be positive and finite, got {r!r}")
    if spec.kind == "orlicz":
        return max(1 / r, r ** -0.5)
    if spec.kind == "weighted":
        raise ValueError(f"no certified dilation norm for {spec.id} (weight exponent != 0)")
    return r ** (-1.0 / spec.p)
