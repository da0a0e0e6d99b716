"""Best approximation by trigonometric polynomials, one-sided variants, and
dilation-weighted tail sums.

* ``best_approx`` -- exact L2 projection; otherwise a de la Vallee Poussin
  near-best of degree <= n, optionally polished by coordinate descent.
* ``one_sided_best`` -- the pair ``q <= f <= Q`` of degree-n polynomials with
  minimal discretized L1 gap, solved as a linear program on a dense grid
  (scipy HiGHS); reports feasibility and duality gaps.
* ``besov_sum`` -- ``sum_nu ||dilation(2^-nu)|| * E_{2^(nu-1) n}(f)``, the
  dilation-weighted series whose convergence characterizes when the
  interpolation error is controlled by best approximation alone.
* ``lemder_check`` -- ratio of the one-sided value against
  ``(n+1)^{-r}`` times the best approximation of the r-th derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linprog, minimize_scalar

from .model import (TWO_PI, DenseGridCache, PointwiseFunction, build_cache,
                    wrap_angle)
from .norms import (NormSpec, _cache_mass, _measure_norm, dilation_norm, norm,
                    poly_norm)
from .trigpoly import (MAX_DEGREE, TrigPoly, fourier_coefficients,
                       subtract_poly, vp_mean)

LP_MAX_DEGREE = 32
LP_MAX_GRID = 2048


@dataclass
class BestApprox:
    poly: TrigPoly
    value: float
    method: str


def _resid_norm(f, cache: Optional[DenseGridCache], poly: TrigPoly, spec: NormSpec) -> float:
    if isinstance(f, TrigPoly):
        return poly_norm(f - poly, spec)
    return norm(subtract_poly(cache, poly), spec)


def best_approx(f, n: int, spec: NormSpec, method: str = "auto",
                cache: Optional[DenseGridCache] = None) -> BestApprox:
    """Degree-n best (or near-best) approximation in the given norm.

    In L2 the Fourier partial sum is the exact minimizer.  Elsewhere the
    detrended de la Vallee Poussin mean ``V_{floor(n/2)}`` (degree <= n) is a
    near-best start; ``method='refined'`` runs coordinate descent on the
    coefficients (small problems only).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n > MAX_DEGREE:
        raise ValueError(f"degree exceeds cap {MAX_DEGREE}")
    if method not in ("auto", "projection", "vp", "refined"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(f, TrigPoly):
        source = f
    else:
        if cache is None:
            cache = build_cache(f, n_scale=max(2 * n, 1))
        source = cache

    exact_l2 = spec.kind == "lebesgue" and spec.p == 2.0
    if method == "projection" and not exact_l2:
        raise ValueError("projection is exact only in L2")
    if (method in ("auto", "projection")) and exact_l2:
        poly = TrigPoly(fourier_coefficients(source, n)) if n >= 0 else None
        return BestApprox(poly, _resid_norm(f, cache, poly, spec), "projection")

    if n >= 2:
        poly = vp_mean(source, n // 2)
    else:
        poly = TrigPoly(fourier_coefficients(source, n))
    value = _resid_norm(f, cache, poly, spec)
    if method != "refined":
        return BestApprox(poly, value, "vp")
    poly, value = _coordinate_descent(f, cache, poly.truncate(n), spec, n)
    return BestApprox(poly, value, "refined")


def _coordinate_descent(f, cache, start: TrigPoly, spec: NormSpec, n: int,
                        max_sweeps: int = 200, rel_tol: float = 1e-6):
    """Polish coefficients one (complex) degree of freedom at a time."""
    if isinstance(f, TrigPoly):
        base = build_cache(f.as_pointwise(), resolution=max(512, 16 * max(n, f.degree)))
    else:
        base = cache
    gx = base.gl_points()
    mass = _cache_mass(base, spec)

    coeffs = np.zeros(2 * n + 1, dtype=complex)
    m = start.degree
    coeffs[n - m:n + m + 1] = start.coeffs
    ks = np.arange(-n, n + 1)
    resid = base.gl_values - TrigPoly(coeffs).at(gx)
    # the objective runs thousands of times; a fresh temporary of this size
    # would be an mmap and its page faults on every call
    work = np.empty(resid.shape, dtype=complex)
    mag = np.empty(resid.shape)
    value = _measure_norm(np.abs(resid, out=mag), mass, spec)
    for _ in range(max_sweeps):
        previous = value
        for idx, k in enumerate(ks):
            basis = np.exp(1j * k * gx)
            for direction in (1.0, 1.0j):
                b = direction * basis

                def objective(d):
                    """``||resid - d*b||`` on the nodes, in the buffers ``work`` and ``mag``."""
                    np.multiply(b, d, out=work)
                    np.subtract(resid, work, out=work)
                    return _measure_norm(np.abs(work, out=mag), mass, spec)

                res = minimize_scalar(objective, bracket=(-1.0, 0.0, 1.0))
                if res.fun < value:
                    value = float(res.fun)
                    coeffs[idx] += direction * res.x
                    resid = resid - res.x * b
        if previous - value <= rel_tol * max(previous, 1e-300):
            break
    return TrigPoly(coeffs), value


# ----------------------------------------------------------------------------
# One-sided approximation (linear program)
# ----------------------------------------------------------------------------


@dataclass
class OneSided:
    value: float
    upper: TrigPoly
    lower: TrigPoly
    feasibility_gap: float
    duality_gap: float
    converged: bool
    n: int
    grid_size: int


def _real_basis_matrix(y: np.ndarray, n: int) -> np.ndarray:
    cols = [np.ones_like(y)]
    for j in range(1, n + 1):
        cols.append(np.cos(j * y))
        cols.append(np.sin(j * y))
    return np.column_stack(cols)


def _real_coeffs_to_poly(a: np.ndarray, n: int) -> TrigPoly:
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n] = a[0]
    for j in range(1, n + 1):
        aj, bj = a[2 * j - 1], a[2 * j]
        c[n + j] = 0.5 * (aj - 1j * bj)
        c[n - j] = 0.5 * (aj + 1j * bj)
    return TrigPoly(c)


def one_sided_best(f: PointwiseFunction, n: int, spec: NormSpec,
                   grid_size: Optional[int] = None) -> OneSided:
    """Minimal-gap one-sided envelope in the (discretized) L1 norm.

    Constraints ``q(y_i) <= f(y_i) <= Q(y_i)`` on a uniform grid of
    ``grid_size`` points merged with every declared breakpoint of ``f`` (where
    the declared pointwise value applies).  The objective is the cell-weighted
    grid sum ``(2pi)^{-1} sum_j (Q - q)(y_j) dy_j``; on a purely uniform grid
    this integrates degree-n polynomials exactly.  Always feasible (constants
    work), bounded below by 0.
    """
    if not (spec.kind == "lebesgue" and spec.p == 1.0):
        raise ValueError("one-sided gap is an L1 quantity; pass the L1 norm")
    if not 1 <= n <= LP_MAX_DEGREE:
        raise ValueError(f"degree must lie in 1..{LP_MAX_DEGREE}")
    if grid_size is None:
        grid_size = min(LP_MAX_GRID, max(16 * n, 64))
    if not max(16 * n, 2 * n + 2) <= grid_size <= LP_MAX_GRID:
        raise ValueError(f"grid size must lie in {max(16 * n, 2 * n + 2)}..{LP_MAX_GRID}")
    y = -np.pi + TWO_PI * np.arange(grid_size) / grid_size
    extra = [wrap_angle(b) for b in getattr(f, "breakpoints", ())]
    if extra:
        y = np.unique(np.concatenate([y, extra]))
        keep = np.concatenate([[True], np.diff(y) > 1e-12])
        y = y[keep]
    fvals = np.asarray(f(y))
    if np.iscomplexobj(fvals):
        raise ValueError("one-sided approximation needs a real-valued function")
    fvals = fvals.astype(float)
    if not np.all(np.isfinite(fvals)):
        raise ValueError("function values must be finite on the grid")
    gaps = np.diff(y, append=y[0] + TWO_PI)
    cells = 0.5 * (gaps + np.roll(gaps, 1))
    basis = _real_basis_matrix(y, n)
    d = 2 * n + 1
    mean_b = (cells @ basis) / TWO_PI
    c = np.concatenate([mean_b, -mean_b])
    zero = np.zeros_like(basis)
    a_ub = np.vstack([
        np.hstack([-basis, zero]),   # -Q(y) <= -f(y)
        np.hstack([zero, basis]),    # q(y) <= f(y)
    ])
    b_ub = np.concatenate([-fvals, fvals])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (2 * d),
                  method="highs")
    converged = bool(res.status == 0)
    if res.x is None:
        raise ArithmeticError(f"one-sided LP failed: {res.message}")
    upper = _real_coeffs_to_poly(res.x[:d], n)
    lower = _real_coeffs_to_poly(res.x[d:], n)
    uv = basis @ res.x[:d]
    lv = basis @ res.x[d:]
    feas = float(max(np.max(fvals - uv, initial=0.0), np.max(lv - fvals, initial=0.0)))
    dual = float(b_ub @ res.ineqlin.marginals) if res.ineqlin is not None else np.nan
    gap = abs(float(res.fun) - dual) if np.isfinite(dual) else np.nan
    value = float(res.fun)
    if -1e-9 < value < 0.0:
        value = 0.0
    return OneSided(value=value, upper=upper, lower=lower,
                    feasibility_gap=feas, duality_gap=gap,
                    converged=converged, n=n, grid_size=int(y.size))


# ----------------------------------------------------------------------------
# Dilation-weighted tail sums
# ----------------------------------------------------------------------------


@dataclass
class BesovSum:
    value: float
    terms: list = field(repr=False)
    truncated: bool = False
    converged: bool = True


def besov_sum(f, n: int, spec: NormSpec, eps: float = 1e-6,
              max_degree: int = MAX_DEGREE,
              cache: Optional[DenseGridCache] = None) -> BesovSum:
    """``sum_{nu>=1} ||dilation(2^-nu)|| E_{2^(nu-1) n}(f)``.

    Stops once a term falls below ``eps`` (converged) or the next degree would
    exceed ``max_degree`` (truncated -- the divergence signal).  Only
    rearrangement-invariant norms (Lebesgue, Orlicz) carry a dilation norm.
    """
    if n < 1:
        raise ValueError("base degree must be >= 1")
    if spec.kind not in ("lebesgue", "orlicz"):
        raise ValueError("dilation sums need a rearrangement-invariant norm")
    max_degree = min(max_degree, MAX_DEGREE)
    if not isinstance(f, TrigPoly) and cache is None:
        cache = build_cache(f, n_scale=max(2 * n, 1))
    terms = []
    total = 0.0
    nu = 1
    truncated = False
    while True:
        deg = int(2 ** (nu - 1) * n)
        if deg > max_degree:
            truncated = True
            break
        if not isinstance(f, TrigPoly) and cache.resolution < 16 * (2 * deg):
            cache = build_cache(f, resolution=max(4096, 32 * deg))
        e = best_approx(f, deg, spec, cache=cache).value
        w = dilation_norm(spec, 2.0 ** (-nu))
        term = w * e
        terms.append({"nu": nu, "degree": deg, "dilation": w, "best": e, "term": term})
        total += term
        if term < eps:
            break
        # once the best-approximation value hits quadrature noise the tail is
        # done even if the growing dilation weight keeps the term above eps
        if e <= 1e-12:
            break
        nu += 1
    return BesovSum(value=total, terms=terms, truncated=truncated,
                    converged=not truncated)


@dataclass
class LemderCheck:
    onesided: float
    derivative_best: float
    ratio: float
    n: int
    r: int


def lemder_check(f: PointwiseFunction, n: int, r: int, spec: NormSpec,
                 grid_size: Optional[int] = None) -> LemderCheck:
    """Ratio of the one-sided gap to ``(n+1)^{-r} E_n(f^{(r)})``."""
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    os = one_sided_best(f, n, spec, grid_size=grid_size)
    deriv = f.derivative_order(r)
    eb = best_approx(deriv, n, spec).value
    scaled = (n + 1.0) ** (-r) * eb
    if os.value <= 0.0:
        ratio = 0.0
    elif scaled > 0.0:
        ratio = os.value / scaled
    else:
        ratio = np.inf
    return LemderCheck(onesided=os.value, derivative_best=eb, ratio=float(ratio),
                       n=n, r=r)
