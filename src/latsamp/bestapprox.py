"""Best approximation by trigonometric polynomials, one-sided variants, and
dilation-weighted tail sums.

* ``best_approx`` -- exact L2 projection; otherwise a de la Vallee Poussin
  near-best of degree <= n, optionally refined.  For L1 of real samples the
  refined value is E_n(f)_1 itself, certified by Markov's sign criterion at
  the canonical points (no LP, no quadrature across a kink of ``|f - T|``);
  where that certificate fails, and for weighted L1, an active-set LP on the
  cache's nodes with a duality-gap certificate, up to degree
  :data:`LP_MAX_DEGREE`; reweighted least squares for every other norm.
  Each reweighted step is scaled by a line search on the norm: exact in one
  sort (a weighted median) for L1 of real samples, Brent's method otherwise,
  where each Luxemburg solve starts from the previous evaluation's norm.
* ``one_sided_best`` -- the pair ``q <= f <= Q`` of degree-n polynomials with
  minimal discretized L1 gap, solved as a linear program on a dense grid
  (scipy HiGHS); reports feasibility and duality gaps.
* ``besov_sum`` -- ``sum_nu ||dilation(2^-nu)|| * E_{2^(nu-1) n}(f)``, the
  dilation-weighted series whose convergence characterizes when the
  interpolation error is controlled by best approximation alone.
* ``lemder_check`` -- ratio of the one-sided value against
  ``(n+1)^{-r}`` times the best approximation of the r-th derivative, which
  the caller passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_toeplitz
from scipy.optimize import linprog, minimize_scalar

from .model import (TWO_PI, DenseGridCache, Partition, PointwiseFunction, build_cache,
                    wrap_angle)
from .norms import NormSpec, _cache_mass, _measure_norm, dilation_norm, norm
from .trigpoly import (MAX_DEGREE, TrigPoly, _analyze, _as_cache, _real_poly, _synthesize,
                       fourier_coefficients, subtract_poly, vp_mean)

LP_MAX_DEGREE = 32
LP_MAX_GRID = 2048

# the L1 IRLS start stops below this relative decrease; the first LP has
# this many free nodes per unknown
L1_START_TOL = 1e-6
LP_START_COLUMNS = 16
# duality gap accepted, relative to ||f|| (sum m |f| / 2pi); at HiGHS's default
# feasibility tolerances (1e-7) the gap can stay near 1e-10
GAP_TOL = 1e-12
LP_TOL = 1e-10
IRLS_MAX_STEPS = 100
IRLS_TOL = 1e-14
# weights m |r|^(p-2) see |r| no smaller than this share of max |r|
IRLS_FLOOR = 1e-9
# the sign certificate ignores a node only where |r| is within this share of
# max |f|; a canonical point this close to a declared breakpoint is that
# breakpoint; the canonical shift is bisected to this width
SIGN_BAND = 1e-12
SNAP_TOL = 1e-13
BISECT_TOL = 4.0 * np.finfo(float).eps * np.pi
# one_sided_best's feasibility tolerance, relative to max |f| on its grid:
# HiGHS's primal feasibility tolerance, which HiGHS applies absolutely, so
# one_sided_best solves for f scaled by a power of two to max |f| in [1/2, 1)
ONE_SIDED_FEAS_TOL = 1e-7


@dataclass
class BestApprox:
    """A best approximation: its polynomial, its value and its route.

    ``method`` is ``'projection'`` (L2), ``'vp'``, ``'refined'`` (the sign
    certificate for L1 of real samples, reweighted least squares for other
    norms) or ``'refined-lp'`` (the L1 linear program).  ``gap`` is NaN off
    the refined routes; on them:

    * sign certificate: the width the sign check leaves, 0 when every cache
      node agrees, so E_n lies in ``[value, value + gap]``;
    * linear program: its duality gap;
    * reweighted least squares: the last relative decrease.
    """

    poly: TrigPoly
    value: float
    method: str
    gap: float = np.nan


def best_approx(f, n: int, spec: NormSpec, method: str = "auto") -> BestApprox:
    """Degree-n best (or near-best) approximation in the given norm.

    In L2, ``method='auto'`` returns the exact minimizer, the Fourier partial
    sum (labelled ``'projection'``).  Elsewhere the detrended de la Vallee
    Poussin mean ``V_{floor(n/2)}`` (degree <= n) is a near-best start;
    ``method='refined'`` minimizes the norm of the residual.  In unweighted
    L1 of real samples it first tries Markov's sign criterion
    (:func:`_l1_sign_criterion`): where it certifies, the value is the
    integral E_n(f)_1, read from the residual's antiderivative, and no LP
    runs.  Otherwise, and in weighted L1 of real samples, an active-set
    linear program minimizes the residual's norm on the cache's quadrature
    nodes from the near-best start (:func:`_l1_active_set`, labelled
    ``'refined-lp'``; it takes n <= :data:`LP_MAX_DEGREE` and raises
    ``ValueError`` above).  Every other norm goes through iteratively
    reweighted least squares on the nodes (:func:`_irls`).  All of it runs
    on ``f`` if it is a cache, which is how callers share one, or else on a
    cache of ``f`` at the scale ``2n``, or at its degree if larger.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n > MAX_DEGREE:
        raise ValueError(f"degree exceeds cap {MAX_DEGREE}")
    if method not in ("auto", "vp", "refined"):
        raise ValueError(f"unknown method {method!r}")
    cache = _as_cache(f, 2 * n)

    if method == "auto" and spec.kind == "lebesgue" and spec.p == 2.0:
        poly = TrigPoly(fourier_coefficients(cache, n))
        return BestApprox(poly, norm(subtract_poly(cache, poly), spec), "projection")

    real_l1 = (method == "refined" and spec.p == 1.0
               and not np.any(np.imag(cache.gl_values)))
    if real_l1 and spec.kind == "lebesgue":
        certified = _l1_sign_criterion(cache, n)
        if certified is not None:
            poly, value, gap = certified
            return BestApprox(poly, value, "refined", gap)
    if n >= 2:
        poly = vp_mean(cache, n // 2)
    else:
        poly = TrigPoly(fourier_coefficients(cache, n))
    if method != "refined":
        return BestApprox(poly, norm(subtract_poly(cache, poly), spec), "vp")
    poly = TrigPoly(fourier_coefficients(poly, n))
    mass = _cache_mass(cache, spec)
    if real_l1:
        poly, value, gap = _l1_active_set(cache, mass, poly, spec)
        return BestApprox(poly, value, "refined-lp", gap)
    poly, _, value, gap = _irls(cache, mass, poly, spec)
    return BestApprox(poly, value, "refined", gap)


def _alternating_sum(v: np.ndarray) -> float:
    """``sum_j (-1)^j v_j``."""
    return float(np.sum(v[::2]) - np.sum(v[1::2]))


def _canonical_points(cache: DenseGridCache, m: int):
    """Markov's canonical points of degree m, ``z_j = x0 + j h``,
    ``h = pi/(m+1)``, ``j < 2m+2``, and values ``v`` of f at them whose
    alternating sum is 0.  Returns ``(x0, z, v)``.

    ``g(x) = sum_j (-1)^j f(x + j h)`` turns sign over one step,
    ``g(x + h) = -g(x)``, so ``[0, h]`` brackets a sign change, which
    bisection on :meth:`~latsamp.model.DenseGridCache.values_at` narrows to
    :data:`BISECT_TOL`.  Where g changes sign by a jump, some ``z_j``
    crosses a declared breakpoint of f: x0 is then put so that ``z_j`` is
    that breakpoint exactly (a bisection that starts at a rounding-level
    ``g(0)`` would otherwise creep towards it and read f on the wrong
    side), and the points on breakpoints share the correction that zeroes
    the alternating sum.
    """
    h = np.pi / (m + 1)
    j = np.arange(2 * m + 2)

    def g(x):
        return _alternating_sum(np.real(cache.values_at(x + j * h)))

    lo, hi, g_lo = 0.0, h, g(0.0)
    if g_lo == 0.0:
        hi = lo
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            lo = hi = mid
        elif (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    breaks = np.asarray(cache.fn.breakpoints if cache.fn is not None else (), dtype=float)
    # a breakpoint moved by whole steps h into the bracket is the canonical shift
    moved = breaks - h * np.round((breaks - lo) / h)
    inside = moved[(lo - SNAP_TOL <= moved) & (moved <= hi + SNAP_TOL)]
    x0 = float(inside[0]) if inside.size else lo
    z = x0 + j * h
    on_break = np.zeros(z.size, dtype=bool)
    for b in breaks:
        turns = np.round((z - b) / TWO_PI)
        hit = np.abs(z - b - turns * TWO_PI) <= SNAP_TOL
        z[hit] = b + turns[hit] * TWO_PI
        on_break |= hit
    v = np.real(cache.values_at(z)).astype(float)
    if on_break.any():
        v[on_break] -= (-1.0) ** j[on_break] * (_alternating_sum(v) / np.count_nonzero(on_break))
    return x0, z, v


def _l1_sign_criterion(cache: DenseGridCache, n: int):
    """E_n(f)_1 of real samples by Markov's sign criterion, or None.

    For m = n, then m = n + 1 (residuals with 2n + 4 sign changes, such as
    a pi-periodic f at even n), T is the degree-n part of the interpolant at
    the canonical points ``z_j`` (:func:`_canonical_points`), from one FFT of
    length 2m + 2.  ``s = sign sin((m+1)(x - x0))`` is orthogonal to
    ``T_m``, which holds ``T_n``.  So if the residual ``r = f - T`` has the
    sign of ``sigma s`` at every cache node, then for every P in ``T_n``,
    ``int |f - P| >= sigma int (f - P) s = sigma int r s``, with equality at
    T: T is best, and ``E_n = sigma int r s / 2pi``.  That integral is read
    from r's antiderivative at the ``z_j``; r has the size of E_n, so the
    reads do not cancel as reads of f's would.

    The sign check ignores a node only where ``|r|`` is within
    :data:`SIGN_BAND` of ``max |f|``.  The returned gap, twice the nodes'
    share of ``int |r| / 2pi`` over the ignored nodes, bounds what they
    leave: E_n lies in ``[value, value + gap]``, and gap is 0 when every
    node agrees.  Returns ``(poly, value, gap)``, or None when neither m
    certifies.
    """
    band = SIGN_BAND * np.abs(cache.gl_values).max(initial=0.0)
    points = cache.gl_points()
    k = np.arange(n + 1)
    for m in (n, n + 1):
        x0, z, v = _canonical_points(cache, m)
        c = np.fft.rfft(v)[:n + 1] * np.exp(-1j * k * x0) / v.size
        poly = TrigPoly(np.concatenate([np.conj(c[:0:-1]), c]))
        resid = subtract_poly(cache, poly)
        ends = np.real(resid.antiderivative(np.append(z, z[0] + TWO_PI)))
        signed = _alternating_sum(np.diff(ends)) / TWO_PI
        r = resid.gl_values.real
        s = np.copysign(1.0, signed) * np.sign(np.sin((m + 1) * (points - x0)))
        off = r * s < 0.0
        if np.isfinite(signed) and np.all(np.abs(r[off]) <= band):
            gap = 2.0 * float(np.sum(cache.gl_weights()[off] * np.abs(r[off]))) / TWO_PI
            return poly, abs(signed), gap
    return None


def _wls_step(part: Partition, w: np.ndarray, r: np.ndarray, n: int) -> np.ndarray:
    """Coefficients ``d_k``, ``|k| <= n``, minimizing ``sum w |r - sum d_k exp(ikx)|^2``
    over the (M, 5) nodes ``x`` of the partition.

    The normal matrix is Hermitian Toeplitz, ``G[k, l] = sum w exp(-i(k-l)x)``,
    so one :func:`~latsamp.trigpoly._analyze` of order 2n gives all of it.
    """
    s = _analyze(part, w, 2 * n)
    return solve_toeplitz((s[2 * n:], s[2 * n::-1]), _analyze(part, w * r, n))


def _l1_active_set(cache: DenseGridCache, mass: np.ndarray, poly: TrigPoly,
                   spec: NormSpec):
    """Exact discrete L1 best approximation of real samples, by its dual LP.

    ``min_a sum m |f - T_a|`` has the dual ``max sum u f`` subject to
    ``sum u_j phi(x_j) = 0`` for every real basis function ``phi`` and
    ``|u_j| <= m_j``; at the optimum ``u_j = m_j sign(r_j)`` wherever the
    residual ``r`` is not 0.  The start, :func:`_irls` at rank ``k - 1``,
    places the sign changes.  Only the k nodes with the smallest ``|r|`` stay
    free in the LP; the rest are fixed at ``m_j sign(r_j)``.  The LP's
    equality multipliers are the real coefficients of ``T``, and
    ``(sum m |r| - sum u f) / 2pi`` is the duality gap of the full problem.
    k starts at :data:`LP_START_COLUMNS` per unknown and doubles while the LP
    is infeasible or the gap exceeds :data:`GAP_TOL` of ``||f||``; k = all
    nodes is the full LP.  A start whose value is already within that
    tolerance (f of degree <= n) is returned with no LP: ``u = 0`` certifies
    it, with gap the value.  Returns ``(poly, value, gap)``.

    Each LP grows steeply with n, so the route takes n <= :data:`LP_MAX_DEGREE`
    and raises ``ValueError`` above, before any work.  It serves weighted L1,
    and f that the sign certificate (:func:`_l1_sign_criterion`) leaves.
    """
    n = poly.degree
    if n > LP_MAX_DEGREE:
        raise ValueError(f"the L1 linear-program route of best_approx takes degree "
                         f"<= LP_MAX_DEGREE = {LP_MAX_DEGREE}, got {n}")
    x, m = cache.gl_points().ravel(), mass.ravel()
    k = min(LP_START_COLUMNS * (2 * n + 1), x.size)
    poly, resid, value, _ = _irls(cache, mass, poly, spec, rank=k - 1)
    f = cache.gl_values.real.ravel()
    tol = GAP_TOL * _measure_norm(np.abs(cache.gl_values), mass, spec)
    if value <= tol:
        # u = 0 is dual feasible with objective 0: the gap is the value itself
        return poly, value, value
    r = resid.real.ravel()
    while True:
        free = np.argpartition(np.abs(r), k - 1)[:k]
        u = m * np.sign(r)
        u[free] = 0.0
        # sum u exp(-ijx) = sum u cos(jx) - i sum u sin(jx): the fixed nodes'
        # sums against the real basis 1, cos x, sin x, cos 2x, ...
        s = _analyze(cache.partition, u.reshape(mass.shape), n)[n:]
        fixed = np.delete(np.column_stack([s.real, -s.imag]).ravel(), 1)
        res = linprog(-f[free], A_eq=_real_basis_matrix(x[free], n).T, b_eq=-fixed,
                      bounds=np.column_stack([-m[free], m[free]]), method="highs",
                      options={"primal_feasibility_tolerance": LP_TOL,
                               "dual_feasibility_tolerance": LP_TOL})
        if res.status == 0:
            u[free] = res.x
            poly = _real_poly(-res.eqlin.marginals)
            resid = subtract_poly(cache, poly).gl_values
            value = _measure_norm(np.abs(resid), mass, spec)
            gap = value - float(np.sum(u * f)) / TWO_PI
            if gap <= tol or k == x.size:
                return poly, value, gap
        elif res.status != 2 or k == x.size:
            raise ArithmeticError(f"L1 best-approximation LP failed: {res.message}")
        k = min(2 * k, x.size)


def _irls(cache: DenseGridCache, mass: np.ndarray, poly: TrigPoly, spec: NormSpec,
          rank: int = 0):
    """Minimize ``||f - T||`` over complex coefficients by reweighted least squares.

    The weights make the weighted least-squares normal equations the
    stationarity condition of the norm: ``m |r|^(p-2)`` for Lebesgue and
    weighted norms, ``m Phi'(|r|/lambda) / |r|`` for the Luxemburg norm of
    ``Phi(t) = t log(1+t)`` at ``lambda = ||r||``.  ``|r|`` is clamped below
    at :data:`IRLS_FLOOR` of its maximum, positive unless ``r = 0``, where the
    loop stops.  A step is kept only if the norm decreases, so the value never
    rises above the start's.  ``rank`` is the one switch.  At 0, each step is
    scaled by Brent's search on the norm (:func:`_line_search`) and the loop
    stops below :data:`IRLS_TOL` relative decrease.  Above 0 the caller
    vouches for L1 of real samples, smoothed for a start: the floor is raised
    to the ``|r|`` of that rank (from 0, the smallest), the step is the exact
    weighted median (:func:`_l1_step`), and the stop is :data:`L1_START_TOL`.
    At most :data:`IRLS_MAX_STEPS` steps.  Returns ``(poly, resid, value,
    gap)``: the residual's cache samples, and the last relative decrease.
    """
    n, part = poly.degree, cache.partition
    tol = L1_START_TOL if rank else IRLS_TOL
    resid = subtract_poly(cache, poly).gl_values
    value = _measure_norm(np.abs(resid), mass, spec)
    gap = 0.0
    for _ in range(IRLS_MAX_STEPS):
        if value == 0.0:
            break
        step = _wls_step(part, _irls_weights(resid, value, mass, spec, rank), resid, n)
        d = _synthesize(TrigPoly(step), part)
        t = (_l1_step(resid.real.ravel(), d.real.ravel(), mass.ravel()) if rank
             else _line_search(resid, d, mass, spec))
        trial = TrigPoly(poly.coeffs + t * step)
        trial_resid = subtract_poly(cache, trial).gl_values
        trial_value = _measure_norm(np.abs(trial_resid), mass, spec)
        gap = max(value - trial_value, 0.0) / value
        if trial_value >= value:
            break
        poly, resid, value = trial, trial_resid, trial_value
        if gap <= tol:
            break
    return poly, resid, value, gap


def _irls_weights(resid: np.ndarray, value: float, mass: np.ndarray, spec: NormSpec,
                  rank: int) -> np.ndarray:
    """IRLS weights at the residual ``resid`` of norm ``value`` (see :func:`_irls`)."""
    w = np.abs(resid)
    if spec.kind == "orlicz":
        w /= value
        np.maximum(w, 1e-300, out=w)
        w = (np.log1p(w) + w / (1.0 + w)) / w
    else:
        floor = IRLS_FLOOR * w.max()
        if rank:
            floor = max(floor, np.partition(w.ravel(), rank)[rank])
        np.power(np.maximum(w, floor, out=w), spec.p - 2.0, out=w)
    w *= mass
    return w


def _line_search(resid: np.ndarray, d: np.ndarray, mass: np.ndarray, spec: NormSpec) -> float:
    """The ``t`` minimizing ``||resid - t d||`` by Brent's :func:`minimize_scalar`.

    Off L1 of real samples (:func:`_l1_step`) every norm is smooth along the
    line.  A Luxemburg norm starts each root search at the norm of the
    previous evaluation, which is close once the search narrows.
    """
    # the objective runs a dozen times; a fresh temporary of this size would
    # be an mmap and its page faults on every call
    work = np.empty(resid.shape, dtype=complex)
    mag = np.empty(resid.shape)
    last = None

    def objective(t):
        nonlocal last
        np.multiply(d, t, out=work)
        np.subtract(resid, work, out=work)
        value = _measure_norm(np.abs(work, out=mag), mass, spec, scale=last)
        if 0.0 < value < np.inf:
            last = value
        return value

    return minimize_scalar(objective, bracket=(0.0, 1.0)).x


def _l1_step(r: np.ndarray, d: np.ndarray, m: np.ndarray) -> float:
    """The ``t`` minimizing ``sum m |r - t d|`` over real ``r``, ``d``.

    The sum is ``sum m_j |d_j| |r_j / d_j - t|`` plus the constant terms of
    ``d_j = 0``: piecewise linear and convex in ``t``, with its kinks at
    ``r_j / d_j``.  Its minimizer is their weighted median, the first kink
    in sorted order at which the cumulative weight ``m_j |d_j|`` reaches half
    the total.  0 when ``d`` vanishes.
    """
    live = d != 0.0
    if not live.any():
        return 0.0
    kinks = r[live] / d[live]
    order = np.argsort(kinks)
    cum = np.cumsum((m[live] * np.abs(d[live]))[order])
    return float(kinks[order[np.searchsorted(cum, 0.5 * cum[-1])]])


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


def one_sided_best(f: PointwiseFunction, n: int, spec: NormSpec,
                   grid_size: Optional[int] = None) -> OneSided:
    """Minimal-gap one-sided envelope in the (discretized) L1 norm.

    Constraints ``q(y_i) <= f(y_i) <= Q(y_i)`` on a uniform grid of
    ``grid_size`` points merged with every declared breakpoint of ``f`` (where
    the declared pointwise value applies).  The objective is the cell-weighted
    grid sum ``(2pi)^{-1} sum_j (Q - q)(y_j) dy_j``; on a purely uniform grid
    this integrates degree-n polynomials exactly.  Always feasible (constants
    work), bounded below by 0.  ``converged`` means HiGHS reported an optimum
    and the envelopes cross f on the grid by at most
    :data:`ONE_SIDED_FEAS_TOL` of ``max |f|`` there.  The LP is solved for
    ``2^-e f`` with ``max |2^-e f|`` in ``[1/2, 1)``, so ``c f`` for a power of
    two ``c`` gives ``c`` times the result for ``f``, bit for bit.
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
    # HiGHS's tolerances are absolute, so the LP is solved for 2^-e f with
    # max |2^-e f| in [1/2, 1); scaling its results back by 2^e is exact
    e = int(np.frexp(np.max(np.abs(fvals), initial=0.0))[1])
    fvals = np.ldexp(fvals, -e)
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
    if res.x is None:
        raise ArithmeticError(f"one-sided LP failed: {res.message}")
    uv = basis @ res.x[:d]
    lv = basis @ res.x[d:]
    feas = float(max(np.max(fvals - uv, initial=0.0), np.max(lv - fvals, initial=0.0)))
    dual = float(b_ub @ res.ineqlin.marginals) if res.ineqlin is not None else np.nan
    gap = abs(float(res.fun) - dual) if np.isfinite(dual) else np.nan
    converged = bool(res.status == 0
                     and feas <= ONE_SIDED_FEAS_TOL * np.max(np.abs(fvals), initial=0.0))
    value = float(res.fun)
    if -1e-9 < value < 0.0:
        value = 0.0
    return OneSided(value=float(np.ldexp(value, e)),
                    upper=_real_poly(np.ldexp(res.x[:d], e)),
                    lower=_real_poly(np.ldexp(res.x[d:], e)),
                    feasibility_gap=float(np.ldexp(feas, e)),
                    duality_gap=float(np.ldexp(gap, e)),
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
              max_degree: int = MAX_DEGREE) -> BesovSum:
    """``sum_{nu>=1} ||dilation(2^-nu)|| E_{2^(nu-1) n}(f)``.

    Each level, ``terms[i]["best"]``, is ``best_approx(method='auto')``: exact
    in L2, the de la Vallee Poussin near-best value (not ``E_d``) in any other
    norm.  Levels run on ``f`` if it is a cache, else on one of ``f`` at the
    scale ``2n`` (at a polynomial's degree if larger); a level d with ``32 d``
    above its resolution uses a cache built at ``max(4096, 32 d)``, which a
    derived cache (no evaluator to rebuild from) cannot give: ``ValueError``.
    Levels are memoized by ``(d, spec)`` in ``cache.best``, so callers
    passing one cache compute each once.

    Stops once a term falls below a positive finite ``eps`` (converged) or the
    next degree would exceed ``max_degree`` (truncated -- the divergence
    signal).  Only rearrangement-invariant norms (Lebesgue, Orlicz) carry a
    dilation norm, a closed form: level nu weighs ``2^(nu/p)``, or ``2^nu`` in llogl.
    """
    if n < 1:
        raise ValueError("base degree must be >= 1")
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if spec.kind not in ("lebesgue", "orlicz"):
        raise ValueError("dilation sums need a rearrangement-invariant norm")
    max_degree = min(max_degree, MAX_DEGREE)
    cache = _as_cache(f, 2 * n)
    memo = cache.best
    terms = []
    total = 0.0
    nu = 1
    truncated = False
    while True:
        deg = int(2 ** (nu - 1) * n)
        if deg > max_degree:
            truncated = True
            break
        e = memo.get((deg, spec))
        if e is None:
            if cache.resolution < 32 * deg:
                if cache.fn is None:
                    raise ValueError("cannot refine a derived cache; rebuild the base cache")
                cache = build_cache(cache.fn, resolution=max(4096, 32 * deg))
            e = memo[deg, spec] = best_approx(cache, deg, spec).value
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
                 derivative: PointwiseFunction) -> LemderCheck:
    """Ratio of the one-sided gap of f to ``(n+1)^{-r} E_n(f^{(r)})``, where
    ``derivative`` is f^(r), given by the caller (any source
    :func:`best_approx` takes); nothing checks that it is f's derivative."""
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    os = one_sided_best(f, n, spec)
    eb = best_approx(derivative, n, spec).value
    scaled = (n + 1.0) ** (-r) * eb
    if os.value <= 0.0:
        ratio = 0.0
    elif scaled > 0.0:
        ratio = os.value / scaled
    else:
        ratio = np.inf
    return LemderCheck(onesided=os.value, derivative_best=eb, ratio=float(ratio),
                       n=n, r=r)
