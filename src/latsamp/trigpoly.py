"""Trigonometric polynomials, Fourier analysis of samples, and window profiles.

A :class:`TrigPoly` stores coefficients ``c_k`` for ``k = -n..n`` and evaluates
``T(x) = sum c_k exp(ikx)``.  Sample analysis on the 2n+1 equispaced points
``t_j = 2*pi*j/(2n+1)`` is an exact bijection onto polynomials of degree n (an
FFT of odd length); higher frequencies alias down by ``k mod (2n+1)``.

Values at arbitrary points come from one evaluator, :func:`_horner`: Horner's
rule in ``z = exp(ix)``, split at ``k = 0`` so term k carries an O(|k| eps)
error, as ``exp(ikx)`` does, in O(points) memory.  Its adjoint
:func:`_power_sums` gives ``sum_j v_j exp(-ik x_j)`` the same way.
:meth:`TrigPoly.at` and :func:`kernel_eval` are one call to the first.

Every sum over the nodes of a cache goes through one transform pair instead,
run panel by panel.  Almost every panel of a cache is a uniform cell of width
``2*pi/R`` (``R`` the cache resolution), so its 5 Gauss-Legendre nodes lie on
5 shifted uniform grids of size ``R``.
Synthesis (:func:`_synthesize`, values of a polynomial at the nodes) is one
folded FFT per grid, ``d[k mod R] += c_k exp(ik*start)``, exact for any
degree; analysis (:func:`_analyze`) is its adjoint.  Only the few panels
graded toward breakpoints and 0 go through :func:`_horner` and
:func:`_power_sums`.  A quantity's input becomes its cache in
:func:`_as_cache`, which caches a polynomial at its degree.

Window profiles ``phi`` live on ``[-1, 1]`` and act on coefficients as
``c_k -> phi(k/n) c_k``; their kernels are ``sum phi(k/n) exp(ikx)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .model import GL_NODES, TWO_PI, DenseGridCache, Partition, PointwiseFunction, build_cache

MAX_DEGREE = 4096


def _horner(coeffs: np.ndarray, x) -> np.ndarray:
    """``sum_{|k|<=n} c_k exp(ikx)`` at points ``x``; ``coeffs`` runs k = -n..n.

    With ``z = exp(ix)`` the sum is ``c_0 + z P(z) + conj(z) Q(conj(z))``, and
    ``P`` (positive frequencies) and ``Q`` (negative) each take one Horner pass
    of n steps.  Splitting at k = 0 keeps the error of term k at O(|k| eps);
    one pass over ``z^(k+n)`` would give every term O(n eps).
    """
    x = np.asarray(x, dtype=float)
    # z, p and out are the only arrays of the points' size: z turns into
    # conj(z) in place between the passes
    z = 1j * x.ravel()
    np.exp(z, out=z)
    n = (coeffs.size - 1) // 2
    out = np.full(z.shape, coeffs[n], dtype=complex)
    p = np.empty_like(z)
    for tail in (coeffs[:n:-1], coeffs[:n]):
        p.fill(0.0)
        for c in tail.tolist():
            p += c
            p *= z
        out += p
        np.conj(z, out=z)
    return out.reshape(x.shape)


def _power_sums(x: np.ndarray, v: np.ndarray, kmax: int) -> np.ndarray:
    """``sum_j v_j exp(-ik x_j)`` for ``k = -kmax..kmax``: the adjoint of :func:`_horner`.

    Starts at k = 0 with ``p = v`` and steps outward, multiplying by
    ``conj(z)`` for ``k = 1..kmax`` and by ``z`` for ``k = -1..-kmax``, so
    sum k carries an O(|k| eps) error.
    """
    z = 1j * x
    np.exp(z, out=z)
    out = np.empty(2 * kmax + 1, dtype=complex)
    out[kmax] = np.sum(v)
    p = np.empty_like(z)
    for sign in (1, -1):
        np.conj(z, out=z)
        p[...] = v
        for k in range(1, kmax + 1):
            p *= z
            out[kmax + sign * k] = np.sum(p)
    return out


@dataclass
class TrigPoly:
    """Coefficients ``c_k``, ``k = -degree..degree`` (odd length array)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coefficient array must be 1-d of odd length")
        if c.size > 2 * MAX_DEGREE + 1:
            raise ValueError(f"degree exceeds cap {MAX_DEGREE}")
        self.coeffs = c

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // 2

    @property
    def freqs(self) -> np.ndarray:
        n = self.degree
        return np.arange(-n, n + 1)

    def coeff(self, k: int) -> complex:
        n = self.degree
        if abs(k) > n:
            return 0.0 + 0.0j
        return self.coeffs[k + n]

    # -- evaluation ----------------------------------------------------------

    def at(self, x) -> np.ndarray:
        """Evaluate at arbitrary points, shaped like ``x`` (:func:`_horner`)."""
        return _horner(self.coeffs, x)

    def _fold(self, m: int, start: float) -> np.ndarray:
        """Values at ``start + 2*pi*j/m``, ``j = 0..m-1``, by one folded FFT.

        Frequencies fold onto the grid as ``k mod m``, which is exact at the
        grid points for every degree.
        """
        d = np.zeros(m, dtype=complex)
        ks = self.freqs
        np.add.at(d, np.mod(ks, m), self.coeffs * np.exp(1j * ks * start))
        return np.fft.ifft(d) * m

    def on_uniform_grid(self, m: int) -> np.ndarray:
        """Values at ``-pi + 2*pi*j/m`` for ``j = 0..m-1`` via zero-padded FFT."""
        if m < 2 * self.degree + 1:
            raise ValueError("grid must oversample the degree")
        return self._fold(m, -np.pi)

    def sample_uniform(self, n_nodes: int) -> np.ndarray:
        """Values at ``t_j = 2*pi*j/n_nodes`` (folded FFT, any degree)."""
        return self._fold(n_nodes, 0.0)

    # -- calculus ------------------------------------------------------------

    def derivative(self, order: int = 1) -> "TrigPoly":
        ks = self.freqs
        return TrigPoly(self.coeffs * (1j * ks) ** int(order))

    def as_pointwise(self) -> PointwiseFunction:
        """The polynomial as a function; caches of it are filled by synthesis."""
        return _PolyFunction(label=f"trigpoly{self.degree}", evaluator=self.at, poly=self)

    # -- arithmetic ----------------------------------------------------------

    def _aligned(self, other: "TrigPoly"):
        n = max(self.degree, other.degree)
        a = np.zeros(2 * n + 1, dtype=complex)
        b = np.zeros(2 * n + 1, dtype=complex)
        a[n - self.degree: n + self.degree + 1] = self.coeffs
        b[n - other.degree: n + other.degree + 1] = other.coeffs
        return a, b

    def __add__(self, other):
        a, b = self._aligned(other)
        return TrigPoly(a + b)

    def __sub__(self, other):
        a, b = self._aligned(other)
        return TrigPoly(a - b)

    def __mul__(self, scalar):
        return TrigPoly(self.coeffs * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class _PolyFunction(PointwiseFunction):
    """A polynomial's pointwise function; its caches come from :func:`_synthesize`."""

    poly: Optional[TrigPoly] = field(default=None, compare=False, repr=False)

    def _on_partition(self, part: Partition):
        return _synthesize(self.poly, part)


def analyze(values) -> TrigPoly:
    """Exact Fourier analysis of samples on the 2n+1 equispaced points.

    ``values[j] = f(2*pi*j/(2n+1))``.  The returned degree-n polynomial
    interpolates the samples; frequencies above n alias down modulo 2n+1.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or values.size % 2 != 1:
        raise ValueError("need an odd number of equispaced samples")
    m = values.size
    n = (m - 1) // 2
    if n > MAX_DEGREE:
        raise ValueError(f"degree exceeds cap {MAX_DEGREE}")
    c = np.fft.fft(values) / m
    return TrigPoly(np.concatenate([c[n + 1:], c[: n + 1]]))


def _real_poly(a: np.ndarray) -> TrigPoly:
    """The real ``a0 + sum_j (a_j cos jx + b_j sin jx)`` from ``[a0, a1, b1, a2, b2, ...]``."""
    positive = 0.5 * (a[1::2] - 1j * a[2::2])
    return TrigPoly(np.concatenate([np.conj(positive[::-1]), a[:1], positive]))


# ----------------------------------------------------------------------------
# Window profiles
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """An even profile ``phi`` on [-1, 1] acting multiplicatively on spectra."""

    name: str
    profile: Callable = field(compare=False, repr=False)

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        inside = np.abs(xi) <= 1.0
        vals = np.where(inside, self.profile(np.where(inside, xi, 0.0)), 0.0)
        return vals


def dirichlet_window() -> Window:
    return Window("dirichlet", lambda xi: np.ones_like(xi))


def fejer_window() -> Window:
    return Window("fejer", lambda xi: 1.0 - np.abs(xi))


def br_window(alpha: float) -> Window:
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"smoothing exponent must be positive and finite, got {alpha!r}")
    # the shortest repr that reads back as alpha, so each alpha has its own name
    return Window(f"br:{float(alpha)!r}".removesuffix(".0"), lambda xi: (1.0 - xi * xi) ** alpha)


def apply_window(poly: TrigPoly, window: Window, n: int) -> TrigPoly:
    """Multiply coefficients by ``phi(k/n)``."""
    if n < 1:
        raise ValueError("window scale n must be >= 1")
    return TrigPoly(poly.coeffs * window(poly.freqs / n))


def kernel_eval(window: Window, n: int, x) -> np.ndarray:
    """Kernel values ``sum_{|k|<=n} phi(k/n) exp(ikx)``, shaped like ``x``."""
    if n < 1:
        raise ValueError("window scale n must be >= 1")
    return _horner(window(np.arange(-n, n + 1) / n).astype(complex), x)


# ----------------------------------------------------------------------------
# Fourier coefficients by quadrature, residuals, de la Vallee Poussin means
# ----------------------------------------------------------------------------

Sourceable = Union[TrigPoly, DenseGridCache, PointwiseFunction]


def _gl_starts(resolution: int) -> np.ndarray:
    """Offsets from ``-pi`` of the 5 Gauss-Legendre grids of the uniform cells."""
    return -np.pi + 0.5 * (TWO_PI / resolution) * (GL_NODES + 1.0)


def _synthesize(poly: TrigPoly, part: Partition) -> np.ndarray:
    """(M, 5) values of ``poly`` at a partition's Gauss-Legendre nodes.

    Uniform cells take their node values from 5 folded FFTs, read through the
    partition's cell map; the graded panels go through :meth:`TrigPoly.at`.
    """
    cell_of, _, graded = part.cell_map
    gl = np.empty((cell_of.size, GL_NODES.size), dtype=complex)
    for g, start in enumerate(_gl_starts(part.resolution)):
        gl[:, g] = poly._fold(part.resolution, start)[cell_of]
    gl[graded] = poly.at(part.graded_points)
    return gl


def _analyze(part: Partition, weighted: np.ndarray, kmax: int) -> np.ndarray:
    """``sum_j v_j exp(-ik x_j)`` over a partition's Gauss-Legendre nodes, ``|k| <= kmax``.

    ``weighted`` holds the (M, 5) values ``v`` at the nodes, each already
    times its mass.  The adjoint of :func:`_synthesize`: the uniform cells
    go through 5 FFTs of size ``R``, phase-shifted by ``exp(-ik*start)``
    (exact for every k, which folds as ``k mod R``); the graded panels go
    through :func:`_power_sums`.
    """
    ks = np.arange(-kmax, kmax + 1)
    _, panel_of, graded = part.cell_map
    cells = np.flatnonzero(panel_of >= 0)
    out = np.zeros(ks.size, dtype=complex)
    u = np.zeros(part.resolution, dtype=complex)
    for g, start in enumerate(_gl_starts(part.resolution)):
        u[cells] = weighted[panel_of[cells], g]
        out += np.exp(-1j * ks * start) * np.fft.fft(u)[np.mod(ks, part.resolution)]
    return out + _power_sums(part.graded_points.ravel(), weighted[graded].ravel(), kmax)


def _as_cache(source: Sourceable, n_scale: int) -> DenseGridCache:
    """The cache a quantity at frequency scale ``n_scale`` reads: a cache
    passes through, a function is cached at ``n_scale``, and a polynomial (a
    :class:`TrigPoly` or its :meth:`~TrigPoly.as_pointwise`) at ``max(n_scale, degree)``."""
    if isinstance(source, DenseGridCache):
        return source
    if isinstance(source, TrigPoly):
        source = source.as_pointwise()
    if not isinstance(source, PointwiseFunction):
        raise TypeError(f"cannot cache a {type(source).__name__}")
    if isinstance(source, _PolyFunction):
        n_scale = max(n_scale, source.poly.degree)
    return build_cache(source, n_scale=n_scale)


def fourier_coefficients(source: Sourceable, kmax: int, oversample: int = 8) -> np.ndarray:
    """``(1/2pi) int f(x) exp(-ikx) dx`` for ``k = -kmax..kmax``.

    A polynomial's coefficients are copied.  Other sources are read on
    :func:`_as_cache` at the scale ``kmax`` (a polynomial's function at its
    degree), over the Gauss-Legendre panels (:func:`_analyze`), so declared
    jumps and cusps do not degrade accuracy.  The cache must resolve the
    requested band: resolution >= ``oversample * kmax``.
    """
    if isinstance(source, TrigPoly):
        n = source.degree
        out = np.zeros(2 * kmax + 1, dtype=complex)
        lo = max(-kmax, -n)
        out[lo + kmax: min(kmax, n) + kmax + 1] = source.coeffs[lo + n: min(kmax, n) + n + 1]
        return out
    cache = _as_cache(source, kmax)
    if kmax > 0 and cache.resolution < oversample * kmax:
        raise ValueError(
            f"cache resolution {cache.resolution} too coarse for |k| <= {kmax} "
            f"(need >= {oversample * kmax})")
    return _analyze(cache.partition, cache.gl_weights() * cache.gl_values, kmax) / (2.0 * np.pi)


def subtract_poly(cache: DenseGridCache, poly: TrigPoly) -> DenseGridCache:
    """Residual ``f - T`` as a derived cache on f's partition.

    ``T`` is synthesised on the partition: folded FFTs on the uniform cells,
    :func:`_horner` on the graded panels.
    """
    return cache.spawn(cache.gl_values - _synthesize(poly, cache.partition))


def vp_mean(source: Sourceable, n: int) -> TrigPoly:
    """De la Vallee Poussin mean ``(n+1)^{-1} sum_{m=n}^{2n} S_m f`` (degree 2n).

    Acts on coefficients as a piecewise-linear taper: factor 1 for ``|k| <= n``
    and ``(2n+1-|k|)/(n+1)`` for ``n < |k| <= 2n``; reproduces every polynomial
    of degree <= n.
    """
    if n < 1:
        raise ValueError("vp order must be >= 1")
    coeffs = fourier_coefficients(source, 2 * n, oversample=16)
    ks = np.arange(-2 * n, 2 * n + 1)
    taper = np.minimum(1.0, (2 * n + 1 - np.abs(ks)) / (n + 1))
    return TrigPoly(coeffs * taper)
