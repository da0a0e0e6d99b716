"""Sampling operators: periodic interpolation and quasi-interpolation, and
their truncated analogues on the line.

Periodic operators act on the 2n+1 equispaced samples ``f(2*pi*j/(2n+1))``.
Node data passed as an array are read in the order of
``make_uniform_nodes(n).nodes`` (sorted on ``[-pi, pi)``), the order
:func:`~latsamp.norms.discrete_seminorm` pairs with the node cells:

* ``lagrange`` -- the unique degree-n interpolant (Fourier analysis of the
  samples, an exact bijection);
* ``quasi_interp`` -- interpolant coefficients re-weighted by a window profile
  ``phi(k/n)``; equivalently convolution of the interpolant with the window
  kernel.  ``phi == 1`` recovers Lagrange interpolation.

So an :class:`OperatorSpec` is its id alone (:data:`OP_IDS`); the id gives the window.

Line operators are functions, not ids; they sum translated kernels against
``f(k/sigma)`` for a :class:`LineSignal` ``f``, which no circle quantity accepts:

* ``wks`` -- truncated cardinal (sinc) series, with a certified tail bound
  when the signal carries a quadratic decay certificate (``inf`` otherwise);
* ``line_quasi`` -- kernel given by the transform of the window profile
  (closed form for the triangle profile, numeric transform otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .model import TWO_PI, DenseGridCache, PointwiseFunction, make_uniform_nodes
from .norms import NormSpec, discrete_seminorm, norm
from .trigpoly import (TrigPoly, Window, _as_cache, analyze, apply_window, br_window,
                       dirichlet_window, fejer_window, subtract_poly)

#: The periodic operator ids, as :func:`parse_operator` reads them.
OP_IDS = "lagrange|fejer|br:<alpha>"


@dataclass(frozen=True)
class OperatorSpec:
    """A periodic sampling operator, given by its id: ``lagrange`` (window 1), ``fejer``
    or ``br:<alpha>``.  The window is worked out from the id, so the two cannot disagree."""

    op_id: str
    window: Window = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.op_id == "lagrange":
            window = dirichlet_window()
        elif self.op_id == "fejer":
            window = fejer_window()
        elif self.op_id.startswith("br:"):
            try:
                alpha = float(self.op_id[3:])
            except ValueError:
                raise ValueError(f"bad operator id {self.op_id!r}") from None
            window = br_window(alpha)
            object.__setattr__(self, "op_id", window.name)  # br:1.0 and br:1 are one id
        else:
            raise ValueError(f"bad operator id {self.op_id!r}; pick from {OP_IDS}")
        object.__setattr__(self, "window", window)


def parse_operator(text: Union[str, OperatorSpec]) -> OperatorSpec:
    """The operator of id ``text`` (case and surrounding space ignored); an
    :class:`OperatorSpec` is returned unchanged, so callers may pass either."""
    if isinstance(text, OperatorSpec):
        return text
    return OperatorSpec(text.strip().lower())


Samples = Union[np.ndarray, PointwiseFunction, TrigPoly, DenseGridCache]


def _node_samples(f: Samples, n: int) -> np.ndarray:
    """f at ``t_j = 2*pi*j/(2n+1)``, j = 0..2n, the order :func:`analyze` reads.

    An array holds the data in ``make_uniform_nodes(n).nodes`` order.  A cache
    is sampled by its evaluator, so it must be a base cache.
    """
    if isinstance(f, DenseGridCache):
        if f.fn is None:
            raise ValueError("a derived cache has no exact values at the nodes")
        f = f.fn
    if isinstance(f, PointwiseFunction):
        return np.asarray(f(TWO_PI * np.arange(2 * n + 1) / (2 * n + 1)), dtype=complex)
    if isinstance(f, TrigPoly):
        return f.sample_uniform(2 * n + 1)
    values = np.asarray(f, dtype=complex)
    if values.size != 2 * n + 1:
        raise ValueError(f"need 2n+1 = {2 * n + 1} samples, got {values.size}")
    # the sorted nodes are t_{n+1}, ..., t_{2n} (wrapped below 0), t_0, ..., t_n
    return np.roll(values, n + 1)


def lagrange(f: Samples, n: int) -> TrigPoly:
    """Degree-n interpolant matching f on the 2n+1 equispaced nodes."""
    return analyze(_node_samples(f, n))


def quasi_interp(f: Samples, n: int, window: Window) -> TrigPoly:
    """Window-weighted interpolant: coefficients ``phi(k/n) c_k``."""
    return apply_window(analyze(_node_samples(f, n)), window, n)


def apply_operator(op: OperatorSpec, f: Samples, n: int) -> TrigPoly:
    """``G_n f``, the window-weighted interpolant (``lagrange``'s window is 1)."""
    return quasi_interp(f, n, op.window)


@dataclass
class ApproxError:
    """Continuous and node-cell components of ``f - G_n f``."""

    continuous: float
    discrete: float

    @property
    def total(self) -> float:
        return self.continuous + self.discrete


def approx_error(f, op: OperatorSpec, n: int, spec: NormSpec) -> ApproxError:
    """Both error components of the sampling operator at scale n, for ``f`` a
    function, a polynomial or a base cache (callers share one by passing it).
    The discrete component samples ``f - G_n f`` exactly at the 2n+1 uniform
    nodes ``G_n`` reads (the declared jump values of f matter here) and takes
    the step-function norm.
    """
    cache = _as_cache(f, n)
    return _error_components(cache, apply_operator(op, cache, n), n, spec)


def _error_components(cache: DenseGridCache, g: TrigPoly, n: int,
                      spec: NormSpec) -> ApproxError:
    """:func:`approx_error` of the base cache ``cache`` given ``g = G_n f``."""
    cont = norm(subtract_poly(cache, g), spec)
    nodes = make_uniform_nodes(n)
    disc = discrete_seminorm(cache.fn(nodes.nodes) - g.at(nodes.nodes), nodes, spec)
    return ApproxError(continuous=float(cont), discrete=float(disc))


# ----------------------------------------------------------------------------
# Operators on the line
# ----------------------------------------------------------------------------


#: Elements of one (rows, 2 trunc + 1) block of a truncated line series.
LINE_CHUNK = 1 << 20


@dataclass(frozen=True, eq=False)
class LineSignal:
    """A signal on the whole line, read only by the line operators; it compares
    by identity, as it has no label.

    Parameters
    ----------
    evaluator : callable
        Vectorized map ``t -> values``.
    decay : (C, q) or None
        A certified bound ``|f(t)| <= C/|t|^q`` for ``|t| >= 1``, which
        :func:`wks` turns into a bound on its truncation tail.
    """

    evaluator: Callable = field(repr=False)
    decay: Optional[tuple] = None

    def __call__(self, t):
        return np.asarray(self.evaluator(np.asarray(t, dtype=float)))


def _line_series(f: LineSignal, sigma: float, trunc: int, x, kernel) -> np.ndarray:
    """``sum_{|k|<=trunc} f(k/sigma) kernel(sigma x - k)``, in blocks of at most
    :data:`LINE_CHUNK` kernel values (one row, whatever ``trunc``)."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sampling rate sigma must be positive and finite, got {sigma!r}")
    if type(trunc) is bool or not isinstance(trunc, (int, np.integer)) or trunc < 1:
        raise ValueError(f"truncation index trunc must be an integer >= 1, got {trunc!r}")
    x = np.asarray(x, dtype=float)
    xf = x.ravel()
    ks = np.arange(-trunc, trunc + 1)
    samples = np.asarray(f(ks / sigma))
    out = np.zeros(xf.size, dtype=samples.dtype)
    rows = max(1, LINE_CHUNK // ks.size)
    for lo in range(0, xf.size, rows):
        out[lo:lo + rows] = kernel(sigma * xf[lo:lo + rows, None] - ks) @ samples
    return out.reshape(x.shape)


def bandlimited_signal(a: float) -> LineSignal:
    """``(sin(at)/(at))^2``: band in [-2a, 2a], decay ``|f(t)| <= (1/a^2)/t^2``.

    Spectrally safe for cardinal sampling at rate sigma whenever
    ``2a < pi*sigma``.
    """
    if not (np.isfinite(a) and a > 0):
        raise ValueError(f"bandwidth parameter a must be positive and finite, got {a!r}")

    def ev(t):
        return np.sinc(a * np.asarray(t, dtype=float) / np.pi) ** 2

    return LineSignal(ev, decay=(1.0 / a ** 2, 2.0))


def wks(f: LineSignal, sigma: float, trunc: int, x):
    """Truncated cardinal series ``sum_{|k|<=trunc} f(k/sigma) sinc(sigma x - k)``.

    Returns ``(values, tail_bound)``.  The bound is certified when the line
    signal f carries a quadratic decay certificate ``|f(t)| <= C/t^2``
    (:attr:`LineSignal.decay`); without one, and where the bound is not valid
    (evaluation too close to the truncation edge), the entries are ``inf``.
    """
    vals = _line_series(f, sigma, trunc, x, np.sinc)
    return vals, _wks_tail_bound(f, sigma, trunc, np.asarray(x, dtype=float))


def _wks_tail_bound(f: LineSignal, sigma: float, trunc: int, x: np.ndarray) -> np.ndarray:
    if f.decay is None or f.decay[1] != 2.0:
        return np.full(x.shape, np.inf)
    c2 = float(f.decay[0])
    # sum_{k>K} C sigma^2/k^2 * 1/(pi (k - sigma x)) and mirror image
    margin_r = trunc + 1.0 - sigma * x
    margin_l = trunc + 1.0 + sigma * x
    with np.errstate(divide="ignore"):
        br = np.where(margin_r > 0, 1.0 / margin_r, np.inf)
        bl = np.where(margin_l > 0, 1.0 / margin_l, np.inf)
    return c2 * sigma ** 2 / (np.pi * trunc) * (br + bl)


def line_kernel(window: Window, x) -> np.ndarray:
    """Transform kernel ``(1/2pi) int_{-1}^{1} phi(xi) exp(-i x xi) dxi``.

    The triangle profile has the closed form ``(1/2pi) (sin(x/2)/(x/2))^2``;
    other windows use 400-point Gauss-Legendre on [0, 1] (profiles are even).
    """
    x = np.asarray(x, dtype=float)
    if window.name == "fejer":
        return np.sinc(x / (2.0 * np.pi)) ** 2 / TWO_PI
    gx, gw = np.polynomial.legendre.leggauss(400)
    xi = 0.5 * (gx + 1.0)
    w = 0.5 * gw * np.asarray(window(xi))
    shape = x.shape
    xf = np.atleast_1d(x).ravel()
    out = np.empty(xf.size)
    for lo in range(0, xf.size, 2048):
        xc = xf[lo:lo + 2048]
        out[lo:lo + 2048] = np.cos(xc[:, None] * xi[None, :]) @ w / np.pi
    return out.reshape(shape)


def line_quasi(f: LineSignal, sigma: float, trunc: int, x,
               window: Optional[Window] = None) -> np.ndarray:
    """Truncated kernel series ``sum_{|k|<=trunc} f(k/sigma) K(sigma x - k)``."""
    window = fejer_window() if window is None else window
    return _line_series(f, sigma, trunc, x, lambda t: line_kernel(window, t))
