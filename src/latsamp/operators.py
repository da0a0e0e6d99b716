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

Line operators sum translated kernels against samples ``f(k/sigma)``:

* ``wks`` -- truncated cardinal (sinc) series, with a certified tail bound
  when the signal carries a quadratic decay certificate (``inf`` otherwise);
* ``line_quasi`` -- kernel given by the transform of the window profile
  (closed form for the triangle profile, numeric transform otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import TWO_PI, DenseGridCache, PointwiseFunction, make_uniform_nodes
from .norms import NormSpec, discrete_seminorm, norm
from .trigpoly import (TrigPoly, Window, _as_cache, analyze, apply_window, br_window,
                       dirichlet_window, fejer_window, subtract_poly)

PERIODIC_FAMILIES = ("lagrange", "quasi")
LINE_FAMILIES = ("wks", "line_quasi")


@dataclass(frozen=True)
class OperatorSpec:
    """A named sampling operator family, with its window where applicable."""

    op_id: str
    family: str
    window: Optional[Window] = None

    @property
    def is_periodic(self) -> bool:
        return self.family in PERIODIC_FAMILIES


def parse_operator(text: Union[str, OperatorSpec]) -> OperatorSpec:
    """Parse operator ids: lagrange | fejer | br:<alpha> | wks | linefejer.

    An :class:`OperatorSpec` is returned unchanged, so callers may pass either.
    """
    if isinstance(text, OperatorSpec):
        return text
    t = text.strip().lower()
    if t == "lagrange":
        return OperatorSpec("lagrange", "lagrange", dirichlet_window())
    if t == "fejer":
        return OperatorSpec("fejer", "quasi", fejer_window())
    if t.startswith("br:"):
        try:
            alpha = float(t.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad operator id {text!r}") from None
        return OperatorSpec(t, "quasi", br_window(alpha))
    if t == "wks":
        return OperatorSpec("wks", "wks")
    if t == "linefejer":
        return OperatorSpec("linefejer", "line_quasi", fejer_window())
    raise ValueError(f"bad operator id {text!r}")


Samples = Union[np.ndarray, PointwiseFunction, TrigPoly]


def _node_samples(f: Samples, n: int) -> np.ndarray:
    """f at ``t_j = 2*pi*j/(2n+1)``, j = 0..2n, the order :func:`analyze` reads.

    An array holds the data in ``make_uniform_nodes(n).nodes`` order.
    """
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
    if not op.is_periodic:
        raise ValueError(f"{op.op_id} is not a periodic sampling operator")
    return quasi_interp(f, n, op.window)


@dataclass
class ApproxError:
    """Continuous and node-cell components of ``f - G_n f``."""

    continuous: float
    discrete: float

    @property
    def total(self) -> float:
        return self.continuous + self.discrete


def approx_error(f, op: OperatorSpec, n: int, spec: NormSpec,
                 cache: Optional[DenseGridCache] = None) -> ApproxError:
    """Both error components of the sampling operator at scale n.

    The discrete component samples ``f - G_n f`` exactly at the 2n+1 uniform
    nodes ``G_n`` reads (the declared jump values of f matter here) and takes
    the step-function norm.
    """
    nodes = make_uniform_nodes(n)
    if isinstance(f, TrigPoly):
        f = f.as_pointwise()
    g = apply_operator(op, f, n)
    cont = norm(subtract_poly(_as_cache(f if cache is None else cache, n), g), spec)
    node_vals = f(nodes.nodes) - g.at(nodes.nodes)
    disc = discrete_seminorm(node_vals, nodes, spec)
    return ApproxError(continuous=float(cont), discrete=float(disc))


# ----------------------------------------------------------------------------
# Operators on the line
# ----------------------------------------------------------------------------


def bandlimited_signal(a: float, label: str = "bandlimited") -> PointwiseFunction:
    """``(sin(at)/(at))^2``: band in [-2a, 2a], decay ``|f(t)| <= (1/a^2)/t^2``.

    Spectrally safe for cardinal sampling at rate sigma whenever
    ``2a < pi*sigma``.
    """
    if a <= 0:
        raise ValueError("bandwidth parameter must be positive")

    def ev(t):
        return np.sinc(a * np.asarray(t, dtype=float) / np.pi) ** 2

    return PointwiseFunction(label=label, evaluator=ev, domain="line",
                             smoothness_hint=np.inf, decay=(1.0 / a ** 2, 2.0))


def wks(f: PointwiseFunction, sigma: float, trunc: int, x):
    """Truncated cardinal series ``sum_{|k|<=trunc} f(k/sigma) sinc(sigma x - k)``.

    Returns ``(values, tail_bound)``.  The bound is certified when f carries a
    quadratic decay certificate ``|f(t)| <= C/t^2``; without one, and where
    the bound is not valid (evaluation too close to the truncation edge), the
    entries are ``inf``.
    """
    if sigma <= 0:
        raise ValueError("sampling rate sigma must be positive")
    if trunc < 1:
        raise ValueError("truncation index must be >= 1")
    x = np.asarray(x, dtype=float)
    shape = x.shape
    xf = np.atleast_1d(x).ravel()
    ks = np.arange(-trunc, trunc + 1)
    samples = np.asarray(f(ks / sigma))
    vals = np.zeros(xf.size, dtype=samples.dtype)
    for lo in range(0, xf.size, 2048):
        xc = xf[lo:lo + 2048]
        vals[lo:lo + 2048] = np.sinc(sigma * xc[:, None] - ks[None, :]) @ samples
    tail = _wks_tail_bound(f, sigma, trunc, xf)
    return vals.reshape(shape), tail.reshape(shape)


def _wks_tail_bound(f: PointwiseFunction, sigma: float, trunc: int, x: np.ndarray) -> np.ndarray:
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


def line_quasi(f: PointwiseFunction, sigma: float, trunc: int, x,
               window: Optional[Window] = None) -> np.ndarray:
    """Truncated kernel series ``sum_{|k|<=trunc} f(k/sigma) K(sigma x - k)``."""
    if sigma <= 0:
        raise ValueError("sampling rate sigma must be positive")
    if trunc < 1:
        raise ValueError("truncation index must be >= 1")
    if window is None:
        window = fejer_window()
    x = np.asarray(x, dtype=float)
    shape = x.shape
    xf = np.atleast_1d(x).ravel()
    ks = np.arange(-trunc, trunc + 1)
    samples = np.asarray(f(ks / sigma))
    out = np.zeros(xf.size, dtype=samples.dtype)
    for lo in range(0, xf.size, 1024):
        xc = xf[lo:lo + 1024]
        kern = line_kernel(window, sigma * xc[:, None] - ks[None, :])
        out[lo:lo + 1024] = kern @ samples
    return out.reshape(shape)
