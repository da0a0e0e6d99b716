"""Pointwise function model, node sets, and dense quadrature caches on the circle.

Everything downstream (norms, window averages, sampling operators) consumes the
types defined here:

* :class:`PointwiseFunction` -- an exact vectorized evaluator with declared
  breakpoints and jump values, so sampling at a discontinuity is well defined.
* :class:`NodeSet` -- sampling nodes on ``[-pi, pi)`` with mesh constants.
* :class:`Partition` -- a breakpoint-aware Gauss-Legendre panel partition, built
  once by the memoized :func:`partition` and shared read-only by every cache on it.
* :class:`DenseGridCache` -- node values and an antiderivative (prefix) table.

The cache is the single quadrature surface of the package: panel integrals are
5-point Gauss-Legendre, panels are split at declared breakpoints and graded
geometrically toward them (and toward ``x = 0``, where the weighted norms are
singular), so piecewise and cusped integrands integrate to near machine
accuracy without adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * np.pi

# Reference 5-point Gauss-Legendre rule on [-1, 1].
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

# int_{-1}^{t} of the degree-4 interpolant of values v at GL_NODES is
# sum_m (_GL_INTEGRAL @ v)[m] t^m; row 0 makes it vanish at t = -1.
_GL_INTEGRAL = np.linalg.inv(np.vander(GL_NODES, 5, increasing=True)) / np.arange(1, 6)[:, None]
_GL_INTEGRAL = np.vstack([-((-1.0) ** np.arange(1, 6)) @ _GL_INTEGRAL, _GL_INTEGRAL])

#: Default number of uniform base panels for a cache.
DEFAULT_RESOLUTION = 4096

#: Oversampling factor tying cache resolution to the largest frequency scale.
OVERSAMPLE = 64

#: A window average must span at least this many uniform grid steps.
MIN_PANELS_PER_WINDOW = 64

#: Largest partition resolution: the window resolution of the default width
#: ``pi/(2n+1)`` at the degree cap n = 4096.  A tiny mesh parameter asks for
#: far more (2^32 cells at gamma = 1e-6, n = 8: 34 GB of edges alone).
MAX_RESOLUTION = 1 << 21


def wrap_angle(x):
    """Map angles to the canonical period ``[-pi, pi)``."""
    x = np.asarray(x, dtype=float)
    return np.mod(x + np.pi, TWO_PI) - np.pi


@dataclass(frozen=True)
class PointwiseFunction:
    """A function given by an exact vectorized evaluator.

    Parameters
    ----------
    label : str
        Short identifier used in reports.
    evaluator : callable
        Vectorized map ``x -> values`` (real or complex).  At declared
        breakpoints it must return the declared jump value, so pointwise
        sampling is unambiguous.
    domain : str
        ``"circle"`` (2pi-periodic) or ``"line"``.
    breakpoints : tuple of float
        Locations in ``[-pi, pi)`` where the function (or a derivative) is not
        smooth.  Quadrature panels are split and graded there.
    smoothness_hint : float or None
        Expected approximation order, when known (used only for reporting).
    derivative : PointwiseFunction or None
        Exact derivative, when available.
    decay : (C, q) or None
        For line-domain signals: a certified bound ``|f(t)| <= C/|t|^q`` for
        ``|t| >= 1``, used by truncated sampling sums to bound their tails.
    """

    label: str
    evaluator: Callable = field(compare=False, repr=False)
    domain: str = "circle"
    breakpoints: tuple = ()
    smoothness_hint: Optional[float] = None
    derivative: Optional["PointwiseFunction"] = field(default=None, repr=False)
    decay: Optional[tuple] = None

    def __call__(self, x):
        vals = self.evaluator(np.asarray(x, dtype=float))
        return np.asarray(vals)

    def _on_partition(self, part: "Partition"):
        """(M, 5) values at the Gauss-Legendre nodes of a panel partition.

        :func:`build_cache` fills every cache through this hook.  Functions
        with spectral structure override it (trigonometric polynomials are
        synthesised by FFT on the uniform cells of the partition).
        """
        gl_x = part.gl_points()
        return self(gl_x.ravel()).reshape(gl_x.shape)

    def derivative_order(self, r: int) -> "PointwiseFunction":
        """Return the r-th derivative, chaining :attr:`derivative` r times."""
        f = self
        for _ in range(int(r)):
            if f.derivative is None:
                raise ValueError(f"{f.label}: no exact derivative available")
            f = f.derivative
        return f


@dataclass(frozen=True)
class NodeSet:
    """Sampling nodes on ``[-pi, pi)`` with mesh constants.

    ``gamma`` and ``gamma_prime`` are ``n * (smallest gap)`` and
    ``n * (largest gap)``; gaps include the wraparound cell, so a NodeSet is
    genuinely a partition of the circle.
    """

    nodes: np.ndarray
    n: int
    gamma: float
    gamma_prime: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < -np.pi or nodes[-1] >= np.pi:
            raise ValueError("nodes must lie in [-pi, pi)")
        object.__setattr__(self, "nodes", nodes)

    @property
    def count(self) -> int:
        return self.nodes.size

    def gaps(self) -> np.ndarray:
        """Cell widths [x_k, x_{k+1}), including the wraparound cell."""
        d = np.diff(self.nodes)
        wrap = self.nodes[0] + TWO_PI - self.nodes[-1]
        return np.concatenate([d, [wrap]])


def _nodeset_from_sorted(nodes: np.ndarray, n: int) -> NodeSet:
    d = np.diff(nodes)
    wrap = nodes[0] + TWO_PI - nodes[-1]
    gaps = np.concatenate([d, [wrap]])
    return NodeSet(nodes=nodes, n=n, gamma=n * gaps.min(), gamma_prime=n * gaps.max())


def make_uniform_nodes(n: int) -> NodeSet:
    """2n+1 equispaced nodes ``2*pi*k/(2n+1)``, wrapped and sorted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(2 * n + 1)
    nodes = np.sort(wrap_angle(TWO_PI * k / (2 * n + 1)))
    return _nodeset_from_sorted(nodes, n)


def make_jittered_nodes(n: int, jitter: float, seed) -> NodeSet:
    """Uniform nodes perturbed by ``U(-jitter, jitter)`` times the mesh width.

    ``jitter`` must stay below 0.5 so the node ordering survives; values in
    [0, 0.4) keep comfortably away from degenerate gaps.
    """
    if not 0.0 <= jitter < 0.5:
        raise ValueError("jitter fraction must lie in [0, 0.5)")
    base = make_uniform_nodes(n)
    mesh = TWO_PI / (2 * n + 1)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2 * n + 1]))
    shifts = rng.uniform(-jitter, jitter, size=base.count) * mesh
    nodes = np.sort(wrap_angle(base.nodes + shifts))
    return _nodeset_from_sorted(nodes, n)


# ----------------------------------------------------------------------------
# Panel partitions and caches
# ----------------------------------------------------------------------------

GRADE_PER_DECADE = 40
GRADE_FLOOR = 1e-10
#: Partitions kept alive by :func:`partition` for reuse.
PARTITION_MEMO = 2


def _graded_offsets(step: float) -> np.ndarray:
    """Geometric ladder of offsets from GRADE_FLOOR up to ``step``."""
    if step <= GRADE_FLOOR:
        return np.empty(0)
    num = int(np.ceil(GRADE_PER_DECADE * np.log10(step / GRADE_FLOOR)))
    return np.geomspace(GRADE_FLOOR, step, num=max(num, 2))


def partition(resolution, breakpoints=()) -> "Partition":
    """The :class:`Partition` of an integer ``1 <= resolution <= MAX_RESOLUTION``
    and breakpoints, memoized on ``int(resolution)`` and the sorted unique breakpoints."""
    if type(resolution) is bool or not isinstance(resolution, (int, np.integer)) or resolution < 1:
        raise ValueError(f"resolution must be an integer >= 1, got {resolution!r}")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution {resolution} exceeds MAX_RESOLUTION = {MAX_RESOLUTION}")
    return _partition(int(resolution), tuple(sorted({float(b) for b in breakpoints})))


@lru_cache(maxsize=PARTITION_MEMO)
def _partition(resolution: int, breakpoints: tuple) -> "Partition":
    """Uniform edges split at breakpoints and graded toward them and 0."""
    edges = np.linspace(-np.pi, np.pi, resolution + 1)
    step = TWO_PI / resolution
    extra = []
    for b in sorted({*breakpoints, 0.0}):
        offs = _graded_offsets(2 * step)
        extra.append(b + offs)
        extra.append(b - offs)
        extra.append(np.array([b]))
        if np.isclose(b, -np.pi):
            # the same corner seen from the right end of the period
            extra.append(np.pi - offs)
    edges = np.concatenate([edges] + extra)
    edges = edges[(edges >= -np.pi) & (edges <= np.pi)]
    edges = np.unique(edges)
    # drop panels thinner than floating noise
    keep = np.concatenate([[True], np.diff(edges) > 1e-13])
    edges = edges[keep]
    edges[0], edges[-1] = -np.pi, np.pi
    edges.setflags(write=False)
    return Partition(resolution, edges)


partition.cache_info, partition.cache_clear = _partition.cache_info, _partition.cache_clear


def uniform_cells(edges: np.ndarray, resolution: int):
    """Panels that are whole uniform cells ``[-pi + i*step, -pi + (i+1)*step]``.

    Returns ``(panels, cells)``: panel ``panels[m]`` spans cell ``cells[m]``
    of the ``resolution``-cell grid, ``step = 2*pi/resolution``.  The grid is
    the ``linspace`` that :func:`partition` starts from, so edges compare
    exactly; every other panel is graded toward a breakpoint or 0.
    """
    grid = np.linspace(-np.pi, np.pi, resolution + 1)
    cells = np.minimum(np.searchsorted(grid, edges[:-1]), resolution - 1)
    whole = (grid[cells] == edges[:-1]) & (grid[cells + 1] == edges[1:])
    return np.flatnonzero(whole), cells[whole]


@dataclass(frozen=True, eq=False)
class Partition:
    """Edges of ``resolution`` uniform cells split at breakpoints and graded toward
    them and 0 (see :func:`partition`); the cell map, graded points, weighted
    masses and their moments (both by ``beta``) are built on first use.  Every
    array is read-only."""

    resolution: int
    edges: np.ndarray
    weighted_mass: dict = field(default_factory=dict, init=False, repr=False)
    weighted_moments: dict = field(default_factory=dict, init=False, repr=False)

    def gl_points(self) -> np.ndarray:
        """(M, 5) abscissae of the panel Gauss-Legendre nodes."""
        return self.edges[:-1, None] + 0.5 * np.diff(self.edges)[:, None] * (GL_NODES + 1.0)

    def gl_weights(self) -> np.ndarray:
        return 0.5 * np.diff(self.edges)[:, None] * GL_WEIGHTS[None, :]

    @cached_property
    def cell_map(self):
        """``(cell_of, panel_of, graded)``: panel -> grid cell (exact on
        :func:`uniform_cells`, non-decreasing), cell -> panel (-1 where the
        cell is not one whole panel), and the graded panels."""
        panels, cells = uniform_cells(self.edges, self.resolution)
        cell_of = np.interp(np.arange(self.edges.size - 1), panels, cells).astype(int)
        panel_of = np.full(self.resolution, -1)
        panel_of[cells] = panels
        graded = np.setdiff1d(np.arange(self.edges.size - 1), panels, assume_unique=True)
        for a in (cell_of, panel_of, graded):
            a.setflags(write=False)
        return cell_of, panel_of, graded

    @cached_property
    def graded_points(self) -> np.ndarray:
        """(G, 5) Gauss-Legendre abscissae of the graded panels."""
        points = self.gl_points()[self.cell_map[2]]
        points.setflags(write=False)
        return points


@dataclass
class DenseGridCache:
    """Function values and antiderivative on a breakpoint-aware panel partition.

    Attributes
    ----------
    fn : PointwiseFunction or None
        The exact evaluator of a base cache, ``None`` on derived caches (e.g.
        window averages).  :meth:`values_at` samples it, so declared jump
        values hold; partial-panel integrals use the interpolant on every cache.
    partition : Partition
        The shared panel partition; the cache reads its ``edges`` (M+1,),
        ``edges[0] = -pi``, ``edges[-1] = pi``, and base ``resolution``.
    gl_values : (M, 5) complex
        Values at the per-panel Gauss-Legendre nodes: every integral, partial
        panel and interpolated value of the cache is read from these.
    prefix : (M+1,) complex
        ``prefix[j] = int_{-pi}^{edges[j]} f``.
    best : dict
        ``besov_sum``'s level values by ``(d, spec)``; empty on a new or spawned cache.

    F is read at arbitrary points by a panel search (:meth:`antiderivative`),
    and at all nodes shifted by one offset by fixed per-node functionals on
    the partition's cell-to-panel map (:meth:`node_antiderivative`).
    """

    fn: Optional[PointwiseFunction]
    partition: Partition
    gl_values: np.ndarray
    prefix: np.ndarray
    best: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- construction helpers ------------------------------------------------

    edges = property(lambda self: self.partition.edges)
    resolution = property(lambda self: self.partition.resolution)

    @property
    def panel_count(self) -> int:
        return self.edges.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def gl_points(self) -> np.ndarray:
        """(M, 5) abscissae of the panel Gauss-Legendre nodes."""
        return self.partition.gl_points()

    def gl_weights(self) -> np.ndarray:
        return self.partition.gl_weights()

    @property
    def total(self) -> complex:
        """Integral over the full period."""
        return self.prefix[-1]

    # -- antiderivative ------------------------------------------------------

    def antiderivative(self, y) -> np.ndarray:
        """F(y) = int_{-pi}^{y} f, extended by F(y + 2pi) = F(y) + F(pi)."""
        y = np.asarray(y, dtype=float)
        shape = y.shape
        y = np.atleast_1d(y).ravel()
        # guard the right endpoint: y exactly pi wraps to -pi with winding 1
        winding = np.floor((y + np.pi) / TWO_PI)
        yw = y - winding * TWO_PI
        j, width, t = self._locate(yw)
        # int_{a_j}^{y} f by Horner in t on the integral table
        tab = self.integral_table
        acc = tab[5][j]
        for m in range(4, -1, -1):
            acc *= t
            acc += tab[m][j]
        out = self.prefix[j] + 0.5 * width * acc + winding * self.total
        return out.reshape(shape)

    def _locate(self, x):
        """Panel index, panel width and in-panel coordinate ``t`` in [-1, 1]."""
        j = np.searchsorted(self.edges, x, side="right") - 1
        j = np.clip(j, 0, self.panel_count - 1)
        a = self.edges[j]
        width = self.edges[j + 1] - a
        return j, width, 2.0 * (x - a) / width - 1.0

    @cached_property
    def integral_table(self) -> np.ndarray:
        """(6, M): row m holds the ``t^m`` coefficient of every panel's
        ``int_{-1}^{t}`` of its interpolant, so a Horner step gathers one row."""
        return _GL_INTEGRAL @ self.gl_values.T

    def node_antiderivative(self, shift: float) -> np.ndarray:
        """(M, 5) values of ``F(x + shift)`` at the Gauss-Legendre nodes ``x``.

        With ``shift / step = q + phi``, node ``g`` of every uniform cell lands
        ``q + c_g`` cells on, at ``t_g = 2(u_g + phi - c_g) - 1`` where ``u_g =
        (GL_NODES[g] + 1)/2``.  Where that cell is uniform too, F is a fixed
        functional of its prefix and :attr:`integral_table` column (plus
        ``total`` per winding); other nodes take :meth:`antiderivative`.
        """
        R = self.resolution
        q, phi = divmod(shift / (TWO_PI / R), 1.0)
        s = 0.5 * (GL_NODES + 1.0) + phi
        c = s >= 1.0
        at_t = (2.0 * (s - c) - 1.0)[:, None] ** np.arange(6) @ self.integral_table
        at_t *= 0.5 * self.widths
        at_t += self.prefix[:-1]
        cell_of, panel_of, graded = self.partition.cell_map
        out = np.empty((self.panel_count, 5), dtype=at_t.dtype)
        lost = []
        for k in np.unique(q + c):
            # sources below the split wind ``low`` times, the rest ``low + 1``
            low, offset = divmod(int(k), R)
            split = np.searchsorted(cell_of, R - offset)
            hit = panel_of.take(cell_of + offset, mode="wrap")
            hit[graded] = -1
            for col in np.flatnonzero(q + c == k):  # ascending overall, as g assumes
                out[:, col] = at_t[col].take(hit)
                for rows, turns in ((slice(None, split), low), (slice(split, None), low + 1)):
                    if turns:
                        out[rows, col] += turns * self.total
                lost.append(np.flatnonzero(hit < 0))
        j, g = np.concatenate(lost), np.repeat(np.arange(5), [idx.size for idx in lost])
        a, b = self.edges[j], self.edges[j + 1]
        out[j, g] = self.antiderivative(a + 0.5 * (b - a) * (GL_NODES[g] + 1.0) + shift)
        return out

    # -- values --------------------------------------------------------------

    def values_at(self, x) -> np.ndarray:
        """Evaluate the cached function at arbitrary points.

        Uses the exact evaluator when available, otherwise the in-panel
        interpolant: the ``t``-derivative of :attr:`integral_table`.
        """
        if self.fn is not None:
            return self.fn(x)
        x = np.asarray(x, dtype=float)
        shape = x.shape
        j, _, t = self._locate(wrap_angle(np.atleast_1d(x).ravel()))
        tab = self.integral_table
        acc = 5.0 * tab[5][j]
        for m in range(4, 0, -1):
            acc *= t
            acc += m * tab[m][j]
        return acc.reshape(shape)

    def spawn(self, gl_values) -> "DenseGridCache":
        """Derived cache on the same partition from new node values."""
        return _integrated(None, self.partition, gl_values)


def _integrated(fn, part: Partition, gl_values) -> DenseGridCache:
    """A cache on ``part`` whose prefix table integrates ``gl_values``."""
    gl_values = np.asarray(gl_values)
    panel_int = (gl_values @ GL_WEIGHTS) * (0.5 * np.diff(part.edges))
    return DenseGridCache(fn=fn, partition=part, gl_values=gl_values,
                          prefix=np.concatenate([[0.0], np.cumsum(panel_int)]))


def build_cache(fn: PointwiseFunction, resolution: Optional[int] = None,
                n_scale: Optional[int] = None) -> DenseGridCache:
    """Build a :class:`DenseGridCache` for ``fn``.

    ``resolution`` is the uniform base panel count; when omitted it defaults to
    ``max(4096, 64*n_scale)`` so frequencies up to ``n_scale`` are oversampled
    by a factor >= 64.  ``n_scale`` is the frequency scale of the quantity the
    cache serves; :func:`~latsamp.trigpoly._as_cache` raises it to a polynomial's degree.
    """
    if fn.domain != "circle":
        raise ValueError("caches are built for circle-domain functions")
    if resolution is None:
        resolution = DEFAULT_RESOLUTION
        if n_scale is not None:
            resolution = max(resolution, OVERSAMPLE * int(n_scale))
    part = partition(resolution, fn.breakpoints)
    return _integrated(fn, part, fn._on_partition(part))


def _window_resolution(h: float) -> int:
    """Smallest power of two whose grid puts >= 64 steps in a window ``h``."""
    return 1 << int(np.ceil(np.log2(int(np.ceil(MIN_PANELS_PER_WINDOW * TWO_PI / h)))))


def ensure_window_resolution(cache: DenseGridCache, h: float) -> DenseGridCache:
    """Refine a base cache until the window ``h`` spans >= 64 uniform steps
    (to :func:`_window_resolution`)."""
    if cache.resolution >= MIN_PANELS_PER_WINDOW * TWO_PI / h:
        return cache
    if cache.fn is None:
        raise ValueError("cannot refine a derived cache; rebuild the base cache")
    return build_cache(cache.fn, resolution=_window_resolution(h))


# ----------------------------------------------------------------------------
# Reference corpus
# ----------------------------------------------------------------------------


def _square_eval(x):
    w = np.mod(np.asarray(x, dtype=float), TWO_PI)
    out = np.where(w < np.pi, 1.0, -1.0)
    return np.where((w == 0.0) | (w == np.pi), 0.0, out)


def _sawtooth_eval(x):
    w = np.mod(np.asarray(x, dtype=float), TWO_PI)
    return np.where(w == 0.0, 0.0, 0.5 * (w - np.pi))


def _abs_sin_pow(alpha):
    def ev(x):
        return np.abs(np.sin(x)) ** alpha
    return ev


def _cusp15_derivative(x):
    s = np.sin(x)
    return 1.5 * np.abs(s) ** 0.5 * np.sign(s) * np.cos(x)


def corpus() -> dict:
    """The reference function corpus keyed by label.

    Includes complex exponentials, a finite trigonometric sum, a square wave
    (jump value 0 at the jumps), two cusp powers of ``|sin|``, a sawtooth, and
    a plain sine (handy where an exact derivative is needed).
    """
    entries = {}
    for k in (1, 3, 7):
        dk = PointwiseFunction(
            label=f"dexp{k}",
            evaluator=(lambda kk: (lambda x: 1j * kk * np.exp(1j * kk * x)))(k),
        )
        entries[f"exp{k}"] = PointwiseFunction(
            label=f"exp{k}",
            evaluator=(lambda kk: (lambda x: np.exp(1j * kk * x)))(k),
            smoothness_hint=np.inf,
            derivative=dk,
        )
    d2 = PointwiseFunction("dsmooth2", lambda x: -np.sin(x) - 4.0 * np.cos(2 * x))
    d1 = PointwiseFunction("dsmooth", lambda x: np.cos(x) - 2.0 * np.sin(2 * x),
                           derivative=d2)
    entries["smooth"] = PointwiseFunction(
        "smooth", lambda x: np.sin(x) + np.cos(2 * x),
        smoothness_hint=np.inf, derivative=d1)
    dsin2 = PointwiseFunction("ddsine", lambda x: -np.sin(x))
    dsin = PointwiseFunction("dsine", np.cos, derivative=dsin2)
    entries["sine"] = PointwiseFunction(
        "sine", np.sin, smoothness_hint=np.inf, derivative=dsin)
    entries["square"] = PointwiseFunction(
        "square", _square_eval, breakpoints=(-np.pi, 0.0), smoothness_hint=0.5)
    entries["cusp05"] = PointwiseFunction(
        "cusp05", _abs_sin_pow(0.5), breakpoints=(-np.pi, 0.0), smoothness_hint=0.5)
    entries["cusp15"] = PointwiseFunction(
        "cusp15", _abs_sin_pow(1.5), breakpoints=(-np.pi, 0.0), smoothness_hint=1.5,
        derivative=PointwiseFunction("dcusp15", _cusp15_derivative,
                                     breakpoints=(-np.pi, 0.0)))
    entries["sawtooth"] = PointwiseFunction(
        "sawtooth", _sawtooth_eval, breakpoints=(0.0,), smoothness_hint=0.5)
    return entries
