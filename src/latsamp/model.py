"""Pointwise function model, node sets, and dense quadrature caches on the circle.

Everything downstream (norms, window averages, sampling operators) consumes the
types defined here:

* :class:`PointwiseFunction` -- an exact vectorized evaluator with declared
  breakpoints and jump values, so sampling at a discontinuity is well defined.
* :class:`NodeSet` -- sampling nodes on ``[-pi, pi)`` with mesh constants.
* :class:`Partition` -- a breakpoint-aware Gauss-Legendre panel partition, built
  once by the memoized :func:`partition` and shared read-only by every cache on it.
* :class:`DenseGridCache` -- node values; the antiderivative (prefix) table
  and its rounding error are built together on the first read of F.

The cache is the single quadrature surface of the package: panel integrals are
5-point Gauss-Legendre, panels are split at declared breakpoints and graded
geometrically toward them (and toward ``x = 0``, where the weighted norms are
singular), so piecewise and cusped integrands integrate to near machine
accuracy without adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

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

#: Largest partition resolution: 2x headroom (1.9998x) above 128*8193 =
#: 1048704, the window resolution of the default width ``pi/(2n+1)`` at the
#: degree cap n = 4096.  A tiny mesh parameter asks for far more (3.2e9 cells
#: at gamma = 1e-6, n = 8: 26 GB of edges alone).
MAX_RESOLUTION = 1 << 21


def _mod_two_pi(x):
    """``np.mod(x, 2*pi)`` bit for bit, at a fraction of its cost: ``np.fmod``
    is exact, and where it is negative 2 pi is added (elsewhere ``+ 0.0``
    turns -0.0 into +0.0), as ``np.mod`` does after its own ``fmod``."""
    w = np.fmod(x, TWO_PI)
    w += np.where(w < 0.0, TWO_PI, 0.0)
    return w


def wrap_angle(x):
    """Map angles to the canonical period ``[-pi, pi)``."""
    x = np.asarray(x, dtype=float)
    return _mod_two_pi(x + np.pi) - np.pi


@dataclass(frozen=True)
class PointwiseFunction:
    """A function on the circle, given by an exact vectorized evaluator.

    Parameters
    ----------
    label : str
        Short identifier used in reports.
    evaluator : callable
        Vectorized 2pi-periodic map ``x -> values`` (real or complex).  At
        declared breakpoints it must return the declared jump value, so
        pointwise sampling is unambiguous.
    breakpoints : tuple of float
        Locations in ``[-pi, pi)`` where the function (or a derivative) is not
        smooth.  Quadrature panels are split and graded there.
    smoothness_hint : float or None
        Nothing in the package reads it; it stays only because the benchmark's
        worker passes it by keyword, until that benchmark is reworked.

    A signal on the line is a :class:`~latsamp.operators.LineSignal`, which no
    circle quantity accepts.
    """

    label: str
    evaluator: Callable = field(compare=False, repr=False)
    breakpoints: tuple = ()
    smoothness_hint: Optional[float] = None

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


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Sampling nodes on ``[-pi, pi)`` at scale ``n``.

    The mesh constants ``gamma`` and ``gamma_prime`` are ``n * (smallest
    gap)`` and ``n * (largest gap)``, worked out from the nodes; gaps include
    the wraparound cell, so a NodeSet is genuinely a partition of the circle.
    """

    nodes: np.ndarray
    n: int

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

    @property
    def gamma(self) -> float:
        return float(self.n * self.gaps().min())

    @property
    def gamma_prime(self) -> float:
        return float(self.n * self.gaps().max())


def make_uniform_nodes(n: int) -> NodeSet:
    """2n+1 equispaced nodes ``2*pi*k/(2n+1)``, wrapped and sorted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(2 * n + 1)
    return NodeSet(np.sort(wrap_angle(TWO_PI * k / (2 * n + 1))), n)


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
    return NodeSet(np.sort(wrap_angle(base.nodes + shifts)), n)


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

    def locate(self, y, offset=0.0):
        """Panel, panel width, in-panel ``t`` in [-1, 1] and winding of points
        ``y + offset``: ``y + offset - 2 pi winding`` lies in ``[-pi, pi)``, so
        pi winds once.  ``t`` is read from ``(y - 2 pi winding - a) + offset``,
        so a window end ``y + offset`` is placed to the rounding of the offset
        and of its distance to the panel edge ``a``, not of ``|y|``."""
        z = y + offset
        winding = np.floor((z + np.pi) / TWO_PI)
        y = y - winding * TWO_PI
        j = np.clip(np.searchsorted(self.edges, z - winding * TWO_PI, side="right") - 1,
                    0, self.edges.size - 2)
        a = self.edges[j]
        width = self.edges[j + 1] - a
        return j, width, 2.0 * ((y - a) + offset) / width - 1.0, winding

    def landing_plan(self, shift: float) -> "LandingPlan":
        """Where ``x + shift`` lands, for every Gauss-Legendre node ``x``: with
        ``shift / step = q + phi``, node ``g`` of a uniform cell lands ``k_g = q +
        c_g`` cells on, at ``t_g = 2(u_g + phi - c_g) - 1``, ``u_g = (GL_NODES[g]
        + 1)/2``; in its own panel where ``k_g`` is whole turns (``shift = 0``)."""
        R = self.resolution
        q, phi = divmod(shift / (TWO_PI / R), 1.0)
        s = 0.5 * (GL_NODES + 1.0) + phi
        c = s >= 1.0
        cell_of, panel_of, graded = self.cell_map
        landings, lost = {}, []
        for k in q + c:
            if k not in landings:
                low, offset = divmod(int(k), R)
                hit = None
                if offset:
                    hit = panel_of.take(cell_of + offset, mode="wrap")
                    hit[graded] = -1
                landings[k] = (hit, np.searchsorted(cell_of, R - offset), low)
            hit = landings[k][0]
            lost.append(graded if hit is None else np.flatnonzero(hit < 0))
        j, g = np.concatenate(lost), np.repeat(np.arange(5), [idx.size for idx in lost])
        a, b = self.edges[j], self.edges[j + 1]
        return LandingPlan((2.0 * (s - c) - 1.0)[:, None] ** np.arange(6) @ _GL_INTEGRAL,
                           tuple(landings[k] for k in q + c), (j, g),
                           self.locate(a + 0.5 * (b - a) * (GL_NODES[g] + 1.0), shift))


class LandingPlan(NamedTuple):
    """A partition's :meth:`~Partition.landing_plan`, read on any cache over it."""

    kernel: np.ndarray  # (5, 5): node values -> int_{-1}^{t_g} of the panel interpolant
    landings: tuple     # per column: (landing panels or None, split, low); rows below the
                        # split wind low times, the rest low + 1
    lost: tuple         # (panel, column) of graded nodes and nodes landing in graded cells
    located: tuple      # Partition.locate of the lost nodes' landing points


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
        Values at the per-panel Gauss-Legendre nodes, made row-major so every
        cache's panel sums round alike: all the cache's numbers come from these.
    prefix : (M+1,) complex
        ``prefix[j] = int_{-pi}^{edges[j]} f``, rounded, and :attr:`prefix_error`,
        what the rounding lost: built together on the first read of F.
    best : dict
        ``besov_sum``'s level values by ``(d, spec)``; empty on a new or spawned cache.

    F is read at arbitrary points by a panel search (:meth:`antiderivative`),
    and at all nodes shifted by one offset through the partition's landing
    plan of that offset (:meth:`node_antiderivative`), shared by its caches.
    Both read F anchored at a panel edge, ``F(y) - F(edges[anchor])``: the two
    prefix rows are subtracted before anything else is added, and the prefix
    table's rounding error after, so a window integral, the difference of two
    reads with one anchor, loses eps times itself rather than eps ``|F|``.
    """

    fn: Optional[PointwiseFunction]
    partition: Partition
    gl_values: np.ndarray
    best: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.gl_values = np.ascontiguousarray(self.gl_values)

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

    @cached_property
    def _prefix_table(self):
        """``(prefix, prefix_error)`` in one pass over the panel integrals: each
        step of the prefix sum loses ``panel - (prefix[j+1] - prefix[j])``, both
        differences exact (Sterbenz) wherever consecutive prefixes are within a
        factor 2."""
        panel_int = (self.gl_values @ GL_WEIGHTS) * (0.5 * self.widths)
        prefix = np.concatenate([[0.0], np.cumsum(panel_int)])
        return prefix, np.concatenate([[0.0], np.cumsum(panel_int - np.diff(prefix))])

    prefix = property(lambda self: self._prefix_table[0])
    prefix_error = property(lambda self: self._prefix_table[1])

    @property
    def total(self) -> complex:
        """Integral over the full period."""
        return self.prefix[-1]

    # -- antiderivative ------------------------------------------------------

    def antiderivative(self, y, offset=0.0, anchor=0) -> np.ndarray:
        """``F(y + offset) - F(edges[anchor])`` with ``F(y) = int_{-pi}^{y} f``,
        extended by F(y + 2pi) = F(y) + F(pi); ``anchor`` is a panel per point,
        or panel 0 (F itself).  The end is placed by :meth:`Partition.locate`."""
        y = np.asarray(y, dtype=float)
        located = self.partition.locate(y.ravel(), offset)
        return self._antiderivative_at(*located, np.ravel(anchor)).reshape(y.shape)

    def _antiderivative_at(self, j, width, t, winding, anchor):
        """``F(y) - F(edges[anchor])`` at located points: the prefix rows'
        difference, then ``int_{a_j}^{y} f`` by Horner in ``t`` on the
        interpolant coefficients of panels ``j`` alone and the prefix errors."""
        tab = _GL_INTEGRAL @ self.gl_values[j].T
        acc = tab[5]
        for m in range(4, -1, -1):
            acc *= t
            acc += tab[m]
        err = self.prefix_error
        return ((self.prefix[j] - self.prefix[anchor])
                + (0.5 * width * acc + (err[j] - err[anchor] + winding * err[-1]))
                + winding * self.total)

    def node_antiderivative(self, plan: "LandingPlan") -> np.ndarray:
        """(M, 5) ``F(x + shift) - F(e_j)`` at the Gauss-Legendre nodes ``x`` of
        each panel ``[e_j, e_j+1]``, F anchored at the node's own panel, through
        the :meth:`~Partition.landing_plan` of ``shift``; the transpose of a
        (5, M) array, so each column's gather and windings run on contiguous
        memory.  Two ends' difference is the window integral to its rounding."""
        prefix, err = self.prefix, self.prefix_error
        at_t = plan.kernel @ self.gl_values.T
        at_t *= 0.5 * self.widths
        for row, (hit, split, low) in zip(at_t, plan.landings):
            if hit is not None:
                row += err[:-1]
                row[:] = row.take(hit)
                row -= err[:-1]
                base = prefix.take(hit)
                base -= prefix[:-1]
                row += base
            for rows, turns in ((row[:split], low), (row[split:], low + 1)):
                if turns:
                    rows += turns * (self.total + err[-1])
        out = at_t.T
        out[plan.lost] = self._antiderivative_at(*plan.located, plan.lost[0])
        return out

    # -- values --------------------------------------------------------------

    def values_at(self, x) -> np.ndarray:
        """Evaluate the cached function at arbitrary points.

        Uses the exact evaluator when available, otherwise the in-panel
        interpolant of the located panels.
        """
        if self.fn is not None:
            return self.fn(x)
        x = np.asarray(x, dtype=float)
        j, _, t, _ = self.partition.locate(x.ravel())
        tab = _GL_INTEGRAL @ self.gl_values[j].T
        acc = 5.0 * tab[5]
        for m in range(4, 0, -1):
            acc *= t
            acc += m * tab[m]
        return acc.reshape(x.shape)

    def spawn(self, gl_values) -> "DenseGridCache":
        """Derived cache on the same partition from new node values."""
        return DenseGridCache(None, self.partition, gl_values)


def build_cache(fn: PointwiseFunction, resolution: Optional[int] = None,
                n_scale: Optional[int] = None) -> DenseGridCache:
    """Build a :class:`DenseGridCache` for ``fn``.

    ``resolution`` is the uniform base panel count; when omitted it defaults to
    ``max(4096, 64*n_scale)`` so frequencies up to ``n_scale`` are oversampled
    by a factor >= 64.  ``n_scale`` is the frequency scale of the quantity the
    cache serves; :func:`~latsamp.trigpoly._as_cache` raises it to a polynomial's degree.
    """
    if resolution is None:
        resolution = DEFAULT_RESOLUTION
        if n_scale is not None:
            resolution = max(resolution, OVERSAMPLE * int(n_scale))
    part = partition(resolution, fn.breakpoints)
    return DenseGridCache(fn, part, fn._on_partition(part))


def _window_resolution(h: float) -> int:
    """Fewest uniform cells, a multiple of 64, whose grid puts >= 64 steps in a
    window ``h``: ``64 * ceil(2 pi / h)``, with ``2 pi / h`` within rounding of
    a whole number taken as that number.  The default width ``pi/(2n+1)`` thus
    gets exactly ``128(2n+1)`` cells, of which ``h`` spans 64 and ``h/2`` 32."""
    return MIN_PANELS_PER_WINDOW * int(np.ceil(TWO_PI / h * (1.0 - 1e-12)))


def ensure_window_resolution(cache: DenseGridCache, h: float) -> DenseGridCache:
    """A base cache on a grid that the window ``h`` spans in whole cells:
    ``cache`` itself when its resolution is a multiple of
    :func:`_window_resolution`, else its function rebuilt at the least such
    multiple not below that resolution.  So a cache is never coarsened, and a
    second call returns the first call's cache.  Every window end, and every
    breakpoint on the grid shifted by whole windows, then falls on a cell edge."""
    need = _window_resolution(h)
    if cache.resolution % need == 0:
        return cache
    if cache.fn is None:
        raise ValueError("cannot refine a derived cache; rebuild the base cache")
    return build_cache(cache.fn, resolution=need * -(-cache.resolution // need))


# ----------------------------------------------------------------------------
# Reference corpus
# ----------------------------------------------------------------------------


def _square_eval(x):
    w = _mod_two_pi(np.asarray(x, dtype=float))
    out = np.where(w < np.pi, 1.0, -1.0)
    return np.where((w == 0.0) | (w == np.pi), 0.0, out)


def _sawtooth_eval(x):
    w = _mod_two_pi(np.asarray(x, dtype=float))
    return np.where(w == 0.0, 0.0, 0.5 * (w - np.pi))


def _abs_sin_pow(alpha):
    def ev(x):
        return np.abs(np.sin(x)) ** alpha
    return ev


def corpus() -> dict:
    """The reference function corpus keyed by label.

    Includes complex exponentials, a finite trigonometric sum, a square wave
    (jump value 0 at the jumps), two cusp powers of ``|sin|``, a sawtooth, and
    a plain sine.
    """
    entries = {}
    for k in (1, 3, 7):
        entries[f"exp{k}"] = PointwiseFunction(
            f"exp{k}", (lambda kk: (lambda x: np.exp(1j * kk * x)))(k))
    entries["smooth"] = PointwiseFunction("smooth", lambda x: np.sin(x) + np.cos(2 * x))
    entries["sine"] = PointwiseFunction("sine", np.sin)
    entries["square"] = PointwiseFunction("square", _square_eval, breakpoints=(-np.pi, 0.0))
    entries["cusp05"] = PointwiseFunction("cusp05", _abs_sin_pow(0.5), breakpoints=(-np.pi, 0.0))
    entries["cusp15"] = PointwiseFunction("cusp15", _abs_sin_pow(1.5), breakpoints=(-np.pi, 0.0))
    entries["sawtooth"] = PointwiseFunction("sawtooth", _sawtooth_eval, breakpoints=(0.0,))
    return entries
