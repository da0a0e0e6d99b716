"""Tests for the domain model: functions, node sets, and the panel cache."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latsamp import (
    PointwiseFunction,
    NodeSet,
    TrigPoly,
    build_cache,
    corpus,
    ensure_window_resolution,
    i_minus_a_pow,
    lagrange,
    make_jittered_nodes,
    make_uniform_nodes,
    norm,
    parse_spec,
    poly_norm,
    subtract_poly,
    wrap_angle,
)
from latsamp.model import (GL_WEIGHTS, MAX_RESOLUTION, MIN_PANELS_PER_WINDOW, PARTITION_MEMO,
                           DenseGridCache, _mod_two_pi, _window_resolution, partition)
from latsamp.norms import _cache_mass
from latsamp.trigpoly import MAX_DEGREE

TWO_PI = 2.0 * np.pi


def test_wrap_angle_range():
    x = np.linspace(-20.0, 20.0, 1001)
    w = wrap_angle(x)
    assert np.all(w >= -np.pi)
    assert np.all(w < np.pi)
    # periodicity
    assert_allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)


def test_wrap_angle_endpoints():
    assert wrap_angle(np.pi) == -np.pi
    assert wrap_angle(-np.pi) == -np.pi
    assert wrap_angle(0.0) == 0.0


def test_mod_two_pi_is_np_mod_bit_for_bit():
    """The ``fmod`` route of :func:`wrap_angle` and the square and sawtooth
    evaluators equals ``np.mod(x, 2 pi)`` in every bit, NaN and the signed
    zeros included."""
    special = np.array([0.0, np.pi, TWO_PI, np.nextafter(TWO_PI, 0.0), 1e-300, 1e18,
                        np.nan, np.inf])
    x = np.concatenate([np.random.default_rng(0).uniform(-20.0, 20.0, 10**6),
                        special, -special])
    with np.errstate(invalid="ignore"):
        want, got = np.mod(x, TWO_PI), _mod_two_pi(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPointwiseFunction:
    def test_call_is_vectorized(self):
        f = PointwiseFunction("sq", lambda x: np.asarray(x) ** 2)
        out = f(np.array([1.0, 2.0, 3.0]))
        assert_allclose(out, [1.0, 4.0, 9.0])


def test_uniform_nodes_basic():
    for n in (1, 4, 9):
        ns = make_uniform_nodes(n)
        assert ns.count == 2 * n + 1
        assert np.all(np.diff(ns.nodes) > 0)
        assert ns.nodes[0] >= -np.pi and ns.nodes[-1] < np.pi
        # the gaps partition the circle
        assert_allclose(ns.gaps().sum(), TWO_PI, rtol=1e-14)
        # equispaced: every gap is 2*pi/(2n+1)
        assert_allclose(ns.gaps(), TWO_PI / (2 * n + 1), rtol=1e-12)
        # mesh constants for the uniform mesh
        assert_allclose(ns.gamma, n * TWO_PI / (2 * n + 1), rtol=1e-12)
        assert_allclose(ns.gamma_prime, ns.gamma, rtol=1e-12)


def test_uniform_nodes_contain_zero():
    ns = make_uniform_nodes(6)
    assert np.min(np.abs(ns.nodes)) < 1e-15


def test_uniform_nodes_rejects_bad_n():
    with pytest.raises(ValueError):
        make_uniform_nodes(0)


def test_jittered_nodes_reproducible_and_sorted():
    a = make_jittered_nodes(8, jitter=0.4, seed=123)
    b = make_jittered_nodes(8, jitter=0.4, seed=123)
    c = make_jittered_nodes(8, jitter=0.4, seed=124)
    assert_allclose(a.nodes, b.nodes, rtol=0, atol=0)
    assert not np.allclose(a.nodes, c.nodes)
    assert np.all(np.diff(a.nodes) > 0)
    assert a.gaps().min() > 0


@pytest.mark.parametrize("jitter", [0.5, 0.7, -0.1])
def test_jitter_fraction_validated(jitter):
    with pytest.raises(ValueError):
        make_jittered_nodes(8, jitter=jitter, seed=0)


def test_nodeset_rejects_unsorted():
    with pytest.raises(ValueError):
        NodeSet(nodes=np.array([0.0, -1.0, 1.0]), n=1)
    with pytest.raises(ValueError):
        NodeSet(nodes=np.array([-4.0, 0.0, 1.0]), n=1)


def test_nodeset_compares_by_identity():
    """A ``NodeSet`` holds an array, so it is compared and hashed by identity,
    as ``Partition`` is (comparing the arrays raised before)."""
    a = make_uniform_nodes(2)
    assert a == a
    assert a != make_uniform_nodes(2)
    assert {a: "uniform"}[a] == "uniform"


@pytest.mark.parametrize("make", [make_uniform_nodes,
                                  lambda n: make_jittered_nodes(n, jitter=0.4, seed=7)])
@pytest.mark.parametrize("n", [1, 4, 33])
def test_nodeset_mesh_constants_are_worked_out_from_the_nodes(make, n):
    """``gamma`` and ``gamma_prime`` are ``n`` times the smallest and largest
    gap (the wraparound cell included), bit for bit; they cannot be set."""
    ns = make(n)
    gaps = np.concatenate([np.diff(ns.nodes), [ns.nodes[0] + TWO_PI - ns.nodes[-1]]])
    assert ns.gamma == n * gaps.min()
    assert ns.gamma_prime == n * gaps.max()
    with pytest.raises(TypeError):
        NodeSet(ns.nodes, n, gamma=5.0)
    with pytest.raises(TypeError):
        NodeSet(ns.nodes, n, gamma_prime=0.1)


# ----------------------------------------------------------------------------
# DenseGridCache
# ----------------------------------------------------------------------------


def test_cache_total_integral():
    one = PointwiseFunction("one", lambda x: np.ones_like(np.asarray(x, float)))
    cache = build_cache(one, resolution=64)
    assert_allclose(complex(cache.total).real, TWO_PI, rtol=1e-13)

    sine_cache = build_cache(corpus()["sine"], resolution=128)
    assert abs(complex(sine_cache.total)) < 1e-12


def test_cache_values_at_matches_function():
    f = corpus()["smooth"]
    cache = build_cache(f, resolution=256)
    rng = np.random.default_rng(7)
    x = rng.uniform(-np.pi, np.pi, 200)
    assert_allclose(cache.values_at(x).real, f(x), atol=1e-9)


def test_antiderivative_of_cos():
    f = PointwiseFunction("cos", np.cos)
    cache = build_cache(f, resolution=256)
    x = np.linspace(-np.pi, np.pi - 1e-9, 41)
    want = np.sin(x) - np.sin(cache.edges[0])
    got = np.asarray(cache.antiderivative(x)).real
    assert_allclose(got, want, atol=1e-12)


def _exact_partial_antiderivative(cache, y):
    """F(y) with the partial panel integrated by 5-node Gauss-Legendre on the
    exact evaluator, over the same prefix table (with its rounding error added
    back, as the cache reads it) and panel search."""
    from latsamp.model import GL_NODES, GL_WEIGHTS
    winding = np.floor((y + np.pi) / TWO_PI)
    yw = y - winding * TWO_PI
    j = np.clip(np.searchsorted(cache.edges, yw, side="right") - 1, 0, cache.panel_count - 1)
    a = cache.edges[j]
    half = 0.5 * (yw - a)
    nodes = a[:, None] + half[:, None] * (GL_NODES[None, :] + 1.0)
    vals = cache.fn(nodes.ravel()).reshape(nodes.shape)
    err = cache.prefix_error
    return (cache.prefix[j] + (half * (vals @ GL_WEIGHTS) + err[j] + winding * err[-1])
            + winding * cache.total)


@pytest.mark.parametrize("resolution", [4096, 65536])
@pytest.mark.parametrize("label, bound", [
    ("square", 1e-14), ("sawtooth", 1e-14), ("exp7", 1e-14), ("smooth", 1e-14),
    ("cusp05", 1e-11), ("cusp15", 1e-11)])
def test_base_antiderivative_matches_exact_partial_panels(label, bound, resolution):
    """Base caches integrate partial panels through the interpolant, as
    derived caches do; the exact evaluator on [a, y] stays within rounding,
    except near the cusp of |sin|^0.5 at the foot of the grading ladder."""
    cache = build_cache(corpus()[label], resolution=resolution)
    y = np.random.default_rng(resolution).uniform(-np.pi, np.pi, 20000)
    err = np.max(np.abs(cache.antiderivative(y) - _exact_partial_antiderivative(cache, y)))
    assert err <= bound * np.max(np.abs(cache.gl_values))


def test_antiderivative_wraps_periodically():
    """F(x + 2pi) - F(x) should equal the full-period integral."""
    f = PointwiseFunction("shifted", lambda x: 2.0 + np.sin(x))
    cache = build_cache(f, resolution=128)
    x = np.array([-1.0, 0.3, 2.0])
    jump = np.asarray(cache.antiderivative(x + TWO_PI)) - np.asarray(cache.antiderivative(x))
    assert_allclose(jump.real, 2.0 * TWO_PI, rtol=1e-13)


def test_build_cache_evaluates_only_the_gauss_legendre_nodes():
    """A cache holds node values only: f is sampled at the 5 Gauss-Legendre
    nodes of each of its M panels, and nowhere else."""
    sq = corpus()["square"]
    sizes = []
    counted = PointwiseFunction("counted", lambda x: sizes.append(x.size) or sq(x),
                                breakpoints=sq.breakpoints)
    cache = build_cache(counted, resolution=256)
    assert sum(sizes) == 5 * cache.panel_count


def _has_prefix_table(cache) -> bool:
    return "_prefix_table" in vars(cache)


@pytest.mark.parametrize("spec_id", ["l1", "l2", "wlp:2:-0.5", "orlicz:llogl"])
def test_prefix_table_is_built_on_the_first_read_of_F(spec_id):
    """Norms read node values only: a normed ``subtract_poly`` residual and a
    normed ``(I - A_h)^2`` output build no prefix table, while the window
    cache whose F a Steklov level reads has built one."""
    sq, h = corpus()["square"], np.pi / 17
    cache = ensure_window_resolution(build_cache(sq, n_scale=16), h)
    resid = subtract_poly(cache, lagrange(sq, 8))
    diff = i_minus_a_pow(cache, h, 2)
    assert not _has_prefix_table(resid)
    for derived in (resid, diff):
        norm(derived, parse_spec(spec_id))
        assert not _has_prefix_table(derived)
    assert _has_prefix_table(cache)


def test_lazy_prefix_is_the_eager_formula_bit_for_bit():
    """A cache spawned from column-major node values (a Steklov level's
    transposed node antiderivative) holds them row-major, and its prefix table
    and rounding error equal the eager construction on row-major values."""
    cache = build_cache(corpus()["cusp15"], resolution=1024)
    values = cache.node_antiderivative(cache.partition.landing_plan(np.pi / 9))
    assert values.flags.f_contiguous and not values.flags.c_contiguous
    rows = np.ascontiguousarray(values)
    panel_int = (rows @ GL_WEIGHTS) * (0.5 * np.diff(cache.edges))
    prefix = np.concatenate([[0.0], np.cumsum(panel_int)])
    error = np.concatenate([[0.0], np.cumsum(panel_int - np.diff(prefix))])
    level = cache.spawn(values)
    assert level.gl_values.flags.c_contiguous
    assert np.array_equal(level.prefix, prefix)
    assert np.array_equal(level.prefix_error, error)
    assert level.total == prefix[-1]


def test_dense_grid_cache_takes_no_prefix():
    """The prefix table is derived from the node values, never passed in."""
    cache = build_cache(corpus()["sine"], resolution=64)
    with pytest.raises(TypeError):
        DenseGridCache(None, cache.partition, cache.gl_values, cache.prefix)
    with pytest.raises(TypeError):
        DenseGridCache(fn=None, partition=cache.partition, gl_values=cache.gl_values,
                       prefix=cache.prefix)


def test_breakpoint_panels_present():
    sq = corpus()["square"]
    cache = build_cache(sq, resolution=64)
    # both declared breakpoints must appear among the panel edges
    for b in sq.breakpoints:
        assert np.min(np.abs(cache.edges - b)) < 1e-12


def test_graded_panels_shrink_near_breakpoints():
    cache = build_cache(corpus()["square"], resolution=64)
    j = int(np.argmin(np.abs(cache.edges - 0.0)))
    near = cache.widths[j]
    assert near < 1e-8  # graded subdivision hugs the jump
    assert cache.widths.max() > 1e-2


def test_ensure_window_resolution():
    f = corpus()["sine"]
    cache = build_cache(f, resolution=32)
    fine = ensure_window_resolution(cache, h=1e-3)
    assert fine.panel_count > cache.panel_count
    # a multiple of the window resolution 64*4 = 256: same object comes back
    again = ensure_window_resolution(fine, h=np.pi / 2)
    assert fine.resolution % 256 == 0 and again is fine


def test_cache_integrate_square():
    sq = corpus()["square"]
    cache = build_cache(sq, resolution=128)
    # integral of the square wave over a period is 0; of its square is 2*pi
    assert abs(complex(cache.total)) < 1e-10
    sq2 = complex(np.sum(cache.gl_weights() * np.abs(cache.gl_values) ** 2)).real
    assert_allclose(sq2, TWO_PI, rtol=1e-10)


# ----------------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------------


EXPECTED_LABELS = {"exp1", "exp3", "exp7", "smooth", "sine", "square",
                   "cusp05", "cusp15", "sawtooth"}


def test_corpus_labels():
    c = corpus()
    assert EXPECTED_LABELS <= set(c.keys())
    for label, f in c.items():
        assert f.label == label


def test_square_jump_values():
    sq = corpus()["square"]
    assert sq(np.array([0.0]))[0] == 0.0
    assert sq(np.array([np.pi]))[0] == 0.0
    assert sq(np.array([0.5]))[0] == 1.0
    assert sq(np.array([-0.5]))[0] == -1.0
    assert set(sq.breakpoints) == {-np.pi, 0.0}


def test_sawtooth_values():
    saw = corpus()["sawtooth"]
    x = np.array([0.5, 3.0, -2.0])
    want = 0.5 * (np.mod(x, TWO_PI) - np.pi)
    assert_allclose(saw(x), want, atol=1e-15)
    assert saw(np.array([0.0]))[0] == 0.0


def test_exp_functions_and_derivatives():
    c = corpus()
    x = np.linspace(-np.pi, np.pi, 33)
    for k in (1, 3, 7):
        f = c[f"exp{k}"]
        assert_allclose(f(x), np.exp(1j * k * x), atol=1e-15)


def test_cusp_powers():
    c = corpus()
    x = np.linspace(-np.pi, np.pi, 101)
    assert_allclose(c["cusp05"](x), np.abs(np.sin(x)) ** 0.5, atol=1e-15)
    assert_allclose(c["cusp15"](x), np.abs(np.sin(x)) ** 1.5, atol=1e-15)


# ----------------------------------------------------------------------------
# Shared partitions
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("resolution", [0, -4, 1024.0, True, np.True_, 1.5, "1024"])
def test_partition_rejects_bad_resolution(resolution):
    with pytest.raises(ValueError):
        partition(resolution, ())
    with pytest.raises(ValueError):
        build_cache(corpus()["sine"], resolution=resolution)
    with pytest.raises(ValueError):
        partition(None, ())


def test_partition_accepts_numpy_integers():
    part = partition(np.int64(512), (np.float64(0.0),))
    assert part is partition(512, [0.0, 0.0])
    assert type(part.resolution) is int


def test_partition_resolution_is_capped():
    """The cap leaves 2x headroom (1.9998x) above 128*8193 = 1048704 cells, the
    window resolution of the default width at the degree cap; one cell more is
    refused."""
    h = np.pi / (2 * MAX_DEGREE + 1)
    assert _window_resolution(h) == 1048704 and MAX_RESOLUTION / 1048704 > 1.9997
    with pytest.raises(ValueError, match=str(MAX_RESOLUTION + 1)):
        partition(MAX_RESOLUTION + 1, ())


def test_default_window_resolution_is_exact_at_every_degree():
    """``pi/(2n+1)`` spans exactly 64 cells of ``128(2n+1)``, with no rounding
    up, at every n up to the degree cap."""
    n = np.arange(1, MAX_DEGREE + 1)
    got = [_window_resolution(h) for h in np.pi / (2 * n + 1)]
    assert np.array_equal(got, 128 * (2 * n + 1))
    assert _window_resolution(TWO_PI) == MIN_PANELS_PER_WINDOW
    # a window a hair wider than 2 pi / 3 still needs 3 windows' worth of cells
    assert _window_resolution(TWO_PI / 3 * (1 - 1e-9)) == 4 * MIN_PANELS_PER_WINDOW


@pytest.mark.parametrize("resolution, h, want", [
    (1024, 0.03, 13440),           # 64 * ceil(209.4): refined to the window resolution
    (4096, np.pi / 17, 4352),      # n = 8: the least multiple of 2176 above 4096
    (4352, np.pi / 17, 4352),      # already a multiple: kept
    (8704, np.pi / 17, 8704),      # a finer multiple is kept, not coarsened
    (4608, np.pi / 17, 6528),      # finer but not a multiple: the next multiple up
])
def test_ensure_window_resolution_keeps_multiples_and_never_coarsens(resolution, h, want):
    cache = build_cache(corpus()["square"], resolution=resolution)
    got = ensure_window_resolution(cache, h)
    assert got.resolution == want and got.resolution % _window_resolution(h) == 0
    assert (got is cache) == (want == resolution)
    assert ensure_window_resolution(got, h) is got


def test_tiny_window_raises_before_allocating():
    """A 1e-6 window would need 2^29 cells: the refinement raises at once."""
    import tracemalloc

    cache = build_cache(corpus()["square"], resolution=1024)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_RESOLUTION"):
            ensure_window_resolution(cache, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_equal_partitions_are_shared():
    square = corpus()["square"]
    reordered = PointwiseFunction("square2", square.evaluator,
                                  breakpoints=(np.float64(0.0), np.float64(-np.pi), 0.0))
    a = build_cache(square, resolution=1024)
    b = build_cache(reordered, resolution=1024)
    assert a.partition is b.partition
    assert a.edges is b.edges
    assert a.spawn(a.gl_values).edges is a.edges
    assert build_cache(square, resolution=2048).edges is not a.edges


def test_partition_arrays_are_read_only():
    spec = parse_spec("wlp:2:-0.5")
    cache = build_cache(corpus()["cusp05"], resolution=1024)
    part = cache.partition
    mass = _cache_mass(cache, spec)
    assert mass is part.weighted_mass[spec.beta]
    assert _cache_mass(cache, spec) is mass
    for arr in (cache.edges, *part.cell_map, part.graded_points, mass):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_partition_memo_is_bounded():
    sine = corpus()["sine"]
    for resolution in (256, 512, 1024, 2048, 512, 4096):
        build_cache(sine, resolution=resolution)
        assert partition.cache_info().currsize <= PARTITION_MEMO
    assert PARTITION_MEMO == 2


@pytest.mark.parametrize("spec_id", ["wlp:2:-0.5", "wlp:1.5:0.3", "orlicz:llogl"])
def test_memoized_norms_equal_fresh(spec_id):
    spec = parse_spec(spec_id)
    rng = np.random.default_rng(3)
    polys = [TrigPoly(rng.standard_normal(2 * d + 1) + 1j * rng.standard_normal(2 * d + 1))
             for d in (3, 8, 40)]
    warm = [poly_norm(p, spec) for p in polys]
    warm_again = [poly_norm(p, spec) for p in polys]
    fresh = []
    for p in polys:
        partition.cache_clear()
        fresh.append(poly_norm(p, spec))
    assert warm == warm_again == fresh


def test_shared_partition_under_threads():
    """Eight threads on two cores build, map and weigh one partition at once."""
    spec = parse_spec("wlp:2:-0.5")
    square = corpus()["square"]
    want = norm(build_cache(square, resolution=2048), spec)

    def task(_):
        return norm(build_cache(square, resolution=2048), spec)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            partition.cache_clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(task, i) for i in range(16)]
                got = [f.result(timeout=60) for f in futures]
            assert got == [want] * 16
    finally:
        sys.setswitchinterval(interval)
