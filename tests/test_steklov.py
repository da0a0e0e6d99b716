"""Window averages: spectral multipliers, prefix-sum quadrature, iterates.

The library averages every source on a cache; the spectral route
``(1 - m)^r`` of ``spectral_oracle`` is the oracle it is tested against."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latsamp import (
    DenseGridCache,
    TrigPoly,
    build_cache,
    corpus,
    i_minus_a_pow,
    i_minus_a_pow_at,
    make_uniform_nodes,
    multiplier,
    poly_norm,
    parse_spec,
    steklov_chain,
)
from latsamp.model import Partition, ensure_window_resolution, uniform_cells
from spectral_oracle import i_minus_a_pow_poly


def sinc_factor(k, h):
    # sin(k h / 2) / (k h / 2), the centered averaging factor
    return np.sinc(np.asarray(k) * h / (2 * np.pi))


def test_multiplier_centered_closed_form():
    ks = np.arange(-10, 11)
    h = 0.7
    got = multiplier(h, ks, centered=True)
    want = np.where(ks == 0, 1.0, np.sin(ks * h / 2) / np.where(ks == 0, 1.0, ks * h / 2))
    assert_allclose(got, want, atol=1e-15)
    assert got[ks == 0][0] == 1.0


def test_multiplier_shifted_phase():
    ks = np.array([-3, -1, 0, 2, 5])
    h = 0.4
    got = multiplier(h, ks, centered=False)
    want = sinc_factor(ks, h) * np.exp(0.5j * ks * h)
    assert_allclose(got, want, atol=1e-15)


def test_multiplier_magnitude_at_most_one():
    ks = np.arange(-64, 65)
    for h in (0.1, 1.0, np.pi, 2 * np.pi):
        assert np.max(np.abs(multiplier(h, ks))) <= 1.0 + 1e-15


@pytest.mark.parametrize("h", [0.0, -0.5, 7.0])
def test_h_window_validated(h):
    p = TrigPoly(np.array([0, 1, 0], dtype=complex))
    with pytest.raises(ValueError):
        steklov_chain(p, h, 1)


def test_steklov_poly_is_multiplier_product():
    """A polynomial is averaged on its cache; at every cache node the level is
    the polynomial whose coefficients are multiplied by ``m`` (measured:
    6.4e-15 at worst)."""
    rng = np.random.default_rng(0)
    c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    p = TrigPoly(c)
    h = 1.1
    for centered in (True, False):
        out = steklov_chain(p, h, 1, centered=centered)[1]
        want = TrigPoly(c * multiplier(h, p.freqs, centered)).at(out.gl_points())
        assert np.max(np.abs(out.gl_values - want)) <= 2e-14


def test_steklov_quadrature_vs_multiplier():
    """The prefix-sum route through a cache must agree with the exact factor."""
    f = corpus()["sine"]
    cache = build_cache(f, resolution=256)
    h = np.pi / 5
    out = steklov_chain(cache, h, 1)[1]
    x = np.linspace(-np.pi, np.pi - 1e-9, 87)
    want = sinc_factor(1, h) * np.sin(x)
    assert_allclose(out.values_at(x).real, want, atol=1e-11)


def test_steklov_shifted_quadrature():
    f = corpus()["exp3"]
    cache = build_cache(f, resolution=256)
    h = 0.9
    out = steklov_chain(cache, h, 1, centered=False)[1]
    x = np.linspace(-np.pi, np.pi - 1e-9, 53)
    want = multiplier(h, 3, centered=False) * np.exp(3j * x)
    assert_allclose(out.values_at(x), want, atol=1e-11)


def test_steklov_preserves_constants():
    one_poly = TrigPoly(np.array([3.0 + 0j]))
    assert_allclose(steklov_chain(one_poly, 1.3, 1)[1].gl_values, 3.0, rtol=1e-14)

    import latsamp
    one = latsamp.PointwiseFunction("one", lambda x: np.ones_like(np.asarray(x, float)))
    cache = build_cache(one, resolution=64)
    out = steklov_chain(cache, 2.0, 1)[1]
    assert_allclose(out.values_at(np.linspace(-3, 3, 11)).real, 1.0, rtol=1e-12)


def test_steklov_accepts_pointwise_function():
    out = steklov_chain(corpus()["sine"], np.pi / 7, 1)[1]
    x = np.array([0.3, 1.1, -2.0])
    assert_allclose(out.values_at(x).real, sinc_factor(1, np.pi / 7) * np.sin(x),
                    atol=1e-10)


# ----------------------------------------------------------------------------
# iterated differences (I - A_h)^r
# ----------------------------------------------------------------------------


def test_i_minus_a_pow_spectral():
    rng = np.random.default_rng(1)
    p = TrigPoly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    h = 0.8
    m = multiplier(h, p.freqs)
    for r in (1, 2, 3, 4):
        out = i_minus_a_pow_poly(p, h, r)
        assert_allclose(out.coeffs, p.coeffs * (1 - m) ** r, atol=1e-13)


def _poly_forms():
    """Exact TrigPoly forms of smooth, sine, exp1, exp3 and exp7."""
    forms = {"smooth": {-2: 0.5, -1: 0.5j, 1: -0.5j, 2: 0.5},
             "sine": {-1: 0.5j, 1: -0.5j}}
    forms.update({f"exp{k}": {k: 1.0} for k in (1, 3, 7)})
    out = {}
    for label, terms in forms.items():
        deg = max(abs(k) for k in terms)
        c = np.zeros(2 * deg + 1, dtype=complex)
        for k, v in terms.items():
            c[k + deg] = v
        out[label] = TrigPoly(c)
    return out


@pytest.mark.parametrize("centered", [True, False])
@pytest.mark.parametrize("n", [1, 8, 64, 256, 512])
def test_i_minus_a_pow_spectral_against_mpmath(n, centered):
    """Every coefficient of ``(1 - m)^r c_k`` to 1e-12 relative, down to sizes
    far below rounding of ``c_k`` (a binomial sum loses them to cancellation)."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    h = np.pi / (2 * n + 1)
    for poly in _poly_forms().values():
        for r in (1, 2, 3, 4):
            got = i_minus_a_pow_poly(poly, h, r, centered=centered).coeffs
            for k, c, g in zip(poly.freqs, poly.coeffs, got):
                theta = mpmath.mpf(h) * int(k) / 2
                m = mpmath.sin(theta) / theta if k else mpmath.mpf(1)
                if not centered:
                    m *= mpmath.expj(theta)
                want = complex(mpmath.mpc(c.real, c.imag) * (1 - m) ** r)
                assert abs(g - want) <= 1e-12 * abs(want), (k, r)


def test_i_minus_a_pow_kills_constants():
    """On the constant's cache, to twice ``eps |c| 2 pi / h``: a level reads its
    window as whole cells of the grid, whose summed width misses h by the
    rounding of the cell edges (measured: 7.1e-15, about ``eps |c| 2 pi / h``)."""
    p = TrigPoly(np.array([0, 0, 5.0, 0, 0], dtype=complex))
    h = 1.0
    out = i_minus_a_pow(p, h, 2)
    assert np.max(np.abs(out.gl_values)) <= 2 * np.finfo(float).eps * 5.0 * 2 * np.pi / h


@pytest.mark.parametrize("r", [0, 9, -1])
def test_iterate_count_window(r):
    p = TrigPoly(np.array([0, 1.0, 0], dtype=complex))
    with pytest.raises(ValueError):
        i_minus_a_pow(p, 1.0, r)


def test_discrete_iterates_capped_below_the_shifted_chain():
    """The shifted chain of order s <= 2r takes up to 8 levels; the discrete
    part's order r stays within ``MAX_ITERATES``."""
    p = TrigPoly(np.array([0, 1.0, 0], dtype=complex))
    assert len(steklov_chain(p, 1.0, 8, centered=False)) == 9
    with pytest.raises(ValueError, match=r"1\.\.4"):
        i_minus_a_pow_at(p, 1.0, 5, np.array([0.0]))


def test_i_minus_a_pow_cache_matches_poly():
    """Quadrature route for (I-A_h)^r against the exact spectral route."""
    rng = np.random.default_rng(2)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    c = c + np.conj(c[::-1])
    p = TrigPoly(c)
    cache = build_cache(p.as_pointwise(), resolution=512)
    h = np.pi / 6
    x = np.linspace(-np.pi, np.pi - 1e-9, 61)
    for r in (1, 2, 4):
        exact = i_minus_a_pow_poly(p, h, r).at(x)
        via_cache = i_minus_a_pow(cache, h, r).values_at(x)
        assert_allclose(via_cache, exact, atol=2e-10)


def test_i_minus_a_pow_at_agrees_with_materialized():
    f = corpus()["cusp15"]
    cache = build_cache(f, resolution=512)
    h = 0.3
    x = np.linspace(-np.pi, np.pi - 1e-9, 41)
    direct = i_minus_a_pow_at(cache, h, 2, x)
    materialized = i_minus_a_pow(cache, h, 2).values_at(x)
    assert_allclose(direct, materialized, atol=1e-9)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_i_minus_a_pow_at_honors_jump_values(r):
    """The zeroth term samples the declared value at a jump, not a limit."""
    sq = corpus()["square"]
    cache = build_cache(sq, resolution=256)
    h = 0.5
    out = i_minus_a_pow_at(cache, h, r, np.array([0.0]))
    # f(0) = 0 by declaration, and every centered average of the odd square
    # wave vanishes at 0 by symmetry
    assert abs(out[0]) < 1e-10


def test_window_step_memory():
    """The n = 128 step of a rates study on the square wave: no per-point
    evaluator calls or power matrices on the window-refined cache."""
    sq = corpus()["square"]
    h = np.pi / 257
    nodes = make_uniform_nodes(128).nodes
    tracemalloc.start()
    try:
        cache = build_cache(sq, n_scale=256)
        i_minus_a_pow(cache, h, 2, centered=False)
        i_minus_a_pow_at(cache, h, 1, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 55e6


def test_steklov_level_sends_only_graded_nodes_to_the_antiderivative(monkeypatch):
    """A shifted level at R = 32896, the n = 128 window resolution, takes F at
    the uniform cells' nodes through the landing plans: only nodes of graded
    panels, and nodes whose window end lands in one, are located by a panel
    search (10*M before), and the general antiderivative is never called."""
    cache = build_cache(corpus()["square"], resolution=32896)
    graded = cache.panel_count - uniform_cells(cache.edges, cache.resolution)[0].size
    sizes, plans = [], []
    antiderivative, landing_plan = DenseGridCache.antiderivative, Partition.landing_plan

    def counted(self, y):
        sizes.append(np.size(y))
        return antiderivative(self, y)

    def recorded(self, shift):
        plans.append(landing_plan(self, shift))
        return plans[-1]

    monkeypatch.setattr(DenseGridCache, "antiderivative", counted)
    monkeypatch.setattr(Partition, "landing_plan", recorded)
    level = steklov_chain(cache, np.pi / 257, 1, centered=False)[1]
    assert level.edges is cache.edges
    assert sizes == [] and len(plans) == 2
    assert sum(plan.lost[0].size for plan in plans) <= 10 * graded + 200
    # the window's left end is every node itself: no gather, and only graded nodes lost
    assert all(hit is None for hit, _, _ in plans[0].landings)
    assert plans[0].lost[0].size == 5 * graded


@pytest.mark.parametrize("centered", [True, False])
def test_chain_levels_share_two_plans_bit_for_bit(monkeypatch, centered):
    """``steklov_chain`` builds the two landing plans of its window once for all
    r levels (and ``i_minus_a_pow_at`` once for its r - 1), and each level
    equals, bit for bit, one average whose plans are built afresh."""
    cache = build_cache(corpus()["square"], resolution=1024)
    h = 0.7
    calls = []
    landing_plan = Partition.landing_plan
    monkeypatch.setattr(Partition, "landing_plan",
                        lambda self, shift: calls.append(shift) or landing_plan(self, shift))
    chain = steklov_chain(cache, h, 4, centered)
    assert len(calls) == 2
    level = cache
    for link in chain[1:]:
        level = steklov_chain(level, h, 1, centered)[1]
        assert np.array_equal(link.gl_values, level.gl_values)
        assert np.array_equal(link.prefix, level.prefix)
    calls.clear()
    x = np.linspace(-3.0, 3.0, 7)
    i_minus_a_pow_at(cache, h, 1, x, centered)
    assert calls == []
    i_minus_a_pow_at(cache, h, 4, x, centered)
    assert len(calls) == 2


def test_i_minus_a_pow_peak_memory():
    """``(I - A_h)^2`` of the square wave on its n = 128 window cache (M = 33948
    panels) peaks at no more than five (M, 5) node arrays above its input: its
    two levels, their binomial sum (in the levels' dtype, real here) and one
    transient.  The partition's cell map, part of the input, is built first."""
    h = np.pi / 257
    cache = ensure_window_resolution(build_cache(corpus()["square"], n_scale=256), h)
    assert cache.panel_count == 33948
    cache.partition.cell_map
    tracemalloc.start()
    try:
        out = i_minus_a_pow(cache, h, 2, centered=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.gl_values.dtype == np.float64
    assert peak <= 5 * cache.gl_values.nbytes


def _level_or_base(label, resolution):
    cache = build_cache(corpus()[label.removesuffix("-level")], resolution=resolution)
    if label.endswith("-level"):
        # a window of 64 grid steps keeps the resolution: a derived cache
        cache = steklov_chain(cache, 64 * 2 * np.pi / resolution, 1)[1]
        assert cache.fn is None and cache.resolution == resolution
    return cache


@pytest.mark.parametrize("resolution", [256, 1024, 65536])
@pytest.mark.parametrize("label", ["square", "cusp15", "sawtooth", "exp3", "square-level"])
def test_node_antiderivative_matches_the_general_route(label, resolution):
    """F(x + d) - F(e_j) at the Gauss-Legendre nodes of each panel [e_j, e_j+1]
    through the landing plan of ``d``, against :meth:`antiderivative` of
    ``gl_points()`` offset by ``d`` and anchored at the same panels: exact cell
    multiples, a node landing on a cell edge (``step/2`` moves the middle
    node to ``t = -1`` of the next cell) and windings past +-pi included."""
    cache = _level_or_base(label, resolution)
    h, step = np.pi / 257, 2 * np.pi / resolution
    x = cache.gl_points()
    panels = np.broadcast_to(np.arange(cache.panel_count)[:, None], x.shape)
    for d in (0.0, h, -h, h / 2, -h / 2, 8 * step, step / 2, -step / 2, 3.0,
              2 * np.pi, -2 * np.pi):
        want = cache.antiderivative(x, d, panels)
        got = cache.node_antiderivative(cache.partition.landing_plan(d))
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 4e-15 * max(1.0, np.max(np.abs(want))), d
    if np.isrealobj(cache.gl_values):
        assert cache.node_antiderivative(cache.partition.landing_plan(h)).dtype == np.float64


# measured max |error| at the nodes, (r = 1, 2, 4), centered then shifted
_SMOOTH_CACHE_ROUTE_ERRORS = {
    (True, 8): (1.8e-14, 3.5e-14, 1.3e-13), (True, 64): (2.2e-13, 3.0e-13, 1.0e-12),
    (True, 256): (8.6e-13, 1.9e-12, 5.7e-12), (True, 512): (2.0e-12, 3.1e-12, 1.3e-11),
    (False, 8): (1.8e-14, 3.4e-14, 1.2e-13), (False, 64): (2.2e-13, 3.8e-13, 1.4e-12),
    (False, 256): (8.6e-13, 1.6e-12, 6.3e-12), (False, 512): (2.0e-12, 3.6e-12, 1.3e-11),
}


@pytest.mark.parametrize("centered", [True, False])
@pytest.mark.parametrize("n", [8, 64, 256, 512])
def test_i_minus_a_pow_cache_route_against_spectral(n, centered):
    """``(I - A_h)^r`` of ``smooth`` on its window-refined cache, against the
    spectral route (frozen against mpmath above), at every cache node; each
    bound is twice the measured error."""
    h = np.pi / (2 * n + 1)
    cache = build_cache(corpus()["smooth"])
    poly = _poly_forms()["smooth"]
    for r, err in zip((1, 2, 4), _SMOOTH_CACHE_ROUTE_ERRORS[centered, n]):
        level = i_minus_a_pow(cache, h, r, centered)
        exact = i_minus_a_pow_poly(poly, h, r, centered).at(level.gl_points())
        assert np.max(np.abs(level.gl_values - exact)) <= 2 * err, r


def test_steklov_chain_lengths():
    cache = build_cache(corpus()["sine"], resolution=128)
    chain = steklov_chain(cache, 0.7, 3)
    assert len(chain) == 4
    x = np.array([0.25, -1.0])
    m = sinc_factor(1, 0.7)
    for j, link in enumerate(chain):
        assert_allclose(link.values_at(x).real, m ** j * np.sin(x), atol=1e-9)


def test_every_cache_route_takes_a_function():
    """A function is cached and refined for the window, as its base cache is;
    a derived cache is used as it is, even below the window resolution."""
    f = corpus()["square"]
    h = 0.05
    from_fn = steklov_chain(f, h, 2)
    from_cache = steklov_chain(build_cache(f), h, 2)
    assert from_fn[0].resolution == from_cache[0].resolution > build_cache(f).resolution
    for a, b in zip(from_fn, from_cache):
        assert np.array_equal(a.gl_values, b.gl_values)
    x = np.array([0.3, -2.0])
    assert np.array_equal(i_minus_a_pow_at(f, h, 2, x),
                          i_minus_a_pow_at(build_cache(f), h, 2, x))
    derived = steklov_chain(build_cache(f, resolution=128), 0.7, 1)[1]
    assert derived.fn is None
    assert steklov_chain(derived, 1e-3, 1)[0] is derived


def test_averaging_contracts_lebesgue():
    rng = np.random.default_rng(4)
    l1 = parse_spec("l1")
    l4 = parse_spec("lp:4")
    for _ in range(10):
        deg = int(rng.integers(1, 12))
        c = rng.standard_normal(2 * deg + 1) + 1j * rng.standard_normal(2 * deg + 1)
        p = TrigPoly(c)
        h = float(rng.uniform(0.05, 2 * np.pi))
        for spec in (l1, l4):
            averaged = TrigPoly(p.coeffs * multiplier(h, p.freqs))
            assert poly_norm(averaged, spec) <= poly_norm(p, spec) * (1 + 1e-9)
