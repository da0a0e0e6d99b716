"""Lattice norms: parsing, closed-form values, Luxemburg, dilation operators."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

import latsamp as ls
from latsamp import (
    NodeSet,
    NormSpec,
    TrigPoly,
    corpus,
    dilation_norm,
    discrete_seminorm,
    make_jittered_nodes,
    make_uniform_nodes,
    norm,
    parse_spec,
    poly_norm,
)
from latsamp.norms import luxemburg, weight_cell_integrals

L1 = parse_spec("l1")
L2 = parse_spec("l2")
L4 = parse_spec("lp:4")


# ----------------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("text,kind,p", [
    ("l1", "lebesgue", 1.0),
    ("l2", "lebesgue", 2.0),
    ("lp:1.5", "lebesgue", 1.5),
    ("LP:4", "lebesgue", 4.0),
    ("wlp:2:0.5", "weighted", 2.0),
    # the Luxemburg norm of t^p is the L^p norm, and parses to its spec
    ("orlicz:power:3", "lebesgue", 3.0),
])
def test_parse_spec_valid(text, kind, p):
    spec = parse_spec(text)
    assert spec.kind == kind
    assert spec.p == p


def test_parse_spec_llogl():
    spec = parse_spec("orlicz:llogl")
    assert spec == NormSpec("orlicz")
    assert spec.p is None and spec.beta is None
    assert spec.id == "orlicz:llogl"


def test_spellings_of_lp_parse_to_its_spec():
    """A weight of exponent 0 and the Young function t^p are the L^p norm:
    each spelling parses to the one spec, so every route reads it alike."""
    assert parse_spec("orlicz:power:2") == parse_spec("wlp:2:0") == parse_spec("l2")
    assert parse_spec("orlicz:power:1.5") == parse_spec("wlp:1.5:0") == parse_spec("lp:1.5")
    # wlp:1:0 was rejected (beta < p - 1 = 0 failed); it is the L1 norm
    assert parse_spec("wlp:1:0") == parse_spec("l1")
    assert parse_spec("wlp:1:0").id == "l1"


def test_a_spec_takes_exactly_its_own_parameters():
    """A spec cannot say two things at once: each kind rejects the others'
    parameters, and there is no Young-function field."""
    with pytest.raises(TypeError):
        NormSpec("lebesgue", p=2.0, phi="llogl")
    with pytest.raises(TypeError):
        NormSpec("orlicz", phi="llogl")
    with pytest.raises(ValueError, match="orlicz"):
        NormSpec("orlicz", p=1.0)
    with pytest.raises(ValueError, match="orlicz"):
        NormSpec("orlicz", beta=0.5)
    with pytest.raises(ValueError, match="beta != 0"):
        NormSpec("weighted", p=2, beta=0.0)
    with pytest.raises(ValueError, match="weighted"):
        NormSpec("weighted", p=2)
    with pytest.raises(ValueError, match="lebesgue"):
        NormSpec("lebesgue", p=2, beta=0.5)
    with pytest.raises(ValueError, match="lebesgue"):
        NormSpec("lebesgue")


def test_spec_id_roundtrip():
    for text in ("l1", "l2", "lp:1.5", "wlp:2:0.5", "orlicz:power:2", "orlicz:llogl"):
        spec = parse_spec(text)
        assert parse_spec(spec.id).id == spec.id


@pytest.mark.parametrize("bad", [
    "l0", "lp:0.5", "wlp:2:3", "wlp:2:-2", "orlicz:exp", "orlicz:power:0.2",
    "nonsense", "wlp:2", "lp", "",
    # an infinite exponent would read every norm as 1
    "lp:inf", "lp:nan", "wlp:inf:0.5", "orlicz:power:inf",
])
def test_parse_spec_invalid(bad):
    with pytest.raises(ValueError):
        parse_spec(bad)


def test_weighted_exponent_window():
    # beta must lie strictly between -1 and p-1
    NormSpec("weighted", p=2.0, beta=0.5)
    NormSpec("weighted", p=4.0, beta=2.5)
    with pytest.raises(ValueError):
        NormSpec("weighted", p=2.0, beta=1.0)
    with pytest.raises(ValueError):
        NormSpec("weighted", p=2.0, beta=-1.0)


# ----------------------------------------------------------------------------
# closed-form continuous norms (normalized measure dx/2pi)
# ----------------------------------------------------------------------------


def test_sine_norms():
    f = corpus()["sine"]
    assert_allclose(norm(f, L2), 1 / np.sqrt(2), rtol=1e-12)
    assert_allclose(norm(f, L1), 2 / np.pi, rtol=1e-12)
    assert_allclose(norm(f, L4), (3.0 / 8.0) ** 0.25, rtol=1e-12)


def test_square_norms_all_one():
    sq = corpus()["square"]
    for spec in (L1, L2, L4, parse_spec("lp:1.5")):
        assert_allclose(norm(sq, spec), 1.0, rtol=1e-10)


def test_cusp_l2_norms():
    c = corpus()
    # ||  |sin|^{1/2} ||_2^2 = (1/2pi) int |sin| = 2/pi
    assert_allclose(norm(c["cusp05"], L2), np.sqrt(2 / np.pi), rtol=1e-10)
    # ||  |sin|^{3/2} ||_2^2 = (1/2pi) int |sin|^3 = 4/(3 pi)
    assert_allclose(norm(c["cusp15"], L2), np.sqrt(4 / (3 * np.pi)), rtol=1e-10)


def test_weighted_norm_of_constant():
    """|2 sin(x/2)|^{1/2} weight: mean = (2 sqrt2/pi) int_0^{pi/2} sin^{1/2}."""
    spec = parse_spec("wlp:2:0.5")
    one = ls.PointwiseFunction("one", lambda x: np.ones_like(np.asarray(x, float)))
    wallis = (np.sqrt(np.pi) / 2) * gamma_fn(0.75) / gamma_fn(1.25)
    want = np.sqrt(2 * np.sqrt(2) / np.pi * wallis)
    assert_allclose(norm(one, spec), want, rtol=1e-10)


def test_orlicz_power_equals_lebesgue():
    f = corpus()["sine"]
    assert_allclose(norm(f, parse_spec("orlicz:power:2")), norm(f, L2), rtol=1e-9)
    assert_allclose(norm(f, parse_spec("orlicz:power:4")), norm(f, L4), rtol=1e-9)


def test_norm_scales_homogeneously():
    rng = np.random.default_rng(3)
    p = TrigPoly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    for spec in (L1, parse_spec("wlp:2:0.5"), parse_spec("orlicz:llogl")):
        a = norm(p, spec)
        b = norm(p * 3.5, spec)
        assert_allclose(b, 3.5 * a, rtol=1e-8)


def test_norm_triangle_inequality():
    rng = np.random.default_rng(4)
    for spec in (L2, parse_spec("orlicz:llogl"), parse_spec("wlp:2:0.5")):
        p = TrigPoly(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        q = TrigPoly(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        assert norm(p + q, spec) <= norm(p, spec) + norm(q, spec) + 1e-9


def test_poly_norm_l2_is_coefficient_norm():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = TrigPoly(rng.standard_normal(11) + 1j * rng.standard_normal(11))
        assert_allclose(poly_norm(p, L2), np.linalg.norm(p.coeffs), rtol=1e-12)


WEIGHT_BETAS = (-0.9, -0.5, 0.5, 0.9)


@pytest.mark.parametrize("beta", WEIGHT_BETAS)
def test_weighted_l2_poly_norm_is_the_cache_quadrature(beta):
    """The Toeplitz form in the weight moments is the cache route's
    ``sum m |T|^2`` on the same partition, for real and non-Hermitian
    coefficients and their derivatives."""
    spec = parse_spec(f"wlp:2:{beta}")
    rng = np.random.default_rng(17)
    worst = 0.0
    for n in (1, 2, 7, 63, 64, 65, 129, 300):
        for imag in (0.0, 1.0):
            p = TrigPoly(rng.standard_normal(2 * n + 1) + imag * rng.standard_normal(2 * n + 1))
            for q in (p, p.derivative()):
                cache = ls.build_cache(q.as_pointwise(), resolution=max(1024, 16 * n))
                want = norm(cache, spec)
                worst = max(worst, abs(poly_norm(q, spec) - want) / want)
    assert worst <= 4e-15


def test_weighted_l2_norms_on_one_partition_build_one_cache(monkeypatch):
    """The moments are analysed once per (partition, beta) and kept read-only."""
    built = []
    def counting(*args, **kwargs):
        built.append(kwargs.get("resolution"))
        return ls.build_cache(*args, **kwargs)

    monkeypatch.setattr(ls.norms, "build_cache", counting)
    ls.model.partition.cache_clear()
    spec = parse_spec("wlp:2:-0.5")
    rng = np.random.default_rng(18)
    for _ in range(25):
        n = int(rng.integers(1, 64))
        assert poly_norm(TrigPoly(rng.standard_normal(2 * n + 1)), spec) > 0.0
    assert built == [1024]
    mu = ls.model.partition(1024).weighted_moments[spec.beta]
    assert mu.shape == (1024 // 4 + 1,)
    with pytest.raises(ValueError):
        mu[0] = 0


# twice the largest deviation measured over |k| <= R/8, relative to mu_0; the
# deviation is the cache quadrature's error on the singular weight, largest
# for beta near -1
MOMENT_TOLERANCES = {
    (-0.9, 1024): 8e-12, (-0.9, 4096): 7e-12,
    (-0.5, 1024): 1.1e-12, (-0.5, 4096): 5.5e-13,
    (0.5, 1024): 4e-15, (0.5, 4096): 1.2e-14,
    (0.9, 1024): 3.4e-15, (0.9, 4096): 1.25e-14,
}


@pytest.mark.parametrize("beta,resolution", sorted(MOMENT_TOLERANCES))
def test_weight_moments_against_mpmath(beta, resolution):
    """``mu_k / 2pi`` against the closed form of the weight's Fourier
    coefficients, ``(-1)^k Gamma(beta+1) / (Gamma(1+beta/2+k) Gamma(1+beta/2-k))``."""
    mpmath = pytest.importorskip("mpmath")
    from latsamp.norms import _weight_moments

    kmax = resolution // 8
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)
        exact = np.array([float((-1) ** k * mpmath.gamma(b + 1)
                                / (mpmath.gamma(1 + b / 2 + k) * mpmath.gamma(1 + b / 2 - k)))
                          for k in range(kmax + 1)])
    exact = np.concatenate([exact[:0:-1], exact])
    mu = _weight_moments(resolution, parse_spec(f"wlp:2:{beta}")) / (2 * np.pi)
    assert np.max(np.abs(mu - exact)) <= MOMENT_TOLERANCES[beta, resolution] * exact[kmax]


# ----------------------------------------------------------------------------
# Luxemburg functional
# ----------------------------------------------------------------------------


def test_luxemburg_power_modular():
    # modular(lam) = (a/lam)^p  =>  norm = a
    for a in (0.3, 2.0, 17.5):
        lam = luxemburg(lambda lam, a=a: (a / lam) ** 2, scale=1.0)
        assert_allclose(lam, a, rtol=1e-9)


def test_luxemburg_zero_function():
    assert luxemburg(lambda lam: 0.0, scale=1.0) == 0.0


LLOGL = parse_spec("orlicz:llogl")


class _Counted:
    """A modular that counts its evaluations."""

    def __init__(self, modular):
        self.modular, self.calls = modular, 0

    def __call__(self, lam):
        self.calls += 1
        return self.modular(lam)


def _step_modular(values, widths):
    """The ``t log(1+t)`` modular of a step function, as ``_measure_norm`` forms it."""
    return lambda lam: float(np.sum(widths * LLOGL.young(values / lam)) / (2 * np.pi))


def _llogl_root(mpmath, values, widths):
    """The lambda with ``sum w (a/lambda) log(1 + a/lambda) / 2pi = 1``, to 30 digits."""
    a = [mpmath.mpf(float(v)) for v in values]
    w = [mpmath.mpf(float(v)) for v in widths]

    def g(u):
        t = [ai / mpmath.exp(u) for ai in a]
        return mpmath.log(mpmath.fsum(wi * ti * mpmath.log1p(ti)
                                      for wi, ti in zip(w, t)) / (2 * mpmath.pi))

    u0 = mpmath.log(max(a))
    return mpmath.exp(mpmath.findroot(g, (u0, u0 - mpmath.mpf("0.5"))))


def _random_steps(rng, cells=64):
    """Random cell widths tiling the circle, and amplitude sets from 1e-100
    to 1e100: narrow spreads at fixed magnitudes, plus one set spread over
    the whole range."""
    widths = rng.dirichlet(np.ones(cells)) * 2 * np.pi
    sets = [10.0 ** (k + rng.uniform(-3.0, 0.0, cells)) for k in (-100, -30, 0, 30, 100)]
    sets.append(10.0 ** rng.uniform(-100.0, 100.0, cells))
    return widths, sets


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_luxemburg_random_steps_against_mpmath(seed):
    """Within 1e-15 relative of a 30-digit root in at most 10 modular
    evaluations, for ``scale`` from 1e-12 to 1e12 times the root."""
    mpmath = pytest.importorskip("mpmath")
    widths, sets = _random_steps(np.random.default_rng(seed))
    with mpmath.workdps(30):
        for values in sets:
            root = _llogl_root(mpmath, values, widths)
            for offset in (1e-12, 1e-6, 1.0, 1e6, 1e12):
                modular = _Counted(_step_modular(values, widths))
                got = luxemburg(modular, scale=float(root) * offset)
                assert modular.calls <= 10, (offset, modular.calls)
                assert float(abs(got / root - 1)) <= 1e-15, (offset, got, root)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_luxemburg_power_modular_is_exact(p):
    """The log of a power modular is linear in log lambda: the bracket and one
    regula falsi step land on the root."""
    for a in (0.3, 2.0, 17.5):
        modular = _Counted(lambda lam, a=a: (a / lam) ** p)
        assert_allclose(luxemburg(modular, scale=1.0), a, rtol=1e-15)
        assert modular.calls <= 3


def test_luxemburg_scale_at_the_root():
    modular = _Counted(lambda lam: (2.0 / lam) ** 2)
    assert luxemburg(modular, scale=2.0) == 2.0
    assert modular.calls == 1
    widths, sets = _random_steps(np.random.default_rng(3))
    modular = _step_modular(sets[2], widths)
    root = luxemburg(modular, scale=sets[2].max())
    assert_allclose(luxemburg(modular, scale=root), root, rtol=1e-15)


def test_luxemburg_scale_within_ulps_of_the_root():
    """A ``scale`` a few ulp from the root, where two modular values can round
    to the same number, gives the cold-start root to 4 ulp, with no warning."""
    cache = ls.build_cache(corpus()["sawtooth"], n_scale=6)
    mass = cache.gl_weights().ravel()
    rng = np.random.default_rng(20)
    for _ in range(40):
        values = np.abs(cache.gl_values.real.ravel() + 0.1 * rng.standard_normal(mass.size))
        modular = _step_modular(values, mass)
        root = luxemburg(modular, scale=values.max())
        ulp = np.spacing(root)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-6, 7):
                got = luxemburg(modular, scale=root + k * ulp)
                assert abs(got - root) <= 4 * ulp, (k, got, root)


@pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
def test_luxemburg_rejects_bad_scale(scale):
    with pytest.raises(ValueError):
        luxemburg(lambda lam: 1.0 / lam, scale=scale)


def test_llogl_norm_of_a_narrow_spike():
    """A 1e9-high spike on a 1e-9-wide cell, within 1e-15 of 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    widths = np.array([1e-9, 2 * np.pi - 1e-9])
    values = np.array([1e9, 1.0])
    nodes = NodeSet(np.array([0.0, 1e-9]), n=1)
    assert_allclose(nodes.gaps(), widths, rtol=0)
    got = discrete_seminorm(values, nodes, LLOGL)
    with mpmath.workdps(30):
        assert float(abs(got / _llogl_root(mpmath, values, widths) - 1)) <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_llogl_norm_propagates_nan_and_inf(bad):
    """NaN and inf samples give the norm the Lebesgue route gives, not 0."""
    nodes = NodeSet(np.arange(-2, 2) * np.pi / 2, n=2)
    values = np.array([1.0, 2.0, bad, 1.0])
    f = ls.PointwiseFunction(
        "bad", lambda x: np.where(np.abs(np.asarray(x) - 1.0) < 0.05, bad, 1.0))
    cache = ls.build_cache(f, resolution=1024)
    for route in (lambda spec: discrete_seminorm(values, nodes, spec),
                  lambda spec: norm(cache, spec)):
        np.testing.assert_equal(route(LLOGL), route(L2))
        np.testing.assert_equal(route(LLOGL), bad)


def test_llogl_refined_solve_heap_peak():
    """The sawtooth/llogl n=1 refined solve keeps its heap peak small: the
    modular's buffers die with each norm call."""
    import tracemalloc

    f = corpus()["sawtooth"]
    ls.best_approx(f, 1, LLOGL, method="refined")
    tracemalloc.start()
    try:
        ls.best_approx(f, 1, LLOGL, method="refined")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"heap peak {peak / 1e6:.2f} MB")
    assert peak <= 5e6


# ----------------------------------------------------------------------------
# step functions and discrete seminorms
# ----------------------------------------------------------------------------


def test_step_norm_uniform_l2_is_rms():
    n = 6
    nodes = make_uniform_nodes(n)
    rng = np.random.default_rng(6)
    vals = rng.standard_normal(nodes.count)
    got = discrete_seminorm(vals, nodes, L2)
    assert_allclose(got, np.sqrt(np.mean(vals ** 2)), rtol=1e-12)


def test_step_norm_constant_is_one():
    nodes = make_uniform_nodes(5)
    for spec in (L1, L2, L4):
        assert_allclose(discrete_seminorm(np.ones(nodes.count), nodes, spec),
                        1.0, rtol=1e-12)


def test_discrete_seminorm_accepts_functions_and_polys():
    n = 8
    nodes = make_uniform_nodes(n)
    f = corpus()["sine"]
    p = TrigPoly(np.array([0.5j, 0, -0.5j]))  # sin x
    a = discrete_seminorm(f, nodes, L2)
    b = discrete_seminorm(p, nodes, L2)
    assert_allclose(a, b, rtol=1e-12)
    # uniform nodes + L2: grid Parseval gives the continuous norm exactly
    assert_allclose(a, 1 / np.sqrt(2), rtol=1e-12)


def test_discrete_seminorm_size_mismatch():
    nodes = make_uniform_nodes(3)
    with pytest.raises(ValueError):
        discrete_seminorm(np.ones(5), nodes, L2)


def test_weight_cell_integrals_partition():
    """Summing the exact per-cell weight integrals recovers the full integral."""
    beta = 0.5
    edges = np.linspace(-np.pi, np.pi, 33)
    cells = weight_cell_integrals(edges[:-1], np.diff(edges), beta)
    wallis = (np.sqrt(np.pi) / 2) * gamma_fn(0.75) / gamma_fn(1.25)
    want = 2 * np.sqrt(2) * 2 * wallis  # int_{-pi}^{pi} |2 sin(x/2)|^{1/2} dx
    assert_allclose(cells.sum(), want, rtol=1e-9)
    assert np.all(cells >= 0)


def _weight_antiderivative(mpmath, x, beta):
    """``int_0^x |2 sin(t/2)|^beta dt`` for real x, by the incomplete beta
    function in mpmath (the weight is even and 2pi-periodic)."""
    s, half = (beta + 1) / 2, mpmath.mpf(1) / 2
    scale = mpmath.power(2, beta)
    to_pi = scale * mpmath.beta(s, half)
    turns = mpmath.floor((x + mpmath.pi) / (2 * mpmath.pi))
    y = x - 2 * mpmath.pi * turns
    sign, y = mpmath.sign(y), abs(y)
    if y <= mpmath.pi / 2:
        inner = scale * mpmath.betainc(s, half, 0, mpmath.sin(y / 2) ** 2)
    else:
        inner = to_pi - scale * mpmath.betainc(half, s, 0, mpmath.cos(y / 2) ** 2)
    return 2 * to_pi * turns + sign * inner


@pytest.mark.parametrize("beta", [-0.9, -0.5, 0.5, 1.5])
def test_weight_cell_integrals_match_mpmath(beta):
    """Every node cell, uniform and jittered, n up to 4096, against 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)
        for n in (1, 8, 64, 512, 4096):
            for nodes in (make_uniform_nodes(n), make_jittered_nodes(n, 0.4, 7)):
                x = nodes.nodes
                ends = [mpmath.mpf(v) for v in x] + [mpmath.mpf(x[0]) + 2 * mpmath.pi]
                prim = [_weight_antiderivative(mpmath, e, b) for e in ends]
                want = np.array([float(hi - lo) for lo, hi in zip(prim, prim[1:])])
                got = weight_cell_integrals(x, nodes.gaps(), beta)
                worst = max(worst, float(np.max(np.abs(got - want) / want)))
    print(f"beta={beta}: worst relative error {worst:.2e}")
    assert worst <= 1e-10


@pytest.mark.parametrize("left,width,beta", [
    (0.1, 1.9, -0.9),          # near the singularity, beta close to -1
    (-0.5, 4.0, -0.5),         # across 0 and pi: three half-period pieces
    (-np.pi, 2 * np.pi, 0.5),  # the whole circle as one cell
])
def test_weight_cell_integrals_single_cells(left, width, beta):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        b, lo = mpmath.mpf(beta), mpmath.mpf(left)
        want = float(_weight_antiderivative(mpmath, lo + mpmath.mpf(width), b)
                     - _weight_antiderivative(mpmath, lo, b))
    got = weight_cell_integrals(np.array([left]), np.array([width]), beta)[0]
    assert_allclose(got, want, rtol=1e-14)


@pytest.mark.parametrize("beta", [-0.9, -0.5, 0.5])
def test_weighted_constant_closed_form_on_both_routes(beta):
    """``||1||`` in wlp:2:beta is ``(2^beta B((beta+1)/2, 1/2) / pi)^(1/2)``
    through the cache route and the step route alike."""
    spec = NormSpec("weighted", p=2.0, beta=beta)
    want = (2.0 ** beta * beta_fn((beta + 1) / 2, 0.5) / np.pi) ** 0.5
    one = ls.PointwiseFunction("one", lambda x: np.ones_like(np.asarray(x, float)))
    assert_allclose(norm(one, spec), want, rtol=1e-12)
    for nodes in (make_uniform_nodes(16), make_jittered_nodes(16, 0.4, 7)):
        assert_allclose(discrete_seminorm(np.ones(nodes.count), nodes, spec), want,
                        rtol=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_orlicz_power_is_lebesgue_on_every_route(p, monkeypatch):
    """The Luxemburg norm of ``t^p`` is the ``L^p`` norm: it parses to the
    Lebesgue spec, so step, cache and polynomial routes give the Lebesgue
    number, with no bisection."""
    def no_bisection(*args, **kwargs):
        raise AssertionError("power Orlicz norm ran the Luxemburg bisection")

    monkeypatch.setattr(ls.norms, "luxemburg", no_bisection)
    lebesgue, orlicz = NormSpec("lebesgue", p), parse_spec(f"orlicz:power:{p:g}")
    assert orlicz == lebesgue
    f = corpus()["cusp05"]
    nodes = make_jittered_nodes(8, 0.4, 7)
    cache = ls.build_cache(f, resolution=1024)
    rng = np.random.default_rng(8)
    poly = TrigPoly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    for route in (lambda spec: discrete_seminorm(f, nodes, spec),
                  lambda spec: norm(cache, spec),
                  lambda spec: poly_norm(poly, spec)):
        assert route(orlicz) == route(lebesgue)


# ----------------------------------------------------------------------------
# dilation operator norms
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("r", [0.5, 0.25, 0.125])
def test_dilation_lebesgue_closed_form(p, r):
    spec = NormSpec("lebesgue", p)
    assert dilation_norm(spec, r) == r ** (-1.0 / p)


def test_dilation_orlicz_power():
    spec = parse_spec("orlicz:power:2")
    assert_allclose(dilation_norm(spec, 0.25), 2.0, rtol=1e-8)


def test_dilation_llogl_at_least_identity():
    spec = parse_spec("orlicz:llogl")
    v = dilation_norm(spec, 0.5)
    assert np.isfinite(v)
    assert v >= 1.0  # compressions never contract the norm


@pytest.mark.parametrize("r,want", [
    (2.0 ** -8, 256.0), (0.125, 8.0), (0.25, 4.0), (0.5, 2.0), (1.0, 1.0),
    (2.0, 2.0 ** -0.5), (16.0, 0.25),
])
def test_dilation_llogl_closed_form(r, want):
    """``max(1/r, r^(-1/2))``: a compression (r < 1) by ``1/r``, a dilation
    (r > 1) by ``r^(-1/2)``, the identity by 1."""
    assert dilation_norm(LLOGL, r) == want


def _llogl_inverse_mp(mpmath, y):
    """``phi^{-1}(y)`` for ``phi(u) = u log(1+u)``, solved for ``v = log u``,
    where the equation is scaled alike at every magnitude of y."""
    logy = mpmath.log(y)
    v0 = logy - mpmath.log(logy) if y > 3 else logy / 2
    v = mpmath.findroot(lambda v: v + mpmath.log(mpmath.log1p(mpmath.exp(v))) - logy, v0)
    return mpmath.exp(v)


@pytest.mark.parametrize("r", [2.0 ** -8, 0.5, 2.0, 16.0])
def test_dilation_llogl_is_the_sup_against_mpmath(r):
    """In 40 digits, ``phi^{-1}(t)/phi^{-1}(rt)`` stays below the closed form on
    ``t = 10^k``, ``|k| <= 300``, and reaches it within 1e-5: as ``t -> inf``
    for ``r < 1``, as ``t -> 0`` for ``r > 1``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        r_mp = mpmath.mpf(r)
        bound = max(1 / r_mp, 1 / mpmath.sqrt(r_mp))
        assert float(bound) == dilation_norm(LLOGL, r)

        def ratio(t):
            return _llogl_inverse_mp(mpmath, t) / _llogl_inverse_mp(mpmath, r_mp * t)

        worst = max(ratio(mpmath.mpf(10) ** k) for k in range(-300, 301))
        assert worst <= bound * (1 + mpmath.mpf(10) ** -30), (r, worst)
        limit = ratio(mpmath.mpf(10) ** (10 ** 6) if r < 1 else mpmath.mpf("1e-300"))
        assert abs(limit / bound - 1) <= 1e-5, (r, limit)


def test_dilation_has_no_uncertified_weighted_value():
    """A weight with beta != 0 has no closed form or grid sup: it raises
    rather than return an estimate; beta = 0 is the Lebesgue closed form."""
    with pytest.raises(ValueError, match="wlp:2:-0.5"):
        dilation_norm(parse_spec("wlp:2:-0.5"), 0.5)
    with pytest.raises(ValueError):
        dilation_norm(parse_spec("wlp:1.5:0.25"), 0.25)
    assert dilation_norm(parse_spec("wlp:2:0"), 0.25) == 2.0


def test_dilation_rejects_bad_factor():
    """Only a positive finite factor has a dilation norm: NaN and inf raise
    a ``ValueError`` naming ``r``, not a NaN, a 0 or a warning."""
    for spec in (L1, L2, LLOGL):
        for r in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="dilation factor r"):
                dilation_norm(spec, r)
