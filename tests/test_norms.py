"""Lattice norms: parsing, closed-form values, Luxemburg, dilation operators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

import latsamp as ls
from latsamp import (
    NormSpec,
    StepFunction,
    TrigPoly,
    corpus,
    dilation_norm,
    dilation_norm_info,
    discrete_seminorm,
    make_jittered_nodes,
    make_uniform_nodes,
    norm,
    parse_spec,
    poly_norm,
    steklov_bound_probe,
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
    ("orlicz:power:3", "orlicz", 3.0),
])
def test_parse_spec_valid(text, kind, p):
    spec = parse_spec(text)
    assert spec.kind == kind
    assert spec.p == p


def test_parse_spec_llogl():
    spec = parse_spec("orlicz:llogl")
    assert spec.kind == "orlicz"
    assert spec.phi == "llogl"
    assert spec.id == "orlicz:llogl"


def test_spec_id_roundtrip():
    for text in ("l1", "l2", "lp:1.5", "wlp:2:0.5", "orlicz:power:2", "orlicz:llogl"):
        spec = parse_spec(text)
        assert parse_spec(spec.id).id == spec.id


@pytest.mark.parametrize("bad", [
    "l0", "lp:0.5", "wlp:2:3", "wlp:2:-2", "orlicz:exp", "orlicz:power:0.2",
    "nonsense", "wlp:2", "lp", "",
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


def test_stepfunction_from_nodes():
    nodes = make_uniform_nodes(2)
    sf = StepFunction.from_nodes(np.arange(5.0), nodes)
    assert sf.values.size == 5
    assert_allclose(sf.widths.sum(), 2 * np.pi, rtol=1e-14)


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
    """The Luxemburg norm of ``t^p`` is the ``L^p`` norm: step, cache and
    polynomial routes give the same number, with no bisection."""
    def no_bisection(*args, **kwargs):
        raise AssertionError("power Orlicz norm ran the Luxemburg bisection")

    monkeypatch.setattr(ls.norms, "luxemburg", no_bisection)
    lebesgue, orlicz = NormSpec("lebesgue", p), NormSpec("orlicz", p=p, phi="power")
    f = corpus()["cusp05"]
    nodes = make_jittered_nodes(8, 0.4, 7)
    cache = ls.build_cache(f, resolution=1024)
    rng = np.random.default_rng(8)
    poly = TrigPoly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    for route in (lambda spec: discrete_seminorm(f, nodes, spec),
                  lambda spec: norm(cache, spec),
                  lambda spec: poly_norm(poly, spec)):
        assert_allclose(route(orlicz), route(lebesgue), rtol=1e-15)


# ----------------------------------------------------------------------------
# dilation operator norms
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("r", [0.5, 0.25, 0.125])
def test_dilation_lebesgue_closed_form(p, r):
    spec = NormSpec("lebesgue", p)
    value, method = dilation_norm_info(spec, r)
    assert method == "closed-form"
    assert value == r ** (-1.0 / p)


def test_dilation_orlicz_power():
    spec = parse_spec("orlicz:power:2")
    assert_allclose(dilation_norm(spec, 0.25), 2.0, rtol=1e-8)


def test_dilation_llogl_at_least_identity():
    spec = parse_spec("orlicz:llogl")
    v = dilation_norm(spec, 0.5)
    assert np.isfinite(v)
    assert v >= 1.0  # compressions never contract the norm


def test_dilation_rejects_bad_factor():
    with pytest.raises(ValueError):
        dilation_norm(L2, 0.0)
    with pytest.raises(ValueError):
        dilation_norm(L2, -1.0)


def test_steklov_bound_probe_reports():
    rep = steklov_bound_probe(L2, trials=8, seed=0)
    assert rep.spec_id == "l2"
    assert np.isfinite(rep.sup_ratio)
    # averaging contracts L2 (multiplier magnitudes <= 1)
    assert rep.sup_ratio <= 1.0 + 1e-9
    assert len(rep.per_h) == 4
    print("steklov bound probe:", rep.sup_ratio)
