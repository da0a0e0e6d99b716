"""Sampling operators: interpolation, window quasi-interpolants, WKS sums."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from latsamp import (
    OperatorSpec,
    PointwiseFunction,
    TrigPoly,
    apply_operator,
    approx_error,
    bandlimited_signal,
    br_window,
    build_cache,
    corpus,
    dirichlet_window,
    discrete_seminorm,
    fejer_window,
    lagrange,
    line_kernel,
    line_quasi,
    make_uniform_nodes,
    parse_operator,
    parse_spec,
    poly_norm,
    quasi_interp,
    wks,
)
from latsamp import operators
from latsamp.norms import weight_cell_integrals
from latsamp.trigpoly import MAX_DEGREE, Window

L1 = parse_spec("l1")
L2 = parse_spec("l2")
C = corpus()


# ----------------------------------------------------------------------------
# operator parsing
# ----------------------------------------------------------------------------


# each id with its window; the line operators are functions, with no id
ID_WINDOWS = {"lagrange": dirichlet_window(), "fejer": fejer_window(),
              "br:1": br_window(1.0), "br:2.5": br_window(2.5),
              "wks": None, "linefejer": None}


@pytest.mark.parametrize("text", list(ID_WINDOWS))
def test_parse_operator_families(text):
    window = ID_WINDOWS[text]
    if window is None:
        with pytest.raises(ValueError, match=r"lagrange\|fejer\|br:<alpha>"):
            parse_operator(text)
        return
    op = parse_operator(text)
    assert op.op_id == text
    xi = np.linspace(-1.0, 1.0, 201)
    assert_array_equal(op.window(xi), window(xi))


@pytest.mark.parametrize("bad", ["br:0", "br:-1", "br:", "br:nan", "br:inf", "br:1e400",
                                 "nope", "fejer:2"])
def test_parse_operator_invalid(bad):
    with pytest.raises(ValueError):
        parse_operator(bad)


@pytest.mark.parametrize("text", ["br:1.0", "br:1e0", "BR:01"])
def test_br_ids_are_canonical(text):
    """A ``br:`` id is stored as its window's name, so spellings of one alpha
    are one operator."""
    op = parse_operator(text)
    assert op == parse_operator("br:1")
    assert op.op_id == "br:1"


def test_br_ids_keep_every_digit_of_alpha():
    assert parse_operator("br:1234567").op_id == "br:1234567"
    assert parse_operator("br:1234567") != parse_operator("br:1234568")
    assert parse_operator("br:2.5").op_id == "br:2.5"


def test_parse_operator_idempotent():
    op = parse_operator("fejer")
    assert parse_operator(op) is op


def test_operator_spec_takes_only_its_id():
    """The window comes from the id, so a spec cannot name one and apply another."""
    with pytest.raises(TypeError):
        OperatorSpec("fejer", "quasi", fejer_window())
    with pytest.raises(TypeError):
        OperatorSpec("lagrange", window=fejer_window())
    assert OperatorSpec("fejer") == parse_operator(" Fejer ")
    assert hash(OperatorSpec("br:1")) == hash(parse_operator("br:1"))


# ----------------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 7, 20])
def test_lagrange_reproduces_polynomials(n):
    rng = np.random.default_rng(n)
    c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    p = TrigPoly(c)
    out = lagrange(p, n)
    assert_allclose(out.coeffs, p.coeffs, atol=1e-10)


def test_lagrange_interpolates_rough_samples():
    """The interpolant hits the declared sample values at every node."""
    n = 9
    sq = C["square"]
    out = lagrange(sq, n)
    nodes = 2 * np.pi * np.arange(2 * n + 1) / (2 * n + 1)
    assert_allclose(out.at(nodes).real, sq(nodes), atol=1e-10)
    assert np.max(np.abs(out.at(nodes).imag)) < 1e-10


def test_lagrange_aliases_high_modes():
    n = 5
    f = C["exp7"]  # frequency 7 = (2n+1) - 4 aliases to -4
    out = lagrange(f, n)
    want = np.zeros(2 * n + 1, dtype=complex)
    want[n - 4] = 1.0
    assert_allclose(out.coeffs, want, atol=1e-12)


def test_dirichlet_quasi_equals_interpolation():
    n = 8
    for f in (C["square"], C["cusp05"]):
        a = lagrange(f, n)
        b = quasi_interp(f, n, dirichlet_window())
        assert_allclose(a.coeffs, b.coeffs, atol=1e-13)


def test_fejer_quasi_on_sine():
    """Triangle window scales the +-1 modes by 1 - 1/n."""
    n = 10
    out = quasi_interp(C["sine"], n, fejer_window())
    want = TrigPoly(np.array([0.5j, 0, -0.5j])) * (1 - 1 / n)
    x = np.linspace(-np.pi, np.pi, 33)
    assert_allclose(out.at(x), want.at(x), atol=1e-12)


def test_apply_operator_dispatch():
    n = 6
    f = C["cusp15"]
    assert_allclose(apply_operator(parse_operator("lagrange"), f, n).coeffs,
                    lagrange(f, n).coeffs, atol=0)
    assert_allclose(apply_operator(parse_operator("fejer"), f, n).coeffs,
                    quasi_interp(f, n, fejer_window()).coeffs, atol=0)


def test_node_data_are_read_in_node_order():
    """An array of node data is in ``make_uniform_nodes(n).nodes`` order: the
    interpolant takes the k-th datum at the k-th node, up to MAX_DEGREE."""
    rng = np.random.default_rng(3)
    op = parse_operator("lagrange")
    for n, tol in [*((n, 1e-12) for n in range(1, 65)), (MAX_DEGREE, 5e-11)]:
        d = rng.standard_normal(2 * n + 1)
        got = apply_operator(op, d, n).at(make_uniform_nodes(n).nodes)
        assert np.max(np.abs(got - d)) <= tol, n


@pytest.mark.parametrize("n", [4, 8])
def test_unit_datum_sits_on_its_own_cell(n):
    """On wlp:2:-0.5, the K1/K2 ratio of a unit datum at node x_k is the norm
    of the fundamental polynomial peaked at x_k over the norm of the step
    on x_k's own cell ``[x_k, x_{k+1})``."""
    spec = parse_spec("wlp:2:-0.5")
    nodes = make_uniform_nodes(n)
    op = parse_operator("lagrange")
    for k, (x_k, gap) in enumerate(zip(nodes.nodes, nodes.gaps())):
        datum = np.zeros(nodes.count)
        datum[k] = 1.0
        got = poly_norm(apply_operator(op, datum, n), spec) / discrete_seminorm(datum, nodes, spec)
        fundamental = TrigPoly(np.exp(-1j * np.arange(-n, n + 1) * x_k) / nodes.count)
        cell = np.sqrt(weight_cell_integrals(np.array([x_k]), np.array([gap]), spec.beta)[0]
                       / (2 * np.pi))
        assert_allclose(got, poly_norm(fundamental, spec) / cell, rtol=1e-12)


def test_apply_operator_rejects_line_families():
    """A line operator has no id, so no spec reaches ``apply_operator``."""
    with pytest.raises(ValueError):
        apply_operator(parse_operator("wks"), C["sine"], 8)


# ----------------------------------------------------------------------------
# approx_error
# ----------------------------------------------------------------------------


def test_approx_error_zero_for_reproduced():
    err = approx_error(C["sine"], parse_operator("lagrange"), 4, L2)
    assert err.continuous < 1e-10
    assert err.discrete < 1e-10
    assert_allclose(err.total, err.continuous + err.discrete)


def test_approx_error_square_positive_and_shrinking():
    op = parse_operator("lagrange")
    e8 = approx_error(C["square"], op, 8, L2)
    e32 = approx_error(C["square"], op, 32, L2)
    print("square lagrange L2:", e8.continuous, e32.continuous)
    assert e8.continuous > e32.continuous > 0.05


def test_approx_error_discrete_vanishes_at_interpolation_nodes():
    # interpolation matches samples, so the node seminorm of the error is 0
    err = approx_error(C["sawtooth"], parse_operator("lagrange"), 12, L1)
    assert err.discrete < 1e-10
    assert err.continuous > 0


def test_approx_error_fejer_has_node_residual():
    err = approx_error(C["square"], parse_operator("fejer"), 12, L2)
    assert err.discrete > 0.01  # smoothing misses the samples


def test_approx_error_with_supplied_cache_and_nodes():
    f = C["cusp15"]
    cache = build_cache(f, n_scale=16)
    a = approx_error(cache, parse_operator("br:1"), 8, L2)
    b = approx_error(f, parse_operator("br:1"), 8, L2)
    assert_allclose(a.continuous, b.continuous, rtol=1e-9)
    assert_allclose(a.discrete, b.discrete, rtol=1e-9)


# ----------------------------------------------------------------------------
# cardinal series on the line
# ----------------------------------------------------------------------------


def test_bandlimited_signal_shape():
    f = bandlimited_signal(8.0)
    t = np.linspace(-3, 3, 101)
    assert_allclose(f(t), np.sinc(8.0 * t / np.pi) ** 2, atol=1e-15)
    assert f.domain == "line"
    assert f.decay == (1.0 / 64.0, 2.0)
    with pytest.raises(ValueError):
        bandlimited_signal(0.0)


def test_wks_reconstructs_bandlimited():
    f = bandlimited_signal(8.0)
    sigma = 32.0
    x = np.linspace(-2, 2, 201)
    vals, bound = wks(f, sigma, trunc=256, x=x)
    err = np.abs(vals - f(x))
    assert np.all(np.isfinite(bound))
    assert np.all(err <= bound + 1e-15)
    print("wks sup err:", err.max(), "max bound:", bound.max())
    assert err.max() < 1e-3


def test_wks_error_decreases_with_truncation():
    f = bandlimited_signal(8.0)
    x = np.linspace(-1, 1, 101)
    e = []
    for K in (128, 256, 512):
        vals, _ = wks(f, 32.0, K, x)
        e.append(np.max(np.abs(vals - f(x))))
    assert e[0] > e[1] > e[2]


def test_wks_bound_inf_past_certified_zone():
    f = bandlimited_signal(8.0)
    _, bound = wks(f, 32.0, 16, np.array([0.0, 100.0]))
    assert np.isfinite(bound[0])
    assert np.isinf(bound[1])  # sigma*x beyond the truncation edge


def test_wks_bound_inf_without_decay_certificate():
    """Without a certificate there is no bound, only ``inf``."""
    f = bandlimited_signal(8.0)
    bare = PointwiseFunction(label="bare", evaluator=f.evaluator, domain="line")
    vals, bound = wks(bare, 32.0, 64, np.array([0.0, 0.5]))
    assert_allclose(vals, wks(f, 32.0, 64, np.array([0.0, 0.5]))[0], atol=0)
    assert np.all(np.isinf(bound))


def test_wks_validation():
    f = bandlimited_signal(4.0)
    with pytest.raises(ValueError):
        wks(f, 0.0, 16, np.array([0.0]))
    with pytest.raises(ValueError):
        wks(f, 8.0, 0, np.array([0.0]))


SERIES = {"wks": lambda f, sigma, trunc, x: wks(f, sigma, trunc, x)[0],
          "line_quasi": line_quasi}


@pytest.mark.parametrize("series", sorted(SERIES))
@pytest.mark.parametrize("sigma", [0.0, -8.0, np.nan, np.inf, -np.inf])
def test_line_series_reject_bad_sigma(series, sigma):
    """A sampling rate that is not positive and finite is refused by name
    (NaN once gave NaN values with a NaN tail bound, inf a RuntimeWarning)."""
    with pytest.raises(ValueError, match="sigma"):
        SERIES[series](bandlimited_signal(4.0), sigma, 16, np.array([0.0]))


@pytest.mark.parametrize("series", sorted(SERIES))
@pytest.mark.parametrize("trunc", [0, -3, 2.5, 16.0, True, "16"])
def test_line_series_reject_bad_trunc(series, trunc):
    """A truncation index that is not an integer >= 1 is refused by name
    (2.5 once summed silently over half-integer k)."""
    with pytest.raises(ValueError, match="trunc"):
        SERIES[series](bandlimited_signal(4.0), 8.0, trunc, np.array([0.0]))


@pytest.mark.parametrize("a", [-1.0, np.nan, np.inf])
def test_bandlimited_signal_rejects_bad_bandwidth(a):
    with pytest.raises(ValueError, match="bandwidth"):
        bandlimited_signal(a)


@pytest.mark.parametrize("budget, trunc, rows", [(1000, 64, 7), (100, 64, 1)])
def test_line_series_blocks_follow_the_element_budget(monkeypatch, budget, trunc, rows):
    """Each block holds ``budget // (2 trunc + 1)`` rows of kernel values, at
    least one, so its size is bounded whatever ``trunc``; the sums are those
    of one block."""
    f, x = bandlimited_signal(4.0), np.linspace(-1.0, 1.0, 301)
    want = wks(f, 16.0, trunc, x)[0]
    shapes = []

    def kernel(t):
        shapes.append(t.shape)
        return np.sinc(t)

    monkeypatch.setattr(operators, "LINE_CHUNK", budget)
    got = operators._line_series(f, 16.0, trunc, x, kernel)
    assert {shape[1] for shape in shapes} == {2 * trunc + 1}
    assert max(shape[0] for shape in shapes) == rows
    assert sum(shape[0] for shape in shapes) == x.size
    assert_allclose(got, want, rtol=0, atol=1e-15)


def test_line_kernel_triangle_closed_form():
    x = np.linspace(-30, 30, 401)
    got = line_kernel(fejer_window(), x)
    want = np.sinc(x / (2 * np.pi)) ** 2 / (2 * np.pi)
    assert_allclose(got, want, atol=1e-15)


def test_line_kernel_quadrature_route_matches():
    """A tabulated triangle forces the Gauss-Legendre path; same kernel."""
    grid = np.linspace(-1, 1, 4001)
    tri = Window("tri-table", lambda xi: np.interp(xi, grid, 1.0 - np.abs(grid)))
    x = np.linspace(-8, 8, 101)
    assert_allclose(line_kernel(tri, x), line_kernel(fejer_window(), x), atol=1e-7)


def test_line_quasi_partition_of_unity():
    """sum_k K(sigma x - k) == 1, so constants come back up to the tail."""
    one = bandlimited_signal(1.0)  # only used for its interface

    import latsamp
    const = latsamp.PointwiseFunction("c1", lambda t: np.ones_like(np.asarray(t, float)),
                                      domain="line")
    x = np.linspace(-0.5, 0.5, 41)
    out = line_quasi(const, sigma=8.0, trunc=400, x=x)
    assert_allclose(out, 1.0, atol=5e-3)
    assert one.domain == "line"


def test_line_quasi_default_window_is_triangle():
    f = bandlimited_signal(4.0)
    x = np.linspace(-1, 1, 21)
    a = line_quasi(f, 16.0, 64, x)
    b = line_quasi(f, 16.0, 64, x, window=fejer_window())
    assert_allclose(a, b, atol=0)
