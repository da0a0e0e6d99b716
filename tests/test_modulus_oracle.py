"""The default-width semidiscrete modulus of the square wave and the sawtooth
against a 30-digit oracle.

Both functions are piecewise linear, so every window average of them is a
piecewise polynomial: with ``F_k`` a k-th antiderivative on the line,
``A_h^k f = h^-k Delta^k F_k``, where ``Delta`` is the forward difference of
step h (shifted window) or the central one (centered window).  The oracle
takes the ``F_k`` piece by piece in mpmath and integrates ``|(I - A_h)^s f|^2``
between its kinks ``b - j h`` by a 12-point Gauss-Legendre rule, exact for
the degree ``2(s + 1) <= 18`` of the integrand.
"""

from functools import lru_cache
from math import comb

import mpmath as mp
import numpy as np
import pytest

from latsamp import corpus, make_uniform_nodes, semidiscrete_modulus
from latsamp.norms import parse_spec

DPS = 40
L2 = parse_spec("l2")

# per function: pieces (a, b, c0, c1) of f = c0 + c1 (x - a) on (a, b), over
# [-2 pi, 2 pi], which holds every window of every node; kinks mod 2 pi
_PIECES = {
    "square": lambda pi: [(-2 * pi, -pi, 1, 0), (-pi, 0, -1, 0), (0, pi, 1, 0),
                          (pi, 2 * pi, -1, 0)],
    "sawtooth": lambda pi: [(-2 * pi, 0, -pi / 2, mp.mpf(1) / 2),
                            (0, 2 * pi, -pi / 2, mp.mpf(1) / 2)],
}
_KINKS = {"square": lambda pi: [-pi, 0], "sawtooth": lambda pi: [0]}


@lru_cache(maxsize=None)
def _gauss_legendre(m=12):
    """m-point Gauss-Legendre nodes and weights on [-1, 1], Newton-refined."""
    with mp.workdps(DPS):
        nodes, weights = [], []
        for x0 in np.polynomial.legendre.leggauss(m)[0]:
            x = mp.mpf(x0)
            for _ in range(6):
                p, q = mp.legendre(m, x), mp.legendre(m - 1, x)
                dp = m * (x * p - q) / (x * x - 1)
                x -= p / dp
            p, q = mp.legendre(m, x), mp.legendre(m - 1, x)
            dp = m * (x * p - q) / (x * x - 1)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes, weights


@lru_cache(maxsize=None)
def _antiderivatives(label, kmax=8):
    """``[F_0, ..., F_kmax]``, each a list of pieces ``(a, coefficients in x - a)``
    on [-2 pi, 2 pi], every ``F_k`` continuous and vanishing at -2 pi."""
    with mp.workdps(DPS):
        levels = [[(a, [mp.mpf(c0), mp.mpf(c1)]) for a, _b, c0, c1 in _PIECES[label](mp.pi)]]
        ends = [b for _a, b, _c0, _c1 in _PIECES[label](mp.pi)]
        for _ in range(kmax):
            pieces, value = [], mp.mpf(0)
            for (a, coef), b in zip(levels[-1], ends):
                up = [value] + [c / (m + 1) for m, c in enumerate(coef)]
                pieces.append((a, up))
                value = mp.polyval(up[::-1], b - a)
            levels.append(pieces)
        return levels


def _at(pieces, x):
    """A piecewise polynomial at x, in the piece that starts at or below x."""
    a, coef = [p for p in pieces if p[0] <= x][-1]
    return mp.polyval(coef[::-1], x - a)


def _i_minus_a_pow(label, h, r, x, centered):
    """``(I - A_h)^r f (x)`` for x off the kinks, or at a kink through its
    jump value (the mean of both sides) in the zeroth term."""
    levels = _antiderivatives(label)
    starts = [a for a, _coef in levels[0]]
    if x in starts:
        (a, left), (_, right) = levels[0][starts.index(x) - 1: starts.index(x) + 1]
        out = (mp.polyval(left[::-1], x - a) + right[0]) / 2
    else:
        out = _at(levels[0], x)
    for k in range(1, r + 1):
        lead = mp.mpf(k) / 2 if centered else 0
        diff = sum((-1) ** (k - j) * comb(k, j) * _at(levels[k], x + (j - lead) * h)
                   for j in range(k + 1))
        out += (-1) ** k * comb(r, k) * diff / h ** k
    return out


@lru_cache(maxsize=None)
def oracle_continuous(label, n, s):
    """``||(I - A_h^shifted)^s f||_L2`` at ``h = pi/(2n+1)``, in DPS digits."""
    with mp.workdps(DPS):
        h = mp.pi / (2 * n + 1)
        cuts = {(k - j * h + mp.pi) % (2 * mp.pi) - mp.pi
                for k in _KINKS[label](mp.pi) for j in range(s + 1)}
        edges = sorted(cuts | {-mp.pi, mp.pi})
        nodes, weights = _gauss_legendre()
        total = mp.mpf(0)
        for a, b in zip(edges, edges[1:]):
            half = (b - a) / 2
            total += half * sum(w * _i_minus_a_pow(label, h, s, a + half * (t + 1), False) ** 2
                                for t, w in zip(nodes, weights))
        return mp.sqrt(total / (2 * mp.pi))


@lru_cache(maxsize=None)
def oracle_discrete(label, n, r):
    """``||(I - A_h)^r f||_{X_n}`` on the 2n+1 uniform nodes, taken where the
    library takes them (``make_uniform_nodes``, rounded to double).  A centered
    average reproduces affine functions, so only nodes within ``r h / 2`` of a
    kink (mod 2 pi) carry a value; every other node's is exactly 0."""
    with mp.workdps(DPS):
        h, m = mp.pi / (2 * n + 1), 2 * n + 1
        total = mp.mpf(0)
        for x in map(mp.mpf, make_uniform_nodes(n).nodes):
            near = min(abs((x - k + mp.pi) % (2 * mp.pi) - mp.pi) for k in _KINKS[label](mp.pi))
            if near <= r * h / 2:
                total += _i_minus_a_pow(label, h, r, x, True) ** 2
        return mp.sqrt(total / m)


ORDERS = [(r, s) for r in range(1, 5) for s in range(1, 2 * r + 1)]


@pytest.mark.parametrize("n", [8, 64, 512])
@pytest.mark.parametrize("label", ["square", "sawtooth"])
def test_default_width_modulus_matches_the_oracle(label, n):
    """Every (r, s) with r <= 4 and 1 <= s <= 2r: the continuous part within
    1e-12 relative, and the discrete part within 1e-14 absolute, both where
    its true value is 0 and where it is not (only the square wave's at r >= 3,
    from its jump at -pi).  Measured over all 20 pairs: 3.6e-14 and 5.8e-15
    at worst."""
    f = corpus()[label]
    for r, s in ORDERS:
        rep = semidiscrete_modulus(f, n, r, s, L2)
        cont = float(oracle_continuous(label, n, s))
        assert abs(rep.continuous - cont) <= 1e-12 * cont, (r, s)
        assert abs(rep.discrete - float(oracle_discrete(label, n, r))) <= 1e-14, (r, s)


def test_oracle_against_the_square_wave_spectrum():
    """The oracle's continuous part of the square wave at s = 1, n = 8 against
    its Fourier series: the coefficients ``2/(i pi k)`` at odd k, times ``1 - m``
    of the shifted window, ``|1 - m|^2 = 1 - sin(2t)/t + (sin(t)/t)^2`` at
    ``t = kh/2``, summed to K = 1e6; the tail is ``4/(pi^2 K)`` to O(K^-2)."""
    K, h = 10 ** 6, np.pi / 17
    k = np.arange(1, K, 2, dtype=float)
    t = 0.5 * k * h
    terms = 8.0 / (np.pi * k) ** 2 * (1.0 - np.sin(2 * t) / t + (np.sin(t) / t) ** 2)
    spectral = np.sqrt(np.sum(terms[::-1]) + 4.0 / (np.pi ** 2 * K))
    assert abs(spectral - float(oracle_continuous("square", 8, 1))) <= 1e-12 * spectral


def test_frozen_cache_source_value_is_the_oracles():
    """The square wave's modulus at n = 16, (r, s) = (1, 2), frozen in
    ``test_smoothness.KEYWORD_VALUES``, is the oracle's to 1e-13."""
    assert abs(0.179786629990198 - float(oracle_continuous("square", 16, 2))) <= 1e-13
    assert float(oracle_discrete("square", 16, 1)) < 1e-25
