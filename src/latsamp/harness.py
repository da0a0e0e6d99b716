"""Empirical probes and studies tying the operators to the smoothness machinery.

The probes estimate the sampling-operator constants

    K1:  ||G_n f||      <= K1 ||f||_{X_n}       (node data -> operator)
    K2:  ||G_n f||      >= K2 ||f||_{X_n}
    K3:  ||T - G_n T||  <= K3 n^{-s} ||T^(s)||  (Jackson direction)
    K4:  ||T - G_n T||  >= K4 n^{-s} ||T^(s)||  (converse direction)

over random ensembles, the Marcinkiewicz-Zygmund discrete/continuous norm
ratios, the error-vs-modulus equivalence tables, log-log rate fits, the
vanishing-coefficient counterexample (a train of shrinking bumps the Fejer
quasi-interpolant annihilates), the one-sided/dilation-sum comparisons, and a
factor-4 convergence-trend check.

Everything is deterministic given a seed: per-n generators are spawned from
``SeedSequence([seed, tag, n])``, so a scale's row does not depend on which
other scales run with it.  Studies run their ``(f, n)`` tasks serially
through :func:`parallel_map`; a task passes its function's cache, not the
function, to every quantity, and the one-sided study shares it across tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .bestapprox import besov_sum, one_sided_best
from .model import (GL_NODES, GL_WEIGHTS, TWO_PI, PointwiseFunction, build_cache,
                    make_jittered_nodes, make_uniform_nodes)
from .norms import NormSpec, _measure_norm, discrete_seminorm, poly_norm
from .operators import apply_operator, approx_error, parse_operator
from .smoothness import (default_width, kfunc_vp, realization,
                         semidiscrete_modulus)
from .steklov import i_minus_a_pow_at
from .trigpoly import TrigPoly, _real_poly

# entropy tags keeping the per-purpose random streams disjoint
_TAG_NODE_DATA = 11
_TAG_POLY = 12
_TAG_MZ = 13

# the fewest scales a log-log rate fit and a convergence trend take
_FIT_MIN_SCALES = 5
_TREND_MIN_SCALES = 2


def parallel_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``: the one place a study maps its tasks.

    It stays a named call because ``perfbench/layers.py`` wraps it to time
    each ``(f, n)`` task and count the items, and ``perfbench/selftest.py``
    needs that count on three workloads.
    """
    return [fn(item) for item in items]


def random_real_poly(n: int, rng: np.random.Generator) -> TrigPoly:
    """Random real-valued T of degree n with i.i.d. standard-normal amplitudes."""
    a = np.empty(2 * n + 1)
    a[0] = rng.standard_normal()
    a[1::2], a[2::2] = rng.standard_normal(n), rng.standard_normal(n)  # cos, then sin
    return _real_poly(a)


# ----------------------------------------------------------------------------
# Probe reports
# ----------------------------------------------------------------------------


@dataclass
class ProbeReport:
    probe_id: str
    spec_id: str
    n_range: tuple
    constants: Dict[str, float]
    per_n: List[dict] = field(repr=False)
    trials: int = 0
    seed: int = 0


def probe_assumptions(op, spec: NormSpec, s: int, n_range: Sequence[int],
                      trials: int = 50, seed: int = 0) -> ProbeReport:
    """Empirical K1/K2 (node-data) and K3/K4 (polynomial) constants."""
    op = parse_operator(op)
    if s < 1:
        raise ValueError("smoothness order s must be >= 1")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n_range = tuple(n_range)

    def one_n(n: int) -> dict:
        rng_data = np.random.default_rng(np.random.SeedSequence([seed, _TAG_NODE_DATA, n]))
        rng_poly = np.random.default_rng(np.random.SeedSequence([seed, _TAG_POLY, n]))
        nodes = make_uniform_nodes(n)
        k1, k2 = -np.inf, np.inf
        for _ in range(trials):
            data = rng_data.standard_normal(2 * n + 1)
            denom = discrete_seminorm(data, nodes, spec)
            if denom <= 1e-12:
                continue
            ratio = poly_norm(apply_operator(op, data, n), spec) / denom
            k1 = max(k1, ratio)
            k2 = min(k2, ratio)
        k3, k4 = -np.inf, np.inf
        for _ in range(trials):
            t = random_real_poly(n, rng_poly)
            denom = poly_norm(t.derivative(s), spec)
            if denom <= 1e-12:
                continue
            err = poly_norm(t - apply_operator(op, t, n), spec)
            ratio = float(n) ** s * err / denom
            k3 = max(k3, ratio)
            k4 = min(k4, ratio)
        return {"n": n, "k1_sup": k1, "k2_inf": k2, "k3_sup": k3, "k4_inf": k4}

    per_n = parallel_map(one_n, n_range)
    constants = {
        "K1": max(row["k1_sup"] for row in per_n),
        "K2": min(row["k2_inf"] for row in per_n),
        "K3": max(row["k3_sup"] for row in per_n),
        "K4": min(row["k4_inf"] for row in per_n),
    }
    return ProbeReport(probe_id=f"assumptions:{op.op_id}:s={s}", spec_id=spec.id,
                       n_range=n_range, constants=constants, per_n=per_n,
                       trials=trials, seed=seed)


def mz_probe(spec: NormSpec, scheme: str, n_range: Sequence[int],
             trials: int = 50, seed: int = 0, jitter: float = 0.4) -> ProbeReport:
    """Discrete/continuous norm ratios for random T, plus a Bernstein ratio."""
    if scheme not in ("uniform", "jittered"):
        raise ValueError("node scheme must be 'uniform' or 'jittered'")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n_range = tuple(n_range)

    def one_n(n: int) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_MZ, n]))
        if scheme == "uniform":
            nodes = make_uniform_nodes(n)
        else:
            nodes = make_jittered_nodes(n, jitter=jitter, seed=seed)
        hi, lo, bern = -np.inf, np.inf, -np.inf
        for _ in range(trials):
            t = random_real_poly(n, rng)
            cont = poly_norm(t, spec)
            if cont <= 1e-12:
                continue
            ratio = discrete_seminorm(t, nodes, spec) / cont
            hi = max(hi, ratio)
            lo = min(lo, ratio)
            bern = max(bern, poly_norm(t.derivative(1), spec) / (n * cont))
        return {"n": n, "mz_sup": hi, "mz_inf": lo, "bernstein_sup": bern}

    per_n = parallel_map(one_n, n_range)
    constants = {
        "MZ_upper": max(row["mz_sup"] for row in per_n),
        "MZ_lower": min(row["mz_inf"] for row in per_n),
        "Bernstein": max(row["bernstein_sup"] for row in per_n),
    }
    return ProbeReport(probe_id=f"mz:{scheme}", spec_id=spec.id,
                       n_range=n_range, constants=constants, per_n=per_n,
                       trials=trials, seed=seed)


# ----------------------------------------------------------------------------
# Equivalence tables
# ----------------------------------------------------------------------------

EQUIV_STUDIES = ("error_vs_modulus", "br_riesz", "br_fejer", "error_vs_kfunc",
                  "error_vs_realization")

# short aliases accepted on the command line
_EQUIV_ALIASES = {
    "modulus": "error_vs_modulus",
    "riesz": "br_riesz",
    "fejer": "br_fejer",
    "kfunc": "error_vs_kfunc",
    "realization": "error_vs_realization",
}


@dataclass
class EquivTable:
    study: str
    rows: List[dict] = field(repr=False)
    excluded: List[dict] = field(repr=False, default_factory=list)
    notes: List[str] = field(default_factory=list)
    violations: List[dict] = field(repr=False, default_factory=list)

    @property
    def min_ratio(self) -> float:
        return float(min((r["ratio"] for r in self.rows), default=np.nan))

    @property
    def max_ratio(self) -> float:
        return float(max((r["ratio"] for r in self.rows), default=np.nan))

    @property
    def spread(self) -> float:  # inf if a ratio is not positive, NaN with no rows
        return self.max_ratio / self.min_ratio if not self.min_ratio <= 0 else np.inf


def equivalence_study(study: str, functions: Dict[str, PointwiseFunction], op,
                      spec: NormSpec, r: int, s: int, n_range: Sequence[int],
                      gamma: Optional[float] = None) -> EquivTable:
    """Error-vs-smoothness ratio table for one equivalence flavor.

    lhs = continuous + discrete interpolation error; rhs depends on the study:
    the semidiscrete modulus (``error_vs_modulus`` and the window-specific
    ``br_riesz``/``br_fejer`` variants), the V_n K-functional surrogate, or the
    realization functional.  Rows whose rhs vanishes must have lhs <= 1e-9 and
    are excluded with a note; rows with both sides below 1e-12 are dropped.
    """
    study = _EQUIV_ALIASES.get(study, study)
    if study not in EQUIV_STUDIES:
        raise ValueError(f"unknown study {study!r}; pick from {EQUIV_STUDIES}")
    if 2 * r < s:
        raise ValueError("need 2r >= s")
    op = parse_operator(op)
    table = EquivTable(study=study, rows=[])
    if study == "br_riesz" and not op.op_id.startswith("br:"):
        raise ValueError("br_riesz expects a Bochner-Riesz operator (br:<alpha>)")
    if study == "br_fejer":
        if op.op_id != "fejer":
            raise ValueError("br_fejer expects the fejer operator")
        if not (spec.kind == "lebesgue" and spec.p > 1.0):
            table.notes.append(
                f"skipped: converse for the fejer window needs Lebesgue p in (1, inf); "
                f"precondition unverified for {spec.id}")
            return table

    tasks = [(label, f, n) for label, f in functions.items() for n in n_range]
    for row in parallel_map(partial(_equivalence_row, study, op, spec, r, s, gamma), tasks):
        lhs, rhs = row["lhs"], row["rhs"]
        if lhs < 1e-12 and rhs < 1e-12:
            row["note"] = "both sides below 1e-12"
            table.excluded.append(row)
            continue
        if rhs == 0.0:
            row["note"] = "rhs zero"
            table.excluded.append(row)
            if lhs > 1e-9:
                table.violations.append(row)
            continue
        if lhs <= 1e-9:
            # reproduction-scale lhs (e.g. interpolation of T in T_n) would
            # put a meaningless near-zero ratio into the summary
            row["note"] = "lhs at reproduction scale (<= 1e-9)"
            table.excluded.append(row)
            continue
        row["ratio"] = lhs / rhs
        table.rows.append(row)
    table.rows.sort(key=lambda row: (row["f_label"], row["n"]))
    if table.excluded:
        table.notes.append(f"{len(table.excluded)} row(s) excluded")
    if table.violations:
        table.notes.append(
            f"{len(table.violations)} row(s) violate the zero-rhs rule (lhs > 1e-9)")
    return table


def _equivalence_row(study: str, op, spec: NormSpec, r: int, s: int, gamma, item) -> dict:
    """The ``(label, f, n)`` task of :func:`equivalence_study`: one cache of f
    at the scale ``2n`` is the source of the error and of the rhs."""
    label, f, n = item
    cache = build_cache(f, n_scale=2 * n)
    if study == "error_vs_realization":
        # the realization's error terms are approx_error's, from its one G_n f
        rep = realization(cache, n, s, op, spec)
        lhs_c, lhs_d = rep.continuous, rep.discrete
        rhs_c, rhs_d = lhs_c + rep.derivative_term, lhs_d
    else:
        err = approx_error(cache, op, n, spec)
        lhs_c, lhs_d = err.continuous, err.discrete
        if study == "error_vs_kfunc":
            rhs_c, rhs_d = kfunc_vp(cache, 1.0 / n, s, spec), 0.0
        else:
            mod = semidiscrete_modulus(cache, n, r, s, spec, gamma=gamma)
            rhs_c, rhs_d = mod.continuous, mod.discrete
    return {"f_label": label, "n": n,
            "lhs_continuous": lhs_c, "lhs_discrete": lhs_d,
            "rhs_continuous": rhs_c, "rhs_discrete": rhs_d,
            "lhs": lhs_c + lhs_d, "rhs": rhs_c + rhs_d}


# ----------------------------------------------------------------------------
# Rate fits
# ----------------------------------------------------------------------------


@dataclass
class RateFit:
    slope: float
    intercept: float
    residual: float
    n_range: tuple
    values: tuple = ()
    exact: bool = False


def fit_loglog(ns: Sequence[int], values: Sequence[float]) -> RateFit:
    """Least-squares slope of log(value) against log(n).

    Values at or below 1e-13 are floored at 1e-16; if every value is floored
    the sequence is flagged ``exact`` and the slope set to 0.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    if ns.size < _FIT_MIN_SCALES:
        raise ValueError(f"rate fits need at least {_FIT_MIN_SCALES} scale values")
    floored = vals <= 1e-13
    safe = np.where(floored, 1e-16, vals)
    if np.all(floored):
        return RateFit(slope=0.0, intercept=np.log(1e-16), residual=0.0,
                       n_range=tuple(int(v) for v in ns),
                       values=tuple(float(v) for v in vals), exact=True)
    coeff, stats = np.polynomial.polynomial.polyfit(
        np.log(ns), np.log(safe), 1, full=True)
    resid_arr = stats[0]
    residual = float(np.sqrt(resid_arr[0] / ns.size)) if resid_arr.size else 0.0
    return RateFit(slope=float(coeff[1]), intercept=float(coeff[0]), residual=residual,
                   n_range=tuple(int(v) for v in ns),
                   values=tuple(float(v) for v in vals))


def rate_study(f: PointwiseFunction, op, spec: NormSpec, n_range: Sequence[int],
               r: int = 1, s: int = 2, gamma: Optional[float] = None):
    """Decay-rate fits of the interpolation error and the matching modulus,
    per scale the ``error_vs_modulus`` task of :func:`equivalence_study`."""
    op = parse_operator(op)
    if 2 * r < s:
        raise ValueError("need 2r >= s")
    rows = parallel_map(partial(_equivalence_row, "error_vs_modulus", op, spec, r, s, gamma),
                        [(f.label, f, n) for n in n_range])
    return (fit_loglog(n_range, [row["lhs"] for row in rows]),
            fit_loglog(n_range, [row["rhs"] for row in rows]))


# ----------------------------------------------------------------------------
# Vanishing-coefficient counterexample
# ----------------------------------------------------------------------------


_BUMP_PANELS = 64


def smooth_bump(u):
    """``exp(1 - 1/(1 - 4u^2))`` on (-1/2, 1/2), zero outside; peak value 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 0.5
    t = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - 4.0 * t * t))
    return out


def _bump_quadrature():
    """``bump(u)`` at composite Gauss-Legendre nodes on [-1/2, 1/2], and the weights."""
    edges = np.linspace(-0.5, 0.5, _BUMP_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * GL_NODES[None, :]
    return smooth_bump(pts), half[:, None] * GL_WEIGHTS[None, :]


def bump_train(n: int, k0: int, width: float) -> PointwiseFunction:
    """``sum_j e^{i k0 t_j} bump((x - t_j)/width)`` with nodes t_j = 2 pi j/(2n+1).

    The supports are disjoint once width <= pi/(2n+1), so each evaluation point
    sees at most the bump of its nearest node.
    """
    m = 2 * n + 1
    step = TWO_PI / m

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        j = np.rint(x / step)
        t = j * step
        return np.exp(1j * k0 * t) * smooth_bump((x - t) / width)

    return PointwiseFunction(label=f"bump_train:{n}", evaluator=evaluate)


def _vanishes_at_band_edge(op) -> bool:
    """Whether ``G_n`` annihilates the frequency n: the window is 0 at ``xi = 1``."""
    return abs(op.window(np.array([1.0]))[0]) <= 1e-15


@dataclass
class CounterexampleTable:
    window: str
    spec_id: str
    rows: List[dict] = field(repr=False)
    final_ratio: float = np.nan
    max_coefficient: float = np.nan


def counterexample_run(n_range: Sequence[int], spec: NormSpec = NormSpec("lebesgue", 2.0),
                       window: str = "fejer") -> CounterexampleTable:
    """Bump trains the window annihilates: discrete error stays at ``||1||_X``
    while the continuous norm collapses with the bump width.

    The width is ``min(s_n, pi/(2n+1))`` where the fundamental function of the
    norm satisfies ``phi_X(s_n) = (2n+1)^{-2}``; for Lebesgue(p) this is
    ``2 pi (2n+1)^{-2p}``.  The carrier frequency is k0 = n, where the window
    profile vanishes, so the quasi-interpolant of the train is identically 0.
    """
    if spec.kind not in ("lebesgue", "orlicz"):
        raise ValueError("the bump-width calibration needs an unweighted norm")
    op = parse_operator(window)
    if not _vanishes_at_band_edge(op):
        raise ValueError(f"window {window!r} does not vanish at the band edge; "
                         "no annihilated frequency exists")

    def one_n(n: int) -> dict:
        m = 2 * n + 1
        # phi_X(s) = 1/Y^{-1}(2pi/s)  =>  s_n = 2pi / Y(m^2)
        s_n = TWO_PI / spec.young(float(m) ** 2)
        width = min(s_n, np.pi / m)
        f = bump_train(n, n, width)
        nodes = make_uniform_nodes(n)
        samples = f(nodes.nodes)
        g = apply_operator(op, samples, n)
        coeff_max = float(np.max(np.abs(g.coeffs)))
        disc = discrete_seminorm(np.abs(samples), nodes, spec)
        # m bumps of width ``width``: u = (x - t_j)/width scales dx to width du
        bump, weights = _bump_quadrature()
        cont = _measure_norm(bump, m * width * weights, spec)
        ratio = disc / cont if cont > 0 else np.inf
        return {"n": n, "width": width, "continuous_error": cont,
                "discrete_error": disc, "ratio": ratio, "coeff_max": coeff_max}

    rows = parallel_map(one_n, list(n_range))
    return CounterexampleTable(window=op.op_id, spec_id=spec.id, rows=rows,
                               final_ratio=rows[-1]["ratio"],
                               max_coefficient=max(r["coeff_max"] for r in rows))


# ----------------------------------------------------------------------------
# One-sided / dilation-sum comparison and convergence verdicts
# ----------------------------------------------------------------------------


def onesided_study(functions: Dict[str, PointwiseFunction], n_range: Sequence[int],
                   op="lagrange", eps: float = 1e-6,
                   besov_cap: int = 512) -> List[dict]:
    """Interpolation error against the one-sided gap and the dilation sum.

    All quantities in L1 (the one-sided solver's norm).  Rows where both the
    error and the one-sided value vanish are marked excluded.  A function's tasks
    share one cache at the largest scale 2n (freed on return), and with it the
    levels :func:`besov_sum` memoizes there, so each is computed once per function.
    """
    spec = NormSpec("lebesgue", 1.0)
    op = parse_operator(op)
    n_scale = 2 * max(n_range, default=0)
    caches = {}

    def one_task(item):
        label, f, n = item
        cache = caches[label] = caches.get(label) or build_cache(f, n_scale=n_scale)
        err = approx_error(cache, op, n, spec).continuous
        os_res = one_sided_best(f, n, spec)
        bs = besov_sum(cache, n, spec, eps=eps, max_degree=besov_cap)
        row = {"f_label": label, "n": n, "error": err,
               "onesided": os_res.value, "lp_converged": os_res.converged,
               "besov": bs.value, "besov_truncated": bs.truncated}
        if err <= 1e-12 and os_res.value <= 1e-12:
            row["excluded"] = True
            row["ratio_onesided"] = np.nan
            row["ratio_besov"] = np.nan
        else:
            row["excluded"] = False
            row["ratio_onesided"] = err / os_res.value if os_res.value > 0 else np.inf
            row["ratio_besov"] = err / bs.value if bs.value > 0 else np.inf
        return row

    tasks = [(label, f, n) for label, f in functions.items() for n in n_range]
    rows = parallel_map(one_task, tasks)
    rows.sort(key=lambda row: (row["f_label"], row["n"]))
    return rows


@dataclass
class ConvergenceVerdict:
    errors: tuple
    moduli: tuple
    error_converges: bool
    modulus_converges: bool
    agree: bool
    n_range: tuple


def convergence_criterion(f: PointwiseFunction, op, spec: NormSpec, r: int,
                          n_range: Sequence[int],
                          gamma: Optional[float] = None) -> ConvergenceVerdict:
    """Factor-4 trend test: the continuous error and the discrete part of the
    modulus should both shrink (or both stall) across a dyadic range."""
    op = parse_operator(op)
    if len(n_range) < _TREND_MIN_SCALES:
        raise ValueError(f"need at least {_TREND_MIN_SCALES} scales for a trend")

    def one_n(n: int):
        cache = build_cache(f, n_scale=2 * n)
        err = approx_error(cache, op, n, spec).continuous
        nodes = make_uniform_nodes(n)
        vals = i_minus_a_pow_at(cache, default_width(n, gamma), r, nodes.nodes)
        return err, discrete_seminorm(np.abs(vals), nodes, spec)

    errors, moduli = zip(*parallel_map(one_n, list(n_range)))

    def shrinks(seq):
        return seq[0] <= 1e-12 or seq[-1] < seq[0] / 4.0

    ev, mv = shrinks(errors), shrinks(moduli)
    return ConvergenceVerdict(errors=errors, moduli=moduli, error_converges=ev,
                              modulus_converges=mv, agree=(ev == mv),
                              n_range=tuple(n_range))
