"""Sampling operators on lattice norms: trigonometric interpolation, window
quasi-interpolants, Steklov moduli of smoothness, and the harness relating
approximation error to smoothness.

Quick tour::

    import numpy as np
    from latsamp import (approx_error, corpus, parse_operator, parse_spec,
                         semidiscrete_modulus)

    f = corpus()["square"]
    spec = parse_spec("l2")
    err = approx_error(f, parse_operator("lagrange"), 32, spec)  # continuous + node error
    mod = semidiscrete_modulus(f, 32, r=1, s=2, spec=spec)
    print(err.total / mod.total)                    # bounded ratio
"""

from .model import (DenseGridCache, NodeSet, PointwiseFunction, build_cache,
                    corpus, ensure_window_resolution, make_jittered_nodes,
                    make_uniform_nodes, wrap_angle)
from .trigpoly import (TrigPoly, analyze, apply_window, br_window,
                       dirichlet_window, fejer_window, fourier_coefficients,
                       kernel_eval, subtract_poly, vp_mean)
from .norms import (NormSpec, dilation_norm, discrete_seminorm, norm,
                    parse_spec, poly_norm)
from .steklov import i_minus_a_pow, i_minus_a_pow_at, multiplier, steklov_chain
from .smoothness import (ModulusReport, RealizationReport, default_width,
                         kfunc_vp, realization, semidiscrete_modulus)
from .operators import (ApproxError, LineSignal, OperatorSpec, apply_operator,
                        approx_error, bandlimited_signal, lagrange,
                        line_kernel, line_quasi, parse_operator, quasi_interp,
                        wks)
from .bestapprox import (BestApprox, BesovSum, LemderCheck, OneSided,
                         besov_sum, best_approx, lemder_check, one_sided_best)
from .harness import (ConvergenceVerdict, CounterexampleTable, EquivTable,
                      ProbeReport, RateFit, bump_train, convergence_criterion,
                      counterexample_run, equivalence_study, fit_loglog,
                      mz_probe, onesided_study, parallel_map,
                      probe_assumptions, rate_study, smooth_bump)

__version__ = "0.1.0"

__all__ = [
    "DenseGridCache", "NodeSet", "PointwiseFunction", "build_cache", "corpus",
    "ensure_window_resolution", "make_jittered_nodes", "make_uniform_nodes",
    "wrap_angle",
    "TrigPoly", "analyze", "apply_window", "br_window", "dirichlet_window",
    "fejer_window", "fourier_coefficients", "kernel_eval", "subtract_poly",
    "vp_mean",
    "NormSpec", "dilation_norm", "discrete_seminorm", "norm", "parse_spec",
    "poly_norm",
    "i_minus_a_pow", "i_minus_a_pow_at", "multiplier", "steklov_chain",
    "ModulusReport", "RealizationReport", "default_width",
    "kfunc_vp", "realization", "semidiscrete_modulus",
    "ApproxError", "LineSignal", "OperatorSpec", "apply_operator", "approx_error",
    "bandlimited_signal", "lagrange", "line_kernel", "line_quasi",
    "parse_operator", "quasi_interp", "wks",
    "BestApprox", "BesovSum", "LemderCheck", "OneSided", "besov_sum",
    "best_approx", "lemder_check", "one_sided_best",
    "ConvergenceVerdict", "CounterexampleTable", "EquivTable", "ProbeReport",
    "RateFit", "bump_train", "convergence_criterion", "counterexample_run",
    "equivalence_study", "fit_loglog", "mz_probe", "onesided_study",
    "parallel_map", "probe_assumptions", "rate_study", "smooth_bump",
    "__version__",
]
