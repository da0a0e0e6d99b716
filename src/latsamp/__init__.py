"""Sampling operators on lattice norms: trigonometric interpolation, window
quasi-interpolants, Steklov moduli of smoothness, and the harness relating
approximation error to smoothness.

Quick tour::

    import numpy as np
    from latsamp import corpus, parse_spec, approx_error, semidiscrete_modulus

    f = corpus()["square"]
    spec = parse_spec("l2")
    err = approx_error(f, "lagrange", 32, spec)     # continuous + node error
    mod = semidiscrete_modulus(f, 32, r=1, s=2, spec=spec)
    print(err.total / mod.total)                    # bounded ratio
"""

from .model import (DenseGridCache, NodeSet, PointwiseFunction, build_cache,
                    corpus, ensure_window_resolution, make_jittered_nodes,
                    make_uniform_nodes, wrap_angle)
from .trigpoly import (TrigPoly, analyze, apply_window, br_window,
                       dirichlet_window, fejer_window, fourier_coefficients,
                       kernel_eval, partial_sum, subtract_poly, vp_mean)
from .norms import (NormSpec, StepFunction, dilation_norm, dilation_norm_info,
                    discrete_seminorm, norm, parse_spec, poly_norm,
                    steklov_bound_probe)
from .steklov import (i_minus_a_pow, i_minus_a_pow_at, multiplier, smoothed,
                      steklov, steklov_chain)
from .smoothness import (ModulusReport, RealizationReport, classical_modulus,
                         default_width, kfunc_vp, omega2_star, realization,
                         semidiscrete_modulus)
from .operators import (ApproxError, OperatorSpec, apply_operator,
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
    "fejer_window", "fourier_coefficients", "kernel_eval", "partial_sum",
    "subtract_poly", "vp_mean",
    "NormSpec", "StepFunction", "dilation_norm", "dilation_norm_info",
    "discrete_seminorm", "norm", "parse_spec", "poly_norm",
    "steklov_bound_probe",
    "i_minus_a_pow", "i_minus_a_pow_at", "multiplier", "smoothed", "steklov",
    "steklov_chain",
    "ModulusReport", "RealizationReport", "classical_modulus", "default_width",
    "kfunc_vp", "omega2_star", "realization", "semidiscrete_modulus",
    "ApproxError", "OperatorSpec", "apply_operator", "approx_error",
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
