"""One repetition of one benchmark workload, in a fresh process.

Run by ``run.py`` as ``python3 worker.py '<json request>'`` with the rep's
own directory as the working directory and the checkout's ``src`` on
``PYTHONPATH``.  The request names the workload, the seed, whether to trace,
and the file to write the result to; with ``setup_only`` the worker stops
once set up.  The result holds:

* ``ready``: ``time.monotonic()`` once latsamp is imported and the inputs
  are parsed (the parent subtracts its spawn time to get ``setup_s``);
* ``wall_s`` / ``cpu_s``: from the first layer call to the outputs being
  written, wall clock and this process's user+sys CPU;
* ``peak_rss_mb``: this process's peak resident memory;
* ``attempted`` / ``failed``: operations and those that failed;
* ``best_excess`` where the rep solves the refined L1 square-wave problem;
* ``layers`` / ``top_level_s`` when traced.

Outputs go to ``out/`` below the working directory, so the parent can
compare their bytes between reps.
"""

import json
import os
import resource
import sys
import time

# (subcommand arguments, config-file text) per CLI workload; the seed and
# --out are appended.  Sizes are chosen so one rep takes a few seconds; the
# README explains each reduction from the CLI defaults.
CLI_WORKLOADS = {
    "rates-l2": (["rates", "--n", "8,16,32,64,128"], "functions = square\n"),
    "onesided-l1": (["onesided", "--n", "4,8,16"], "besov_cap = 64\n"),
    "probe-wlp": (["probe", "--spec", "wlp:2:-0.5", "--trials", "5"], None),
}

# refined best approximation: (corpus label, norm id, degree)
SQUARE_L1 = ("square", "l1", 6)
SAWTOOTH_LLOGL = ("sawtooth", "orlicz:llogl", 1)

# "best-excess" is the square-wave problem alone, run once per run on the
# workloads that do no refined solve of their own
REFINED_WORKLOADS = {
    "refined-descent": (SQUARE_L1, SAWTOOTH_LLOGL),
    "best-excess": (SQUARE_L1,),
}


def output_files(workload: str, seed: int) -> list:
    """Sorted names of the files a rep of ``workload`` writes to ``out/``."""
    if workload in CLI_WORKLOADS:
        return sorted([f"{CLI_WORKLOADS[workload][0][0]}_{seed}.csv", "summary.json"])
    return ["refined.json"]


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _rotations(seed: int):
    """Seeded rotation angles for the square wave and the sawtooth.

    The square wave turns by 0 or pi.  Both map its breakpoints {-pi, 0}
    onto themselves, so the quadrature cache, and with it the descent path
    and ``best_excess``, stay the same; only the sign of f flips.  The
    sawtooth turns by an angle at least 0.5 away from 0 and pi, so its
    breakpoint never meets the fixed grading at 0 or the period's end and
    every seed builds a cache with the same panel count.
    """
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2601]))
    square = np.pi * int(rng.integers(2))
    sawtooth = float(rng.uniform(0.5, np.pi - 0.5)) * (1 if rng.integers(2) else -1)
    return {"square": square, "sawtooth": sawtooth}


def _rotated(f, theta: float):
    """``x -> f(x - theta)`` with its breakpoints moved along."""
    import numpy as np
    from latsamp import PointwiseFunction, wrap_angle

    if theta == 0.0:
        return f
    breaks = tuple(sorted({float(wrap_angle(b + theta)) for b in f.breakpoints}))
    return PointwiseFunction(
        label=f.label, evaluator=lambda x: f.evaluator(np.asarray(x) - theta),
        breakpoints=breaks, smoothness_hint=f.smoothness_hint)


def _prepare_cli(workload: str, seed: int):
    from latsamp import cli

    args, config = CLI_WORKLOADS[workload]
    argv = args + ["--seed", str(seed), "--out", "out"]
    if config is not None:
        with open("bench.cfg", "w", encoding="utf-8") as fh:
            fh.write(config)
        argv += ["--config", "bench.cfg"]
    cli.merge_config(cli.build_parser().parse_args(argv))
    return argv


def _run_cli(argv, result):
    import contextlib
    import io

    from latsamp import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    result["exit_code"] = code


def _check_cli(result):
    """Count the CLI's own assertions as operations, plus the run itself."""
    summary_path = os.path.join("out", "summary.json")
    attempted, failed = 1, int(result["exit_code"] != 0)
    if os.path.exists(summary_path):
        with open(summary_path, encoding="utf-8") as fh:
            assertions = json.load(fh)["assertions"]
        attempted += len(assertions)
        failed += sum(1 for a in assertions if not a["passed"])
    else:
        failed += 1
    result["attempted"], result["failed"] = attempted, failed


def _prepare_refined(workload: str, seed: int):
    from latsamp import corpus, parse_spec

    funcs = corpus()
    angles = _rotations(seed)
    problems = []
    for label, spec_id, n in REFINED_WORKLOADS[workload]:
        base = funcs[label]
        problems.append((label, base, _rotated(base, angles[label]),
                         parse_spec(spec_id), n))
    return problems


def _run_refined(problems, result):
    import latsamp

    rows = []
    for label, _base, f, spec, n in problems:
        start = latsamp.best_approx(f, n, spec, method="vp")
        refined = latsamp.best_approx(f, n, spec, method="refined")
        rows.append({"f_label": label, "spec": spec.id, "n": n,
                     "vp": start.value, "refined": refined.value})
    os.makedirs("out", exist_ok=True)
    with open(os.path.join("out", "refined.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
        fh.write("\n")
    result["rows"] = rows


def _check_refined(problems, result):
    """Refined values never above their start; rotation leaves vp unchanged.

    ``best_excess`` is ``|E * (n+1) - 1|`` for the square wave in L1, whose
    best error of degree n is 1/(n+1) for even n.
    """
    import math

    import latsamp

    attempted = failed = 0
    for (label, base, _f, spec, n), row in zip(problems, result["rows"]):
        attempted += 2
        finite = math.isfinite(row["vp"]) and math.isfinite(row["refined"])
        failed += int(not finite or row["refined"] > row["vp"])
        unrotated = latsamp.best_approx(base, n, spec, method="vp").value
        failed += int(abs(unrotated - row["vp"]) > 1e-9 * abs(unrotated))
        if (label, spec.id) == ("square", "l1"):
            result["best_excess"] = abs(row["refined"] * (n + 1) - 1.0)
    result["attempted"], result["failed"] = attempted, failed


def main() -> int:
    request = json.loads(sys.argv[1])
    workload, seed = request["workload"], int(request["seed"])
    result = {"workload": workload, "seed": seed, "trace": request["trace"]}

    cli_workload = workload in CLI_WORKLOADS
    if cli_workload:
        inputs = _prepare_cli(workload, seed)
    else:
        inputs = _prepare_refined(workload, seed)
    result["ready"] = time.monotonic()
    if request.get("setup_only"):
        return _write(request, result)

    rec = None
    if request["trace"]:
        import layers
        rec, _ = layers.install()

    cpu0 = _cpu()
    t0 = time.perf_counter()
    if cli_workload:
        _run_cli(inputs, result)
    else:
        _run_refined(inputs, result)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = _cpu() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        result["layers"] = rec.snapshot()
        result["top_level_s"] = rec.top_level_s

    if cli_workload:
        _check_cli(result)
    else:
        _check_refined(inputs, result)

    return _write(request, result)


def _write(request, result) -> int:
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
