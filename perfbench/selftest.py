"""Self-test of the benchmark's wrappers and metric lists.

    python3 perfbench/selftest.py

Checks, in order:

1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, with the
   same units, and exactly the workloads it accepts.
2. ``layers.install()`` replaces every traced callable in every latsamp
   module that binds it, so no call can reach an unwrapped copy.
3. On each workload, one untraced and one traced rep write byte-identical
   outputs, and every layer metric that :data:`MOVES` names for that
   workload is non-zero in the traced rep.

Step 3 runs eight reps, about a minute of work.  Exit status 0 means every
check passed.
"""

import json
import os
import shutil
import subprocess
import sys

import layers
import run

# Per workload, the layer metrics that carry its cost, so a change to that
# layer should move the workload's wall_s (README, "How the metrics
# interact").  Each must be non-zero in a traced rep of that workload.
MOVES = {
    "rates-l2": [
        "model.build_cache.panels", "model.ensure_window_resolution.refines",
        "model.DenseGridCache.antiderivative.points", "trigpoly.TrigPoly.at.terms",
        "trigpoly.subtract_poly.calls", "steklov.steklov_values.points",
        "steklov.steklov_chain.calls", "steklov.i_minus_a_pow.calls",
        "steklov.i_minus_a_pow_at.calls", "smoothness.semidiscrete_modulus.calls",
        "operators.approx_error.calls", "harness.parallel_map.items",
    ],
    "onesided-l1": [
        "trigpoly.TrigPoly.at.terms", "trigpoly.subtract_poly.calls",
        "trigpoly.fourier_coefficients.terms", "bestapprox.best_approx.calls",
        "bestapprox.besov_sum.calls", "bestapprox.one_sided_best.calls",
        "bestapprox.linprog.nit", "harness.parallel_map.items",
    ],
    "probe-wlp": [
        "model.build_cache.panels", "trigpoly.TrigPoly.at.terms",
        "trigpoly.analyze.calls", "norms.poly_norm.calls",
        "norms.discrete_seminorm.calls", "norms.weight_cell_integrals.cells",
        "harness.parallel_map.items",
    ],
    "refined-descent": [
        "bestapprox.best_approx.calls", "bestapprox.minimize_scalar.nfev",
        "norms.luxemburg.modular_evals", "norms.norm.calls",
    ],
}


def check_manifest() -> list:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    errors = []
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        expected = run.units(trace)
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != expected:
            errors.append(f"{key}: BENCHMARK.json lists {sorted(set(listed) ^ set(expected))} "
                          f"or units that run.py does not print")
    names = sorted(w["name"] for w in manifest["workloads"])
    if names != sorted(run.WORKLOADS):
        errors.append(f"workloads {names} != {sorted(run.WORKLOADS)}")
    return errors


def check_bindings() -> list:
    """Install the wrappers in a fresh interpreter and list what escaped.

    Before installing, the traced callables must be bound in more places
    than there are layers: otherwise the check would not exercise the
    per-module replacement at all.
    """
    code = (
        "import json, latsamp.cli, layers\n"
        "before = layers.unwrapped_bindings(layers.targets())\n"
        "rec, originals = layers.install()\n"
        "print(json.dumps([before, layers.unwrapped_bindings(originals)]))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                          env=run.worker_env(), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        return [f"install failed: {proc.stderr[-1000:]}"]
    before, after = json.loads(proc.stdout)
    errors = [f"unwrapped binding: {b}" for b in after]
    if len(before) <= len(layers.LAYERS):
        errors.append(f"only {len(before)} bindings found before install")
    print(f"bindings: {len(before)} before install, {len(after)} unwrapped after")
    return errors


def check_workloads() -> list:
    errors = []
    for workload in run.WORKLOADS:
        bench = run.Run(workload, seed=11)
        try:
            plain, traced = bench.rep(trace=False), bench.rep(trace=True)
        finally:
            shutil.rmtree(bench.dir, ignore_errors=True)
        if plain is None or traced is None or bench.failed:
            errors.append(f"{workload}: {bench.failed} failed operation(s); "
                          "outputs differ or a check failed")
            continue
        for metric in MOVES[workload]:
            if not traced["layers"][metric] > 0:
                errors.append(f"{workload}: {metric} is zero")
        print(f"{workload}: untraced {plain['wall_s']:.2f} s, traced "
              f"{traced['wall_s']:.2f} s, outputs identical")
    return errors


def main() -> int:
    errors = check_manifest() + check_bindings()
    if not errors:
        errors = check_workloads()
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
