"""latsamp benchmark: four study workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload rates-l2 --seed 7 --seconds 24 --trace 0

Run from the root of a source checkout; latsamp is imported from ``src/``,
nothing is installed.  Every repetition ("rep") of a workload runs in a fresh
worker process (``worker.py``), serially (``LATSAMP_THREADS`` unset) with
OpenBLAS and OpenMP pinned to one thread.  Reps repeat until ``--seconds``
is spent (at least three), and each metric is the median over reps.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``setup_s``,
``cpu_s``, ``peak_rss_mb``, ``ok_share`` and ``best_excess``.  ``--trace 1``
alternates untraced and traced reps and prints the per-layer metrics of
``layers.py``, the share of ``wall_s`` covered by top-level spans, and
``trace_overhead_s`` (traced minus untraced ``wall_s``).

Every rep's outputs must be byte-identical to the first rep's (traced reps
included), every CLI assertion in ``summary.json`` must pass, and refined
best approximations must not end above their start.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status is 0 whenever that line is printed, and 2 when
the run cannot start (for instance, no ``src/latsamp`` to benchmark).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = (*worker.CLI_WORKLOADS, "refined-descent")

MIN_REPS = 3
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
# stop starting reps once this much time has gone, whatever --seconds says,
# so a run ends within its 180 s allowance
HARD_STOP_S = 110

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LATSAMP_THREADS", None)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    return env


def environment() -> dict:
    """Versions and thread settings the numbers were measured with."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "threads": dict(PINNED, LATSAMP_THREADS="unset")}


class Run:
    """The reps of one benchmark invocation, and their checks."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = worker_env()
        self.dir = os.path.join(WORKDIR, f"{workload}-{seed}-{os.getpid()}")
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.reference = None  # output digests of the first rep
        self.setups = []

    def spawn(self, workload: str, trace: bool = False, setup_only: bool = False):
        """Run one worker; return its result dict, or None if it failed."""
        self.count += 1
        repdir = os.path.join(self.dir, f"rep{self.count}")
        os.makedirs(repdir)
        result_path = os.path.join(repdir, "result.json")
        request = {"workload": workload, "seed": self.seed, "trace": trace,
                   "setup_only": setup_only, "result": result_path}
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)],
                cwd=repdir, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"worker timed out: {request}", file=sys.stderr)
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            print(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - t_spawn
        result["outputs"] = _digests(os.path.join(repdir, "out"))
        return result

    def rep(self, trace: bool):
        """One measured rep of the workload, with its outputs checked."""
        result = self.spawn(self.workload, trace=trace)
        self.attempted += 1
        if result is None:
            self.failed += 1
            return None
        self.setups.append(result["setup_s"])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        if self.reference is None:
            self.reference = result["outputs"]
            expected = worker.output_files(self.workload, self.seed)
            if sorted(self.reference) != expected:
                print(f"outputs {sorted(self.reference)} != {expected}",
                      file=sys.stderr)
                self.failed += 1
        elif result["outputs"] != self.reference:
            print(f"rep {self.count} outputs differ from the first rep",
                  file=sys.stderr)
            self.failed += 1
        return result

    def repeat(self, seconds: float, traced_pairs: bool) -> list:
        """Reps until ``seconds`` would be exceeded; at least MIN_REPS.

        With ``traced_pairs`` each step is an untraced rep then a traced one,
        and at least one pair runs.
        """
        start = time.monotonic()
        steps = []
        minimum = 1 if traced_pairs else MIN_REPS
        while True:
            t0 = time.monotonic()
            modes = (False, True) if traced_pairs else (False,)
            step = [self.rep(trace) for trace in modes]
            if any(r is None for r in step):
                break
            steps.append(step)
            took = time.monotonic() - t0
            elapsed = time.monotonic() - start
            if elapsed + took > HARD_STOP_S:
                break
            if len(steps) >= minimum and elapsed + took > seconds:
                break
        return steps

    def top_up_setup(self):
        """Fresh set-up-only workers until SETUP_SAMPLES set-ups were seen."""
        while len(self.setups) < SETUP_SAMPLES:
            result = self.spawn(self.workload, setup_only=True)
            if result is None:
                self.attempted += 1
                self.failed += 1
                return
            self.setups.append(result["setup_s"])

    def best_excess(self, reps) -> float:
        """From the reps of refined-descent, else from one extra worker."""
        values = [r["best_excess"] for r in reps if "best_excess" in r]
        if values:
            return statistics.median(values)
        result = self.spawn("best-excess")
        self.attempted += 1
        if result is None:
            self.failed += 1
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        return result["best_excess"]


def _digests(outdir: str) -> dict:
    out = {}
    if os.path.isdir(outdir):
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "ok_share": "share", "best_excess": "1"}
SPANS = {"span.covered_share": "share", "span.unattributed_s": "s",
         "trace_overhead_s": "s"}


def units(trace: bool) -> dict:
    """Metric names in report order, with their units."""
    if trace:
        import layers
        return dict(layers.metric_names(), **SPANS)
    return dict(END_TO_END)


def end_to_end(run: Run, seconds: float) -> dict:
    reps = [step[0] for step in run.repeat(seconds, traced_pairs=False)]
    if not reps:
        return {}
    run.top_up_setup()
    print(f"reps={len(reps)} wall_s={[round(r['wall_s'], 3) for r in reps]} "
          f"setup_s={[round(s, 3) for s in run.setups]}")
    return {
        "wall_s": _median(reps, "wall_s"),
        "setup_s": statistics.median(run.setups),
        "cpu_s": _median(reps, "cpu_s"),
        "peak_rss_mb": _median(reps, "peak_rss_mb"),
        "ok_share": 1.0 - run.failed / max(run.attempted, 1),
        "best_excess": run.best_excess(reps),
    }


def per_layer(run: Run, seconds: float) -> dict:
    steps = run.repeat(seconds, traced_pairs=True)
    if not steps:
        return {}
    plain = [s[0] for s in steps]
    traced = [s[1] for s in steps]
    print(f"pairs={len(steps)} untraced wall_s={[round(r['wall_s'], 3) for r in plain]} "
          f"traced wall_s={[round(r['wall_s'], 3) for r in traced]}")
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["span.covered_share"] = statistics.median(
        r["top_level_s"] / r["wall_s"] for r in traced)
    metrics["span.unattributed_s"] = statistics.median(
        r["wall_s"] - r["top_level_s"] for r in traced)
    metrics["trace_overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "latsamp", "__init__.py")):
        print(f"error: no latsamp sources under {SRC}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(), sort_keys=True))
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            metrics = per_layer(run, args.seconds)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass  # another run still uses it, or it is already gone
    if not metrics:
        print("error: no rep completed", file=sys.stderr)
        run.attempted = max(run.attempted, 1)
        run.failed = max(run.failed, 1)
    unit = units(bool(args.trace))
    report = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items() if value is not None},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
