"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH.json probe-wlp:8 rates-l2:3
    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH.json --cli 3 rates-l2:10

Each positional argument is ``WORKLOAD[:PAIRS]`` (3 pairs when omitted; with
no arguments, every workload of ``BENCHMARK.json`` gets 3 pairs).  The commit
``--parent`` is exported with ``git archive`` into a temporary directory, so
the repository gains no worktree to prune if a run is killed.  Pair ``i``
runs ``python3 perfbench/run.py --workload W --seed S --seconds 8 --trace 0``
with seed ``S = --seed + i`` once in the parent export and once in the
working tree; even pairs run the parent first and odd pairs the change first,
so drift in machine load falls on both sides alike.

``--cli PAIRS`` also times the six CLI subcommands at their default config as
whole processes, ``python3 -m latsamp.cli CMD --seed 7`` with each tree's
``src`` on ``PYTHONPATH`` and BLAS pinned to one thread, in the same
alternating pairs.  Each is recorded as workload ``cli:CMD`` with its
``wall_s`` (start-up included) and ``attempted``/``failed`` counts of 1 and
its exit code != 0.

The output holds every run (workload, pair, seed, side, order, the six
end-to-end metrics, and the run's attempted/failed counts) and, per workload
and side, the median and quartiles of each metric, plus how many pairs the
change won on each metric.  Runs are serial: a benchmark run pins its own
workers to one thread, and concurrent runs would contend for the cores.

Each metric of the summary also carries two verdicts, in the direction
``BENCHMARK.json`` gives as better:

* ``gain_resolved``: the change won at least nine tenths of the pairs (ties
  count for neither side), and its median is better than the parent's by
  more than the parent's quartile spread (third minus first quartile);
* ``worse_beyond_bound``: the change's median is worse than the parent's by
  more than the metric's ``bound``, a share of the parent's median;
* ``unresolved``: the parent's own quartile spread exceeds that ``bound``
  share, so a move within the bound cannot be told from the parent's
  scatter, unless every change run is better than every parent run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 8
DEFAULT_PAIRS = 3
CLI_COMMANDS = ("probe", "equiv", "rates", "counterexample", "onesided", "report")
CLI_SEED = 7
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def export(ref: str, dest: str) -> tuple:
    """Extract the tree of commit ``ref`` under ``dest``; return ``(hash, tree)``."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, sha], cwd=ROOT, check=True)
    tree = os.path.join(dest, "parent")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return sha, tree


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` invocation; its last stdout line is the report."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: v["value"] for k, v in report["metrics"].items()}}


def run_cli(tree: str, command: str) -> dict:
    """One whole-process ``latsamp COMMAND --seed 7`` run of ``tree``, timed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **PINNED)
    with tempfile.TemporaryDirectory(prefix="bench-cli-") as out:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "latsamp.cli", command,
                               "--seed", str(CLI_SEED), "--out", out],
                              cwd=tree, env=env, capture_output=True, check=False)
        wall = time.perf_counter() - start
    return {"attempted": 1, "failed": int(proc.returncode != 0), "exit": proc.returncode,
            "metrics": {"wall_s": wall}}


def alternate(trees: dict, plan: list, run, seed: int, seed_step: int = 1) -> list:
    """Runs of ``run(tree, job, seed)`` for ``(job, pairs)`` in ``plan``: pair
    ``i`` takes seed ``seed + seed_step * i``, even pairs run the parent first,
    odd pairs the change first."""
    runs = []
    for job, pairs in plan:
        for pair in range(pairs):
            pair_seed = seed + seed_step * pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                result = run(trees[side], job, pair_seed)
                runs.append({"workload": job, "pair": pair, "seed": pair_seed,
                             "side": side, "order": position + 1, **result})
                print(f"{job} pair {pair} seed {pair_seed} {side}: "
                      f"wall_s={result['metrics'].get('wall_s')}", flush=True)
    return runs


def time_cli(trees: dict, pairs: int, run=run_cli) -> list:
    """Alternating pairs of the six default subcommands as ``cli:CMD`` runs,
    every one at ``--seed 7``."""
    plan = [(f"cli:{command}", pairs) for command in CLI_COMMANDS]
    return alternate(trees, plan, lambda tree, job, _seed: run(tree, job.removeprefix("cli:")),
                     CLI_SEED, seed_step=0)


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs: list, metrics: list) -> dict:
    """Per workload: median and quartiles per side, and pairs the change won."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {"pairs": len(mine) // 2}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            sides = {side: [r["metrics"][name] for r in mine
                            if r["side"] == side and r["metrics"].get(name) is not None]
                     for side in ("parent", "change")}
            if not all(sides.values()):
                continue
            by_pair = {}
            for r in mine:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"].get(name)
            pairs = [p for p in by_pair.values() if None not in (p.get("parent"), p.get("change"))]
            wins = sum(1 for p in pairs
                       if (p["change"] < p["parent"] if lower else p["change"] > p["parent"]))
            parent, change = statistics.median(sides["parent"]), statistics.median(sides["change"])
            q1, _, q3 = quartiles(sides["parent"])
            better_by = parent - change if lower else change - parent
            apart = (max(sides["change"]) < min(sides["parent"]) if lower
                     else min(sides["change"]) > max(sides["parent"]))
            entry[name] = {
                "parent_median": parent,
                "change_median": change,
                "parent_quartiles": quartiles(sides["parent"]),
                "change_quartiles": quartiles(sides["change"]),
                "change_better_pairs": wins,
                "gain_resolved": 10 * wins >= 9 * len(pairs) and better_by > q3 - q1,
                "worse_beyond_bound": -better_by > metric["bound"] * abs(parent),
                "unresolved": q3 - q1 > metric["bound"] * abs(parent) and not apart,
            }
        out[workload] = entry
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare the working tree against")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--seed", type=int, default=51, help="seed of the first pair")
    p.add_argument("--cli", type=int, default=0, metavar="PAIRS",
                   help="also time the six default CLI subcommands in PAIRS pairs")
    p.add_argument("plan", nargs="*", metavar="WORKLOAD[:PAIRS]")
    args = p.parse_args(argv)
    if args.cli < 0:
        p.error(f"--cli needs a number of pairs >= 0, got {args.cli}")
    known = [w["name"] for w in benchmark()["workloads"]]
    plan = []
    for item in args.plan or known:
        workload, _, pairs = item.partition(":")
        if workload not in known:
            p.error(f"unknown workload {workload!r}; choose from {known}")
        if pairs and (not pairs.isdigit() or int(pairs) < 1):
            p.error(f"pairs must be a positive integer in {item!r}")
        plan.append((workload, int(pairs or DEFAULT_PAIRS)))
    args.plan = plan
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = benchmark()["end_to_end"]
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        sha, parent_tree = export(args.parent, scratch)
        trees = {"parent": parent_tree, "change": ROOT}
        runs = alternate(trees, args.plan, run_once, args.seed)
        cli_runs = time_cli(trees, args.cli) if args.cli else []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = {
        "parent": sha,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                   "--trace 0",
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    if cli_runs:
        report["cli_command"] = f"python3 -m latsamp.cli CMD --seed {CLI_SEED} --out DIR"
        report["summary"].update(summarize(cli_runs, [m for m in metrics
                                                      if m["name"] == "wall_s"]))
        report["runs"] += cli_runs
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
