"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH.json probe-wlp:8 rates-l2:3

Each positional argument is ``WORKLOAD[:PAIRS]`` (3 pairs when omitted; with
no arguments, every workload of ``BENCHMARK.json`` gets 3 pairs).  The commit
``--parent`` is exported with ``git archive`` into a temporary directory, so
the repository gains no worktree to prune if a run is killed.  Pair ``i``
runs ``python3 perfbench/run.py --workload W --seed S --seconds 8 --trace 0``
with seed ``S = --seed + i`` once in the parent export and once in the
working tree; even pairs run the parent first and odd pairs the change first,
so drift in machine load falls on both sides alike.

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
  more than the metric's ``bound``, a share of the parent's median.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 8
DEFAULT_PAIRS = 3


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
            entry[name] = {
                "parent_median": parent,
                "change_median": change,
                "parent_quartiles": quartiles(sides["parent"]),
                "change_quartiles": quartiles(sides["change"]),
                "change_better_pairs": wins,
                "gain_resolved": 10 * wins >= 9 * len(pairs) and better_by > q3 - q1,
                "worse_beyond_bound": -better_by > metric["bound"] * abs(parent),
            }
        out[workload] = entry
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare the working tree against")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--seed", type=int, default=51, help="seed of the first pair")
    p.add_argument("plan", nargs="*", metavar="WORKLOAD[:PAIRS]")
    args = p.parse_args(argv)
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
    runs = []
    try:
        sha, parent_tree = export(args.parent, scratch)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload, pairs in args.plan:
            for pair in range(pairs):
                seed = args.seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    result = run_once(trees[side], workload, seed)
                    runs.append({"workload": workload, "pair": pair, "seed": seed,
                                 "side": side, "order": position + 1, **result})
                    wall = result["metrics"].get("wall_s")
                    print(f"{workload} pair {pair} seed {seed} {side}: wall_s={wall}",
                          flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = {
        "parent": sha,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                   "--trace 0",
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
