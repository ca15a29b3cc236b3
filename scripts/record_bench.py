#!/usr/bin/env python3
"""Benchmark a change against its parent and write the BENCH_*.json record.

    python scripts/record_bench.py PARENT_DIR OUT.json --change "what changed"

PARENT_DIR is a checkout of the parent commit; this checkout is the change.
Each tree runs its own ``perfbench/run.py`` for the ``run_seconds`` that
``BENCHMARK.json`` fixes.  Per workload, ten pairs of ``--trace 0`` runs
alternate between the trees at seeds 101 to 110, parent first in odd pairs
and change first in even ones, so slow drift of a shared machine falls on
both sides alike.  Then each tree makes one ``--trace 1 --seed 1`` run per
workload for the per-layer metrics.  Last, each tree runs its Tier-1 test
suite once with the verify command of ROADMAP.md, parent first.

The record holds the machine, every run's JSON result line, per workload
and end-to-end metric both sides' medians and quartiles, the ratio of the
medians and the number of pairs the change won, and per tree the Tier-1 wall
time and its passed and failed counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIRST_SEED = 101
PAIRS = 10
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` call in ``tree``; its last output line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_tier1(tree: Path) -> dict:
    """One Tier-1 run in ``tree`` with its ``src`` first on the path: wall seconds and outcome counts."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=tree, env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    wall_s = time.perf_counter() - start
    last = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed)", last)}
    return {"wall_s": wall_s, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "exit_code": proc.returncode, "last_line": last}


def summarize(lines: list[dict], metric: str, better: str) -> dict:
    """Medians, quartiles and pairs won by the change for one workload's metric."""
    side = {
        name: [line["metrics"][metric] for line in lines if line["side"] == name]
        for name in ("parent", "change")
    }
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
    out = {}
    for name, values in side.items():
        out[f"{name}_median"] = statistics.median(values)
        out[f"{name}_quartiles"] = statistics.quantiles(values, n=4)[::2]
    out["change_over_parent"] = out["change_median"] / out["parent_median"]
    out["change_better_pairs"] = won
    out["pairs"] = len(side["parent"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("out", type=Path, help="BENCH_*.json file to write")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=trees["parent"], capture_output=True, text=True)

    pair_lines = []
    for bench in spec["workloads"]:
        workload = bench["name"]
        for pair in range(1, PAIRS + 1):
            seed = FIRST_SEED + pair - 1
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = run_bench(trees[side], workload, seed, seconds, 0)
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                pair_lines.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                   "correct": result["correct"], "metrics": metrics})
                print(f"{workload} pair {pair} {side}: {metrics}", file=sys.stderr, flush=True)
    trace_lines = [
        {"workload": bench["name"], "trace": 1, "side": side,
         "result": run_bench(trees[side], bench["name"], 1, seconds, 1)}
        for bench in spec["workloads"] for side in trees
    ]
    tier1 = {}
    for side in trees:
        tier1[side] = run_tier1(trees[side])
        print(f"tier-1 {side}: {tier1[side]['last_line']}", file=sys.stderr, flush=True)

    summary = {
        bench["name"]: {
            m["name"]: summarize([line for line in pair_lines if line["workload"] == bench["name"]],
                                 m["name"], m["better"])
            for m in spec["end_to_end"]
        }
        for bench in spec["workloads"]
    }
    record = {
        "change": args.change,
        "parent_commit": head.stdout.strip() if head.returncode == 0 else None,
        "machine": {
            "nproc": os.cpu_count(),
            "arch": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "note": "perfbench scales shots_per_s and setup_s to its nominal machine speed",
        },
        "runs": {
            "command": f"python3 perfbench/run.py --workload W --seed 1 --seconds {seconds:g} --trace 1",
            "lines": trace_lines,
        },
        "pairs": {
            "command": (
                f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                f"{PAIRS} pairs per workload at seeds {FIRST_SEED}..{FIRST_SEED + PAIRS - 1}, "
                "parent first in odd pairs, change first in even ones"
            ),
            "summary": summary,
            "lines": pair_lines,
        },
        "tier1": {
            "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors, once per tree",
            **tier1,
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
