"""photonsub benchmark: end-to-end or per-layer metrics of one workload.

    python3 perfbench/run.py --workload {sweep,g2,cascade} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``child.py``) that calls ``photonsub.cli.main`` in-process, single-process,
with ``--seed N``, for ``S`` seconds, and checks every call's output files.
With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` untraced and traced calls alternate and the result holds
the per-layer metrics of the traced ones.  The last line of standard output
is the JSON result; the lines before it repeat the metrics for a reader,
with sample counts, quartiles and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh interpreters timed for setup_s, half before and half after the
# workload; one more before them only warms the file cache.
SETUP_SAMPLES = 12
# Median numpy import time of a fresh interpreter on the machine in README.md.
NUMPY_IMPORT_NOMINAL_S = 0.075
# Time a child may take beyond --seconds: start-up, warm-up and the last call.
CHILD_GRACE_S = 90


def run_script(script: str, args: list[str], timeout: float) -> str:
    """Run a benchmark script in a fresh interpreter; return its last output line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{script} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Wall-clock set-up times of fresh interpreters, and the same times scaled.

    Each set-up runs between two fresh interpreters that only import numpy,
    and is scaled by NUMPY_IMPORT_NOMINAL_S over their mean (README.md).
    """
    raw, scaled = [], []
    before = float(run_script("numpy_probe.py", [], 60))
    for _ in range(samples):
        seconds = float(run_script("setup_probe.py", [], 60))
        after = float(run_script("numpy_probe.py", [], 60))
        raw.append(seconds)
        scaled.append(seconds * NUMPY_IMPORT_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return raw, scaled


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "photonsub" / "cli.py").is_file():
        print(f"error: no photonsub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        setup, scaled_setup = [], []
        if not args.trace:
            run_script("setup_probe.py", [], 60)
            setup, scaled_setup = measure_setup(SETUP_SAMPLES // 2)
        child = json.loads(run_script(
            "child.py",
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            args.seconds + CHILD_GRACE_S,
        ))
        if not args.trace:
            more = measure_setup(SETUP_SAMPLES - len(setup))
            setup += more[0]
            scaled_setup += more[1]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    shots = child["shots_per_invocation"]
    rates = [shots / wall for wall in child["walls"]]
    raw_rates = [shots / wall for wall in child["raw_walls"]]
    print(f"machine: nproc={os.cpu_count()} {platform.machine()} python={platform.python_version()} "
          f"numpy={child['numpy']}")
    print(f"workload {args.workload} seed {args.seed}: {shots} shots per call, "
          f"{len(rates)} timed calls after one warm-up")
    for failure in child["failures"]:
        print(f"FAILED {failure}")
    correct = child["failed"] == 0
    if args.trace:
        correct = correct and child["spans_consistent"] and child["byte_identical"]
        print(f"traced calls {len(child['traced_walls'])}: spans consistent "
              f"{child['spans_consistent']}, outputs byte-identical {child['byte_identical']}")
        values = child["layers"]
    else:
        values = {
            "shots_per_s": statistics.median(rates),
            "setup_s": statistics.median(scaled_setup),
            "peak_rss_mb": child["peak_rss_mb"],
            "check_pass_frac": 1.0 - child["failed"] / child["attempted"],
        }
        print(f"  shots_per_s samples: {spread(rates)}")
        print(f"  wall-clock shots/s, not scaled: median={statistics.median(raw_rates):.6g} "
              f"{spread(raw_rates)}")
        print(f"  setup_s samples: {spread(scaled_setup)}")
        print(f"  wall-clock setup_s, not scaled: median={statistics.median(setup):.6g} {spread(setup)}")
    for name, unit in units.items():
        print(f"  {name:30s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
