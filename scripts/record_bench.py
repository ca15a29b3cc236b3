#!/usr/bin/env python3
"""Benchmark a change against its parent and write the BENCH_*.json record.

    python scripts/record_bench.py PARENT_DIR OUT.json --change "what changed" [--parent-commit SHA]

PARENT_DIR is a checkout of the parent commit; this checkout is the change.
The record names the parent commit by ``--parent-commit``, else by the
``HEAD`` of PARENT_DIR when it is a git checkout, else (a tree exported with
``git archive``) by this checkout's ``HEAD~1``, which is right once the
change is committed.
Each tree runs its own ``perfbench/run.py`` for the ``run_seconds`` that
``BENCHMARK.json`` fixes.  Per workload, ten pairs of ``--trace 0`` runs
alternate between the trees at seeds 101 to 110, parent first in odd pairs
and change first in even ones, so slow drift of a shared machine falls on
both sides alike.  Then each tree makes one ``--trace 1 --seed 1`` run per
workload for the per-layer metrics.  Then each tree runs its Tier-1 test
suite once with the verify command of ROADMAP.md, parent first.  Then each
tree times its block layers (``time_layers``) and whole ``cli.main`` calls
of each workload (``time_calls``) in ``LAYER_ROUNDS`` fresh interpreters per
tree, alternating, keeping the least value of each.  Last, each tree times
its g2 sums on grids finer than the benchmark's, its detection on a
1000-bin pulse with dead time and dark counts, and ``run_point`` at 3
photons on a 100000-bin pulse, in ``G2_GRID_ROUNDS`` fresh interpreters per
tree, alternating, keeping the least value of each (``time_g2_grids``).

The record holds the machine, every run's JSON result line, per workload
and end-to-end metric both sides' medians and quartiles, the ratio of the
medians and the number of pairs the change won, per tree the Tier-1 wall
time and its passed and failed counts, and per tree and workload the µs
per shot in each block layer, the minor page faults per shot and the median
wall time of one call at a few shots and at its own shot count, and per
tree the g2 sums' µs per shot and tracemalloc peak on each grid.

    python scripts/record_bench.py --layers
    python scripts/record_bench.py --g2-grids

print ``{"layers": time_layers(), "calls": time_calls()}`` and
``time_g2_grids()`` of the ``photonsub`` on ``PYTHONPATH``, with the
``perfbench`` of the working directory, as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIRST_SEED = 101
PAIRS = 10
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# Shots per simulated point when timing the block layers, and fresh
# interpreters per tree, alternating, of which the least value counts.
LAYER_SHOTS = 20000
LAYER_ROUNDS = 3
# Timed cli.main calls per workload and shot count, and the shot count at
# which a call is nearly all fixed cost.
CALL_REPEATS = 40
FEW_SHOTS = 16
# g2 grids (cells: bins of the default 2 us pulse, bins per cell), the shots
# each is timed on, and the detector of the detection timing.
G2_GRIDS = {20: (40, 2, 2560), 200: (200, 1, 512), 500: (500, 1, 262), 1000: (1000, 1, 130)}
# Passes per timing, and fresh interpreters per tree, alternating between the
# trees, of which the least value counts: a 20-cell pass takes about 2.5 ms,
# and one draw of best-of-3 passes of one tree ranged 0.81-1.26 us/shot over
# five interpreters on a shared machine.
G2_GRID_REPEATS = 10
G2_GRID_ROUNDS = 5
DEAD_TIME_NS, DARK_CPS = 20.0, 500.0
# run_point on the longest pulse (pulses.MAX_BINS bins of 50 ns) at a few photons.
LONG_PULSE_BINS, LONG_PULSE_PHOTONS, LONG_PULSE_SHOTS = 100_000, 3.0, 200


def git_commit(tree: Path, rev: str) -> str | None:
    """The commit id of ``rev`` in ``tree``, or None where ``tree`` is not the top of a git checkout."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", f"{rev}^{{commit}}"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != tree.resolve():
        return None
    return lines[1]


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


def time_layers() -> dict:
    """µs per shot of each block layer of the ``photonsub`` on the path, per benchmark workload.

    The workloads' parameters are those of ``perfbench/workloads.py``, at
    ``LAYER_SHOTS`` shots per point, and each keeps the sums its CLI command
    requests: no per-bin sums, and outcome counts for ``cascade`` only.
    Each layer is timed around the calls
    ``experiment._run_batch`` makes, by wrapping them in this process: the
    block substreams, the Poisson input draw (``sample_input``), each stage's absorber, the ion
    clicks, the detection, the sums of each stage's ensemble
    (``EnsembleResult.add_shot``, recorded as ``add_block_stage[k]``), the
    outcome counts (``OutcomeCounts.add``, recorded as ``outcomes``) and
    ``G2Accumulator.add`` (recorded as ``add_block_g2``), then ``finalize``
    of the g2 sums.  The labels are those of the committed ``BENCH_*.json``.  ``rest`` is the run's
    time outside those calls, the ion histograms' ``add_ions`` included.  A
    layer that a workload never calls raises instead of reading 0, but for
    ``outcomes``, which reads 0 where the outcome counts are not requested.
    ``minor_faults_per_shot`` is the process's minor page faults
    (``ru_minflt``) over the workload's run, per shot: pages the allocator
    maps afresh, for example arrays freed back to the system and allocated
    again every block.
    """
    from photonsub import AbsorberParams, DetectorConfig, PulseSpec, absorber, experiment, stats

    spent: Counter = Counter()
    calls: Counter = Counter()

    def timed(label, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[label(args) if callable(label) else label] += time.perf_counter() - start
        return wrapper

    def per_stage(name, n_stages):
        def label(args):
            calls[name] += 1
            return f"{name}[{(calls[name] - 1) % n_stages}]"
        return label

    measured = AbsorberParams(p_ryd=0.35, p_ryd2=0.001, t=0.99)
    ideal = AbsorberParams(p_ryd=1.0, p_ryd2=0.0, t=1.0)
    detector = DetectorConfig(eta_ion=0.29)
    workloads = {
        "sweep": ([(measured,)] * 7, [1.0, 3.0, 5.65, 10.0, 15.76, 20.0, 35.0], None, False),
        "g2": ([(measured,)], [15.76], 2, False),
        "cascade": ([(ideal,) * 5], [3.0], None, True),
    }
    substream, sample_input, simulate_shot = experiment.substream, experiment.sample_input, experiment.simulate_shot
    detect_ions, detect_pulse = experiment.detect_ions, experiment.detect_pulse
    ensemble_add, g2_add = absorber.EnsembleResult.add_shot, stats.G2Accumulator.add
    outcomes_add = experiment.OutcomeCounts.add
    layers = {}
    try:
        for workload, (stage_lists, n_ins, g2_cell_bins, outcomes) in workloads.items():
            n_stages = len(stage_lists[0])
            spent.clear()
            calls.clear()
            experiment.substream = timed("substream", substream)
            experiment.sample_input = timed("input", sample_input)
            experiment.simulate_shot = timed(per_stage("stage", n_stages), simulate_shot)
            experiment.detect_ions = timed("ions", detect_ions)
            experiment.detect_pulse = timed("detection", detect_pulse)
            absorber.EnsembleResult.add_shot = timed(per_stage("add_block_stage", n_stages), ensemble_add)
            stats.G2Accumulator.add = timed("add_block_g2", g2_add)
            experiment.OutcomeCounts.add = timed("outcomes", outcomes_add)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            for stages, n_in in zip(stage_lists, n_ins):
                result = experiment.simulate_cascade(
                    stages, PulseSpec(mean_photons=n_in), detector, LAYER_SHOTS, 1, g2_cell_bins=g2_cell_bins,
                    bin_sums=False, outcomes=outcomes,
                )
                if result.g2 is not None:
                    timed("finalize", result.g2.finalize)()
            total = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            expected = ["substream", "input", "ions"] + ["outcomes"] * outcomes + [
                f"{name}[{k}]" for name in ("stage", "add_block_stage") for k in range(n_stages)
            ]
            if g2_cell_bins is not None:
                expected += ["detection", "add_block_g2", "finalize"]
            missing = [name for name in expected if name not in spent]
            if missing:
                raise RuntimeError(f"{workload}: layers never called: {', '.join(missing)}")
            spent["outcomes"] += 0.0  # the key stays where no outcomes are counted
            spent["rest"] = total - sum(spent.values())
            shots = LAYER_SHOTS * len(n_ins)
            layers[workload] = {name: 1e6 * seconds / shots for name, seconds in sorted(spent.items())}
            layers[workload]["total"] = 1e6 * total / shots
            layers[workload]["minor_faults_per_shot"] = faults / shots
    finally:
        experiment.substream, experiment.sample_input = substream, sample_input
        experiment.simulate_shot = simulate_shot
        experiment.detect_ions, experiment.detect_pulse = detect_ions, detect_pulse
        absorber.EnsembleResult.add_shot, stats.G2Accumulator.add = ensemble_add, g2_add
        experiment.OutcomeCounts.add = outcomes_add
    return layers


def time_calls() -> dict:
    """Median wall ms of one in-process ``cli.main`` call of the ``photonsub`` on the path, per benchmark workload.

    Each workload runs with the argv and config of the working directory's
    ``perfbench/workloads.py``,
    at ``FEW_SHOTS`` shots and at its own shot count, ``CALL_REPEATS`` times
    each after one warm-up call, with standard output discarded and every
    run directory removed.  The ``FEW_SHOTS`` time is nearly all the call's
    fixed cost: parsing, config, run directory, statistics and output files.
    """
    sys.path.insert(0, str(Path.cwd() / "perfbench"))
    from photonsub import cli
    from workloads import CONFIG_TEXT, WORKLOADS

    calls = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "workload.cfg"
        config.write_text(CONFIG_TEXT)
        for name, workload in WORKLOADS.items():
            calls[name] = {}
            for shots in (FEW_SHOTS, workload.shots):
                argv = dataclasses.replace(workload, shots=shots).argv(config, Path(tmp) / "out", FIRST_SEED)
                walls = []
                for _ in range(CALL_REPEATS + 1):
                    with contextlib.redirect_stdout(io.StringIO()):
                        start = time.perf_counter()
                        code = cli.main(argv)
                        walls.append(time.perf_counter() - start)
                    shutil.rmtree(Path(tmp) / "out")
                    if code != 0:
                        raise RuntimeError(f"{name} at {shots} shots: exit code {code}")
                calls[name][f"call_ms_at_{shots}_shots"] = 1e3 * statistics.median(walls[1:])
    return calls


def time_g2_grids() -> dict:
    """µs per shot and tracemalloc peak bytes of ``G2Accumulator.add`` on each of ``G2_GRIDS``.

    Runs the ``photonsub`` on the path, so that one script times either tree,
    if both take a block of click arrays in ``add``.  The keys keep the
    ``add_block`` names of the committed ``BENCH_*.json``.
    The clicks are fixed-seed detections of the default pulse at 15.76 photons
    without absorber, in the row slices the shot loop detects at once
    (``experiment.detect_rows``, or ``block_rows`` in a tree that detects
    whole blocks); the time is the best of ``G2_GRID_REPEATS`` passes over
    them, and the peak is that of the first slice added to a fresh
    accumulator.  ``detection_1000_bins`` is ``detect_pulse`` on the
    1000-bin slices with ``DEAD_TIME_NS`` and ``DARK_CPS``, µs per shot, best
    of as many passes.  ``run_point_100000_bins`` is one ``run_point`` of
    ``LONG_PULSE_SHOTS`` shots at ``LONG_PULSE_PHOTONS`` photons on a pulse of
    ``LONG_PULSE_BINS`` bins, without g2, µs per shot, best of as many runs,
    timed first.
    """
    import tracemalloc

    from photonsub import AbsorberParams, DetectorConfig, G2Accumulator, PulseSpec, experiment, run_point
    from photonsub.detector import detect_pulse
    from photonsub.pulses import expected_bin_means

    def best_us_per_shot(step, blocks, shots):
        best = math.inf
        for _ in range(G2_GRID_REPEATS):
            start = time.perf_counter()
            for block in blocks:
                step(block)
            best = min(best, time.perf_counter() - start)
        return 1e6 * best / shots

    # run_point first: after the large g2 sums are freed, its time depends on
    # how much of the heap they left faulted in
    long_pulse = PulseSpec(mean_photons=LONG_PULSE_PHOTONS, duration_us=LONG_PULSE_BINS * 0.05)
    out = {"run_point_100000_bins_us_per_shot": best_us_per_shot(
        lambda seed: run_point(long_pulse, AbsorberParams(), DetectorConfig(), LONG_PULSE_SHOTS, seed),
        [1], LONG_PULSE_SHOTS)}
    slice_rows = getattr(experiment, "detect_rows", experiment.block_rows)
    for cells, (n_bins, bins_per_cell, shots) in G2_GRIDS.items():
        spec = PulseSpec(mean_photons=15.76, bin_width_us=2.0 / n_bins)
        rows = slice_rows(spec)
        rng = np.random.default_rng(cells)
        inputs = [rng.poisson(expected_bin_means(spec), size=(min(rows, shots - lo), n_bins))
                  for lo in range(0, shots, rows)]
        entries = [(inp.shape, np.flatnonzero(inp), inp[inp != 0]) for inp in inputs]
        blocks = [detect_pulse(*entry, DetectorConfig(), rng, spec.bin_width_us) for entry in entries]
        acc = G2Accumulator(n_bins, spec.bin_width_us, bins_per_cell)
        tracemalloc.start()
        acc.add(blocks[0])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out[str(cells)] = {"add_block_us_per_shot": best_us_per_shot(acc.add, blocks, shots),
                           "add_block_peak_bytes": peak}
        if n_bins == 1000:
            detector = DetectorConfig(dead_time_ns=DEAD_TIME_NS, dark_cps=DARK_CPS)
            out["detection_1000_bins_us_per_shot"] = best_us_per_shot(
                lambda entry: detect_pulse(*entry, detector, rng, spec.bin_width_us), entries, shots)
    return out


def least(a: dict, b: dict) -> dict:
    """The entry-wise least of two nested dicts of numbers, over the keys of ``b``; ``a`` may lack any."""
    return {key: (least(a.get(key, {}), value) if isinstance(value, dict) else min(value, a.get(key, math.inf)))
            for key, value in b.items()}


def run_fresh(trees: dict[str, Path], flag: str, rounds: int) -> dict:
    """This script's ``flag`` mode run on each tree's sources, in its working
    directory, in ``rounds`` fresh interpreters, alternating between the
    trees; per tree the least value of each entry."""
    out: dict[str, dict] = {side: {} for side in trees}
    for _ in range(rounds):
        for side, tree in trees.items():
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), flag], cwd=tree,
                env=dict(os.environ, PYTHONPATH=str(tree / "src")), stdout=subprocess.PIPE, text=True, check=True,
            )
            out[side] = least(out[side], json.loads(proc.stdout))
    return out


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
    if sys.argv[1:] == ["--layers"]:
        print(json.dumps({"layers": time_layers(), "calls": time_calls()}))
        return 0
    if sys.argv[1:] == ["--g2-grids"]:
        print(json.dumps(time_g2_grids()))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("out", type=Path, help="BENCH_*.json file to write")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--parent-commit", help="commit id of PARENT_DIR (default: its HEAD, else HEAD~1 here)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    parent_commit = args.parent_commit or git_commit(trees["parent"], "HEAD") or git_commit(ROOT, "HEAD~1")

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

    timed = run_fresh(trees, "--layers", LAYER_ROUNDS)
    g2_grids = run_fresh(trees, "--g2-grids", G2_GRID_ROUNDS)

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
        "parent_commit": parent_commit,
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
        "layers": {
            "command": (
                f"time_layers(): {LAYER_SHOTS} shots per point, least of {LAYER_ROUNDS} fresh interpreters "
                "per tree, alternating"
            ),
            "unit": "us/shot, but minor_faults_per_shot in faults/shot",
            **{side: timed[side]["layers"] for side in trees},
        },
        "calls": {
            "command": (
                f"time_calls(): {CALL_REPEATS} cli.main calls per workload at {FEW_SHOTS} shots and at its "
                f"own shot count, least median of {LAYER_ROUNDS} fresh interpreters per tree, alternating"
            ),
            "unit": "ms per call, median",
            **{side: timed[side]["calls"] for side in trees},
        },
        "g2_grids": {
            "command": (
                f"time_g2_grids(): least of {G2_GRID_ROUNDS} fresh interpreters per tree, alternating, "
                f"G2Accumulator.add on "
                f"{', '.join(map(str, G2_GRIDS))} cells, detect_pulse on 1000 bins with "
                f"dead_time_ns = {DEAD_TIME_NS:g} and dark_cps = {DARK_CPS:g}, and run_point at "
                f"{LONG_PULSE_PHOTONS:g} photons on {LONG_PULSE_BINS} bins over {LONG_PULSE_SHOTS} shots "
                f"without g2, best of {G2_GRID_REPEATS} passes"
            ),
            "unit": "us/shot, but add_block_peak_bytes in tracemalloc bytes",
            **g2_grids,
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
