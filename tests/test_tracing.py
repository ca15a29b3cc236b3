"""The benchmark's tracer wraps photonsub names in place; each must exist and come back."""

import importlib.util
from pathlib import Path

from photonsub import absorber, cli, experiment, stats

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_existing_names_and_restores_them():
    owners = (absorber, cli, experiment, stats, absorber.EnsembleResult, stats.G2Accumulator)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load_tracing().Tracer()
    try:
        # a traced name that the package no longer has fails here
        tracer.install()
        assert tracer._saved
        for owner, attr, original in tracer._saved:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == names.keys()
        assert all(after[name] is value for name, value in names.items()), owner


def test_traced_layers_are_the_ones_the_shot_loop_runs(tmp_path):
    # the shot loop calls the traced absorber, ensemble and g2 names, so their metrics are not 0
    shots = 600
    cascade = ["--shots", str(shots), "--out", str(tmp_path), "cascade", "--stages", "1,0,1;1,0,1", "--n-in", "3"]
    g2 = ["--shots", str(shots), "--out", str(tmp_path), "g2"]
    metrics = {}
    for name, argv in (("cascade", cascade), ("g2", g2)):
        tracer = _load_tracing().Tracer()
        tracer.install()
        try:
            assert tracer.call_main(argv) == 0
        finally:
            tracer.uninstall()
        metrics[name], consistent = tracer.layer_metrics(shots, [1.0])
        assert consistent, name
        for layer in ("absorber.simulate_shot_calls", "absorber.add_shot_us"):
            assert metrics[name][layer] > 0, (name, layer)
    assert metrics["g2"]["stats.g2_add_us"] > 0
