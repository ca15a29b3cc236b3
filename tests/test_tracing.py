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
