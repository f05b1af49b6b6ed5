"""The benchmark's tracer must resolve every traced tfred function."""

import importlib.util
import os

import tfred.cli
import tfred.reduction

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_target():
    tracing = load_tracing()
    originals = (tfred.cli.main, tfred.reduction.eigen_certificate)
    patches = tracing.install(tracing.Tracer())
    try:
        assert patches
        assert tfred.cli.main is not originals[0]
    finally:
        tracing.uninstall(patches)
    assert (tfred.cli.main, tfred.reduction.eigen_certificate) == originals
