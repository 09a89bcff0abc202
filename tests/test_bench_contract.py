"""The benchmark's per-layer tracer (perfbench/layers.py) wraps mcfproto
functions it looks up by name. These tests fail as soon as the package drops
or renames one of them, which would make every traced benchmark run die."""

import importlib
import os

import mcfproto
import mcfproto.cli  # noqa: F401  imports every module the tracer wraps

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    originals = (mcfproto.autodiff.sqrt, mcfproto.trainer.AdamW.step,
                 mcfproto.theoremlab.minimize_over_so)
    tracer = layers.Tracer(mcfproto)
    tracer.install()
    try:
        assert mcfproto.theoremlab.minimize_over_so is not originals[2]
    finally:
        tracer.uninstall()
    assert (mcfproto.autodiff.sqrt, mcfproto.trainer.AdamW.step,
            mcfproto.theoremlab.minimize_over_so) == originals
