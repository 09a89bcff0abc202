"""The benchmark's per-layer tracer (perfbench/layers.py) wraps mcfproto
functions it looks up by name. These tests fail as soon as the package drops
or renames one of them, which would make every traced benchmark run die, or
as soon as tracing changes what the program computes."""

import importlib
import json
import os

import numpy as np
import pytest

import mcfproto
import mcfproto.cli  # noqa: F401  imports every module the tracer wraps
from mcfproto import cli, head

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("layers")


def test_tracer_installs_and_uninstalls(layers):
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


def _loss_and_grads():
    config = head.HeadConfig(hidden=8, k_trans=4, k_rot=4, horizon=3)
    params = head.init_params(config, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    obs = rng.normal(size=(5, config.obs_dim))
    targets = rng.normal(size=(5, config.horizon, head.ACTION_DIM))
    loss, _, _, grad = head.loss_total(obs, targets, params, config)
    return loss, grad()


def test_tracing_keeps_arithmetic_bitwise(layers):
    loss, grads = _loss_and_grads()
    tracer = layers.Tracer(mcfproto)
    tracer.install()
    try:
        traced_loss, traced_grads = _loss_and_grads()
    finally:
        tracer.uninstall()
    assert traced_loss.tobytes() == loss.tobytes()
    for name, g in grads.items():
        assert traced_grads[name].tobytes() == g.tobytes(), name
    assert tracer.stats["head.loss_total"][0] == 1  # calls
    assert tracer.stats["autodiff.backward"][0] == 0  # the head builds no tape


def test_tracer_times_a_command_after_main_ran(layers, tmp_path):
    # a benchmark client runs untraced rounds before it installs the tracer,
    # so main has built its parser by then; the command must still be the
    # tracer's wrapper
    data, ckpt, out = tmp_path / "data.jsonl", tmp_path / "ckpt.json", tmp_path / "diag"
    assert cli.main(["gen-data", "--out", str(data), "--episodes", "1"]) == cli.EXIT_OK
    config = head.HeadConfig(hidden=4, k_trans=2, k_rot=2, horizon=2)
    head.save_checkpoint(str(ckpt), head.init_params(config, np.random.default_rng(0)),
                         config)
    tracer = layers.Tracer(mcfproto)
    tracer.install()
    try:
        assert cli.main(["diagnose", "--data", str(data), "--ckpt", str(ckpt),
                         "--out", str(out)]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    calls, _, self_s, report_bytes = tracer.stats["cli.cmd_diagnose"]
    assert calls == 1 and self_s > 0
    assert report_bytes == os.path.getsize(out / "report.json") > 0


def test_traced_train_records_its_spans_and_writes_the_same_files(layers, tmp_path):
    # the train workload's traced rounds call build_chunks and eval_loss_act
    # through the tracer's wrappers; the run's files must not change
    data, cfg = tmp_path / "data.jsonl", tmp_path / "train.json"
    assert cli.main(["gen-data", "--out", str(data), "--episodes", "2"]) == cli.EXIT_OK
    cfg.write_text(json.dumps({"train": {"steps": 20, "warmup": 2, "eval_interval": 10,
                                         "ckpt_interval": 10}}))

    def train(out):
        return cli.main(["train", "--data", str(data), "--config", str(cfg),
                         "--out", str(out)])

    assert train(tmp_path / "plain") == cli.EXIT_OK
    tracer = layers.Tracer(mcfproto)
    tracer.install()
    try:
        assert train(tmp_path / "traced") == cli.EXIT_OK
    finally:
        tracer.uninstall()
    assert tracer.stats["trainer.build_chunks"][0] == 2  # train and val chunks
    assert tracer.stats["trainer.eval_loss_act"][0] == 2  # steps 10 and 20
    names = sorted(os.listdir(tmp_path / "plain"))
    assert "ckpt_10.json" in names and "ckpt_best.json" in names
    assert sorted(os.listdir(tmp_path / "traced")) == names
    for name in names:
        if name == "metrics.csv" or name.startswith("ckpt_"):
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "traced" / name).read_bytes() == plain, name
