import base64
import json
import logging
import os
import shutil
import weakref

import numpy as np
import pytest

from mcfproto import config, diagnostics, head, so3, store, synthgym, trainer


def tiny_dataset(seed=0, episodes=6):
    return synthgym.generate(synthgym.default_templates(), episodes, seed=seed)


def tiny_configs(**train_kw):
    hc = head.HeadConfig(hidden=16, k_trans=4, k_rot=4, horizon=3)
    base = dict(steps=30, warmup=5, batch_size=16, eval_interval=10)
    base.update(train_kw)
    return hc, config.TrainConfig(**base)


def test_cosine_lr_endpoints():
    tc = config.TrainConfig(steps=1000, warmup=100, lr=1e-3)
    assert trainer.cosine_lr(0, tc) == 0.0
    assert trainer.cosine_lr(100, tc) == pytest.approx(1e-3)
    assert trainer.cosine_lr(50, tc) == pytest.approx(5e-4)
    assert trainer.cosine_lr(1000, tc) == pytest.approx(0.0, abs=1e-18)
    mid = trainer.cosine_lr(550, tc)
    assert mid == pytest.approx(5e-4)
    assert isinstance(mid, float)
    with pytest.raises(ValueError):
        trainer.cosine_lr(-1, tc)


def test_train_config_validation():
    with pytest.raises(ValueError):
        config.TrainConfig(warmup=100, steps=50)
    with pytest.raises(ValueError, match="steps must be"):
        config.TrainConfig(steps=0, warmup=0)
    with pytest.raises(ValueError):
        config.TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="eval_interval"):
        config.TrainConfig(eval_interval=0)
    with pytest.raises(ValueError, match="ckpt_interval"):
        config.TrainConfig(ckpt_interval=-1)


def test_adamw_zero_grad_step_only_decays():
    hc = head.HeadConfig(hidden=8, k_trans=2, k_rot=2, horizon=2)
    params = head.init_params(hc, np.random.default_rng(0))
    tc = config.TrainConfig(steps=10, warmup=0, weight_decay=0.1,
                             weight_decay_scale=0.2)
    opt = trainer.AdamW(params, tc)
    before = {k: p.copy() for k, p in params.items()}
    opt.step(0.5, {"enc.w1": np.zeros(params["enc.w1"].shape)})  # the rest count as 0
    for k, p in params.items():
        if k.startswith("dict_"):
            assert np.array_equal(p, before[k])
        elif k.startswith("scale_"):
            assert np.allclose(p, before[k] * (1 - 0.5 * 0.2))
        else:
            assert np.allclose(p, before[k] * (1 - 0.5 * 0.1))


def test_build_chunks_padding():
    ds = tiny_dataset(episodes=1)
    ep = ds.episodes[0]
    obs, actions, rows = trainer.build_chunks([ep], horizon=4)
    tgt = actions[rows]
    t_total = len(ep.actions)
    assert obs.shape == (t_total, ep.obs.shape[1])
    assert tgt.shape == (t_total, 4, 7)
    assert np.array_equal(tgt[0], ep.actions[:4])
    # last chunk repeats the final action
    assert np.array_equal(tgt[-1], np.repeat(ep.actions[-1:], 4, axis=0))


def _materialized_targets(episodes, horizon):
    """The chunk targets as one (T, H, 7) copy per episode, concatenated."""
    targets = []
    for ep in episodes:
        t_total = len(ep.actions)
        steps = np.minimum(np.arange(t_total)[:, None] + np.arange(horizon),
                           t_total - 1)
        targets.append(ep.actions[steps])
    return np.concatenate(targets)


def test_build_chunks_rows_gather_the_materialized_targets():
    # episodes shorter than, as long as and longer than the horizon
    rng = np.random.default_rng(5)
    episodes = [synthgym.Episode("t", 0, np.eye(3), rng.normal(size=(t, 4)),
                                 rng.normal(size=(t, 7))) for t in (1, 3, 4, 12)]
    for horizon in (1, 4, 7):
        obs, actions, rows = trainer.build_chunks(episodes, horizon)
        assert obs.shape == (20, 4) and actions.shape == (20, 7)
        assert np.issubdtype(rows.dtype, np.integer)
        assert rows.shape == (20, horizon)
        want = _materialized_targets(episodes, horizon)
        assert actions[rows].shape == want.shape
        assert actions[rows].tobytes() == want.tobytes()


def test_split_dataset_stratified_and_deterministic():
    ds = tiny_dataset(episodes=10)
    tr1, va1 = trainer.split_dataset(ds, 0.2, seed=3)
    tr2, va2 = trainer.split_dataset(ds, 0.2, seed=3)
    assert [e.task for e in va1] == [e.task for e in va2]
    for task in ds.task_names:
        assert sum(1 for e in va1 if e.task == task) == 2
    assert len(tr1) + len(va1) == len(ds.episodes)


def test_split_dataset_zero_fraction_holds_out_nothing():
    ds = synthgym.generate(synthgym.default_templates(), 5, seed=0)
    train_eps, val_eps = trainer.split_dataset(ds, 0.0, seed=0)
    assert (len(train_eps), len(val_eps)) == (25, 0)


def test_train_smoke_and_loss_decreases():
    ds = tiny_dataset()
    hc, tc = tiny_configs(steps=200, warmup=20, eval_interval=50)
    params, metrics, (best_val, best_step) = trainer.train(ds, hc, tc)
    assert np.isfinite(best_val)
    first = next(m for m in metrics if m["val_loss_act"] != "")
    assert best_val < first["val_loss_act"]


def test_train_deterministic_bitwise():
    ds = tiny_dataset()
    hc, tc = tiny_configs()
    p1, m1, b1 = trainer.train(ds, hc, tc)
    p2, m2, b2 = trainer.train(ds, hc, tc)
    assert b1 == b2
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    assert m1 == m2


def test_train_writes_outputs(tmp_path):
    ds = tiny_dataset()
    hc, tc = tiny_configs()
    out = tmp_path / "run"
    trainer.train(ds, hc, tc, out_dir=str(out))
    assert (out / "metrics.csv").exists()
    assert (out / "ckpt_final.json").exists()
    assert (out / "ckpt_best.json").exists()


def assert_same_run_outputs(dir_a, dir_b):
    for name in ("metrics.csv", "ckpt_final.json", "ckpt_best.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_resume_bitwise_identical(tmp_path):
    ds = tiny_dataset()
    hc, tc_full = tiny_configs(steps=40, warmup=5, eval_interval=10,
                               ckpt_interval=20)
    out_a = tmp_path / "full"
    pa, ma, best_a = trainer.train(ds, hc, tc_full, out_dir=str(out_a))

    out_b = tmp_path / "twophase"
    trainer.train(ds, hc, tc_full, out_dir=str(out_b))
    pb, _, _ = trainer.train(ds, hc, tc_full, out_dir=str(out_b),
                             resume=str(out_b / "ckpt_20.json"))
    for k in pa:
        assert np.array_equal(pa[k], pb[k])
    assert_same_run_outputs(out_a, out_b)

    # the checkpoint is the whole resume state: an empty directory will do,
    # and the run returns the rows logged before the checkpoint too
    out_c = tmp_path / "empty"
    _, mc, best_c = trainer.train(ds, hc, tc_full, out_dir=str(out_c),
                                  resume=str(out_a / "ckpt_20.json"))
    assert mc == ma and best_c == best_a
    assert_same_run_outputs(out_a, out_c)


def test_checkpoint_before_the_first_eval_is_strict_json(tmp_path):
    # ckpt_10.json comes before the first eval, at step 20: it holds no
    # best_val, which would be Infinity, not JSON
    ds = tiny_dataset()
    hc, tc = tiny_configs(steps=40, warmup=5, eval_interval=20, ckpt_interval=10)
    full = tmp_path / "full"
    trainer.train(ds, hc, tc, out_dir=str(full))

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    for path in sorted(full.glob("ckpt_*.json")):
        json.loads(path.read_text(), parse_constant=reject)
    extra = json.loads((full / "ckpt_10.json").read_text())["extra"]
    assert "best_val" not in extra and "best_step" not in extra
    resumed = tmp_path / "resumed"
    trainer.train(ds, hc, tc, out_dir=str(resumed), resume=str(full / "ckpt_10.json"))
    assert_same_run_outputs(full, resumed)


def test_resume_draws_no_initial_parameters(tmp_path, monkeypatch):
    # the parameters come from the checkpoint alone
    ds = tiny_dataset()
    hc, tc = tiny_configs(steps=20, warmup=2, ckpt_interval=10)
    full = tmp_path / "full"
    trainer.train(ds, hc, tc, out_dir=str(full))

    def init_params(*args):
        raise AssertionError("init_params called on resume")

    monkeypatch.setattr(head, "init_params", init_params)
    resumed = tmp_path / "resumed"
    trainer.train(ds, hc, tc, out_dir=str(resumed), resume=str(full / "ckpt_10.json"))
    assert_same_run_outputs(full, resumed)


def best_before_end_run(full):
    """A 60-step run into `full` whose best step comes before its last, with
    a checkpoint at every eval: (ds, hc, tc, best_step)."""
    ds = synthgym.generate(synthgym.default_templates(), 4, seed=0)
    hc = head.HeadConfig(hidden=16, k_trans=4, k_rot=4, horizon=3)
    tc = config.TrainConfig(seed=4, steps=60, warmup=0, lr=0.02, eval_interval=5,
                             ckpt_interval=5, batch_size=8)
    _, _, (_, best_step) = trainer.train(ds, hc, tc, out_dir=str(full))
    assert best_step < 60
    return ds, hc, tc, best_step


def test_resume_after_best_eval_keeps_best_params(tmp_path):
    full = tmp_path / "full"
    # the best parameters are not those resumed from
    ds, hc, tc, _ = best_before_end_run(full)
    same, empty = tmp_path / "same", tmp_path / "empty"
    shutil.copytree(full, same)
    for out in (same, empty):
        trainer.train(ds, hc, tc, out_dir=str(out),
                      resume=str(full / "ckpt_60.json"))
        assert_same_run_outputs(full, out)


def test_best_step_checkpoint_omits_best_params(tmp_path):
    full = tmp_path / "full"
    ds, hc, tc, best_step = best_before_end_run(full)
    for k in range(5, 65, 5):
        extra = json.loads((full / f"ckpt_{k}.json").read_text())["extra"]
        assert ("best_params" in extra) == (extra["best_step"] != k), k
    # the best parameters of the whole run are the resumed checkpoint's own
    empty = tmp_path / "empty"
    trainer.train(ds, hc, tc, out_dir=str(empty),
                  resume=str(full / f"ckpt_{best_step}.json"))
    assert_same_run_outputs(full, empty)


def test_resume_rewrites_torn_metrics_row(tmp_path):
    ds = tiny_dataset()
    hc, tc = tiny_configs(steps=300, eval_interval=100, ckpt_interval=100)
    full = tmp_path / "full"
    trainer.train(ds, hc, tc, out_dir=str(full))
    torn = tmp_path / "torn"
    shutil.copytree(full, torn)
    text = (torn / "metrics.csv").read_bytes()
    # a crash mid-row: the log ends in the "3" of "300,"
    (torn / "metrics.csv").write_bytes(text[:text.index(b"\n300,") + 2])
    trainer.train(ds, hc, tc, out_dir=str(torn),
                  resume=str(torn / "ckpt_200.json"))
    assert_same_run_outputs(full, torn)


def test_metrics_on_disk_before_each_periodic_checkpoint(tmp_path, monkeypatch):
    # a run killed right after ckpt_<k>.json lands has logged every row up to
    # step k
    ds = tiny_dataset()
    hc, tc = tiny_configs(steps=30, ckpt_interval=10)
    out = tmp_path / "run"
    seen = {}
    save = head.save_checkpoint

    def save_and_read_log(path, *args, **kwargs):
        with open(out / "metrics.csv") as f:
            seen[os.path.basename(path)] = f.read()
        return save(path, *args, **kwargs)

    monkeypatch.setattr(head, "save_checkpoint", save_and_read_log)
    trainer.train(ds, hc, tc, out_dir=str(out))
    lines = (out / "metrics.csv").read_text().splitlines(keepends=True)
    for k in (10, 20, 30):
        upto_k = [ln for ln in lines[1:] if int(ln.split(",", 1)[0]) <= k]
        assert seen[f"ckpt_{k}.json"] == "".join(lines[:1] + upto_k)


def test_adamw_state_roundtrip_exact():
    hc, tc = tiny_configs()
    params = head.init_params(hc, np.random.default_rng(4))
    opt = trainer.AdamW(params, tc)
    rng = np.random.default_rng(5)
    for _ in range(3):
        opt.step(1e-3, {k: rng.normal(size=p.shape) for k, p in params.items()})
    state = json.loads(json.dumps(opt.state()))
    # the moments are flat: the tensors' moments concatenated in parameter order
    flat = np.frombuffer(base64.b64decode(state["m"]), dtype="<f8")
    assert np.array_equal(flat, opt.m)
    other = trainer.AdamW(params, tc)
    other.load_state(state)
    assert other.step_count == opt.step_count == 3
    assert other.m.tobytes() == opt.m.tobytes()
    assert other.v.tobytes() == opt.v.tobytes()


class PerTensorAdamW:
    """The per-tensor AdamW loop that the flat trainer.AdamW replaced: the
    reference it must match bit for bit."""

    def __init__(self, params, config):
        self.params, self.cfg, self.step_count = params, config, 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, lr, grads):
        self.step_count += 1
        c = self.cfg
        bc1 = 1.0 - c.beta1 ** self.step_count
        bc2 = 1.0 - c.beta2 ** self.step_count
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = c.beta1 * self.m[k] + (1.0 - c.beta1) * g
            self.v[k] = c.beta2 * self.v[k] + (1.0 - c.beta2) * g * g
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + c.eps)
            if k.startswith("scale_"):
                decay = c.weight_decay_scale
            elif k.startswith("dict_"):
                decay = 0.0
            else:
                decay = c.weight_decay
            if decay > 0:
                update = update + decay * p
            p -= lr * update

    def state(self):
        return {"step_count": self.step_count,
                "m": store.encode_f8(self.m[k] for k in self.params),
                "v": store.encode_f8(self.v[k] for k in self.params)}


def signed_zero_grads(rng, shape):
    """Normal draws with about a fifth of them exactly 0.0 and -0.0."""
    g = rng.normal(size=shape)
    u = rng.uniform(size=shape)
    g[u < 0.1] = 0.0
    g[(u >= 0.1) & (u < 0.2)] = -0.0
    return g


def test_flat_adamw_matches_per_tensor_loop_bitwise():
    hc, _ = tiny_configs()
    tc = config.TrainConfig(steps=10, warmup=0, weight_decay=0.03,
                             weight_decay_scale=0.7)
    ref_params, params = (head.init_params(hc, np.random.default_rng(6))
                          for _ in range(2))
    ref, opt = PerTensorAdamW(ref_params, tc), trainer.AdamW(params, tc)
    zeros = ("enc.w1", "scale_t.w", "dict_trans")  # one of each decay group
    for k in zeros:  # signed zeros in values and moments, -0.0 gradients on them
        for ps in (ref_params, params):
            ps[k].reshape(-1)[:3] = [0.0, -0.0, -0.0]
        ref.m[k].reshape(-1)[:3] = -0.0
    opt.load_state(ref.state())
    for ps in (ref_params, params):  # undecayed: a "+ 0 * inf" would make it nan
        ps["dict_trans"].reshape(-1)[3] = np.inf
    rng = np.random.default_rng(7)
    for step in range(6):
        grads = {k: signed_zero_grads(rng, p.shape) for k, p in params.items()}
        for k in zeros:
            grads[k].reshape(-1)[:3] = -0.0
        lr = trainer.cosine_lr(step, tc) + 1e-3
        # the reference adds each gradient into zeros, as trainer.AdamW does
        ref.step(lr, {k: np.zeros(g.shape) + g for k, g in grads.items()})
        opt.step(lr, grads)
        for k in params:
            assert params[k].tobytes() == ref_params[k].tobytes(), k
        assert opt.m.tobytes() == np.concatenate(list(ref.m.values()), None).tobytes()
        assert opt.v.tobytes() == np.concatenate(list(ref.v.values()), None).tobytes()
        assert opt.state() == ref.state()


def test_flat_adamw_one_rebound_tensor_matches_per_tensor_loop():
    # one tensor whose value is reset in place through the dict's entry, the
    # view AdamW bound there, before every step
    tc = config.TrainConfig(steps=10, warmup=0, weight_decay=0.1)
    ref_params, params = {"theta": np.zeros((3, 6))}, {"theta": np.zeros((3, 6))}
    ref = PerTensorAdamW(ref_params, tc)
    opt = trainer.AdamW(params, tc)
    rng = np.random.default_rng(8)
    for step in range(6):
        params["theta"][:] = 0.0
        ref_params["theta"][:] = 0.0
        g = signed_zero_grads(rng, (3, 6))
        ref.step(0.05, {"theta": np.zeros((3, 6)) + g})
        opt.step(0.05, {"theta": g})
        assert params["theta"].tobytes() == ref_params["theta"].tobytes()
        assert opt.state() == ref.state()


def test_final_checkpoint_copies_last_periodic(tmp_path):
    ds = tiny_dataset()
    hc, tc = tiny_configs(steps=20, warmup=2, ckpt_interval=10)
    out = tmp_path / "run"
    trainer.train(ds, hc, tc, out_dir=str(out))
    assert (out / "ckpt_final.json").read_bytes() == (out / "ckpt_20.json").read_bytes()


def test_final_checkpoint_without_periodic_one(tmp_path):
    # 25 steps, checkpoints every 10: no ckpt_25.json to copy
    ds = tiny_dataset()
    hc, tc = tiny_configs(steps=25, warmup=2, ckpt_interval=10)
    out = tmp_path / "run"
    pa, _, _ = trainer.train(ds, hc, tc, out_dir=str(out))
    assert not (out / "ckpt_25.json").exists()
    final = out / "ckpt_final.json"
    # a resume that starts at the last step writes ckpt_final.json itself
    moved = out / "moved.json"
    final.replace(moved)
    pb, _, _ = trainer.train(ds, hc, tc, out_dir=str(out), resume=str(moved))
    assert final.read_bytes() == moved.read_bytes()
    for k in pa:
        assert np.array_equal(pa[k], pb[k])


def test_resume_rejects_config_mismatch(tmp_path):
    ds = tiny_dataset()
    hc, tc = tiny_configs(ckpt_interval=10)
    out = tmp_path / "run"
    trainer.train(ds, hc, tc, out_dir=str(out))
    other = head.HeadConfig(hidden=8, k_trans=4, k_rot=4, horizon=3)
    with pytest.raises(ValueError):
        trainer.train(ds, other, tc, resume=str(out / "ckpt_10.json"))


def test_empty_dataset_rejected():
    ds = synthgym.Dataset([], [])
    hc, tc = tiny_configs()
    with pytest.raises(ValueError):
        trainer.train(ds, hc, tc)


def test_eval_loss_batch_size_invariant():
    ds = tiny_dataset()
    hc, tc = tiny_configs()
    params = head.init_params(hc, np.random.default_rng(1))
    chunks = trainer.build_chunks(ds.episodes, hc.horizon)
    a = trainer.eval_loss_act(*chunks, params, hc, batch=7)
    b = trainer.eval_loss_act(*chunks, params, hc, batch=512)
    assert a == pytest.approx(b, rel=1e-12)


class _TapeWatch:
    """Watches every head.head_forward and head.loss_total call, and fails
    when one starts while an earlier call's forward arrays are still alive.

    The watch keeps weakrefs to what only a call's forward holds: the value
    array of head_forward's world-action node, and loss_total's kinks and
    grad closure, which holds the forward's arrays. No gc.collect() runs:
    they form no reference cycles, so reference counting alone must free
    them."""

    def __init__(self, monkeypatch):
        self.calls, self.refs = 0, []
        for name, held in (("head_forward", lambda out: [out.world_action.value]),
                           ("loss_total", lambda out: out[2:])):
            monkeypatch.setattr(head, name, self._watch(getattr(head, name), held))

    def _watch(self, fn, held):
        def watched(*args, **kwargs):
            alive = [ref for ref in self.refs if ref() is not None]
            assert not alive, f"call {self.calls} starts with {len(alive)} alive"
            self.calls += 1
            result = fn(*args, **kwargs)
            self.refs += map(weakref.ref, held(result))
            return result
        return watched


def test_eval_loss_act_holds_one_tape_at_a_time(monkeypatch):
    ds = tiny_dataset()
    hc, _ = tiny_configs()
    params = head.init_params(hc, np.random.default_rng(1))
    chunks = trainer.build_chunks(ds.episodes, hc.horizon)
    watch = _TapeWatch(monkeypatch)
    trainer.eval_loss_act(*chunks, params, hc, batch=7)
    assert watch.calls >= 3


def test_predict_step_outputs_holds_one_tape_at_a_time(monkeypatch):
    hc, _ = tiny_configs()
    params = head.init_params(hc, np.random.default_rng(1))
    obs = np.random.default_rng(2).normal(size=(23, hc.obs_dim))
    monkeypatch.setattr(diagnostics, "_CHUNK", 5)
    watch = _TapeWatch(monkeypatch)
    diagnostics.predict_step_outputs(params, hc, obs)
    assert watch.calls == 5


def test_train_step_loop_holds_one_tape_at_a_time(monkeypatch):
    # each step's loss tape is gone before the next step's forward and
    # before every eval forward
    ds = tiny_dataset()
    hc, tc = tiny_configs(steps=5, warmup=1, eval_interval=2)
    watch = _TapeWatch(monkeypatch)
    trainer.train(ds, hc, tc)
    assert watch.calls >= 5 + 3  # five loss_total calls, three evals


def test_ablation_config_rows():
    base = head.HeadConfig()
    bc = trainer.ablation_config(base, "bc-mlp")
    assert not bc.learn_frame and bc.k_trans == 1 and bc.k_rot == 1
    assert bc.lambda_ortho == 0.0 and bc.lambda_smooth == 0.0
    full = trainer.ablation_config(base, "mcf-proto-full")
    assert full == base
    mcf = trainer.ablation_config(base, "mcf-only")
    assert mcf.learn_frame and mcf.k_trans == 1
    wp = trainer.ablation_config(base, "world-proto")
    assert not wp.learn_frame and wp.k_trans == base.k_trans


def test_bc_mlp_row_is_plain_regressor():
    # with frame frozen to identity and K=1, the world action is a fixed
    # linear readout of the latent: action = R_id @ (D0 @ z), z linear in h
    base = head.HeadConfig(hidden=8, horizon=2)
    cfg = trainer.ablation_config(base, "bc-mlp")
    params = head.init_params(cfg, np.random.default_rng(2))
    obs = np.random.default_rng(3).normal(size=(4, cfg.obs_dim))
    out = head.head_forward(obs, params, cfg)
    h = out.latent.value
    z = (h @ params["scale_t.w"].T + params["scale_t.b"])
    z = z.reshape(4, cfg.horizon, cfg.d)
    expected = z @ params["dict_trans"][0].T
    assert np.abs(out.world_action.value[..., :3] - expected).max() < 1e-12


def test_ablation_suite_output(tmp_path):
    ds = tiny_dataset(episodes=4)
    hc, tc = tiny_configs(steps=20, warmup=2, eval_interval=10)
    path = tmp_path / "ablations.csv"
    rows = trainer.ablation_suite(ds, hc, tc, seeds=(0,), out_path=str(path))
    assert [r["row"] for r in rows] == [r[0] for r in trainer.ABLATION_ROWS]
    for r in rows:
        assert r["mean"] is not None and np.isfinite(r["mean"])
    assert path.exists()
    text = path.read_text()
    assert "bc-mlp" in text and "mcf-proto-full" in text


def test_ablation_csv_crash_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "ablation.csv"
    hc, tc = tiny_configs()
    ds = tiny_dataset(episodes=1)
    monkeypatch.setattr(trainer, "train", lambda *args, **kwargs: (None, None, (0.5, 1)))
    trainer.ablation_suite(ds, hc, tc, seeds=(0,), out_path=str(path))
    before = path.read_bytes()

    class DiskFull(float):
        """A validation loss whose CSV text fails to be written."""

        def __repr__(self):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(trainer, "train",
                        lambda *args, **kwargs: (None, None, (DiskFull(0.25), 1)))
    with pytest.raises(OSError):
        trainer.ablation_suite(ds, hc, tc, seeds=(0,), out_path=str(path))
    assert path.read_bytes() == before
    assert not os.path.exists(f"{path}.tmp")


@pytest.mark.parametrize("exc", [
    trainer.TrainingDiverged(5, float("nan")),
    so3.DegenerateParamError("6D columns are near-collinear"),
], ids=["TrainingDiverged", "DegenerateParamError"])
def test_ablation_suite_records_runtime_failures(monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(trainer, "train", fail)
    hc, tc = tiny_configs()
    rows = trainer.ablation_suite(tiny_dataset(episodes=1), hc, tc, seeds=(0,))
    assert len(rows) == len(trainer.ABLATION_ROWS)
    for r in rows:
        assert r["mean"] is None and r["errors"] == [str(exc)]


def test_ablation_suite_propagates_programming_errors(monkeypatch):
    def fail(*args, **kwargs):
        raise TypeError("train() got an unexpected keyword argument")

    monkeypatch.setattr(trainer, "train", fail)
    hc, tc = tiny_configs()
    with pytest.raises(TypeError):
        trainer.ablation_suite(tiny_dataset(episodes=1), hc, tc, seeds=(0,))


def test_horizon_one_warns_once_per_run(caplog):
    hc = head.HeadConfig(hidden=16, k_trans=4, k_rot=4, horizon=1)
    tc = config.TrainConfig(steps=5, warmup=1, batch_size=16, eval_interval=5)
    ds = tiny_dataset()
    seven = head.HeadConfig(hidden=16, k_trans=4, k_rot=4)
    with caplog.at_level(logging.WARNING):
        trainer.train(ds, hc, tc)
        # diagnose runs a horizon-1 cut of the head, which must not warn
        diagnostics.predict_step_outputs(
            head.init_params(seven, np.random.default_rng(0)), seven, ds.episodes[0].obs)
    assert len(caplog.records) == 1
    assert "smoothness term is 0" in caplog.records[0].getMessage()
