"""The head's plain-numpy forward and hand-written backward against a tape
reference: the head graph built from autodiff primitives, as the head was
computed before it had a backward of its own, over the parameter arrays
wrapped in ad.Param here. Outputs, loss parts and gradients must match it
bit for bit."""

import importlib
import os

import numpy as np
import pytest

import mcfproto
from mcfproto import autodiff as ad
from mcfproto import config, diagnostics, head, synthgym, trainer
from mcfproto.config import ACTION_DIM

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
FIELDS = ("latent", "frames", "gating_trans", "gating_rot", "scales_trans",
          "scales_rot", "local_trans", "local_rot", "world_action")


# ---------------------------------------------------------------------------
# tape reference
# ---------------------------------------------------------------------------

def as_params(arrays):
    """Tape leaves over copies of the head's parameter arrays."""
    return {k: ad.Param(v, k) for k, v in arrays.items()}


def tape_compose_local(h, params, cfg, kind):
    prefix = "t" if kind == "trans" else "r"
    k = cfg.k_trans if kind == "trans" else cfg.k_rot
    batch = h.shape[0]
    logits = ad.linear(h, params[f"gate_{prefix}.w"], params[f"gate_{prefix}.b"])
    pi = ad.softmax(ad.reshape(logits, (batch, cfg.horizon, k)))
    z = ad.linear(h, params[f"scale_{prefix}.w"], params[f"scale_{prefix}.b"])
    z = ad.reshape(z, (batch, cfg.horizon, cfg.d))
    return ad.compose_protos(pi, params[f"dict_{kind}"], z), pi, z


def tape_forward(obs, params, cfg):
    """{field: node}, the HeadOutput fields as tape nodes."""
    obs = ad.constant(np.atleast_2d(np.asarray(obs, dtype=float)))
    batch = obs.shape[0]
    h1 = ad.tanh(ad.linear(obs, params["enc.w1"], params["enc.b1"]))
    h = ad.tanh(ad.linear(h1, params["enc.w2"], params["enc.b2"]))
    if cfg.learn_frame:
        fh = ad.tanh(ad.linear(h, params["frame.w1"], params["frame.b1"]))
        p6 = ad.linear(fh, params["frame.w2"], params["frame.b2"])
        frames = ad.gram_schmidt_6d(ad.reshape(p6, (batch, cfg.horizon, 6)))
    else:
        frames = ad.constant(
            np.broadcast_to(np.eye(3), (batch, cfg.horizon, 3, 3)).copy())
    local_t, pi_t, z_t = tape_compose_local(h, params, cfg, "trans")
    local_r, pi_r, z_r = tape_compose_local(h, params, cfg, "rot")
    rest = ad.linear(h, params["rest.w"], params["rest.b"])
    rest = ad.reshape(rest, (batch, cfg.horizon, ACTION_DIM - 6))
    world = ad.concat_last([ad.apply_frame(frames, local_t),
                            ad.apply_frame(frames, local_r), rest])
    return dict(zip(FIELDS, (h, frames, pi_t, pi_r, z_t, z_r, local_t, local_r, world)))


def tape_loss_act(pred, target, beta):
    target = np.asarray(target, dtype=float)
    lt = ad.l1_loss(ad.slice_axis(pred, -1, 0, 3), target[..., 0:3])
    lg = ad.l1_loss(ad.slice_axis(pred, -1, 6, ACTION_DIM), target[..., 6:])
    lr = ad.smooth_l1_loss(ad.slice_axis(pred, -1, 3, 6), target[..., 3:6], beta)
    return ad.add(ad.add(lt, lg), lr)


def tape_loss_ortho(dict_trans, dict_rot):
    total = None
    for dic in (dict_trans, dict_rot):
        k = dic.shape[0]
        flat = ad.reshape(dic, (k, dic.shape[1] * dic.shape[2]))
        err = ad.sub(ad.matmul(flat, ad.transpose(flat)), np.eye(k))
        term = ad.arr_sum(ad.mul(err, err))
        total = term if total is None else ad.add(total, term)
    return total


def tape_loss_smooth(frames):
    horizon = frames.shape[1]
    if horizon < 2:
        return ad.constant(0.0)
    prev = ad.slice_axis(frames, 1, 0, horizon - 1)
    cur = ad.slice_axis(frames, 1, 1, horizon)
    tr = ad.sum_last2(ad.mul(prev, cur))
    cos = ad.clamp(ad.affine(tr, 0.5, -0.5), -1.0, 1.0)
    return ad.arr_mean(ad.affine(cos, -1.0, 1.0))


def tape_loss_total(obs, targets, params, cfg):
    world = tape_forward(obs, params, cfg)
    n_steps = world["world_action"].shape[0] * world["world_action"].shape[1]
    act = ad.affine(tape_loss_act(world["world_action"], targets, cfg.beta),
                    1.0 / n_steps)
    ortho = tape_loss_ortho(params["dict_trans"], params["dict_rot"])
    smooth = tape_loss_smooth(world["frames"])
    total = ad.add(act, ad.add(ad.affine(ortho, cfg.lambda_ortho),
                               ad.affine(smooth, cfg.lambda_smooth)))
    parts = {"loss_act": float(act.value), "loss_ortho": float(ortho.value),
             "loss_smooth": float(smooth.value), "loss_total": float(total.value)}
    return total, parts


# ---------------------------------------------------------------------------
# bitwise equality
# ---------------------------------------------------------------------------

CONFIGS = {
    "default": {},
    "h2": {"horizon": 2},
    "h3": {"horizon": 3},
    "identity-frame": {"learn_frame": False},
    "k1": {"k_trans": 1, "k_rot": 1},
    "k4-k8-d5": {"k_trans": 4, "k_rot": 8, "d": 5},
    **{row: "ablation" for row, *_ in trainer.ABLATION_ROWS},
}


def make_config(name):
    overrides = CONFIGS[name]
    if overrides == "ablation":
        return trainer.ablation_config(head.HeadConfig(), name)
    return head.HeadConfig(**overrides)


def batch_for(cfg, seed, batch=64):
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(batch, cfg.obs_dim))
    return obs, rng.normal(size=(batch, cfg.horizon, ACTION_DIM)) * 0.05


def init(cfg, seed):
    params = head.init_params(cfg, np.random.default_rng(seed))
    params["frame.w2"] *= 300.0  # frames away from the identity
    return params


def head_and_tape_grads(obs, targets, params, cfg):
    """(the head's gradients, the tape's), each by tensor name; the tape has
    one for every tensor. Asserts that the two losses' parts are equal."""
    _, parts, _, grad = head.loss_total(obs, targets, params, cfg)
    tape = as_params(params)
    node, ref_parts = tape_loss_total(obs, targets, tape, cfg)
    assert parts == ref_parts
    ad.backward(node)
    return grad(), {k: p.grad for k, p in tape.items()}


def assert_same(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("name", list(CONFIGS))
def test_head_forward_is_the_tape_bitwise(name):
    cfg = make_config(name)
    params = init(cfg, 30)
    obs, _ = batch_for(cfg, 31)
    out = head.head_forward(obs, params, cfg)
    ref = tape_forward(obs, as_params(params), cfg)
    for field in FIELDS:
        assert_same(getattr(out, field).value, ref[field].value, field)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_loss_total_and_gradients_are_the_tape_bitwise(name):
    cfg = make_config(name)
    params = init(cfg, 32)
    obs, targets = batch_for(cfg, 33)
    loss, parts, kinks, _ = head.loss_total(obs, targets, params, cfg)
    ref_node, ref_parts = tape_loss_total(obs, targets, as_params(params), cfg)
    assert parts == ref_parts
    assert_same(loss, ref_node.value, "loss")
    assert_same(kinks, ad.collect_kinks(ref_node), "kinks")
    got, want = head_and_tape_grads(obs, targets, params, cfg)
    # the frame head has no gradient when the frame is frozen: the tape's is 0
    assert set(got) == {k for k in want if cfg.learn_frame or not k.startswith("frame.")}
    for k in want:
        assert_same(got.get(k, np.zeros(want[k].shape)), want[k], k)


def test_horizon_one_differs_only_in_the_encoder_order():
    # at H = 1 the tape adds the frame head's gradient to the latent's third,
    # the head last: the encoder's gradients may move by rounding, nothing else
    cfg = head.HeadConfig(horizon=1)
    params = init(cfg, 34)
    obs, targets = batch_for(cfg, 35)
    got, want = head_and_tape_grads(obs, targets, params, cfg)
    for k in got:
        if k.startswith("enc."):
            gap = np.abs(got[k] - want[k]).max() / np.abs(want[k]).max()
            assert gap < 1e-14, k
        else:
            assert_same(got[k], want[k], k)


@pytest.mark.parametrize("name", ["default", "bc-mlp"])
def test_adamw_steps_match_the_tape_bitwise(name):
    cfg = make_config(name)
    tc = config.TrainConfig(steps=300, warmup=30)
    params, ref_params = init(cfg, 36), init(cfg, 36)
    opt, ref_opt = trainer.AdamW(params, tc), trainer.AdamW(ref_params, tc)
    rng = np.random.default_rng(37)
    obs, targets = batch_for(cfg, 38, batch=256)
    for step in range(300):
        idx = rng.integers(0, len(obs), 16)
        lr = trainer.cosine_lr(step, tc)
        opt.step(lr, head.loss_total(obs[idx], targets[idx], params, cfg)[3]())
        tape = as_params(ref_params)
        ad.backward(tape_loss_total(obs[idx], targets[idx], tape, cfg)[0])
        ref_opt.step(lr, {k: p.grad for k, p in tape.items()})
    for k in params:
        assert_same(params[k], ref_params[k], k)


# ---------------------------------------------------------------------------
# no tape
# ---------------------------------------------------------------------------

def test_head_builds_no_tape(monkeypatch):
    # every tape primitive the benchmark's tracer wraps, backward and Param
    # raise; the head, its loss and gradient, eval, diagnose's forward and
    # training must not call one
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    for name in (layers.NAMED_PRIMITIVES + layers.LOSS_PRIMITIVES
                 + layers.OTHER_PRIMITIVES + ("backward", "Param")):
        def primitive(*args, name=name, **kwargs):
            raise AssertionError(f"autodiff.{name} called")
        monkeypatch.setattr(mcfproto.autodiff, name, primitive)
    hc = head.HeadConfig(hidden=16, k_trans=4, k_rot=4, horizon=3)
    params = head.init_params(hc, np.random.default_rng(0))
    obs, targets = batch_for(hc, 1, batch=8)
    head.head_forward(obs, params, hc)
    head.loss_total(obs, targets, params, hc)[3]()
    ds = synthgym.generate(synthgym.default_templates(), 2, seed=0)
    trainer.eval_loss_act(*trainer.build_chunks(ds.episodes, hc.horizon), params, hc)
    diagnostics.predict_step_outputs(params, hc, obs)
    tc = config.TrainConfig(steps=3, warmup=1, batch_size=8, eval_interval=2)
    trainer.train(ds, hc, tc)
