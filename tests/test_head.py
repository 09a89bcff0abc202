import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from mcfproto import autodiff as ad
from mcfproto import head, so3, store


def small_config(**kw):
    base = dict(obs_dim=5, hidden=8, d=3, k_trans=4, k_rot=4, horizon=3)
    base.update(kw)
    return head.HeadConfig(**base)


def test_forward_shapes():
    cfg = small_config()
    params = head.init_params(cfg, np.random.default_rng(0))
    out = head.head_forward(np.zeros((2, 5)), params, cfg)
    assert out.frames.value.shape == (2, 3, 3, 3)
    assert out.gating_trans.value.shape == (2, 3, 4)
    assert out.world_action.value.shape == (2, 3, 7)


def test_initial_frames_near_identity():
    cfg = small_config()
    params = head.init_params(cfg, np.random.default_rng(1))
    out = head.head_forward(np.random.default_rng(2).normal(size=(4, 5)), params, cfg)
    assert np.abs(out.frames.value - np.eye(3)).max() < 0.1


def test_frames_are_rotations():
    cfg = small_config()
    params = head.init_params(cfg, np.random.default_rng(3))
    obs = np.random.default_rng(4).normal(size=(8, 5))
    out = head.head_forward(obs, params, cfg)
    R = out.frames.value
    assert np.linalg.norm(R.swapaxes(-1, -2) @ R - np.eye(3),
                          axis=(-2, -1)).max() < 1e-9
    assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-9


def test_gating_simplex():
    cfg = small_config()
    params = head.init_params(cfg, np.random.default_rng(5))
    out = head.head_forward(np.random.default_rng(6).normal(size=(3, 5)), params, cfg)
    for pi in (out.gating_trans.value, out.gating_rot.value):
        assert np.all(pi >= 0.0)
        assert np.abs(pi.sum(axis=-1) - 1.0).max() < 1e-12


def test_compose_local_matches_brute_force():
    cfg = small_config()
    params = head.init_params(cfg, np.random.default_rng(7))
    obs = np.random.default_rng(8).normal(size=(3, 5))
    out = head.head_forward(obs, params, cfg)
    pi = out.gating_trans.value
    z = out.scales_trans.value
    D = params["dict_trans"]
    expected = np.zeros((3, cfg.horizon, 3))
    for b in range(3):
        for t in range(cfg.horizon):
            for k in range(cfg.k_trans):
                expected[b, t] += pi[b, t, k] * (D[k] @ z[b, t])
    assert np.abs(out.local_trans.value - expected).max() < 1e-12


def test_world_assembly_respects_layout():
    cfg = small_config()
    params = head.init_params(cfg, np.random.default_rng(9))
    obs = np.random.default_rng(10).normal(size=(2, 5))
    out = head.head_forward(obs, params, cfg)
    R = out.frames.value
    wt = np.einsum("bhij,bhj->bhi", R, out.local_trans.value)
    wr = np.einsum("bhij,bhj->bhi", R, out.local_rot.value)
    a = out.world_action.value
    assert np.abs(a[..., :3] - wt).max() < 1e-12
    assert np.abs(a[..., 3:6] - wr).max() < 1e-12


def test_identity_frame_ablation():
    cfg = small_config(learn_frame=False)
    params = head.init_params(cfg, np.random.default_rng(11))
    out = head.head_forward(np.random.default_rng(12).normal(size=(2, 5)), params, cfg)
    assert np.array_equal(out.frames.value[0, 0], np.eye(3))
    assert np.abs(out.world_action.value[..., :3] - out.local_trans.value).max() == 0.0


@pytest.mark.parametrize("overrides", [
    {}, {"k_trans": 4, "k_rot": 8, "d": 2}, {"learn_frame": False}, {"horizon": 1},
    {"horizon": 20}], ids=["default", "k4-k8-d2", "identity-frame", "h1", "h20"])
@pytest.mark.parametrize("batch", [1, 5, 256])
def test_first_slot_forward_is_full_forward_slot_0(overrides, batch):
    cfg = head.HeadConfig(**overrides)
    params = head.init_params(cfg, np.random.default_rng(15))
    params["frame.w2"] *= 1e3  # frames far from the identity
    obs = np.random.default_rng(16).normal(size=(batch, cfg.obs_dim))
    full = head.head_forward(obs, params, cfg)
    cut = head.head_forward(obs, *head.first_slot(params, cfg))
    for field in ("frames", "gating_trans", "gating_rot", "scales_trans",
                  "scales_rot", "local_trans", "local_rot", "world_action"):
        want = getattr(full, field).value[:, :1]
        got = getattr(cut, field).value
        assert got.shape == want.shape, field
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), field


def test_k1_softmax_is_constant_one():
    cfg = small_config(k_trans=1, k_rot=1)
    params = head.init_params(cfg, np.random.default_rng(13))
    out = head.head_forward(np.random.default_rng(14).normal(size=(2, 5)), params, cfg)
    assert np.all(out.gating_trans.value == 1.0)
    # composition reduces to the single prototype applied to z
    D0 = params["dict_trans"][0]
    expected = out.scales_trans.value @ D0.T
    assert np.abs(out.local_trans.value - expected).max() < 1e-12


def test_loss_act_unit_values():
    pred = np.zeros((1, 1, 7))
    target = np.zeros((1, 1, 7))
    target[0, 0, 3] = 0.5   # rot channel: smooth-l1 of 0.5 is 0.125
    target[0, 0, 0] = 0.25  # trans channel: l1
    target[0, 0, 6] = 1.0   # gripper channel: l1
    loss, vjp, kinks = head.loss_act(pred, target, beta=1.0)
    assert loss == pytest.approx(0.25 + 1.0 + 0.125)
    # d/dpred: sign of the L1 residuals, the residual inside Smooth-L1's beta
    assert vjp(2.0).tolist() == [[[-2.0, 0.0, 0.0, -1.0, 0.0, 0.0, -2.0]]]
    assert sorted(kinks.tolist()) == [-1.0, -1.0, -1.0, -0.5, -0.25, 0.0, 0.0]


def test_loss_ortho_zero_at_orthonormal():
    # 4 orthonormal flattened prototypes in R^9
    D = np.zeros((4, 3, 3))
    for k in range(4):
        D[k, k // 3, k % 3] = 1.0
    zero, vjp = head.loss_ortho([D, D])
    assert zero == pytest.approx(0.0)
    assert all(np.abs(g).max() < 1e-15 for g in vjp(1.0))


def test_loss_ortho_identity_dictionary_value():
    # two identical unit prototypes: gram = [[1,1],[1,1]], ||G - I||_F^2 = 2
    D = np.zeros((2, 3, 3))
    D[:, 0, 0] = 1.0
    loss, _ = head.loss_ortho([D, np.zeros((1, 3, 3))])
    assert loss == pytest.approx(2.0 + 1.0)  # second dict: ||0 - I_1||^2 = 1


def _minimize_gram_floor(k, n, seed, iters=4000):
    # independent check: plain gradient descent on ||B B^T - I_K||_F^2
    # with B (K, n), gradient 4 (B B^T - I) B
    rng = np.random.default_rng(seed)
    B = rng.normal(0.0, 1.0 / np.sqrt(n), (k, n))
    lr = 0.01
    for _ in range(iters):
        G = B @ B.T - np.eye(k)
        B -= lr * 4.0 * G @ B
    return float(np.sum((B @ B.T - np.eye(k)) ** 2))


def test_tight_frame_floor_k16_d3():
    # K - 3d = 7 residual for K=16 prototypes flattened into R^9
    val = _minimize_gram_floor(16, 9, seed=0)
    assert val == pytest.approx(7.0, abs=1e-3)


def test_tight_frame_floor_matches_head_dictionaries():
    cfg = head.HeadConfig()
    params = head.init_params(cfg, np.random.default_rng(15))
    D = params["dict_trans"]
    lr = 0.01
    for _ in range(4000):
        D -= lr * head.loss_ortho([D])[1](1.0)[0]
    assert head.loss_ortho([D])[0] == pytest.approx(16 - 9, abs=1e-3)


def test_loss_smooth_chunk_values():
    const = np.broadcast_to(np.eye(3), (2, 4, 3, 3)).copy()
    assert head.loss_smooth_chunk(const)[0] == pytest.approx(0.0)
    seq = np.broadcast_to(np.eye(3), (1, 2, 3, 3)).copy()
    seq[0, 1] = so3.axis_angle_to_rotation(np.array([0.0, 0.0, np.pi / 2]))
    assert head.loss_smooth_chunk(seq)[0] == pytest.approx(1.0)


def test_loss_smooth_single_step_chunk_is_zero():
    frames = np.broadcast_to(np.eye(3), (2, 1, 3, 3)).copy()
    assert head.loss_smooth_chunk(frames) == (0.0, None)


def test_loss_total_parts_consistent():
    cfg = small_config()
    params = head.init_params(cfg, np.random.default_rng(16))
    rng = np.random.default_rng(17)
    obs = rng.normal(size=(4, 5))
    targets = rng.normal(size=(4, 3, 7)) * 0.05
    total, parts, _, _ = head.loss_total(obs, targets, params, cfg)
    recomposed = (parts["loss_act"]
                  + cfg.lambda_ortho * parts["loss_ortho"]
                  + cfg.lambda_smooth * parts["loss_smooth"])
    assert parts["loss_total"] == pytest.approx(recomposed, rel=1e-12)
    assert float(total) == parts["loss_total"]


def test_full_objective_gradcheck():
    cfg = small_config()
    params = head.init_params(cfg, np.random.default_rng(18))
    rng = np.random.default_rng(19)
    obs = rng.normal(size=(2, 5))
    targets = rng.normal(size=(2, 3, 7)) * 0.05

    def loss_fn():
        total, _, kinks, grad = head.loss_total(obs, targets, params, cfg)
        return total, kinks, grad

    rep = ad.gradcheck(params, loss_fn)
    assert rep["__pass__"], f"max rel err {rep['__max__']}"


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = small_config()
    params = head.init_params(cfg, np.random.default_rng(20))
    path = tmp_path / "ckpt.json"
    head.save_checkpoint(path, params, cfg, extra={"step": 3, "opt": {"m": [0.5]}})
    text = path.read_text()
    assert text == json.dumps(json.loads(text))  # json.dumps layout, byte for byte
    assert text == json.dumps({"schema_version": head.CHECKPOINT_SCHEMA,
                               "config": asdict(cfg),
                               "params": {k: p.tolist() for k, p in params.items()},
                               "extra": {"step": 3, "opt": {"m": [0.5]}}})
    loaded, cfg2, extra = head.load_checkpoint(path)
    assert cfg2 == cfg
    assert extra == {"step": 3, "opt": {"m": [0.5]}}
    for k, p in params.items():
        assert np.array_equal(loaded[k], p)
    obs = np.random.default_rng(21).normal(size=(3, 5))
    a1 = head.head_forward(obs, params, cfg).world_action.value
    a2 = head.head_forward(obs, loaded, cfg2).world_action.value
    assert np.array_equal(a1, a2)


def test_checkpoint_crash_keeps_old_file(tmp_path, monkeypatch):
    cfg = small_config()
    params = head.init_params(cfg, np.random.default_rng(20))
    path = tmp_path / "ckpt.json"
    head.save_checkpoint(path, params, cfg, extra={"step": 3})
    before = path.read_bytes()

    class DiskFull:
        """A file whose write stores a prefix of the text, then fails."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[:32])
            raise OSError("disk full")

    real_open = open
    monkeypatch.setattr(store, "open", lambda p, mode="r": DiskFull(real_open(p, mode)),
                        raising=False)
    with pytest.raises(OSError):
        head.save_checkpoint(path, params, cfg, extra={"step": 4})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not os.path.exists(f"{path}.tmp")
    assert head.load_checkpoint(path)[2] == {"step": 3}


def test_checkpoint_schema_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 99, "config": {}, "params": {}}')
    with pytest.raises(ValueError):
        head.load_checkpoint(str(path))


def test_seed_matched_init_across_variants():
    # ablations share initialization wherever shapes coincide
    full = head.init_params(small_config(), np.random.default_rng(22))
    frozen = head.init_params(small_config(learn_frame=False),
                              np.random.default_rng(22))
    for k in full:
        assert np.array_equal(full[k], frozen[k])
