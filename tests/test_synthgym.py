import json
import os

import numpy as np
import pytest

from mcfproto import so3, store, synthgym


def test_five_distinct_templates():
    templates = synthgym.default_templates()
    names = [t.name for t in templates]
    assert len(names) == 5
    assert len(set(names)) == 5


def test_stage_validation():
    with pytest.raises(ValueError):
        synthgym.Stage("bad", 0)
    with pytest.raises(ValueError):
        synthgym.Stage("bad", 3, trans_dir=(2.0, 0, 0), trans_mag=0.1)
    with pytest.raises(ValueError):
        synthgym.Stage("bad", 3, profile="sawtooth")


def test_generate_deterministic():
    templates = synthgym.default_templates()
    a = synthgym.generate(templates, 5, seed=42)
    b = synthgym.generate(templates, 5, seed=42)
    for ea, eb in zip(a.episodes, b.episodes):
        assert np.array_equal(ea.actions, eb.actions)
        assert np.array_equal(ea.obs, eb.obs)
        assert np.array_equal(ea.q, eb.q)
    c = synthgym.generate(templates, 5, seed=43)
    assert not np.array_equal(a.episodes[0].actions, c.episodes[0].actions)


def reference_noise(rng, shape, scale):
    """One episode's bounded noise, drawn and bounded alone."""
    if scale == 0.0:
        return np.zeros(shape)
    noise = rng.normal(0.0, scale / 3.0, shape)
    norms = np.linalg.norm(noise, axis=-1, keepdims=True)
    over = norms > scale
    return np.where(over, noise * (scale / np.maximum(norms, 1e-300)), noise)


def reference_generate(templates, episodes_per_task, noise_scale, seed,
                       frame_randomize):
    """generate() one episode at a time: one random_rotation call, one noise
    draw per block and one offset per episode."""
    episodes = []
    for task_idx, template in enumerate(templates):
        ct, cr, grip = template.canonical_rollout()
        t_total = len(grip)
        progress = (np.arange(t_total) / max(t_total - 1, 1))[:, None]
        onehot = np.zeros((t_total, len(templates)))
        onehot[:, task_idx] = 1.0
        for e in range(episodes_per_task):
            rng = synthgym._episode_rng(seed, task_idx * episodes_per_task + e)
            q = so3.random_rotation(rng) if frame_randomize else np.eye(3)
            world_t = ct @ q.T + reference_noise(rng, ct.shape, noise_scale)
            world_r = cr @ q.T + reference_noise(rng, cr.shape, noise_scale)
            actions = np.concatenate([world_t, world_r, grip[:, None]], axis=1)
            offset = q @ (np.asarray(template.stages[0].trans_dir) * 0.2)
            offset = offset + rng.normal(0.0, 0.01, 3)
            obs = np.concatenate([np.tile(so3.encode_6d(q), (t_total, 1)), progress,
                                  onehot, np.tile(offset, (t_total, 1))], axis=1)
            episodes.append((q, obs, actions))
    return episodes


@pytest.mark.parametrize("noise_scale, frame_randomize", [
    (None, True), (0.001, True), (0.0, True), (None, False),
], ids=["default_noise", "noise_0.001", "no_noise", "no_randomize"])
def test_generate_matches_per_episode_reference(noise_scale, frame_randomize):
    templates = synthgym.default_templates()
    ds = synthgym.generate(templates, 7, noise_scale=noise_scale, seed=11,
                           frame_randomize=frame_randomize)
    if noise_scale is None:
        noise_scale = synthgym.DEFAULT_NOISE_FRAC * synthgym.DEFAULT_MAX_STEP
    ref = reference_generate(templates, 7, noise_scale, 11, frame_randomize)
    assert len(ds.episodes) == len(ref) == 7 * len(templates)
    for ep, (q, obs, actions) in zip(ds.episodes, ref):
        assert np.array_equal(ep.q, q)
        assert np.array_equal(ep.obs, obs)
        assert np.array_equal(ep.actions, actions)
        # the same zeros too: -0.0 prints differently in the JSONL
        assert np.array_equal(np.signbit(ep.actions), np.signbit(actions))


def test_single_direction_identity_frame():
    tpl = [synthgym.TaskTemplate("push", (
        synthgym.Stage("push", 5, trans_dir=(1.0, 0, 0), trans_mag=0.01),
    ))]
    ds = synthgym.generate(tpl, 3, noise_scale=0.0, frame_randomize=False)
    for ep in ds.episodes:
        assert np.array_equal(ep.q, np.eye(3))
        assert np.allclose(ep.actions[:, 0], 0.01)
        assert np.all(ep.actions[:, 1:6] == 0.0)
        assert np.all(ep.actions[:, 6] == 1.0)


def test_noise_free_canonical_recovery():
    # rotating the world actions back by Q^T recovers the canonical rollout
    # (up to float roundoff of the two rotations; exact bitwise equality is
    # not attainable for a general Q)
    templates = synthgym.default_templates()
    ds = synthgym.generate(templates, 4, noise_scale=0.0, seed=7)
    by_name = {t.name: t for t in templates}
    for ep in ds.episodes:
        ct, cr, grip = by_name[ep.task].canonical_rollout()
        rec_t = ep.actions[:, :3] @ ep.q
        rec_r = ep.actions[:, 3:6] @ ep.q
        assert np.abs(rec_t - ct).max() < 1e-12
        assert np.abs(rec_r - cr).max() < 1e-12
        assert np.array_equal(ep.actions[:, 6], grip)


def test_noise_is_bounded():
    templates = synthgym.default_templates()
    scale = 0.002
    ds = synthgym.generate(templates, 10, noise_scale=scale, seed=5)
    by_name = {t.name: t for t in templates}
    for ep in ds.episodes:
        ct, _, _ = by_name[ep.task].canonical_rollout()
        noise = ep.actions[:, :3] - ct @ ep.q.T
        assert np.linalg.norm(noise, axis=1).max() <= scale + 1e-12


def test_trans_magnitude_within_max_step():
    ds = synthgym.generate(synthgym.default_templates(), 30, seed=11)
    for ep in ds.episodes:
        norms = np.linalg.norm(ep.actions[:, :3], axis=1)
        assert norms.max() <= synthgym.DEFAULT_MAX_STEP + 1e-12


def test_scene_rotation_angle_distribution():
    ds = synthgym.generate(synthgym.default_templates(), 2000, seed=1)
    tr = np.array([np.trace(ep.q) for ep in ds.episodes])
    angles = np.arccos(np.clip((tr - 1) / 2, -1, 1))
    assert abs(angles.mean() - (np.pi / 2 + 2 / np.pi)) < 0.02


def test_identity_frames_when_randomization_off():
    ds = synthgym.generate(synthgym.default_templates(), 3, seed=2,
                           frame_randomize=False)
    for ep in ds.episodes:
        assert np.array_equal(ep.q, np.eye(3))


def test_knob_turn_rotation_dominates():
    ds = synthgym.generate(synthgym.default_templates(), 50, seed=3)
    flags = []
    for ep in ds.episodes:
        if ep.task != "knob-turn":
            continue
        l1_rot = np.abs(ep.actions[:, 3:6]).sum(axis=1)
        l1_trans = np.abs(ep.actions[:, :3]).sum(axis=1)
        flags.append(l1_rot > l1_trans)
    frac = np.concatenate(flags).mean()
    assert frac >= 0.8


def test_place_ends_with_gripper_flip():
    ds = synthgym.generate(synthgym.default_templates(), 5, seed=4)
    for ep in ds.episodes:
        if ep.task != "place":
            continue
        assert ep.actions[0, 6] == 1.0
        assert ep.actions[-1, 6] == -1.0


def test_observation_layout():
    ds = synthgym.generate(synthgym.default_templates(), 2, seed=6)
    assert ds.obs_dim == 15
    for ep in ds.episodes:
        # first six features encode Q
        assert np.abs(so3.decode_6d(ep.obs[0, :6]) - ep.q).max() < 1e-12
        # progress runs 0 -> 1
        assert ep.obs[0, 6] == 0.0
        assert ep.obs[-1, 6] == 1.0
        # one-hot slot matches task index
        assert np.array_equal(np.nonzero(ep.obs[0, 7:12])[0], [ep.task_idx])


def test_ramp_profile_varies_magnitude():
    stage = synthgym.Stage("s", 4, trans_dir=(1.0, 0, 0), trans_mag=0.04,
                           profile="ramp")
    tpl = synthgym.TaskTemplate("t", (stage,))
    ct, _, _ = tpl.canonical_rollout()
    mags = np.linalg.norm(ct, axis=1)
    assert mags[0] == pytest.approx(0.02)
    assert mags[-1] == pytest.approx(0.04)
    assert np.all(np.diff(mags) > 0)


def test_arc_rotates_translation_direction():
    stage = synthgym.Stage("s", 8, trans_dir=(1.0, 0, 0), trans_mag=0.03,
                           rot_axis=(0.0, 0, 1.0), rot_mag=0.1, arc=True)
    tpl = synthgym.TaskTemplate("t", (stage,))
    ct, cr, _ = tpl.canonical_rollout()
    # magnitudes constant, direction turning about z
    assert np.allclose(np.linalg.norm(ct, axis=1), 0.03)
    angles = np.arctan2(ct[:, 1], ct[:, 0])
    assert np.allclose(np.diff(angles), 0.1)
    assert np.allclose(cr, [0.0, 0.0, 0.1])


def per_step(ds):
    """(actions, scene rotations, {task: slice}) over the concatenated steps;
    generate writes each task's episodes one after another."""
    spans, lo = {}, 0
    for ep in ds.episodes:
        start = spans[ep.task].start if ep.task in spans else lo
        lo += len(ep.actions)
        spans[ep.task] = slice(start, lo)
    return (np.concatenate([ep.actions for ep in ds.episodes]),
            np.concatenate([np.broadcast_to(ep.q, (len(ep.actions), 3, 3))
                            for ep in ds.episodes]),
            spans)


def test_world_vs_canonical_stats_direction():
    ds = synthgym.generate(synthgym.default_templates(), 40, seed=8)
    stats = synthgym.world_vs_canonical_stats(*per_step(ds))
    w = stats["world"]["summary"]
    c = stats["canonical"]["summary"]
    assert c["effective_rank"]["mean"] < w["effective_rank"]["mean"]
    assert c["pca_top3_ev"]["mean"] > w["pca_top3_ev"]["mean"]


def test_world_equals_canonical_without_randomization():
    ds = synthgym.generate(synthgym.default_templates(), 10, seed=9,
                           frame_randomize=False)
    stats = synthgym.world_vs_canonical_stats(*per_step(ds))
    for metric in ("effective_rank", "pca_top3_ev", "covariance_trace"):
        assert stats["world"]["summary"][metric]["mean"] == pytest.approx(
            stats["canonical"]["summary"][metric]["mean"], rel=1e-12)


def test_jsonl_roundtrip(tmp_path):
    ds = synthgym.generate(synthgym.default_templates(), 3, seed=10)
    path = tmp_path / "data.jsonl"
    synthgym.save_jsonl(ds, str(path))
    loaded = synthgym.load_jsonl(str(path))
    assert loaded.task_names == ds.task_names
    assert len(loaded.episodes) == len(ds.episodes)
    for a, b in zip(ds.episodes, loaded.episodes):
        assert a.task == b.task
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.obs, b.obs)
        assert np.abs(a.q - b.q).max() < 1e-12
        # one batched decode gives each row's own decode, bit for bit
        assert np.array_equal(b.q, so3.decode_6d(so3.encode_6d(a.q)))


def test_jsonl_crash_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "data.jsonl"
    synthgym.save_jsonl(synthgym.generate(synthgym.default_templates(), 2, seed=11),
                        str(path))
    before = path.read_bytes()
    other = synthgym.generate(synthgym.default_templates(), 2, seed=12)

    class DiskFull:
        """A file whose second write stores a prefix of the text, then fails."""

        def __init__(self, f):
            self.f = f
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.writes += 1
            if self.writes == 2:
                self.f.write(text[:32])
                raise OSError(28, "No space left on device")
            return self.f.write(text)

    real_open = open
    monkeypatch.setattr(store, "open", lambda p, mode="r": DiskFull(real_open(p, mode)),
                        raising=False)
    with pytest.raises(OSError):
        synthgym.save_jsonl(other, str(path))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not os.path.exists(f"{path}.tmp")


def reference_jsonl(dataset):
    """The JSONL text as json.dumps writes each episode's document."""
    return "".join(json.dumps({
        "schema_version": synthgym.SCHEMA_VERSION,
        "task": ep.task,
        "q_6d": so3.encode_6d(ep.q).tolist(),
        "steps": [{"obs": o.tolist(), "action": a.tolist()}
                  for o, a in zip(ep.obs, ep.actions)],
    }) + "\n" for ep in dataset.episodes).encode()


def assert_writes_reference(dataset, path):
    synthgym.save_jsonl(dataset, str(path))
    assert path.read_bytes() == reference_jsonl(dataset)


@pytest.mark.parametrize("kwargs", [
    {}, {"noise_scale": 0.0}, {"frame_randomize": False},
], ids=["default_noise", "no_noise", "no_randomize"])
def test_jsonl_bytes_match_json_dumps(tmp_path, kwargs):
    ds = synthgym.generate(synthgym.default_templates(), 9, seed=13, **kwargs)
    assert_writes_reference(ds, tmp_path / "data.jsonl")


def odd_episode(task, n_steps, seed):
    """An episode whose arrays hold the floats json spells unusually."""
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(n_steps, 12))
    actions = rng.normal(size=(n_steps, 7))
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e16, 0.1 + 0.2, np.nan,
               np.inf, -np.inf, 1.0, -1.0]
    obs[0] = special
    actions[-1] = special[-7:]
    return synthgym.Episode(task, 0, so3.random_rotation(rng), obs, actions)


def test_jsonl_bytes_match_json_dumps_special_floats(tmp_path):
    ds = synthgym.Dataset([odd_episode('say "h\u00e9"', 5, 0),
                           odd_episode("x", 1, 1), odd_episode("x", 17, 2)],
                          ['say "h\u00e9"', "x"])
    assert_writes_reference(ds, tmp_path / "data.jsonl")
    assert b'"obs": [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e+16, 0.30000000000000004, ' \
        b'NaN, Infinity, -Infinity, 1.0, -1.0]' in (tmp_path / "data.jsonl").read_bytes()


@pytest.mark.parametrize("shift, times", [(-1, 1), (0, 1), (1, 1), (3, 2), (0, 0)],
                         ids=["batch-1", "batch", "batch+1", "2batch+3", "empty"])
def test_jsonl_bytes_match_json_dumps_at_batch_edges(tmp_path, shift, times):
    n = times * synthgym._BATCH + shift if times else 0
    ds = synthgym.Dataset([odd_episode(f"t{i % 3}", 1 + i % 5, i) for i in range(n)],
                          [f"t{i}" for i in range(min(n, 3))])
    assert_writes_reference(ds, tmp_path / "data.jsonl")
    if not n:
        assert (tmp_path / "data.jsonl").read_bytes() == b""


def test_jsonl_reload_is_bitwise(tmp_path):
    ds = synthgym.generate(synthgym.default_templates(0.03), 4, seed=14, noise_scale=0.0,
                           frame_randomize=False)
    path = tmp_path / "data.jsonl"
    assert_writes_reference(ds, path)
    loaded = synthgym.load_jsonl(str(path))
    for a, b in zip(ds.episodes, loaded.episodes, strict=True):
        for x, y in ((a.obs, b.obs), (a.actions, b.actions), (a.q, b.q)):
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_jsonl_rejects_unequal_obs_widths(tmp_path):
    eps = [odd_episode("x", 3, i) for i in range(4)]
    eps[2].obs = eps[2].obs[:, :3]
    eps[3].obs = eps[3].obs[:, :5]
    path = tmp_path / "data.jsonl"
    with pytest.raises(ValueError, match="episode 2: obs width 3"):
        synthgym.save_jsonl(synthgym.Dataset(eps, ["x"]), str(path))
    assert not path.exists() and not os.path.exists(f"{path}.tmp")


def test_jsonl_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema_version": 99, "task": "x", "q_6d": [], "steps": []}\n')
    with pytest.raises(ValueError):
        synthgym.load_jsonl(str(path))


def test_generate_requires_templates():
    with pytest.raises(ValueError):
        synthgym.generate([], 3)


def test_generate_requires_episodes():
    with pytest.raises(ValueError, match="one episode per task"):
        synthgym.generate(synthgym.default_templates(), 0)


@pytest.mark.parametrize("shape", [(7, 3), (40, 2, 30, 3)])
def test_bounded_noise_is_bitwise_numpy_norm(shape):
    # the numpy form the component sums replaced
    def reference(noise, scale):
        norms = np.linalg.norm(noise, axis=-1, keepdims=True)
        return np.where(norms > scale, noise * (scale / np.maximum(norms, 1e-300)),
                        noise)

    noise = np.random.default_rng(shape[0]).normal(0.0, 0.4, shape)
    noise.flat[::5] = -0.0
    noise.reshape(-1, 3)[:2] = [[0.0, -0.0, 0.0], [1.0, -0.0, 0.0]]
    assert (synthgym._bounded_noise(noise, 1.0).tobytes()
            == reference(noise, 1.0).tobytes())
