import weakref

import numpy as np
import pytest

from mcfproto import diagnostics, head, kernels, so3, synthgym


def test_concentration_isotropic():
    rng = np.random.default_rng(0)
    stats = diagnostics.concentration({"iso": rng.normal(size=(20000, 6))})
    t = stats["per_task"]["iso"]
    assert t["effective_rank"] == pytest.approx(6.0, abs=0.05)
    assert t["pca_top3_ev"] == pytest.approx(0.5, abs=0.02)
    assert t["covariance_trace"] == pytest.approx(6.0, abs=0.2)


def test_concentration_rank_one():
    rng = np.random.default_rng(1)
    actions = np.zeros((500, 6))
    actions[:, 2] = rng.normal(size=500)
    t = diagnostics.concentration({"line": actions})["per_task"]["line"]
    assert t["effective_rank"] == pytest.approx(1.0)
    assert t["pca_top3_ev"] == pytest.approx(1.0)


def test_concentration_degenerate_identical():
    t = diagnostics.concentration(
        {"const": np.ones((10, 6))})["per_task"]["const"]
    assert t["effective_rank"] == 1.0
    assert t["pca_top3_ev"] == 1.0
    assert t["covariance_trace"] == 0.0
    assert t["avg_pairwise_distance"] == 0.0
    assert tuple(t) == diagnostics.CONCENTRATION_METRICS


def test_concentration_requires_two_actions():
    with pytest.raises(ValueError):
        diagnostics.concentration({"one": np.ones((1, 6))})


def test_concentration_summary_mean_std():
    rng = np.random.default_rng(2)
    stats = diagnostics.concentration({
        "a": rng.normal(size=(100, 6)),
        "b": rng.normal(size=(100, 6)) * 2,
    })
    assert tuple(stats["summary"]) == diagnostics.CONCENTRATION_METRICS
    assert tuple(stats["per_task"]["a"]) == diagnostics.CONCENTRATION_METRICS
    vals = [stats["per_task"][t]["covariance_trace"] for t in ("a", "b")]
    assert stats["summary"]["covariance_trace"]["mean"] == pytest.approx(np.mean(vals))
    assert stats["summary"]["covariance_trace"]["std"] == pytest.approx(np.std(vals))


def test_pairwise_distance_exact_small():
    actions = np.zeros((3, 6))
    actions[1, 0] = 3.0
    actions[2, 0] = 4.0
    t = diagnostics.concentration({"x": actions})["per_task"]["x"]
    assert t["avg_pairwise_distance"] == pytest.approx((3 + 4 + 1) / 3)


def brute_force_mean_distance(X):
    total = 0.0
    for i in range(len(X) - 1):
        total += np.linalg.norm(X[i + 1:] - X[i], axis=1).sum()
    return total / (len(X) * (len(X) - 1) / 2)


@pytest.mark.parametrize("n", sorted({2, 3, 127, 128, 129, 261, kernels._BLOCK - 1,
                                      kernels._BLOCK, kernels._BLOCK + 1,
                                      2 * kernels._BLOCK + 5}))
@pytest.mark.parametrize("data", ["gaussian", "offset", "duplicates"])
def test_pairwise_mean_distance_matches_brute_force(n, data):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 6)) * [1.0, 2.0, 0.5, 1e-3, 3.0, 1.0]
    if data == "offset":
        X += 1e6 * rng.normal(size=6)
    if data == "duplicates":  # each row twice: neighbours and across blocks
        half = X[:(n + 1) // 2]
        X = np.concatenate([half, half[::-1]])[:n]
        X[1::7] = X[0::7][:len(X[1::7])]
    got = kernels.pairwise_mean_distance(X)
    assert got == pytest.approx(brute_force_mean_distance(X), rel=1e-12, abs=0)


def test_local_actions_block_rotation():
    rng = np.random.default_rng(3)
    actions = rng.normal(size=(10, 7))
    frames = so3.random_rotation(rng, size=10)
    local = diagnostics.local_actions(actions, frames)
    for t in range(10):
        assert np.allclose(local[t, :3], frames[t].T @ actions[t, :3])
        assert np.allclose(local[t, 3:], frames[t].T @ actions[t, 3:6])
    # norms preserved blockwise
    assert np.allclose(np.linalg.norm(local[:, :3], axis=1),
                       np.linalg.norm(actions[:, :3], axis=1))


def test_local_actions_concentrate_under_true_frames():
    ds = synthgym.generate(synthgym.default_templates(), 30, seed=4)
    world, local = {}, {}
    for ep in ds.episodes:
        frames = np.broadcast_to(ep.q, (len(ep.actions), 3, 3))
        world.setdefault(ep.task, []).append(ep.actions[:, :6])
        local.setdefault(ep.task, []).append(
            diagnostics.local_actions(ep.actions, frames))
    cw = diagnostics.concentration({k: np.concatenate(v) for k, v in world.items()})
    cl = diagnostics.concentration({k: np.concatenate(v) for k, v in local.items()})
    assert (cl["summary"]["effective_rank"]["mean"]
            < cw["summary"]["effective_rank"]["mean"])
    assert (cl["summary"]["pca_top3_ev"]["mean"]
            > cw["summary"]["pca_top3_ev"]["mean"])


def test_compatibility_aligned_is_zero():
    frames = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
    trans = np.tile([0.05, 0.0, 0.0], (5, 1))
    rep = diagnostics.compatibility({"t": (trans, frames)})
    assert rep["per_task"]["t"]["mean_deg"] == pytest.approx(0.0)


def test_compatibility_45_degrees():
    frames = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
    d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    rep = diagnostics.compatibility({"t": (np.tile(0.05 * d, (4, 1)), frames)})
    assert rep["per_task"]["t"]["mean_deg"] == pytest.approx(45.0)


def test_compatibility_negative_direction_uses_unsigned_angle():
    frames = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
    trans = np.tile([-0.05, 0.0, 0.0], (3, 1))
    rep = diagnostics.compatibility({"t": (trans, frames)})
    assert rep["per_task"]["t"]["mean_deg"] == pytest.approx(0.0)


def test_compatibility_filters_small_steps():
    frames = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
    trans = np.array([[0.05, 0, 0], [0.05, 0, 0], [1e-6, 1e-6, 0], [0.05, 0, 0]])
    rep = diagnostics.compatibility({"t": (trans, frames)})
    assert rep["per_task"]["t"]["n_steps"] == 3


def test_compatibility_empty_task_reported():
    frames = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
    tiny = np.full((2, 3), 1e-9)
    big = np.tile([0.05, 0.0, 0.0], (2, 1))
    rep = diagnostics.compatibility({"tiny": (tiny, frames),
                                     "big": (big, frames)})
    assert rep["per_task"]["tiny"]["n_steps"] == 0
    assert rep["per_task"]["tiny"]["mean_deg"] is None
    assert rep["overall_mean_deg"] == pytest.approx(0.0)


def min_angle_quadrature(nodes):
    """E[arccos(max_i |v_i|)] in degrees for uniform v on S^2, by Gauss-Legendre
    over phi in [0, pi/4] of (12/pi) [sin t - t cos t], t = arctan(1 / cos phi)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi = np.pi / 8 * (x + 1)
    t = np.arctan(1 / np.cos(phi))
    return np.degrees(12 / np.pi * np.pi / 8 * (w @ (np.sin(t) - t * np.cos(t))))


def test_random_min_angle_baseline():
    exact = min_angle_quadrature(16)
    assert exact == pytest.approx(min_angle_quadrature(8), abs=1e-12)
    assert diagnostics.RANDOM_BASELINE_DEG == pytest.approx(exact, abs=1e-12)
    # the Monte-Carlo estimate within 4 standard errors; the per-sample
    # standard deviation from directions of another stream
    v = np.random.default_rng(8).normal(size=(100000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    sd = np.degrees(np.arccos(np.abs(v).max(axis=1))).std()
    n = 2 * 10**6
    assert abs(diagnostics.random_min_angle_mc(n) - exact) < 4 * sd / np.sqrt(n)
    # deterministic per seed
    assert diagnostics.random_min_angle_mc(1000, seed=5) == \
        diagnostics.random_min_angle_mc(1000, seed=5)


def test_random_frames_against_random_directions_match_baseline():
    rng = np.random.default_rng(6)
    frames = so3.random_rotation(rng, size=5000)
    d = rng.normal(size=(5000, 3))
    d = 0.05 * d / np.linalg.norm(d, axis=1, keepdims=True)
    rep = diagnostics.compatibility({"r": (d, frames)})
    assert rep["per_task"]["r"]["mean_deg"] == pytest.approx(31.9, abs=1.0)


def task_spans(ds):
    """{task: slice of the concatenated steps}; generate writes each task's
    episodes one after another."""
    spans, lo = {}, 0
    for ep in ds.episodes:
        start = spans[ep.task].start if ep.task in spans else lo
        lo += len(ep.obs)
        spans[ep.task] = slice(start, lo)
    return spans


def _tiny_model():
    cfg = head.HeadConfig(hidden=8, k_trans=4, k_rot=4, horizon=2)
    params = head.init_params(cfg, np.random.default_rng(7))
    return params, cfg


def test_predict_step_outputs_shapes():
    params, cfg = _tiny_model()
    obs = np.random.default_rng(8).normal(size=(9, cfg.obs_dim))
    out = diagnostics.predict_step_outputs(params, cfg, obs)
    assert out["frames"].shape == (9, 3, 3)
    assert out["gating_trans"].shape == (9, 4)


def test_predict_step_outputs_chunked_matches_per_episode():
    # more rows than one chunk and not a multiple of it; episode-sized pieces
    # as the reference, each one head forward
    cfg = head.HeadConfig()
    params = head.init_params(cfg, np.random.default_rng(10))
    n = 2 * diagnostics._CHUNK + 37
    obs = np.random.default_rng(11).normal(size=(n, cfg.obs_dim))
    out = diagnostics.predict_step_outputs(params, cfg, obs)
    for lo in range(0, n, 12):
        ref = head.head_forward(obs[lo:lo + 12], params, cfg)
        for key in ("frames", "gating_trans", "gating_rot"):
            want = getattr(ref, key).value[:, 0]
            assert out[key][lo:lo + 12] == pytest.approx(want, rel=0, abs=1e-14)


def test_diagnose_drops_each_array_after_its_last_reader(monkeypatch):
    # the step outputs are dead when the first concentration statistic
    # starts, and the local actions when the world statistics start; no
    # gc.collect() runs, so reference counting alone must free them
    params, cfg = _tiny_model()
    ds = synthgym.generate(synthgym.default_templates(), 2, seed=9)
    refs = {"predict_step_outputs": [], "local_actions": []}
    alive = {}  # per watched producer: its arrays alive when the reader started

    def watch(module, name, held=None, checks=None):
        fn = getattr(module, name)

        def watched(*args, **kwargs):
            if checks is not None and checks not in alive:
                alive[checks] = sum(ref() is not None for ref in refs[checks])
            result = fn(*args, **kwargs)
            if held is not None:
                refs[name] += map(weakref.ref, held(result))
            return result
        monkeypatch.setattr(module, name, watched)

    watch(diagnostics, "predict_step_outputs", held=lambda out: out.values())
    watch(diagnostics, "local_actions", held=lambda local: [local])
    watch(kernels, "pairwise_mean_distance", checks="predict_step_outputs")
    watch(synthgym, "world_vs_canonical_stats", checks="local_actions")
    diagnostics.diagnose(ds, params, cfg, {"time_bins": 4, "min_displacement": None})
    assert len(refs["predict_step_outputs"]) == 3 and refs["local_actions"]
    assert alive == {"predict_step_outputs": 0, "local_actions": 0}


def test_usage_matrix_simplex_rows():
    params, cfg = _tiny_model()
    ds = synthgym.generate(synthgym.default_templates(), 2, seed=9)
    outputs = diagnostics.predict_step_outputs(
        params, cfg, np.concatenate([ep.obs for ep in ds.episodes]))
    usage = diagnostics.usage_matrix(outputs, task_spans(ds))
    assert usage["trans"].shape == (5, 4)
    assert np.abs(usage["trans"].sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(usage["rot"].sum(axis=1) - 1.0).max() < 1e-9
    assert usage["tasks"] == ds.task_names


def test_row_entropy_values():
    rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
    ent = diagnostics.row_entropy(rows)
    assert ent[0] == pytest.approx(0.0, abs=1e-8)
    assert ent[1] == pytest.approx(np.log(4))


def test_axis_timeline_two_phase():
    # first half moves along x, second half along z
    local = np.zeros((20, 6))
    local[:10, 0] = 0.05
    local[10:, 2] = 0.05
    local[:10, 3] = 0.1
    local[10:, 5] = 0.1
    tl = diagnostics.axis_timeline(np.concatenate([local] * 3), [20] * 3,
                                   time_bins=10)
    assert np.allclose(tl["trans"][:5, 0], 1.0)
    assert np.allclose(tl["trans"][5:, 2], 1.0)
    phases = diagnostics.dominant_axis_phases(tl["trans"])
    assert len(phases) == 2
    assert phases[0][0] == 0 and phases[1][0] == 2
    assert phases[0][2] == 4 and phases[1][1] == 5


def test_axis_timeline_matches_step_loop():
    rng = np.random.default_rng(12)
    episodes = [rng.normal(size=(t, 6)) for t in (1, 3, 7, 10, 13, 25)]
    counts = np.zeros((2, 4, 3))
    for local in episodes:
        for i, row in enumerate(local):
            b = min(i * 4 // len(local), 3)
            counts[0, b, np.abs(row[:3]).argmax()] += 1
            counts[1, b, np.abs(row[3:]).argmax()] += 1
    want = counts / counts.sum(axis=2, keepdims=True)
    tl = diagnostics.axis_timeline(np.concatenate(episodes),
                                   [len(local) for local in episodes], time_bins=4)
    assert np.array_equal(tl["trans"], want[0])
    assert np.array_equal(tl["rot"], want[1])


def test_dominant_axis_phases_merging_and_threshold():
    tl = np.array([
        [0.9, 0.05, 0.05],
        [0.8, 0.1, 0.1],
        [0.4, 0.35, 0.25],   # no majority: gap
        [0.1, 0.1, 0.8],
        [0.2, 0.0, 0.8],
    ])
    phases = diagnostics.dominant_axis_phases(tl)
    assert phases == [(0, 0, 1), (2, 3, 4)]
