"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion. The trained-model
criteria share module-scoped fixtures (one full training run, one
frozen-identity run, one reduced-budget ablation suite) so the whole gate
stays within a desk-scale time budget.
"""

import statistics
import time

import numpy as np
import pytest

from mcfproto import autodiff as ad
from mcfproto import cli, config, diagnostics, head, so3, synthgym, theoremlab, trainer

pytestmark = pytest.mark.slow


def report(tag, ok, detail=""):
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag} failed: {detail}"


# ---------------------------------------------------------------------------
# shared trained artifacts
# ---------------------------------------------------------------------------

TRAIN_EPISODES = 200
HELD_EPISODES = 40
TRAIN_STEPS = 20000
DIAGNOSTICS = config.default_config()["diagnostics"]


@pytest.fixture(scope="module")
def datasets():
    templates = synthgym.default_templates()
    train = synthgym.generate(templates, TRAIN_EPISODES, seed=0)
    held = synthgym.generate(templates, HELD_EPISODES, seed=999)
    return train, held


@pytest.fixture(scope="module")
def trained(datasets):
    train_ds, _ = datasets
    hc = head.HeadConfig()
    tc = config.TrainConfig(steps=TRAIN_STEPS, warmup=500, eval_interval=2000)
    t0 = time.time()
    params, _, best = trainer.train(train_ds, hc, tc)
    return {"params": params, "config": hc, "best": best,
            "train_seconds": time.time() - t0}


@pytest.fixture(scope="module")
def identity_trained(datasets):
    train_ds, _ = datasets
    hc = head.HeadConfig(learn_frame=False)
    tc = config.TrainConfig(steps=TRAIN_STEPS, warmup=500, eval_interval=2000)
    params, _, _ = trainer.train(train_ds, hc, tc)
    return {"params": params, "config": hc}


@pytest.fixture(scope="module")
def held_report(datasets, trained):
    _, held = datasets
    t0 = time.time()
    report = diagnostics.diagnose(held, trained["params"], trained["config"],
                                  DIAGNOSTICS)
    report["diagnose_seconds"] = time.time() - t0
    return report


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_ac1_rotation_validity():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(10 ** 4, 6))
    t0 = time.time()
    R = so3.decode_6d(p)
    elapsed = time.time() - t0
    eye = np.eye(3)
    orth = np.linalg.norm(
        np.einsum("nij,nik->njk", R, R) - eye, axis=(1, 2))
    dets = np.linalg.det(R)
    ok = (orth.max() < 1e-9 and np.abs(dets - 1.0).max() < 1e-9
          and elapsed < 1.0)
    report("AC1", ok,
           f"max ||R^T R - I|| {orth.max():.2e}, max |det-1| "
           f"{np.abs(dets - 1.0).max():.2e}, {elapsed:.2f}s")


def test_ac2_gradcheck_full_objective():
    hc = head.HeadConfig()
    params = head.init_params(hc, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    obs = rng.normal(size=(2, hc.obs_dim))
    targets = rng.normal(size=(2, hc.horizon, 7)) * 0.05

    def loss_fn():
        total, _, kinks, grad = head.loss_total(obs, targets, params, hc)
        return total, kinks, grad

    t0 = time.time()
    rep = ad.gradcheck(params, loss_fn, step=1e-5, rtol=1e-4)
    elapsed = time.time() - t0
    ok = rep["__pass__"] and elapsed < 120.0
    report("AC2", ok, f"max rel err {rep['__max__']:.2e} over all parameter "
           f"tensors, {elapsed:.1f}s")


def _independent_gram_descent(k, n, seed=0, iters=6000, lr=0.01):
    # dictionary-only oracle: plain numpy gradient descent on
    # ||B B^T - I_K||_F^2 for B (K, n); gradient is 4 (B B^T - I) B
    rng = np.random.default_rng(seed)
    B = rng.normal(0.0, 1.0 / np.sqrt(n), (k, n))
    for _ in range(iters):
        G = B @ B.T - np.eye(k)
        B -= lr * 4.0 * G @ B
    return float(np.sum((B @ B.T - np.eye(k)) ** 2))


def test_ac3_loss_unit_values():
    checks = []
    # smoothness 1 - cos(theta) at 0/90/180 degrees
    r0 = np.broadcast_to(np.eye(3), (1, 2, 3, 3)).copy()
    checks.append(abs(head.loss_smooth_chunk(r0)[0]) < 1e-12)
    for angle, want in ((np.pi / 2, 1.0), (np.pi, 2.0)):
        seq = np.broadcast_to(np.eye(3), (1, 2, 3, 3)).copy()
        seq[0, 1] = so3.axis_angle_to_rotation(np.array([0.0, 0.0, angle]))
        checks.append(abs(head.loss_smooth_chunk(seq)[0] - want) < 1e-12)
    # smooth-l1 at 0.5 with beta 1
    sl = ad.smooth_l1_loss(ad.constant([0.5]), [0.0], beta=1.0).value
    checks.append(abs(sl - 0.125) < 1e-15)
    # orthogonality penalty: 0 at orthonormal prototypes
    D = np.zeros((4, 3, 3))
    for k in range(4):
        D[k, k // 3, k % 3] = 1.0
    zero_val = head.loss_ortho([D, D])[0]
    checks.append(abs(zero_val) < 1e-15)
    # tight-frame floor K - 3d = 7 for K=16, d=3, via independent descent
    floor = _independent_gram_descent(16, 9)
    checks.append(abs(floor - 7.0) <= 1e-3)
    report("AC3", all(checks),
           f"smoothness 0/1/2 exact, smooth-l1(0.5)=0.125, ortho floor "
           f"{floor:.6f} (target 7 +- 1e-3)")


def test_ac4_eigenframe_proposition():
    t0 = time.time()
    res = theoremlab.verify(dim=3, trials=20, seed=0, mc_samples=10 ** 5,
                            restarts=8)
    # majorization bulk: 10^4 random (sigma, R) pairs
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    violations = 0
    for _ in range(10 ** 4):
        sigma = theoremlab.random_spd(rng, 3)
        R = so3.random_rotation(rng)
        if not theoremlab.majorization_check(sigma, R)["pass"]:
            violations += 1
    elapsed = time.time() - t0
    worst_angle = max(c["minimization"]["max_angle_deg"] for c in res["checks"])
    ok = res["pass"] and violations == 0 and elapsed < 300.0
    z_mc = statistics.NormalDist().inv_cdf(1 - 1e-6 / (2 * 20))  # verify's bound
    report("AC4", ok,
           f"20 trials MC-vs-closed within {z_mc:.2f} s.e., minimize within 1e-6 "
           f"(worst axis angle {worst_angle:.4f} deg), majorization "
           f"violations {violations}/10000, {elapsed:.0f}s")


def test_ac5_local_concentration(trained, held_report):
    cw = held_report["concentration"]["world"]["summary"]
    cl = held_report["concentration"]["learned_local"]["summary"]
    er_w = cw["effective_rank"]["mean"]
    er_l = cl["effective_rank"]["mean"]
    ev_w = cw["pca_top3_ev"]["mean"]
    ev_l = cl["pca_top3_ev"]["mean"]
    pd_w = cw["avg_pairwise_distance"]["mean"]
    pd_l = cl["avg_pairwise_distance"]["mean"]
    total_seconds = trained["train_seconds"] + held_report["diagnose_seconds"]
    ok = (er_l <= 0.95 * er_w and ev_l >= 1.05 * ev_w
          and pd_l <= 0.95 * pd_w and total_seconds < 1800.0)
    report("AC5", ok,
           f"eff rank {er_w:.2f}->{er_l:.2f}, top3 EV {ev_w:.3f}->{ev_l:.3f}, "
           f"pairwise {pd_w:.4f}->{pd_l:.4f}, train+diagnose {total_seconds:.0f}s")


def test_ac6_compatibility(datasets, identity_trained, held_report):
    _, held = datasets
    learned = held_report["compatibility"]["learned"]
    baseline = diagnostics.RANDOM_BASELINE_DEG
    identity = diagnostics.diagnose(
        held, identity_trained["params"], identity_trained["config"],
        DIAGNOSTICS)["compatibility"]["learned"]
    mean = learned["overall_mean_deg"]
    ok = (mean <= baseline - 15.0
          and mean < identity["overall_mean_deg"])
    report("AC6", ok,
           f"learned {mean:.1f} deg vs random baseline {baseline:.1f} deg "
           f"(need <= {baseline - 15.0:.1f}) and identity-frame model "
           f"{identity['overall_mean_deg']:.1f} deg")


@pytest.fixture(scope="module")
def ablation(datasets):
    # reduced budget: ordering is the criterion, not absolute loss values
    templates = synthgym.default_templates()
    small = synthgym.generate(templates, 60, seed=0)
    hc = head.HeadConfig()
    tc = config.TrainConfig(steps=3000, warmup=200, eval_interval=500)
    return trainer.ablation_suite(small, hc, tc, seeds=(0, 1, 2))


def test_ac7_ablation_ordering(ablation):
    means = {r["row"]: r["mean"] for r in ablation}
    assert all(v is not None for v in means.values())

    def leq(a, b):  # a at or below b, ties within 1%
        return means[a] <= means[b] * 1.01

    ok = (leq("mcf-proto-full", "mcf-only")
          and leq("mcf-proto-full", "world-proto")
          and leq("mcf-only", "bc-mlp")
          and leq("world-proto", "bc-mlp"))
    detail = ", ".join(f"{k} {v:.4f}" for k, v in means.items())
    report("AC7", ok, detail)


def test_ac8_gating_and_phases(held_report):
    usage = held_report["usage_matrix"]
    ent = diagnostics.row_entropy(usage["rot"])
    by_task = dict(zip(usage["tasks"], ent))
    knob = by_task["knob-turn"]
    others = [v for t, v in by_task.items() if t != "knob-turn"]
    minimal = all(knob < v for v in others)

    timeline = held_report["axis_timelines"]["insert"]
    phases = diagnostics.dominant_axis_phases(timeline["trans"])
    distinct = len({p[0] for p in phases})
    ok = minimal and distinct >= 2
    report("AC8", ok,
           f"rot-dict entropy knob-turn {knob:.3f} vs others "
           f"{[round(v, 3) for v in others]}, insert phases {phases}")


def test_ac9_determinism(tmp_path):
    import json

    cfg = {
        "gym": {"episodes_per_task": 6},
        "head": {"hidden": 16, "k_trans": 4, "k_rot": 4, "horizon": 3},
        "train": {"steps": 60, "warmup": 10, "batch_size": 16,
                  "eval_interval": 20},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "data.jsonl"
    assert cli.main(["gen-data", "--config", str(cfg_path),
                     "--out", str(data)]) == 0
    outs = []
    for tag in ("a", "b"):
        run_dir = tmp_path / f"run_{tag}"
        diag_dir = tmp_path / f"diag_{tag}"
        resolved = (tmp_path / "run_a" / "config.resolved.json"
                    if tag == "b" else cfg_path)
        assert cli.main(["train", "--data", str(data), "--config",
                         str(resolved), "--out", str(run_dir)]) == 0
        assert cli.main(["diagnose", "--data", str(data),
                         "--ckpt", str(run_dir / "ckpt_final.json"),
                         "--config", str(resolved),
                         "--out", str(diag_dir)]) == 0
        outs.append((run_dir, diag_dir))
    mismatches = []
    for name in ("metrics.csv", "ckpt_final.json", "ckpt_best.json"):
        if (outs[0][0] / name).read_bytes() != (outs[1][0] / name).read_bytes():
            mismatches.append(name)
    for name in ("concentration.csv", "compatibility.csv", "usage_matrix.csv",
                 "axis_timeline.csv", "report.json"):
        if (outs[0][1] / name).read_bytes() != (outs[1][1] / name).read_bytes():
            mismatches.append(name)
    # dataset regeneration from the resolved gen config
    data2 = tmp_path / "data2.jsonl"
    assert cli.main(["gen-data", "--config",
                     str(tmp_path / "data.jsonl.config.json"),
                     "--out", str(data2)]) == 0
    if data.read_bytes() != data2.read_bytes():
        mismatches.append("data.jsonl")
    report("AC9", not mismatches, f"bitwise mismatches: {mismatches or 'none'}")
