"""Correctness checks on the outputs of one benchmark run.

Each check recomputes in plain numpy, apart from the program, what it can,
and tests the properties the method must have for the rest. A failed check
raises CheckFailed naming what was wrong.
"""

import csv
import json
import math
import os

import numpy as np

TOL = 1e-9
COMPAT_MAX_DEG = math.degrees(math.acos(1.0 / math.sqrt(3.0)))
MC_STDERRS = 4.0


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def read_dataset(path):
    """Episodes of a JSONL dataset as dicts of numpy arrays."""
    episodes = []
    with open(path) as f:
        for line in f:
            if line.strip():
                doc = json.loads(line)
                episodes.append({
                    "task": doc["task"],
                    "q6": np.array(doc["q_6d"], dtype=float),
                    "obs": np.array([s["obs"] for s in doc["steps"]], dtype=float),
                    "actions": np.array([s["action"] for s in doc["steps"]],
                                        dtype=float),
                })
    require(episodes, f"{path} holds no episodes")
    return episodes


def task_names(episodes):
    return list(dict.fromkeys(ep["task"] for ep in episodes))


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def frame_from_6d(p):
    """Columns (b1, b2, b1 x b2) of the Gram-Schmidt decode of (..., 6)."""
    a1, a2 = p[..., :3], p[..., 3:]
    b1 = a1 / np.linalg.norm(a1, axis=-1, keepdims=True)
    c2 = a2 - (b1 * a2).sum(axis=-1, keepdims=True) * b1
    b2 = c2 / np.linalg.norm(c2, axis=-1, keepdims=True)
    return np.stack([b1, b2, np.cross(b1, b2)], axis=-1)


def check_rotations(R, what):
    R = np.asarray(R, dtype=float)
    require(R.shape[-2:] == (3, 3), f"{what}: shape {R.shape} is not (..., 3, 3)")
    ortho = np.linalg.norm(np.swapaxes(R, -1, -2) @ R - np.eye(3), axis=(-2, -1))
    det = np.abs(np.linalg.det(R) - 1.0)
    require(np.all(ortho < TOL), f"{what}: max |R^T R - I| = {ortho.max():.3e}")
    require(np.all(det < TOL), f"{what}: max |det R - 1| = {det.max():.3e}")


def check_close(actual, expected, what, rel=TOL):
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    err = np.max(np.abs(actual - expected)) if actual.size else 0.0
    scale = max(1.0, float(np.max(np.abs(expected)))) if expected.size else 1.0
    require(actual.shape == expected.shape and err <= rel * scale,
            f"{what}: differs by {err:.3e} (tolerance {rel * scale:.1e})")


def ok_rounds(rounds):
    return [r for r in rounds if all(op["rc"] == 0 for op in r["ops"])]


def check_same_outputs(rounds):
    """Every round whose commands all succeeded wrote bitwise-equal outputs."""
    hashes = [r["hashes"] for r in ok_rounds(rounds)]
    for path, digest in (hashes[0].items() if hashes else ()):
        require(digest is not None, f"{path} was not written")
        require(all(h[path] == digest for h in hashes),
                f"{path} differs between rounds with the same inputs")


# ---------------------------------------------------------------------------
# train: a plain-numpy head, the split and the action loss
# ---------------------------------------------------------------------------

def chunks(episodes, horizon):
    """One chunk per step: obs at t, actions t..t+H-1, last action repeated."""
    obs, targets = [], []
    for ep in episodes:
        acts = ep["actions"]
        padded = np.concatenate([acts, np.repeat(acts[-1:], horizon, axis=0)])
        obs.append(ep["obs"])
        targets.append(np.stack([padded[t:t + horizon] for t in range(len(acts))]))
    return np.concatenate(obs), np.concatenate(targets)


def val_split(episodes, val_fraction, seed):
    """Stratified episode split of the trainer, keyed by the training seed."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xDA7A]))
    val = []
    for task in task_names(episodes):
        eps = [ep for ep in episodes if ep["task"] == task]
        perm = rng.permutation(len(eps))
        n_val = max(1, int(round(val_fraction * len(eps)))) if len(eps) > 1 else 0
        val += [eps[j] for j in perm[:n_val]]
    return val


def reference_forward(params, config, obs):
    """World actions (B, H, 7) and frames (B, H, 3, 3) of the head."""
    p = params
    batch, horizon, d = len(obs), config["horizon"], config["d"]

    def dense(x, name):
        return x @ p[f"{name}.w"].T + p[f"{name}.b"]

    h = np.tanh(obs @ p["enc.w1"].T + p["enc.b1"])
    h = np.tanh(h @ p["enc.w2"].T + p["enc.b2"])
    fh = np.tanh(h @ p["frame.w1"].T + p["frame.b1"])
    frames = frame_from_6d((fh @ p["frame.w2"].T + p["frame.b2"]).reshape(
        batch, horizon, 6))

    def composed(prefix, dictionary):
        k = dictionary.shape[0]
        logits = dense(h, f"gate_{prefix}").reshape(batch, horizon, k)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        pi = e / e.sum(axis=-1, keepdims=True)
        z = dense(h, f"scale_{prefix}").reshape(batch, horizon, d)
        mix = (pi @ dictionary.reshape(k, 3 * d)).reshape(batch, horizon, 3, d)
        local = (mix @ z[..., None])[..., 0]
        return (frames @ local[..., None])[..., 0]

    world = np.concatenate([
        composed("t", p["dict_trans"]),
        composed("r", p["dict_rot"]),
        dense(h, "rest").reshape(batch, horizon, -1),
    ], axis=-1)
    return world, frames


def action_loss(world, targets, beta):
    """Mean per chunk step of L1 (translation, gripper) + Smooth-L1 (rotation)."""
    r = world - targets
    a = np.abs(r[..., 3:6])
    smooth = np.where(a < beta, 0.5 * r[..., 3:6] ** 2 / beta, a - 0.5 * beta)
    total = np.abs(r[..., :3]).sum() + np.abs(r[..., 6:]).sum() + smooth.sum()
    return total / (targets.shape[0] * targets.shape[1])


def check_train(files, rounds, program_forward):
    """files: data, run_dir, ckpt_steps; program_forward(ckpt, obs) returns the
    program's (world actions, frames)."""
    vals = [op["out"].split("best val_loss_act ")[-1].split()[0]
            for r in ok_rounds(rounds) for op in r["ops"]]
    require(len(set(vals)) == 1, f"val_loss_act differs between runs: {set(vals)}")

    run_dir = files["run_dir"]
    for step in files["ckpt_steps"]:
        require(os.path.exists(f"{run_dir}/ckpt_{step}.json"),
                f"periodic checkpoint ckpt_{step}.json was not written")
        with open(f"{run_dir}/ckpt_{step}.json") as f:
            require(json.load(f)["extra"]["step"] == step,
                    f"ckpt_{step}.json does not hold step {step}")
    with open(f"{run_dir}/ckpt_best.json") as f:
        best = json.load(f)
    config = best["config"]
    require(config["learn_frame"] and config["k_trans"] > 1 and config["k_rot"] > 1,
            "the reference head covers the full head with learned frames only")
    params = {k: np.array(v, dtype=float) for k, v in best["params"].items()}
    best_val = best["extra"]["best_val"]
    require(repr(best_val) == vals[0], "printed val_loss_act is not ckpt_best's")
    first = read_csv(f"{run_dir}/metrics.csv")[0]
    init_loss = float(first["loss_act"])
    require(math.isfinite(best_val) and best_val < init_loss,
            f"val_loss_act {best_val} is not finite and below the untrained "
            f"loss {init_loss}")

    episodes = read_dataset(files["data"])
    with open(f"{run_dir}/config.resolved.json") as f:
        train_cfg = json.load(f)["train"]
    obs, _ = chunks(episodes, config["horizon"])
    world, _ = reference_forward(params, config, obs)
    program_world, program_frames = program_forward(f"{run_dir}/ckpt_best.json", obs)
    check_close(program_world, world, "world actions of ckpt_best.json")
    check_rotations(program_frames, "frames predicted by ckpt_best.json")
    val_obs, val_targets = chunks(
        val_split(episodes, train_cfg["val_fraction"], train_cfg["seed"]),
        config["horizon"])
    val_world, _ = reference_forward(params, config, val_obs)
    check_close(best_val, action_loss(val_world, val_targets, config["beta"]),
                "validation action loss of ckpt_best.json")
    return {"val_loss_act": best_val}


# ---------------------------------------------------------------------------
# analyze: dataset properties and recomputed diagnostics
# ---------------------------------------------------------------------------

def check_dataset(path, max_step):
    episodes = read_dataset(path)
    q6 = np.stack([ep["q6"] for ep in episodes])
    a1, a2 = q6[:, :3], q6[:, 3:]
    require(np.all(np.abs(np.linalg.norm(a1, axis=1) - 1) < TOL)
            and np.all(np.abs(np.linalg.norm(a2, axis=1) - 1) < TOL)
            and np.all(np.abs((a1 * a2).sum(axis=1)) < TOL),
            "a scene rotation's stored columns are not orthonormal")
    check_rotations(frame_from_6d(q6), "scene rotations")
    for ep in episodes:
        require(np.all(ep["obs"][:, :6] == ep["q6"]),
                "observations do not expose the episode's scene rotation")
    norms = np.concatenate([np.linalg.norm(ep["actions"][:, :3], axis=1)
                            for ep in episodes])
    require(np.all(norms <= max_step),
            f"a step translates {norms.max()!r}, more than max_step {max_step}")
    return episodes


def ground_truth_compat(episodes):
    """Mean angle (deg) per task between displacements and scene axes."""
    trans = [ep["actions"][:, :3] for ep in episodes]
    min_disp = 0.1 * np.median(np.linalg.norm(np.concatenate(trans), axis=1))
    angles = {}
    for ep, t in zip(episodes, trans):
        n = np.linalg.norm(t, axis=1)
        v = t[n >= min_disp] / n[n >= min_disp, None]
        dots = np.abs(v @ frame_from_6d(ep["q6"])).max(axis=1)
        angles.setdefault(ep["task"], []).append(
            np.degrees(np.arccos(np.clip(dots, 0.0, 1.0))))
    return {task: np.concatenate(a).mean() for task, a in angles.items()}


def check_analyze(files, rounds):
    """files: data, diag_dir, max_step."""
    episodes = check_dataset(files["data"], files["max_step"])
    diag = files["diag_dir"]

    for row in read_csv(f"{diag}/usage_matrix.csv"):
        p = np.array([float(v) for k, v in row.items() if k.startswith("proto_")])
        require(np.all(p >= 0) and abs(p.sum() - 1) < TOL,
                f"gating row {row['dictionary']}/{row['task']} sums to {p.sum()!r}")
    for row in read_csv(f"{diag}/axis_timeline.csv"):
        p = np.array([float(row[k]) for k in "xyz"])
        require(np.all(p >= 0) and abs(p.sum() - 1) < TOL,
                f"timeline row {row['task']}/{row['block']}/{row['bin']} sums to "
                f"{p.sum()!r}")

    compat = read_csv(f"{diag}/compatibility.csv")
    for row in compat:
        if row["mean_deg"]:
            mean = float(row["mean_deg"])
            require(0.0 <= mean <= COMPAT_MAX_DEG,
                    f"compatibility mean {mean} of {row['frames']}/{row['task']} is "
                    f"outside [0, {COMPAT_MAX_DEG:.4f}] deg")
    gt = {r["task"]: float(r["mean_deg"]) for r in compat
          if r["frames"] == "ground_truth"}
    expected = ground_truth_compat(episodes)
    require(set(gt) == set(expected), "compatibility.csv tasks differ from the data")
    for task, mean in expected.items():
        check_close(gt[task], mean, f"ground-truth compatibility of {task}")

    traces = {r["task"]: float(r["covariance_trace"])
              for r in read_csv(f"{diag}/concentration.csv")
              if r["frame"] == "world" and not r["task"].startswith("__")}
    require(set(traces) == set(task_names(episodes)),
            "concentration.csv tasks differ from the data")
    for task in traces:
        world = np.concatenate([ep["actions"][:, :6] for ep in episodes
                                if ep["task"] == task])
        check_close(traces[task], world.var(axis=0, ddof=1).sum(),
                    f"world covariance trace of {task}")
    return {}


# ---------------------------------------------------------------------------
# theorem
# ---------------------------------------------------------------------------

def check_theorem(files, rounds):
    """files: report, trials."""
    with open(files["report"]) as f:
        report = json.load(f)
    require(len(report["checks"]) == files["trials"],
            f"report holds {len(report['checks'])} trials, not {files['trials']}")
    for c in report["checks"]:
        mc, opt = c["mc_vs_closed"], c["minimization"]
        j_min = opt["j_analytic"]
        require(mc["closed"] >= j_min * (1 - TOL),
                f"trial {c['trial']}: J(R) = {mc['closed']} is below the "
                f"minimum {j_min}")
        require(abs(opt["j_star"] - j_min) <= 1e-6 * j_min,
                f"trial {c['trial']}: j_star {opt['j_star']} is not within 1e-6 "
                f"of {j_min}")
        require(abs(mc["mc"] - mc["closed"]) <= MC_STDERRS * mc["stderr"],
                f"trial {c['trial']}: Monte Carlo {mc['mc']} is more than "
                f"{MC_STDERRS} standard errors from {mc['closed']}")
    return {}
