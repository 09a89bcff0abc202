"""Structural diagnostics over world- or local-frame actions.

Four families: task-wise action concentration statistics, axis-motion
compatibility angles, prototype-usage matrices, and dominant-axis
timelines. All functions are pure over immutable inputs; the model enters
only through forward passes on frozen weights. `diagnose` computes all four
on one layout of a dataset's steps: the episodes in task order, their steps
concatenated, so each task is one slice (a span) of every per-step array.
"""

import numpy as np

from . import head as head_mod
from . import kernels, linalg, synthgym

# Rows per head forward: the fastest of 64-2048 on 2 vCPUs with one BLAS
# thread, and well under 1 MB of forward arrays.
_CHUNK = 256

# E[arccos(max_i |v_i|)] in degrees for v uniform on S^2, the mean compatibility
# angle against Haar-random frames: exact by a 1-D quadrature (README).
RANDOM_BASELINE_DEG = 31.90106617358561


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------

# concentration's statistics, in the order concentration.csv prints them
CONCENTRATION_METRICS = ("covariance_trace", "avg_pairwise_distance", "pca_top3_ev",
                         "effective_rank")


def _spectrum(actions):
    cov = linalg.covariance(actions)
    lam = np.maximum(linalg.sym_eigen(cov).values, 0.0)
    return cov, lam


def _effective_rank(lam):
    """exp of the entropy of the spectrum lam, whose sum is > 0."""
    p = lam / lam.sum()
    p = p[p > 0]
    return float(np.exp(-(p * np.log(p)).sum()))


def concentration(actions_by_task):
    """Task-wise concentration statistics over 6-dim action vectors.

    actions_by_task: {task: (N, 6) array}, N >= 2 per task. Returns per-task
    values plus mean/std across tasks for each of: covariance trace, average
    pairwise distance, top-3 explained variance, effective rank.
    """
    per_task = {}
    for task, actions in actions_by_task.items():
        actions = np.asarray(actions, dtype=float)
        if actions.shape[0] < 2:
            raise ValueError(f"task {task!r} needs at least 2 actions")
        cov, lam = _spectrum(actions)
        total = lam.sum()
        if total <= 0:
            per_task[task] = {
                "covariance_trace": 0.0,
                "avg_pairwise_distance": 0.0,
                "pca_top3_ev": 1.0,
                "effective_rank": 1.0,
            }
            continue
        per_task[task] = {
            "covariance_trace": float(np.trace(cov)),
            "avg_pairwise_distance": float(kernels.pairwise_mean_distance(actions)),
            "pca_top3_ev": float(lam[:3].sum() / total),
            "effective_rank": _effective_rank(lam),
        }
    summary = {}
    for m in CONCENTRATION_METRICS:
        vals = np.array([per_task[t][m] for t in per_task])
        summary[m] = {"mean": float(vals.mean()), "std": float(vals.std(ddof=0))}
    return {"per_task": per_task, "summary": summary}


# ---------------------------------------------------------------------------
# local actions
# ---------------------------------------------------------------------------

def local_actions(actions, frames):
    """Map world 6-dim action blocks into per-step frames: u = (R^T dx, R^T dr).

    actions: (T, >=6); frames: (T, 3, 3). Norm of each 3-block is preserved.
    """
    return (actions[:, :6].reshape(-1, 2, 3) @ frames).reshape(-1, 6)


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------

def min_axis_angle_deg(directions, frames):
    """Minimum unsigned angle (deg) between unit directions and frame axes."""
    dots = np.abs(np.einsum("ti,tij->tj", directions, frames))
    return np.degrees(np.arccos(np.clip(dots.max(axis=1), 0.0, 1.0)))


def compatibility(steps_by_task, min_displacement=None):
    """Angular compatibility between displacement directions and frame axes.

    steps_by_task: {task: (trans_actions (N, 3), frames (N, 3, 3))}.
    Steps with displacement below min_displacement (default: 10% of the
    dataset-wide median step norm) or of zero length, which has no direction,
    are filtered; a task with no surviving steps is reported as empty rather
    than zero.
    """
    norms = {task: np.linalg.norm(trans, axis=1)
             for task, (trans, _) in steps_by_task.items()}
    if min_displacement is None:
        min_displacement = 0.1 * float(np.median(np.concatenate(list(norms.values()))))
    per_task = {}
    for task, (trans, frames) in steps_by_task.items():
        keep = (norms[task] > 0) & (norms[task] >= min_displacement)
        if np.any(keep):
            angles = min_axis_angle_deg(trans[keep] / norms[task][keep, None],
                                        frames[keep])
            per_task[task] = {
                "mean_deg": float(angles.mean()),
                "std_deg": float(angles.std(ddof=0)),
                "n_steps": int(len(angles)),
            }
        else:
            per_task[task] = {"mean_deg": None, "std_deg": None, "n_steps": 0}
    means = [v["mean_deg"] for v in per_task.values() if v["n_steps"] > 0]
    return {
        "per_task": per_task,
        "overall_mean_deg": float(np.mean(means)) if means else None,
        "min_displacement": float(min_displacement),
    }


def random_min_angle_mc(n=200000, seed=0):
    """Monte-Carlo E[arccos(max_i |v_i|)] in degrees for uniform v on S^2.

    Baseline for compatibility of random frames against random directions.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xBA5E]))
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return float(np.degrees(np.arccos(np.abs(v).max(axis=1))).mean())


# ---------------------------------------------------------------------------
# model-conditioned analyses
# ---------------------------------------------------------------------------

def predict_step_outputs(params, config, obs):
    """Per-step head outputs for any number of observation rows.

    Runs the head cut to its first horizon slot (head.first_slot) on slices of
    _CHUNK rows, giving one frame and one gating pair per row; only one
    slice's arrays are alive at a time.
    """
    params, config = head_mod.first_slot(params, config)
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    n = len(obs)
    out = {"frames": np.empty((n, 3, 3)),
           "gating_trans": np.empty((n, config.k_trans)),
           "gating_rot": np.empty((n, config.k_rot))}
    for lo in range(0, n, _CHUNK):
        fwd = head_mod.head_forward(obs[lo:lo + _CHUNK], params, config)
        for key, rows in out.items():
            rows[lo:lo + _CHUNK] = getattr(fwd, key).value[:, 0]
        del fwd  # before the next slice's forward
    return out


def usage_matrix(outputs, spans):
    """Mean gating weights per task: {kind: (tasks, K) rows on the simplex}.

    outputs: predict_step_outputs over the steps; spans: {task: slice of them}.
    """
    usage = {"tasks": list(spans)}
    for kind in ("trans", "rot"):
        gating = outputs[f"gating_{kind}"]
        usage[kind] = np.array([gating[span].mean(axis=0) for span in spans.values()])
    return usage


def row_entropy(rows):
    p = np.clip(np.asarray(rows, dtype=float), 1e-12, None)
    p = p / p.sum(axis=-1, keepdims=True)
    return -(p * np.log(p)).sum(axis=-1)


def axis_timeline(local, lengths, time_bins=10):
    """Per-time-bin distribution of the dominant local-action axis.

    local: (N, 6) local actions of one task's episodes, one after another;
    lengths: their step counts. Episodes are time-normalized into time_bins
    bins; returns (time_bins, 3) distributions for the translation and
    rotation blocks.
    """
    t = np.arange(len(local)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    bins = np.minimum(t * time_bins // np.repeat(lengths, lengths), time_bins - 1)

    def dist(block):
        dom = np.abs(block).argmax(axis=1)
        c = np.bincount(bins * 3 + dom, minlength=3 * time_bins).reshape(time_bins, 3)
        return c / np.maximum(c.sum(axis=1, keepdims=True), 1.0)
    return {"trans": dist(local[:, :3]), "rot": dist(local[:, 3:6])}


def dominant_axis_phases(timeline, min_share=0.5):
    """Sequence of (axis, start_bin, end_bin) phases where one axis holds a
    majority share; consecutive equal axes are merged."""
    dom = timeline.argmax(axis=1)
    share = timeline.max(axis=1)
    phases = []
    for b, (axis, s) in enumerate(zip(dom, share)):
        if s < min_share:
            continue
        if phases and phases[-1][0] == axis and phases[-1][2] == b - 1:
            phases[-1] = (axis, phases[-1][1], b)
        else:
            phases.append((int(axis), b, b))
    return phases


# ---------------------------------------------------------------------------
# the diagnose report
# ---------------------------------------------------------------------------

def diagnose(dataset, params, config, dcfg):
    """Every diagnostic of the head (params, config) on dataset.

    dcfg: the config's diagnostics section (time_bins, min_displacement).
    Returns the report: {"concentration", "compatibility", "usage_matrix",
    "axis_timelines"}.
    """
    # a stable sort of the episodes by task makes each task one span
    tasks = dataset.task_names
    order = sorted(range(len(dataset.episodes)),
                   key=lambda i: dataset.episodes[i].task_idx)
    episodes = [dataset.episodes[i] for i in order]
    lengths = np.array([len(ep.obs) for ep in episodes])
    step_edges = np.cumsum([0, *lengths])
    ep_edges = np.searchsorted([ep.task_idx for ep in episodes],
                               np.arange(len(tasks) + 1))
    spans = {task: slice(step_edges[a], step_edges[b])
             for task, a, b in zip(tasks, ep_edges, ep_edges[1:])}

    outputs = predict_step_outputs(params, config,
                                   np.concatenate([ep.obs for ep in episodes]))
    actions = np.concatenate([ep.actions for ep in episodes])
    local = local_actions(actions, outputs["frames"])
    scene_frames = np.repeat([ep.q for ep in episodes], lengths, axis=0)

    def compat_of(frames):
        return compatibility(
            {task: (actions[span, :3], frames[span]) for task, span in spans.items()},
            min_displacement=dcfg["min_displacement"])

    # each array goes once its last reader is done: the frames and gatings
    # before any concentration statistic, local before the world statistics
    usage = usage_matrix(outputs, spans)
    compat = {"learned": compat_of(outputs["frames"]),
              "ground_truth": compat_of(scene_frames),
              "random_baseline_deg": RANDOM_BASELINE_DEG}
    del outputs
    timelines = {task: axis_timeline(local[spans[task]], lengths[a:b],
                                     time_bins=dcfg["time_bins"])
                 for task, a, b in zip(tasks, ep_edges, ep_edges[1:])}
    learned_local = concentration({task: local[span] for task, span in spans.items()})
    del local
    return {
        "concentration": {
            **synthgym.world_vs_canonical_stats(actions, scene_frames, spans),
            "learned_local": learned_local,
        },
        "compatibility": compat,
        "usage_matrix": usage,
        "axis_timelines": timelines,
    }
