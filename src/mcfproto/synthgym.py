"""Synthetic multi-stage manipulation demonstrations with randomized scene
rotations.

Each task template describes a short sequence of stages in a canonical
frame (mostly axis-aligned motions); every episode draws a uniform scene
rotation Q and expresses the demonstrated actions in the world frame as
Q @ (canonical action) plus bounded noise. Observations expose Q through
its 6D encoding together with stage progress, a task one-hot, and an
object-offset cue, so a zero-error frame predictor exists by construction.
"""

import json
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import so3, store
from .config import ACTION_DIM, DEFAULT_MAX_STEP

SCHEMA_VERSION = 1
DEFAULT_NOISE_FRAC = 0.02  # of max step size
# Episodes per save_jsonl batch. On the default 1,000-episode dataset (2 vCPUs),
# 16-64 write it fastest (0.09-0.10 s; 0.12 s as one batch), and 16 holds
# 0.6 MB of strings at a time (2.2 MB at 64, 19 MB as one batch).
_BATCH = 16


@dataclass(frozen=True)
class Stage:
    name: str
    n_steps: int
    trans_dir: tuple = (0.0, 0.0, 0.0)
    trans_mag: float = 0.0
    rot_axis: tuple = (0.0, 0.0, 0.0)
    rot_mag: float = 0.0
    gripper: float = 1.0
    arc: bool = False  # rotate trans_dir about rot_axis step by step
    profile: str = "const"  # "const" or "ramp": magnitudes scale 0.5 -> 1.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("stage needs at least one step")
        if self.profile not in ("const", "ramp"):
            raise ValueError(f"unknown magnitude profile: {self.profile}")
        for v, mag in ((self.trans_dir, self.trans_mag), (self.rot_axis, self.rot_mag)):
            n = np.linalg.norm(v)
            if mag != 0.0 and abs(n - 1.0) > 1e-9:
                raise ValueError("active stage directions must be unit vectors")


@dataclass(frozen=True)
class TaskTemplate:
    name: str
    stages: tuple

    def canonical_rollout(self):
        """Canonical-frame actions: (T, 3) trans, (T, 3) rot, (T,) gripper."""
        trans, rot, grip = [], [], []
        for stage in self.stages:
            direction = np.asarray(stage.trans_dir, dtype=float)
            axis = np.asarray(stage.rot_axis, dtype=float)
            for i in range(stage.n_steps):
                if stage.profile == "ramp" and stage.n_steps > 1:
                    scale = 0.5 + 0.5 * i / (stage.n_steps - 1)
                else:
                    scale = 1.0
                if stage.arc and stage.rot_mag != 0.0:
                    turn = so3.axis_angle_to_rotation(axis * stage.rot_mag * i)
                    trans.append(scale * stage.trans_mag * (turn @ direction))
                else:
                    trans.append(scale * stage.trans_mag * direction)
                rot.append(scale * stage.rot_mag * axis)
                grip.append(stage.gripper)
        return np.array(trans), np.array(rot), np.array(grip)


@dataclass
class Episode:
    task: str
    task_idx: int
    q: np.ndarray         # scene rotation (3, 3)
    obs: np.ndarray       # (T, obs_dim)
    actions: np.ndarray   # (T, 7)


@dataclass
class Dataset:
    episodes: list
    task_names: list

    @property
    def obs_dim(self):
        return self.episodes[0].obs.shape[1]


def default_templates(max_step=DEFAULT_MAX_STEP):
    """Five manipulation templates mirroring common task motion characters.

    Every task carries both a translation and a wrist-rotation component of
    comparable variance; world-frame actions therefore spread over all six
    action dimensions under frame randomization while the canonical motions
    stay concentrated on a few fixed axes. Translation magnitudes stay at or
    below 0.95 * max_step so the bounded action noise cannot push a step past
    the configured maximum.
    """
    ex = (1.0, 0.0, 0.0)
    ey = (0.0, 1.0, 0.0)
    ez = (0.0, 0.0, 1.0)
    neg_ez = (0.0, 0.0, -1.0)
    return [
        TaskTemplate("place", (
            Stage("descend", 10, trans_dir=neg_ez, trans_mag=0.95 * max_step,
                  rot_axis=ez, rot_mag=0.04, profile="ramp"),
            Stage("release", 4, trans_dir=neg_ez, trans_mag=0.2 * max_step,
                  gripper=-1.0),
        )),
        TaskTemplate("door-close", (
            Stage("swing", 12, trans_dir=ex, trans_mag=0.75 * max_step,
                  rot_axis=ez, rot_mag=0.06, arc=True, profile="ramp"),
        )),
        TaskTemplate("knob-turn", (
            Stage("turn", 14, trans_dir=ex, trans_mag=0.9 * max_step,
                  rot_axis=ex, rot_mag=0.12),
        )),
        TaskTemplate("drawer-close", (
            Stage("push", 10, trans_dir=ex, trans_mag=0.95 * max_step,
                  rot_axis=ey, rot_mag=0.05, profile="ramp"),
        )),
        TaskTemplate("insert", (
            Stage("approach", 6, trans_dir=ex, trans_mag=0.95 * max_step),
            Stage("descend", 8, trans_dir=neg_ez, trans_mag=0.4 * max_step,
                  rot_axis=ez, rot_mag=0.05, profile="ramp"),
        )),
    ]


def _bounded_noise(noise, scale):
    """Noise rows (..., 3) pulled back onto the ball of radius `scale`."""
    norms = np.sqrt(so3.dot(noise, noise))
    over = norms > scale
    return np.where(over, noise * (scale / np.maximum(norms, 1e-300)), noise)


def _episode_rng(seed, index):
    # counter-based generator split per episode index: order-independent
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def generate(templates, episodes_per_task, noise_scale=None, seed=0,
             frame_randomize=True, max_step=DEFAULT_MAX_STEP):
    """Generate a frame-randomized dataset; deterministic per seed."""
    if not templates or episodes_per_task < 1:
        raise ValueError("need at least one task template and one episode per task")
    if noise_scale is None:
        noise_scale = DEFAULT_NOISE_FRAC * max_step
    task_names = [t.name for t in templates]
    episodes = []
    n_eps = episodes_per_task
    for task_idx, template in enumerate(templates):
        ct, cr, grip = template.canonical_rollout()
        t_total = len(grip)

        def join(*parts):  # broadcast (E | 1, T | 1, width) parts to (E, T, ·)
            return np.concatenate([np.broadcast_to(
                p, (n_eps, t_total, p.shape[-1])) for p in parts], axis=2)

        # each episode's stream draws its rotation, its translation and
        # rotation noise, then its offset noise; the arithmetic runs per task
        draws, noise, offset_noise = [], [], []
        for e in range(n_eps):
            rng = _episode_rng(seed, task_idx * n_eps + e)
            if frame_randomize:
                draws.append(so3.draw_rotations(rng, 1))
            noise.append([rng.normal(0.0, noise_scale / 3.0, ct.shape)
                          if noise_scale != 0.0 else np.zeros(ct.shape)
                          for _ in range(2)])
            offset_noise.append(rng.normal(0.0, 0.01, 3))
        if frame_randomize:
            qs = so3.rotations_from_draws(*map(np.concatenate, zip(*draws)))
        else:
            qs = np.tile(np.eye(3), (n_eps, 1, 1))
        noise = _bounded_noise(np.array(noise), noise_scale)
        q_t = qs.transpose(0, 2, 1)
        actions = join(ct @ q_t + noise[:, 0], cr @ q_t + noise[:, 1], grip[:, None])
        offset = qs @ (np.asarray(template.stages[0].trans_dir) * 0.2)
        step_cols = np.zeros((t_total, 1 + len(templates)))  # progress, one-hot
        step_cols[:, 0] = np.arange(t_total) / max(t_total - 1, 1)
        step_cols[:, 1 + task_idx] = 1.0
        obs = join(so3.encode_6d(qs)[:, None], step_cols,
                   (offset + np.array(offset_noise))[:, None])
        episodes += [Episode(template.name, task_idx, *arrays)
                     for arrays in zip(qs, obs, actions)]
    return Dataset(episodes, task_names)


# ---------------------------------------------------------------------------
# JSON Lines serialization
# ---------------------------------------------------------------------------

def save_jsonl(dataset, path):
    """One line per episode, byte for byte `json.dumps` of its document.

    Each batch of _BATCH episodes formats its distinct floats (by bit
    pattern, so -0.0 stays apart from 0.0) with one `json.dumps` call and
    joins the lines from those strings.
    """
    eps = dataset.episodes
    width = eps[0].obs.shape[1] if eps else 0
    for i, ep in enumerate(eps):
        if ep.obs.shape[1] != width:
            raise ValueError(f"episode {i}: obs width {ep.obs.shape[1]} differs "
                             f"from episode 0's {width}")
    with store.atomic_open(path) as f:
        for lo in range(0, len(eps), _BATCH):
            batch = eps[lo:lo + _BATCH]
            rows = np.concatenate([np.concatenate([ep.obs, ep.actions], axis=1)
                                   for ep in batch], dtype=np.float64)
            values = np.concatenate([so3.encode_6d([ep.q for ep in batch]).ravel(),
                                     rows.ravel()])
            bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
            text = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
            text = np.array(text, dtype=object)[inverse]
            q_text = text[:6 * len(batch)].reshape(-1, 6).tolist()
            step_text = iter(text[6 * len(batch):].reshape(rows.shape).tolist())
            for ep, q in zip(batch, q_text):
                steps = ", ".join(
                    f'{{"obs": [{", ".join(r[:width])}], '
                    f'"action": [{", ".join(r[width:])}]}}'
                    for r in islice(step_text, len(ep.obs)))
                f.write(f'{{"schema_version": {SCHEMA_VERSION}, "task": '
                        f'{json.dumps(ep.task)}, "q_6d": [{", ".join(q)}], '
                        f'"steps": [{steps}]}}\n')


def _field(doc, key, where):
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    if key not in doc:
        raise ValueError(f"{where}: missing key {key!r}")
    return doc[key]


def load_jsonl(path):
    episodes = []
    task_names = []
    q6s, wheres = [], []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            where = f"{path}, line {lineno}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON ({exc.msg})") from exc
            version = _field(doc, "schema_version", where)
            if type(version) is not int or version != SCHEMA_VERSION:
                raise ValueError(f"{where}: unsupported dataset schema: {version!r}")
            task = _field(doc, "task", where)
            if not isinstance(task, str):
                raise ValueError(f"{where}: task is not a string: {task!r}")
            if task not in task_names:
                task_names.append(task)
            bools = "true" in line or "false" in line  # only then look for them
            q6s.append(store.numbers(_field(doc, "q_6d", where), "q_6d", where, 1,
                                     bools))
            if len(q6s[-1]) != 6:
                raise ValueError(f"{where}: q_6d holds {len(q6s[-1])} numbers, not 6")
            wheres.append(where)
            steps = _field(doc, "steps", where)
            if not isinstance(steps, list) or not steps:
                raise ValueError(f"{where}: steps is not a non-empty list")
            obs = store.numbers([_field(s, "obs", where) for s in steps], "obs",
                                where, 2, bools)
            actions = store.numbers([_field(s, "action", where) for s in steps],
                                    "action", where, 2, bools)
            if episodes and obs.shape[1] != episodes[0].obs.shape[1]:
                raise ValueError(f"{where}: obs width {obs.shape[1]} differs from "
                                 f"{episodes[0].obs.shape[1]} on earlier lines")
            if actions.shape[1] != ACTION_DIM:
                raise ValueError(f"{where}: action width {actions.shape[1]} is "
                                 f"not {ACTION_DIM}")
            episodes.append(Episode(task, task_names.index(task), None, obs, actions))
    if not episodes:
        raise ValueError(f"dataset {path} holds no episodes")
    try:
        qs = so3.decode_6d(np.array(q6s))
    except so3.DegenerateParamError:
        for q6, where in zip(q6s, wheres):  # name the first bad line
            try:
                so3.decode_6d(q6)
            except so3.DegenerateParamError as exc:
                raise ValueError(f"invalid q_6d in {where}: {exc}") from exc
        raise
    for ep, q in zip(episodes, qs):
        ep.q = q
    return Dataset(episodes, task_names)


def world_vs_canonical_stats(actions, scene_frames, spans):
    """Concentration statistics of the world actions and of the canonical
    ones, Q^T a per step and block: how compact the ground-truth frame makes
    the actions.

    actions: (N, 7) steps; scene_frames: (N, 3, 3), each step's scene
    rotation Q; spans: {task: slice of the steps}.
    """
    from . import diagnostics

    canonical = diagnostics.local_actions(actions, scene_frames)
    return {name: diagnostics.concentration(
                {task: steps[span] for task, span in spans.items()})
            for name, steps in (("world", actions[:, :6]), ("canonical", canonical))}
