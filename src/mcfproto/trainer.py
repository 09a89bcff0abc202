"""Mini-batch training loop: AdamW, cosine schedule with warmup,
checkpointing, and the hierarchical ablation suite.

Determinism: all per-step randomness comes from counter-based generators
keyed as (seed, step), so resuming from a checkpoint continues the exact
same batch sequence and two runs with the same seed/config produce
bitwise-identical metric logs.
"""

import logging
import math
import os
import reprlib
import shutil
from dataclasses import asdict, replace

import numpy as np

from . import head as head_mod
from . import store

log = logging.getLogger(__name__)

METRIC_COLUMNS = ["step", "lr", "loss_total", "loss_act", "loss_ortho",
                  "loss_smooth", "val_loss_act"]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    return _is_int(x) or isinstance(x, float)


def _is_metrics_row(row):
    """An integer step, finite numbers, and a number or "" for val_loss_act."""
    return (isinstance(row, list) and len(row) == len(METRIC_COLUMNS)
            and _is_int(row[0]) and (row[-1] == "" or _is_number(row[-1]))
            and all(_is_int(x) or isinstance(x, float) and math.isfinite(x)
                    for x in row[1:-1]))


def _steps_end_at(rows, step):
    """The rows' steps strictly increase and the last is at most `step`."""
    if not _is_int(step):
        return False
    steps = [row[0] for row in rows] + [step + 1]
    return all(a < b for a, b in zip(steps, steps[1:]))


class TrainingDiverged(RuntimeError):
    def __init__(self, step, value):
        super().__init__(f"non-finite loss at step {step}: {value}")
        self.step = step


def cosine_lr(step, config):
    """Linear warmup 0 -> lr, then cosine decay to 0 at config.steps."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if config.warmup > 0 and step < config.warmup:
        return config.lr * step / config.warmup
    if config.steps == config.warmup:
        return config.lr
    progress = (step - config.warmup) / (config.steps - config.warmup)
    return float(config.lr * 0.5 * (1.0 + np.cos(np.pi * min(progress, 1.0))))


class AdamW:
    """Adam with decoupled weight decay.

    Weight decay is not applied to the prototype dictionaries: decay would
    pull them toward zero and fight the tight-frame optimum of the
    orthogonality penalty. The scale heads get their own (stronger) decay:
    a mixture of prototypes can never exceed the gain of its best component,
    so keeping the composition scales small makes the gating weights carry
    output magnitude, concentrating usage where the motion demands it.
    """

    def __init__(self, params, config):
        self.cfg, self.step_count = config, 0
        # one flat vector of values, one of gradients; each entry of `params`
        # is rebound to a view of its slice of the values
        self.flat = np.concatenate(list(params.values()), axis=None)
        self.grad = np.zeros_like(self.flat)
        self.grad_views, end = {}, 0  # name -> view of its slice of the gradients
        for k, value in list(params.items()):
            part = slice(end, end + value.size)
            params[k] = self.flat[part].reshape(value.shape)
            self.grad_views[k] = self.grad[part].reshape(value.shape)
            end = part.stop
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self.scratch = np.empty_like(self.flat), np.empty_like(self.flat)
        decay = np.concatenate([np.full(p.size, (
            config.weight_decay_scale if k.startswith("scale_") else
            0.0 if k.startswith("dict_") else config.weight_decay))
            for k, p in params.items()])
        edges = [0, *(np.flatnonzero(np.diff(decay)) + 1), decay.size]
        self.decay = [(slice(a, b), decay[a])  # each run of one decay > 0
                      for a, b in zip(edges, edges[1:]) if decay[a] > 0]

    def step(self, lr, grads):
        """One update from `grads`, {name: gradient}; a missing name's is 0.
        Each gradient is added into zeros, which makes a -0.0 +0.0."""
        self.grad[...] = 0.0
        for k, g in grads.items():
            self.grad_views[k] += g
        # the per-tensor update's exact operation order, on the whole vector
        # and in place: temporaries of its size cost more than the arithmetic
        self.step_count += 1
        c = self.cfg
        bc1 = 1.0 - c.beta1 ** self.step_count
        bc2 = 1.0 - c.beta2 ** self.step_count
        g, (u, w) = self.grad, self.scratch
        self.m *= c.beta1
        self.m += np.multiply(1.0 - c.beta1, g, out=u)
        np.multiply(1.0 - c.beta2, g, out=u)
        self.v *= c.beta2
        self.v += np.multiply(u, g, out=u)
        denom = np.sqrt(np.divide(self.v, bc2, out=w), out=w)
        denom += c.eps
        update = np.divide(np.divide(self.m, bc1, out=u), denom, out=u)
        for part, decay in self.decay:  # no "+ 0 * p": 0 * inf is nan
            update[part] += np.multiply(decay, self.flat[part], out=denom[part])
        self.flat -= np.multiply(lr, update, out=update)

    def state(self):
        """step_count, and the moments m and v each as one base64 "<f8" string."""
        return {"step_count": self.step_count,
                "m": store.encode_f8([self.m]), "v": store.encode_f8([self.v])}

    def load_state(self, state):
        """Inverse of state(). Raises ValueError when `state` is not one for
        these parameters."""
        if not isinstance(state, dict):
            raise ValueError("optimizer state is not a JSON object")
        step_count = state.get("step_count")
        if not _is_int(step_count):
            raise ValueError(f"optimizer step_count {step_count!r} is not an integer")
        self.m, self.v = (store.decode_f8(state.get(key), [self.flat.shape],
                                          f"optimizer moment {key!r}")[0]
                          for key in ("m", "v"))
        self.step_count = step_count


# ---------------------------------------------------------------------------
# chunked dataset view
# ---------------------------------------------------------------------------

def build_chunks(episodes, horizon):
    """One chunk per step: obs at t, targets t..t+H-1 (final action repeated
    past the episode end so every step is a valid chunk start).

    Returns (obs, actions, rows): the episodes' (N, 7) actions, concatenated,
    and the (N, H) integer rows whose actions[rows] are the chunk targets, so
    a batch gathers its own targets instead of the set repeating each action
    up to H times."""
    rows, start = [], 0
    for ep in episodes:
        t_total = len(ep.actions)
        rows.append(start + np.minimum(np.arange(t_total)[:, None] + np.arange(horizon),
                                       t_total - 1))
        start += t_total
    return (np.concatenate([ep.obs for ep in episodes]),
            np.concatenate([ep.actions for ep in episodes]), np.concatenate(rows))


def split_dataset(dataset, val_fraction, seed):
    """Deterministic episode-level train/val split, stratified by task. Each
    task with more than one episode holds out round(val_fraction * n) of its
    n episodes, and at least one unless val_fraction is 0."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xDA7A]))
    train_eps, val_eps = [], []
    for task in dataset.task_names:
        eps = [e for e in dataset.episodes if e.task == task]
        perm = rng.permutation(len(eps))
        n_val = (max(1, int(round(val_fraction * len(eps))))
                 if len(eps) > 1 and val_fraction > 0 else 0)
        for i, j in enumerate(perm):
            (val_eps if i < n_val else train_eps).append(eps[j])
    return train_eps, val_eps


def eval_loss_act(obs, actions, rows, params, config, batch=512):
    """Mean per-step action loss over a chunk set (no regularizers); the
    chunk targets are actions[rows], as build_chunks returns them. Each
    batch's arrays are freed before the next forward."""
    total = 0.0
    n = len(obs)
    for i in range(0, n, batch):
        out = head_mod.head_forward(obs[i:i + batch], params, config)
        total += float(head_mod.loss_act(out.world_action.value, actions[
            rows[i:i + batch]], config.beta)[0]) / config.horizon
        del out  # before the next batch's forward
    return total / n


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train(dataset, head_config, train_config, out_dir=None, resume=None):
    """Train the head; returns (params, metrics, best) where metrics is a
    list of row dicts (METRIC_COLUMNS) and best = (val_loss, step).

    resume: path to a checkpoint written by this function (periodic or
    final); continues bitwise-identically to an uninterrupted run, and the
    checkpoint alone holds what it needs, logged rows included.
    """
    hc, tc = head_config, train_config
    if not dataset.episodes:
        raise ValueError("dataset is empty")
    if hc.horizon < 2:
        log.warning("head.horizon is 1: no consecutive frame pairs in a chunk, "
                    "so the smoothness term is 0")
    train_eps, val_eps = split_dataset(dataset, tc.val_fraction, tc.seed)
    if not train_eps:
        train_eps = list(dataset.episodes)
    tr_obs, tr_actions, tr_rows = build_chunks(train_eps, hc.horizon)
    val_set = build_chunks(val_eps, hc.horizon) if val_eps else (
        tr_obs, tr_actions, tr_rows)

    start_step = 0
    best_val = np.inf
    best_step = -1
    rows = []    # the logged rows, as metrics.csv prints them

    if resume is None:
        params = head_mod.init_params(
            hc, np.random.Generator(np.random.Philox(key=[tc.seed, 0x1417])))
        opt = AdamW(params, tc)
        best_snapshot = {k: p.copy() for k, p in params.items()}
    else:
        params, loaded_hc, extra = head_mod.load_checkpoint(resume)
        if asdict(loaded_hc) != asdict(hc):
            raise ValueError("checkpoint head config does not match")
        if not extra or "optimizer" not in extra:
            raise ValueError(f"checkpoint {resume} holds no optimizer state; resume "
                             "from ckpt_final.json or a periodic ckpt_<step>.json")
        opt = AdamW(params, tc)
        start_step = extra.get("step")
        best_val = extra.get("best_val", np.inf)
        best_step = extra.get("best_step", -1)
        rows = extra.get("metrics")
        for key, ok, what in (
                ("step", _is_int(start_step) and 0 <= start_step <= tc.steps,
                 f"an integer in [0, {tc.steps}]"),
                ("best_val", _is_number(best_val), "a number"),
                ("best_step", _is_int(best_step), "an integer"),
                ("metrics", isinstance(rows, list) and all(map(_is_metrics_row, rows))
                 and _steps_end_at(rows, start_step),
                 f"a list of rows of {len(METRIC_COLUMNS)} values: an integer "
                 "step, finite numbers, and a number or \"\" for val_loss_act, "
                 "with steps that increase and end at or before step")):
            if not ok:
                got = reprlib.repr(extra[key]) if key in extra else "nothing"
                raise ValueError(f"checkpoint {resume}: {key} must be {what}, "
                                 f"got {got}")
        try:
            opt.load_state(extra["optimizer"])
            if opt.step_count != start_step:
                raise ValueError(f"optimizer step_count {opt.step_count} is not the "
                                 f"checkpoint's step {start_step}")
            shapes = [p.shape for p in params.values()]
            best_snapshot = (  # unless they are this checkpoint's own params
                dict(zip(params, store.decode_f8(extra.get("best_params"), shapes,
                                                 "best_params")))
                if "best_params" in extra or best_step != start_step
                else {k: p.copy() for k, p in params.items()})
        except ValueError as exc:
            raise ValueError(f"checkpoint {resume}: {exc}") from exc

    def write_metrics():
        """metrics.csv, whole: a crash leaves the last complete log."""
        store.write_csv(os.path.join(out_dir, "metrics.csv"), METRIC_COLUMNS, rows)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_metrics()

    def resume_state(step):
        state = {"step": step, "optimizer": opt.state(), "best_val": best_val,
                 "best_step": best_step, "metrics": rows}
        if best_step < 0:  # no eval has run, and best_val is inf, which is not JSON
            del state["best_val"], state["best_step"]
        if best_step != step:  # else the best parameters are `params`
            state["best_params"] = store.encode_f8(best_snapshot.values())
        return state

    n_chunks = len(tr_obs)
    last_ckpt = None    # ckpt_<steps>.json, when this call writes it
    for step in range(start_step, tc.steps):
        rng = np.random.Generator(np.random.Philox(key=[tc.seed, 1 + step]))
        idx = rng.integers(0, n_chunks, tc.batch_size)
        loss, parts, kinks, grad = head_mod.loss_total(
            tr_obs[idx], tr_actions[tr_rows[idx]], params, hc
        )
        if not np.isfinite(loss):
            raise TrainingDiverged(step, float(loss))
        lr = cosine_lr(step, tc)
        opt.step(lr, grad())
        del kinks, grad  # only the floats in parts are needed from here on

        val = None
        if (step + 1) % tc.eval_interval == 0 or step + 1 == tc.steps:
            val = eval_loss_act(*val_set, params, hc)
            if val < best_val:
                best_val = val
                best_step = step + 1
                best_snapshot = {k: p.copy() for k, p in params.items()}
        if val is not None or (step + 1) % 100 == 0 or step == 0:
            rows.append([step + 1, lr, parts["loss_total"], parts["loss_act"],
                         parts["loss_ortho"], parts["loss_smooth"],
                         "" if val is None else val])
            if out_dir is not None:
                write_metrics()
        if (out_dir is not None and tc.ckpt_interval
                and (step + 1) % tc.ckpt_interval == 0):
            path = os.path.join(out_dir, f"ckpt_{step + 1}.json")
            head_mod.save_checkpoint(path, params, hc, extra=resume_state(step + 1))
            if step + 1 == tc.steps:
                last_ckpt = path

    if out_dir is not None:
        final = os.path.join(out_dir, "ckpt_final.json")
        if last_ckpt is not None:
            # the same document: copy its bytes instead of serializing it again
            with open(last_ckpt) as src, store.atomic_open(final) as dst:
                shutil.copyfileobj(src, dst)
        else:
            head_mod.save_checkpoint(final, params, hc, extra=resume_state(tc.steps))
        head_mod.save_checkpoint(
            os.path.join(out_dir, "ckpt_best.json"), best_snapshot, hc,
            extra={"step": best_step, "best_val": best_val},
        )
    return (params, [dict(zip(METRIC_COLUMNS, row)) for row in rows],
            (best_val, best_step))


# ---------------------------------------------------------------------------
# hierarchical ablation suite
# ---------------------------------------------------------------------------

ABLATION_ROWS = [
    # name, learn_frame, prototypes, ortho, smooth
    ("bc-mlp", False, False, False, False),
    ("mcf-only", True, False, False, False),
    ("world-proto", False, True, False, False),
    ("mcf-proto", True, True, False, False),
    ("mcf-proto-ortho", True, True, True, False),
    ("mcf-proto-full", True, True, True, True),
]


def ablation_config(base, name):
    """Map an ablation row name to a head-config specialization."""
    rows = {r[0]: r for r in ABLATION_ROWS}
    _, frame, protos, ortho, smooth = rows[name]
    return replace(
        base,
        learn_frame=frame,
        k_trans=base.k_trans if protos else 1,
        k_rot=base.k_rot if protos else 1,
        lambda_ortho=base.lambda_ortho if ortho else 0.0,
        lambda_smooth=base.lambda_smooth if smooth else 0.0,
    )


def ablation_suite(dataset, head_config, train_config, seeds=(0, 1, 2),
                   out_path=None):
    """Run all six ablation rows over the given seeds.

    Returns a list of row dicts with per-seed validation losses and
    mean/std; continues remaining rows if one fails numerically (divergence
    or a degenerate frame). Any other exception propagates.
    """
    results = []
    for name, *_ in ABLATION_ROWS:
        hc = ablation_config(head_config, name)
        vals = []
        errors = []
        for seed in seeds:
            tc = replace(train_config, seed=seed)
            try:
                _, _, (best_val, _) = train(dataset, hc, tc)
                vals.append(best_val)
            except (TrainingDiverged, ArithmeticError) as exc:
                log.error("ablation row %s seed %d failed: %s", name, seed, exc)
                errors.append(str(exc))
        row = {
            "row": name,
            "seeds": list(seeds),
            "val_loss_act": vals,
            "mean": float(np.mean(vals)) if vals else None,
            "std": float(np.std(vals, ddof=0)) if vals else None,
            "errors": errors,
        }
        results.append(row)
    if out_path is not None:
        header = ["row", "mean_val_loss_act", "std", "n_seeds", "seeds", "per_seed"]
        store.write_csv(out_path, header, [
            [r["row"], r["mean"], r["std"], len(r["val_loss_act"]),
             " ".join(str(s) for s in r["seeds"]),
             " ".join(repr(v) for v in r["val_loss_act"])] for r in results])
    return results
