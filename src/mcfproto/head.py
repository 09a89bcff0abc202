"""The motion-centric prototype action head.

Pipeline per observation: a small tanh encoder produces a latent h; from h
the head predicts, for every step of a horizon-long action chunk, a local
frame rotation (6D decode), gating distributions over translation/rotation
prototype dictionaries, latent scale vectors, and the gripper channel.
Local actions are composed as gating-weighted prototype outputs and rotated
into the world frame by the predicted frame.

Ablation rows are config specializations, not separate code paths:
``learn_frame=False`` freezes the frame to identity, ``k_trans=k_rot=1``
reduces prototype composition to a single linear map (the softmax of one
logit is identically [1]).
"""

import json
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import autodiff as ad
from . import so3, store
from .config import ACTION_DIM, HeadConfig

CHECKPOINT_SCHEMA = 2


@dataclass
class HeadOutput:
    """Forward-pass bundle; fields are parentless nodes (.value is the array)."""

    latent: ad.Node
    frames: ad.Node          # (B, H, 3, 3)
    gating_trans: ad.Node    # (B, H, K_t)
    gating_rot: ad.Node      # (B, H, K_r)
    scales_trans: ad.Node    # (B, H, d)
    scales_rot: ad.Node      # (B, H, d)
    local_trans: ad.Node     # (B, H, 3)
    local_rot: ad.Node       # (B, H, 3)
    world_action: ad.Node    # (B, H, ACTION_DIM)


def _parseval_rows(rng, rows, dim):
    """Random rows whitened so their frame operator is the identity.

    Returns a (rows, dim) matrix V with V.T @ V = I_dim; needs rows >= dim.
    """
    v = rng.normal(size=(rows, dim))
    w, u = np.linalg.eigh(v.T @ v)
    return v @ (u / np.sqrt(w)) @ u.T


def _init_dictionary(rng, k, d, roll_atoms=False):
    """Prototype stack (k, 3, d) sitting at the orthogonality-penalty floor.

    The flattened prototypes form a Parseval frame of R^{3d} (or orthonormal
    rows when k < 3d), so the tight-frame penalty starts at its minimum and
    anchors the dictionary there instead of fighting the action loss.

    For the rotation dictionary (roll_atoms) the first d prototypes are pure
    first-axis atoms e_1 z_j^T: they are the only prototypes whose output
    spans the first local axis, so motions that roll about that axis can only
    be composed through them. The remaining prototypes form a Parseval frame
    of the complementary (second/third axis) output subspace.
    """
    flat_dim = 3 * d
    if roll_atoms and k >= flat_dim and d >= 1:
        atoms = np.zeros((d, flat_dim))
        atoms[np.arange(d), np.arange(d)] = 1.0
        rest = np.zeros((k - d, flat_dim))
        rest[:, d:] = _parseval_rows(rng, k - d, flat_dim - d)
        flat = np.concatenate([atoms, rest])
    elif k >= flat_dim:
        flat = _parseval_rows(rng, k, flat_dim)
    else:
        q, _ = np.linalg.qr(rng.normal(size=(flat_dim, k)))
        flat = q.T
    return np.ascontiguousarray(flat.reshape(k, 3, d))


def _param_shapes(config):
    """{name: shape} of the head's tensors, in init_params' order."""
    c, shapes = config, {}
    for name, i, rows, cols in (
            ("enc", 1, c.hidden, c.obs_dim), ("enc", 2, c.hidden, c.hidden),
            ("frame", 1, c.hidden, c.hidden), ("frame", 2, c.horizon * 6, c.hidden),
            *((name, "", c.horizon * n, c.hidden) for name, n in (
                ("gate_t", c.k_trans), ("gate_r", c.k_rot), ("scale_t", c.d),
                ("scale_r", c.d), ("rest", ACTION_DIM - 6)))):
        shapes[f"{name}.w{i}"], shapes[f"{name}.b{i}"] = (rows, cols), (rows,)
    shapes["dict_trans"], shapes["dict_rot"] = (c.k_trans, 3, c.d), (c.k_rot, 3, c.d)
    return shapes


def init_params(config, rng):
    """Initialize all trainable tensors: {name: float64 array}.

    The frame head's final layer starts near (e1, e2) so the initial frames
    are approximately identity, keeping the Gram-Schmidt decode far from
    degeneracy. Every architecture variant draws the same tensors in the
    same order, so seed-matched ablation rows share initialization wherever
    shapes coincide. Prototype dictionaries start at the tight-frame floor
    of the orthogonality penalty (see _init_dictionary).
    """
    params = {}
    for name, shape in _param_shapes(config).items():
        if name.startswith("dict_"):
            params[name] = _init_dictionary(rng, shape[0], config.d,
                                            roll_atoms=name == "dict_rot")
        elif name == "frame.b2":
            params[name] = np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], config.horizon)
        elif len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            std = 1e-3 if name == "frame.w2" else 1.0 / np.sqrt(shape[1])
            params[name] = rng.normal(0.0, std, shape)
    return params


def _forward(obs, params, config):
    """The head on plain arrays: a dict of the HeadOutput fields and of every
    array the backward reads. Raises so3.DegenerateParamError when a predicted
    6D frame parameter cannot be decoded."""
    f = {"obs": np.atleast_2d(np.asarray(obs, dtype=float))}
    batch, horizon, d = len(f["obs"]), config.horizon, config.d

    def linear(x, name, i=""):
        return x @ params[f"{name}.w{i}"].T + params[f"{name}.b{i}"]

    f["h1"] = np.tanh(linear(f["obs"], "enc", 1))
    f["latent"] = h = np.tanh(linear(f["h1"], "enc", 2))
    if config.learn_frame:
        f["fh"] = np.tanh(linear(h, "frame", 1))
        f["p6"] = linear(f["fh"], "frame", 2).reshape(batch, horizon, 6)
        f["gs"] = so3.gram_schmidt(f["p6"])
        f["frames"] = f["gs"][0]
    else:
        f["frames"] = np.broadcast_to(np.eye(3), (batch, horizon, 3, 3)).copy()
    world = []
    for kind, k in (("trans", config.k_trans), ("rot", config.k_rot)):
        pi = linear(h, f"gate_{kind[0]}").reshape(batch, horizon, k)
        pi = np.exp(pi - pi.max(axis=-1, keepdims=True))  # softmax
        pi /= pi.sum(axis=-1, keepdims=True)
        z = linear(h, f"scale_{kind[0]}").reshape(batch, horizon, d)
        mix = pi @ params[f"dict_{kind}"].reshape(k, 3 * d)
        mix = mix.reshape(batch, horizon, 3, d)
        local = (mix @ z.reshape(batch, horizon, d, 1)).reshape(batch, horizon, 3)
        f.update({f"gating_{kind}": pi, f"scales_{kind}": z, f"mix_{kind}": mix,
                  f"local_{kind}": local})
        world.append((f["frames"] @ local.reshape(batch, horizon, 3, 1))
                     .reshape(batch, horizon, 3))
    rest = linear(h, "rest").reshape(batch, horizon, ACTION_DIM - 6)
    f["world_action"] = np.concatenate(world + [rest], axis=-1)
    return f


def head_forward(obs, params, config):
    """Full forward pass; obs is (B, obs_dim). Builds no tape: each field is
    a parentless node over its array, read through .value."""
    f = _forward(obs, params, config)
    return HeadOutput(**{name: ad.Node(f[name]) for name in HeadOutput.__annotations__})


def first_slot(params, config):
    """The head cut to horizon slot 0, (params, config with horizon 1), whose
    head_forward is the full one's [:, :1]. Each per-slot head is laid out
    slot-major, so slot 0 is a view of its leading 1/horizon of rows; the
    other tensors pass through."""
    per_slot = {"frame.w2", "frame.b2", *(f"{name}.{t}" for t in "wb" for name in (
        "gate_t", "gate_r", "scale_t", "scale_r", "rest"))}
    cut = {k: p[:len(p) // config.horizon] if k in per_slot else p
           for k, p in params.items()}
    return cut, replace(config, horizon=1)


# ---------------------------------------------------------------------------
# losses: each returns its value and vjp, vjp(s) the gradient of s * loss
# ---------------------------------------------------------------------------

def loss_act(pred, target, beta):
    """Summed action loss: L1 on trans and grip blocks, Smooth-L1 on rot.

    pred, target: (..., ACTION_DIM) arrays. Returns (loss, vjp with respect
    to pred, kinks): the kinks, L1 residuals and |r| - beta of rot, are 0
    where the loss is not smooth."""
    target = np.asarray(target, dtype=float)
    r_t, r_g = pred[..., 0:3] - target[..., 0:3], pred[..., 6:] - target[..., 6:]
    r = pred[..., 3:6] - target[..., 3:6]
    a = np.abs(r)
    loss = (np.abs(r_t).sum() + np.abs(r_g).sum()
            + np.where(a < beta, 0.5 * r * r / beta, a - 0.5 * beta).sum())

    def vjp(scale):
        grad = np.empty(pred.shape)
        grad[..., 0:3], grad[..., 6:] = scale * np.sign(r_t), scale * np.sign(r_g)
        grad[..., 3:6] = scale * np.where(a < beta, r / beta, np.sign(r))
        return grad

    return loss, vjp, np.concatenate([a - beta, r_g, r_t], axis=None)


def loss_ortho(dictionaries):
    """Gram-matrix orthogonality penalty, summed over the dictionaries.

    Each 3xd prototype is flattened (row-major) to a length-3d vector; the
    flattened prototypes form the columns of a (3d x K) matrix B and the
    penalty is ||B^T B - I_K||_F^2. vjp gives one gradient per dictionary.
    """
    flats = [dic.reshape(len(dic), -1) for dic in dictionaries]
    errs = [flat @ flat.T - np.eye(len(flat)) for flat in flats]

    def vjp(scale):
        grads = []
        for dic, flat, err in zip(dictionaries, flats, errs):
            g = scale * err
            g = g + g  # err * err holds err twice
            grads.append((g @ flat + (flat.T @ g).T).reshape(dic.shape))
        return grads

    return sum((err * err).sum() for err in errs), vjp


def loss_smooth_chunk(frames):
    """Mean geodesic smoothness over consecutive frame pairs within chunks.

    frames: (B, H, 3, 3). vjp gives the gradients with respect to
    frames[:, :-1] and frames[:, 1:]; at H == 1 the loss is 0, vjp None."""
    if frames.shape[1] < 2:  # trainer.train warns once per run
        return 0.0, None
    prev, cur = frames[:, :-1], frames[:, 1:]
    x = 0.5 * (prev * cur).sum(axis=(-2, -1)) + -0.5
    cos = np.clip(x, -1.0, 1.0)

    def vjp(scale):
        g = 0.5 * (-1.0 * (scale / cos.size) * ((x > -1.0) & (x < 1.0)))
        return g[..., None, None] * cur, g[..., None, None] * prev

    return (-1.0 * cos + 1.0).mean(), vjp


def _backward(f, params, config, g_world, g_smooth, g_dicts):
    """Gradients by tensor name, from the forward's arrays f and the losses'
    gradients with respect to the world action, the frame slices of
    loss_smooth_chunk (or None) and the dictionaries. The frame head's
    tensors have none when config.learn_frame is off."""
    batch, horizon, d = len(f["obs"]), config.horizon, config.d
    grads, g_h, g_frames = {}, [], None

    def linear(g, x, name, i=""):
        grads[f"{name}.w{i}"], grads[f"{name}.b{i}"] = g.T @ x, g.sum(axis=0)
        return g @ params[f"{name}.w{i}"]

    for j, kind in enumerate(("trans", "rot")):
        g4 = g_world[..., 3 * j:3 * j + 3].reshape(batch, horizon, 3, 1)
        if config.learn_frame:
            local4 = f[f"local_{kind}"].reshape(batch, horizon, 3, 1)
            g_frame = g4 @ np.swapaxes(local4, -1, -2)
            g_frames = g_frame if g_frames is None else g_frames + g_frame
        g4 = np.swapaxes(f["frames"], -1, -2) @ g4  # with respect to local
        z4 = f[f"scales_{kind}"].reshape(batch, horizon, d, 1)
        g_mix = (g4 @ np.swapaxes(z4, -1, -2)).reshape(batch, horizon, 3 * d)
        g_z = (np.swapaxes(f[f"mix_{kind}"], -1, -2) @ g4).reshape(batch, horizon * d)
        dic, pi = params[f"dict_{kind}"], f[f"gating_{kind}"]
        g_pi = g_mix @ dic.reshape(len(dic), 3 * d).T
        g_pi = pi * (g_pi - (pi * g_pi).sum(axis=-1, keepdims=True))  # softmax
        g_dic = (np.swapaxes(pi, -1, -2) @ g_mix).sum(axis=0).reshape(dic.shape)
        grads[f"dict_{kind}"] = g_dic + g_dicts[j]
        g_h += [linear(g_pi.reshape(batch, -1), f["latent"], f"gate_{kind[0]}"),
                linear(g_z, f["latent"], f"scale_{kind[0]}")]
    g_h.append(linear(g_world[..., 6:].reshape(batch, -1), f["latent"], "rest"))
    if config.learn_frame:
        if g_smooth is not None:
            g_frames[:, :-1] += g_smooth[0]
            g_frames[:, 1:] += g_smooth[1]
        g_p6 = so3.gram_schmidt_backward(f["p6"], f["gs"], g_frames)
        g_fh = linear(g_p6.reshape(batch, -1), f["fh"], "frame", 2)
        g_h.append(linear(g_fh * (1.0 - f["fh"] * f["fh"]), f["latent"], "frame", 1))
    g = sum(g_h[1:], g_h[0])
    g = linear(g * (1.0 - f["latent"] * f["latent"]), f["h1"], "enc", 2)
    g = g * (1.0 - f["h1"] * f["h1"])
    grads["enc.w1"], grads["enc.b1"] = g.T @ f["obs"], g.sum(axis=0)
    return grads


def loss_total(obs, targets, params, config):
    """Total objective on a batch of chunks.

    obs: (B, obs_dim); targets: (B, H, ACTION_DIM). Returns (total, parts,
    kinks, grad): parts the float values of the terms, kinks loss_act's, and
    grad() the gradients of total by tensor name, computed when called. grad
    holds the forward's arrays: drop it before the next forward."""
    f = _forward(obs, params, config)
    n_steps = len(f["obs"]) * config.horizon
    act, act_vjp, kinks = loss_act(f["world_action"], targets, config.beta)
    act = 1.0 / n_steps * act + 0.0
    ortho, ortho_vjp = loss_ortho([params["dict_trans"], params["dict_rot"]])
    smooth, smooth_vjp = loss_smooth_chunk(f["frames"])
    total = act + ((config.lambda_ortho * ortho + 0.0)
                   + (config.lambda_smooth * smooth + 0.0))

    def grad():
        return _backward(f, params, config, act_vjp(1.0 / n_steps),
                         smooth_vjp and smooth_vjp(config.lambda_smooth),
                         ortho_vjp(config.lambda_ortho))

    parts = {"loss_act": float(act), "loss_ortho": float(ortho),
             "loss_smooth": float(smooth), "loss_total": float(total)}
    return total, parts, kinks, grad


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _write_json(obj, f):
    """Write json.dumps(obj) one dict entry at a time, never all of its text."""
    if not isinstance(obj, dict):
        return f.write(json.dumps(obj))
    f.write("{")
    for i, (key, value) in enumerate(obj.items()):
        f.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        _write_json(value, f)
    f.write("}")


def save_checkpoint(path, params, config, extra=None):
    """JSON checkpoint; float repr round-trips, so save -> load -> forward is exact."""
    doc = {
        "schema_version": CHECKPOINT_SCHEMA,
        "config": asdict(config),
        "params": {k: p.tolist() for k, p in params.items()},
    }
    if extra:
        doc["extra"] = extra
    with store.atomic_open(path) as f:
        _write_json(doc, f)


def load_checkpoint(path):
    """Read a save_checkpoint document: (params, config, extra). Raises
    ValueError naming `path` when it is not one for a head of its config."""
    def invalid(what):
        return ValueError(f"checkpoint {path}: {what}")

    doc = store.load_json_object(path, "checkpoint")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA:
        raise invalid(f"unsupported checkpoint schema: {doc.get('schema_version')}")
    for key in ("config", "params"):
        if not isinstance(doc.get(key), dict):
            raise invalid(f"no {key!r} object")
    if not isinstance(doc.get("extra", {}), dict):
        raise invalid("'extra' is not an object")
    try:
        config = HeadConfig(**doc["config"])
    except (TypeError, ValueError) as exc:
        raise invalid(str(exc)) from exc
    shapes = _param_shapes(config)
    if set(doc["params"]) != set(shapes):
        raise invalid(f"tensors {sorted(doc['params'])} are not {sorted(shapes)}")
    params = {}
    for k, shape in shapes.items():
        value = store.numbers(doc["params"][k], f"tensor {k}", f"checkpoint {path}",
                              len(shape), bools=True)
        if value.shape != shape:
            raise invalid(f"tensor {k} has shape {value.shape}, not {shape}")
        params[k] = value
    return params, config, doc.get("extra")
