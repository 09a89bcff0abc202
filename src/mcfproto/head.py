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
from . import store
from .config import ACTION_DIM, HeadConfig

CHECKPOINT_SCHEMA = 2


@dataclass
class HeadOutput:
    """Forward-pass bundle; fields are tape nodes (use .value for arrays)."""

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


def init_params(config, rng):
    """Initialize all trainable tensors.

    The frame head's final layer starts near (e1, e2) so the initial frames
    are approximately identity, keeping the Gram-Schmidt decode far from
    degeneracy. Every architecture variant draws the same tensors in the
    same order, so seed-matched ablation rows share initialization wherever
    shapes coincide. Prototype dictionaries start at the tight-frame floor
    of the orthogonality penalty (see _init_dictionary).
    """
    c = config
    n_grip = ACTION_DIM - 6

    def dense(name, out_dim, in_dim, std=None):
        std = 1.0 / np.sqrt(in_dim) if std is None else std
        return ad.Param(rng.normal(0.0, std, (out_dim, in_dim)), name)

    params = {
        "enc.w1": dense("enc.w1", c.hidden, c.obs_dim),
        "enc.b1": ad.Param(np.zeros(c.hidden), "enc.b1"),
        "enc.w2": dense("enc.w2", c.hidden, c.hidden),
        "enc.b2": ad.Param(np.zeros(c.hidden), "enc.b2"),
        "frame.w1": dense("frame.w1", c.hidden, c.hidden),
        "frame.b1": ad.Param(np.zeros(c.hidden), "frame.b1"),
        "frame.w2": dense("frame.w2", c.horizon * 6, c.hidden, std=1e-3),
        "frame.b2": ad.Param(
            np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], c.horizon), "frame.b2"
        ),
        "gate_t.w": dense("gate_t.w", c.horizon * c.k_trans, c.hidden),
        "gate_t.b": ad.Param(np.zeros(c.horizon * c.k_trans), "gate_t.b"),
        "gate_r.w": dense("gate_r.w", c.horizon * c.k_rot, c.hidden),
        "gate_r.b": ad.Param(np.zeros(c.horizon * c.k_rot), "gate_r.b"),
        "scale_t.w": dense("scale_t.w", c.horizon * c.d, c.hidden),
        "scale_t.b": ad.Param(np.zeros(c.horizon * c.d), "scale_t.b"),
        "scale_r.w": dense("scale_r.w", c.horizon * c.d, c.hidden),
        "scale_r.b": ad.Param(np.zeros(c.horizon * c.d), "scale_r.b"),
        "rest.w": dense("rest.w", c.horizon * n_grip, c.hidden),
        "rest.b": ad.Param(np.zeros(c.horizon * n_grip), "rest.b"),
        "dict_trans": ad.Param(
            _init_dictionary(rng, c.k_trans, c.d), "dict_trans"
        ),
        "dict_rot": ad.Param(
            _init_dictionary(rng, c.k_rot, c.d, roll_atoms=True), "dict_rot"
        ),
    }
    return params


def encode(obs, params):
    """Two-layer tanh encoder: observation features -> latent h."""
    obs = obs if isinstance(obs, ad.Node) else ad.constant(obs)
    h1 = ad.tanh(ad.linear(obs, params["enc.w1"], params["enc.b1"]))
    return ad.tanh(ad.linear(h1, params["enc.w2"], params["enc.b2"]))


def predict_frame(h, params, config):
    """Frame head: latent -> per-step rotations (B, H, 3, 3).

    Raises so3.DegenerateParamError when a predicted 6D parameter cannot be
    decoded.
    """
    batch = h.shape[0]
    fh = ad.tanh(ad.linear(h, params["frame.w1"], params["frame.b1"]))
    p6 = ad.linear(fh, params["frame.w2"], params["frame.b2"])
    p6 = ad.reshape(p6, (batch, config.horizon, 6))
    return ad.gram_schmidt_6d(p6)


def compose_local(h, params, config, kind):
    """Gating-weighted prototype composition for one dictionary.

    kind is "trans" or "rot"; returns (local (B,H,3), pi, z) nodes.
    """
    prefix = "t" if kind == "trans" else "r"
    k = config.k_trans if kind == "trans" else config.k_rot
    batch = h.shape[0]
    logits = ad.linear(h, params[f"gate_{prefix}.w"], params[f"gate_{prefix}.b"])
    pi = ad.softmax(ad.reshape(logits, (batch, config.horizon, k)))
    z = ad.linear(h, params[f"scale_{prefix}.w"], params[f"scale_{prefix}.b"])
    z = ad.reshape(z, (batch, config.horizon, config.d))
    local = ad.compose_protos(pi, params[f"dict_{kind}"], z)
    return local, pi, z


def head_forward(obs, params, config):
    """Full forward pass; obs is (B, obs_dim)."""
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    batch = obs.shape[0]
    h = encode(obs, params)
    if config.learn_frame:
        frames = predict_frame(h, params, config)
    else:
        frames = ad.constant(
            np.broadcast_to(np.eye(3), (batch, config.horizon, 3, 3)).copy()
        )
    local_t, pi_t, z_t = compose_local(h, params, config, "trans")
    local_r, pi_r, z_r = compose_local(h, params, config, "rot")
    world_t = ad.apply_frame(frames, local_t)
    world_r = ad.apply_frame(frames, local_r)
    rest = ad.linear(h, params["rest.w"], params["rest.b"])
    rest = ad.reshape(rest, (batch, config.horizon, ACTION_DIM - 6))
    world = ad.concat_last([world_t, world_r, rest])
    return HeadOutput(
        latent=h,
        frames=frames,
        gating_trans=pi_t,
        gating_rot=pi_r,
        scales_trans=z_t,
        scales_rot=z_r,
        local_trans=local_t,
        local_rot=local_r,
        world_action=world,
    )


def first_slot(params, config):
    """The head cut to horizon slot 0, (params, config with horizon 1), whose
    head_forward is the full one's [:, :1]. Each per-slot head is laid out
    slot-major, so slot 0 is its leading 1/horizon of rows; the other tensors
    pass through."""
    per_slot = {"frame.w2", "frame.b2", *(f"{name}.{t}" for t in "wb" for name in (
        "gate_t", "gate_r", "scale_t", "scale_r", "rest"))}
    cut = {k: ad.Param(p.value[:len(p.value) // config.horizon], k) if k in per_slot
           else p for k, p in params.items()}
    return cut, replace(config, horizon=1)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def loss_act(pred, target, beta):
    """Summed action loss: L1 on trans and grip blocks, Smooth-L1 on rot."""
    target = np.asarray(target, dtype=float)
    lt = ad.l1_loss(ad.slice_axis(pred, -1, 0, 3), target[..., 0:3])
    lg = ad.l1_loss(ad.slice_axis(pred, -1, 6, ACTION_DIM), target[..., 6:])
    lr = ad.smooth_l1_loss(ad.slice_axis(pred, -1, 3, 6), target[..., 3:6], beta)
    return ad.add(ad.add(lt, lg), lr)


def loss_ortho(dict_trans, dict_rot):
    """Gram-matrix orthogonality penalty on both dictionaries.

    Each 3xd prototype is flattened (row-major) to a length-3d vector; the
    flattened prototypes form the columns of a (3d x K) matrix B and the
    penalty is ||B^T B - I_K||_F^2, summed over the two dictionaries.
    """
    total = None
    for dic in (dict_trans, dict_rot):
        k = dic.shape[0]
        flat = ad.reshape(dic, (k, dic.shape[1] * dic.shape[2]))
        gram = ad.matmul(flat, ad.transpose(flat))
        err = ad.sub(gram, np.eye(k))
        term = ad.arr_sum(ad.mul(err, err))
        total = term if total is None else ad.add(total, term)
    return total


def loss_smooth_chunk(frames):
    """Mean geodesic smoothness over consecutive frame pairs within chunks.

    frames: (B, H, 3, 3) node; returns a scalar node (0 if H == 1).
    """
    horizon = frames.shape[1]
    if horizon < 2:  # trainer.train warns once per run
        return ad.constant(0.0)
    prev = ad.slice_axis(frames, 1, 0, horizon - 1)
    cur = ad.slice_axis(frames, 1, 1, horizon)
    tr = ad.sum_last2(ad.mul(prev, cur))
    cos = ad.clamp(ad.affine(tr, 0.5, -0.5), -1.0, 1.0)
    return ad.arr_mean(ad.affine(cos, -1.0, 1.0))


def loss_total(obs, targets, params, config):
    """Total objective on a batch of chunks.

    obs: (B, obs_dim); targets: (B, H, ACTION_DIM). Returns (loss_node, parts)
    where parts holds the float values of the individual terms.
    """
    out = head_forward(obs, params, config)
    n_steps = out.world_action.value.shape[0] * out.world_action.value.shape[1]
    act = ad.affine(loss_act(out.world_action, targets, config.beta), 1.0 / n_steps)
    ortho = loss_ortho(params["dict_trans"], params["dict_rot"])
    smooth = loss_smooth_chunk(out.frames)
    total = ad.add(
        act,
        ad.add(
            ad.affine(ortho, config.lambda_ortho),
            ad.affine(smooth, config.lambda_smooth),
        ),
    )
    parts = {
        "loss_act": float(act.value),
        "loss_ortho": float(ortho.value),
        "loss_smooth": float(smooth.value),
        "loss_total": float(total.value),
    }
    return total, parts


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
        "params": {k: p.value.tolist() for k, p in params.items()},
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
    expected = init_params(config, np.random.default_rng(0))
    if set(doc["params"]) != set(expected):
        raise invalid(f"tensors {sorted(doc['params'])} are not {sorted(expected)}")
    params = {}
    for k, p in expected.items():
        value = store.numbers(doc["params"][k], f"tensor {k}", f"checkpoint {path}",
                              p.value.ndim, bools=True)
        if value.shape != p.shape:
            raise invalid(f"tensor {k} has shape {value.shape}, not {p.shape}")
        params[k] = ad.Param(value, k)
    return params, config, doc.get("extra")
