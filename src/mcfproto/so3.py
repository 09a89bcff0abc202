"""SO(3) geometry: 6D rotation decode, axis-angle, uniform sampling.

Rotations are plain (…, 3, 3) float arrays; validity means R^T R = I and
det R = +1 within tolerance. The 6D parameterization is two raw 3-vectors
(a1, a2) decoded by Gram-Schmidt plus cross product into columns
(b1, b2, b1 x b2).
"""

import numpy as np

GS_EPS = 1e-8


class DegenerateParamError(ArithmeticError):
    """Raised when a 6D parameter cannot be decoded (near-zero norm or
    near-collinear a1, a2)."""


def cross(a, b, out=None):
    """a x b over the last axis, by components, into `out` if given; bitwise
    equal to np.cross."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]  # np.moveaxis costs more than
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]  # the arithmetic at (64, 7, 3)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape)) if out is None else out
    c0, c1, c2 = out[..., 0], out[..., 1], out[..., 2]
    tmp = np.multiply(a2, b1, out=np.empty(out.shape[:-1]))  # np.cross's steps
    np.multiply(a1, b2, out=c0)
    c0 -= tmp
    np.multiply(a2, b0, out=c1)
    c1 -= np.multiply(a0, b2, out=tmp)
    np.multiply(a0, b1, out=c2)
    c2 -= np.multiply(a1, b0, out=tmp)
    return out


def dot(a, b):
    """a . b over a last axis of size 3, kept as an axis of size 1, by
    components; bitwise equal to (a * b).sum(axis=-1, keepdims=True). numpy
    adds fewer than 8 terms in order, starting from +0.0, so three -0.0
    products sum to +0.0 here too."""
    s = a[..., 0:1] * b[..., 0:1]
    s += a[..., 1:2] * b[..., 1:2]
    s += a[..., 2:3] * b[..., 2:3]
    s += 0.0
    return s


def gram_schmidt(p):
    """Gram-Schmidt decode of 6D parameters (…, 6) into rotations (…, 3, 3).

    Columns are (b1, b2, b1 x b2) with b1 = a1 / n1 and b2 = c2 / n2, where
    c2 = a2 - d b1 and d = b1 . a2. Returns (R, n1, n2, d), the norms and
    the projection with a trailing axis of size 1, for the analytic
    backward. Raises DegenerateParamError when n1 or n2 is below GS_EPS.
    """
    a1, a2 = p[..., :3], p[..., 3:]
    n1 = np.sqrt(dot(a1, a1))
    if (n1 < GS_EPS).any():
        raise DegenerateParamError("first 6D column has near-zero norm")
    R = np.empty(p.shape[:-1] + (3, 3))  # columns b1, b2, b1 x b2
    b1 = np.divide(a1, n1, out=R[..., :, 0])
    d = dot(b1, a2)
    c2 = a2 - d * b1
    n2 = np.sqrt(dot(c2, c2))
    if (n2 < GS_EPS).any():
        raise DegenerateParamError("6D columns are near-collinear")
    b2 = np.divide(c2, n2, out=R[..., :, 1])
    cross(b1, b2, R[..., :, 2])
    return R, n1, n2, d


def gram_schmidt_backward(p, decoded, g):
    """The gradient with respect to p, (…, 6), from g, the gradient with
    respect to the rotations; decoded is gram_schmidt(p)."""
    R, n1, n2, d = decoded
    b1, b2, a2 = R[..., :, 0], R[..., :, 1], p[..., 3:]
    g2 = g[..., :, 1] + cross(g[..., :, 2], b1)
    gb1 = g[..., :, 0] + cross(b2, g[..., :, 2])
    # b2 = c2 / |c2|
    gc2 = (g2 - dot(b2, g2) * b2) / n2
    # c2 = a2 - (b1.a2) b1
    proj = dot(b1, gc2)
    ga2 = gc2 - proj * b1
    gb1 = gb1 - proj * a2 - d * gc2
    # b1 = a1 / |a1|
    ga1 = (gb1 - dot(b1, gb1) * b1) / n1
    return np.concatenate([ga1, ga2], axis=-1)


def decode_6d(p):
    """Decode 6D rotation parameters (…, 6) to rotation matrices (…, 3, 3).

    Raises DegenerateParamError for non-finite or degenerate parameters
    (see gram_schmidt).
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 6:
        raise ValueError(f"expected trailing dimension 6, got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DegenerateParamError("non-finite 6D parameters")
    return gram_schmidt(p)[0]


def encode_6d(R):
    """First two columns of R, flattened to (…, 6). Left inverse of decode_6d."""
    R = np.asarray(R, dtype=float)
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


def axis_angle_to_rotation(w):
    """Rodrigues formula: rotation vector (…, 3) -> rotation matrix (…, 3, 3)."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)
    out = np.broadcast_to(np.eye(3), w.shape[:-1] + (3, 3)).copy()
    mask = theta > 0
    if not np.any(mask):
        return out
    flat_w = w.reshape(-1, 3)
    flat_t = theta.reshape(-1)
    flat_out = out.reshape(-1, 3, 3)
    idx = np.nonzero(flat_t > 0)[0]
    axis = flat_w[idx] / flat_t[idx, None]
    K = np.zeros((len(idx), 3, 3))
    K[:, 0, 1] = -axis[:, 2]
    K[:, 0, 2] = axis[:, 1]
    K[:, 1, 0] = axis[:, 2]
    K[:, 1, 2] = -axis[:, 0]
    K[:, 2, 0] = -axis[:, 1]
    K[:, 2, 1] = axis[:, 0]
    s = np.sin(flat_t[idx])[:, None, None]
    c = (1.0 - np.cos(flat_t[idx]))[:, None, None]
    flat_out[idx] = np.eye(3) + s * K + c * (K @ K)
    return flat_out.reshape(out.shape)


def _uniform_angle(u):
    # bisection for t in [0, pi] with uniform-SO(3) CDF (t - sin t)/pi = u;
    # elementwise, so a batch of many streams' u gives each stream's angles
    lo = np.zeros(u.shape)
    hi = np.full(u.shape, np.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cdf = (mid - np.sin(mid)) / np.pi
        take_hi = cdf < u
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    return 0.5 * (lo + hi)


def draw_rotations(rng, n):
    """The random numbers behind n Haar rotations: (axis (n, 3), u (n,))."""
    return rng.normal(size=(n, 3)), rng.uniform(size=n)


def rotations_from_draws(axis, u):
    """Rotations (n, 3, 3) from draw_rotations output, of one stream or many."""
    axis = axis / np.sqrt(dot(axis, axis))
    return axis_angle_to_rotation(axis * _uniform_angle(u)[:, None])


def random_rotation(rng, size=None):
    """Uniform (Haar) random rotation(s) via random axis + uniform-SO(3) angle."""
    n = 1 if size is None else int(np.prod(size))
    R = rotations_from_draws(*draw_rotations(rng, n))
    return R[0] if size is None else R.reshape(tuple(np.atleast_1d(size)) + (3, 3))
