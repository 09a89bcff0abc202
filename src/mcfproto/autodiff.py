"""Reverse-mode differentiation on a small array-valued tape.

The primitive set covers the action head's graph: dense linear layers, tanh,
softmax, the 6D rotation decode, batched matmul, and the three loss shapes.
The head computes that graph in plain numpy with its own backward
(head.loss_total) and builds no tape; the primitives and backward serve the
benchmark's tracer and the tests' reference of the head graph, and Node is
the type of head.HeadOutput's fields. Everything is float64; gradients are
exact vector-Jacobian products, no numerical approximation.

L1 and Smooth-L1 nodes record their residuals as "kink values" so that a
finite-difference check can exclude evaluations that straddle a non-smooth
point; gradcheck runs that check on plain arrays.
"""

import numpy as np

from . import so3


class Node:
    __slots__ = ("value", "parents", "backward_fn", "kinks", "_done")

    def __init__(self, value, parents=(), backward_fn=None, kinks=None):
        self.value = np.asarray(value, dtype=float)
        self.parents = parents
        self.backward_fn = backward_fn
        self.kinks = kinks
        self._done = False

    @property
    def shape(self):
        return self.value.shape


class Param(Node):
    """A tape leaf whose .grad backward accumulates into."""

    __slots__ = ("name", "grad")

    def __init__(self, value, name):
        super().__init__(np.array(value, dtype=float))
        self.name = name
        self.grad = np.zeros_like(self.value)


def constant(value):
    return Node(value)


def _as_node(x):
    return x if isinstance(x, Node) else Node(x)


def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic primitives
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_node(a), _as_node(b)
    out = Node(a.value + b.value, (a, b))
    out.backward_fn = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))
    return out


def sub(a, b):
    a, b = _as_node(a), _as_node(b)
    out = Node(a.value - b.value, (a, b))
    out.backward_fn = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))
    return out


def mul(a, b):
    a, b = _as_node(a), _as_node(b)
    out = Node(a.value * b.value, (a, b))
    out.backward_fn = lambda g: (
        _unbroadcast(g * b.value, a.shape),
        _unbroadcast(g * a.value, b.shape),
    )
    return out


def affine(x, scale, shift=0.0):
    """scale * x + shift with float constants."""
    out = Node(scale * x.value + shift, (x,))
    out.backward_fn = lambda g: (scale * g,)
    return out


def matmul(a, b):
    out = Node(a.value @ b.value, (a, b))

    def backward(g):
        ga = g @ np.swapaxes(b.value, -1, -2)
        gb = np.swapaxes(a.value, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    out.backward_fn = backward
    return out


def transpose(a):
    out = Node(np.swapaxes(a.value, -1, -2), (a,))
    out.backward_fn = lambda g: (np.swapaxes(g, -1, -2),)
    return out


def reshape(a, shape):
    out = Node(a.value.reshape(shape), (a,))
    out.backward_fn = lambda g: (g.reshape(a.shape),)
    return out


def concat_last(parts):
    parts = list(parts)
    sizes = [p.shape[-1] for p in parts]
    out = Node(np.concatenate([p.value for p in parts], axis=-1), tuple(parts))
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            g[..., offsets[i]:offsets[i + 1]] for i in range(len(parts))
        )

    out.backward_fn = backward
    return out


def slice_axis(a, axis, start, stop):
    idx = [slice(None)] * a.value.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Node(a.value[idx], (a,))

    def backward(g):
        full = np.zeros_like(a.value)
        full[idx] = g
        return (full,)

    out.backward_fn = backward
    return out


def take_last(a, indices):
    indices = np.asarray(indices, dtype=int)
    out = Node(a.value[..., indices], (a,))

    def backward(g):
        full = np.zeros_like(a.value)
        np.add.at(full, (..., indices), g)
        return (full,)

    out.backward_fn = backward
    return out


def tanh(a):
    val = np.tanh(a.value)
    out = Node(val, (a,))
    out.backward_fn = lambda g: (g * (1.0 - val * val),)
    return out


def sqrt(a):
    val = np.sqrt(a.value)
    out = Node(val, (a,))
    out.backward_fn = lambda g: (g * 0.5 / val,)
    return out


def softmax(a):
    """Softmax over the last axis (full Jacobian in backward)."""
    s = a.value - a.value.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    out = Node(s, (a,))
    out.backward_fn = lambda g: (s * (g - (s * g).sum(axis=-1, keepdims=True)),)
    return out


def clamp(a, lo, hi):
    """Identity gradient strictly inside [lo, hi], zero outside/at the edges."""
    val = np.clip(a.value, lo, hi)
    inside = (a.value > lo) & (a.value < hi)
    out = Node(val, (a,))
    out.backward_fn = lambda g: (g * inside,)
    return out


def arr_sum(a):
    out = Node(a.value.sum(), (a,))
    out.backward_fn = lambda g: (np.full(a.shape, g),)
    return out


def arr_mean(a):
    n = a.value.size
    out = Node(a.value.mean(), (a,))
    out.backward_fn = lambda g: (np.full(a.shape, g / n),)
    return out


def sum_last2(a):
    """Sum over the last two axes (trace-style reductions on stacked matrices)."""
    out = Node(a.value.sum(axis=(-2, -1)), (a,))
    out.backward_fn = lambda g: (
        np.broadcast_to(g[..., None, None], a.shape).copy(),
    )
    return out


def diagonal(a):
    out = Node(np.diagonal(a.value, axis1=-2, axis2=-1).copy(), (a,))

    def backward(g):
        full = np.zeros_like(a.value)
        idx = np.arange(a.shape[-1])
        full[..., idx, idx] = g
        return (full,)

    out.backward_fn = backward
    return out


def linear(x, W, b):
    """x @ W.T + b for 2-d x (batch, in), W (out, in), b (out,)."""
    out = Node(x.value @ W.value.T + b.value, (x, W, b))
    out.backward_fn = lambda g: (g @ W.value, g.T @ x.value, g.sum(axis=0))
    return out


# ---------------------------------------------------------------------------
# geometry primitives
# ---------------------------------------------------------------------------

def gram_schmidt_6d(p):
    """(…, 6) -> (…, 3, 3) rotation via so3.gram_schmidt, analytic backward."""
    decoded = so3.gram_schmidt(p.value)
    out = Node(decoded[0], (p,))
    out.backward_fn = lambda g: (so3.gram_schmidt_backward(p.value, decoded, g),)
    return out


def compose_protos(pi, dictionary, z):
    """Prototype mixture: out[..., i] = sum_k pi[..., k] (B_k z)[..., i].

    pi: (…, K), dictionary: (K, 3, d), z: (…, d) -> (…, 3).
    """
    k, rows, d = dictionary.shape
    lead = pi.shape[:-1]
    mix = reshape(matmul(pi, reshape(dictionary, (k, rows * d))), lead + (rows, d))
    return reshape(matmul(mix, reshape(z, lead + (d, 1))), lead + (rows,))


def apply_frame(R, v):
    """Rotate vectors by stacked frames: (…, 3, 3) x (…, 3) -> (…, 3)."""
    return reshape(matmul(R, reshape(v, v.shape + (1,))), v.shape)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def l1_loss(pred, target):
    """Sum of absolute residuals; subgradient at 0 is 0."""
    r = pred.value - np.asarray(target, dtype=float)
    out = Node(np.abs(r).sum(), (pred,), kinks=r.ravel().copy())
    out.backward_fn = lambda g: (g * np.sign(r),)
    return out


def smooth_l1_loss(pred, target, beta=1.0):
    """Summed Smooth-L1: 0.5 r^2 / beta inside |r| < beta, |r| - beta/2 outside."""
    r = pred.value - np.asarray(target, dtype=float)
    a = np.abs(r)
    val = np.where(a < beta, 0.5 * r * r / beta, a - 0.5 * beta).sum()
    out = Node(val, (pred,), kinks=(a - beta).ravel().copy())
    out.backward_fn = lambda g: (g * np.where(a < beta, r / beta, np.sign(r)),)
    return out


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Accumulate dLoss/dParam into every reachable Param's .grad.

    Raises RuntimeError on a second call for the same graph.
    """
    if loss.value.ndim != 0:
        raise ValueError("backward requires a scalar loss")
    if loss._done:
        raise RuntimeError("backward already ran on this graph; re-run forward")
    loss._done = True
    order = _topo_order(loss)
    grads = {loss: np.array(1.0)}  # keyed by the node: Node hashes by identity
    for node in reversed(order):
        g = grads.pop(node, None)
        if g is None:
            continue
        if isinstance(node, Param):
            np.add(node.grad, g, out=node.grad)
        if node.backward_fn is None:
            continue
        parent_grads = node.backward_fn(np.asarray(g))
        for p, pg in zip(node.parents, parent_grads):
            acc = grads.get(p)
            grads[p] = pg if acc is None else acc + pg


def collect_kinks(loss):
    vals = [n.kinks for n in _topo_order(loss) if n.kinks is not None]
    if not vals:
        return np.empty(0)
    return np.concatenate(vals)


def gradcheck(params, loss_fn, step=1e-5, rtol=1e-4):
    """Compare analytic gradients with central finite differences.

    params: dict name -> array, perturbed in place. loss_fn re-runs the
    forward pass and returns (loss, kinks, grad): the scalar loss, the
    L1/Smooth-L1 kink values and a callable giving the gradients by name.
    Coordinates whose +/- step evaluations straddle a kink (or come within
    10*step of one) are excluded.

    Returns {name: {"max_rel_err": float, "checked": int, "skipped": int}};
    the overall maximum is under key "__max__".
    """
    loss, _, grad = loss_fn()
    if not np.isfinite(loss):
        raise ValueError("loss is not finite")
    analytic = grad()

    report = {}
    overall = 0.0
    for name, p in params.items():
        g = analytic.get(name, np.zeros(p.shape))  # no gradient given: 0
        max_err = 0.0
        skipped = 0
        for j in np.ndindex(p.shape):
            orig = p[j]
            p[j] = orig + step
            lp, kp, _ = loss_fn()
            p[j] = orig - step
            lm, km, _ = loss_fn()
            p[j] = orig
            moved = np.abs(kp - km) > 1e-12
            near = ((np.abs(kp) < 10 * step) | (np.abs(km) < 10 * step)) & moved
            crossed = np.sign(kp) != np.sign(km)
            if np.any(near | crossed):
                skipped += 1
                continue
            fd = (float(lp) - float(lm)) / (2.0 * step)
            err = abs(g[j] - fd) / max(abs(g[j]), abs(fd), 1e-6)
            max_err = max(max_err, err)
        report[name] = {
            "max_rel_err": max_err,
            "checked": p.size - skipped,
            "skipped": skipped,
        }
        overall = max(overall, max_err)
    report["__max__"] = overall
    report["__pass__"] = overall < rtol
    return report


def scatter_last(part, indices, size):
    """Place (…, k) values at positions `indices` of a zero (…, size) array."""
    indices = np.asarray(indices, dtype=int)
    val = np.zeros(part.shape[:-1] + (size,))
    val[..., indices] = part.value
    out = Node(val, (part,))
    out.backward_fn = lambda g: (g[..., indices],)
    return out
