import numpy as np
import pytest

from mcfproto import autodiff as ad


def fd_grad(loss_fn, param, step=1e-6):
    flat = param.value.reshape(-1)
    g = np.zeros_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        lp = float(loss_fn().value)
        flat[j] = orig - step
        lm = float(loss_fn().value)
        flat[j] = orig
        g[j] = (lp - lm) / (2 * step)
    return g.reshape(param.value.shape)


def analytic_grad(loss_fn, param):
    param.grad = np.zeros_like(param.value)
    ad.backward(loss_fn())
    return param.grad.copy()


def test_softmax_forward():
    s = ad.softmax(ad.constant([0.0, 0.0]))
    assert np.allclose(s.value, [0.5, 0.5])


def test_softmax_sums_to_one_and_jacobian_rows():
    rng = np.random.default_rng(0)
    x = ad.Param(rng.normal(size=(5, 4)), "x")
    s = ad.softmax(x)
    assert np.abs(s.value.sum(axis=-1) - 1.0).max() < 1e-12
    # sum over outputs of d(softmax)/d(logit) is 0: backprop of ones is 0
    loss = ad.arr_sum(s)
    ad.backward(loss)
    assert np.abs(x.grad).max() < 1e-10


def test_smooth_l1_branches():
    n = ad.smooth_l1_loss(ad.constant([0.5]), [0.0], beta=1.0)
    assert n.value == pytest.approx(0.125)
    n = ad.smooth_l1_loss(ad.constant([2.0]), [0.0], beta=1.0)
    assert n.value == pytest.approx(1.5)


def test_l1_subgradient_at_zero():
    x = ad.Param(np.zeros(3), "x")
    loss = ad.l1_loss(x, np.zeros(3))
    ad.backward(loss)
    assert np.all(x.grad == 0.0)


def test_quadratic_grad():
    x = ad.Param(np.array([3.0]), "x")

    def loss_fn():
        return ad.arr_sum(ad.mul(x, x))

    g = analytic_grad(loss_fn, x)
    assert g[0] == pytest.approx(6.0)


def test_backward_twice_raises():
    x = ad.Param(np.array([1.0]), "x")
    loss = ad.arr_sum(ad.mul(x, x))
    ad.backward(loss)
    with pytest.raises(RuntimeError):
        ad.backward(loss)


def test_repeat_backward_identical_grads():
    rng = np.random.default_rng(1)
    x = ad.Param(rng.normal(size=(4, 4)), "x")

    def loss_fn():
        return ad.arr_sum(ad.tanh(ad.matmul(x, x)))

    g1 = analytic_grad(loss_fn, x)
    g2 = analytic_grad(loss_fn, x)
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("op_case", [
    "matmul", "linear", "tanh", "softmax", "gs6d", "compose", "compose_bh",
    "frame", "frame_bh", "clamp", "take", "scatter", "slice", "sumlast2",
    "diag_sqrt",
])
def test_primitive_gradients_match_fd(op_case):
    rng = np.random.default_rng(hash(op_case) % 2 ** 32)
    wrt, tol = None, 1e-6
    if op_case == "matmul":
        x = ad.Param(rng.normal(size=(3, 4)), "x")
        other = ad.constant(rng.normal(size=(4, 2)))
        fn = lambda: ad.arr_sum(ad.tanh(ad.matmul(x, other)))
    elif op_case == "linear":
        x = ad.Param(rng.normal(size=(6, 3)), "x")
        W = ad.constant(rng.normal(size=(2, 3)))
        b = ad.constant(rng.normal(size=2))
        fn = lambda: ad.arr_sum(ad.tanh(ad.linear(x, W, b)))
    elif op_case == "tanh":
        x = ad.Param(rng.normal(size=(5,)), "x")
        fn = lambda: ad.arr_sum(ad.mul(ad.tanh(x), ad.tanh(x)))
    elif op_case == "softmax":
        x = ad.Param(rng.normal(size=(4, 3)), "x")
        w = ad.constant(rng.normal(size=(4, 3)))
        fn = lambda: ad.arr_sum(ad.mul(ad.softmax(x), w))
    elif op_case == "gs6d":
        x = ad.Param(rng.normal(size=(3, 6)), "x")
        w = ad.constant(rng.normal(size=(3, 3, 3)))
        fn = lambda: ad.arr_sum(ad.mul(ad.gram_schmidt_6d(x), w))
    elif op_case == "compose":
        pi = ad.Param(rng.normal(size=(2, 4)), "pi")
        D = ad.Param(rng.normal(size=(4, 3, 3)), "D")
        z = ad.Param(rng.normal(size=(2, 3)), "z")
        w = ad.constant(rng.normal(size=(2, 3)))
        fn = lambda: ad.arr_sum(ad.mul(ad.compose_protos(pi, D, z), w))
        wrt, tol = (pi, D, z), 1e-7
    elif op_case == "compose_bh":
        # the head's (B, H) leading axes, d = 2: the (K, 3d) reshape and the
        # dictionary gradient summed over both leading axes
        pi = ad.Param(rng.normal(size=(2, 3, 4)), "pi")
        D = ad.Param(rng.normal(size=(4, 3, 2)), "D")
        z = ad.Param(rng.normal(size=(2, 3, 2)), "z")
        w = ad.constant(rng.normal(size=(2, 3, 3)))
        fn = lambda: ad.arr_sum(ad.mul(ad.compose_protos(pi, D, z), w))
        wrt, tol = (pi, D, z), 1e-7
    elif op_case == "frame":
        x = ad.Param(rng.normal(size=(2, 6)), "x")
        v = ad.constant(rng.normal(size=(2, 3)))
        w = ad.constant(rng.normal(size=(2, 3)))
        fn = lambda: ad.arr_sum(ad.mul(ad.apply_frame(ad.gram_schmidt_6d(x), v), w))
    elif op_case == "frame_bh":
        x = ad.Param(rng.normal(size=(2, 3, 6)), "x")
        v = ad.Param(rng.normal(size=(2, 3, 3)), "v")
        w = ad.constant(rng.normal(size=(2, 3, 3)))
        fn = lambda: ad.arr_sum(ad.mul(ad.apply_frame(ad.gram_schmidt_6d(x), v), w))
        wrt = (x, v)
    elif op_case == "clamp":
        x = ad.Param(np.array([-2.0, -0.5, 0.5, 2.0]), "x")
        fn = lambda: ad.arr_sum(ad.mul(ad.clamp(x, -1.0, 1.0), ad.constant([1.0, 2, 3, 4])))
    elif op_case == "take":
        x = ad.Param(rng.normal(size=(3, 7)), "x")
        w = ad.constant(rng.normal(size=(3, 3)))
        fn = lambda: ad.arr_sum(ad.mul(ad.take_last(x, [0, 2, 2]), w))
    elif op_case == "scatter":
        x = ad.Param(rng.normal(size=(3, 2)), "x")
        w = ad.constant(rng.normal(size=(3, 5)))
        fn = lambda: ad.arr_sum(ad.mul(ad.scatter_last(x, [1, 3], 5), w))
    elif op_case == "slice":
        x = ad.Param(rng.normal(size=(2, 5, 3)), "x")
        w = ad.constant(rng.normal(size=(2, 3, 3)))
        fn = lambda: ad.arr_sum(ad.mul(ad.slice_axis(x, 1, 1, 4), w))
    elif op_case == "sumlast2":
        x = ad.Param(rng.normal(size=(4, 3, 3)), "x")
        w = ad.constant(rng.normal(size=4))
        fn = lambda: ad.arr_sum(ad.mul(ad.sum_last2(x), w))
    elif op_case == "diag_sqrt":
        g = rng.normal(size=(3, 3))
        spd = ad.constant(g @ g.T + 3 * np.eye(3))
        x = ad.Param(rng.normal(size=(3, 6)), "x")

        def fn():
            R = ad.gram_schmidt_6d(x)
            M = ad.matmul(ad.matmul(ad.transpose(R), spd), R)
            return ad.arr_sum(ad.sqrt(ad.diagonal(M)))
    for p in wrt or (x,):
        a = analytic_grad(fn, p)
        f = fd_grad(fn, p)
        assert np.abs(a - f).max() < tol, p.name


def tape_gradcheck(params, node_fn):
    """ad.gradcheck over `params`, a dict name -> Param, of the loss node that
    node_fn() builds: the adapter hands gradcheck each node's (value, kinks,
    grad), where grad() runs backward into the params."""
    def loss_fn():
        node = node_fn()

        def grad():
            for p in params.values():
                p.grad = np.zeros_like(p.value)
            ad.backward(node)
            return {k: p.grad for k, p in params.items()}

        return node.value, ad.collect_kinks(node), grad

    return ad.gradcheck({k: p.value for k, p in params.items()}, loss_fn)


def test_gradcheck_quadratic():
    x = ad.Param(np.array([1.0, -2.0, 3.0]), "x")
    rep = tape_gradcheck({"x": x}, lambda: ad.arr_sum(ad.mul(x, x)))
    assert rep["__max__"] < 1e-9


def test_gradcheck_decode_chain():
    rng = np.random.default_rng(11)
    p = ad.Param(rng.normal(size=(2, 6)), "p")
    v = ad.constant(rng.normal(size=(2, 3)))
    w = ad.constant(rng.normal(size=(2, 3)))

    def loss_fn():
        return ad.arr_sum(ad.mul(ad.apply_frame(ad.gram_schmidt_6d(p), v), w))

    rep = tape_gradcheck({"p": p}, loss_fn)
    assert rep["__max__"] < 1e-5


def test_gradcheck_rejects_nonfinite():
    x = ad.Param(np.array([np.inf]), "x")
    with pytest.raises(ValueError):
        tape_gradcheck({"x": x}, lambda: ad.arr_sum(x))
