import numpy as np
import pytest

from mcfproto import autodiff as ad
from mcfproto import head, so3


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def smoothness(r_prev, r_cur):
    """Geodesic smoothness 1 - cos(angle) of one frame pair, via the head loss."""
    frames = np.stack([r_prev, r_cur])[None]
    return float(head.loss_smooth_chunk(frames)[0])


def geodesic_cos(r_prev, r_cur):
    return 1.0 - smoothness(r_prev, r_cur)


def test_decode_identity():
    R = so3.decode_6d(np.array([1.0, 0, 0, 0, 1.0, 0]))
    assert np.allclose(R, np.eye(3))


def test_decode_gram_schmidt_quotient():
    # scaling a1 and adding a1-components to a2 are removed by the decode
    R = so3.decode_6d(np.array([2.0, 0, 0, 1.0, 1.0, 0]))
    assert np.allclose(R, np.eye(3))


def test_decode_random_sweep_valid_rotations():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(1000, 6))
    R = so3.decode_6d(p)
    assert np.linalg.norm(R.swapaxes(-1, -2) @ R - np.eye(3),
                          axis=(-2, -1)).max() < 1e-9
    assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-9


def test_decode_quotient_invariance_sweep():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = rng.normal(size=6)
        scale = rng.uniform(0.1, 10.0)
        shift = rng.uniform(-2.0, 2.0)
        q = np.concatenate([scale * p[:3], p[3:] + shift * p[:3]])
        assert np.abs(so3.decode_6d(p) - so3.decode_6d(q)).max() < 1e-9


def test_decode_degenerate():
    with pytest.raises(so3.DegenerateParamError):
        so3.decode_6d(np.zeros(6))
    with pytest.raises(so3.DegenerateParamError):
        so3.decode_6d(np.array([1.0, 0, 0, 2.0, 0, 0]))


def test_geodesic_cos_values():
    R = so3.random_rotation(np.random.default_rng(2))
    assert geodesic_cos(R, R) == pytest.approx(1.0)
    assert geodesic_cos(np.eye(3), rot_z(np.pi / 2)) == pytest.approx(0.0)
    flip = so3.axis_angle_to_rotation(np.array([0, np.pi, 0.0]))
    assert geodesic_cos(np.eye(3), flip) == pytest.approx(-1.0)


def test_smoothness_loss_values():
    R = so3.random_rotation(np.random.default_rng(3))
    assert smoothness(R, R) == pytest.approx(0.0)
    assert smoothness(np.eye(3), rot_z(np.pi / 2)) == pytest.approx(1.0)
    flip = so3.axis_angle_to_rotation(np.array([np.pi, 0, 0.0]))
    assert smoothness(np.eye(3), flip) == pytest.approx(2.0)


def test_smoothness_symmetric_and_left_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        Ra, Rb, Q = so3.random_rotation(rng, size=3)
        l_ab = smoothness(Ra, Rb)
        assert l_ab == pytest.approx(smoothness(Rb, Ra), abs=1e-12)
        assert l_ab == pytest.approx(smoothness(Q @ Ra, Q @ Rb), abs=1e-9)


def test_geodesic_cos_clamped_under_noise():
    rng = np.random.default_rng(5)
    for _ in range(100):
        R = so3.random_rotation(rng)
        noisy = R + rng.normal(0, 1e-7, (3, 3))
        c = geodesic_cos(noisy, noisy)
        assert -1.0 <= c <= 1.0


@pytest.mark.parametrize("shape", [(64, 7, 3), (256, 1, 3), (512, 7, 3), (12800, 3),
                                   (3,)])
def test_cross_is_bitwise_np_cross(shape):
    rng = np.random.default_rng(shape[0])
    a, b = rng.normal(size=(2,) + shape)
    a.flat[::5] = 0.0  # signed zeros in the products and differences
    b.flat[::7] = -0.0
    assert so3.cross(a, b).tobytes() == np.cross(a, b).tobytes()
    # strided views, as the Gram-Schmidt backward passes them
    m = rng.normal(size=shape + (3,))
    assert (so3.cross(m[..., 2], b).tobytes()
            == np.cross(m[..., 2], b).tobytes())
    # every pairing of +-0.0 and nonzero components in the operands: products
    # and differences of signed zeros
    values = np.array([0.0, -0.0, 1.5, -2.0])
    grid = values[np.stack(np.meshgrid(*[np.arange(4)] * 6, indexing="ij"), -1)
                  .reshape(-1, 6)]
    a, b = grid[:, :3], grid[:, 3:]
    assert so3.cross(a, b).tobytes() == np.cross(a, b).tobytes()
    assert so3.cross(b, a).tobytes() == np.cross(b, a).tobytes()


# Test-side copies of the numpy forms that the component sums replaced: the
# code must stay bitwise equal to them.

def reference_gram_schmidt(p):
    a1, a2 = p[..., :3], p[..., 3:]
    n1 = np.linalg.norm(a1, axis=-1, keepdims=True)
    b1 = a1 / n1
    d = (b1 * a2).sum(axis=-1, keepdims=True)
    c2 = a2 - d * b1
    n2 = np.linalg.norm(c2, axis=-1, keepdims=True)
    b2 = c2 / n2
    return np.stack([b1, b2, np.cross(b1, b2)], axis=-1), n1, n2, d


def reference_gram_schmidt_backward(p, g):
    R, n1, n2, d = reference_gram_schmidt(p)
    b1, b2, a2 = R[..., :, 0], R[..., :, 1], p[..., 3:]
    g2 = g[..., :, 1] + np.cross(g[..., :, 2], b1)
    gb1 = g[..., :, 0] + np.cross(b2, g[..., :, 2])
    gc2 = (g2 - (b2 * g2).sum(axis=-1, keepdims=True) * b2) / n2
    proj = (b1 * gc2).sum(axis=-1, keepdims=True)
    ga2 = gc2 - proj * b1
    gb1 = gb1 - proj * a2 - d * gc2
    ga1 = (gb1 - (b1 * gb1).sum(axis=-1, keepdims=True) * b1) / n1
    return np.concatenate([ga1, ga2], axis=-1)


def awkward_params(shape, seed):
    """Random 6D parameters with signed zeros, three -0.0 products in b1 . a2,
    and norms n1 and n2 just above GS_EPS."""
    rng = np.random.default_rng(seed)
    p = rng.normal(size=shape)
    p.flat[::5] = -0.0
    p.flat[::7] = 0.0
    rows = p.reshape(-1, 6)
    special = [[1.0, 0.0, 0.0, -0.0, -1.0, -2.0],  # b1 . a2 sums three -0.0
               [1.5e-8, -0.0, 0.0, 0.3, -0.0, 2.0],  # n1 near GS_EPS
               [1.0, 2.0, 3.0, 2.0, 4.0, 6.0 + 2e-8]]  # n2 near GS_EPS
    rows[:len(special)] = special[:len(rows)]
    return p


@pytest.mark.parametrize("shape", [(6,), (5, 6), (64, 7, 6), (512, 1, 6)])
def test_gram_schmidt_is_bitwise_numpy_reductions(shape):
    p = awkward_params(shape, shape[0])
    out, ref = so3.gram_schmidt(p), reference_gram_schmidt(p)
    if p.size > 12:
        assert out[1].reshape(-1)[1] < 2e-8 and out[2].reshape(-1)[2] < 2e-8
    for got, want in zip(out, ref):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(6,), (5, 6), (64, 7, 6), (512, 1, 6)])
def test_gram_schmidt_6d_backward_is_bitwise_numpy_reductions(shape):
    p = awkward_params(shape, 100 + shape[0])
    g = np.random.default_rng(shape[0]).normal(size=shape[:-1] + (3, 3))
    g.flat[::4] = -0.0
    node = ad.gram_schmidt_6d(ad.constant(p))
    (got,) = node.backward_fn(g)
    assert got.tobytes() == reference_gram_schmidt_backward(p, g).tobytes()


@pytest.mark.parametrize("shape", [(3,), (7, 3), (64, 7, 3), (100000, 3)])
def test_dot_is_bitwise_sum(shape):
    rng = np.random.default_rng(shape[0])
    a, b = rng.normal(size=(2,) + shape) * 10.0 ** rng.integers(-8, 8, (2,) + shape)
    a.flat[::5] = 0.0
    b.flat[::4] = -0.0
    a.reshape(-1, 3)[0], b.reshape(-1, 3)[0] = [0.0, 0.0, -0.0], [-1.0, -2.0, 3.0]
    assert so3.dot(a, b).tobytes() == (a * b).sum(axis=-1, keepdims=True).tobytes()
    m = rng.normal(size=shape[:-1] + (6,))  # strided views
    assert (so3.dot(m[..., 3:], b).tobytes()
            == (m[..., 3:] * b).sum(axis=-1, keepdims=True).tobytes())


def test_rotations_from_draws_is_bitwise_numpy_norm():
    axis, u = so3.draw_rotations(np.random.Generator(np.random.Philox(key=[5, 0])), 500)
    axis[::7, 1] = -0.0
    unit = axis / np.linalg.norm(axis, axis=1, keepdims=True)
    want = so3.axis_angle_to_rotation(unit * so3._uniform_angle(u)[:, None])
    assert so3.rotations_from_draws(axis, u).tobytes() == want.tobytes()


def test_axis_angle():
    assert np.allclose(so3.axis_angle_to_rotation(np.zeros(3)), np.eye(3))
    assert np.allclose(so3.axis_angle_to_rotation(np.array([0, 0, np.pi / 2])),
                       rot_z(np.pi / 2), atol=1e-12)
    rng = np.random.default_rng(7)
    w = rng.normal(size=3)
    R = so3.axis_angle_to_rotation(w) @ so3.axis_angle_to_rotation(-w)
    assert np.abs(R - np.eye(3)).max() < 1e-10


def test_random_rotation_uniform_angle():
    # mean angle of the uniform-SO(3) distribution is pi/2 + 2/pi
    rng = np.random.default_rng(8)
    R = so3.random_rotation(rng, size=10000)
    tr = np.trace(R, axis1=-2, axis2=-1)
    angles = np.arccos(np.clip((tr - 1) / 2, -1, 1))
    expected = np.pi / 2 + 2 / np.pi
    assert abs(angles.mean() - expected) < 0.02


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(9)
    R = so3.random_rotation(rng, size=20)
    assert np.abs(so3.decode_6d(so3.encode_6d(R)) - R).max() < 1e-12


def test_batched_rotations_match_sequential_calls():
    streams = [np.random.Generator(np.random.Philox(key=[4, i])) for i in range(6)]
    sizes = [None, 1, 5, None, 13, 2]
    expected = [so3.random_rotation(rng, size=size).reshape(-1, 3, 3)
                for rng, size in zip(streams, sizes)]
    streams = [np.random.Generator(np.random.Philox(key=[4, i])) for i in range(6)]
    draws = [so3.draw_rotations(rng, 1 if size is None else size)
             for rng, size in zip(streams, sizes)]
    twin = np.random.Generator(np.random.Philox(key=[4, 0]))  # axis first, then u
    assert np.array_equal(draws[0][0], twin.normal(size=(1, 3)))
    assert np.array_equal(draws[0][1], twin.uniform(size=1))
    batched = so3.rotations_from_draws(*map(np.concatenate, zip(*draws)))
    assert np.array_equal(batched, np.concatenate(expected))
    # each stream continues where a random_rotation call would have left it
    after = [np.random.Generator(np.random.Philox(key=[4, i])) for i in range(6)]
    for rng, size in zip(after, sizes):
        so3.random_rotation(rng, size=size)
    assert [r.normal() for r in streams] == [r.normal() for r in after]
