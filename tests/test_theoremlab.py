import tracemalloc

import numpy as np
import pytest

from mcfproto import so3
from mcfproto import theoremlab as tl


SIGMA_DIAG = np.diag([4.0, 1.0, 0.25])


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_gaussian_c():
    assert tl.GAUSSIAN_C == pytest.approx(np.sqrt(2 / np.pi))
    # Monte-Carlo E|z| for a standard normal
    z = np.random.default_rng(0).normal(size=500000)
    assert np.abs(z).mean() == pytest.approx(tl.GAUSSIAN_C, abs=2e-3)


def test_sigma_sqrt():
    rng = np.random.default_rng(1)
    G = rng.normal(size=(3, 3))
    sigma = G @ G.T + 0.5 * np.eye(3)
    root = tl.sigma_sqrt(sigma)
    assert np.abs(root @ root - sigma).max() < 1e-10
    assert np.abs(root - root.T).max() < 1e-10
    with pytest.raises(ValueError):
        tl.sigma_sqrt(np.diag([1.0, -1.0]))


def test_j_closed_form_diagonal():
    # identity frame on a diagonal covariance: sum of sqrt eigenvalues
    assert tl.j_closed_form(np.eye(3), SIGMA_DIAG, c=1.0) == pytest.approx(3.5)


def test_j_closed_form_45_degrees():
    # mixing the 4 and 1 eigenvalues: diag becomes (2.5, 2.5, 0.25)
    val = tl.j_closed_form(rot_z(np.pi / 4), SIGMA_DIAG, c=1.0)
    assert val == pytest.approx(2 * np.sqrt(2.5) + 0.5)
    assert val > 3.5  # strictly worse than the eigenframe


def test_j_closed_form_rejects_nonorthogonal():
    with pytest.raises(ValueError):
        tl.j_closed_form(np.eye(3) * 2.0, SIGMA_DIAG)


def test_j_scaling_law():
    # J(R; s * sigma) = sqrt(s) * J(R; sigma)
    rng = np.random.default_rng(2)
    sigma = tl.random_spd(rng, 3)
    R = so3.random_rotation(rng)
    a = tl.j_closed_form(R, 2.0 * sigma)
    b = tl.j_closed_form(R, sigma)
    assert a == pytest.approx(np.sqrt(2.0) * b)


def test_analytic_minimum():
    assert tl.analytic_minimum(SIGMA_DIAG, c=1.0) == pytest.approx(3.5)
    # rotation invariance of the spectrum
    rng = np.random.default_rng(3)
    Q = so3.random_rotation(rng)
    assert tl.analytic_minimum(Q @ SIGMA_DIAG @ Q.T, c=1.0) == pytest.approx(3.5)


def test_sampler_covariance_and_determinism():
    rng = np.random.default_rng(4)
    sigma = tl.random_spd(rng, 3)
    s = tl.EllipticalSampler(sigma, seed=7)
    a = draw(s, 200000)
    emp = a.T @ a / len(a)
    assert np.abs(emp - sigma).max() < 0.1
    assert np.array_equal(draw(s, 100), draw(s, 100))
    assert not np.array_equal(draw(s, 100, stream=0), draw(s, 100, stream=1))


def draw(sampler, n, stream=0):
    """The sampler's blocks as one (n, dim) array."""
    return np.concatenate(list(sampler.sample(n, stream)))


@pytest.mark.parametrize("n, sizes", [(999, [999]), (1000, [1000]),
                                      (2001, [1000, 1000, 1])])
def test_sampler_blocks_are_one_whole_draw(monkeypatch, n, sizes):
    monkeypatch.setattr(tl, "_BLOCK", 1000)
    sampler = tl.EllipticalSampler(tl.random_spd(np.random.default_rng(8), 5), seed=4)
    blocks = list(sampler.sample(n, stream=2))
    assert [len(b) for b in blocks] == sizes
    rng = np.random.Generator(np.random.Philox(key=[4, 2]))
    whole = rng.standard_normal((n, 5)) @ sampler.root.T
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


def test_mc_matches_closed_form():
    rng = np.random.default_rng(5)
    sigma = tl.random_spd(rng, 3)
    sampler = tl.EllipticalSampler(sigma, seed=9)
    R = so3.random_rotation(rng)
    mc, se = tl.j_monte_carlo(R, sampler, 10 ** 5)
    assert abs(mc - tl.j_closed_form(R, sigma)) <= 3.0 * se


def test_mc_requires_enough_samples():
    with pytest.raises(ValueError):
        tl.j_monte_carlo(np.eye(3), tl.EllipticalSampler(np.eye(3)), 10)


def reference_j_monte_carlo(R, sampler, n, stream):
    """j_monte_carlo as written with rng.normal and .sum(axis=1)."""
    rng = np.random.Generator(np.random.Philox(key=[sampler.seed, stream]))
    a = rng.normal(size=(n, sampler.dim)) @ sampler.root.T @ R
    per_sample = np.abs(a).sum(axis=1)
    return float(per_sample.mean()), float(per_sample.std(ddof=1) / np.sqrt(n))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_j_monte_carlo_is_bitwise_reference(dim, monkeypatch):
    rng = np.random.default_rng(40 + dim)
    sampler = tl.EllipticalSampler(tl.random_spd(rng, dim), seed=dim)
    R = tl._random_orthogonal(rng, dim)
    # at the module's block size, then at a small one: fewer rows than a
    # block, one block, and two blocks and a row
    for block, n in ((tl._BLOCK, 20000), (1500, 1000), (1500, 1500), (1500, 3001)):
        monkeypatch.setattr(tl, "_BLOCK", block)
        for stream in (0, 3):
            got = tl.j_monte_carlo(R, sampler, n, stream)
            want = reference_j_monte_carlo(R, sampler, n, stream)
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_j_monte_carlo_memory_grows_with_n_not_with_dim():
    # the (n,) per-sample array and the standard error's one temporary of
    # it, plus a few blocks; a whole (n, 6) draw would be 6 * 8n bytes
    rng = np.random.default_rng(9)
    sampler = tl.EllipticalSampler(tl.random_spd(rng, 6), seed=1)
    R = tl._random_orthogonal(rng, 6)
    n = 2 * 10 ** 5
    tracemalloc.start()
    try:
        tl.j_monte_carlo(R, sampler, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n


def test_minimize_3d_lands_on_eigenframe():
    rng = np.random.default_rng(6)
    sigma = tl.random_spd(rng, 3, eigengap_ratio=1.2)
    res = tl.minimize_over_so(sigma, restarts=8, seed=0)
    assert res["converged"]
    assert abs(res["j_star"] - res["j_analytic"]) <= 1e-6 * res["j_analytic"]
    assert res["alignment"]["max_angle_deg"] <= 0.5


def test_minimize_diagonal_sigma():
    res = tl.minimize_over_so(SIGMA_DIAG, c=1.0, restarts=4, seed=1)
    assert res["j_star"] == pytest.approx(3.5, abs=1e-6)
    # optimal frame is a signed permutation of the identity
    mag = np.abs(res["R_star"])
    ones = np.abs(mag - 1.0) < 0.01
    assert np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1)
    assert np.all(ones | (mag < 0.01))


def test_minimize_general_dim_2():
    sigma = np.diag([9.0, 1.0])
    res = tl.minimize_over_so(sigma, c=1.0, restarts=4, seed=2)
    assert res["j_star"] == pytest.approx(4.0, abs=1e-6)


def test_minimize_general_dim_4():
    # dims 4 to 6 at random_spd's default eigengap
    rng = np.random.default_rng(7)
    for dim in (4, 5, 6):
        sigma = tl.random_spd(rng, dim)
        res = tl.minimize_over_so(sigma, restarts=6, seed=3)
        assert res["converged"], dim
        assert res["alignment"]["max_angle_deg"] <= 0.5, dim


def reference_derivatives(R, sigma, c):
    """_derivatives from the second-order expansion of the Cayley map,
    cayley(theta) = I + 2A + 2A^2 + O(A^3) with A = sum_p theta_p E_p, so
    M(theta) = M + 2(MA - AM) + 2(A^2 M + M A^2 - 2AMA) + O(A^3)."""
    dim = len(R)
    a, b = np.triu_indices(dim, 1)
    pairs = np.arange(len(a))
    E = np.zeros((len(a), dim, dim))
    E[pairs, a, b], E[pairs, b, a] = 1.0, -1.0
    M = R.T @ sigma @ R
    s = np.sqrt(np.diag(M))
    first = 2 * np.einsum("pii->pi", np.einsum("ij,pjk->pik", M, E)
                          - np.einsum("pij,jk->pik", E, M))
    second = 2 * np.einsum("pqii->pqi", np.einsum("pij,qjk,kl->pqil", E, E, M)
                           + np.einsum("ij,pjk,qkl->pqil", M, E, E)
                           - 2 * np.einsum("pij,jk,qkl->pqil", E, M, E))
    second = second + second.transpose(1, 0, 2)
    grad = c * first @ (0.5 / s)
    hess = c * (second @ (0.5 / s) - np.einsum("pi,qi,i->pq", first, first,
                                               0.25 / s ** 3))
    return grad, hess


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_body_grad_matches_central_differences(dim):
    # the gradient and Hessian of theta -> J(R cayley(theta)) at theta = 0,
    # against finite differences and the second-order expansion
    rng = np.random.default_rng(11 + dim)
    sigma = tl.random_spd(rng, dim)
    R = tl._random_orthogonal(rng, dim)

    def j(theta):
        return tl.j_closed_form(R @ tl._cayley(theta, dim), sigma)

    grad, hess = tl._derivatives(R, sigma, tl.GAUSSIAN_C)
    basis = np.eye(dim * (dim - 1) // 2)
    fd = [(j(e) - j(-e)) / 2e-6 for e in basis * 1e-6]
    assert np.linalg.norm(grad - fd) <= 1e-7 * np.linalg.norm(fd)
    eps = 1e-4
    fd = [[(j(e + f) - j(e - f) - j(f - e) + j(-e - f)) / (4 * eps * eps)
           for f in basis * eps] for e in basis * eps]
    assert np.array_equal(hess, hess.T)
    assert np.linalg.norm(hess - fd) <= 1e-6 * np.linalg.norm(fd)
    ref_grad, ref_hess = reference_derivatives(R, sigma, tl.GAUSSIAN_C)
    assert np.abs(grad - ref_grad).max() <= 1e-13 * np.abs(ref_grad).max()
    assert np.abs(hess - ref_hess).max() <= 1e-13 * np.abs(ref_hess).max()


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_minimize_converges_to_analytic_minimum(dim):
    # 15 Newton steps reach the closed-form minimum to rounding
    rng = np.random.default_rng(30 + dim)
    for seed in range(6):
        sigma = tl.random_spd(rng, dim)
        res = tl.minimize_over_so(sigma, restarts=8, seed=seed)
        assert abs(res["j_star"] - res["j_analytic"]) <= 1e-12 * res["j_analytic"]
        assert res["alignment"]["max_angle_deg"] <= 0.01


def test_minimize_rejects_bad_dim():
    with pytest.raises(ValueError):
        tl.minimize_over_so(np.eye(7))


def test_minimize_rejects_no_restarts():
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        tl.minimize_over_so(SIGMA_DIAG, restarts=0)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_restart_axis_matches_per_matrix_calls(dim):
    # restarts stacked on a leading axis do not interact: every row is
    # bitwise what the same restart gives alone
    rng = np.random.default_rng(20 + dim)
    sigma = tl.random_spd(rng, dim)
    thetas = rng.normal(0.0, 0.5, (4, dim * (dim - 1) // 2))
    Rs = tl._cayley(thetas, dim)
    assert np.array_equal(Rs, [tl._cayley(t, dim) for t in thetas])
    grad, hess = tl._derivatives(Rs, sigma, tl.GAUSSIAN_C)
    one = [tl._derivatives(R, sigma, tl.GAUSSIAN_C) for R in Rs]
    assert np.array_equal(grad, [g for g, _ in one])
    assert np.array_equal(hess, [h for _, h in one])
    R, j = tl._minimize(sigma, tl.GAUSSIAN_C, thetas, dim)
    for row, theta0 in enumerate(thetas):
        R_one, j_one = tl._minimize(sigma, tl.GAUSSIAN_C, theta0[None], dim)
        assert np.array_equal(R[row], R_one[0])
        assert j[row] == j_one[0]


def test_alignment_report_degenerate_eigenspace():
    # isotropic sigma: every rotation is an eigenframe, angles must be ~0
    rep = tl.alignment_report(so3.random_rotation(np.random.default_rng(8)),
                              np.eye(3))
    assert rep["max_angle_deg"] < 1e-6


def test_majorization_identity_and_example():
    res = tl.majorization_check(SIGMA_DIAG, np.eye(3))
    assert res["pass"]
    assert res["trace_gap"] == pytest.approx(0.0, abs=1e-12)
    assert res["sqrt_sum_margin"] == pytest.approx(0.0, abs=1e-12)
    # 45-degree mix: diag (2.5, 2.5, 0.25) majorized by (4, 1, 0.25),
    # sqrt-sum strictly larger
    res = tl.majorization_check(SIGMA_DIAG, rot_z(np.pi / 4))
    assert res["pass"]
    assert res["sqrt_sum_margin"] == pytest.approx(2 * np.sqrt(2.5) + 0.5 - 3.5)
    assert np.all(res["partial_sum_margins"] >= 0.0)


def test_majorization_sweep():
    rng = np.random.default_rng(9)
    for _ in range(500):
        sigma = tl.random_spd(rng, 3)
        R = so3.random_rotation(rng)
        assert tl.majorization_check(sigma, R)["pass"]


def test_random_spd_eigengap():
    rng = np.random.default_rng(10)
    from mcfproto import linalg
    for dim in (2, 3, 4):
        sigma = tl.random_spd(rng, dim, eigengap_ratio=1.1)
        lam = linalg.sym_eigen(sigma).values
        assert np.all(lam > 0)
        assert np.all(lam[:-1] / lam[1:] > 1.1)


def test_verify_small_sweep():
    res = tl.verify(dim=3, trials=3, seed=0, mc_samples=20000, restarts=4)
    assert res["pass"]
    assert len(res["checks"]) == 3
    for c in res["checks"]:
        assert c["mc_vs_closed"]["pass"]
        assert c["minimization"]["pass"]
        assert c["majorization"]["pass"]
