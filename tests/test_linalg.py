import numpy as np
import pytest

from mcfproto import linalg


def test_diagonal_matrix():
    e = linalg.sym_eigen(np.diag([4.0, 1.0, 0.25]))
    assert np.allclose(e.values, [4.0, 1.0, 0.25])
    # eigenvectors are signed permutation of identity columns
    assert np.allclose(np.abs(e.vectors), np.eye(3))


def test_identity_isotropic():
    e = linalg.sym_eigen(np.eye(3))
    assert np.allclose(e.values, 1.0)
    assert np.allclose(e.vectors.T @ e.vectors, np.eye(3), atol=1e-12)


def test_random_spd_reconstruction():
    rng = np.random.default_rng(0)
    G = rng.normal(size=(6, 6))
    A = G @ G.T + np.eye(6)
    e = linalg.sym_eigen(A)
    assert np.linalg.norm(e.vectors @ np.diag(e.values) @ e.vectors.T - A) < 1e-9


def test_eigen_reconstruction_sweep():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = rng.integers(2, 9)
        A = rng.uniform(-1, 1, (n, n))
        A = 0.5 * (A + A.T)
        e = linalg.sym_eigen(A)
        norm_a = np.linalg.norm(A)
        recon = e.vectors @ np.diag(e.values) @ e.vectors.T
        assert np.linalg.norm(recon - A) < 1e-9 * (1 + norm_a)
        assert np.allclose(e.vectors.T @ e.vectors, np.eye(n), atol=1e-9)
        assert np.all(np.diff(e.values) <= 1e-12)
        # eigenvalue sum equals trace
        assert abs(e.values.sum() - np.trace(A)) <= 1e-10 * max(abs(np.trace(A)), 1)


def test_rejects_nonsymmetric_and_nonfinite():
    with pytest.raises(linalg.LinalgError):
        linalg.sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(linalg.LinalgError):
        linalg.sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(linalg.LinalgError):
        linalg.sym_eigen(np.eye(17))


def test_covariance_antipodal():
    cov = linalg.covariance([[1.0, 0, 0], [-1.0, 0, 0]])
    assert np.allclose(cov, np.diag([2.0, 0, 0]))


def test_covariance_identical_samples():
    cov = linalg.covariance([[1.0, 2, 3]] * 5)
    assert np.allclose(cov, 0.0)


def test_covariance_standard_normal():
    rng = np.random.default_rng(7)
    cov = linalg.covariance(rng.normal(size=(10000, 3)))
    assert np.abs(cov - np.eye(3)).max() < 0.1


def test_covariance_errors():
    with pytest.raises(linalg.LinalgError):
        linalg.covariance([[1.0, 2.0]])


def test_covariance_trace_invariant_under_fixed_rotation():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 3))
    from mcfproto import so3

    Q = so3.random_rotation(np.random.default_rng(5))
    t1 = np.trace(linalg.covariance(X))
    t2 = np.trace(linalg.covariance(X @ Q.T))
    assert abs(t1 - t2) < 1e-10 * max(t1, 1)

