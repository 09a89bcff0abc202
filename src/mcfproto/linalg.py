"""Small dense linear algebra: symmetric eigendecomposition, covariance."""

from dataclasses import dataclass

import numpy as np

MAX_DIM = 16


class LinalgError(ValueError):
    pass


@dataclass(frozen=True)
class SymmetricEigen:
    """Eigendecomposition of a symmetric matrix.

    values are sorted descending; vectors[:, i] is the orthonormal
    eigenvector paired with values[i].
    """

    values: np.ndarray
    vectors: np.ndarray


def check_finite(a, name="array"):
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise LinalgError(f"{name} contains non-finite entries")
    return a


def sym_eigen(A):
    """Eigendecomposition of a small symmetric matrix.

    Raises LinalgError for non-symmetric, non-finite, or oversized input.
    Eigenvector signs are fixed so the largest-magnitude component of each
    vector is nonnegative.
    """
    A = check_finite(A, "matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > MAX_DIM:
        raise LinalgError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    scale = np.abs(A).max()
    if scale > 0 and np.abs(A - A.T).max() > 1e-12 * max(scale, 1.0):
        raise LinalgError("matrix is not symmetric")
    A = 0.5 * (A + A.T)
    w, V = np.linalg.eigh(A)
    w = w[::-1]
    V = V[:, ::-1]
    # deterministic sign convention
    for i in range(n):
        j = np.argmax(np.abs(V[:, i]))
        if V[j, i] < 0:
            V[:, i] = -V[:, i]
    return SymmetricEigen(values=w, vectors=V)


def covariance(samples):
    """Unbiased (N-1 denominator) sample covariance about the sample mean.

    samples: (N, dim) array or sequence of equal-length vectors.
    """
    X = check_finite(np.asarray(samples, dtype=float), "samples")
    if X.ndim != 2:
        raise LinalgError(f"expected a 2-d sample array, got shape {X.shape}")
    n = X.shape[0]
    if n < 2:
        raise LinalgError("covariance needs at least 2 samples")
    X = X - X.mean(axis=0)
    return (X.T @ X) / (n - 1)

