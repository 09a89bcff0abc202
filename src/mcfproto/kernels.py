"""Exact mean pairwise Euclidean distance over all unordered pairs."""

import numpy as np

_BLOCK = 64  # rows per Gram block: a (64, n) slab stays in cache


def pairwise_mean_distance(X):
    """Mean of ||x_i - x_j|| over the row pairs i < j of X, by blocked Gram form on
    centered rows augmented to [-2x, |x|^2, 1] and [x, 1, |x|^2], one matmul per
    block; squared norms by matmul too, so duplicate rows are 0 apart."""
    X = X - X.mean(axis=0)
    n = len(X)
    sq = (X[:, None, :] @ X[:, :, None]).ravel()
    ones = np.ones(n)
    left = np.column_stack([-2.0 * X, sq, ones])
    right = np.column_stack([X, ones, sq])
    lower = np.tril(np.ones((_BLOCK, _BLOCK), dtype=bool))  # i >= j in a diagonal block
    slab = np.empty(_BLOCK * n)  # every block's squared distances, in turn
    total = 0.0
    for lo in range(0, n - 1, _BLOCK):
        hi = min(lo + _BLOCK, n)
        d2 = np.matmul(left[lo:hi], right[lo:].T,
                       out=slab[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo))
        d2[:, :hi - lo][lower[:hi - lo, :hi - lo]] = 0.0
        np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
        total += d2.sum()
    return total / (n * (n - 1) / 2.0)
