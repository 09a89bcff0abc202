"""Exact mean pairwise Euclidean distance over all unordered pairs."""

import numpy as np

_BLOCK = 128  # rows per Gram block: a (128, n) slab stays in cache


def pairwise_mean_distance(X):
    """Mean of ||x_i - x_j|| over the row pairs i < j of X, by blocked Gram form on
    centered rows; squared norms by matmul too, so duplicate rows are 0 apart."""
    X = X - X.mean(axis=0)
    n = len(X)
    sq = (X[:, None, :] @ X[:, :, None]).ravel()
    total = 0.0
    for lo in range(0, n - 1, _BLOCK):
        hi = min(lo + _BLOCK, n)
        d2 = (-2.0 * X[lo:hi]) @ X[lo:].T
        d2 += sq[lo:hi, None]
        d2 += sq[lo:]
        np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
        total += np.triu(d2[:, :hi - lo], 1).sum() + d2[:, hi - lo:].sum()
    return total / (n * (n - 1) / 2.0)
