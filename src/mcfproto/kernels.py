"""Exact mean pairwise Euclidean distance over all unordered pairs."""

import numpy as np


def pairwise_mean_distance(X):
    n = X.shape[0]
    total = 0.0
    for i in range(n - 1):
        diff = X[i + 1:] - X[i]
        total += np.sqrt((diff * diff).sum(axis=1)).sum()
    return total / (n * (n - 1) / 2.0)
