"""Accuracy and reduction metrics used throughout the evaluation (Section 7).

All statistics are implemented from scratch (Spearman included) so this
module needs nothing beyond numpy; tests cross-check against scipy.
"""

from __future__ import annotations

import numpy as np

from ..errors import AlgorithmError
from ..partition.partition import Partition

__all__ = [
    "mean_absolute_relative_error",
    "rank_array",
    "spearman_rank_correlation",
    "scc_size_distribution",
    "average_degree",
]


def mean_absolute_relative_error(
    ground_truth: np.ndarray, estimates: np.ndarray
) -> float:
    """MARE: ``mean(|gt - est| / gt)`` (Table 4).

    Ground-truth influences are always >= 1 (a seed activates itself), so the
    division is safe; zeros are rejected to surface upstream mistakes.
    """
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    estimates = np.asarray(estimates, dtype=np.float64)
    if ground_truth.shape != estimates.shape:
        raise AlgorithmError("ground truth and estimates must align")
    if (ground_truth <= 0).any():
        raise AlgorithmError("ground-truth influences must be positive")
    return float(np.mean(np.abs(ground_truth - estimates) / ground_truth))


def rank_array(values: np.ndarray) -> np.ndarray:
    """Fractional (mid) ranks with ties averaged, 1-based."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's RCC: Pearson correlation of the mid-rank transforms."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.size < 2:
        raise AlgorithmError("need two aligned arrays with at least 2 entries")
    ra, rb = rank_array(a), rank_array(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0.0:
        return 1.0  # both rankings are constant => perfectly concordant
    return float((ra * rb).sum() / denom)


def scc_size_distribution(partition: Partition) -> dict[int, int]:
    """Histogram ``{block size: count}`` for Figure 7."""
    sizes = partition.block_sizes()
    unique, counts = np.unique(sizes, return_counts=True)
    return {int(s): int(c) for s, c in zip(unique, counts)}


def average_degree(n: int, m: int) -> float:
    """Average degree ``m / n`` (the density diagnostic of Section 7.4)."""
    if n == 0:
        return 0.0
    return m / n
