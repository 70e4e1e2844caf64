"""Coding-matrix refinement from class-averaged output gradients.

Each instance contributes a gradient row G_i = d(loss)/d(outputs); the
matrix update treats the per-class average of these rows as the gradient of
the loss with respect to that class's codeword and takes a plain descent
step. Classes absent from the batch keep their codeword bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import CodingMatrix, check_labels
from .errors import DimensionMismatch, InvalidArg, NonFiniteGradient, check_settings


@dataclass(frozen=True)
class ClassGradientStats:
    """Per-class gradient sums (K x L) and instance counts (K)."""

    sums: np.ndarray
    counts: np.ndarray


def accumulate(
    grad_rows: np.ndarray, labels: np.ndarray, num_classes: int
) -> ClassGradientStats:
    """Sum gradient rows by class, in instance order.

    sums[k] = sum of grad_rows[i] over i with labels[i] == k,
    counts[k] = number of such instances.
    """
    g = np.asarray(grad_rows, dtype=np.float64)
    if g.ndim != 2:
        raise DimensionMismatch(f"gradient rows must be 2-D, got ndim={g.ndim}")
    check_settings(InvalidArg, (("num_classes", num_classes, int, ">= 1"),))
    labels = check_labels(labels, num_classes, g.shape[0])
    sums = np.zeros((num_classes, g.shape[1]))
    np.add.at(sums, labels, g)
    counts = np.bincount(labels, minlength=num_classes).astype(np.int64)
    return ClassGradientStats(sums=sums, counts=counts)


def update_matrix(
    matrix: CodingMatrix, stats: ClassGradientStats, lr: float
) -> CodingMatrix:
    """One descent step on the codewords: M_k -= lr * sums_k / counts_k.

    Rows whose class count is zero are copied unchanged (the average
    gradient is undefined there).
    """
    check_settings(InvalidArg, (("lr", lr, float, "> 0"),))
    if stats.sums.shape != matrix.entries.shape:
        raise DimensionMismatch(
            f"stats shape {stats.sums.shape} does not match matrix "
            f"{matrix.entries.shape}"
        )
    if stats.counts.shape != (matrix.num_classes,):
        raise DimensionMismatch(
            f"counts shape {stats.counts.shape}, expected ({matrix.num_classes},)"
        )
    new = matrix.entries.copy()
    present = stats.counts > 0
    new[present] -= lr * stats.sums[present] / stats.counts[present, None]
    if not np.all(np.isfinite(new)):
        raise NonFiniteGradient("coding-matrix update produced NaN/Inf entries")
    return CodingMatrix(new)
