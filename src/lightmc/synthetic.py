"""Synthetic benchmark data: Gaussian blobs arranged as correlated class pairs.

Classes come in pairs sharing a common center; the two classes of a pair
sit a small offset apart (hard to tell apart) while different pairs are far
apart. This geometry makes class correlation visible in codeword-distance
reports and in the benefit of refining the coding matrix.
"""

from __future__ import annotations

import numpy as np

from .data_io import SparseDataset, from_dense
from .errors import InvalidArg, check_settings


def make_paired_blobs(
    num_pairs: int = 10,
    train_per_class: int = 200,
    test_per_class: int = 100,
    num_features: int = 20,
    seed: int = 0,
    center_scale: float = 6.0,
    pair_gap: float = 2.0,
    noise: float = 1.0,
) -> tuple[SparseDataset, SparseDataset, list[tuple[int, int]]]:
    """Draw train and test blob datasets with K = 2 * num_pairs classes.

    Returns (train, test, pairs) where pairs lists the correlated class
    index pairs (2p, 2p + 1).
    """
    check_settings(InvalidArg, (
        ("num_pairs", num_pairs, int, ">= 2"),
        ("train_per_class", train_per_class, int, ">= 1"),
        ("test_per_class", test_per_class, int, ">= 1"),
        ("num_features", num_features, int, ">= 1"),
        ("seed", seed, int, ">= 0"),
    ))
    rng = np.random.default_rng(seed)
    num_classes = 2 * num_pairs
    centers = np.empty((num_classes, num_features))
    for p in range(num_pairs):
        base = rng.normal(0.0, center_scale, num_features)
        direction = rng.normal(0.0, 1.0, num_features)
        direction /= np.linalg.norm(direction)
        centers[2 * p] = base + 0.5 * pair_gap * direction
        centers[2 * p + 1] = base - 0.5 * pair_gap * direction

    def draw_split(per_class: int) -> tuple[np.ndarray, np.ndarray]:
        x = np.empty((num_classes * per_class, num_features))
        y = np.empty(num_classes * per_class, dtype=np.int64)
        for k in range(num_classes):
            sl = slice(k * per_class, (k + 1) * per_class)
            x[sl] = centers[k] + rng.normal(0.0, noise, (per_class, num_features))
            y[sl] = k
        order = rng.permutation(x.shape[0])
        return x[order], y[order]

    names = tuple(str(k) for k in range(num_classes))
    train_x, train_y = draw_split(train_per_class)
    test_x, test_y = draw_split(test_per_class)
    pairs = [(2 * p, 2 * p + 1) for p in range(num_pairs)]
    return (
        from_dense(train_x, train_y, names),
        from_dense(test_x, test_y, names),
        pairs,
    )
