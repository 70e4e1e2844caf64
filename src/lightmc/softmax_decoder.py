"""Differentiable decoding: linear scores, softmax, loss, and gradient training.

Scores are t_k = 0.5 * (theta_k . o + b_k). Initializing theta_k from the
k-th codeword with b_k = L makes argmax(t) reproduce Hamming decoding on
sign outputs, while staying differentiable so both the decoder and the
coding matrix can be refined by gradient descent.

The loss on one instance sums binary cross-entropies over all K softmax
outputs (the true class contributes -log(p), every other class
-log(1 - p)). This is deliberately not the canonical softmax
cross-entropy; the gradients below are derived for exactly this objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import CodingMatrix, check_labels
from .data_io import format_floats, read_float_rows, write_versioned
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArg,
    NonFiniteGradient,
    NonFiniteInput,
)

_HEADER = "lightmc-decoder"

# Probability clamp applied before logs and reciprocals.
_EPS = 1e-12


@dataclass
class DecoderParams:
    """Weights (K x L) and biases (K) of the linear decoding model."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        b = np.array(self.biases, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise DimensionMismatch(
                f"weights {w.shape} and biases {b.shape} are inconsistent"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise NonFiniteInput("decoder parameters must be finite")
        self.weights = w
        self.biases = b

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def code_length(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "DecoderParams":
        return DecoderParams(self.weights.copy(), self.biases.copy())


@dataclass(frozen=True)
class DecodeResult:
    """Scores t, probabilities, and the predicted class for one instance."""

    scores: np.ndarray
    probabilities: np.ndarray
    predicted: int


def init_from_matrix(matrix: CodingMatrix) -> DecoderParams:
    """Decoder whose weights copy the matrix and whose biases all equal L."""
    return DecoderParams(
        matrix.entries.copy(),
        np.full(matrix.num_classes, float(matrix.code_length)),
    )


def _softmax_rows(t: np.ndarray) -> np.ndarray:
    shifted = t - t.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    # keep every probability strictly inside (0, 1) even when exp underflows
    return np.clip(p, 1e-300, np.nextafter(1.0, 0.0))


def batch_scores(params: DecoderParams, outputs: np.ndarray) -> np.ndarray:
    """Scores t for a batch of output rows, shape (N, K)."""
    o = np.asarray(outputs, dtype=np.float64)
    if o.ndim != 2 or o.shape[1] != params.code_length:
        raise DimensionMismatch(
            f"expected (N, {params.code_length}) outputs, got {o.shape}"
        )
    if not np.all(np.isfinite(o)):
        raise NonFiniteInput("base-learner outputs contain NaN/Inf")
    with np.errstate(over="raise"):
        try:
            return 0.5 * (o @ params.weights.T + params.biases)
        except FloatingPointError:
            raise NonFiniteInput(
                "decoder scores overflowed; outputs or weights are too large"
            ) from None


def batch_probabilities(params: DecoderParams, outputs: np.ndarray) -> np.ndarray:
    return _softmax_rows(batch_scores(params, outputs))


def batch_predict(params: DecoderParams, outputs: np.ndarray) -> np.ndarray:
    """Predicted class per row; softmax is monotone so argmax of t suffices."""
    return np.argmax(batch_scores(params, outputs), axis=1)


def decode(params: DecoderParams, outputs: np.ndarray) -> DecodeResult:
    """Decode one output vector into scores, probabilities, and a class."""
    o = np.asarray(outputs, dtype=np.float64)
    if o.shape != (params.code_length,):
        raise DimensionMismatch(
            f"expected {params.code_length} outputs, got shape {o.shape}"
        )
    t = batch_scores(params, o[None, :])[0]
    p = _softmax_rows(t[None, :])[0]
    return DecodeResult(scores=t, probabilities=p, predicted=int(np.argmax(p)))


def loss(probabilities: np.ndarray, label: int) -> float:
    """Summed binary cross-entropy over all K outputs for one instance."""
    p = np.asarray(probabilities, dtype=np.float64)
    if not 0 <= label < p.shape[0]:
        raise IndexOutOfRange(f"label {label} not in [0, {p.shape[0]})")
    p = np.clip(p, _EPS, 1.0 - _EPS)
    log_others = np.log1p(-p)
    return float(-(np.log(p[label]) - log_others[label] + log_others.sum()))


def _batch_score_gradients(
    params: DecoderParams, outputs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """dJ/dt per instance (N x K).

    With d_k = dJ/dp_k (which is 1/(1-p_k) off the label and -1/p_label on
    it), chaining through the softmax Jacobian gives
    dJ/dt_m = p_m * (d_m - sum_k d_k p_k).
    """
    p = batch_probabilities(params, outputs)
    n = p.shape[0]
    pc = np.clip(p, _EPS, 1.0 - _EPS)
    d = 1.0 / (1.0 - pc)
    d[np.arange(n), labels] = -1.0 / pc[np.arange(n), labels]
    zeta = (d * pc).sum(axis=1, keepdims=True)
    return pc * (d - zeta)


def loss_gradients(
    params: DecoderParams, outputs: np.ndarray, label: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of the instance loss.

    Returns (d/dweights: K x L, d/dbiases: K, d/doutputs: L). The score map
    contributes the 0.5 factor everywhere.
    """
    o = np.asarray(outputs, dtype=np.float64)
    if o.shape != (params.code_length,):
        raise DimensionMismatch(
            f"expected {params.code_length} outputs, got shape {o.shape}"
        )
    if not 0 <= label < params.num_classes:
        raise IndexOutOfRange(f"label {label} not in [0, {params.num_classes})")
    dt = _batch_score_gradients(params, o[None, :], np.array([label]))[0]
    return 0.5 * np.outer(dt, o), 0.5 * dt, 0.5 * (dt @ params.weights)


def output_gradients(
    params: DecoderParams, outputs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-instance d(loss)/d(outputs) rows, shape (N, L).

    Vectorized form of the third component of loss_gradients; this is the
    G matrix consumed by the coding-matrix update.
    """
    labels = check_labels(labels, params.num_classes, np.asarray(outputs).shape[0])
    dt = _batch_score_gradients(params, outputs, labels)
    return 0.5 * (dt @ params.weights)


def mean_loss(params: DecoderParams, outputs: np.ndarray, labels: np.ndarray) -> float:
    """Mean instance loss over a batch of output rows."""
    labels = check_labels(labels, params.num_classes, np.asarray(outputs).shape[0])
    p = np.clip(batch_probabilities(params, outputs), _EPS, 1.0 - _EPS)
    n = p.shape[0]
    log_others = np.log1p(-p)
    picked = np.arange(n)
    per_row = -(
        np.log(p[picked, labels])
        - log_others[picked, labels]
        + log_others.sum(axis=1)
    )
    return float(per_row.mean())


def train_decoding(
    params: DecoderParams,
    outputs_batch: np.ndarray,
    labels: np.ndarray,
    lr: float,
    batch_size: int = 256,
    epochs: int = 1,
    l2: float = 0.0,
    seed=0,
) -> DecoderParams:
    """Mini-batch gradient descent on the decoder parameters.

    Instances are shuffled once per epoch with a generator seeded by `seed`;
    the last short batch is kept. Weights take the L2 penalty, biases do
    not. The input params are never mutated.
    """
    o = np.asarray(outputs_batch, dtype=np.float64)
    if o.ndim != 2 or o.shape[1] != params.code_length:
        raise DimensionMismatch(
            f"expected (N, {params.code_length}) outputs, got {o.shape}"
        )
    n = o.shape[0]
    if n < 1:
        raise InvalidArg("need at least one instance")
    labels = check_labels(labels, params.num_classes, n)
    if lr <= 0:
        raise InvalidArg(f"learning rate must be positive, got {lr}")
    if batch_size < 1:
        raise InvalidArg(f"batch size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise InvalidArg(f"epochs must be >= 0, got {epochs}")
    if l2 < 0:
        raise InvalidArg(f"l2 must be >= 0, got {l2}")
    if not np.all(np.isfinite(o)):
        raise NonFiniteInput("base-learner outputs contain NaN/Inf")

    updated = params.copy()
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            dt = _batch_score_gradients(updated, o[idx], labels[idx])
            grad_w = 0.5 * (dt.T @ o[idx]) / idx.size + l2 * updated.weights
            grad_b = 0.5 * dt.mean(axis=0)
            if not (np.all(np.isfinite(grad_w)) and np.all(np.isfinite(grad_b))):
                raise NonFiniteGradient(
                    "decoder gradient is NaN/Inf; lower the learning rate"
                )
            updated.weights -= lr * grad_w
            updated.biases -= lr * grad_b
            if not (
                np.all(np.isfinite(updated.weights))
                and np.all(np.isfinite(updated.biases))
            ):
                raise NonFiniteGradient(
                    "decoder parameters diverged to NaN/Inf during training"
                )
    return updated


def save_params(params: DecoderParams, path) -> None:
    """Text form: header, K weight rows, one final line of K biases."""
    rows = [format_floats(row) for row in (*params.weights, params.biases)]
    write_versioned(path, _HEADER, params.weights.shape, rows)


def load_params(path) -> DecoderParams:
    *weights, biases = read_float_rows(path, _HEADER, tail=1)
    return DecoderParams(np.array(weights), biases)
