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
    check_settings,
)

_HEADER = "lightmc-decoder"

# Model probabilities are clamped to [_EPS, 1 - _EPS] before logs and reciprocals.
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
        return DecoderParams(self.weights, self.biases)  # __post_init__ copies


@dataclass(frozen=True)
class DecodeResult:
    """Scores t, probabilities, and the predicted class for one instance."""

    scores: np.ndarray
    probabilities: np.ndarray
    predicted: int


def init_from_matrix(matrix: CodingMatrix) -> DecoderParams:
    """Decoder whose weights copy the matrix and whose biases all equal L."""
    return DecoderParams(
        matrix.entries, np.full(matrix.num_classes, float(matrix.code_length))
    )


def _softmax_rows(t: np.ndarray) -> np.ndarray:
    """Row softmax; the one place model probabilities are clamped."""
    e = np.exp(t - t.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return np.clip(p, _EPS, 1.0 - _EPS, out=p)


def _outputs(params: DecoderParams, outputs, ndim: int = 2) -> np.ndarray:
    """Base-learner outputs as float64: `ndim` axes, the last of length L, all finite."""
    o = np.asarray(outputs, dtype=np.float64)
    if o.ndim != ndim or o.shape[-1] != params.code_length:
        raise DimensionMismatch(
            f"expected {ndim}-D outputs of length {params.code_length}, got {o.shape}"
        )
    if not np.all(np.isfinite(o)):
        raise NonFiniteInput("base-learner outputs contain NaN/Inf")
    return o


def batch_scores(params: DecoderParams, outputs: np.ndarray) -> np.ndarray:
    """Scores t for a batch of output rows, shape (N, K)."""
    return _scores(params, _outputs(params, outputs))


def _scores(params: DecoderParams, o: np.ndarray) -> np.ndarray:
    """`batch_scores` of a block `_outputs` has already checked."""
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
    t = _scores(params, _outputs(params, outputs, ndim=1)[None, :])[0]
    p = _softmax_rows(t[None, :])[0]
    return DecodeResult(scores=t, probabilities=p, predicted=int(np.argmax(p)))


def _row_losses(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Instance loss per row of clamped probabilities (N x K)."""
    rows = np.arange(p.shape[0])
    log_others = np.log1p(-p)
    return -(np.log(p[rows, labels]) - log_others[rows, labels] + log_others.sum(axis=1))


def loss(probabilities: np.ndarray, label: int) -> float:
    """Summed binary cross-entropy over the K probabilities, clamped, of one instance."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1:
        raise DimensionMismatch(f"expected 1-D probabilities, got {p.shape}")
    check_settings(IndexOutOfRange, (("label", label, int, ">= 0", f"< {p.shape[0]}"),))
    return float(_row_losses(np.clip(p, _EPS, 1.0 - _EPS)[None, :], [label])[0])


def _batch_score_gradients(
    params: DecoderParams, outputs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """dJ/dt per instance (N x K) of a checked output block.

    With d_k = dJ/dp_k (which is 1/(1-p_k) off the label and -1/p_label on
    it), chaining through the softmax Jacobian gives
    dJ/dt_m = p_m * (d_m - sum_k d_k p_k).
    """
    p = _softmax_rows(_scores(params, outputs))
    rows = np.arange(p.shape[0])
    d = 1.0 / (1.0 - p)
    d[rows, labels] = -1.0 / p[rows, labels]
    zeta = (d * p).sum(axis=1, keepdims=True)
    return p * (d - zeta)


def loss_gradients(
    params: DecoderParams, outputs: np.ndarray, label: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of the instance loss.

    Returns (d/dweights: K x L, d/dbiases: K, d/doutputs: L). The score map
    contributes the 0.5 factor everywhere.
    """
    o = _outputs(params, outputs, ndim=1)
    check_settings(IndexOutOfRange, (
        ("label", label, int, ">= 0", f"< {params.num_classes}"),
    ))
    dt = _batch_score_gradients(params, o[None, :], np.array([label]))[0]
    return 0.5 * np.outer(dt, o), 0.5 * dt, 0.5 * (dt @ params.weights)


def output_gradients(
    params: DecoderParams, outputs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-instance d(loss)/d(outputs) rows, shape (N, L).

    Vectorized form of the third component of loss_gradients; this is the
    G matrix consumed by the coding-matrix update.
    """
    o = _outputs(params, outputs)
    labels = check_labels(labels, params.num_classes, o.shape[0])
    return 0.5 * (_batch_score_gradients(params, o, labels) @ params.weights)


def mean_loss(params: DecoderParams, outputs: np.ndarray, labels: np.ndarray) -> float:
    """Mean instance loss over a batch of output rows."""
    o = _outputs(params, outputs)
    labels = check_labels(labels, params.num_classes, o.shape[0])
    return float(_row_losses(_softmax_rows(_scores(params, o)), labels).mean())


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
    o = _outputs(params, outputs_batch)
    n = o.shape[0]
    if n < 1:
        raise InvalidArg("need at least one instance")
    labels = check_labels(labels, params.num_classes, n)
    check_settings(InvalidArg, (
        ("lr", lr, float, "> 0"),
        ("batch_size", batch_size, int, ">= 1"),
        ("epochs", epochs, int, ">= 0"),
        ("l2", l2, float, ">= 0"),
    ))

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
