"""LightMC: multiclass decomposition with trainable codes and decoding.

Decomposes a K-class problem into L per-column regression problems through
a coding matrix, decodes with a differentiable softmax layer initialized
from that matrix, and refines both the decoder and the matrix by gradient
descent while the base learners train.
"""

from .codebook import (
    CodingMatrix,
    codeword_distance,
    hamming_decode,
    init_random,
    suggested_code_length,
)
from .data_io import SparseDataset, load_sparse_text, save_sparse_text, stratified_split
from .learners import (
    BaseLearnerEnsemble,
    LearnerSpec,
    make_targets,
    new_ensemble,
    predict_all,
    train_round,
)
from .matrix_optimizer import ClassGradientStats, accumulate, update_matrix
from .softmax_decoder import (
    DecodeResult,
    DecoderParams,
    decode,
    init_from_matrix,
    loss,
    loss_gradients,
    train_decoding,
)
from .trainer import TrainConfig, TrainedModel, fit, predict

__version__ = "0.1.0"

__all__ = [
    "BaseLearnerEnsemble",
    "ClassGradientStats",
    "CodingMatrix",
    "DecodeResult",
    "DecoderParams",
    "LearnerSpec",
    "SparseDataset",
    "TrainConfig",
    "TrainedModel",
    "accumulate",
    "codeword_distance",
    "decode",
    "fit",
    "hamming_decode",
    "init_from_matrix",
    "init_random",
    "load_sparse_text",
    "loss",
    "loss_gradients",
    "make_targets",
    "new_ensemble",
    "predict",
    "predict_all",
    "save_sparse_text",
    "stratified_split",
    "suggested_code_length",
    "train_decoding",
    "train_round",
    "update_matrix",
]
