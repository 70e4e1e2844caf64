"""Training orchestration: the joint loop plus the fixed-code and OVA baselines.

Each round trains every column learner once against the current coding
matrix. On cadence rounds (every round for non-boosting learners; for
boosting, starting at `start_round` and then every round(1/alpha) rounds,
since shrinkage slows target fitting), the decoder is trained on the
current training outputs and the matrix takes one class-averaged gradient
step. Validation error is evaluated every round and the best snapshot is
returned.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import codebook, learners, matrix_optimizer, softmax_decoder
from .codebook import CodingMatrix
from .data_io import (
    SparseDataset,
    load_label_map,
    read_csv,
    read_settings,
    save_label_map,
    write_csv,
)
from .errors import (
    ConfigInvalid, DimensionMismatch, EmptyDataset, InvalidArg, MissingClass,
    ParseError, check_settings,
)
from .learners import BaseLearnerEnsemble, LearnerSpec
from .softmax_decoder import DecoderParams

MODE_LIGHTMC = "lightmc"
MODE_ECOC_FIXED = "ecoc_fixed"
MODE_OVA = "ova"
MODES = (MODE_LIGHTMC, MODE_ECOC_FIXED, MODE_OVA)

_META_NAME = "meta.txt"
_META_KEYS = "format mode num_features num_classes code_length best_round".split()
_FILES = {
    "codebook": "codebook.txt",
    "decoder": "decoder.txt",
    "ensemble": "ensemble.txt",
    "history": "history.csv",
    "labels": "labels.map",
}


def _usable_cores() -> int:
    """The cores this process may run on, or all cores where it cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class TrainConfig:
    """All training hyperparameters, and the only source of their defaults.

    code_length may be the string "auto", which applies the built-in
    length rule (raised to the smallest feasible length when the rule
    produces an infeasible binary code). threads defaults to the usable cores.
    """

    code_length: int | str = "auto"
    max_rounds: int = 100
    start_round: int = 30
    learner: LearnerSpec = field(default_factory=LearnerSpec)
    gamma1: float = 0.1
    gamma2: float = 0.2
    decoder_batch: int = 256
    decoder_epochs_per_call: int = 1
    l2: float = 0.0
    seed: int = 0
    early_stop_rounds: int = 20
    mode: str = MODE_LIGHTMC
    threads: int = field(default_factory=_usable_cores)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigInvalid(f"unknown mode {self.mode!r}")
        if self.code_length != "auto":
            check_settings(ConfigInvalid, (("code_length", self.code_length, int, ">= 1"),))
        gamma_bound = ("> 0",) if self.mode == MODE_LIGHTMC else ()
        check_settings(ConfigInvalid, (
            ("max_rounds", self.max_rounds, int, ">= 1"),
            ("start_round", self.start_round, int, ">= 1"),
            ("decoder_batch", self.decoder_batch, int, ">= 1"),
            ("decoder_epochs_per_call", self.decoder_epochs_per_call, int, ">= 0"),
            ("seed", self.seed, int, ">= 0"),
            ("early_stop_rounds", self.early_stop_rounds, int, ">= 0"),
            ("threads", self.threads, int, ">= 1"),
            ("gamma1", self.gamma1, float, *gamma_bound),
            ("gamma2", self.gamma2, float, *gamma_bound),
            ("l2", self.l2, float, ">= 0"),
        ))
        if not isinstance(self.learner, LearnerSpec):
            raise ConfigInvalid(f"learner must be a LearnerSpec, got {self.learner!r}")
        try:
            self.learner.validate()
        except InvalidArg as exc:
            raise ConfigInvalid(str(exc)) from None


class RoundRecord(NamedTuple):
    round: int
    wall_time: float
    train_loss: float
    valid_error: float


@dataclass
class TrainedModel:
    """Final matrix, decoder, and ensemble plus the per-round history."""

    matrix: CodingMatrix
    decoder: DecoderParams
    ensemble: BaseLearnerEnsemble
    history: list[RoundRecord]
    mode: str
    label_names: tuple[str, ...]
    best_round: int

    @property
    def convergence_seconds(self) -> float:
        return self.history[self.best_round - 1].wall_time

    @property
    def num_features(self) -> int:
        return self.ensemble.num_features

    @property
    def num_classes(self) -> int:
        return self.matrix.num_classes


def update_rounds(config: TrainConfig, is_boosting: bool) -> list[int]:
    """Rounds on which decoder/matrix updates fire, within [1, max_rounds]."""
    if not is_boosting:
        return list(range(1, config.max_rounds + 1))
    step = max(1, round(1.0 / config.learner.learning_rate))
    return list(range(config.start_round, config.max_rounds + 1, step))


def _check_classes(data: SparseDataset) -> None:
    counts = np.bincount(data.labels, minlength=data.num_classes)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise MissingClass(
            f"classes {missing.tolist()} have no training instances"
        )


def resolve_code_length(config: TrainConfig, num_classes: int) -> int:
    if config.code_length != "auto":
        return int(config.code_length)
    suggested = codebook.suggested_code_length(num_classes)
    return max(suggested, codebook.min_feasible_code_length(num_classes))


def _decoder_seed(seed: int, round_index: int) -> list[int]:
    return [seed, 104729, round_index]


def fit(
    data: SparseDataset,
    validation: SparseDataset,
    config: TrainConfig,
    *,
    round_hook: Callable[[dict], None] | None = None,
) -> TrainedModel:
    """Run the full training loop and return the best-validation snapshot.

    Mode "ova" trains K learners on the +1/-1 one-vs-rest matrix and never
    updates the matrix or the decoder. Its decoder has weights 2I and
    biases 0, so its scores are the raw outputs bit for bit and it predicts
    the class of the largest output, a tie going to the lowest class.

    `round_hook`, when given, is called once per round with a dict holding
    round, elapsed, train_loss, valid_error, updated (whether decoder and
    matrix updates fired), and the current matrix.
    """
    config.validate()
    _check_classes(data)
    if validation.num_features != data.num_features:
        raise DimensionMismatch(
            "validation feature space does not match training data"
        )
    if validation.num_rows == 0:
        raise EmptyDataset("the validation set has no rows")
    k = data.num_classes
    if config.mode == MODE_OVA:
        matrix = CodingMatrix(2.0 * np.eye(k) - 1.0)
        decoder = DecoderParams(2.0 * np.eye(k), np.zeros(k))
    else:
        matrix = codebook.init_random(k, resolve_code_length(config, k), config.seed)
        decoder = softmax_decoder.init_from_matrix(matrix)

    labels = data.labels
    ensemble = learners.new_ensemble(
        matrix.code_length, config.learner, data.num_features, config.seed
    )
    cadence = set(update_rounds(config, ensemble.is_boosting))

    o_train = np.zeros((data.num_rows, matrix.code_length))
    o_valid = np.zeros((validation.num_rows, matrix.code_length))
    history: list[RoundRecord] = []
    best_error = np.inf
    best: tuple[CodingMatrix, DecoderParams, int] | None = None
    best_linear: tuple[np.ndarray, np.ndarray] | None = None
    stall = 0
    t_start = time.perf_counter()
    prev_elapsed = 0.0

    for i in range(1, config.max_rounds + 1):
        learners.train_round(ensemble, data, matrix, o_train, threads=config.threads)
        learners.accumulate_round_outputs(ensemble, validation, o_valid)

        updated = config.mode == MODE_LIGHTMC and i in cadence
        if updated:
            decoder = softmax_decoder.train_decoding(
                decoder,
                o_train,
                labels,
                config.gamma1,
                batch_size=config.decoder_batch,
                epochs=config.decoder_epochs_per_call,
                l2=config.l2,
                seed=_decoder_seed(config.seed, i),
            )
            grads = softmax_decoder.output_gradients(decoder, o_train, labels)
            stats = matrix_optimizer.accumulate(grads, labels, k)
            matrix = matrix_optimizer.update_matrix(matrix, stats, config.gamma2)

        train_loss = softmax_decoder.mean_loss(decoder, o_train, labels)
        decoded = softmax_decoder.batch_predict(decoder, o_valid)
        valid_error = float(np.mean(decoded != validation.labels))
        elapsed = time.perf_counter() - t_start
        if elapsed <= prev_elapsed:  # keep wall times strictly increasing
            elapsed = float(np.nextafter(prev_elapsed, np.inf))
        prev_elapsed = elapsed
        history.append(RoundRecord(i, elapsed, train_loss, valid_error))
        if round_hook is not None:
            round_hook(
                {
                    "round": i,
                    "elapsed": elapsed,
                    "train_loss": train_loss,
                    "valid_error": valid_error,
                    "updated": updated,
                    "matrix": matrix,
                }
            )

        if valid_error < best_error:
            best_error = valid_error
            best = (matrix, decoder, i)
            if not ensemble.is_boosting:
                best_linear = (ensemble.weights.copy(), ensemble.bias.copy())
            stall = 0
        else:
            stall += 1
            if config.early_stop_rounds and stall >= config.early_stop_rounds:
                break

    assert best is not None
    matrix, decoder, best_round = best
    # boosting adds one tree per round, so the best round is a prefix
    ensemble.rounds_done = best_round
    if ensemble.is_boosting:
        for trees in ensemble.trees:
            del trees[best_round:]
    else:
        ensemble.weights, ensemble.bias = best_linear
    return TrainedModel(
        matrix=matrix,
        decoder=decoder,
        ensemble=ensemble,
        history=history,
        mode=config.mode,
        label_names=data.label_names,
        best_round=best_round,
    )


def predict(model: TrainedModel, data: SparseDataset) -> np.ndarray:
    """Predicted dense class index per instance."""
    outputs = learners.predict_all(model.ensemble, data)
    return softmax_decoder.batch_predict(model.decoder, outputs)


# ---------------------------------------------------------------------------
# model bundle


HISTORY_HEADER = ("round", "elapsed_seconds", "train_loss", "valid_error")


def save_history(history: list[RoundRecord], path) -> None:
    write_csv(path, HISTORY_HEADER, history)


def load_history(path) -> list[RoundRecord]:
    rows = read_csv(path, HISTORY_HEADER, (int, float, float, float))
    return [RoundRecord(*row) for row in rows]


def save_model(model: TrainedModel, out_dir) -> None:
    """Write the directory bundle (codebook, decoder, ensemble, history, labels)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    codebook.save_matrix(model.matrix, out / _FILES["codebook"])
    softmax_decoder.save_params(model.decoder, out / _FILES["decoder"])
    learners.save_ensemble(model.ensemble, out / _FILES["ensemble"])
    save_history(model.history, out / _FILES["history"])
    save_label_map(model.label_names, out / _FILES["labels"])
    # wall times live only in history.csv so the model files stay
    # byte-identical across reruns with the same seed
    meta = ("lightmc-model v1", model.mode, model.num_features, model.num_classes,
            model.matrix.code_length, model.best_round)
    with open(out / _META_NAME, "w", encoding="ascii") as fh:
        for key, val in zip(_META_KEYS, meta):
            fh.write(f"{key}={val}\n")


def load_model(model_dir) -> TrainedModel:
    out = Path(model_dir)
    meta_path = out / _META_NAME
    keys = {key: key for key in _META_KEYS}
    meta = {key: value for _, key, value in read_settings(meta_path, keys)}
    if meta.get("format") != "lightmc-model v1":
        raise ParseError(f"{out}: unrecognized model bundle")
    matrix = codebook.load_matrix(out / _FILES["codebook"])
    decoder = softmax_decoder.load_params(out / _FILES["decoder"])
    ensemble = learners.load_ensemble(out / _FILES["ensemble"])
    history = load_history(out / _FILES["history"])
    label_names = load_label_map(out / _FILES["labels"])
    found = {
        "num_features": {ensemble.num_features},
        "num_classes": {matrix.num_classes, decoder.num_classes, len(label_names)},
        "code_length": {matrix.code_length, decoder.code_length, ensemble.code_length},
    }
    try:
        mode, best_round = meta["mode"], int(meta["best_round"])
        declared = {key: int(meta[key]) for key in found}
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{meta_path}: missing or bad field ({exc})") from None
    if mode not in MODES or not 1 <= best_round <= len(history):
        raise ParseError(f"{meta_path}: bad mode {mode!r} or best_round {best_round}")
    for key, sizes in found.items():
        if sizes != {declared[key]}:
            raise ParseError(
                f"{meta_path}: {key}={declared[key]} does not match "
                f"the bundle files ({', '.join(map(str, sorted(sizes)))})"
            )
    return TrainedModel(
        matrix=matrix,
        decoder=decoder,
        ensemble=ensemble,
        history=history,
        mode=mode,
        label_names=label_names,
        best_round=best_round,
    )
