"""Coding matrices: construction, validation, Hamming decoding, and distances.

A coding matrix assigns each of the K classes a length-L codeword (one row).
Column j defines the regression target of base learner j. Fresh matrices are
binary (entries in {-1, +1}); gradient refinement later makes them
real-valued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import format_floats, read_float_rows, write_versioned
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InfeasibleCode,
    InvalidArg,
    ParseError,
    check_settings,
)

_HEADER = "lightmc-codebook"
_MAX_REDRAWS = 100_000


@dataclass(frozen=True, eq=False)
class CodingMatrix:
    """Immutable K x L matrix whose rows are per-class codewords.

    Refinement never mutates an instance; it produces a new matrix
    (see matrix_optimizer.update_matrix).
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.float64)
        if m.ndim != 2:
            raise InvalidArg(f"coding matrix must be 2-D, got ndim={m.ndim}")
        num_classes, code_length = m.shape
        check_settings(InvalidArg, (
            ("num_classes", num_classes, int, ">= 3"),
            ("code_length", code_length, int, ">= 1"),
        ))
        if not np.all(np.isfinite(m)):
            raise InvalidArg("coding matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def num_classes(self) -> int:
        return self.entries.shape[0]

    @property
    def code_length(self) -> int:
        return self.entries.shape[1]

    def row(self, k: int) -> np.ndarray:
        check_settings(IndexOutOfRange, (("k", k, int, ">= 0", f"< {self.num_classes}"),))
        return self.entries[k]


def check_labels(labels, num_classes: int, n_rows: int) -> np.ndarray:
    """`n_rows` class labels as int64, each a row index of a K-row matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n_rows,):
        raise DimensionMismatch(f"expected {n_rows} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise IndexOutOfRange(f"labels must lie in [0, {num_classes})")
    return labels


def is_valid_binary(matrix: CodingMatrix) -> bool:
    """True when the matrix is a valid binary initialization.

    Requires all entries in {-1, +1}, no two identical rows, no two
    complementary rows, and no constant column.
    """
    m = matrix.entries
    if not np.all(np.abs(m) == 1.0):
        return False
    if _first_bad_row(m) is not None:
        return False
    return _first_constant_column(m) is None


def _first_bad_row(m: np.ndarray) -> int | None:
    """Index of the first row identical or complementary to an earlier one."""
    seen: set[bytes] = set()
    for i in range(m.shape[0]):
        key = m[i].tobytes()
        if key in seen or (-m[i]).tobytes() in seen:
            return i
        seen.add(key)
    return None


def _first_constant_column(m: np.ndarray) -> int | None:
    for j in range(m.shape[1]):
        if np.all(m[:, j] == m[0, j]):
            return j
    return None


def init_random(num_classes: int, code_length: int, seed: int) -> CodingMatrix:
    """Draw a random valid binary coding matrix, deterministic per seed.

    Entries are i.i.d. uniform over {-1, +1}; rows violating the
    distinct/non-complementary constraint and constant columns are redrawn
    until the matrix is valid.
    """
    check_settings(InvalidArg, (
        ("num_classes", num_classes, int, ">= 3"),
        ("code_length", code_length, int, ">= 1"),
        ("seed", seed, int, ">= 0"),
    ))
    if 2 ** (code_length - 1) <= num_classes:
        raise InfeasibleCode(
            f"2^(L-1) = {2 ** (code_length - 1)} <= K = {num_classes}: "
            "no valid binary matrix of this size exists"
        )
    rng = np.random.default_rng(seed)

    def draw(n: int) -> np.ndarray:
        return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0

    m = draw(num_classes * code_length).reshape(num_classes, code_length)
    for _ in range(_MAX_REDRAWS):
        bad_row = _first_bad_row(m)
        if bad_row is not None:
            m[bad_row] = draw(code_length)
            continue
        bad_col = _first_constant_column(m)
        if bad_col is not None:
            m[:, bad_col] = draw(num_classes)
            continue
        return CodingMatrix(m)
    raise InvalidArg(
        f"could not sample a valid {num_classes}x{code_length} matrix "
        f"after {_MAX_REDRAWS} redraws"
    )


def suggested_code_length(num_classes: int) -> int:
    """Default code length: round(min(5*log2(K-1) + 1, K/2)), at least 1.

    Rounding is Python's round (ties to even).
    """
    check_settings(InvalidArg, (("num_classes", num_classes, int, ">= 3"),))
    raw = min(5.0 * math.log2(num_classes - 1) + 1.0, num_classes / 2.0)
    return max(1, round(raw))


def min_feasible_code_length(num_classes: int) -> int:
    """Smallest L with 2^(L-1) > K, i.e. the shortest feasible binary code."""
    check_settings(InvalidArg, (("num_classes", num_classes, int, ">= 3"),))
    return int(num_classes).bit_length() + 1


def hamming_decode(matrix: CodingMatrix, outputs: np.ndarray) -> int:
    """Classic non-differentiable decoding.

    Returns argmin_k of 0.5 * sum_j |M_kj - sgn(o_j)| with sgn(0) = +1.
    Ties break toward the lowest class index. Depends only on the signs of
    the outputs.
    """
    o = np.asarray(outputs, dtype=np.float64)
    if o.shape != (matrix.code_length,):
        raise DimensionMismatch(
            f"expected {matrix.code_length} outputs, got shape {o.shape}"
        )
    signs = np.where(o >= 0.0, 1.0, -1.0)
    distances = 0.5 * np.abs(matrix.entries - signs).sum(axis=1)
    return int(np.argmin(distances))


def check_class_pair(num_classes: int, class_a: int, class_b: int) -> None:
    """Raise IndexOutOfRange unless both are class indices below num_classes."""
    rule = (int, ">= 0", f"< {num_classes}")
    check_settings(IndexOutOfRange, (("class_a", class_a, *rule), ("class_b", class_b, *rule)))


def codeword_distance(matrix: CodingMatrix, class_a: int, class_b: int) -> float:
    """Squared Euclidean distance between two codewords.

    On binary rows this equals 4x the Hamming distance, so distance reports
    stay comparable before and after the matrix becomes real-valued.
    """
    check_class_pair(matrix.num_classes, class_a, class_b)
    diff = matrix.entries[class_a] - matrix.entries[class_b]
    return float(np.dot(diff, diff))


def save_matrix(matrix: CodingMatrix, path) -> None:
    """Write the versioned text form: header line, then one row per line."""
    rows = [format_floats(row) for row in matrix.entries]
    write_versioned(path, _HEADER, matrix.entries.shape, rows)


def load_matrix(path) -> CodingMatrix:
    rows = read_float_rows(path, _HEADER)
    try:
        return CodingMatrix(np.array(rows))
    except InvalidArg as exc:
        raise ParseError(f"{path}: {exc}", line=1) from None
