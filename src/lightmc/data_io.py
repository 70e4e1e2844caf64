"""Sparse labeled datasets: text loading, saving, and stratified splits.

The text convention is one instance per line, `<label> <idx>:<val> ...`,
with 1-based feature indices by default. Labels may be arbitrary tokens;
they are densified to [0, K) in order of first appearance and the mapping
is kept for reporting and for loading evaluation files consistently.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyFile,
    InvalidArg,
    ParseError,
    TooFewInstances,
)

MAX_FEATURE_INDEX = 2**31 - 1  # the 32-bit feature ids of LIBSVM-format readers


@dataclass(frozen=True, eq=False)
class SparseDataset:
    """Row-sparse feature matrix (CSR arrays) with dense integer labels.

    Immutable after construction; per-row feature indices are strictly
    increasing. `label_names[k]` is the original token of dense class k,
    which the text formats hold only if it is a nonblank token not led by '#'.
    Trees read the entries through one cached copy sorted by (feature,
    value): `sorted_entries`, and `columns`, its per-feature offsets.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    num_features: int
    num_classes: int
    label_names: tuple[str, ...]

    def __post_init__(self):
        for name in ("indptr", "indices", "labels"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        for name in self.label_names:
            if fault := _label_name_fault(name):
                raise InvalidArg(fault)

    @property
    def num_rows(self) -> int:
        return self.indptr.shape[0] - 1

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    @cached_property
    def _row_ids(self) -> np.ndarray:
        """Row index of every stored entry, in storage order."""
        return np.repeat(np.arange(self.num_rows), np.diff(self.indptr))

    @cached_property
    def sorted_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All stored entries sorted by (feature, value): (features, values, rows).

        The one sorted copy of the entries, built once per dataset. Tree
        training partitions this order down the tree instead of re-sorting
        per node; `columns` slices it by feature.
        """
        order = np.lexsort((self.values, self.indices))
        return self.indices[order], self.values[order], self._row_ids[order]

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column-major view: (col_indptr, entry_rows, entry_values).

        Feature f's entries are `[col_indptr[f], col_indptr[f + 1])` of the
        row and value arrays of `sorted_entries`, so within a column they
        are ordered by value, not by row.
        """
        _, values, rows = self.sorted_entries
        counts = np.bincount(self.indices, minlength=self.num_features)
        return np.concatenate(([0], np.cumsum(counts))), rows, values


def _label_name_fault(name: str) -> str | None:
    """Why the text formats cannot hold a label name, or None if they can."""
    if name.split() != [name] or name.startswith("#"):
        return f"label name {name!r} must be one token not starting with '#'"
    return None


def from_dense(
    features: np.ndarray,
    labels: np.ndarray,
    label_names: tuple[str, ...] | None = None,
) -> SparseDataset:
    """Build a dataset from a dense array, dropping exact zeros."""
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or labels.shape != (x.shape[0],):
        raise InvalidArg("features must be (N, F) with one label per row")
    num_classes = int(labels.max()) + 1 if labels.size else 0
    if label_names is None:
        label_names = tuple(str(k) for k in range(num_classes))
    rows, cols = np.nonzero(x)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=x.shape[0]))))
    return SparseDataset(
        indptr=indptr,
        indices=cols,
        values=x[rows, cols],
        labels=labels,
        num_features=x.shape[1],
        num_classes=num_classes,
        label_names=label_names,
    )


def load_sparse_text(
    path,
    *,
    zero_based: bool = False,
    num_features: int | None = None,
    label_names: tuple[str, ...] | None = None,
) -> SparseDataset:
    """Parse the sparse text format.

    Blank lines and lines starting with '#' are skipped. Feature indices
    must be strictly increasing within a line. When `label_names` is given
    the file's label tokens must all appear in it (used to keep train and
    evaluation label spaces aligned); otherwise tokens are densified by
    first appearance. `num_features` acts as a lower bound on the feature
    count; indices at or beyond it raise ParseError so a model's feature
    space is never silently exceeded. A file index above MAX_FEATURE_INDEX
    raises ParseError.
    """
    shift = 0 if zero_based else 1
    top = MAX_FEATURE_INDEX - shift
    mapping: dict[str, int] = (
        {name: k for k, name in enumerate(label_names)} if label_names else {}
    )
    frozen_mapping = label_names is not None
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    labels: list[int] = []
    max_index = -1
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(_decoded(fh, path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            token = parts[0]
            if token not in mapping:
                if frozen_mapping:
                    raise ParseError(
                        f"unknown label {token!r} (not in the retained mapping)",
                        line=line_no,
                    )
                mapping[token] = len(mapping)
            labels.append(mapping[token])
            prev = -1
            for item in parts[1:]:
                try:
                    idx_str, val_str = item.split(":", 1)
                    idx = int(idx_str) - shift
                    val = float(val_str)
                except ValueError:
                    raise ParseError(
                        f"malformed feature entry {item!r}", line=line_no
                    ) from None
                if not 0 <= idx <= top:
                    raise ParseError(
                        f"feature index {idx + shift} outside "
                        f"[{shift}, {MAX_FEATURE_INDEX}]",
                        line=line_no,
                    )
                if idx <= prev:
                    raise ParseError(
                        "feature indices must be strictly increasing", line=line_no
                    )
                if not np.isfinite(val):
                    raise ParseError(f"non-finite feature value {val_str!r}", line=line_no)
                if num_features is not None and idx >= num_features:
                    raise ParseError(
                        f"feature index {idx + shift} exceeds the expected "
                        f"feature count {num_features}",
                        line=line_no,
                    )
                prev = idx
                indices.append(idx)
                values.append(val)
                max_index = max(max_index, idx)
            indptr.append(len(indices))
    if not labels:
        raise EmptyFile(f"{path}: no data lines")
    names = tuple(sorted(mapping, key=mapping.get))  # type: ignore[arg-type]
    return SparseDataset(
        indptr=np.array(indptr),
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values),
        labels=np.array(labels, dtype=np.int64),
        num_features=max(max_index + 1, num_features or 0),
        num_classes=len(names),
        label_names=names,
    )


def save_sparse_text(data: SparseDataset, path, *, zero_based: bool = False) -> None:
    """Write the dataset back to the text format (row order preserved)."""
    shift = 0 if zero_based else 1
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(data.num_rows):
            idx, vals = data.row(i)
            feats = " ".join(
                f"{j + shift}:{val!r}" for j, val in zip(idx.tolist(), vals.tolist())
            )
            name = data.label_names[data.labels[i]]
            fh.write(f"{name} {feats}".rstrip() + "\n")


def save_label_map(label_names: tuple[str, ...], path) -> None:
    """One `original<TAB>dense` pair per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for dense, name in enumerate(label_names):
            fh.write(f"{name}\t{dense}\n")


def load_label_map(path) -> tuple[str, ...]:
    """The names save_label_map wrote: line i maps a new name to i - 1."""
    names: list[str] = []
    for line_no, line in enumerate(read_lines(path, "utf-8"), start=1):
        name, _, dense = line.partition("\t")
        fault = _label_name_fault(name)
        if not fault and (dense != str(len(names)) or name in names):
            fault = f"expected a new name and the index {len(names)}, got {line!r}"
        if fault:
            raise ParseError(f"{path}: {fault}", line=line_no)
        names.append(name)
    return tuple(names)


def _decoded(fh, path):
    """The lines of an open text file; undecodable bytes raise ParseError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {fh.encoding} text ({exc.reason})") from None


def read_lines(path, encoding: str = "ascii") -> list[str]:
    """All lines of a small text file; undecodable bytes raise ParseError."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {encoding} text ({exc.reason})") from None


def write_versioned(path, name: str, head: tuple, body: list[str]) -> None:
    """Write the versioned text form `<name> v1 <a> <b>`, then the body lines."""
    lines = [f"{name} v1 {head[0]} {head[1]}", *body]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_versioned(path, name, second=int) -> tuple[int, object, list[str]]:
    """Read a write_versioned file: (a, second(b), body); body line i is line i + 2."""
    raw = read_lines(path)
    if not raw:
        raise ParseError(f"{path}: empty file")
    head = raw[0].split()
    if len(head) != 4 or head[0] != name or head[1] != "v1":
        raise ParseError(f"{path}: bad header {raw[0]!r}", line=1)
    try:
        return int(head[2]), second(head[3]), raw[1:]
    except ValueError:
        raise ParseError(f"{path}: bad header dimensions", line=1) from None


def format_floats(row) -> str:
    """A row of floats in the shortest form that reads back to the same bits."""
    return " ".join(map(repr, map(float, np.asarray(row, dtype=np.float64))))


def parse_floats(path, line: int, tokens: list[str], count: int) -> np.ndarray:
    """`count` finite floats from `tokens`, or a ParseError naming `line` of `path`."""
    try:
        values = np.array(list(map(float, tokens)), dtype=np.float64)
        if values.shape == (count,) and np.isfinite(values).all():
            return values
    except ValueError:
        pass
    raise ParseError(f"{path}: expected {count} finite numbers", line=line)


def read_float_rows(path, name: str, tail: int = 0) -> list[np.ndarray]:
    """The body of a versioned file whose header `a b` declares a >= 1 rows
    of `b` floats, then `tail` rows of `a` floats, one row per line."""
    a, b, body = read_versioned(path, name)
    if len(body) != a + tail or a < 1:
        raise ParseError(f"{path}: header {a} x {b} does not fit the body", line=1)
    return [
        parse_floats(path, i + 2, row.split(), b if i < a else a)
        for i, row in enumerate(body)
    ]


def read_settings(path, keys: dict[str, str], encoding: str = "ascii"):
    """(line, key, value) of each `key=value` line, stripped, with the key as
    `keys` maps its spelling; blank and '#' lines are skipped. Any other line
    without '=', an unknown spelling or a repeated key is a ParseError."""
    seen: set[str] = set()
    for line_no, line in enumerate(read_lines(path, encoding), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        spelling, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"{path}: expected key=value, got {line!r}", line=line_no)
        key = keys.get(spelling.strip())
        if key is None or key in seen:
            why = "unknown" if key is None else "repeated"
            raise ParseError(f"{path}: {why} key {spelling.strip()!r}", line=line_no)
        seen.add(key)
        yield line_no, key, value.strip()


def write_csv(path, header: tuple[str, ...], rows) -> None:
    """Write a comma-separated table: the header line, then one line per row."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header: tuple[str, ...], types: tuple) -> list[tuple]:
    """Read a table written by write_csv; field i of a row is `types[i](text)`.

    A wrong header, a row of the wrong width or a field its type rejects
    raises ParseError.
    """
    lines = read_lines(path)
    if not lines or lines[0] != ",".join(header):
        raise ParseError(f"{path}: expected the header {','.join(header)!r}", line=1)
    reader = csv.reader(lines[1:])
    table = []
    try:
        for row in reader:
            if len(row) != len(types):
                raise ValueError
            table.append(tuple(cast(text) for cast, text in zip(types, row)))
    except (ValueError, csv.Error):
        raise ParseError(f"{path}: bad row", line=reader.line_num + 1) from None
    return table


def _take_rows(data: SparseDataset, rows: np.ndarray) -> SparseDataset:
    """The given rows, ascending, as a new dataset."""
    keep = np.zeros(data.num_rows, dtype=bool)
    keep[rows] = True
    entries = keep[data._row_ids]
    lens = data.indptr[rows + 1] - data.indptr[rows]
    return SparseDataset(
        indptr=np.concatenate(([0], np.cumsum(lens))),
        indices=data.indices[entries],
        values=data.values[entries],
        labels=data.labels[rows],
        num_features=data.num_features,
        num_classes=data.num_classes,
        label_names=data.label_names,
    )


def stratified_split(
    data: SparseDataset, valid_fraction: float, seed: int
) -> tuple[SparseDataset, SparseDataset]:
    """Per-class shuffled split; every class keeps at least one training row.

    The validation share of class k is round(n_k * valid_fraction), clamped
    to [0, n_k - 1]. Row order within each side follows the original file.
    """
    if not 0.0 < valid_fraction < 1.0:
        raise InvalidArg(f"valid fraction must be in (0, 1), got {valid_fraction}")
    counts = np.bincount(data.labels, minlength=data.num_classes)
    thin = np.flatnonzero(counts < 2)
    if thin.size:
        raise TooFewInstances(
            f"classes {thin.tolist()} have fewer than 2 instances; cannot split"
        )
    rng = np.random.default_rng(seed)
    valid_rows = []
    for k in range(data.num_classes):
        rows_k = np.flatnonzero(data.labels == k)
        n_valid = int(round(rows_k.size * valid_fraction))
        n_valid = min(max(n_valid, 0), rows_k.size - 1)
        valid_rows.append(rng.permutation(rows_k)[:n_valid])
    valid_mask = np.zeros(data.num_rows, dtype=bool)
    if valid_rows:
        all_valid = np.concatenate(valid_rows)
        valid_mask[all_valid] = True
    train = _take_rows(data, np.flatnonzero(~valid_mask))
    valid = _take_rows(data, np.flatnonzero(valid_mask))
    return train, valid
