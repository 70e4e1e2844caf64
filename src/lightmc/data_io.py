"""Sparse labeled datasets: text loading, saving, and stratified splits.

The text convention is one instance per line, `<label> <idx>:<val> ...`,
with 1-based feature indices by default. Labels may be arbitrary tokens;
they are densified to [0, K) in order of first appearance and the mapping
is kept for reporting and for loading evaluation files consistently.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyFile,
    IndexOutOfRange,
    InvalidArg,
    NonFiniteInput,
    ParseError,
    TooFewInstances,
    check_settings,
)

MAX_FEATURE_INDEX = 2**31 - 1  # the 32-bit feature ids of LIBSVM-format readers
BLOCK_LINES = 256  # lines load_sparse_text converts at once
MAX_BINS = 255  # bins per feature of SparseDataset.groups
_FLOAT_BLOCK = 1024  # values format_floats converts at once


class GroupIndex(NamedTuple):
    """`SparseDataset.groups`: every stored entry's (feature, bin) group, in
    storage order, and each group's feature, entry count and least and
    greatest stored value. The groups `[start, end)` are the stored side of
    the cut a group proposes to the tree split search: a negative group's
    runs from its feature's first group through itself, a positive group's
    from itself to its feature's last, and a stored-zero group's is empty."""

    entry_group: np.ndarray
    feature: np.ndarray
    count: np.ndarray
    low: np.ndarray
    high: np.ndarray
    start: np.ndarray
    end: np.ndarray


@dataclass(frozen=True, eq=False)
class SparseDataset:
    """Row-sparse feature matrix (CSR arrays) with dense integer labels.

    Immutable after construction, and checked as it is made: `indptr` starts
    at 0, never decreases and ends at the number of stored entries (else
    InvalidArg); `values` holds one entry per index, `labels` one per row and
    `label_names` one per class (else DimensionMismatch); feature indices lie
    in [0, num_features) and labels in [0, num_classes) (else
    IndexOutOfRange); indices rise strictly within each row (else
    InvalidArg); values are finite (else NonFiniteInput). `label_names[k]` is
    the original token of dense class k, which the text formats hold only if
    it is a nonblank token not led by '#'. Trees read the entries through two
    cached views, each built on first use: `columns`, the entries of each
    feature in value order, which routes rows down a tree and is the one
    sort of the entries, and `groups`, which bins each feature's run of
    `columns` into at most `MAX_BINS` value ranges for the split search.
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
        indptr, indices, labels = self.indptr, self.indices, self.labels
        entries = indices.shape[0]
        if not (indptr.ndim == indices.ndim == 1 and indptr.size and indptr[0] == 0
                and indptr[-1] == entries and np.all(np.diff(indptr) >= 0)):
            raise InvalidArg(
                f"indptr must start at 0, never decrease and end at the {entries} "
                "stored entries"
            )
        if vals.shape != indices.shape or labels.shape != (self.num_rows,):
            raise DimensionMismatch(
                "values must hold one entry per index, and labels one per row"
            )
        if len(self.label_names) != self.num_classes:
            raise DimensionMismatch(
                f"{len(self.label_names)} label names for {self.num_classes} classes"
            )
        if entries and not (0 <= indices.min() and indices.max() < self.num_features):
            raise IndexOutOfRange(
                f"feature indices must lie in [0, {self.num_features})"
            )
        if not _rising_within_rows(indices, indptr[1:]):
            raise InvalidArg("feature indices must rise strictly within each row")
        if not np.isfinite(vals).all():
            raise NonFiniteInput("feature values must be finite")
        if labels.size and not (0 <= labels.min() and labels.max() < self.num_classes):
            raise IndexOutOfRange(f"labels must lie in [0, {self.num_classes})")
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
    def sorted_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All stored entries sorted by (feature, value): (features, values,
        rows), the last two shared with `columns`."""
        col_indptr, rows, values = self.columns
        features = np.repeat(np.arange(self.num_features), np.diff(col_indptr))
        return features, values, rows

    @cached_property
    def groups(self) -> GroupIndex:
        """The stored entries binned into (feature, bin) groups, for tree training.

        Built on first use by cutting each feature's run of `columns`, and
        sized by the stored entries. A feature with at most `MAX_BINS`
        distinct stored values keeps one bin per value. A feature with more
        gets at most `MAX_BINS` bins of about equal entry counts, cut only
        where the value changes and wherever its sign does, so a bin never
        holds both a negative and a positive value, and zero is a bin of its
        own. Groups are numbered in (feature, value) order.
        """
        col_indptr, rows, sv = self.columns
        entries = sv.shape[0]
        stored = np.flatnonzero(np.diff(col_indptr))  # the features with entries
        new_feature = np.zeros(entries, dtype=bool)
        new_feature[col_indptr[stored]] = True
        cut = np.empty(entries, dtype=bool)  # a group's first entry
        cut[:1] = True
        np.not_equal(sv[1:], sv[:-1], out=cut[1:])
        cut |= new_feature
        segment = np.cumsum(new_feature)
        segment -= 1
        binned = np.bincount(segment[cut]) > MAX_BINS  # per feature
        if binned.any():
            at = np.flatnonzero(binned[segment])
            cut[at] = _bin_cuts(sv[at], new_feature[at], cut[at])
        first = np.flatnonzero(cut)
        groups = first.shape[0]
        count = np.diff(first, append=entries)
        low, high = sv[first], sv[first + count - 1]
        # sorted stably by row, the column view is in storage order, as each
        # row stores its features in rising order
        entry_group = np.cumsum(cut)[np.argsort(rows, kind="stable")]
        entry_group -= 1
        # the stored side of each group's cut
        at = np.arange(groups)
        feature_start = np.append(np.flatnonzero(new_feature[first]), groups)
        segment = segment[first]
        negative = low < 0.0
        start = np.where(negative, feature_start[segment], at)
        end = np.where(negative, at + 1, feature_start[segment + 1])
        np.copyto(end, at, where=low == 0.0)
        return GroupIndex(entry_group, stored[segment], count, low, high, start, end)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column-major view: (col_indptr, entry_rows, entry_values).

        Feature f's entries are `[col_indptr[f], col_indptr[f + 1])` of the
        row and value arrays, ordered by value within a column, not by row.
        """
        order = np.lexsort((self.values, self.indices))
        rows = np.repeat(np.arange(self.num_rows), np.diff(self.indptr))[order]
        counts = np.bincount(self.indices, minlength=self.num_features)
        return np.concatenate(([0], np.cumsum(counts))), rows, self.values[order]


def _bin_cuts(values, new_feature, new_value) -> np.ndarray:
    """Where bins start, over whole features' sorted values: at most
    `MAX_BINS` per feature, of about equal counts, each starting at a new
    value and at every change of sign."""
    entries = values.shape[0]
    at = np.arange(entries)
    start = np.flatnonzero(new_feature)
    segment = np.cumsum(new_feature)
    segment -= 1
    size = np.diff(start, append=entries)[segment]
    # a value's key is that of its first entry's rank: MAX_BINS - 2 keys,
    # and the at most two sign changes, give at most MAX_BINS bins
    key = (at - start[segment]) * (MAX_BINS - 2) // size
    key = key[np.maximum.accumulate(at * new_value)]
    sign = np.sign(values)
    fresh = new_feature.copy()
    fresh[1:] |= (key[1:] != key[:-1]) | (sign[1:] != sign[:-1])
    return fresh & new_value


def _rising_within_rows(indices, ends) -> bool:
    """Whether `indices` rise strictly within each row, where `ends` holds
    each row's end, as in `indptr[1:]`: the pair across a row's end is
    exempt, and an end at the first entry or after the last one has no such
    pair."""
    rising = np.diff(indices) > 0
    rising[ends[(0 < ends) & (ends < indices.shape[0])] - 1] = True
    return bool(rising.all())


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
    """Build a dataset from a dense array, dropping exact zeros. Given
    `label_names` name every class; by default classes are 0 .. max(labels)."""
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or labels.shape != (x.shape[0],):
        raise InvalidArg("features must be (N, F) with one label per row")
    if label_names is None:
        label_names = tuple(str(k) for k in range(labels.max(initial=-1) + 1))
    rows, cols = np.nonzero(x)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=x.shape[0]))))
    return SparseDataset(
        indptr=indptr,
        indices=cols,
        values=x[rows, cols],
        labels=labels,
        num_features=x.shape[1],
        num_classes=len(label_names),
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
    must be strictly increasing within a line; indices and values are read
    with Python's `int` and `float`. When `label_names` is given the
    file's label tokens must all appear in it (used to keep train and
    evaluation label spaces aligned); otherwise tokens are densified by
    first appearance. `num_features` acts as a lower bound on the feature
    count; indices at or beyond it raise ParseError so a model's feature
    space is never silently exceeded. A file index above MAX_FEATURE_INDEX
    raises ParseError. Any bad file ends in a ParseError that names its
    first bad line.

    The file is converted `BLOCK_LINES` lines at a time, and the blocks'
    arrays are joined at the end, so at its peak the loader holds the
    finished arrays about twice. A block that fails any check is parsed
    again line by line, to name the bad line.
    """
    if num_features is not None:
        check_settings(InvalidArg, (("num_features", num_features, int, ">= 0"),))
    shift = 0 if zero_based else 1
    mapping: dict[str, int] = (
        {name: k for k, name in enumerate(label_names)} if label_names else {}
    )
    rules = (shift, num_features, mapping, label_names is not None)
    blocks = []  # (labels, row lengths, indices, values) of each block
    first_line = 1
    with open(path, "r", encoding="utf-8") as fh:
        for lines in _line_blocks(fh, path):
            block = _convert_block(lines, *rules)
            if block is None:
                block = _parse_lines(lines, first_line, *rules)
            blocks.append(block)
            first_line += len(lines)
    labels, lengths, indices, values = map(np.concatenate, zip(*blocks))
    if not labels.size:
        raise EmptyFile(f"{path}: no data lines")
    names = tuple(sorted(mapping, key=mapping.get))  # type: ignore[arg-type]
    return SparseDataset(
        indptr=np.concatenate(([0], np.cumsum(lengths))),
        indices=indices,
        values=values,
        labels=labels,
        num_features=max(int(indices.max(initial=-1)) + 1, num_features or 0),
        num_classes=len(names),
        label_names=names,
    )


def _line_blocks(fh, path):
    """The lines of an open text file, in lists of BLOCK_LINES; the last list
    holds the rest and may be empty. Undecodable bytes end the lists with a
    ParseError, after a last list of the lines before them."""
    block = []
    try:
        for line in fh:
            block.append(line)
            if len(block) == BLOCK_LINES:
                yield block
                block = []
    except UnicodeDecodeError as exc:
        yield block
        raise ParseError(f"{path}: not {fh.encoding} text ({exc.reason})") from None
    yield block


def _convert_block(lines, shift, num_features, mapping, frozen):
    """The arrays of one block of lines, converted in bulk; None if any check fails."""
    names, lengths, text = _split_rows(lines)
    count = int(lengths.sum())
    # each entry holds exactly one ':', so the separators run ':', ' ', ':', ...;
    # equal totals alone would pass the bare `5` and the `1:2:3` of `a 5 1:2:3`
    chars = np.frombuffer(text.encode(), dtype=np.uint8)
    colons = chars[(chars == ord(":")) | (chars == ord(" "))] == ord(":")
    if text.count(":") != count or not colons[::2].all():
        return None
    pieces = text.replace(":", " ").split(" ") if count else []
    try:
        raw = np.fromiter(map(int, pieces[::2]), dtype=np.int64, count=count)
        values = np.fromiter(map(float, pieces[1::2]), dtype=np.float64, count=count)
    except (ValueError, OverflowError):
        return None
    top = MAX_FEATURE_INDEX
    if num_features is not None:
        top = min(top, num_features - 1 + shift)
    if count and not shift <= raw.min() <= raw.max() <= top:
        return None
    indices = raw - shift
    if not (
        _rising_within_rows(indices, np.cumsum(lengths)) and np.isfinite(values).all()
    ) or (
        frozen and not mapping.keys() >= set(names)
    ):
        return None
    labels = [mapping.setdefault(name, len(mapping)) for name in names]
    return np.array(labels, dtype=np.int64), lengths, indices, values


def _split_rows(lines):
    """(label tokens, entry counts, all entries joined by single spaces) of
    the data lines among `lines`. The rows' token strings are freed on
    return, before `_convert_block` splits the text into its pieces."""
    rows = [p for line in lines if (p := line.split()) and not p[0].startswith("#")]
    lengths = np.array([len(parts) - 1 for parts in rows], dtype=np.int64)
    text = " ".join([item for parts in rows for item in parts[1:]])
    return [parts[0] for parts in rows], lengths, text


def _parse_lines(lines, first_line, shift, num_features, mapping, frozen):
    """The arrays of one block of lines, read line by line, or the ParseError
    of its first bad line; `lines[0]` is line `first_line` of the file."""
    top = MAX_FEATURE_INDEX - shift
    labels: list[int] = []
    lengths: list[int] = []
    indices: list[int] = []
    values: list[float] = []
    for line_no, line in enumerate(lines, start=first_line):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        token = parts[0]
        if token not in mapping:
            if frozen:
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
            if not math.isfinite(val):
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
        lengths.append(len(parts) - 1)
    return (
        np.array(labels, dtype=np.int64),
        np.array(lengths, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(values, dtype=np.float64),
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


def read_lines(path, encoding: str = "ascii") -> list[str]:
    """All lines of a text file, split as `str.splitlines` splits its text, but
    read a line at a time, so the text is never one string; undecodable bytes
    raise ParseError."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            return list(chain.from_iterable(map(str.splitlines, fh)))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {encoding} text ({exc.reason})") from None


def write_versioned(path, name: str, head: tuple, body: Iterable[str]) -> None:
    """Write the versioned text form `<name> v1 <a> <b>`, then the body lines,
    each as it comes."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{name} v1 {head[0]} {head[1]}\n")
        for line in body:
            fh.write(line + "\n")


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
    """A row of floats in the shortest form that reads back to the same bits.

    Converted to Python floats a block at a time: the list of a whole
    10k-value weights row held about 1 MB more peak RSS on the benchmark's
    sparse_topics_linear.
    """
    row = np.asarray(row, dtype=np.float64)
    return " ".join(
        " ".join(map(repr, row[i:i + _FLOAT_BLOCK].tolist()))
        for i in range(0, row.size, _FLOAT_BLOCK)
    )


def parse_floats(path, line: int, tokens: list[str], count: int) -> np.ndarray:
    """`count` finite floats from `tokens`, or a ParseError naming `line` of `path`."""
    try:
        values = np.array(tokens, dtype=np.float64)
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
    entries = np.repeat(keep, np.diff(data.indptr))
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
    check_settings(InvalidArg, (
        ("valid_fraction", valid_fraction, float, "> 0", "< 1"),
        ("seed", seed, int, ">= 0"),
    ))
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
