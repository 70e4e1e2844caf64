"""Per-column regression base learners.

Every code column j gets one learner trained against targets
M[label_i, j]. Two kinds are built in: gradient-boosted regression trees
(exact greedy splits on sparse rows, one tree per outer round, predictions
are the shrinkage-scaled sum of tree outputs) and a per-instance SGD linear
model. Columns are independent. Tree columns may be fitted on parallel
threads, which only grow trees; the linear learner updates all L columns
per instance in one loop. Every output buffer, the training one too, is
then refreshed by `accumulate_round_outputs`: one running sum of stages.

Trees read a dataset only through its one (feature, value)-sorted entry
view: growing partitions `sorted_entries` down the tree, predicting slices
`columns` by feature, and both send rows left or right with `_go_left`.
A tree grows inside a `_Workspace`, allocated once per worker for each
`train_round` and reused for every tree that worker fits: the root copies
the sorted entries and their residuals into it, a node is a range of it,
a split partitions that range in place, and the split search writes into
its slices. A node allocates only the index arrays `np.flatnonzero`
returns, which has no `out=`. The split search groups only a node's stored
entries: a feature's implicit zeros are the node's totals less its stored
entries, and are never materialised. Ties go to the lowest feature.
"""

from __future__ import annotations

import heapq
import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import CodingMatrix, check_labels
from .data_io import (
    SparseDataset,
    format_floats,
    parse_floats,
    read_versioned,
    write_versioned,
)
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    IndexOutOfRange,
    InvalidArg,
    NonFiniteGradient,
    ParseError,
)

BOOSTED_TREES = "boosted_trees"
LINEAR_SGD = "linear_sgd"
_KINDS = (BOOSTED_TREES, LINEAR_SGD)

_HEADER = "lightmc-ensemble"


@dataclass(frozen=True)
class LearnerSpec:
    """Hyperparameters shared by all columns.

    learning_rate is the boosting shrinkage for trees and the SGD step size
    for the linear learner. epochs_per_round only affects the linear kind.
    """

    kind: str = BOOSTED_TREES
    learning_rate: float = 0.1
    max_leaves: int = 31
    min_samples_leaf: int = 1
    epochs_per_round: int = 1

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidArg(f"unknown learner kind {self.kind!r}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidArg(
                f"learning rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.max_leaves < 2:
            raise InvalidArg(f"max_leaves must be >= 2, got {self.max_leaves}")
        if self.min_samples_leaf < 1:
            raise InvalidArg(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if self.epochs_per_round < 1:
            raise InvalidArg(
                f"epochs_per_round must be >= 1, got {self.epochs_per_round}"
            )


# ---------------------------------------------------------------------------
# regression trees


class _Tree:
    """Array-encoded binary regression tree. feature == -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)

    def predict(self, data: SparseDataset) -> np.ndarray:
        col_indptr, col_rows, col_vals = data.columns
        side = np.empty(data.num_rows, dtype=bool)
        out = np.empty(data.num_rows)
        stack = [(0, np.arange(data.num_rows))]
        while stack:
            nid, rows = stack.pop()
            feat = self.feature[nid]
            if feat < 0:
                out[rows] = self.value[nid]
            elif rows.size:
                lo, hi = col_indptr[feat], col_indptr[feat + 1]
                left = _go_left(
                    rows, col_rows[lo:hi], col_vals[lo:hi], self.threshold[nid], side
                )
                stack.append((int(self.left[nid]), rows[left]))
                stack.append((int(self.right[nid]), rows[~left]))
        return out


def _go_left(rows, ent_rows, ent_vals, threshold, side) -> np.ndarray:
    """Mask over `rows`: does each row's value of the split feature go left?

    `ent_rows`/`ent_vals` are stored entries of the split feature covering
    every row of `rows` that has one; rows without an entry take the
    implicit value 0. `side` is a scratch buffer indexed by row id. Entries
    of rows outside `rows` are written to it but never read.
    """
    side[rows] = 0.0 <= threshold
    side[ent_rows] = ent_vals <= threshold
    return side[rows]


class _Workspace:
    """Every array a tree grows in, allocated once and reused tree after tree.

    A node is two ranges. Its stored entries are `[lo, hi)` of `feature`,
    `value`, `row` and `residual`, in ascending (feature, value) order, and
    its rows are `[rlo, rhi)` of `rows`, ascending. A split partitions both
    ranges in place and keeps their order (`_partition`). The split search
    writes its node-sized arrays into the other buffers, one item per stored
    entry or (feature, value) group of the node. A workspace serves any
    dataset with no more rows and stored entries than the one it was sized
    from, one tree at a time.
    """

    def __init__(self, data: SparseDataset):
        entries = data.indices.shape[0]
        rows = data.num_rows
        # the nodes: entries in (feature, value) order, rows ascending
        self.feature, self.row = np.empty((2, entries), dtype=np.int64)
        self.value, self.residual = np.empty((2, entries))
        self.rows = np.empty(rows, dtype=np.int64)
        self.index = np.arange(rows)
        self.side = np.empty(rows, dtype=bool)  # _go_left's, by row id
        # _partition's, row sums' and the split search's scratch
        self.moved = np.empty(max(entries, rows))
        # split search, per entry and group
        self.flags, self.flags2 = np.empty((2, entries), dtype=bool)
        self.csum = np.empty(entries + 1)
        self.start, self.end = np.empty((2, entries), dtype=np.int64)
        self.count, self.gain, self.other = np.empty((3, entries))

    def load_root(self, data: SparseDataset, residuals: np.ndarray) -> None:
        """Gather the root: every stored entry in (feature, value) order, every row."""
        sf, sv, srow = data.sorted_entries
        entries = sf.shape[0]
        self.feature[:entries] = sf
        self.value[:entries] = sv
        self.row[:entries] = srow
        np.take(residuals, srow, out=self.residual[:entries], mode="clip")
        self.rows[:data.num_rows] = self.index[:data.num_rows]


def _take(a, indices, out):
    """`a[indices]` written to `out`. mode="clip" because mode="raise", the
    default, copies `out` first; every index here is in range."""
    return np.take(a, indices, out=out[:indices.shape[0]], mode="clip")


# a gain this close to the best, relative to the two side terms the best gain
# is computed from, ties with it; the lowest (feature, threshold) tie wins
_TIE = 1e-12


def _best_split(ws, lo, hi, n, total_sum, spec):
    """Split search over a node's entries, `[lo, hi)` of the workspace.

    The node's `n` rows hold `total_sum` of residual. Its entries arrive
    sorted by (feature, value), so no node is sorted again, and only they
    are grouped: the rows a feature does not store hold its implicit zeros,
    which are never materialised. Each (feature, value) group proposes one
    cut and sums only its stored side of it. A negative group proposes the
    cut just above it, and its left side is a prefix of its feature's
    stored groups. A positive group proposes the cut just below it, and
    its right side is a suffix of them. So the zero block, implicit and
    stored zeros alike, lies right of every negative cut and left of every
    positive one; a stored-zero group proposes no cut. The other side of a
    cut is the node's totals less the stored side, and a split's gain does
    not depend on which side is left.

    Every array is a slice of the workspace but the index arrays
    `np.flatnonzero` returns, with one item per feature segment or group of
    the node. Gains within `_TIE` of the best, relative to its two side
    terms, tie, and the lowest (feature, threshold) among them wins: a
    stored side's sum is a difference of one running sum over the node, so
    two identical columns get gains that differ in their last bits, and the
    rounding of a gain grows with its terms, not with the gain.
    """
    m = hi - lo
    msl = spec.min_samples_leaf
    if n < 2 * msl or m == 0:
        return None
    f = ws.feature[lo:hi]
    v = ws.value[lo:hi]
    csum = ws.csum[:m + 1]
    csum[0] = 0.0
    np.cumsum(ws.residual[lo:hi], out=csum[1:])

    # feature segments and (feature, value) groups: their first entries
    new_feature = ws.flags[:m]
    new_feature[0] = True
    np.not_equal(f[1:], f[:-1], out=new_feature[1:])
    fresh = ws.flags2[:m]
    fresh[0] = True
    np.not_equal(v[1:], v[:-1], out=fresh[1:])
    fresh |= new_feature
    group = np.flatnonzero(fresh)
    seg_start = np.flatnonzero(new_feature)
    g, k = group.shape[0], seg_start.shape[0]
    seg_id = ws.moved.view(np.int64)[:g]
    np.cumsum(_take(new_feature, group, ws.flags2), out=seg_id)
    seg_id -= 1
    seg_end = ws.start[:k]  # until `start` is gathered
    seg_end[:-1] = seg_start[1:]
    seg_end[-1] = m
    # each group's stored side of its cut is the entries [start, end)
    end = _take(seg_end, seg_id, ws.end)
    start = _take(seg_start, seg_id, ws.start)
    group_value = _take(v, group, ws.other)
    negative = np.less(group_value, 0.0, out=ws.flags[:g])
    ok = np.not_equal(group_value, 0.0, out=ws.flags2[:g])
    np.copyto(end[:-1], group[1:], where=negative[:-1])  # the last group's end is m
    np.copyto(start, group, where=np.logical_not(negative, out=negative))

    count = np.subtract(end, start, out=ws.count[:g])
    stored = np.subtract(_take(csum, end, ws.gain), _take(csum, start, ws.other),
                         out=ws.gain[:g])
    ok &= np.greater_equal(count, msl, out=ws.flags[:g])
    other = np.subtract(total_sum, stored, out=ws.other[:g])
    gain = np.divide(np.square(stored, out=stored), count, out=stored)
    np.subtract(n, count, out=count)
    ok &= np.greater_equal(count, msl, out=ws.flags[:g])
    np.divide(np.square(other, out=other), count, out=other, where=ok)
    gain += other
    parent = total_sum * total_sum / n
    gain -= parent
    np.copyto(gain, -np.inf, where=np.logical_not(ok, out=ok))
    top = gain.max()
    if top <= 1e-12 * (1.0 + abs(parent)):
        return None
    best = int(np.argmax(np.greater_equal(gain, top - _TIE * (top + parent), out=ok)))

    i = int(group[best])  # the winning group's first entry
    feat, val = int(f[i]), v[i]
    a, b = f.searchsorted(feat), f.searchsorted(feat, "right")
    zeros = b - a < n  # the feature has implicit zeros in the node
    if val < 0.0:
        nxt = int(end[best])  # the next group's first entry
        ok_next = nxt < b and not (zeros and v[nxt] > 0.0)
        lo_v, hi_v = val, v[nxt] if ok_next else 0.0
    else:
        ok_prev = i > a and not (zeros and v[i - 1] < 0.0)
        lo_v, hi_v = v[i - 1] if ok_prev else 0.0, val
    thr = 0.5 * (lo_v + hi_v)
    if thr >= hi_v:  # midpoint rounded up to the right value; keep the cut exact
        thr = lo_v
    return float(gain[best]), feat, float(thr)


def _partition(keep_left, arrays, moved) -> int:
    """Reorder each of `arrays` in place: the entries where `keep_left` is
    True first, then the rest, each part in its old order. Returns the size
    of the first part. `keep_left` is overwritten; `moved` is scratch of
    8-byte items at least as long as the arrays."""
    left = np.flatnonzero(keep_left)
    right = np.flatnonzero(np.logical_not(keep_left, out=keep_left))
    for a in arrays:
        out = moved[:a.shape[0]].view(a.dtype)
        _take(a, left, out)
        _take(a, right, out[left.shape[0]:])
        a[:] = out
    return left.shape[0]


def _fit_tree(data, residuals, spec, ws: _Workspace) -> _Tree:
    """Grow one least-squares tree best-first under the leaf cap, in `ws`.

    The root gathers every stored entry and its residual into the workspace
    once; after that a node is a range of it, and a split partitions the
    node's range in place, so no node copies its entries. The heap holds
    every leaf that has a split: (-gain, node id, feature, threshold, the
    leaf's entry range, its row range). Node ids rise in the order leaves
    are searched, so equal gains split the earlier leaf first.
    """
    ws.load_root(data, residuals)
    nodes: list[list] = []  # per node: feature, threshold, left, right, value
    heap: list[tuple] = []

    def add_leaf(lo: int, hi: int, rlo: int, rhi: int) -> None:
        node_id = len(nodes)
        n = rhi - rlo
        total = float(_take(residuals, ws.rows[rlo:rhi], ws.moved).sum())
        nodes.append([-1, 0.0, -1, -1, total / n])
        split = _best_split(ws, lo, hi, n, total, spec)
        if split is not None:
            gain, feat, thr = split
            heapq.heappush(heap, (-gain, node_id, feat, thr, lo, hi, rlo, rhi))

    add_leaf(0, data.indices.shape[0], 0, data.num_rows)
    while heap and len(nodes) < 2 * spec.max_leaves - 1:  # L leaves are 2L - 1 nodes
        _, node_id, feat, thr, lo, hi, rlo, rhi = heapq.heappop(heap)
        f = ws.feature[lo:hi]
        a, b = lo + f.searchsorted(feat), lo + f.searchsorted(feat, "right")
        rows = ws.rows[rlo:rhi]
        side = _go_left(rows, ws.row[a:b], ws.value[a:b], thr, ws.side)
        ent_side = _take(ws.side, ws.row[lo:hi], ws.flags)
        nodes[node_id][:4] = feat, thr, len(nodes), len(nodes) + 1
        mid = lo + _partition(
            ent_side,
            (ws.feature[lo:hi], ws.value[lo:hi], ws.row[lo:hi], ws.residual[lo:hi]),
            ws.moved,
        )
        rmid = rlo + _partition(side, (rows,), ws.moved)
        add_leaf(lo, mid, rlo, rmid)
        add_leaf(mid, hi, rmid, rhi)
    return _Tree(*zip(*nodes))


# ---------------------------------------------------------------------------
# ensemble


@dataclass
class BaseLearnerEnsemble:
    """L independent column learners, all of one kind.

    Trees: `trees[j]` is column j's list of boosting stages. Linear:
    column j predicts `values @ weights[j] + bias[j]`, with `weights` one
    (L, F) array and `bias` one (L,) array.
    """

    spec: LearnerSpec
    num_features: int
    seed: int
    trees: list[list[_Tree]]
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    rounds_done: int = 0

    @property
    def is_boosting(self) -> bool:
        return self.spec.kind == BOOSTED_TREES

    @property
    def code_length(self) -> int:
        return len(self.trees) if self.is_boosting else self.bias.shape[0]


def new_ensemble(
    code_length: int, spec: LearnerSpec, num_features: int, seed: int = 0
) -> BaseLearnerEnsemble:
    spec.validate()
    if code_length < 1:
        raise InvalidArg(f"code length must be >= 1, got {code_length}")
    if num_features < 1:
        raise InvalidArg(f"num_features must be >= 1, got {num_features}")
    ensemble = BaseLearnerEnsemble(spec, num_features, seed, trees=[])
    if ensemble.is_boosting:
        ensemble.trees = [[] for _ in range(code_length)]
    else:
        ensemble.weights = np.zeros((code_length, num_features))
        ensemble.bias = np.zeros(code_length)
    return ensemble


def make_targets(matrix: CodingMatrix, labels: np.ndarray, column: int) -> np.ndarray:
    """Regression targets of one column: the labelled row's entry there."""
    if not 0 <= column < matrix.code_length:
        raise IndexOutOfRange(f"column {column} not in [0, {matrix.code_length})")
    labels = check_labels(labels, matrix.num_classes, np.size(labels))
    return matrix.entries[labels, column]


def train_round(
    ensemble: BaseLearnerEnsemble,
    data: SparseDataset,
    matrix: CodingMatrix,
    outputs: np.ndarray,
    threads: int = 1,
) -> BaseLearnerEnsemble:
    """Train every column for one round against the current matrix.

    `outputs` (N, L) holds each column's prediction on `data` (zeros before
    round one): trees fit one new stage per column to the residuals, the
    linear learner runs its SGD epochs from its current weights. Then
    `accumulate_round_outputs` brings `outputs` up to date. Only tree
    fitting runs on `threads` threads, and each writes only the workspace
    it holds while fitting a tree; the linear learner updates all L
    columns per instance, so permuting columns permutes outputs exactly.
    """
    if data.num_rows == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if matrix.code_length != ensemble.code_length:
        raise DimensionMismatch(
            f"matrix has {matrix.code_length} columns, ensemble has "
            f"{ensemble.code_length}"
        )
    _check_data(ensemble, data, outputs)
    labels = check_labels(data.labels, matrix.num_classes, data.num_rows)
    targets = matrix.entries[labels]
    if ensemble.is_boosting:
        data.sorted_entries  # build the shared sorted view outside worker threads
        columns = range(ensemble.code_length)
        workers = max(1, min(threads, len(columns)))
        spare = queue.SimpleQueue()  # one workspace per worker, reused for its trees
        for _ in range(workers):
            spare.put(_Workspace(data))

        def fit_column(j: int) -> None:
            residuals = targets[:, j] - outputs[:, j]
            ws = spare.get()
            try:
                ensemble.trees[j].append(_fit_tree(data, residuals, ensemble.spec, ws))
            finally:
                spare.put(ws)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(fit_column, columns))
        else:  # on the calling thread, where profilers look
            list(map(fit_column, columns))
    else:
        _fit_linear(ensemble, data, targets)
    accumulate_round_outputs(ensemble, data, outputs)
    ensemble.rounds_done += 1
    return ensemble


def _fit_linear(ensemble, data, targets) -> None:
    """One round of per-instance SGD on the squared loss, all columns at once.

    The epoch orders come from (seed, rounds_done). Each column's gradient
    is one dot product over a C-contiguous copy of its weights at the row's
    features, the same arithmetic a single column's `w[js] @ vs` does.
    """
    rng = np.random.default_rng([ensemble.seed, 7919, ensemble.rounds_done])
    lr = ensemble.spec.learning_rate
    w, b = ensemble.weights, ensemble.bias
    # divergence is reported once, below, not as numpy warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(ensemble.spec.epochs_per_round):
            for i in rng.permutation(data.num_rows):
                js, vs = data.row(i)
                g = np.vecdot(np.ascontiguousarray(w[:, js]), vs) + b - targets[i]
                w[:, js] -= (lr * g)[:, None] * vs
                b -= lr * g
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(w))):
        raise NonFiniteGradient("linear learner diverged; lower the learning rate")


def predict_all(ensemble: BaseLearnerEnsemble, data: SparseDataset) -> np.ndarray:
    """Outputs of every column on every instance, shape (N, L): the running
    sum that `accumulate_round_outputs` keeps, stage by stage."""
    out = np.zeros((data.num_rows, ensemble.code_length))
    _add_outputs(ensemble, data, out, slice(None))
    return out


def accumulate_round_outputs(
    ensemble: BaseLearnerEnsemble, data: SparseDataset, buffer: np.ndarray
) -> None:
    """Refresh an output buffer after one train_round.

    Boosting adds only the newest stage; the linear learner recomputes its
    columns. The buffer must have been kept current since round zero.
    `train_round` refreshes its training buffer here once its column
    threads have finished.
    """
    _add_outputs(ensemble, data, buffer, slice(-1, None))


def _add_outputs(ensemble, data, buffer, stages: slice) -> None:
    """Add boosting `stages` of every column to `buffer`, or write linear outputs."""
    _check_data(ensemble, data, buffer)
    if ensemble.is_boosting:
        for j, trees in enumerate(ensemble.trees):
            for tree in trees[stages]:
                buffer[:, j] += ensemble.spec.learning_rate * tree.predict(data)
        return
    for j, w in enumerate(ensemble.weights):
        contrib = w[data.indices] * data.values
        buffer[:, j] = (
            np.bincount(data._row_ids, weights=contrib, minlength=data.num_rows)
            + ensemble.bias[j]
        )


def _check_data(ensemble, data, buffer) -> None:
    if data.num_features != ensemble.num_features:
        raise DimensionMismatch(
            f"data has {data.num_features} features, ensemble expects "
            f"{ensemble.num_features}"
        )
    if buffer.shape != (data.num_rows, ensemble.code_length):
        raise DimensionMismatch(
            f"buffer shape {buffer.shape}, expected "
            f"({data.num_rows}, {ensemble.code_length})"
        )


# ---------------------------------------------------------------------------
# serialization


def save_ensemble(ensemble: BaseLearnerEnsemble, path) -> None:
    """Versioned text dump; trees are listed in pre-order."""
    spec = ensemble.spec
    lines = [f"alpha {spec.learning_rate!r}", f"features {ensemble.num_features}"]
    for j in range(ensemble.code_length):
        if ensemble.is_boosting:
            lines.append(f"member {j} {len(ensemble.trees[j])}")
            for t, tree in enumerate(ensemble.trees[j]):
                _dump_tree(tree, t, lines)
        else:
            lines.append(f"member {j}")
            weights = format_floats(ensemble.weights[j])
            lines.append(f"weights {ensemble.num_features} {weights}".rstrip())
            lines.append(f"bias {format_floats(ensemble.bias[j:j + 1])}")
    write_versioned(path, _HEADER, (ensemble.code_length, spec.kind), lines)


def _dump_tree(tree: _Tree, index: int, lines: list[str]) -> None:
    feature, threshold, left, right, value = (
        getattr(tree, name).tolist() for name in _Tree.__slots__
    )
    order = []
    stack = [0]
    while stack:
        nid = stack.pop()
        order.append(nid)
        if feature[nid] >= 0:
            stack.append(right[nid])
            stack.append(left[nid])
    remap = {old: new for new, old in enumerate(order)} | {-1: -1}  # -1: no child
    lines.append(f"tree {index} {len(order)}")
    for old in order:
        lines.append(
            f"{remap[old]} {feature[old]} {threshold[old]!r} "
            f"{remap[left[old]]} {remap[right[old]]} {value[old]!r}"
        )


def load_ensemble(path) -> BaseLearnerEnsemble:
    """Read a save_ensemble file; the body must hold exactly the header's L members."""
    code_length, kind, body = read_versioned(path, _HEADER, second=str)
    if kind not in _KINDS:
        raise ParseError(f"{path}: unknown learner kind {kind!r}", line=1)
    boosting = kind == BOOSTED_TREES
    _, alpha = _fields(body, 0, path, ("alpha", float))
    _, num_features = _fields(body, 1, path, ("features", int))
    if not 0.0 < alpha <= 1.0:
        raise ParseError(f"{path}: alpha must be in (0, 1], got {alpha}", line=2)
    members: list = []  # trees: a column's stages; linear: its (weights, bias)
    pos = 2  # body line pos is line pos + 2 of the file
    while pos < len(body):
        if boosting:
            *_, stages = _fields(body, pos, path, ("member", str(len(members)), int))
            pos += 1
            members.append([])
            for stage in range(stages):
                tree, pos = _parse_tree(body, pos, path, stage, num_features)
                members[-1].append(tree)
            continue
        _fields(body, pos, path, ("member", str(len(members))))
        weights, bias, *_ = [line.split() for line in body[pos + 1:pos + 3]] + [[], []]
        if weights[:2] != ["weights", str(num_features)] or bias[:1] != ["bias"]:
            raise ParseError(
                f"{path}: header declares {num_features} features; expected "
                "a weights line of them and a bias line",
                line=pos + 3,
            )
        w = parse_floats(path, pos + 3, weights[2:], num_features)
        members.append((w, parse_floats(path, pos + 4, bias[1:], 1)[0]))
        pos += 3
    if len(members) != code_length or not members:
        raise ParseError(f"{path}: header declares {code_length} members", line=1)
    spec = LearnerSpec(kind=kind, learning_rate=alpha)
    if boosting:
        return BaseLearnerEnsemble(spec, num_features, 0, trees=members)
    del body  # so the text and two copies of the weights are never held at once
    w, b = map(np.array, zip(*members))
    return BaseLearnerEnsemble(spec, num_features, 0, [], w, b)


def _fields(body, pos, path, spec: tuple) -> list:
    """Body line `pos` as one value per `spec` entry: a str entry must equal its
    field, a type converts it. Else, or past the end, a ParseError names the line."""
    parts = body[pos].split() if pos < len(body) else []
    try:
        if len(parts) == len(spec) and all(
            p == e for e, p in zip(spec, parts) if isinstance(e, str)
        ):
            return [p if isinstance(e, str) else e(p) for e, p in zip(spec, parts)]
    except ValueError:
        pass
    shape = " ".join(e if isinstance(e, str) else f"<{e.__name__}>" for e in spec)
    raise ParseError(f"{path}: expected {shape!r}", line=pos + 2)


def _parse_tree(body, pos, path, stage, num_features) -> tuple[_Tree, int]:
    """Tree `stage` in pre-order: node i is the i-th line after its header,
    and children come after their parent, which keeps traversal finite."""
    *_, n_nodes = _fields(body, pos, path, ("tree", str(stage), int))
    end = pos + 1 + n_nodes
    if n_nodes < 1 or end > len(body):
        raise ParseError(f"{path}: tree {stage} declares {n_nodes} nodes", line=pos + 2)
    nodes = []
    for nid, at in enumerate(range(pos + 1, end)):
        fields = body[at].split()
        if len(fields) != 6 or fields[0] != str(nid):
            raise ParseError(f"{path}: expected 6 fields for node {nid}", line=at + 2)
        try:
            feature, left, right = int(fields[1]), int(fields[3]), int(fields[4])
            threshold, value = float(fields[2]), float(fields[5])
        except ValueError:
            raise ParseError(f"{path}: bad number in node {nid}", line=at + 2) from None
        children_later = nid < left < n_nodes and nid < right < n_nodes
        is_split = 0 <= feature < num_features and children_later
        is_leaf = feature == left == right == -1
        finite = math.isfinite(threshold) and math.isfinite(value)
        if not (is_leaf or is_split) or not finite:
            raise ParseError(f"{path}: node {nid} has a bad link or value", line=at + 2)
        nodes.append((feature, threshold, left, right, value))
    return _Tree(*zip(*nodes)), end
