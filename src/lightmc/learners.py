"""Per-column regression base learners.

Every code column j gets one learner trained against targets
M[label_i, j]. Two kinds are built in: gradient-boosted regression trees
(exact greedy splits on sparse rows, one tree per outer round, predictions
are the shrinkage-scaled sum of tree outputs) and a per-instance SGD linear
model. Columns are independent. Tree columns may be fitted on parallel
threads; the linear learner updates all L columns per instance in one loop.

Trees read a dataset only through its one (feature, value)-sorted entry
view: growing partitions `sorted_entries` down the tree, predicting slices
`columns` by feature, and both send rows left or right with `_go_left`.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import CodingMatrix
from .data_io import SparseDataset, read_versioned, write_versioned
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


def _best_split(sf, sv, srow, ents, rows, res_full, total_sum, spec):
    """Split search over a node's slice of the presorted entry arrays.

    `ents` indexes (sf, sv, srow) and is ascending, so the node's entries
    arrive sorted by (feature, value) with no per-node sort. The implicit
    zero block of each feature is spliced in as one synthetic group between
    its negative and nonnegative stored values, so thresholds on either
    side of zero are all evaluated. Ties break toward the lowest feature
    index, then the lowest threshold.
    """
    n = rows.shape[0]
    msl = spec.min_samples_leaf
    if n < 2 * msl or ents.size == 0:
        return None
    f = sf[ents]
    v = sv[ents]
    r = res_full[srow[ents]]

    seg_start = np.flatnonzero(np.concatenate(([True], f[1:] != f[:-1])))
    seg_end = np.concatenate((seg_start[1:], [f.size]))
    uniq = f[seg_start]
    csum = np.concatenate(([0.0], np.cumsum(r)))
    nnz_sum = csum[seg_end] - csum[seg_start]
    nnz_cnt = (seg_end - seg_start).astype(np.float64)
    zero_cnt = n - nnz_cnt
    zero_sum = total_sum - nnz_sum

    zmask = zero_cnt > 0
    if zmask.any():
        cneg = np.concatenate(([0], np.cumsum(v < 0.0)))
        insert_at = (seg_start + (cneg[seg_end] - cneg[seg_start]))[zmask]
        ef = np.insert(f, insert_at, uniq[zmask])
        ev = np.insert(v, insert_at, 0.0)
        er = np.insert(r, insert_at, zero_sum[zmask])
        ec = np.insert(np.ones(f.size), insert_at, zero_cnt[zmask])
    else:
        ef, ev, er, ec = f, v, r, np.ones(f.size)

    # merge duplicate (feature, value) groups, including stored zeros
    fresh = np.concatenate(([True], (ef[1:] != ef[:-1]) | (ev[1:] != ev[:-1])))
    gidx = np.flatnonzero(fresh)
    gf = ef[gidx]
    gv = ev[gidx]
    gr = np.add.reduceat(er, gidx)
    gc = np.add.reduceat(ec, gidx)

    gstart = np.concatenate(([True], gf[1:] != gf[:-1]))
    seg_id = np.cumsum(gstart) - 1
    starts = np.flatnonzero(gstart)
    cum_r = np.cumsum(gr)
    cum_c = np.cumsum(gc)
    left_r = cum_r - (cum_r[starts] - gr[starts])[seg_id]
    left_c = cum_c - (cum_c[starts] - gc[starts])[seg_id]

    cand = np.flatnonzero(np.concatenate((gf[1:] == gf[:-1], [False])))
    if cand.size == 0:
        return None
    n_left = left_c[cand]
    s_left = left_r[cand]
    n_right = n - n_left
    s_right = total_sum - s_left
    ok = (n_left >= msl) & (n_right >= msl)
    if not ok.any():
        return None
    parent = total_sum * total_sum / n
    gain = np.full(cand.shape[0], -np.inf)
    gain[ok] = (
        s_left[ok] ** 2 / n_left[ok] + s_right[ok] ** 2 / n_right[ok] - parent
    )
    best = int(np.argmax(gain))  # first max: lowest feature, then lowest threshold
    if gain[best] <= 1e-12 * (1.0 + abs(parent)):
        return None
    lo_v, hi_v = gv[cand[best]], gv[cand[best] + 1]
    thr = 0.5 * (lo_v + hi_v)
    if thr >= hi_v:  # midpoint rounded up to the right value; keep the cut exact
        thr = lo_v
    return float(gain[best]), int(gf[cand[best]]), float(thr)


def _fit_tree(data, residuals, spec):
    """Grow one least-squares tree best-first under the leaf cap.

    Returns (tree, per-row training predictions).
    """
    n = data.num_rows
    sf, sv, srow = data.sorted_entries
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    value = [float(residuals.mean())]
    leaf_rows: dict[int, np.ndarray] = {0: np.arange(n)}
    leaf_ents: dict[int, np.ndarray] = {0: np.arange(sf.shape[0])}
    side_full = np.empty(n, dtype=bool)
    counter = itertools.count()
    candidates: list[tuple[float, int, int, int, float]] = []

    def consider(node_id: int) -> None:
        rows_n = leaf_rows[node_id]
        split = _best_split(
            sf, sv, srow, leaf_ents[node_id], rows_n, residuals,
            float(residuals[rows_n].sum()), spec,
        )
        if split is not None:
            gain, feat, thr = split
            candidates.append((gain, next(counter), node_id, feat, thr))

    consider(0)
    leaves = 1
    while leaves < spec.max_leaves and candidates:
        best_i = min(
            range(len(candidates)), key=lambda i: (-candidates[i][0], candidates[i][1])
        )
        _, _, node_id, feat, thr = candidates.pop(best_i)
        rows_n = leaf_rows.pop(node_id)
        ents_n = leaf_ents.pop(node_id)
        split_ents = ents_n[sf[ents_n] == feat]
        side = _go_left(rows_n, srow[split_ents], sv[split_ents], thr, side_full)
        rows_l, rows_r = rows_n[side], rows_n[~side]
        ent_side = side_full[srow[ents_n]]
        lid, rid = len(feature), len(feature) + 1
        for child_rows in (rows_l, rows_r):
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(float(residuals[child_rows].mean()))
        feature[node_id] = feat
        threshold[node_id] = thr
        left[node_id] = lid
        right[node_id] = rid
        leaf_rows[lid] = rows_l
        leaf_rows[rid] = rows_r
        leaf_ents[lid] = ents_n[ent_side]
        leaf_ents[rid] = ents_n[~ent_side]
        consider(lid)
        consider(rid)
        leaves += 1

    preds = np.empty(n)
    for nid, rws in leaf_rows.items():
        preds[rws] = value[nid]
    return _Tree(feature, threshold, left, right, value), preds


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
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= matrix.num_classes):
        raise IndexOutOfRange(f"labels must lie in [0, {matrix.num_classes})")
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
    round one) and is updated in place: trees fit one new stage per column
    to the residuals and add it, the linear learner runs its SGD epochs
    from its current weights and rewrites every column. Only tree columns
    run on `threads` threads; the linear learner updates all L columns per
    instance, so permuting columns permutes outputs exactly.
    """
    if data.num_rows == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if matrix.code_length != ensemble.code_length:
        raise DimensionMismatch(
            f"matrix has {matrix.code_length} columns, ensemble has "
            f"{ensemble.code_length}"
        )
    if data.num_features != ensemble.num_features:
        raise DimensionMismatch(
            f"data has {data.num_features} features, ensemble expects "
            f"{ensemble.num_features}"
        )
    _check_buffer(ensemble, data, outputs)
    targets = np.column_stack(
        [make_targets(matrix, data.labels, j) for j in range(matrix.code_length)]
    )
    if ensemble.is_boosting:
        lr = ensemble.spec.learning_rate
        data.sorted_entries  # build the shared sorted view outside worker threads

        def fit_column(j: int) -> None:  # writes only column j of `outputs`
            tree, leaf_pred = _fit_tree(
                data, targets[:, j] - outputs[:, j], ensemble.spec
            )
            ensemble.trees[j].append(tree)
            outputs[:, j] += lr * leaf_pred

        _run_columns(fit_column, ensemble.code_length, threads)
    else:
        _fit_linear(ensemble, data, targets)
        _linear_outputs(ensemble, data, outputs)
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


def _linear_outputs(ensemble, data, out) -> None:
    """Write every linear column's prediction on `data` into `out` (N, L)."""
    for j, w in enumerate(ensemble.weights):
        contrib = w[data.indices] * data.values
        out[:, j] = (
            np.bincount(data._row_ids, weights=contrib, minlength=data.num_rows)
            + ensemble.bias[j]
        )


def predict_all(
    ensemble: BaseLearnerEnsemble, data: SparseDataset, threads: int = 1
) -> np.ndarray:
    """Outputs of every column on every instance, shape (N, L)."""
    if data.num_features != ensemble.num_features:
        raise DimensionMismatch(
            f"data has {data.num_features} features, ensemble expects "
            f"{ensemble.num_features}"
        )
    out = np.zeros((data.num_rows, ensemble.code_length))
    if not ensemble.is_boosting:
        _linear_outputs(ensemble, data, out)
        return out
    data.columns  # build the shared view outside worker threads

    def predict_column(j: int) -> None:
        stages = sum(tree.predict(data) for tree in ensemble.trees[j])
        out[:, j] = ensemble.spec.learning_rate * stages

    _run_columns(predict_column, ensemble.code_length, threads)
    return out


def accumulate_round_outputs(
    ensemble: BaseLearnerEnsemble, data: SparseDataset, buffer: np.ndarray
) -> None:
    """Refresh an output buffer after one train_round.

    Boosting adds only the newest stage; the linear learner recomputes its
    columns. The buffer must have been kept current since round zero.
    """
    _check_buffer(ensemble, data, buffer)
    if not ensemble.is_boosting:
        _linear_outputs(ensemble, data, buffer)
        return
    for j, trees in enumerate(ensemble.trees):
        buffer[:, j] += ensemble.spec.learning_rate * trees[-1].predict(data)


def _check_buffer(ensemble, data, buffer) -> None:
    if buffer.shape != (data.num_rows, ensemble.code_length):
        raise DimensionMismatch(
            f"buffer shape {buffer.shape}, expected "
            f"({data.num_rows}, {ensemble.code_length})"
        )


def _run_columns(job, code_length: int, threads: int) -> None:
    if threads > 1 and code_length > 1:
        with ThreadPoolExecutor(max_workers=min(threads, code_length)) as pool:
            list(pool.map(job, range(code_length)))
    else:
        for j in range(code_length):
            job(j)


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
            weights = " ".join(repr(float(w)) for w in ensemble.weights[j])
            lines.append(f"weights {ensemble.num_features} {weights}".rstrip())
            lines.append(f"bias {float(ensemble.bias[j])!r}")
    write_versioned(path, _HEADER, (ensemble.code_length, spec.kind), lines)


def _dump_tree(tree: _Tree, index: int, lines: list[str]) -> None:
    order = []
    stack = [0]
    while stack:
        nid = stack.pop()
        order.append(nid)
        if tree.feature[nid] >= 0:
            stack.append(int(tree.right[nid]))
            stack.append(int(tree.left[nid]))
    remap = {old: new for new, old in enumerate(order)}
    lines.append(f"tree {index} {len(order)}")
    for old in order:
        if tree.feature[old] >= 0:
            lines.append(
                f"{remap[old]} {int(tree.feature[old])} "
                f"{float(tree.threshold[old])!r} "
                f"{remap[int(tree.left[old])]} {remap[int(tree.right[old])]} "
                f"{float(tree.value[old])!r}"
            )
        else:
            lines.append(f"{remap[old]} -1 0.0 -1 -1 {float(tree.value[old])!r}")


def load_ensemble(path) -> BaseLearnerEnsemble:
    code_length, kind, body = read_versioned(path, _HEADER, "ensemble", second=str)
    if kind not in _KINDS:
        raise ParseError(f"{path}: unknown learner kind {kind!r}", line=1)
    try:
        alpha = float(body[0].split()[1])
        num_features = int(body[1].split()[1])
    except (IndexError, ValueError):
        raise ParseError(f"{path}: bad ensemble property lines") from None
    _check_dimensions(path, body, code_length, kind, num_features)
    spec = LearnerSpec(kind=kind, learning_rate=alpha)
    ensemble = new_ensemble(code_length, spec, num_features)
    pos = 2  # body line pos is line pos + 2 of the file
    try:
        for j in range(code_length):
            parts = body[pos].split()
            if parts[0] != "member" or int(parts[1]) != j:
                raise ParseError(f"{path}: expected member {j}", line=pos + 2)
            pos += 1
            if kind == BOOSTED_TREES:
                for _ in range(int(parts[2])):
                    tree, pos = _parse_tree(body, pos, path, num_features)
                    ensemble.trees[j].append(tree)
            else:
                wparts = body[pos].split()
                weights = np.array([float(x) for x in wparts[2:]])
                if not int(wparts[1]) == weights.shape[0] == num_features:
                    raise ParseError(
                        f"{path}: expected {num_features} weights", line=pos + 2
                    )
                ensemble.weights[j] = weights
                ensemble.bias[j] = float(body[pos + 1].split()[1])
                pos += 2
    except ParseError:
        raise
    except (IndexError, ValueError) as exc:
        raise ParseError(f"{path}: corrupt ensemble file ({exc})") from None
    return ensemble


def _check_dimensions(path, body, code_length, kind, num_features) -> None:
    """Reject header dimensions the body cannot hold before allocating them.

    Every member starts with a `member` line, and a linear member's weights
    line holds num_features numbers of at least one digit and a separator.
    """
    members = sum(line.startswith("member ") for line in body)
    weight_chars = sum(len(line) for line in body if line.startswith("weights "))
    if members != code_length or (
        kind == LINEAR_SGD and 2 * num_features * code_length > weight_chars
    ):
        raise ParseError(
            f"{path}: header declares {code_length} members of "
            f"{num_features} features, the body holds {members} members",
            line=1,
        )


def _parse_tree(body, pos, path, num_features) -> tuple[_Tree, int]:
    """One tree in pre-order: node i is the i-th line after the tree header,
    and children come after their parent, which keeps traversal finite."""
    parts = body[pos].split()
    n_nodes = int(parts[2])
    if parts[0] != "tree" or n_nodes < 1:
        raise ParseError(f"{path}: expected a tree header", line=pos + 2)
    nodes = []
    for nid in range(n_nodes):
        fields = body[pos + 1 + nid].split()
        feature, left, right = int(fields[1]), int(fields[3]), int(fields[4])
        children_later = nid < left < n_nodes and nid < right < n_nodes
        is_split = 0 <= feature < num_features and children_later
        if int(fields[0]) != nid or not (feature == -1 or is_split):
            raise ParseError(
                f"{path}: node {nid} out of order or range", line=pos + nid + 3
            )
        nodes.append((feature, float(fields[2]), left, right, float(fields[5])))
    return _Tree(*zip(*nodes)), pos + 1 + n_nodes
