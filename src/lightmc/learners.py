"""Per-column regression base learners.

Every code column j gets one learner trained against targets
M[label_i, j]. Two kinds are built in: gradient-boosted regression trees
(splits over value bins of sparse rows, one tree per outer round,
predictions are the shrinkage-scaled sum of tree outputs) and a
per-instance SGD linear model. Columns are independent. Tree columns may
be fitted in forked worker processes, which only grow trees and send them
back; the linear learner updates all L columns per instance in one loop,
on the rows of its (F, L) weights. Every output buffer, the training one
too, is then refreshed by `accumulate_round_outputs`: one running sum of
stages. Linear outputs are written afresh, all L columns in one pass over
the stored entries (rows much longer than the rest are finished one at a
time), summed in the order a per-column `np.bincount` sums them, so the
bits match that form's (`_add_outputs`).

Trees grow on a dataset's `groups`: its stored entries binned per feature
into at most `data_io.MAX_BINS` bins, one bin per value where a feature
has no more distinct stored values than that. A node is the sorted list
of the (feature, bin) groups its rows' entries fall in, with their counts
and residual sums, and the split search scans only that list: a feature's
implicit zeros are the node's totals less its stored entries, and are
never materialised. A split builds only the child with fewer stored
entries, from its rows' CSR entries; the larger child is the parent's list
less the smaller one's (sibling subtraction). Cut thresholds lie midway
between the bins the node holds on either side, so on data whose features
have at most `MAX_BINS` distinct stored values the grower is exact greedy:
every cut between two stored values is searched, and ties go to the lowest
(feature, threshold). Rows go left or right with `_go_left`, over the
`columns` view both growing and predicting read. Each worker fits a fixed
stride of columns, tree after tree, in its own `_Workspace`, sized by the
groups, which lasts one round.
"""

from __future__ import annotations

import heapq
import math
import os
import pickle
import signal
import threading
import warnings
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
    LightMCError,
    NonFiniteGradient,
    ParseError,
    check_settings,
)

BOOSTED_TREES = "boosted_trees"
LINEAR_SGD = "linear_sgd"
_KINDS = (BOOSTED_TREES, LINEAR_SGD)

_HEADER = "lightmc-ensemble"
_ROOT_ROWS = 1024  # rows whose entries a root's sums take at once
_ROW_SUM_COST = 1 / 4000  # extra cost of a product summed row by row, in steps


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
        check_settings(InvalidArg, (
            ("learning_rate", self.learning_rate, float, "> 0", "<= 1"),
            ("max_leaves", self.max_leaves, int, ">= 2"),
            ("min_samples_leaf", self.min_samples_leaf, int, ">= 1"),
            ("epochs_per_round", self.epochs_per_round, int, ">= 1"),
        ))


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
    """The scratch a tree grows in. Each worker of a `train_round` makes one
    in its own process, for that round, and reuses it for every tree of its
    stride of columns.

    A node's rows are `[rlo, rhi)` of `rows`, ascending; a split partitions
    that range in place (`_partition`). The root's running sums are
    `ccount` and `csum`, which the larger children of its splits go on
    updating in place. The split search writes its node-sized arrays into
    the other buffers, one item per group of the node. A workspace serves
    any dataset with no more rows and groups than the one it was sized
    from, one tree at a time.
    """

    def __init__(self, data: SparseDataset):
        groups = data.groups.count.shape[0]
        rows = data.num_rows
        self.rows = np.empty(rows, dtype=np.int64)
        self.side = np.empty(rows, dtype=bool)  # _go_left's, by row id
        self.moved = np.empty(rows)  # _partition's and the leaf sums' scratch
        self.ccount, self.csum = np.empty((2, groups + 1))  # the root's running sums
        # split search, per group of a node
        self.stored, self.count, self.other = np.empty((3, groups))
        self.bad = np.empty(groups, dtype=bool)


def _take(a, indices, out):
    """`a[indices]` written to `out`. mode="clip" because mode="raise", the
    default, copies `out` first; every index here is in range, feature
    indices too, which `SparseDataset` checks."""
    return np.take(a, indices, axis=0, out=out[:indices.shape[0]], mode="clip")


def _running(a, out) -> np.ndarray:
    """The running sums of `a`, from 0, in `out`: one more item than `a`."""
    out[0] = 0.0
    np.cumsum(a, out=out[1:])
    return out


class _Node:
    """A node's stored entries as a list of the groups of `data.groups` they
    fall in: ascending group ids, and the running sums over the list of the
    groups' entry counts and residual sums in the node, so that the groups
    `[i, j)` hold `csum[j] - csum[i]` of residual. A split's larger child
    is its parent's `_Node` less the smaller child (`subtract`), so a group
    may hold no entry of the node. `start` and `end` are the index's
    stored sides of the groups' cuts, renumbered to positions in the list.
    """

    __slots__ = ("group", "ccount", "csum", "entries", "start", "end")

    def __init__(self, index, group, ccount, csum, entries: int):
        self.group, self.ccount, self.csum = group, ccount, csum
        self.entries = entries
        if group.shape[0] == index.start.shape[0]:  # every group
            self.start, self.end = index.start, index.end
        else:
            self.start = group.searchsorted(index.start[group])
            self.end = group.searchsorted(index.end[group])

    def subtract(self, child: _Node) -> None:
        """Take a child's groups out of this node's running sums, in place,
        which leaves the other child. Groups the child emptied stay in the
        list, holding no entry."""
        k = self.group.shape[0]
        at = self.group.searchsorted(child.group)
        if not at.size:
            return
        span = np.diff(at, append=k)  # list items each of the child's sums is under
        self.ccount[at[0] + 1:] -= np.repeat(child.ccount[1:], span)
        self.csum[at[0] + 1:] -= np.repeat(child.csum[1:], span)
        self.entries -= child.entries


def _root_node(data: SparseDataset, residuals: np.ndarray, ws: _Workspace) -> _Node:
    """The root: every group, with all its entries. Its running sums are the
    workspace's, summed `_ROOT_ROWS` rows at a time."""
    index = data.groups
    size = index.count.shape[0]
    csum = ws.csum[:size + 1]
    csum[:] = 0.0
    indptr, length = data.indptr, np.diff(data.indptr)
    for lo in range(0, data.num_rows, _ROOT_ROWS):
        hi = min(lo + _ROOT_ROWS, data.num_rows)
        np.add.at(csum[1:], index.entry_group[indptr[lo]:indptr[hi]],
                  np.repeat(residuals[lo:hi], length[lo:hi]))
    np.cumsum(csum, out=csum)
    return _Node(index, np.arange(size), _running(index.count, ws.ccount[:size + 1]),
                 csum, data.indices.shape[0])


def _rows_node(data: SparseDataset, residuals: np.ndarray, rows: np.ndarray) -> _Node:
    """The node of `rows`, ascending, from their CSR entries."""
    index = data.groups
    first = data.indptr[rows]
    length = data.indptr[rows + 1] - first
    entries = int(length.sum())
    at = np.repeat(first - (np.cumsum(length) - length), length)
    at += np.arange(entries)
    entry_group = index.entry_group[at]
    weights = np.repeat(residuals[rows], length)
    size = index.count.shape[0]
    if 16 * entries < size:  # a few entries of many groups: sort them
        group, inverse = np.unique(entry_group, return_inverse=True)
        count, total = np.bincount(inverse), np.bincount(inverse, weights)
    else:
        count = np.bincount(entry_group, minlength=size)
        total = np.bincount(entry_group, weights, minlength=size)
        group = np.flatnonzero(count)
        count, total = count[group], total[group]
    k = group.shape[0]
    return _Node(index, group, _running(count, np.empty(k + 1)),
                 _running(total, np.empty(k + 1)), entries)


# a gain this close to the best, relative to the two side terms the best gain
# is computed from, ties with it; the lowest (feature, threshold) tie wins
_TIE = 1e-12


def _best_split(ws, index, node: _Node, n, total_sum, spec):
    """Split search over a node's groups, in `ws`.

    The node's `n` rows hold `total_sum` of residual. Its groups arrive
    sorted by (feature, bin), and only they are scanned: the rows a
    feature does not store hold its implicit zeros, which are never
    materialised. Each group proposes one cut and sums only its stored
    side of it (see `_Node`). A negative group proposes the cut just above
    it, and its stored side is a prefix of its feature's groups. A positive
    group proposes the cut just below it, and its stored side is a suffix
    of them. So the zero block, implicit and stored zeros alike, lies
    right of every negative cut and left of every positive one; a
    stored-zero group proposes no cut. The other side of a cut is the
    node's totals less the stored side, and a split's gain does not depend
    on which side is left. A group with no entry in the node proposes the
    cut of its nearest held neighbour on the same side, so it can only tie
    with that cut. The threshold is the midpoint between the greatest value
    of the bin below the cut and the least of the bin above it, among the
    bins the node holds; with one value per bin, that is the midpoint of
    the two stored values around the cut.

    Every array the search writes is a slice of the workspace. Gains
    within `_TIE` of the best, relative to its two side terms, tie, and the
    lowest (feature, threshold) among them wins: a stored side's sum is a
    difference of one running sum over the node, so two identical columns
    get gains that differ in their last bits, and the rounding of a gain
    grows with its terms, not with the gain.
    """
    k = node.group.shape[0]
    msl = spec.min_samples_leaf
    if n < 2 * msl or node.entries == 0:
        return None
    stored = _take(node.csum, node.end, ws.stored)
    stored -= _take(node.csum, node.start, ws.count)
    count = _take(node.ccount, node.end, ws.count)
    count -= _take(node.ccount, node.start, ws.other)
    clipped = np.clip(count, msl, n - msl, out=ws.other[:k])
    bad = np.not_equal(count, clipped, out=ws.bad[:k])  # a side under the leaf minimum
    other = np.subtract(total_sum, stored, out=ws.count[:k])
    gain = np.divide(np.square(stored, out=stored), clipped, out=stored)
    np.subtract(n, clipped, out=clipped)
    np.divide(np.square(other, out=other), clipped, out=other)
    gain += other
    parent = total_sum * total_sum / n
    gain -= parent
    np.putmask(gain, bad, -np.inf)
    top = gain.max()
    if top <= 1e-12 * (1.0 + abs(parent)):
        return None
    best = int(np.argmax(np.greater_equal(gain, top - _TIE * (top + parent), out=bad)))

    # the bins the node holds on either side of the cut
    group, ccount = node.group, node.ccount
    g = int(group[best])
    feat = int(index.feature[g])
    a, b = group.searchsorted(index.feature.searchsorted([feat, feat + 1]))
    held = a + np.flatnonzero(np.diff(ccount[a:b + 1]))
    zeros = ccount[b] - ccount[a] < n  # the feature has implicit zeros in the node
    if index.low[g] < 0.0:  # a cut below the zero block
        i = held.searchsorted(best, "right")
        nxt = int(group[held[i]]) if i < held.size else -1
        ok_next = nxt >= 0 and not (zeros and index.low[nxt] > 0.0)
        lo_v, hi_v = index.high[group[held[i - 1]]], index.low[nxt] if ok_next else 0.0
    else:  # a cut above it
        i = held.searchsorted(best)
        prev = int(group[held[i - 1]]) if i > 0 else -1
        ok_prev = prev >= 0 and not (zeros and index.high[prev] < 0.0)
        lo_v, hi_v = index.high[prev] if ok_prev else 0.0, index.low[group[held[i]]]
    thr = 0.5 * (lo_v + hi_v)
    if thr >= hi_v:  # midpoint rounded up to the right value; keep the cut exact
        thr = lo_v
    return float(gain[best]), feat, float(thr)


def _partition(keep_left, rows, moved) -> int:
    """Reorder `rows` in place: the rows where `keep_left` is True first,
    then the rest, each part in its old order. Returns the size of the
    first part. `keep_left` is overwritten; `moved` is scratch of 8-byte
    items at least as long as `rows`."""
    left = np.flatnonzero(keep_left)
    right = np.flatnonzero(np.logical_not(keep_left, out=keep_left))
    out = moved[:rows.shape[0]].view(rows.dtype)
    _take(rows, left, out)
    _take(rows, right, out[left.shape[0]:])
    rows[:] = out
    return left.shape[0]


def _fit_tree(data, residuals, spec, ws: _Workspace) -> _Tree:
    """Grow one least-squares tree best-first under the leaf cap, in `ws`.

    A node is a range of the workspace's rows and, while it may still be
    split, its `_Node` group list. The root's list is built from every
    stored entry. A split builds only the child with fewer stored entries
    from its rows' entries; the other child is the parent's list less that
    child's, updated in place. The children of the split that reaches the
    leaf cap are never searched. The heap holds every leaf that has a
    split: (-gain, node id, feature, threshold, the leaf's row range, its
    `_Node`). Node ids rise in the order leaves are searched, so equal
    gains split the earlier leaf first.
    """
    index = data.groups
    col_indptr, col_rows, col_vals = data.columns
    nodes: list[list] = []  # per node: feature, threshold, left, right, value
    heap: list[tuple] = []
    last_node = 2 * spec.max_leaves - 1  # L leaves are 2L - 1 nodes

    def add_leaf(rlo: int, rhi: int, node: _Node | None) -> None:
        node_id = len(nodes)
        n = rhi - rlo
        total = float(_take(residuals, ws.rows[rlo:rhi], ws.moved).sum())
        nodes.append([-1, 0.0, -1, -1, total / n])
        split = None if node is None else _best_split(ws, index, node, n, total, spec)
        if split is not None:
            gain, feat, thr = split
            heapq.heappush(heap, (-gain, node_id, feat, thr, rlo, rhi, node))

    ws.rows[:data.num_rows] = np.arange(data.num_rows)
    add_leaf(0, data.num_rows, _root_node(data, residuals, ws))
    while heap and len(nodes) < last_node:
        _, node_id, feat, thr, rlo, rhi, node = heapq.heappop(heap)
        rows = ws.rows[rlo:rhi]
        lo, hi = col_indptr[feat], col_indptr[feat + 1]
        side = _go_left(rows, col_rows[lo:hi], col_vals[lo:hi], thr, ws.side)
        nodes[node_id][:4] = feat, thr, len(nodes), len(nodes) + 1
        rmid = rlo + _partition(side, rows, ws.moved)
        left = right = None
        if len(nodes) + 2 < last_node:  # the children may still be split
            lrows = ws.rows[rlo:rmid]
            left_entries = int((data.indptr[lrows + 1] - data.indptr[lrows]).sum())
            if 2 * left_entries <= node.entries:
                left, right = _rows_node(data, residuals, lrows), node
                node.subtract(left)
            else:
                left, right = node, _rows_node(data, residuals, ws.rows[rmid:rhi])
                node.subtract(right)
        add_leaf(rlo, rmid, left)
        add_leaf(rmid, rhi, right)
    return _Tree(*zip(*nodes))


# ---------------------------------------------------------------------------
# ensemble


@dataclass
class BaseLearnerEnsemble:
    """L independent column learners, all of one kind.

    Trees: `trees[j]` is column j's list of boosting stages. Linear:
    column j predicts `values @ weights[:, j] + bias[j]`, with `weights` one
    C-contiguous (F, L) array (a row per feature) and `bias` one (L,) array.
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
    check_settings(InvalidArg, (
        ("code_length", code_length, int, ">= 1"),
        ("num_features", num_features, int, ">= 1"),
    ))
    ensemble = BaseLearnerEnsemble(spec, num_features, seed, trees=[])
    if ensemble.is_boosting:
        ensemble.trees = [[] for _ in range(code_length)]
    else:
        ensemble.weights = np.zeros((num_features, code_length))
        ensemble.bias = np.zeros(code_length)
    return ensemble


def make_targets(matrix: CodingMatrix, labels: np.ndarray, column: int) -> np.ndarray:
    """Regression targets of one column: the labelled row's entry there."""
    check_settings(IndexOutOfRange, (
        ("column", column, int, ">= 0", f"< {matrix.code_length}"),
    ))
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
    fitting is parallel, over `threads` workers: worker w fits columns w,
    w + workers, ..., one after another, in a workspace of its own. Worker 0
    is the calling thread; each other one is a child forked once the shared
    views are built (`_in_workers`), which reads them copy-on-write and
    sends its new trees back. Where `os.fork` is missing or another Python
    thread runs, every column is fitted on the calling thread. The linear
    learner updates all L columns per instance, so permuting columns
    permutes outputs exactly.
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
        data.groups, data.columns  # build the shared views before forking
        workers = max(1, min(threads, ensemble.code_length))
        if not hasattr(os, "fork") or threading.active_count() > 1:
            workers = 1  # forking a process that runs other threads is unsafe

        def fit_columns(w: int) -> list[_Tree]:
            """Worker w's new trees: columns w, w + workers, ..., in one workspace."""
            ws = _Workspace(data)
            return [
                _fit_tree(data, targets[:, j] - outputs[:, j], ensemble.spec, ws)
                for j in range(w, ensemble.code_length, workers)
            ]

        for w, trees in enumerate(_in_workers(fit_columns, workers)):
            for j, tree in zip(range(w, ensemble.code_length, workers), trees):
                ensemble.trees[j].append(tree)
    else:
        _fit_linear(ensemble, data, targets)
    accumulate_round_outputs(ensemble, data, outputs)
    ensemble.rounds_done += 1
    return ensemble


def _in_workers(task, workers: int) -> list:
    """[task(0), ..., task(workers - 1)]: task(0) on the calling thread, and
    each other one in a child process forked for it.

    A child sends its result, or the exception it raised, back over a pipe
    as one pickle, and ends with `os._exit`: it never returns into the
    caller, and runs no atexit handler or stdio flush. A child's exception
    is raised here as it was raised there. A child that ends without a
    readable result is a LightMCError naming the worker and how it ended.
    Every child is reaped before this returns or raises; if the caller's
    own share raises, or it is interrupted, the children still running are
    killed first.
    """
    running: dict[int, tuple[int, int]] = {}  # worker -> (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            with warnings.catch_warnings():
                # Python >= 3.12 warns of any thread of the process; no Python
                # thread runs here, and native pools such as BLAS's handle fork
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                for _, fd in running.values():
                    os.close(fd)
                os.close(read_end)
                _child(task, w, write_end)
            running[w] = (pid, read_end)
            os.close(write_end)
        results = [task(0)]
        for w, (pid, fd) in list(running.items()):
            with open(fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[w]
            os.close(fd)
            results.append(_received(w, payload, status))
        return results
    finally:
        for pid, fd in running.values():
            os.close(fd)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already
                pass


def _child(task, w: int, fd: int):
    """In a forked child: send task(w), or what it raised, over `fd`, then end."""
    status = 1
    try:
        try:
            payload = pickle.dumps((True, task(w)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # raised again by the parent
            payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _received(w: int, payload: bytes, status: int):
    """What worker w sent, or the exception it sent raised."""
    try:
        done, value = pickle.loads(payload)
    except Exception:  # empty or cut short: any of pickle's errors
        code = os.waitstatus_to_exitcode(status)
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise LightMCError(
            f"tree worker {w} ended with {how} and sent no result"
        ) from None
    if not done:
        raise value
    return value


def _fit_linear(ensemble, data, targets) -> None:
    """One round of per-instance SGD on the squared loss, all columns at once.

    The epoch orders come from (seed, rounds_done). The weight rows of the
    instance's features are copied to a C-contiguous (L, n) block, so each
    column's gradient is the same dot product as one column's `w[js] @ vs`;
    the step is taken on that block, which is then written back.
    """
    rng = np.random.default_rng([ensemble.seed, 7919, ensemble.rounds_done])
    lr = ensemble.spec.learning_rate
    w, b = ensemble.weights, ensemble.bias
    indptr, indices, values = data.indptr.tolist(), data.indices, data.values
    # divergence is reported once, below, not as numpy warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(ensemble.spec.epochs_per_round):
            for i in rng.permutation(data.num_rows).tolist():
                lo, hi = indptr[i], indptr[i + 1]
                js, vs = indices[lo:hi], values[lo:hi]
                wj = w[js].T.copy()
                step = lr * (np.vecdot(wj, vs) + b - targets[i])
                wj -= step[:, None] * vs
                w[js] = wj.T
                b -= step
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(w))):
        raise NonFiniteGradient(
            "linear learner diverged; lower its learning_rate (--alpha)"
        )


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
    `train_round` refreshes its training buffer here once every column's
    new tree is in.
    """
    _add_outputs(ensemble, data, buffer, slice(-1, None))


def _add_outputs(ensemble, data, buffer, stages: slice) -> None:
    """Add boosting `stages` of every column to `buffer`, or write linear outputs.

    Linear outputs take one pass over the stored entries for all L columns.
    The rows are sorted by entry count, longest first and stable, so the
    rows with more than k entries are a prefix of that order. Step k adds
    the k-th entry of each such row to the row's running sums: the entry's
    feature's row of the (F, L) weights, scaled by its value.
    A step serves every row still that long, so where a few rows are much
    longer than the rest, the last steps would serve a handful of rows
    each. So after s steps each row longer than s is finished alone: its
    remaining products, the first with its running sum added, summed in
    storage order by `np.cumsum`. Steps and rows cost about the same Python
    overhead, and `np.cumsum` along a row costs about twice a step per
    product (4 against 2 ns, one core); s is the count that makes s, plus
    the rows longer than s, plus `_ROW_SUM_COST` times the products they
    still hold, least. A row holds each feature at most once, so its
    products take no more room than the weights. Each output is thus
    0.0 plus its row's products in storage order, plus the bias, the order
    in which a per-column `np.bincount` over the rows' entries sums, so the
    bits are the same as that form's.
    """
    _check_data(ensemble, data, buffer)
    if ensemble.is_boosting:
        for j, trees in enumerate(ensemble.trees):
            for tree in trees[stages]:
                buffer[:, j] += ensemble.spec.learning_rate * tree.predict(data)
        return
    length = np.diff(data.indptr)
    order = np.argsort(-length, kind="stable")
    at = data.indptr[order]  # each sorted row's next entry
    # longer[k]: how many rows have more than k entries, a prefix of order
    longer = np.searchsorted(-length[order], -np.arange(length.max(initial=0) + 1))
    left = data.indices.size - (np.cumsum(longer) - longer)  # entries after k steps
    cost = np.arange(longer.size) + longer + left * (buffer.shape[1] * _ROW_SUM_COST)
    steps = int(np.argmin(cost))
    acc, block = np.zeros((2, *buffer.shape))
    for m in longer[:steps].tolist():
        ent = at[:m]
        b = _take(ensemble.weights, data.indices[ent], block)
        b *= data.values[ent, None]
        acc[:m] += b
        at[:m] += 1
    for i, end in enumerate(data.indptr[order[:longer[steps]] + 1].tolist()):
        b = ensemble.weights[data.indices[at[i]:end]]
        b *= data.values[at[i]:end, None]
        np.add(acc[i], b[0], out=b[0])
        acc[i] = np.cumsum(b, axis=0, out=b)[-1]
    acc += ensemble.bias
    buffer[order] = acc


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
    """Versioned text dump; trees are listed in pre-order. Lines are written
    as they are made, so the file's text is never one string."""

    def lines():
        yield f"alpha {ensemble.spec.learning_rate!r}"
        yield f"features {ensemble.num_features}"
        for j in range(ensemble.code_length):
            if ensemble.is_boosting:
                yield f"member {j} {len(ensemble.trees[j])}"
                for t, tree in enumerate(ensemble.trees[j]):
                    yield from _dump_tree(tree, t)
            else:
                yield f"member {j}"
                weights = format_floats(ensemble.weights[:, j])
                yield f"weights {ensemble.num_features} {weights}".rstrip()
                yield f"bias {format_floats(ensemble.bias[j:j + 1])}"

    write_versioned(path, _HEADER, (ensemble.code_length, ensemble.spec.kind), lines())


def _dump_tree(tree: _Tree, index: int):
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
    yield f"tree {index} {len(order)}"
    for old in order:
        yield (
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
    w, b = zip(*members)
    return BaseLearnerEnsemble(spec, num_features, 0, [], np.stack(w, axis=1), np.array(b))


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
