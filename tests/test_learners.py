import gc
import heapq
import os
import resource
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightmc import codebook, data_io, learners, trainer
from lightmc.errors import (
    DimensionMismatch,
    EmptyDataset,
    IndexOutOfRange,
    InvalidArg,
    LightMCError,
    NonFiniteGradient,
    ParseError,
)
from lightmc.learners import (
    BOOSTED_TREES,
    LINEAR_SGD,
    LearnerSpec,
    _best_split,
    _fit_tree,
    _root_node,
    _rows_node,
    _Workspace,
)


def random_sparse(rng, n, num_features, zero_fraction=0.4, num_classes=3):
    dense = rng.normal(size=(n, num_features))
    dense[rng.random((n, num_features)) < zero_fraction] = 0.0
    labels = rng.integers(0, num_classes, size=n)
    labels[:num_classes] = np.arange(num_classes)
    return data_io.from_dense(dense, labels), dense


def root_split(data, residuals, total_sum, spec):
    """Best split of the root node: every row and every stored entry."""
    ws = _Workspace(data)
    node = _root_node(data, residuals, ws)
    return _best_split(ws, data.groups, node, data.num_rows, total_sum, spec)


def reference_best_split(sf, sv, srow, ents, rows, res_full, total_sum, spec):
    """The split search as it was before the tree workspace, kept verbatim as
    the exact oracle of `_best_split`: it splices with `np.insert`.

    Split search over a node's slice of the presorted entry arrays.

    `ents` indexes (sf, sv, srow) and is ascending, so the node's entries
    arrive sorted by (feature, value) with no per-node sort. The implicit
    zero block of each feature is spliced in as one synthetic group between
    its negative and nonnegative stored values, so thresholds on either
    side of zero are all evaluated. The split is the first maximum of the
    computed gains in (feature, threshold) order; a sparse feature's left
    sums are differences of one running sum, so two identical sparse
    columns need not get equal gains, and either may win.
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
    best = int(np.argmax(gain))
    if gain[best] <= 1e-12 * (1.0 + abs(parent)):
        return None
    lo_v, hi_v = gv[cand[best]], gv[cand[best] + 1]
    thr = 0.5 * (lo_v + hi_v)
    if thr >= hi_v:  # midpoint rounded up to the right value; keep the cut exact
        thr = lo_v
    return float(gain[best]), int(gf[cand[best]]), float(thr)



def reference_fit_tree(data, residuals, spec):
    """The tree grower as it was before the workspace, kept verbatim as the
    exact oracle of `_fit_tree`: every node owns its row and entry arrays.

    Grow one least-squares tree best-first under the leaf cap.

    The heap holds every leaf that has a split: (-gain, node id, feature,
    threshold, the leaf's rows, its entries). Node ids rise in the order
    leaves are searched, so equal gains split the earlier leaf first.
    """
    sf, sv, srow = data.sorted_entries
    nodes: list[list] = []  # per node: feature, threshold, left, right, value
    side_full = np.empty(data.num_rows, dtype=bool)
    heap: list[tuple] = []

    def add_leaf(rows: np.ndarray, ents: np.ndarray) -> None:
        node_id = len(nodes)
        total = float(residuals[rows].sum())
        nodes.append([-1, 0.0, -1, -1, total / rows.size])
        split = reference_best_split(sf, sv, srow, ents, rows, residuals, total, spec)
        if split is not None:
            gain, feat, thr = split
            heapq.heappush(heap, (-gain, node_id, feat, thr, rows, ents))

    add_leaf(np.arange(data.num_rows), np.arange(sf.shape[0]))
    while heap and len(nodes) < 2 * spec.max_leaves - 1:  # L leaves are 2L - 1 nodes
        _, node_id, feat, thr, rows, ents = heapq.heappop(heap)
        split_ents = ents[sf[ents] == feat]
        side = learners._go_left(rows, srow[split_ents], sv[split_ents], thr, side_full)
        ent_side = side_full[srow[ents]]
        nodes[node_id][:4] = feat, thr, len(nodes), len(nodes) + 1
        add_leaf(rows[side], ents[ent_side])
        add_leaf(rows[~side], ents[~ent_side])
    return learners._Tree(*zip(*nodes))


def assert_same_tree(got, want):
    for name in learners._Tree.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def node_split(data, residuals, rows, spec, taken=()):
    """(`_best_split`, `reference_best_split`) of the node holding `rows`
    (ascending) and every stored entry of them. The node's group list is
    built from its rows, or, if `taken` lists disjoint row sets that with
    `rows` make up every row, as the root's list less that of each set in
    turn, as the larger child of each split down a tree is; the workspace
    holds what the root's search left in it. Every node's last running
    count must be the number of stored entries of its rows."""
    sf, sv, srow = data.sorted_entries
    ents = np.flatnonzero(np.isin(srow, rows))
    total = float(residuals[rows].sum())
    ws = _Workspace(data)
    root = _root_node(data, residuals, ws)
    row_entries = np.diff(data.indptr)
    assert root.ccount[-1] == row_entries.sum()
    _best_split(ws, data.groups, root, data.num_rows, float(residuals.sum()), spec)
    if taken:
        ccount, csum = root.ccount, root.csum
        remaining = np.ones(data.num_rows, dtype=bool)
        for other in taken:
            child = _rows_node(data, residuals, other)
            assert child.ccount[-1] == row_entries[other].sum()
            assert root.subtract(child) is None
            remaining[other] = False
            assert root.ccount[-1] == row_entries[remaining].sum()
        assert root.ccount is ccount and root.csum is csum
        node = root
    else:
        node = _rows_node(data, residuals, rows)
        assert node.ccount[-1] == row_entries[rows].sum()
    got = _best_split(ws, data.groups, node, rows.size, total, spec)
    want = reference_best_split(sf, sv, srow, ents, rows, residuals, total, spec)
    return got, want


# how one feature's column is stored: which rows hold an entry, and the
# signs of the stored values (explicit zeros count as nonnegative)
_LAYOUTS = [
    (rows, signs)
    for rows in ("every", "some", "none")
    for signs in ("negative", "nonnegative", "mixed")
]


@st.composite
def split_nodes(draw):
    """A small dataset, a node of it (the root or a subset of its rows),
    residuals, a leaf minimum, and either no row sets or 1-3 disjoint ones
    that hold every row outside the node, to be subtracted from the root in
    turn. A node of a fifth of the rows leaves most of the root's groups
    empty on some draws. Values come from a small set, so ties, stored
    zeros and duplicate (feature, value) groups are common, or are
    continuous."""
    n = draw(st.integers(2, 24))
    layouts = draw(st.lists(st.sampled_from(_LAYOUTS), min_size=1, max_size=5))
    discrete = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = np.zeros((n, len(layouts)))
    stored = np.zeros((n, len(layouts)), dtype=bool)
    for f, (rows, signs) in enumerate(layouts):
        stored[:, f] = {"every": True, "some": rng.random(n) < 0.5, "none": False}[rows]
        if discrete:
            column = rng.choice([0.0, 0.5, 1.0, 2.0], n)
        else:
            column = np.abs(rng.normal(size=n)) * (rng.random(n) > 0.2)
        if signs == "negative":
            column = -column - 0.25
        elif signs == "mixed":
            column *= rng.choice([-1.0, 1.0], n)
        dense[:, f] = column
    dense[~stored] = 0.0
    r, c = np.nonzero(stored)
    data = data_io.SparseDataset(
        indptr=np.concatenate(([0], np.cumsum(stored.sum(axis=1)))),
        indices=c,
        values=dense[r, c],
        labels=np.zeros(n, dtype=np.int64),
        num_features=len(layouts),
        num_classes=1,
        label_names=("0",),
    )
    if draw(st.booleans()):
        residuals = rng.integers(-2, 3, n).astype(np.float64)  # exact ties
    else:
        residuals = rng.normal(size=n)
    rows = np.arange(n)
    if draw(st.booleans()):  # a child node: a nonempty subset of the rows
        rows = rows[rng.random(n) < draw(st.sampled_from([0.6, 0.2]))]
        if rows.size == 0:
            rows = np.array([int(rng.integers(n))])
    msl = draw(st.integers(1, 3))
    taken = ()
    if draw(st.booleans()):  # the node as the root less the other rows' sets
        other = np.setdiff1d(np.arange(n), rows)
        cuts = np.sort(rng.integers(0, other.size + 1, draw(st.integers(0, 2))))
        taken = np.split(other, cuts)
    return data, residuals, rows, LearnerSpec(min_samples_leaf=msl), taken


def _evaluate_split(dense, residuals, feature, threshold):
    """Gain of one concrete split, computed directly from the dense data."""
    n = dense.shape[0]
    total = residuals.sum()
    left = dense[:, feature] <= threshold
    n_left = int(left.sum())
    if n_left == 0 or n_left == n:
        return -np.inf
    s_left = residuals[left].sum()
    return (
        s_left**2 / n_left
        + (total - s_left) ** 2 / (n - n_left)
        - total**2 / n
    )


def brute_force_best_split(dense, residuals, min_samples_leaf):
    """O(n^2) exact-greedy oracle: scan every (feature, threshold) pair."""
    n, num_features = dense.shape
    total = residuals.sum()
    parent = total * total / n
    best = None
    for f in range(num_features):
        col = dense[:, f]
        order = np.argsort(col, kind="stable")
        sv, sr = col[order], residuals[order]
        csum = np.cumsum(sr)
        for i in range(n - 1):
            if sv[i] == sv[i + 1]:
                continue
            n_left = i + 1
            n_right = n - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            gain = csum[i] ** 2 / n_left + (total - csum[i]) ** 2 / n_right - parent
            if best is None or gain > best[0] + 1e-12:
                thr = 0.5 * (sv[i] + sv[i + 1])
                if thr >= sv[i + 1]:
                    thr = sv[i]
                best = (gain, f, thr)
    return best


class TestLearnerSpec:
    def test_validation(self):
        LearnerSpec().validate()
        with pytest.raises(InvalidArg):
            LearnerSpec(kind="forest").validate()
        for name, value in (
            ("learning_rate", 0.0), ("learning_rate", np.nextafter(1.0, 2.0)),
            ("learning_rate", "0.1"), ("learning_rate", None),
            ("max_leaves", 1), ("max_leaves", None),
            ("min_samples_leaf", 0), ("min_samples_leaf", "0.1"),
            ("epochs_per_round", 0), ("epochs_per_round", 1.5),
        ):
            with pytest.raises(InvalidArg, match=f"^{name} must be"):
                LearnerSpec(**{name: value}).validate()
        with pytest.raises(InvalidArg) as exc:
            LearnerSpec(learning_rate=1.5).validate()
        assert str(exc.value) == "learning_rate must be a finite number > 0 and <= 1, got 1.5"
        # the sizes new_ensemble takes besides the spec
        for name, code_length, num_features in (
            ("code_length", 0, 3), ("code_length", None, 3),
            ("num_features", 3, 0), ("num_features", 3, "3"),
        ):
            with pytest.raises(InvalidArg, match=f"^{name} must be"):
                learners.new_ensemble(code_length, LearnerSpec(), num_features)


class TestMakeTargets:
    def test_lookup(self):
        m = codebook.CodingMatrix(np.array([[1.0, 2.0], [-1.0, 3.0], [1.0, -2.0]]))
        targets = learners.make_targets(m, np.array([0, 1, 2, 0]), 0)
        assert np.array_equal(targets, np.array([1.0, -1.0, 1.0, 1.0]))

    def test_binary_matrix_gives_signs(self):
        m = codebook.init_random(4, 4, seed=0)
        targets = learners.make_targets(m, np.array([0, 1, 2, 3]), 2)
        assert set(np.abs(targets)) == {1.0}

    def test_bounds(self):
        m = codebook.init_random(4, 4, seed=0)
        for column in (4, -1, 1.5, "0"):
            with pytest.raises(IndexOutOfRange, match="^column must be an integer >= 0 and < 4"):
                learners.make_targets(m, np.array([0]), column)
        with pytest.raises(IndexOutOfRange):
            learners.make_targets(m, np.array([5]), 0)


class TestSplitSearch:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            n = int(rng.integers(4, 40))
            num_features = int(rng.integers(1, 6))
            data, dense = random_sparse(rng, n, num_features)
            residuals = rng.normal(size=n)
            msl = int(rng.integers(1, 3))
            spec = LearnerSpec(min_samples_leaf=msl)
            got = root_split(data, residuals, float(residuals.sum()), spec)
            want = brute_force_best_split(dense, residuals, msl)
            assert (got is None) == (want is None)
            if got is not None:
                # the chosen split must achieve the oracle's best gain; with
                # co-optimal splits float noise may pick a different one
                assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-9)
                achieved = _evaluate_split(dense, residuals, got[1], got[2])
                assert achieved == pytest.approx(want[0], rel=1e-9, abs=1e-9)

    def test_tie_breaks_to_lowest_feature(self):
        # duplicated columns create exactly tied gains; the first must win
        rng = np.random.default_rng(8)
        col = rng.normal(size=30)
        dense = np.column_stack([np.zeros(30), col, col])
        labels = rng.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        data = data_io.from_dense(dense, labels)
        residuals = rng.normal(size=30)
        got = root_split(data, residuals, float(residuals.sum()), LearnerSpec())
        assert got is not None and got[1] == 1
        # sparse twins, about 30% stored with mixed signs, at the root and at
        # child nodes: their stored sides are sums at different offsets of
        # one running sum, so their gains differ in the last bits. A large
        # mean residual makes the side terms, and their rounding, far larger
        # than the gain
        rng = np.random.default_rng(41)
        splits = 0
        for _ in range(200):
            n, width = int(rng.integers(10, 60)), int(rng.integers(1, 5))
            base = rng.normal(size=(n, width)) * (rng.random((n, width)) < 0.3)
            data = data_io.from_dense(np.hstack([base, base]), np.zeros(n, dtype=int))
            residuals = rng.normal(size=n) + rng.choice([0.0, 100.0])
            rows = np.arange(n)
            if rng.random() < 0.5:
                rows = rows[rng.random(n) < 0.6]
            got, _ = node_split(data, residuals, rows, LearnerSpec())
            assert got is None or got[1] < width
            splits += got is not None
        assert splits > 100

    def test_midpoint_rounding_up_keeps_the_cut(self):
        # lo and hi are adjacent doubles, so their midpoint rounds to hi; a
        # threshold of hi would send both values left
        eps = np.spacing(1.0)
        lo, hi = 1.0 + eps, 1.0 + 2 * eps
        assert 0.5 * (lo + hi) == hi
        data = data_io.from_dense(np.array([[lo], [lo], [hi], [hi]]), np.zeros(4, dtype=int))
        residuals = np.array([-1.0, -1.0, 1.0, 1.0])
        spec = LearnerSpec(max_leaves=2, min_samples_leaf=1)
        tree = _fit_tree(data, residuals, spec, _Workspace(data))
        assert tree.threshold[0] == lo
        assert np.array_equal(tree.predict(data), residuals)

    def test_no_split_on_constant_residuals(self):
        rng = np.random.default_rng(1)
        data, _ = random_sparse(rng, 30, 4)
        spec = LearnerSpec()
        assert root_split(data, np.full(30, 2.5), 75.0, spec) is None


    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(node=split_nodes())
    def test_matches_the_insert_splice_reference(self, node):
        # the stored sides are summed in another order than the splice's, so a
        # gain may differ in its last bits, and a co-optimal split may win
        data, residuals, rows = node[:3]
        got, want = node_split(*node)
        assert (got is None) == (want is None)
        if got is None:
            return
        assert got[0] == pytest.approx(want[0], rel=1e-9)
        if got[1:] != want[1:]:
            sf, sv, srow = data.sorted_entries
            dense = np.zeros((data.num_rows, data.num_features))
            dense[srow, sf] = sv
            achieved = [
                _evaluate_split(dense[rows], residuals[rows], *split[1:])
                for split in (got, want)
            ]
            assert achieved[0] == pytest.approx(achieved[1], rel=1e-9, abs=1e-9)

    def test_coincident_zero_groups_keep_insert_order(self):
        # feature 0 stores only negative values and feature 1 only positive
        # ones, and both have implicit zeros: both zero blocks fall between
        # sorted entries 2 and 3, where feature 0 ends and feature 1 begins
        dense = np.array(
            [[-1.0, 0.0], [-2.0, 0.0], [-3.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 0.0]]
        )
        data = data_io.from_dense(dense, np.zeros(6, dtype=np.int64))
        sf, sv, _ = data.sorted_entries
        assert sf.tolist() == [0, 0, 0, 1, 1] and sv.tolist() == [-3, -2, -1, 1, 2]
        residuals = np.array([-1.0, -1.0, -1.0, 5.0, 5.0, -1.0])
        # with a leaf minimum of 3, feature 1's right side (2 rows) is too
        # small, and feature 0 wins
        for msl, split in ((1, (1, 0.5)), (2, (1, 0.5)), (3, (0, -0.5))):
            spec = LearnerSpec(min_samples_leaf=msl)
            got, want = node_split(data, residuals, np.arange(6), spec)
            assert got[0] == pytest.approx(want[0], rel=1e-9)
            assert got[1:] == want[1:] == split


@st.composite
def tree_fits(draw):
    """A small dataset whose features have at most 60 distinct stored values,
    integer residuals, and a leaf minimum and cap. The residuals lie in
    [-1000, 1000], so every sum is exact and two cuts that split the rows
    alike tie exactly; small integers would also make many different
    splits' gains equal as fractions, which the reference breaks by their
    rounding and the grower by the lowest (feature, threshold). Negating
    every value mirrors each split, so the child with fewer stored entries
    is drawn on either side."""
    n = draw(st.integers(2, 60))
    num_features = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = rng.random((n, num_features)) < draw(st.sampled_from([0.3, 0.6, 1.0]))
    if draw(st.booleans()):  # few distinct values: ties and stored zeros
        dense = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], (n, num_features))
    else:
        dense = rng.normal(size=(n, num_features))
    if draw(st.booleans()):
        dense = -dense
    dense[~stored] = 0.0
    r, c = np.nonzero(stored)
    data = data_io.SparseDataset(
        indptr=np.concatenate(([0], np.cumsum(stored.sum(axis=1)))),
        indices=c,
        values=dense[r, c],
        labels=np.zeros(n, dtype=np.int64),
        num_features=num_features,
        num_classes=1,
        label_names=("0",),
    )
    residuals = rng.integers(-1000, 1001, n).astype(np.float64)
    spec = LearnerSpec(
        max_leaves=draw(st.integers(2, 12)), min_samples_leaf=draw(st.integers(1, 3))
    )
    return data, residuals, spec


def many_valued(seed):
    """1500 rows of two features: feature 0 stores about 1200 values, with
    hundreds of distinct ones of both signs, repeats and stored zeros;
    feature 1 stores three values. Some rows of each store nothing."""
    rng = np.random.default_rng(seed)
    n = 1500
    dense = np.column_stack(
        [np.round(rng.normal(size=n) * 300.0) / 100.0, rng.choice([-1.0, 0.0, 2.0], n)]
    )
    dense[rng.random(n) < 0.05, 0] = 0.0
    stored = rng.random((n, 2)) < [0.8, 0.5]
    dense[~stored] = 0.0
    r, c = np.nonzero(stored)
    data = data_io.SparseDataset(
        indptr=np.concatenate(([0], np.cumsum(stored.sum(axis=1)))),
        indices=c,
        values=dense[r, c],
        labels=np.zeros(n, dtype=np.int64),
        num_features=2,
        num_classes=1,
        label_names=("0",),
    )
    return data, dense


class TestBins:
    def test_bins_keep_values_whole_and_signs_apart(self):
        data, _ = many_valued(43)
        groups = data.groups
        sf, sv, _ = data.sorted_entries
        for f in (0, 1):
            mine = groups.feature == f
            low, high, count = groups.low[mine], groups.high[mine], groups.count[mine]
            values = sv[sf == f]
            distinct = np.unique(values)
            assert count.sum() == values.size
            # ordered, and a value never lies in two bins
            assert np.all(low <= high) and np.all(high[:-1] < low[1:])
            assert np.all(np.sign(low) == np.sign(high))
            assert np.array_equal(np.bincount(low.searchsorted(values, "right") - 1), count)
            if f == 0:
                assert distinct.size > 2 * data_io.MAX_BINS
                assert 200 < mine.sum() <= data_io.MAX_BINS
                assert low[low == 0.0].size == 1  # the stored zeros' own bin
            else:
                assert np.array_equal(low, distinct) and np.array_equal(high, distinct)
        # entry_group is in storage order, also with features that store nothing
        wide = data_io.SparseDataset(
            indptr=data.indptr,
            indices=2 * data.indices,
            values=data.values,
            labels=data.labels,
            num_features=4,
            num_classes=1,
            label_names=("0",),
        )
        assert np.any(np.diff(data.indptr) == 0)  # rows that store nothing
        assert np.array_equal(wide.groups.feature, 2 * groups.feature)
        for d in (data, wide):
            group = d.groups.entry_group
            assert np.array_equal(d.groups.feature[group], d.indices)
            assert np.all(d.groups.low[group] <= d.values)
            assert np.all(d.values <= d.groups.high[group])

    @pytest.mark.parametrize("msl", [1, 40])
    def test_split_is_the_best_cut_between_held_bins(self, msl):
        data, dense = many_valued(47)
        groups = data.groups
        rng = np.random.default_rng(48)
        spec = LearnerSpec(min_samples_leaf=msl)
        binned_splits = 0
        for trial in range(6):
            residuals = rng.normal(size=data.num_rows) + 3.0 * dense[:, 0]
            rows = np.arange(data.num_rows)
            if trial % 2:
                rows = np.flatnonzero(rng.random(data.num_rows) < 0.3)
            node = _rows_node(data, residuals, rows)
            total = float(residuals[rows].sum())
            got = _best_split(_Workspace(data), groups, node, rows.size, total, spec)
            x, r = dense[rows], residuals[rows]
            # the bins the node holds, and the zero block where rows store nothing
            cuts = {}
            for f in (0, 1):
                col = x[:, f]
                stored = np.isin(rows, data.sorted_entries[2][data.sorted_entries[0] == f])
                mine = np.flatnonzero(groups.feature == f)
                held = mine[np.bincount(
                    groups.low[mine].searchsorted(col[stored], "right") - 1,
                    minlength=mine.size,
                ) > 0]
                bins = set(zip(groups.low[held], groups.high[held]))
                if not stored.all():
                    bins.add((0.0, 0.0))
                bins = sorted(bins)
                cuts[f] = [(lo[1], hi[0]) for lo, hi in zip(bins, bins[1:])]
            best = max(
                _evaluate_split(x, r, f, below)
                for f in (0, 1)
                for below, _ in cuts[f]
                if msl <= np.count_nonzero(x[:, f] <= below) <= rows.size - msl
            )
            assert got[0] == pytest.approx(best, rel=1e-9)
            feat, thr = got[1:]
            assert _evaluate_split(x, r, feat, thr) == pytest.approx(best, rel=1e-9)
            assert any(below <= thr < above for below, above in cuts[feat])
            binned_splits += feat == 0
        assert binned_splits >= 3


class TestTreeFitting:
    def test_constant_targets_one_round(self):
        rng = np.random.default_rng(3)
        data, _ = random_sparse(rng, 40, 5)
        m = codebook.CodingMatrix(np.full((3, 2), 0.7))
        ensemble = learners.new_ensemble(2, LearnerSpec(), data.num_features)
        learners.train_round(ensemble, data, m, np.zeros((40, 2)))
        outputs = learners.predict_all(ensemble, data)
        np.testing.assert_allclose(outputs, 0.1 * 0.7, rtol=1e-12)
        # a constant fit needs no split
        assert len(ensemble.trees[0][0].value) == 1

    def test_two_rounds_do_not_raise_mse(self):
        rng = np.random.default_rng(5)
        data, _ = random_sparse(rng, 80, 6)
        m = codebook.init_random(3, 3, seed=2)
        one = learners.new_ensemble(3, LearnerSpec(), data.num_features)
        learners.train_round(one, data, m, np.zeros((80, 3)))
        two = learners.new_ensemble(3, LearnerSpec(), data.num_features)
        out_two = np.zeros((80, 3))
        learners.train_round(two, data, m, out_two)
        learners.train_round(two, data, m, out_two)
        for j in range(3):
            targets = learners.make_targets(m, data.labels, j)
            mse_one = np.mean((learners.predict_all(one, data)[:, j] - targets) ** 2)
            mse_two = np.mean((learners.predict_all(two, data)[:, j] - targets) ** 2)
            assert mse_two <= mse_one + 1e-12

    def test_reused_workspace_grows_what_fresh_ones_grow(self):
        rng = np.random.default_rng(23)
        large, _ = random_sparse(rng, 120, 8)
        small, _ = random_sparse(rng, 50, 5)  # fewer rows, entries and features
        assert small.indices.size < large.indices.size
        fits = {
            "a": (large, rng.normal(size=120)),
            "b": (large, rng.normal(size=120)),
            "small": (small, rng.normal(size=50)),
        }
        for spec in (LearnerSpec(max_leaves=10), LearnerSpec(min_samples_leaf=3)):
            fresh = {}
            for name, (data, residuals) in fits.items():
                fresh[name] = _fit_tree(data, residuals, spec, _Workspace(data))
                assert_same_tree(fresh[name], reference_fit_tree(data, residuals, spec))
            for order in (("a", "b", "small"), ("b", "a", "small")):
                ws = _Workspace(large)
                for name in order:
                    data, residuals = fits[name]
                    assert_same_tree(_fit_tree(data, residuals, spec, ws), fresh[name])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fit=tree_fits())
    def test_grows_the_reference_tree(self, fit):
        data, residuals, spec = fit
        got = _fit_tree(data, residuals, spec, _Workspace(data))
        assert_same_tree(got, reference_fit_tree(data, residuals, spec))

    @pytest.mark.parametrize("max_leaves", [2, 3, 8, 12])
    def test_full_tree_runs_two_searches_per_split_but_the_last(
        self, monkeypatch, max_leaves
    ):
        searches = []

        def counted(*args):
            searches.append(args)
            return _best_split(*args)

        monkeypatch.setattr(learners, "_best_split", counted)
        data, _ = random_sparse(np.random.default_rng(37), 200, 6, zero_fraction=0.2)
        residuals = np.random.default_rng(38).normal(size=200)
        spec = LearnerSpec(max_leaves=max_leaves)
        tree = _fit_tree(data, residuals, spec, _Workspace(data))
        assert np.count_nonzero(tree.feature < 0) == max_leaves
        assert len(searches) == 2 * max_leaves - 3

    def test_reused_workspace_takes_few_page_faults(self):
        # about 50k stored entries, binned into about 25k groups: each
        # group-sized float64 array of the root is about 200 KB, above
        # glibc's default 128 KB mmap threshold. The grower that allocated
        # its node arrays per node took about 20k minor page faults for one
        # tree; with a workspace per worker and round, two rounds after the
        # first take about 145 in a fresh process, against about 175 when the
        # workspaces were kept from one round to the next
        rng = np.random.default_rng(29)
        dense = rng.normal(size=(1000, 100))
        dense[rng.random((1000, 100)) < 0.5] = 0.0
        data = data_io.from_dense(dense, rng.integers(0, 3, size=1000))
        assert 45_000 < data.indices.size < 55_000
        m = codebook.init_random(3, 3, seed=1)
        ensemble = learners.new_ensemble(3, LearnerSpec(max_leaves=31), data.num_features)
        outputs = np.zeros((1000, 3))
        learners.train_round(ensemble, data, m, outputs)  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(2):
            learners.train_round(ensemble, data, m, outputs)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 2000

    @pytest.mark.parametrize("threads", [1, 2])
    def test_workspaces_last_one_round(self, threads, forks):
        def held() -> int:
            gc.collect()
            return sum(isinstance(o, _Workspace) for o in gc.get_objects())

        rng = np.random.default_rng(41)
        data, valid = random_sparse(rng, 60, 5)[0], random_sparse(rng, 30, 5)[0]
        m = codebook.init_random(3, 3, seed=2)
        ensemble = learners.new_ensemble(3, LearnerSpec(max_leaves=6), data.num_features)
        learners.train_round(ensemble, data, m, np.zeros((60, 3)), threads=threads)
        assert held() == 0
        # nor does a fit keep them between its rounds
        config = trainer.TrainConfig(code_length=3, max_rounds=3, start_round=1,
                                     early_stop_rounds=0, threads=threads)
        rounds = []
        trainer.fit(data, valid, config, round_hook=lambda info: rounds.append(held()))
        assert rounds == [0, 0, 0]
        assert len(forks) == (4 if threads == 2 else 0)  # one child per round

    def test_workspace_holds_few_bytes_per_entry(self):
        # the workspace takes 41 bytes per group (the split search's scratch
        # and the root's running sums) and the shared group index 56 per group
        # and 8 per stored entry, about 98 in all here, where nearly every
        # entry is a group of its own; a slot per feature, or per entry and
        # feature, took the splice's workspace to 123
        data, _ = random_sparse(np.random.default_rng(31), 400, 30)
        ws = _Workspace(data)
        held = sum(a.nbytes for a in vars(ws).values() if isinstance(a, np.ndarray))
        held += sum(a.nbytes for a in data.groups)
        assert held <= 100 * data.indices.size

    def test_tree_predictions_reduce_sse(self):
        rng = np.random.default_rng(9)
        data, _ = random_sparse(rng, 100, 8)
        residuals = rng.normal(size=100)
        spec = LearnerSpec(max_leaves=16)
        preds = _fit_tree(data, residuals, spec, _Workspace(data)).predict(data)
        assert ((residuals - preds) ** 2).sum() < (residuals**2).sum()

    def test_unseen_predictions_match_dense_walk(self):
        rng = np.random.default_rng(19)
        data, _ = random_sparse(rng, 80, 5)
        spec = LearnerSpec(max_leaves=12)
        fitted = _fit_tree(data, rng.normal(size=80), spec, _Workspace(data))
        # thresholds below and at zero, on a feature the other split reuses
        handmade = learners._Tree(
            feature=[0, 1, 0, -1, -1, -1, -1],
            threshold=[-0.5, 0.0, 0.25, 0.0, 0.0, 0.0, 0.0],
            left=[1, 3, 5, -1, -1, -1, -1],
            right=[2, 4, 6, -1, -1, -1, -1],
            value=[0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0],
        )
        for tree in (fitted, handmade):
            splits = tree.feature >= 0
            dense = rng.normal(size=(300, 5))
            # about 30% of each split feature's cells sit exactly on its threshold
            for f, thr in zip(tree.feature[splits], tree.threshold[splits]):
                dense[(rng.random(300) < 0.3), f] = thr
            dense[rng.random((300, 5)) < 0.2] = 0.0  # explicitly stored zeros
            stored = rng.random((300, 5)) >= 0.2  # the rest are implicit zeros
            dense[~stored] = 0.0
            rows, cols = np.nonzero(stored)
            unseen = data_io.SparseDataset(
                indptr=np.concatenate(([0], np.cumsum(stored.sum(axis=1)))),
                indices=cols,
                values=dense[rows, cols],
                labels=np.zeros(300, dtype=np.int64),
                num_features=5,
                num_classes=1,
                label_names=("0",),
            )
            assert np.any(unseen.values == 0.0) and np.any(unseen.values < 0.0)
            want = np.empty(300)
            for i, x in enumerate(dense):
                nid = 0
                while tree.feature[nid] >= 0:
                    go_left = x[tree.feature[nid]] <= tree.threshold[nid]
                    nid = tree.left[nid] if go_left else tree.right[nid]
                want[i] = tree.value[nid]
            assert np.array_equal(tree.predict(unseen), want)
        assert len(set(want)) == 4  # every leaf of the handmade tree is reached


class TestEnsemble:
    def test_untrained_predicts_zeros(self):
        rng = np.random.default_rng(0)
        data, _ = random_sparse(rng, 10, 4)
        ensemble = learners.new_ensemble(3, LearnerSpec(), data.num_features)
        assert np.array_equal(
            learners.predict_all(ensemble, data), np.zeros((10, 3))
        )

    def test_single_instance_matches_batch(self):
        rng = np.random.default_rng(1)
        data, dense = random_sparse(rng, 50, 6)
        m = codebook.init_random(3, 3, seed=4)
        for kind in (BOOSTED_TREES, LINEAR_SGD):
            spec = LearnerSpec(kind=kind)
            ensemble = learners.new_ensemble(3, spec, data.num_features, seed=1)
            outputs = np.zeros((50, 3))
            for _ in range(3):
                learners.train_round(ensemble, data, m, outputs)
            batch = learners.predict_all(ensemble, data)
            single = data_io.from_dense(dense[7:8], np.array([0]))
            single_out = learners.predict_all(
                ensemble,
                data_io.SparseDataset(
                    indptr=single.indptr,
                    indices=single.indices,
                    values=single.values,
                    labels=single.labels,
                    num_features=data.num_features,
                    num_classes=3,
                    label_names=data.label_names,
                ),
            )
            np.testing.assert_allclose(single_out[0], batch[7], atol=1e-12)

    def test_boosting_rounds_are_additive(self):
        rng = np.random.default_rng(2)
        data, _ = random_sparse(rng, 60, 5)
        m = codebook.CodingMatrix(np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]))
        ensemble = learners.new_ensemble(2, LearnerSpec(), data.num_features)
        outputs = np.zeros((60, 2))
        for _ in range(4):
            learners.train_round(ensemble, data, m, outputs)
        total = learners.predict_all(ensemble, data)
        lr = ensemble.spec.learning_rate
        increments = sum(lr * tree.predict(data) for tree in ensemble.trees[0])
        np.testing.assert_allclose(total[:, 0], increments, atol=1e-12)

    def test_outputs_buffer_is_the_running_prediction(self):
        rng = np.random.default_rng(3)
        data, _ = random_sparse(rng, 60, 5)
        m = codebook.init_random(3, 3, seed=2)
        trees = learners.new_ensemble(3, LearnerSpec(), data.num_features)
        linear = learners.new_ensemble(
            3, LearnerSpec(kind=LINEAR_SGD), data.num_features, seed=4
        )
        buf_trees = np.zeros((60, 3))
        buf_linear = np.zeros((60, 3))
        for rounds in range(1, 5):
            learners.train_round(trees, data, m, buf_trees)
            learners.train_round(linear, data, m, buf_linear)
            for j, column in enumerate(trees.trees):
                stages = sum(0.1 * tree.predict(data) for tree in column)
                assert np.array_equal(buf_trees[:, j], stages)
            assert np.array_equal(buf_linear, learners.predict_all(linear, data))

    def test_predict_all_is_the_running_buffer_sum(self):
        # shrinkage 0.1 is inexact in binary, so 0.1 * (a + b) and
        # 0.1 * a + 0.1 * b differ in the last bits on many entries
        rng = np.random.default_rng(8)
        data, _ = random_sparse(rng, 90, 6, num_classes=4)
        valid, _ = random_sparse(rng, 40, 6, num_classes=4)
        m = codebook.init_random(4, 5, seed=3)
        for spec in (LearnerSpec(learning_rate=0.1), LearnerSpec(kind=LINEAR_SGD)):
            ensemble = learners.new_ensemble(5, spec, data.num_features, seed=6)
            buf_train, buf_valid = np.zeros((90, 5)), np.zeros((40, 5))
            for _ in range(6):
                learners.train_round(ensemble, data, m, buf_train, threads=2)
                learners.accumulate_round_outputs(ensemble, valid, buf_valid)
                assert np.array_equal(learners.predict_all(ensemble, data), buf_train)
                assert np.array_equal(learners.predict_all(ensemble, valid), buf_valid)

    def test_linear_matches_one_sgd_loop_per_column(self):
        # exact oracle: each column run alone, as its own per-instance loop
        rng = np.random.default_rng(17)
        dense = rng.normal(size=(60, 40))
        dense[rng.random((60, 40)) < 0.3] = 0.0
        dense[5] = 0.0  # a row with no stored entries
        labels = rng.integers(0, 4, size=60)
        labels[:4] = np.arange(4)
        data = data_io.from_dense(dense, labels)
        assert np.any(data.values < 0) and data.row(5)[0].size == 0
        m = codebook.init_random(4, 5, seed=3)
        lr, epochs, seed = 0.02, 2, 11
        spec = LearnerSpec(kind=LINEAR_SGD, learning_rate=lr, epochs_per_round=epochs)
        ensemble = learners.new_ensemble(5, spec, data.num_features, seed=seed)
        outputs = np.zeros((60, 5))
        weights, bias = np.zeros((5, 40)), np.zeros(5)
        for round_index in range(3):
            learners.train_round(ensemble, data, m, outputs)
            order_rng = np.random.default_rng([seed, 7919, round_index])
            orders = [order_rng.permutation(60) for _ in range(epochs)]
            for j in range(5):
                targets = learners.make_targets(m, data.labels, j)
                w, b = weights[j], float(bias[j])
                for order in orders:
                    for i in order:
                        js, vs = data.row(i)
                        g = float(w[js] @ vs) + b - targets[i]
                        w[js] -= lr * g * vs
                        b -= lr * g
                bias[j] = b
        assert np.array_equal(ensemble.weights, weights.T)
        assert np.array_equal(ensemble.bias, bias)

    def test_column_permutation_permutes_outputs(self):
        rng = np.random.default_rng(6)
        data, _ = random_sparse(rng, 60, 5, num_classes=4)
        m = codebook.init_random(4, 4, seed=8)
        perm = np.array([2, 0, 3, 1])
        permuted = codebook.CodingMatrix(m.entries[:, perm])
        for kind in (BOOSTED_TREES, LINEAR_SGD):
            spec = LearnerSpec(kind=kind)
            base = learners.new_ensemble(4, spec, data.num_features, seed=9)
            other = learners.new_ensemble(4, spec, data.num_features, seed=9)
            buf_base = np.zeros((60, 4))
            buf_other = np.zeros((60, 4))
            for _ in range(2):
                learners.train_round(base, data, m, buf_base)
                learners.train_round(other, data, permuted, buf_other)
            out_base = learners.predict_all(base, data)
            out_other = learners.predict_all(other, data)
            assert np.array_equal(out_base[:, perm], out_other)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(4)
        data, _ = random_sparse(rng, 50, 5)
        m = codebook.init_random(3, 3, seed=5)
        outs = []
        for _ in range(2):
            ensemble = learners.new_ensemble(
                3, LearnerSpec(kind=LINEAR_SGD), data.num_features, seed=21
            )
            outputs = np.zeros((50, 3))
            for _ in range(3):
                learners.train_round(ensemble, data, m, outputs)
            outs.append(learners.predict_all(ensemble, data))
        assert np.array_equal(outs[0], outs[1])

    def test_linear_learns_separable_signs(self):
        rng = np.random.default_rng(12)
        direction = rng.normal(size=6)
        dense = rng.normal(size=(80, 6)) + 0.1
        signs = np.sign(dense @ direction)
        signs[signs == 0] = 1.0
        dense[signs < 0] -= 2 * 0.1  # shift negatives so classes are separable
        labels = (signs > 0).astype(np.int64)
        labels[:3] = [0, 1, 0]
        dense = np.vstack([dense, dense[:1]])
        labels = np.concatenate([labels, [2]])  # third class for a valid matrix
        data = data_io.from_dense(dense, labels)
        m = codebook.CodingMatrix(np.array([[-1.0], [1.0], [-1.0]]))
        spec = LearnerSpec(kind=LINEAR_SGD, learning_rate=0.05, epochs_per_round=5)
        ensemble = learners.new_ensemble(1, spec, data.num_features, seed=2)
        buffer = np.zeros((data.num_rows, 1))
        for _ in range(20):
            learners.train_round(ensemble, data, m, buffer)
        outputs = learners.predict_all(ensemble, data)[:, 0]
        targets = learners.make_targets(m, data.labels, 0)
        agreement = np.mean(np.sign(outputs) == np.sign(targets))
        assert agreement > 0.9

    def test_threads_do_not_change_results(self, forks):
        rng = np.random.default_rng(14)
        data, _ = random_sparse(rng, 60, 5)
        # with 5 columns, 2 and 3 workers take strides of unequal length
        for code_length, threads in ((3, 4), (5, 2), (5, 3)):
            m = codebook.init_random(3, code_length, seed=6)
            serial = learners.new_ensemble(code_length, LearnerSpec(), data.num_features)
            pooled = learners.new_ensemble(code_length, LearnerSpec(), data.num_features)
            out_serial = np.zeros((60, code_length))
            out_pooled = np.zeros((60, code_length))
            for _ in range(2):
                learners.train_round(serial, data, m, out_serial, threads=1)
                assert not forks
                learners.train_round(pooled, data, m, out_pooled, threads=threads)
                # the caller is worker 0, so workers - 1 children per round
                assert len(forks) == min(threads, code_length) - 1
                forks.clear()
            assert np.array_equal(
                learners.predict_all(serial, data), learners.predict_all(pooled, data)
            )

    def test_thread_switches_do_not_change_buffers(self, forks):
        rng = np.random.default_rng(16)
        data, _ = random_sparse(rng, 80, 6, num_classes=5)
        m = codebook.init_random(5, 8, seed=3)
        for kind in (BOOSTED_TREES, LINEAR_SGD):
            buffers = []
            for threads in (1, 8):
                ensemble = learners.new_ensemble(
                    8, LearnerSpec(kind=kind), data.num_features, seed=2
                )
                buffers.append(np.zeros((80, 8)))
                for _ in range(3):
                    learners.train_round(ensemble, data, m, buffers[-1], threads)
            assert np.array_equal(buffers[0], buffers[1])
            # trees fork 7 children a round at threads=8; linear never forks
            assert len(forks) == (21 if kind == BOOSTED_TREES else 0)
            forks.clear()

    def test_errors(self):
        rng = np.random.default_rng(15)
        data, _ = random_sparse(rng, 10, 4)
        m = codebook.init_random(3, 3, seed=1)
        ensemble = learners.new_ensemble(3, LearnerSpec(), data.num_features)
        empty = data_io.SparseDataset(
            indptr=np.array([0]),
            indices=np.array([], dtype=np.int64),
            values=np.array([]),
            labels=np.array([], dtype=np.int64),
            num_features=4,
            num_classes=3,
            label_names=("0", "1", "2"),
        )
        with pytest.raises(EmptyDataset):
            learners.train_round(ensemble, empty, m, np.zeros((0, 3)))
        wrong = codebook.init_random(3, 4, seed=1)
        with pytest.raises(DimensionMismatch):
            learners.train_round(ensemble, data, wrong, np.zeros((10, 3)))
        with pytest.raises(DimensionMismatch):
            learners.train_round(ensemble, data, m, np.zeros((10, 2)))
        for feature in (4, -1):  # a hand-built dataset is checked as it is made
            with pytest.raises(IndexOutOfRange, match=r"^feature indices must lie in \[0, 4\)"):
                csr_dataset([[(0, 1.0)], [(feature, 2.0)]], 4)


def reference_linear_outputs(ensemble, data):
    """Linear outputs as they were summed before the one-pass form, kept
    verbatim as its exact oracle: one `np.bincount` per column."""
    row_ids = np.repeat(np.arange(data.num_rows), np.diff(data.indptr))
    buffer = np.empty((data.num_rows, ensemble.code_length))
    for j, w in enumerate(ensemble.weights.T):
        contrib = w[data.indices] * data.values
        buffer[:, j] = (
            np.bincount(row_ids, weights=contrib, minlength=data.num_rows)
            + ensemble.bias[j]
        )
    return buffer


def linear_ensemble(weights, bias):
    """A linear ensemble whose column j has weights `weights[j]` and bias `bias[j]`."""
    weights = np.asarray(weights, dtype=np.float64)
    ensemble = learners.new_ensemble(
        weights.shape[0], LearnerSpec(kind=LINEAR_SGD), weights.shape[1]
    )
    ensemble.weights[:], ensemble.bias[:] = weights.T, bias
    return ensemble


def csr_dataset(rows, num_features):
    """A dataset of `rows`, each a list of (feature, value) with ascending features."""
    lengths = [len(row) for row in rows]
    entries = [entry for row in rows for entry in row]
    return data_io.SparseDataset(
        indptr=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        indices=np.array([f for f, _ in entries], dtype=np.int64),
        values=np.array([v for _, v in entries], dtype=np.float64),
        labels=np.zeros(len(rows), dtype=np.int64),
        num_features=num_features,
        num_classes=1,
        label_names=("0",),
    )


def assert_same_bits(ensemble, data):
    got = learners.predict_all(ensemble, data)
    want = reference_linear_outputs(ensemble, data)
    assert got.tobytes() == want.tobytes()
    buffer = np.full_like(got, np.nan)
    learners.accumulate_round_outputs(ensemble, data, buffer)
    assert buffer.tobytes() == want.tobytes()


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTreeWorkers:
    """Tree columns fitted in forked children: failures and fallbacks."""

    def setup_round(self):
        rng = np.random.default_rng(19)
        data, _ = random_sparse(rng, 50, 5)
        m = codebook.init_random(3, 3, seed=4)
        ensemble = learners.new_ensemble(3, LearnerSpec(max_leaves=4), data.num_features)
        return ensemble, data, m, np.zeros((50, 3))

    def in_children(self, monkeypatch, action):
        """Make `_fit_tree` run `action` in a forked child, and fit as before here."""
        parent, fit_tree = os.getpid(), learners._fit_tree

        def patched(*args):
            if os.getpid() != parent:
                action()
            return fit_tree(*args)

        monkeypatch.setattr(learners, "_fit_tree", patched)

    def test_a_round_leaves_no_child(self, forks):
        learners.train_round(*self.setup_round(), threads=2)
        assert len(forks) == 1
        assert_no_children()

    def test_child_error_is_raised_as_it_was(self, monkeypatch, forks):
        def fail():
            raise InvalidArg("column 1 has no split")

        self.in_children(monkeypatch, fail)
        with pytest.raises(InvalidArg) as caught:
            learners.train_round(*self.setup_round(), threads=2)
        assert type(caught.value) is InvalidArg
        assert str(caught.value) == "column 1 has no split"
        assert len(forks) == 1
        assert_no_children()

    @pytest.mark.parametrize("end, how", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
    ], ids=["exit", "killed"])
    def test_child_that_sends_nothing_is_named(self, monkeypatch, forks, end, how):
        self.in_children(monkeypatch, end)
        with pytest.raises(LightMCError, match=f"^tree worker 1 ended with {how} and sent"):
            learners.train_round(*self.setup_round(), threads=2)
        assert len(forks) == 1
        assert_no_children()

    def test_own_failure_kills_the_children(self, monkeypatch, forks):
        parent, fit_tree = os.getpid(), learners._fit_tree

        def patched(*args):
            if os.getpid() == parent:
                raise NonFiniteGradient("worker 0 failed")
            time.sleep(60)  # a child fits forever unless it is killed
            return fit_tree(*args)

        monkeypatch.setattr(learners, "_fit_tree", patched)
        started = time.monotonic()
        with pytest.raises(NonFiniteGradient, match="worker 0 failed"):
            learners.train_round(*self.setup_round(), threads=3)
        assert time.monotonic() - started < 30
        assert len(forks) == 2
        assert_no_children()

    def test_no_fork_while_another_thread_runs(self, forks):
        serial = self.setup_round()
        learners.train_round(*serial, threads=1)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            pooled = self.setup_round()
            learners.train_round(*pooled, threads=2)
        finally:
            stop.set()
            other.join()
        assert not forks
        for a, b in zip(serial[0].trees, pooled[0].trees):
            assert all(np.array_equal(getattr(a[0], f), getattr(b[0], f))
                       for f in learners._Tree.__slots__)


class TestLinearOutputs:
    def test_mixed_rows_match_the_per_column_sums(self):
        # row 0's sum depends on its order: 1e16 + 1 + 1 is 1e16 from the
        # left and 1e16 + 2 pairwise; rows 2 and 5 store nothing
        rows = [
            [(0, 1e16), (1, 1.0), (2, 1.0)],
            [(3, 0.5), (4, -3.0)],
            [],
            [(0, -1e16), (2, 1.0), (3, 1.0), (4, 2.0), (5, 1e-300)],
            [(1, 2.0), (5, -7.0)],
            [],
        ]
        data = csr_dataset(rows, 6)
        weights = [[1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                   [0.3, -1e-8, 7.5, 1e300, -0.1, 2.0],
                   [-0.0, -0.0, 0.0, -0.0, -0.0, -0.0]]
        ensemble = linear_ensemble(weights, [0.25, -1.5, -0.0])
        assert_same_bits(ensemble, data)
        out = learners.predict_all(ensemble, data)
        assert out[0, 0] == 1e16  # summed from the left, the ones and the bias vanish
        assert np.signbit(out[:, 2]).sum() == 0  # 0.0 + (-0.0) is 0.0

    def test_edge_shapes(self):
        weights, bias = [[2.0, -1.0], [0.5, 3.0]], [1.0, -0.0]
        for rows in (
            [[], [], []],  # no stored entries
            [[(0, 1.5), (1, -2.0)]],  # one row
            [[]],  # one empty row
            [],  # no rows
        ):
            assert_same_bits(linear_ensemble(weights, bias), csr_dataset(rows, 2))

    def test_a_few_long_rows_match_the_per_column_sums(self):
        # two rows far longer than the rest are finished row by row; from
        # the left, 1e16 + 1 + 1 ... stays
        # 1e16, while a pairwise sum of the ones would reach 1e16 + 6000
        rng = np.random.default_rng(31)
        long_row = [(f, 1e16 if f == 0 else 1.0) for f in range(6001)]
        rows = [long_row, [(f, float(f)) for f in range(0, 9000, 3)]]
        rows += [[(int(f), rng.normal()) for f in np.sort(rng.choice(9000, 4, replace=False))]
                 for _ in range(50)] + [[]]
        data = csr_dataset(rows, 9000)
        weights = np.ones((3, 9000))
        weights[1:] = rng.normal(size=(2, 9000))
        ensemble = linear_ensemble(weights, [0.5, -0.0, 2.0])
        assert_same_bits(ensemble, data)
        assert learners.predict_all(ensemble, data)[0, 0] == 1e16

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(0, 12), num_features=st.integers(1, 9),
           code_length=st.integers(1, 4))
    def test_matches_the_per_column_sums(self, data, n, num_features, code_length):
        number = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16]),
            st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False),
        )
        rows = [
            [(f, data.draw(number)) for f in sorted(data.draw(
                st.sets(st.integers(0, num_features - 1), max_size=num_features)))]
            for _ in range(n)
        ]
        weights = data.draw(st.lists(st.lists(
            number, min_size=num_features, max_size=num_features),
            min_size=code_length, max_size=code_length))
        bias = data.draw(st.lists(number, min_size=code_length, max_size=code_length))
        assert_same_bits(linear_ensemble(weights, bias), csr_dataset(rows, num_features))

    def test_trained_outputs_match_the_per_column_sums(self):
        rng = np.random.default_rng(23)
        data, _ = random_sparse(rng, 120, 30, zero_fraction=0.7, num_classes=4)
        m = codebook.init_random(4, 6, seed=5)
        ensemble = learners.new_ensemble(6, LearnerSpec(kind=LINEAR_SGD), 30, seed=3)
        outputs = np.zeros((120, 6))
        for _ in range(3):
            learners.train_round(ensemble, data, m, outputs)
            assert outputs.tobytes() == reference_linear_outputs(ensemble, data).tobytes()

    def test_predict_takes_less_than_an_entry_by_column_block(self):
        # rows of about 60 entries over 100 features: the scratch is a few
        # (N, L) blocks, well under the (nnz, L) array a gather of every
        # entry for every column would take;
        # six rows of 10000 entries are each finished in one (10000, L) block
        rng = np.random.default_rng(29)
        uniform, _ = random_sparse(rng, 300, 100, zero_fraction=0.4)
        long_rows = csr_dataset([[(f, 1.0) for f in range(10000)]] * 6, 10000)
        for data in (uniform, long_rows):
            ensemble = learners.new_ensemble(
                8, LearnerSpec(kind=LINEAR_SGD), data.num_features
            )
            ensemble.weights[:] = rng.normal(size=ensemble.weights.shape)
            entry_block = data.indices.size * ensemble.code_length * 8
            learners.predict_all(ensemble, data)
            tracemalloc.start()
            try:
                learners.predict_all(ensemble, data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < entry_block

    def test_predict_reads_the_weights_in_place(self):
        # ten short rows over 20k features: the pass reads the (F, L)
        # weights as they are, so it peaks far below one copy of them
        rng = np.random.default_rng(37)
        data = csr_dataset(
            [[(int(f), 1.0) for f in np.sort(rng.choice(20000, 30, replace=False))]
             for _ in range(10)],
            20000,
        )
        ensemble = linear_ensemble(rng.normal(size=(25, 20000)), np.zeros(25))
        learners.predict_all(ensemble, data)
        tracemalloc.start()
        try:
            learners.predict_all(ensemble, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ensemble.weights.nbytes


class TestSerialization:
    def test_trees_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        data, _ = random_sparse(rng, 70, 6)
        m = codebook.init_random(3, 3, seed=7)
        ensemble = learners.new_ensemble(3, LearnerSpec(max_leaves=8), data.num_features)
        outputs = np.zeros((70, 3))
        for _ in range(3):
            learners.train_round(ensemble, data, m, outputs)
        path = tmp_path / "ensemble.txt"
        learners.save_ensemble(ensemble, path)
        again = learners.load_ensemble(path)
        assert np.array_equal(
            learners.predict_all(ensemble, data), learners.predict_all(again, data)
        )
        head = path.read_text().splitlines()[0]
        assert head == "lightmc-ensemble v1 3 boosted_trees"

    def test_linear_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        data, _ = random_sparse(rng, 40, 5)
        m = codebook.CodingMatrix(np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]))
        spec = LearnerSpec(kind=LINEAR_SGD)
        ensemble = learners.new_ensemble(2, spec, data.num_features, seed=3)
        outputs = np.zeros((40, 2))
        for _ in range(2):
            learners.train_round(ensemble, data, m, outputs)
        path = tmp_path / "ensemble.txt"
        learners.save_ensemble(ensemble, path)
        again = learners.load_ensemble(path)
        assert np.array_equal(
            learners.predict_all(ensemble, data), learners.predict_all(again, data)
        )

    def test_linear_save_holds_less_than_its_file(self, tmp_path):
        # lines are written as they are made, never joined into the file's text
        rng = np.random.default_rng(38)
        ensemble = linear_ensemble(rng.normal(size=(25, 10000)), rng.normal(size=25))
        path = tmp_path / "ensemble.txt"
        tracemalloc.start()
        try:
            learners.save_ensemble(ensemble, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    # a tree of 5 nodes in pre-order: 0 splits into 1 and 4, 1 into 2 and 3
    _PRE_ORDER = ["0 0 0.5 1 4 0.0", "1 1 0.5 2 3 0.0", "2 -1 0.0 -1 -1 1.0",
                  "3 -1 0.0 -1 -1 2.0", "4 -1 0.0 -1 -1 3.0"]

    @pytest.mark.parametrize(
        "edits, line, message",
        [
            ({}, None, None),
            ({0: "0 0 0.5 1 1 0.0"}, 6, "node 0 has a bad link"),  # both children node 1
            ({0: "0 0 0.5 2 4 0.0"}, 6, "node 0 has a bad link"),  # left child not next
            ({0: "0 0 0.5 1 3 0.0"}, 6, "node 0's right child does not follow"),
            ({1: "1 1 0.5 2 4 0.0"}, 7, "node 1's right child does not follow"),
            ({0: "0 -1 0.0 -1 -1 0.0"}, 7, "node 1 is no node's child"),
        ],
        ids=["pre_order", "shared_child", "left_not_next", "right_in_left_subtree",
             "right_past_its_place", "unreachable_nodes"],
    )
    def test_trees_load_only_in_pre_order(self, tmp_path, edits, line, message):
        nodes = [edits.get(i, text) for i, text in enumerate(self._PRE_ORDER)]
        text = "\n".join(["lightmc-ensemble v1 1 boosted_trees", "alpha 0.5",
                          "features 2", "member 0 1", "tree 0 5", *nodes]) + "\n"
        path = tmp_path / "ensemble.txt"
        path.write_text(text)
        if message is None:
            learners.save_ensemble(learners.load_ensemble(path), tmp_path / "again.txt")
            assert (tmp_path / "again.txt").read_text() == text
            return
        with pytest.raises(ParseError, match=message) as info:
            learners.load_ensemble(path)
        assert info.value.line == line

    def test_tree_members_hold_the_stages_asked_for(self, tmp_path):
        rng = np.random.default_rng(23)
        data, _ = random_sparse(rng, 30, 4)
        ensemble = learners.new_ensemble(3, LearnerSpec(max_leaves=3), data.num_features)
        outputs = np.zeros((30, 3))
        for _ in range(2):
            learners.train_round(ensemble, data, codebook.init_random(3, 3, seed=1), outputs)
        del ensemble.trees[1][-1]
        path = tmp_path / "ensemble.txt"
        learners.save_ensemble(ensemble, path)
        member_1 = path.read_text().splitlines().index("member 1 1") + 1
        assert [len(t) for t in learners.load_ensemble(path).trees] == [2, 1, 2]
        with pytest.raises(ParseError, match="member 0 holds 2 stages, expected 1"):
            learners.load_ensemble(path, stages=1)
        with pytest.raises(ParseError, match="member 1 holds 1 stages, expected 2") as info:
            learners.load_ensemble(path, stages=2)
        assert info.value.line == member_1

    @pytest.mark.parametrize("kind", [BOOSTED_TREES, LINEAR_SGD])
    def test_bad_numbers_are_parse_errors_naming_file_and_line(self, tmp_path, kind):
        rng = np.random.default_rng(22)
        data, _ = random_sparse(rng, 40, 5)
        m = codebook.init_random(3, 3, seed=1)
        spec = LearnerSpec(kind=kind, max_leaves=4)
        ensemble = learners.new_ensemble(3, spec, data.num_features, seed=3)
        outputs = np.zeros((40, 3))
        for _ in range(2):
            learners.train_round(ensemble, data, m, outputs)
        path = tmp_path / "ensemble.txt"
        learners.save_ensemble(ensemble, path)
        lines = path.read_text().splitlines()
        # (0-based line, field, replacement): every number the loader keeps
        edits = [(1, 1, "2.0"), (1, 1, "0.0"), (1, 1, "nan")]
        for i, line in enumerate(lines):
            head = line.split()[0]
            if head.isdigit() and line.split()[1] != "-1":
                edits += [(i, 2, "nan"), (i, 5, "inf")]  # a split's threshold, value
            elif head.isdigit():
                edits.append((i, 5, "-inf"))  # a leaf's value
            elif head == "weights":
                edits.append((i, len(line.split()) - 1, "nan"))
            elif head == "bias":
                edits.append((i, 1, "inf"))
        assert len(edits) > 4
        for i, field, text in edits:
            fields = lines[i].split()
            fields[field] = text
            path.write_text("\n".join(lines[:i] + [" ".join(fields)] + lines[i + 1:]))
            with pytest.raises(ParseError, match=f"line {i + 1}: {path}") as info:
                learners.load_ensemble(path)
            assert info.value.line == i + 1
