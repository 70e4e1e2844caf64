import sys

import numpy as np
import pytest

from lightmc import codebook, data_io, learners
from lightmc.errors import (
    DimensionMismatch,
    EmptyDataset,
    IndexOutOfRange,
    InvalidArg,
)
from lightmc.learners import (
    BOOSTED_TREES,
    LINEAR_SGD,
    LearnerSpec,
    _best_split,
    _fit_tree,
)


def random_sparse(rng, n, num_features, zero_fraction=0.4, num_classes=3):
    dense = rng.normal(size=(n, num_features))
    dense[rng.random((n, num_features)) < zero_fraction] = 0.0
    labels = rng.integers(0, num_classes, size=n)
    labels[:num_classes] = np.arange(num_classes)
    return data_io.from_dense(dense, labels), dense


def root_split(data, residuals, total_sum, spec):
    """Best split of the root node: every row and every stored entry."""
    sf, sv, srow = data.sorted_entries
    return _best_split(
        sf, sv, srow, np.arange(sf.shape[0]), np.arange(data.num_rows),
        residuals, total_sum, spec,
    )


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
        with pytest.raises(InvalidArg):
            LearnerSpec(learning_rate=0.0).validate()
        with pytest.raises(InvalidArg):
            LearnerSpec(learning_rate=1.5).validate()
        with pytest.raises(InvalidArg):
            LearnerSpec(max_leaves=1).validate()
        with pytest.raises(InvalidArg):
            LearnerSpec(min_samples_leaf=0).validate()


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
        with pytest.raises(IndexOutOfRange):
            learners.make_targets(m, np.array([0]), 4)
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

    def test_no_split_on_constant_residuals(self):
        rng = np.random.default_rng(1)
        data, _ = random_sparse(rng, 30, 4)
        spec = LearnerSpec()
        assert root_split(data, np.full(30, 2.5), 75.0, spec) is None


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

    def test_tree_predictions_reduce_sse(self):
        rng = np.random.default_rng(9)
        data, _ = random_sparse(rng, 100, 8)
        residuals = rng.normal(size=100)
        tree, preds = _fit_tree(data, residuals, LearnerSpec(max_leaves=16))
        assert ((residuals - preds) ** 2).sum() < (residuals**2).sum()

    def test_grower_predictions_match_traversal(self):
        rng = np.random.default_rng(11)
        data, _ = random_sparse(rng, 60, 5)
        residuals = rng.normal(size=60)
        tree, preds = _fit_tree(data, residuals, LearnerSpec(max_leaves=10))
        assert np.array_equal(preds, tree.predict(data))


    def test_unseen_predictions_match_dense_walk(self):
        rng = np.random.default_rng(19)
        data, _ = random_sparse(rng, 80, 5)
        fitted, _ = _fit_tree(data, rng.normal(size=80), LearnerSpec(max_leaves=12))
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
        assert np.array_equal(ensemble.weights, weights)
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

    def test_threads_do_not_change_results(self):
        rng = np.random.default_rng(14)
        data, _ = random_sparse(rng, 60, 5)
        m = codebook.init_random(3, 3, seed=6)
        serial = learners.new_ensemble(3, LearnerSpec(), data.num_features)
        pooled = learners.new_ensemble(3, LearnerSpec(), data.num_features)
        out_serial = np.zeros((60, 3))
        out_pooled = np.zeros((60, 3))
        for _ in range(2):
            learners.train_round(serial, data, m, out_serial, threads=1)
            learners.train_round(pooled, data, m, out_pooled, threads=4)
        assert np.array_equal(
            learners.predict_all(serial, data), learners.predict_all(pooled, data, threads=4)
        )

    def test_threads_write_only_their_own_buffer_column(self):
        rng = np.random.default_rng(16)
        data, _ = random_sparse(rng, 80, 6, num_classes=5)
        m = codebook.init_random(5, 8, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
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
        finally:
            sys.setswitchinterval(interval)

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
