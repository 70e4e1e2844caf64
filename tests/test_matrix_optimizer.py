import numpy as np
import pytest

from lightmc import codebook, matrix_optimizer as mo, softmax_decoder as sd
from lightmc.codebook import CodingMatrix
from lightmc.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArg,
    NonFiniteGradient,
)


class TestAccumulate:
    def test_hand_example(self):
        grads = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        stats = mo.accumulate(grads, np.array([0, 0, 1]), num_classes=4)
        assert np.array_equal(stats.sums[0], np.array([4.0, 6.0]))
        assert np.array_equal(stats.sums[1], np.array([5.0, 6.0]))
        assert np.array_equal(stats.sums[2:], np.zeros((2, 2)))
        assert np.array_equal(stats.counts, np.array([2, 1, 0, 0]))

    def test_zero_gradients(self):
        stats = mo.accumulate(np.zeros((5, 3)), np.array([0, 1, 2, 1, 0]), 3)
        assert np.array_equal(stats.sums, np.zeros((3, 3)))
        assert stats.counts.sum() == 5

    def test_matches_sequential_loop(self):
        # oracle: plain per-instance accumulation in the same order
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(50, 4))
        labels = rng.integers(0, 6, size=50)
        stats = mo.accumulate(grads, labels, 6)
        sums = np.zeros((6, 4))
        for i in range(50):
            sums[labels[i]] += grads[i]
        assert np.array_equal(stats.sums, sums)

    def test_permutation_leaves_stats(self):
        rng = np.random.default_rng(1)
        grads = rng.normal(size=(30, 3))
        labels = rng.integers(0, 4, size=30)
        base = mo.accumulate(grads, labels, 4)
        perm = rng.permutation(30)
        shuffled = mo.accumulate(grads[perm], labels[perm], 4)
        np.testing.assert_allclose(base.sums, shuffled.sums, atol=1e-12)
        assert np.array_equal(base.counts, shuffled.counts)

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            mo.accumulate(np.zeros((3, 2)), np.array([0, 1]), 3)
        with pytest.raises(IndexOutOfRange):
            mo.accumulate(np.zeros((2, 2)), np.array([0, 5]), 3)
        for num_classes in (0, 2.5, "4"):
            with pytest.raises(InvalidArg, match="^num_classes must be an integer >= 1"):
                mo.accumulate(np.zeros((2, 2)), np.array([0, 0]), num_classes)


class TestUpdateMatrix:
    def test_zero_stats_leave_matrix(self):
        m = codebook.init_random(4, 4, seed=0)
        stats = mo.ClassGradientStats(np.zeros((4, 4)), np.zeros(4, dtype=np.int64))
        updated = mo.update_matrix(m, stats, 0.2)
        assert np.array_equal(updated.entries, m.entries)

    def test_single_step_arithmetic_exact(self):
        # two active rows with unit counts and a third empty row; the step is
        # M_k - 0.2 * S_k / C_k, so (1, -1) -> (0.9, -0.9) exactly
        m = CodingMatrix(np.array([[1.0], [-1.0], [1.0]]))
        stats = mo.ClassGradientStats(
            np.array([[0.5], [-0.5], [0.0]]), np.array([1, 1, 0])
        )
        updated = mo.update_matrix(m, stats, 0.2)
        assert updated.entries[0, 0] == 0.9
        assert updated.entries[1, 0] == -0.9
        assert updated.entries[2, 0] == 1.0

    def test_empty_classes_bit_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = CodingMatrix(rng.normal(size=(6, 4)))
            counts = rng.integers(0, 4, size=6)
            sums = rng.normal(size=(6, 4)) * counts[:, None]
            stats = mo.ClassGradientStats(sums, counts)
            updated = mo.update_matrix(m, stats, 0.2)
            for k in np.flatnonzero(counts == 0):
                assert np.array_equal(updated.entries[k], m.entries[k])
            for k in np.flatnonzero(counts > 0):
                expected = m.entries[k] - 0.2 * sums[k] / counts[k]
                np.testing.assert_allclose(updated.entries[k], expected, atol=0)

    def test_linearity_in_stats(self):
        # two half-steps against one combined step, same counts throughout
        rng = np.random.default_rng(3)
        m = CodingMatrix(rng.normal(size=(5, 3)))
        counts = np.array([2, 1, 3, 1, 2])
        s1 = rng.normal(size=(5, 3))
        s2 = rng.normal(size=(5, 3))
        two_steps = mo.update_matrix(
            mo.update_matrix(m, mo.ClassGradientStats(s1, counts), 0.2),
            mo.ClassGradientStats(s2, counts),
            0.2,
        )
        combined = mo.update_matrix(m, mo.ClassGradientStats(s1 + s2, counts), 0.2)
        np.testing.assert_allclose(two_steps.entries, combined.entries, atol=1e-12)

    def test_errors(self):
        m = codebook.init_random(4, 4, seed=1)
        good = mo.ClassGradientStats(np.zeros((4, 4)), np.zeros(4, dtype=np.int64))
        for lr in (0.0, -5e-324, float("nan"), float("inf"), "0.1", None):
            with pytest.raises(InvalidArg, match="^lr must be a finite number > 0"):
                mo.update_matrix(m, good, lr)
        with pytest.raises(DimensionMismatch):
            mo.update_matrix(m, mo.ClassGradientStats(np.zeros((4, 2)), good.counts), 0.2)
        bad = mo.ClassGradientStats(np.full((4, 4), np.inf), np.ones(4, dtype=np.int64))
        with pytest.raises(NonFiniteGradient):
            mo.update_matrix(m, bad, 0.2)


class TestConfusableCodewordsRepel:
    # classes 0 and 1 differ in the last bit only and both output (1, 1, 0),
    # halfway between their codewords; class 2 outputs its own codeword
    MATRIX = CodingMatrix(
        np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    )
    OUTPUTS = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, -1.0, 1.0]])
    LABELS = np.array([0, 1, 2])

    def _step(self, sign):
        params = sd.init_from_matrix(self.MATRIX)
        grads = sd.output_gradients(params, self.OUTPUTS, self.LABELS)
        stats = mo.accumulate(grads, self.LABELS, 3)
        return mo.update_matrix(
            self.MATRIX, mo.ClassGradientStats(sign * stats.sums, stats.counts), 0.2
        )

    @staticmethod
    def _distances(matrix):
        return {
            pair: codebook.codeword_distance(matrix, *pair)
            for pair in ((0, 1), (0, 2), (1, 2))
        }

    def test_descent_step_pushes_confused_pair_apart_most(self):
        before = self._distances(self.MATRIX)
        after = self._distances(self._step(1.0))
        assert before == {(0, 1): 4.0, (0, 2): 8.0, (1, 2): 12.0}
        assert after[(0, 1)] == pytest.approx(5.6461, abs=1e-3)
        assert after[(0, 2)] == pytest.approx(8.6351, abs=1e-3)
        growth = {pair: after[pair] / before[pair] for pair in before}
        assert all(g > 1.0 for g in growth.values())
        assert max(growth, key=growth.get) == (0, 1)

    def test_negated_step_pulls_confused_pair_together(self):
        after = self._distances(self._step(-1.0))
        assert after[(0, 1)] == pytest.approx(2.6369, abs=1e-3)


class TestJointStepDescent:
    def test_joint_step_with_ideal_learners_does_not_increase_loss(self):
        # ideal learners: every output row equals the labelled codeword, both
        # before and after the matrix moves
        rng = np.random.default_rng(7)
        for seed in range(5):
            m = codebook.init_random(5, 5, seed=seed)
            labels = rng.integers(0, 5, size=60)
            params = sd.init_from_matrix(m)
            gamma1, gamma2 = 0.1, 0.2
            before = sd.mean_loss(params, m.entries[labels], labels)
            for _ in range(12):
                outputs = m.entries[labels]
                new_params = sd.train_decoding(
                    params, outputs, labels, gamma1, batch_size=60, epochs=1
                )
                grads = sd.output_gradients(new_params, outputs, labels)
                stats = mo.accumulate(grads, labels, 5)
                new_matrix = mo.update_matrix(m, stats, gamma2)
                after = sd.mean_loss(
                    new_params, new_matrix.entries[labels], labels
                )
                if after <= before:
                    break
                gamma1 *= 0.5
                gamma2 *= 0.5
            assert after <= before
