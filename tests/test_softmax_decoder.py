import numpy as np
import pytest
from conftest import numeric_gradients
from hypothesis import given, settings, strategies as st

from lightmc import codebook, softmax_decoder as sd
from lightmc.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArg,
    NonFiniteInput,
    ParseError,
)


def assert_close_rel(analytic, numeric, tol=1e-4):
    denom = np.maximum(np.abs(numeric), 1e-6)
    assert np.all(np.abs(analytic - numeric) <= tol * (denom + 1e-6)), (
        analytic,
        numeric,
    )


class TestInitFromMatrix:
    def test_copies_matrix_and_sets_biases(self):
        m = codebook.init_random(3, 4, seed=1)
        params = sd.init_from_matrix(m)
        assert np.array_equal(params.weights, m.entries)
        assert np.array_equal(params.biases, np.array([4.0, 4.0, 4.0]))

    def test_mutation_does_not_touch_source(self):
        m = codebook.init_random(3, 4, seed=1)
        params = sd.init_from_matrix(m)
        params.weights[0, 0] = 99.0
        assert m.entries[0, 0] in (-1.0, 1.0)

    def test_matches_hamming_decode_on_sign_outputs(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            k = int(rng.integers(3, 10))
            length = int(rng.integers(codebook.min_feasible_code_length(k), 10))
            m = codebook.init_random(k, length, seed=int(rng.integers(1 << 30)))
            params = sd.init_from_matrix(m)
            o = rng.choice([-1.0, 1.0], size=length)
            dist = 0.5 * np.abs(m.entries - o).sum(axis=1)
            if (dist == dist.min()).sum() != 1:
                continue
            assert sd.decode(params, o).predicted == codebook.hamming_decode(m, o)


class TestDecode:
    def test_zero_weights_give_uniform(self):
        params = sd.DecoderParams(np.zeros((5, 3)), np.full(5, 2.0))
        result = sd.decode(params, np.array([0.3, -0.4, 2.0]))
        np.testing.assert_allclose(result.probabilities, 0.2, atol=1e-12)

    def test_own_codeword_scores_code_length(self):
        m = codebook.init_random(5, 6, seed=3)
        params = sd.init_from_matrix(m)
        for k in range(5):
            result = sd.decode(params, m.entries[k])
            assert result.scores[k] == pytest.approx(6.0)
            assert result.scores.max() == pytest.approx(6.0)
            assert result.predicted == k

    def test_score_shift_leaves_probabilities(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 3))
        o = rng.normal(size=3)
        base = sd.decode(sd.DecoderParams(w, np.zeros(4)), o)
        shifted = sd.decode(sd.DecoderParams(w, np.full(4, 7.0)), o)
        np.testing.assert_allclose(
            base.probabilities, shifted.probabilities, atol=1e-12
        )

    def test_probabilities_form_distribution(self):
        rng = np.random.default_rng(8)
        cases = []
        for scale in (1.0, 50.0, 700.0):  # |t| up to ~1e3
            w = rng.normal(size=(6, 4)) * scale
            cases.append((sd.DecoderParams(w, rng.normal(size=6) * scale),
                          rng.normal(size=4)))
        # saturated: t = (1e3, -1e3, 0, 0, 0, 0), every exp but the top underflows
        saturated = np.zeros((6, 4))
        saturated[0, 0], saturated[1, 0] = 2e3, -2e3
        cases.append((sd.DecoderParams(saturated, np.zeros(6)), np.array([1.0, 0, 0, 0])))
        for params, outputs in cases:
            result = sd.decode(params, outputs)
            assert abs(result.probabilities.sum() - 1.0) < 1e-9
            assert np.all(result.probabilities >= 1e-12)
            assert np.all(result.probabilities <= 1.0 - 1e-12)
            assert result.predicted == int(np.argmax(result.probabilities))
        assert result.scores[0] == 1e3 and result.predicted == 0

    def test_errors(self):
        params = sd.DecoderParams(np.zeros((3, 2)), np.zeros(3))
        for outputs in (np.zeros(4), np.zeros((1, 2)), 0.0):
            with pytest.raises(DimensionMismatch):
                sd.decode(params, outputs)
        with pytest.raises(NonFiniteInput):
            sd.decode(params, np.array([1.0, np.nan]))
        with pytest.raises(DimensionMismatch):
            sd.loss_gradients(params, np.zeros(3), 0)
        for call in (sd.mean_loss, sd.output_gradients):  # a scalar block
            with pytest.raises(DimensionMismatch):
                call(params, 5.0, [0])
        with pytest.raises(DimensionMismatch):
            sd.loss(0.5, 0)
        with pytest.raises(DimensionMismatch):
            sd.DecoderParams(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(NonFiniteInput):
            sd.DecoderParams(np.full((3, 2), np.nan), np.zeros(3))
        big = sd.DecoderParams(np.ones((3, 2)), np.zeros(3))
        with pytest.raises(NonFiniteInput, match="overflowed"):
            sd.batch_scores(big, np.full((1, 2), 1e308))

    def test_each_call_checks_its_outputs_once(self, monkeypatch):
        rng = np.random.default_rng(21)
        params = sd.DecoderParams(rng.normal(size=(4, 3)), rng.normal(size=4))
        outputs, labels = rng.normal(size=(10, 3)), rng.integers(0, 4, size=10)
        checked = []
        real = sd._outputs

        def counting(*args, **kwargs):
            checked.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sd, "_outputs", counting)
        calls = (
            lambda: sd.mean_loss(params, outputs, labels),
            lambda: sd.output_gradients(params, outputs, labels),
            lambda: sd.batch_predict(params, outputs),
            lambda: sd.decode(params, outputs[0]),
            # 4 mini-batches an epoch, 3 epochs
            lambda: sd.train_decoding(params, outputs, labels, 0.1, batch_size=3, epochs=3),
        )
        for call in calls:
            checked.clear()
            call()
            assert len(checked) == 1
        # the one check still turns an overflowing score into NonFiniteInput
        big = sd.DecoderParams(np.ones((3, 2)), np.zeros(3))
        huge = np.full((2, 2), 1e308)
        for call in (sd.mean_loss, sd.output_gradients):
            with pytest.raises(NonFiniteInput, match="overflowed"):
                call(big, huge, [0, 1])
        with pytest.raises(NonFiniteInput, match="overflowed"):
            sd.train_decoding(big, huge, [0, 1], 0.1)
        with pytest.raises(NonFiniteInput, match="overflowed"):
            sd.decode(big, huge[0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(2, 12), n=st.integers(1, 30), data=st.data())
def test_doubled_identity_decoder_predicts_argmax(k, n, data):
    # weights 2I and biases 0 score t = o bit for bit, so exact top ties go
    # to the lowest class and a top one ulp ahead still wins, as in argmax
    value = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    outputs = np.array(data.draw(st.lists(
        st.lists(value, min_size=k, max_size=k), min_size=n, max_size=n)))
    for row in outputs:
        top = row.max()
        tied = data.draw(st.lists(st.integers(0, k - 1), max_size=3))
        row[tied] = top
        if data.draw(st.booleans()):
            row[data.draw(st.integers(0, k - 1))] = np.nextafter(top, -np.inf)
    params = sd.DecoderParams(2.0 * np.eye(k), np.zeros(k))
    assert np.array_equal(sd.batch_predict(params, outputs), np.argmax(outputs, axis=1))


class TestLoss:
    def test_perfect_prediction_is_near_zero(self):
        p = np.zeros(6)
        p[2] = 1.0
        assert sd.loss(p, 2) < 1e-10

    def test_two_class_uniform_value(self):
        assert sd.loss(np.array([0.5, 0.5]), 0) == pytest.approx(2 * np.log(2))

    def test_decreases_as_label_mass_grows(self):
        # grid oracle: remaining mass stays proportional across other classes
        base = np.array([0.1, 0.3, 0.6])
        losses = []
        for p_label in np.linspace(0.05, 0.95, 10):
            rest = base[1:] / base[1:].sum() * (1.0 - p_label)
            losses.append(sd.loss(np.concatenate(([p_label], rest)), 0))
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_label_bounds(self):
        params = sd.DecoderParams(np.zeros((3, 2)), np.zeros(3))
        for label in (2, -1, 1.5, "0"):
            with pytest.raises(IndexOutOfRange, match="^label must be an integer >= 0 and < 2"):
                sd.loss(np.array([0.5, 0.5]), label)
        for label in (3, -1, 1.5, "0"):
            with pytest.raises(IndexOutOfRange, match="^label must be an integer >= 0 and < 3"):
                sd.loss_gradients(params, np.zeros(2), label)


class TestLossGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = int(rng.integers(3, 8))
            length = int(rng.integers(2, 6))
            params = sd.DecoderParams(
                rng.normal(size=(k, length)), rng.normal(size=k)
            )
            o = rng.normal(size=length)
            label = int(rng.integers(k))
            analytic = sd.loss_gradients(params, o, label)
            numeric = numeric_gradients(params, o, label)
            for a, n in zip(analytic, numeric):
                assert_close_rel(a, n)

    def test_zero_weights_kill_output_gradient(self):
        params = sd.DecoderParams(np.zeros((4, 3)), np.full(4, 1.0))
        _, _, grad_o = sd.loss_gradients(params, np.array([0.5, -1.0, 2.0]), 1)
        assert np.array_equal(grad_o, np.zeros(3))

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(23)
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=5)
        o = rng.normal(size=4)
        g1 = sd.loss_gradients(sd.DecoderParams(w, b), o, 2)
        g2 = sd.loss_gradients(sd.DecoderParams(w, b + 11.0), o, 2)
        for a, bb in zip(g1, g2):
            np.testing.assert_allclose(a, bb, atol=1e-12)

    def test_batch_output_gradients_match_per_instance(self):
        rng = np.random.default_rng(31)
        params = sd.DecoderParams(rng.normal(size=(4, 3)), rng.normal(size=4))
        outputs = rng.normal(size=(6, 3))
        labels = rng.integers(0, 4, size=6)
        batch = sd.output_gradients(params, outputs, labels)
        for i in range(6):
            _, _, grad_o = sd.loss_gradients(params, outputs[i], int(labels[i]))
            np.testing.assert_allclose(batch[i], grad_o, atol=1e-12)

    def test_mean_loss_matches_loop(self):
        rng = np.random.default_rng(37)
        params = sd.DecoderParams(rng.normal(size=(5, 4)), rng.normal(size=5))
        outputs = rng.normal(size=(8, 4))
        labels = rng.integers(0, 5, size=8)
        per = [
            sd.loss(sd.decode(params, outputs[i]).probabilities, int(labels[i]))
            for i in range(8)
        ]
        assert sd.mean_loss(params, outputs, labels) == pytest.approx(np.mean(per))


class TestTrainDecoding:
    def _random_problem(self, seed, n=40, k=5, length=4):
        rng = np.random.default_rng(seed)
        params = sd.DecoderParams(rng.normal(size=(k, length)), rng.normal(size=k))
        outputs = rng.normal(size=(n, length))
        labels = rng.integers(0, k, size=n)
        return params, outputs, labels

    def test_full_batch_step_descends(self):
        for seed in range(10):
            params, outputs, labels = self._random_problem(seed)
            before = sd.mean_loss(params, outputs, labels)
            lr = 1e-3
            for _ in range(10):
                after = sd.mean_loss(
                    sd.train_decoding(
                        params, outputs, labels, lr, batch_size=len(labels), epochs=1
                    ),
                    outputs,
                    labels,
                )
                if after < before:
                    break
                lr *= 0.5
            assert after < before

    def test_zero_epochs_returns_unchanged(self):
        params, outputs, labels = self._random_problem(3)
        updated = sd.train_decoding(params, outputs, labels, 0.1, epochs=0)
        assert np.array_equal(updated.weights, params.weights)
        assert np.array_equal(updated.biases, params.biases)

    def test_input_params_never_mutated(self):
        params, outputs, labels = self._random_problem(4)
        snapshot = params.copy()
        sd.train_decoding(params, outputs, labels, 0.1, epochs=2)
        assert np.array_equal(params.weights, snapshot.weights)
        assert np.array_equal(params.biases, snapshot.biases)

    def test_seeded_determinism(self):
        params, outputs, labels = self._random_problem(5)
        a = sd.train_decoding(params, outputs, labels, 0.1, batch_size=8, epochs=3, seed=9)
        b = sd.train_decoding(params, outputs, labels, 0.1, batch_size=8, epochs=3, seed=9)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_validation_errors(self):
        params, outputs, labels = self._random_problem(6)
        with pytest.raises(DimensionMismatch):
            sd.train_decoding(params, outputs[:, :2], labels, 0.1)
        with pytest.raises(InvalidArg):
            sd.train_decoding(params, outputs, labels, -0.1)
        with pytest.raises(InvalidArg):
            sd.train_decoding(params, outputs, labels, 0.1, batch_size=0)
        for name, value in (
            ("lr", 0.0), ("lr", "0.1"), ("batch_size", 0), ("batch_size", 2.5),
            ("epochs", -1), ("epochs", 1.5), ("l2", -5e-324), ("l2", None),
        ):
            with pytest.raises(InvalidArg, match=f"^{name} must be"):
                sd.train_decoding(params, outputs, labels, **{"lr": 0.1, name: value})
        with pytest.raises(InvalidArg, match="at least one instance"):
            sd.train_decoding(params, np.zeros((0, 4)), np.zeros(0, dtype=int), 0.1)
        outputs[3, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            sd.train_decoding(params, outputs, labels, 0.1)

    def test_l2_shrinks_weight_norm_at_optimum_scale(self):
        params, outputs, labels = self._random_problem(7)
        plain = sd.train_decoding(params, outputs, labels, 0.05, epochs=5, l2=0.0, seed=1)
        reg = sd.train_decoding(params, outputs, labels, 0.05, epochs=5, l2=1.0, seed=1)
        assert np.linalg.norm(reg.weights) < np.linalg.norm(plain.weights)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        params = sd.DecoderParams(rng.normal(size=(4, 6)), rng.normal(size=4))
        path = tmp_path / "decoder.txt"
        sd.save_params(params, path)
        again = sd.load_params(path)
        assert np.array_equal(params.weights, again.weights)
        assert np.array_equal(params.biases, again.biases)
        assert path.read_text().splitlines()[0] == "lightmc-decoder v1 4 6"

    def test_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "decoder.txt"
        path.write_text("lightmc-decoder v1 4 6\n1 2 3\n")
        with pytest.raises(ParseError):
            sd.load_params(path)
