import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightmc import codebook, data_io, learners, softmax_decoder as sd, synthetic, trainer
from lightmc.errors import (
    ConfigInvalid, DimensionMismatch, InvalidArg, MissingClass, ParseError,
)
from lightmc.learners import BOOSTED_TREES, LINEAR_SGD, LearnerSpec
from lightmc.trainer import MODES, TrainConfig, update_rounds


@pytest.fixture(scope="module")
def small_blobs():
    return synthetic.make_paired_blobs(
        num_pairs=2, train_per_class=40, test_per_class=20, num_features=8, seed=3
    )


def quick_config(**kw):
    base = dict(
        code_length=4,
        max_rounds=8,
        start_round=2,
        learner=LearnerSpec(learning_rate=0.5, max_leaves=6),
        early_stop_rounds=0,
        seed=5,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_default_hyperparameters(self):
        cfg = TrainConfig()
        assert cfg.gamma1 == 0.1
        assert cfg.gamma2 == 0.2
        assert cfg.start_round == 30
        assert cfg.early_stop_rounds == 20
        assert cfg.decoder_epochs_per_call == 1
        assert cfg.learner.learning_rate == 0.1
        assert cfg.threads == len(os.sched_getaffinity(0))
        cfg.validate()

    def test_validation_errors(self):
        with pytest.raises(ConfigInvalid):
            TrainConfig(mode="bogus").validate()
        with pytest.raises(ConfigInvalid):
            TrainConfig(max_rounds=0).validate()
        with pytest.raises(ConfigInvalid, match="seed"):
            TrainConfig(seed=-1).validate()
        with pytest.raises(ConfigInvalid):
            TrainConfig(gamma1=0.0).validate()
        with pytest.raises(ConfigInvalid):
            TrainConfig(code_length=-3).validate()
        with pytest.raises(ConfigInvalid):
            TrainConfig(learner=LearnerSpec(max_leaves=0)).validate()
        for learner in (None, "trees"):
            with pytest.raises(ConfigInvalid, match="^learner must be a LearnerSpec"):
                TrainConfig(learner=learner).validate()
        # NaN fails every ordered comparison, so `gamma1 <= 0` lets it through
        for name, value in (("gamma1", np.nan), ("gamma2", np.nan), ("l2", np.inf),
                            ("gamma1", np.inf), ("l2", np.nan)):
            for mode in trainer.MODES:
                with pytest.raises(ConfigInvalid, match=name):
                    TrainConfig(mode=mode, **{name: value}).validate()

    @pytest.mark.parametrize("name", [
        "code_length", "max_rounds", "start_round", "decoder_batch",
        "decoder_epochs_per_call", "seed", "early_stop_rounds", "threads",
        "learner.max_leaves", "learner.min_samples_leaf", "learner.epochs_per_round",
    ])
    @pytest.mark.parametrize("value", [2.5, "3", None])
    def test_count_settings_must_be_integers(self, small_blobs, name, value):
        train, test, _ = small_blobs
        cfg = quick_config()
        if name.startswith("learner."):
            cfg.learner = replace(cfg.learner, **{name.removeprefix("learner."): value})
        else:
            setattr(cfg, name, value)
        with pytest.raises(ConfigInvalid, match=name.removeprefix("learner.")):
            trainer.fit(train, test, cfg)

    @pytest.mark.parametrize("name, value, rule", [
        ("code_length", 0, "an integer >= 1"),
        ("code_length", "x", "an integer >= 1"),
        ("max_rounds", 0, "an integer >= 1"),
        ("start_round", 0, "an integer >= 1"),
        ("decoder_batch", 0, "an integer >= 1"),
        ("decoder_epochs_per_call", -1, "an integer >= 0"),
        ("seed", -1, "an integer >= 0"),
        ("early_stop_rounds", -1, "an integer >= 0"),
        ("threads", 0, "an integer >= 1"),
        ("gamma1", 0.0, "a finite number > 0"),
        ("gamma2", 0.0, "a finite number > 0"),
        ("l2", -5e-324, "a finite number >= 0"),  # the negative float nearest 0
        ("gamma1", "0.1", "a finite number > 0"),
        ("gamma1", None, "a finite number > 0"),
        ("gamma2", "0.1", "a finite number > 0"),
        ("gamma2", None, "a finite number > 0"),
        ("l2", "0.1", "a finite number >= 0"),
        ("l2", None, "a finite number >= 0"),
    ])
    def test_settings_outside_their_bounds(self, name, value, rule):
        with pytest.raises(ConfigInvalid) as exc:
            TrainConfig(**{name: value}).validate()
        assert str(exc.value) == f"{name} must be {rule}, got {value!r}"

    def test_gamma_bounds_apply_only_to_lightmc(self):
        for mode in (trainer.MODE_ECOC_FIXED, trainer.MODE_OVA):
            TrainConfig(mode=mode, gamma1=0.0, gamma2=-1.0).validate()
            with pytest.raises(ConfigInvalid) as exc:
                TrainConfig(mode=mode, gamma2="0.1").validate()
            assert str(exc.value) == "gamma2 must be a finite number, got '0.1'"

    def test_auto_code_length_uses_rule(self, small_blobs):
        cfg = TrainConfig(code_length="auto")
        assert trainer.resolve_code_length(cfg, 20) == 10
        # the rule result is raised to feasibility for small K
        assert trainer.resolve_code_length(cfg, 3) == 3
        assert trainer.resolve_code_length(cfg, 8) == 5
        for k in range(3, 5000):  # the shortest L with 2^(L-1) > K
            length = codebook.min_feasible_code_length(k)
            assert 2 ** (length - 2) <= k < 2 ** (length - 1)
            suggested = codebook.suggested_code_length(k)
            assert trainer.resolve_code_length(cfg, k) == max(suggested, length)
        for integer in (np.int64, np.int32):  # any integer type counts classes
            assert codebook.min_feasible_code_length(integer(20)) == 6
            assert trainer.resolve_code_length(cfg, integer(20)) == 10
        for value in (2, 20.0, "20", None):
            with pytest.raises(InvalidArg, match="num_classes"):
                codebook.min_feasible_code_length(value)
        train, test, _ = small_blobs
        auto = quick_config(code_length="auto", max_rounds=3)
        k = np.int64(train.num_classes)
        numpy_k = trainer.fit(replace(train, num_classes=k), test, auto)
        plain = trainer.fit(train, test, auto)
        assert np.array_equal(numpy_k.matrix.entries, plain.matrix.entries)
        assert np.array_equal(trainer.predict(numpy_k, test), trainer.predict(plain, test))


class TestUpdateCadence:
    def test_boosting_cadence_sets(self):
        for alpha, step in ((0.1, 10), (0.05, 20), (0.5, 2)):
            cfg = TrainConfig(
                max_rounds=100,
                start_round=30,
                learner=LearnerSpec(learning_rate=alpha),
            )
            expected = [r for r in range(30, 101) if (r - 30) % step == 0]
            assert update_rounds(cfg, is_boosting=True) == expected

    def test_non_boosting_updates_every_round(self):
        cfg = TrainConfig(max_rounds=7)
        assert update_rounds(cfg, is_boosting=False) == list(range(1, 8))

    def test_fit_fires_updates_on_cadence(self, small_blobs):
        train, test, _ = small_blobs
        cfg = quick_config(max_rounds=6, start_round=3)
        fired = []
        trainer.fit(
            train,
            test,
            cfg,
            round_hook=lambda info: fired.append(info["round"])
            if info["updated"]
            else None,
        )
        assert fired == [3, 5]  # round(1/0.5) = 2


class TestFit:
    def test_ecoc_fixed_keeps_matrix_and_decoder(self, small_blobs):
        train, test, _ = small_blobs
        cfg = quick_config(mode="ecoc_fixed")
        model = trainer.fit(train, test, cfg)
        initial = codebook.init_random(train.num_classes, 4, seed=cfg.seed)
        assert np.array_equal(model.matrix.entries, initial.entries)
        assert np.array_equal(model.decoder.weights, initial.entries)
        assert np.array_equal(model.decoder.biases, np.full(4, 4.0))

    def test_lightmc_moves_matrix_and_decoder(self, small_blobs):
        train, test, _ = small_blobs
        model = trainer.fit(train, test, quick_config())
        initial = codebook.init_random(train.num_classes, 4, seed=5)
        assert not np.array_equal(model.matrix.entries, initial.entries)
        assert not np.array_equal(model.decoder.weights, initial.entries)

    def test_history_shape_and_monotone_wall_time(self, small_blobs):
        train, test, _ = small_blobs
        model = trainer.fit(train, test, quick_config())
        assert [rec.round for rec in model.history] == list(range(1, 9))
        times = [rec.wall_time for rec in model.history]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(np.isfinite(rec.train_loss) for rec in model.history)

    def test_train_loss_matches_decoder_on_outputs(self, small_blobs):
        train, test, _ = small_blobs
        cfg = quick_config()
        model = trainer.fit(train, test, cfg)
        outputs = learners.predict_all(model.ensemble, train)
        recorded = model.history[model.best_round - 1].train_loss
        recomputed = sd.mean_loss(model.decoder, outputs, train.labels)
        assert recorded == pytest.approx(recomputed, rel=1e-9)

    def test_beats_chance_on_blobs(self, small_blobs):
        train, test, _ = small_blobs
        cfg = quick_config(max_rounds=15)
        model = trainer.fit(train, test, cfg)
        error = float(np.mean(trainer.predict(model, test) != test.labels))
        assert error < 1 - 1 / train.num_classes - 0.3

    def test_reproducible_end_to_end(self, small_blobs):
        train, test, _ = small_blobs
        a = trainer.fit(train, test, quick_config())
        b = trainer.fit(train, test, quick_config())
        assert np.array_equal(a.matrix.entries, b.matrix.entries)
        assert np.array_equal(a.decoder.weights, b.decoder.weights)
        assert np.array_equal(a.decoder.biases, b.decoder.biases)
        assert np.array_equal(trainer.predict(a, test), trainer.predict(b, test))
        assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]

    def test_early_stop_returns_best_snapshot(self, small_blobs):
        train, test, _ = small_blobs
        cfg = quick_config(max_rounds=20, early_stop_rounds=3)
        model = trainer.fit(train, test, cfg)
        errors = [rec.valid_error for rec in model.history]
        assert model.best_round == int(np.argmin(errors)) + 1
        direct = float(np.mean(trainer.predict(model, test) != test.labels))
        assert direct == pytest.approx(min(errors))

    def test_missing_class_rejected(self, small_blobs):
        train, test, _ = small_blobs
        keep = np.flatnonzero(train.labels != 2)
        broken = data_io._take_rows(train, keep)
        with pytest.raises(MissingClass):
            trainer.fit(broken, test, quick_config())

    def test_feature_space_mismatch_rejected(self, small_blobs):
        train, test, _ = small_blobs
        other, _, _ = synthetic.make_paired_blobs(
            num_pairs=2, train_per_class=10, test_per_class=5, num_features=9, seed=1
        )
        with pytest.raises(DimensionMismatch):
            trainer.fit(train, other, quick_config())

    def test_single_instance_predict_matches_batch(self, small_blobs):
        train, test, _ = small_blobs
        model = trainer.fit(train, test, quick_config())
        batch = trainer.predict(model, test)
        one = data_io._take_rows(test, np.array([4]))
        assert trainer.predict(model, one)[0] == batch[4]

    def test_idealized_outputs_give_perfect_accuracy(self):
        m = codebook.init_random(5, 5, seed=9)
        params = sd.init_from_matrix(m)
        labels = np.random.default_rng(0).integers(0, 5, size=40)
        outputs = m.entries[labels]
        predicted = sd.batch_predict(params, outputs)
        assert np.array_equal(predicted, labels)


class TestFitOva:
    def test_member_count_and_prediction(self, small_blobs):
        train, test, _ = small_blobs
        cfg = quick_config(mode="ova")
        model = trainer.fit(train, test, cfg)
        assert model.ensemble.code_length == train.num_classes
        assert model.mode == "ova"
        # identity-like matrix: +1 diagonal, -1 elsewhere
        expected = np.full((4, 4), -1.0)
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(model.matrix.entries, expected)

    def test_argmax_matches_softmax_decode_of_identity_matrix(self, small_blobs):
        train, test, _ = small_blobs
        cfg = quick_config(mode="ova", max_rounds=6)
        model = trainer.fit(train, test, cfg)
        outputs = learners.predict_all(model.ensemble, test)
        assert np.array_equal(trainer.predict(model, test), np.argmax(outputs, axis=1))
        # exact top ties, and tops one ulp ahead, which the rounding of the
        # (2I - 1, K) decoder's sums orders differently from argmax
        below = lambda x: np.nextafter(x, -np.inf)  # noqa: E731
        ties = np.array([
            [-0.9, -0.4, -0.4, -0.4],
            [0.7, 0.7, 0.4, 0.7],
            [0.6, -0.6, -0.6, 0.6],
            [-0.1, -0.0, below(0.9), 0.9],
            [-0.4, below(0.9), 0.9, -0.5],
            [below(1.0), -0.7, -0.4, 1.0],
        ])
        for block in (outputs, ties):
            assert np.array_equal(
                sd.batch_predict(model.decoder, block), np.argmax(block, axis=1)
            )

    def test_fit_dispatches_ova_mode(self, small_blobs):
        train, test, _ = small_blobs
        cfg = quick_config(mode="ova")
        model = trainer.fit(train, test, cfg)
        assert model.mode == "ova"
        assert model.ensemble.code_length == train.num_classes

    def test_history_recorded_identically(self, small_blobs):
        train, test, _ = small_blobs
        model = trainer.fit(train, test, quick_config(mode="ova"))
        assert len(model.history) == 8
        assert all(np.isfinite(rec.train_loss) for rec in model.history)


class TestBestRoundSnapshot:
    @pytest.mark.parametrize(
        "learner",
        [LearnerSpec(learning_rate=0.5, max_leaves=6),
         LearnerSpec(kind=LINEAR_SGD, learning_rate=0.002)],
        ids=["trees", "linear_sgd"],
    )
    def test_early_stopped_bundle_equals_rerun_to_best_round(
        self, tmp_path, small_blobs, learner
    ):
        train, test, _ = small_blobs
        stopped = trainer.fit(
            train, test, quick_config(max_rounds=20, early_stop_rounds=3, learner=learner)
        )
        assert stopped.best_round < len(stopped.history)
        rerun = trainer.fit(
            train,
            test,
            quick_config(
                max_rounds=stopped.best_round, early_stop_rounds=0, learner=learner
            ),
        )
        trainer.save_model(stopped, tmp_path / "stopped")
        trainer.save_model(rerun, tmp_path / "rerun")
        names = sorted(p.name for p in (tmp_path / "stopped").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "rerun").iterdir())
        for name in names:
            if name != "history.csv":
                stopped_bytes = (tmp_path / "stopped" / name).read_bytes()
                assert stopped_bytes == (tmp_path / "rerun" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "learner",
        [LearnerSpec(learning_rate=0.1, max_leaves=6),
         LearnerSpec(kind=LINEAR_SGD, learning_rate=0.002)],
        ids=["trees", "linear_sgd"],
    )
    def test_predict_reproduces_best_round_valid_error(self, small_blobs, learner):
        train, test, _ = small_blobs
        model = trainer.fit(
            train, test, quick_config(max_rounds=40, early_stop_rounds=3, learner=learner)
        )
        assert model.best_round < len(model.history)
        error = float(np.mean(trainer.predict(model, test) != test.labels))
        assert error == model.history[model.best_round - 1].valid_error


class TestJointLoopBehaviour:
    def test_lightmc_train_loss_not_above_fixed_ecoc(self):
        # 3-class blobs, shared seed and initial matrix, equal round counts
        rng = np.random.default_rng(12)
        centers = rng.normal(0.0, 4.0, (3, 10))
        dense = np.vstack(
            [centers[k] + rng.normal(0.0, 1.5, (500, 10)) for k in range(3)]
        )
        labels = np.repeat(np.arange(3), 500)
        order = rng.permutation(1500)
        data = data_io.from_dense(dense[order], labels[order])
        train, valid = data_io.stratified_split(data, 0.2, seed=0)
        final = {}
        for mode in ("lightmc", "ecoc_fixed"):
            cfg = TrainConfig(
                code_length="auto",
                max_rounds=12,
                start_round=4,
                learner=LearnerSpec(learning_rate=0.5, max_leaves=8),
                early_stop_rounds=0,
                seed=2,
                mode=mode,
            )
            model = trainer.fit(train, valid, cfg)
            final[mode] = model.history[-1].train_loss
        assert final["lightmc"] <= final["ecoc_fixed"] + 1e-12

    def test_ova_trains_more_members_than_lightmc(self):
        # the efficiency claim is structural at desk scale: OVA needs K
        # learners per round, the code-based modes only L < K
        train, test, _ = synthetic.make_paired_blobs(
            num_pairs=10, train_per_class=10, test_per_class=5, num_features=6, seed=6
        )
        cfg = TrainConfig(
            code_length="auto",
            max_rounds=2,
            start_round=1,
            learner=LearnerSpec(max_leaves=4),
            early_stop_rounds=0,
            seed=1,
        )
        light = trainer.fit(train, test, cfg)
        ova = trainer.fit(train, test, replace(cfg, mode="ova"))
        assert ova.ensemble.code_length == 20
        assert light.ensemble.code_length == 10
        assert light.ensemble.code_length < ova.ensemble.code_length


class TestLinearLearnerLoop:
    def test_linear_mode_updates_every_round(self, small_blobs):
        train, test, _ = small_blobs
        cfg = quick_config(
            learner=LearnerSpec(kind=LINEAR_SGD, learning_rate=0.002),
            max_rounds=5,
            start_round=3,
        )
        fired = []
        trainer.fit(
            train,
            test,
            cfg,
            round_hook=lambda info: fired.append(info["round"])
            if info["updated"]
            else None,
        )
        assert fired == [1, 2, 3, 4, 5]

    def test_weights_stay_one_c_contiguous_feature_by_column_array(
        self, tmp_path, small_blobs
    ):
        train, test, _ = small_blobs
        spec = LearnerSpec(kind=LINEAR_SGD, learning_rate=0.002)

        def assert_layout(ensemble):
            assert ensemble.weights.shape == (train.num_features, 4)
            assert ensemble.weights.flags.c_contiguous

        ensemble = learners.new_ensemble(4, spec, train.num_features)
        assert_layout(ensemble)
        outputs = np.zeros((train.num_rows, 4))
        learners.train_round(ensemble, train, codebook.init_random(4, 4, seed=0), outputs)
        assert_layout(ensemble)
        model = trainer.fit(
            train, test, quick_config(max_rounds=40, early_stop_rounds=3, learner=spec)
        )
        assert model.best_round < len(model.history)  # restored from a snapshot
        assert_layout(model.ensemble)
        learners.save_ensemble(model.ensemble, tmp_path / "ensemble.txt")
        assert_layout(learners.load_ensemble(tmp_path / "ensemble.txt"))


class TestModelBundle:
    def test_save_load_round_trip(self, tmp_path, small_blobs):
        train, test, _ = small_blobs
        model = trainer.fit(train, test, quick_config())
        out = tmp_path / "bundle"
        trainer.save_model(model, out)
        for name in (
            "codebook.txt",
            "decoder.txt",
            "ensemble.txt",
            "history.csv",
            "labels.map",
            "meta.txt",
        ):
            assert (out / name).exists()
        again = trainer.load_model(out)
        assert np.array_equal(again.matrix.entries, model.matrix.entries)
        assert np.array_equal(again.decoder.weights, model.decoder.weights)
        assert again.mode == model.mode
        assert again.label_names == model.label_names
        assert len(again.history) == len(model.history)
        assert np.array_equal(
            trainer.predict(again, test), trainer.predict(model, test)
        )

    @pytest.mark.parametrize(
        "learner",
        [LearnerSpec(learning_rate=0.5, max_leaves=6),
         LearnerSpec(kind=LINEAR_SGD, learning_rate=0.002, epochs_per_round=2)],
        ids=["trees", "linear_sgd"],
    )
    def test_bundle_bytes_do_not_depend_on_threads(self, tmp_path, small_blobs, learner,
                                                   forks):
        train, test, _ = small_blobs
        for threads in (1, 2):
            model = trainer.fit(
                train, test, quick_config(max_rounds=4, learner=learner, threads=threads)
            )
            trainer.save_model(model, tmp_path / str(threads))
            # tree columns fork one child a round at threads=2; linear never forks
            trees = threads == 2 and learner.kind == learners.BOOSTED_TREES
            assert len(forks) == (len(model.history) if trees else 0)
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
        for name in names:
            if name != "history.csv":
                one = (tmp_path / "1" / name).read_bytes()
                assert one == (tmp_path / "2" / name).read_bytes(), name

    def test_ova_bundle_reloads_doubled_identity_decoder(self, tmp_path, small_blobs):
        train, test, _ = small_blobs
        trainer.save_model(trainer.fit(train, test, quick_config(mode="ova")), tmp_path)
        again = trainer.load_model(tmp_path)
        assert np.array_equal(again.decoder.weights, 2.0 * np.eye(4))
        assert np.array_equal(again.decoder.biases, np.zeros(4))
        outputs = learners.predict_all(again.ensemble, test)
        assert np.array_equal(trainer.predict(again, test), np.argmax(outputs, axis=1))

    def test_history_csv_round_trip(self, tmp_path, small_blobs):
        train, test, _ = small_blobs
        model = trainer.fit(train, test, quick_config())
        path = tmp_path / "history.csv"
        trainer.save_history(model.history, path)
        again = trainer.load_history(path)
        assert again == model.history

    def test_stalled_clock_history_reloads(self, tmp_path, small_blobs, monkeypatch):
        # a clock that never advances still gives strictly increasing plain floats
        monkeypatch.setattr(trainer.time, "perf_counter", lambda: 5.0)
        train, test, _ = small_blobs
        model = trainer.fit(train, test, quick_config(max_rounds=3))
        trainer.save_model(model, tmp_path / "bundle")
        again = trainer.load_model(tmp_path / "bundle")
        assert again.history == model.history
        times = [rec.wall_time for rec in again.history]
        assert all(type(t) is float for t in times)
        assert times == sorted(set(times)) and times[0] > 0.0

    @pytest.mark.parametrize(
        "module, saver",
        [(codebook, "save_matrix"), (sd, "save_params"), (learners, "save_ensemble"),
         (trainer, "save_history"), (trainer, "save_label_map")],
        ids=["codebook", "decoder", "ensemble", "history", "labels"],
    )
    def test_save_cut_short_over_a_bundle_does_not_load(
        self, tmp_path, small_blobs, monkeypatch, module, saver
    ):
        # the files of two models must not load as one
        train, test, _ = small_blobs
        older, newer = (trainer.fit(train, test, quick_config(max_rounds=3, seed=seed))
                        for seed in (0, 1))
        trainer.save_model(older, tmp_path)

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(module, saver, interrupt)
        with pytest.raises(KeyboardInterrupt):
            trainer.save_model(newer, tmp_path)
        with pytest.raises(ParseError, match="incomplete model bundle, no meta.txt"):
            trainer.load_model(tmp_path)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from([BOOSTED_TREES, LINEAR_SGD]),
    mode=st.sampled_from(MODES),
    alpha=st.floats(0.01, 1.0),
    rounds=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_bundle_round_trip_is_bytewise(small_blobs, kind, mode, alpha, rounds, seed):
    # save, load and save again: every file, history.csv too, keeps its bytes
    train, test, _ = small_blobs
    learner = LearnerSpec(
        kind=kind, learning_rate=alpha if kind == BOOSTED_TREES else alpha / 500,
        max_leaves=4,
    )
    model = trainer.fit(
        train, test, quick_config(max_rounds=rounds, start_round=1, learner=learner,
                                  seed=seed, mode=mode)
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        trainer.save_model(model, first)
        again = trainer.load_model(first)
        trainer.save_model(again, second)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert np.array_equal(trainer.predict(again, test), trainer.predict(model, test))
    # and gives back the model exactly, so these are not merely rounded alike
    assert again.history == model.history
    for got, want in [
        (again.matrix.entries, model.matrix.entries),
        (again.decoder.weights, model.decoder.weights),
        (again.decoder.biases, model.decoder.biases),
        (learners.predict_all(again.ensemble, test),
         learners.predict_all(model.ensemble, test)),
    ]:
        assert got.tobytes() == want.tobytes()
