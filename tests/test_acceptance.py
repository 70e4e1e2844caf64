"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The desk-scale benchmark (criteria 5-7) trains
5 seeds x 2 modes and takes a few minutes; everything else is fast.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import acceptance_lines, max_relative_error, numeric_gradients

from lightmc import (
    cli,
    codebook,
    data_io,
    matrix_optimizer as mo,
    softmax_decoder as sd,
    synthetic,
    trainer,
)
from lightmc.learners import LearnerSpec
from lightmc.trainer import TrainConfig


def _report(criterion: str, passed: bool, detail: str) -> None:
    line = f"[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    acceptance_lines.append(line)
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(3, 11))
        length = int(rng.integers(1, 9))
        params = sd.DecoderParams(rng.normal(size=(k, length)), rng.normal(size=k))
        outputs = rng.normal(size=length)
        label = int(rng.integers(k))
        analytic = sd.loss_gradients(params, outputs, label)
        numeric = numeric_gradients(params, outputs, label, h=1e-5)
        worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1",
        worst < 1e-4 and elapsed < 5.0,
        f"100 draws, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: softmax decode of the initialized decoder == Hamming decoding


def test_criterion_2_decode_equivalence():
    rng = np.random.default_rng(77)
    started = time.perf_counter()
    checked = 0
    agreed = 0
    while checked < 1000:
        k = int(rng.integers(3, 13))
        length = int(
            rng.integers(codebook.min_feasible_code_length(k), 11)
        )
        matrix = codebook.init_random(k, length, seed=int(rng.integers(1 << 31)))
        outputs = rng.choice([-1.0, 1.0], size=length)
        distances = 0.5 * np.abs(matrix.entries - outputs).sum(axis=1)
        if int((distances == distances.min()).sum()) != 1:
            continue
        checked += 1
        params = sd.init_from_matrix(matrix)
        agreed += int(
            sd.decode(params, outputs).predicted
            == codebook.hamming_decode(matrix, outputs)
        )
    elapsed = time.perf_counter() - started
    _report(
        "criterion 2",
        agreed == 1000 and elapsed < 5.0,
        f"{agreed}/1000 agreements, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: one full-batch decoder step strictly decreases mean loss


def test_criterion_3_descent_property():
    succeeded = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 9))
        length = int(rng.integers(2, 8))
        n = int(rng.integers(10, 60))
        params = sd.DecoderParams(rng.normal(size=(k, length)), rng.normal(size=k))
        outputs = rng.normal(size=(n, length))
        labels = rng.integers(0, k, size=n)
        before = sd.mean_loss(params, outputs, labels)
        lr = 0.1
        for _ in range(11):  # initial rate plus up to 10 halvings
            updated = sd.train_decoding(
                params, outputs, labels, lr, batch_size=n, epochs=1
            )
            if sd.mean_loss(updated, outputs, labels) < before:
                succeeded += 1
                break
            lr *= 0.5
    _report("criterion 3", succeeded == 50, f"{succeeded}/50 trials descended")


# ---------------------------------------------------------------------------
# criterion 4: matrix update arithmetic and empty-class preservation


def test_criterion_4_matrix_update_correctness():
    # hand-computed single step: rows (1) and (-1) with unit counts move to
    # (0.9) and (-0.9) at lr 0.2; the third row pads the matrix to K >= 3
    # and doubles as the empty-class check
    matrix = codebook.CodingMatrix(np.array([[1.0], [-1.0], [1.0]]))
    stats = mo.ClassGradientStats(
        np.array([[0.5], [-0.5], [0.0]]), np.array([1, 1, 0])
    )
    updated = mo.update_matrix(matrix, stats, 0.2)
    exact = (
        updated.entries[0, 0] == 0.9
        and updated.entries[1, 0] == -0.9
        and updated.entries[2, 0] == 1.0
    )

    rng = np.random.default_rng(5)
    untouched = True
    for _ in range(50):
        k, length = int(rng.integers(3, 10)), int(rng.integers(1, 8))
        m = codebook.CodingMatrix(rng.normal(size=(k, length)))
        counts = rng.integers(0, 3, size=k)
        sums = rng.normal(size=(k, length)) * counts[:, None]
        result = mo.update_matrix(m, mo.ClassGradientStats(sums, counts), 0.2)
        for idx in np.flatnonzero(counts == 0):
            untouched &= bool(np.array_equal(result.entries[idx], m.entries[idx]))
    _report(
        "criterion 4",
        exact and untouched,
        f"hand example exact: {exact}, empty classes bit-identical: {untouched}",
    )


# ---------------------------------------------------------------------------
# criteria 5 and 6 share one benchmark run


BENCH_ROUNDS = 35
BENCH_START = 15
BENCH_ALPHA = 0.2
BENCH_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def paired_blob_benchmark():
    """5 seeds x {lightmc, ecoc_fixed} on the 20-class paired-blob data.

    Returns per-seed test errors and the lightmc traces, per round, of the
    mean codeword distance over correlated and over anti-correlated pairs
    and of the matrix's mean squared entry.
    """
    results = {"lightmc": [], "ecoc_fixed": []}
    traces = []
    started = time.perf_counter()
    for seed in BENCH_SEEDS:
        train, test, pairs = synthetic.make_paired_blobs(
            num_pairs=10,
            train_per_class=200,
            test_per_class=100,
            num_features=20,
            seed=seed,
        )
        anti_pairs = [
            (pairs[i][0], pairs[j][0])
            for i in range(len(pairs))
            for j in range(i + 1, len(pairs))
        ]
        for mode in ("lightmc", "ecoc_fixed"):
            config = TrainConfig(
                code_length="auto",
                max_rounds=BENCH_ROUNDS,
                start_round=BENCH_START,
                learner=LearnerSpec(learning_rate=BENCH_ALPHA, max_leaves=15),
                early_stop_rounds=0,  # equal learner budget for both modes
                seed=seed,
                mode=mode,
            )
            trace = {}

            def hook(info, trace=trace):
                m = info["matrix"]
                corr = float(
                    np.mean([codebook.codeword_distance(m, a, b) for a, b in pairs])
                )
                anti = float(
                    np.mean(
                        [codebook.codeword_distance(m, a, b) for a, b in anti_pairs]
                    )
                )
                msq = float(np.mean(m.entries**2))
                trace[info["round"]] = (corr, anti, msq)

            model = trainer.fit(train, test, config, round_hook=hook)
            error = float(np.mean(trainer.predict(model, test) != test.labels))
            results[mode].append(error)
            if mode == "lightmc":
                traces.append(trace)
    return results, traces, time.perf_counter() - started


@pytest.mark.slow
def test_criterion_5_desk_scale_benchmark(paired_blob_benchmark):
    results, _, elapsed = paired_blob_benchmark
    light = np.array(results["lightmc"])
    fixed = np.array(results["ecoc_fixed"])
    gaps = fixed - light
    chance_error = 1.0 - 1.0 / 20.0
    detail = (
        f"mean err lightmc {light.mean():.4f} vs ecoc_fixed {fixed.mean():.4f}, "
        f"mean gap {gaps.mean():+.4f}, per-seed gaps "
        f"{[f'{g:+.3f}' for g in gaps]}, {elapsed:.0f}s"
    )
    _report(
        "criterion 5",
        light.mean() <= fixed.mean()
        and gaps.mean() >= 0.0
        and light.mean() < chance_error - 0.5
        and fixed.mean() < chance_error - 0.5
        and elapsed < 600.0,
        detail,
    )


@pytest.mark.slow
def test_criterion_6_code_distance_trend(paired_blob_benchmark):
    # Correlated (confusable) pairs must spread apart by a strictly larger
    # factor than anti-correlated pairs, from the matrix before the first
    # update to the last round: a class's output gradient points toward its
    # confuser's decoder row, so the descent step pushes the two codewords
    # apart. Factors, not distances, since the whole codebook expands.
    _, traces, _ = paired_blob_benchmark
    base = np.array([t[BENCH_START - 1] for t in traces])
    final = np.array([t[BENCH_ROUNDS] for t in traces])
    corr_growth, anti_growth = final[:, :2].mean(axis=0) / base[:, :2].mean(axis=0)
    per_seed = final / base
    detail = (
        f"mean distance growth correlated x{corr_growth:.3f} vs anti "
        f"x{anti_growth:.3f}; per seed correlated "
        f"{[f'{g:.2f}' for g in per_seed[:, 0]]}, anti "
        f"{[f'{g:.2f}' for g in per_seed[:, 1]]}, mean squared entry "
        f"{[f'{g:.2f}' for g in per_seed[:, 2]]}"
    )
    _report("criterion 6", corr_growth > anti_growth, detail)


# ---------------------------------------------------------------------------
# criterion 7: cadence arithmetic and bit-reproducible bundles


def test_criterion_7_cadence_and_determinism(tmp_path):
    cadence_ok = True
    for alpha in (0.1, 0.05, 0.5):
        step = round(1.0 / alpha)
        config = TrainConfig(
            max_rounds=120,
            start_round=30,
            learner=LearnerSpec(learning_rate=alpha),
        )
        expected = [30 + m * step for m in range(0, (120 - 30) // step + 1)]
        cadence_ok &= trainer.update_rounds(config, is_boosting=True) == expected

    # a live run must fire updates on exactly those rounds
    train, test, _ = synthetic.make_paired_blobs(
        num_pairs=2, train_per_class=30, test_per_class=10, num_features=6, seed=9
    )
    fired = []
    trainer.fit(
        train,
        test,
        TrainConfig(
            code_length=4,
            max_rounds=9,
            start_round=3,
            learner=LearnerSpec(learning_rate=0.5, max_leaves=4),
            early_stop_rounds=0,
            seed=1,
        ),
        round_hook=lambda info: fired.append(info["round"]) if info["updated"] else None,
    )
    cadence_ok &= fired == [3, 5, 7, 9]

    data_path = tmp_path / "blob.txt"
    train_full, _, _ = synthetic.make_paired_blobs(
        num_pairs=2, train_per_class=40, test_per_class=10, num_features=6, seed=4
    )
    data_io.save_sparse_text(train_full, data_path)
    flags = [
        "--rounds", "6", "--start-round", "2", "--alpha", "0.5",
        "--code-length", "4", "--max-leaves", "6", "--early-stop", "0",
        "--seed", "7", "--threads", "1",
    ]
    digests = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli.main(["train", "--data", str(data_path), "--out", str(out)] + flags) == 0
        digests.append(
            tuple(
                (out / f).read_bytes()
                for f in ("codebook.txt", "decoder.txt", "ensemble.txt",
                          "labels.map", "meta.txt")
            )
        )
    identical = digests[0] == digests[1]
    _report(
        "criterion 7",
        cadence_ok and identical,
        f"cadence sets exact: {cadence_ok}, bundles byte-identical: {identical}",
    )


# ---------------------------------------------------------------------------
# criterion 8: News20 sanity (optional; needs a local copy of the dataset)


def _news20_path():
    candidates = [os.environ.get("LIGHTMC_NEWS20", "")]
    candidates.append(str(Path(__file__).parent / "data" / "news20.scale"))
    for cand in candidates:
        if cand and Path(cand).exists():
            return cand
    return None


@pytest.mark.slow
@pytest.mark.skipif(
    _news20_path() is None,
    reason="News20 dataset not available locally (no general network in this "
    "environment); set LIGHTMC_NEWS20 to the combined sparse text file",
)
def test_criterion_8_news20_sanity():
    started = time.perf_counter()
    data = data_io.load_sparse_text(_news20_path())
    shape_ok = (
        data.num_rows == 19_928
        and data.num_features == 62_021
        and data.num_classes == 20
    )
    auto_ok = codebook.suggested_code_length(data.num_classes) == 10
    remainder, test = data_io.stratified_split(data, 0.2, seed=0)
    train, valid = data_io.stratified_split(remainder, 0.1, seed=0)
    config = TrainConfig(
        code_length="auto",
        max_rounds=60,
        start_round=30,
        learner=LearnerSpec(learning_rate=0.1, max_leaves=31, min_samples_leaf=20),
        early_stop_rounds=20,
        seed=0,
    )
    model = trainer.fit(train, valid, config)
    error = float(np.mean(trainer.predict(model, test) != test.labels))
    elapsed = time.perf_counter() - started
    _report(
        "criterion 8",
        shape_ok and auto_ok and error < 0.35 and elapsed < 1800.0,
        f"shape ok: {shape_ok}, auto length ok: {auto_ok}, "
        f"test error {error:.4f}, {elapsed:.0f}s",
    )
