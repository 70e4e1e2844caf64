"""One benchmark child process, started by run.py with a pinned environment.

    worker.py pass WORKLOAD SEED WORKDIR INDEX T0
        Set up (import lightmc, parse train.txt and test.txt), then one
        fit -> predict -> save_model/load_model pass, untraced. The bundle
        goes to WORKDIR/bundle<INDEX>; from INDEX 1 on it must match bundle0.
    worker.py trace WORKLOAD SEED WORKDIR T0
        Parse with tracing on, time the first access of the dataset views,
        then run one untraced and one traced pass; report per-layer metrics.

T0 is the `time.monotonic()` reading the parent took just before starting
this process, so setup_s runs from process start. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import TEST_FILE, TRAIN_FILE, WORKLOADS

SHORT_REPEATS = 3  # timings of predict and of the bundle round-trip per untraced pass


def load_inputs(data_io, workdir: Path):
    train = data_io.load_sparse_text(workdir / TRAIN_FILE)
    test = data_io.load_sparse_text(
        workdir / TEST_FILE,
        label_names=train.label_names,
        num_features=train.num_features,
    )
    return train, test


class Gates:
    """Correctness checks; each one counts as an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name}: {detail}")

    def same_bundle(self, a: Path, b: Path) -> None:
        """Every bundle file but history.csv, the only one with wall times, is byte-identical."""
        files_a, files_b = bundle_contents(a), bundle_contents(b)
        differing = sorted(
            name for name in files_a.keys() | files_b.keys()
            if files_a.get(name) != files_b.get(name)
        )
        self.check("bundle bytes identical across repeats of one seed", not differing, str(differing))


def bundle_contents(bundle: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in bundle.iterdir() if p.name != "history.csv"}


class Pass:
    """One fit -> predict -> bundle round-trip, timed with tracing in whatever state it is."""

    def __init__(self, lightmc, workload, config, train, test, bundle: Path, gates: Gates,
                 short_repeats: int = 1):
        trainer = lightmc.trainer
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        self.model = trainer.fit(train, test, config)
        self.fit_s = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_SELF)
        self.fit_sys_s = after.ru_stime - before.ru_stime
        self.fit_minor_faults = after.ru_minflt - before.ru_minflt

        self.predict_s, self.bundle_roundtrip_s = [], []
        for _ in range(short_repeats):
            started = time.perf_counter()
            predicted = trainer.predict(self.model, test)
            self.predict_s.append(time.perf_counter() - started)
        for _ in range(short_repeats):
            started = time.perf_counter()
            trainer.save_model(self.model, bundle)
            reloaded = trainer.load_model(bundle)
            self.bundle_roundtrip_s.append(time.perf_counter() - started)

        self.test_error = float(np.mean(predicted != test.labels))
        self.bundle = bundle
        gates.check(
            "reloaded bundle predicts exactly as the fitted model",
            np.array_equal(trainer.predict(reloaded, test), predicted),
        )
        gates.check(
            "test_error below the workload ceiling",
            self.test_error < workload.error_ceiling,
            f"{self.test_error} >= {workload.error_ceiling}",
        )


def make_config(lightmc, workload, seed: int):
    threads = min(workload.config["threads"], len(os.sched_getaffinity(0)))
    config = dict(workload.config, seed=seed, threads=threads)
    learner = lightmc.learners.LearnerSpec(**workload.learner)
    return lightmc.trainer.TrainConfig(learner=learner, **config)


def end_to_end(workload, seed, workdir: Path, index: int, t0: float):
    import lightmc  # set-up, as `lightmc train` pays it before round 1

    train, test = load_inputs(lightmc.data_io, workdir)
    setup_s = time.monotonic() - t0
    gates = Gates()
    config = make_config(lightmc, workload, seed)
    p = Pass(lightmc, workload, config, train, test, workdir / f"bundle{index}", gates,
             SHORT_REPEATS)
    if index:
        gates.same_bundle(workdir / "bundle0", p.bundle)
    return gates, {
        "setup_s": setup_s,
        "fit_s": p.fit_s,
        "predict_s": p.predict_s,
        "bundle_roundtrip_s": p.bundle_roundtrip_s,
        "test_error": p.test_error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def leaf_counts(ensemble_txt: Path) -> tuple[int, int]:
    """(trees, leaves) of a saved ensemble; node lines of a leaf have feature -1."""
    trees = leaves = 0
    for line in ensemble_txt.read_text(encoding="ascii").splitlines():
        parts = line.split()
        if parts[0] == "tree":
            trees += 1
        elif parts[0].isdigit() and parts[1] == "-1":
            leaves += 1
    return trees, leaves


def per_layer(workload, seed, workdir: Path, run_id: str):
    import lightmc

    gates = Gates()
    config = make_config(lightmc, workload, seed)
    tracer = Tracer(run_id)
    tracer.install(lightmc)
    train, test = load_inputs(lightmc.data_io, workdir)
    started = time.perf_counter()
    train.sorted_entries
    sorted_view_s = time.perf_counter() - started
    started = time.perf_counter()
    test.columns
    column_view_s = time.perf_counter() - started
    tracer.uninstall()

    untraced = Pass(lightmc, workload, config, train, test, workdir / "bundle_untraced", gates)
    tracer.install(lightmc)
    traced = Pass(lightmc, workload, config, train, test, workdir / "bundle_traced", gates)
    tracer.uninstall()
    gates.same_bundle(untraced.bundle, traced.bundle)
    tracer.write_jsonl(workdir / "spans.jsonl")

    t = tracer.totals()
    trees, leaves = leaf_counts(traced.bundle / "ensemble.txt")
    # the saved model is the best-round snapshot: time the rounds that grew it
    grow_s = sum(tracer.self_times_of("learners.train_round")[: traced.model.best_round])
    input_bytes = sum((workdir / name).stat().st_size for name in (TRAIN_FILE, TEST_FILE))
    predicted_rows = t["learners.predict_all"]["calls"] * test.num_rows
    metrics = {
        "data_io.load_sparse_text.s": (t["data_io.load_sparse_text"]["s"], "s"),
        "data_io.parse_mb_per_s": (
            input_bytes / 1e6 / t["data_io.load_sparse_text"]["total_s"], "MB/s"),
        "data_io.rows": (train.num_rows + test.num_rows, "count"),
        "data_io.nnz": (int(train.indptr[-1] + test.indptr[-1]), "count"),
        "data_io.sorted_view_s": (sorted_view_s, "s"),
        "data_io.column_view_s": (column_view_s, "s"),
        "learners.train_round.s": (t["learners.train_round"]["s"], "s"),
        "learners.train_round.calls": (t["learners.train_round"]["calls"], "count"),
        "learners.trees": (trees, "count"),
        "learners.leaves": (leaves, "count"),
        "learners.us_per_leaf": (grow_s * 1e6 / leaves if leaves else 0.0, "us"),
        "learners.accumulate_round_outputs.s": (t["learners.accumulate_round_outputs"]["s"], "s"),
        "learners.accumulate_round_outputs.calls": (
            t["learners.accumulate_round_outputs"]["calls"], "count"),
        "learners.predict_all.s": (t["learners.predict_all"]["s"], "s"),
        "learners.predict_rows_per_s": (
            predicted_rows / t["learners.predict_all"]["total_s"], "rows/s"),
        "softmax_decoder.train_decoding.s": (t["softmax_decoder.train_decoding"]["s"], "s"),
        "softmax_decoder.train_decoding.calls": (
            t["softmax_decoder.train_decoding"]["calls"], "count"),
        "softmax_decoder.decoder_rows": (
            t["softmax_decoder.train_decoding"]["calls"] * train.num_rows
            * config.decoder_epochs_per_call, "count"),
        "softmax_decoder.output_gradients.s": (t["softmax_decoder.output_gradients"]["s"], "s"),
        "matrix_optimizer.accumulate.s": (t["matrix_optimizer.accumulate"]["s"], "s"),
        "matrix_optimizer.update_matrix.s": (t["matrix_optimizer.update_matrix"]["s"], "s"),
        "matrix_optimizer.update_matrix.calls": (
            t["matrix_optimizer.update_matrix"]["calls"], "count"),
        "softmax_decoder.mean_loss.s": (t["softmax_decoder.mean_loss"]["s"], "s"),
        "softmax_decoder.batch_predict.s": (t["softmax_decoder.batch_predict"]["s"], "s"),
        "trainer.fit.self_s": (t["trainer.fit"]["s"], "s"),
        # kernel time and page faults of the untraced fit, all threads
        "trainer.fit.sys_s": (untraced.fit_sys_s, "s"),
        "trainer.fit.minor_faults": (untraced.fit_minor_faults, "count"),
        "trainer.save_model.s": (t["trainer.save_model"]["s"], "s"),
        "trainer.load_model.s": (t["trainer.load_model"]["s"], "s"),
        "trainer.bundle_bytes": (
            sum(p.stat().st_size for p in traced.bundle.iterdir()), "bytes"),
        "trace.overhead_s": (traced.fit_s - untraced.fit_s, "s"),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return gates, metrics


def main(argv: list[str]) -> None:
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    workload = WORKLOADS[name]
    if mode == "pass":
        gates, metrics = end_to_end(workload, seed, workdir, int(argv[4]), float(argv[5]))
    else:
        gates, metrics = per_layer(workload, seed, workdir, f"{name}:{seed}")
    print(json.dumps({
        "metrics": metrics,
        "attempted": gates.attempted,
        "failures": gates.failures,
        "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
