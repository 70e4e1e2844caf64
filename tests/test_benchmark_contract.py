"""The benchmark in perfbench/ reaches into lightmc by name; keep those names.

`perfbench/tracing.py` wraps the functions listed in its `TRACED` table,
`perfbench/worker.py` times the first access of the dataset views
`sorted_entries` and `columns` and reads `decoder_epochs_per_call`, and
`perfbench/workloads.py` sets `TrainConfig` and `LearnerSpec` fields by
name. A rename in the package should fail here, not only in a benchmark run.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

import lightmc
from lightmc import data_io
from lightmc.learners import LearnerSpec
from lightmc.trainer import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def test_traced_functions_exist_and_are_callable():
    traced = load_tracing().TRACED
    assert traced
    for module_name, names in traced.items():
        module = getattr(lightmc, module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    before = {
        (module, name): getattr(getattr(lightmc, module), name)
        for module, names in tracing.TRACED.items()
        for name in names
    }
    tracer = tracing.Tracer("contract")

    def current():
        return {(m, n): getattr(getattr(lightmc, m), n) for m, n in before}

    tracer.install(lightmc)
    try:
        wrapped = current()
    finally:
        tracer.uninstall()
    assert all(wrapped[key] is not before[key] for key in before)
    assert current() == before


def test_dataset_views_timed_by_the_worker_exist():
    data = data_io.from_dense(np.array([[0.0, 2.0], [1.0, -1.0]]), np.array([0, 1]))
    features, values, rows = data.sorted_entries
    assert features.tolist() == [0, 1, 1] and values.tolist() == [1.0, -1.0, 2.0]
    assert rows.tolist() == [1, 1, 0]
    col_indptr, col_rows, col_values = data.columns
    assert col_indptr.tolist() == [0, 1, 3]
    assert col_rows.tolist() == [1, 1, 0] and col_values.tolist() == [1.0, -1.0, 2.0]


def test_workload_settings_are_config_fields():
    workloads = load_perfbench("workloads").WORKLOADS
    assert workloads
    config_fields = {f.name for f in dataclasses.fields(TrainConfig)}
    learner_fields = {f.name for f in dataclasses.fields(LearnerSpec)}
    for workload in workloads.values():
        assert set(workload.config) <= config_fields, workload.name
        assert set(workload.learner) <= learner_fields, workload.name
    assert TrainConfig().decoder_epochs_per_call >= 0
