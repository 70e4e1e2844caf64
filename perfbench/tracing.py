"""Span tracing from outside the program.

`Tracer.install` replaces module-level functions of lightmc with wrappers
that record one span per call: name, start, end, parent span and run id.
The training loop looks these functions up as module attributes at call
time, so the wrappers see every call without any change to the program.
Spans stay in memory until `write_jsonl` is called once at the end.

The wrapped functions are all called from the thread that runs the
benchmark (lightmc's column threads run below `learners.train_round`), so
one call stack is enough to find each span's parent.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import NamedTuple

# module -> public functions on the fit / predict / bundle path
TRACED = {
    "data_io": ("load_sparse_text",),
    "learners": ("train_round", "accumulate_round_outputs", "predict_all"),
    "softmax_decoder": ("train_decoding", "output_gradients", "mean_loss", "batch_predict"),
    "matrix_optimizer": ("accumulate", "update_matrix"),
    "trainer": ("fit", "predict", "save_model", "load_model"),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    run_id: str


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        for module_name, names in TRACED.items():
            module = getattr(package, module_name)
            for name in names:
                original = getattr(module, name)
                self._originals.append((module, name, original))
                setattr(module, name, self._wrap(f"{module_name}.{name}", original))

    def uninstall(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)  # reserved so children get later indices
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run_id)

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Children of one span come from nested calls on one thread, so they
        never overlap and their durations add up to the time they cover.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [
            0.0 if span is None else span.end - span.start - covered[i]
            for i, span in enumerate(self.spans)
        ]

    def self_times_of(self, name: str) -> list[float]:
        """Self time of every span called `name`, in call order."""
        return [
            self_s
            for span, self_s in zip(self.spans, self.self_times())
            if span is not None and span.name == name
        ]

    def totals(self) -> dict[str, dict[str, float]]:
        """name -> {"s": summed self time, "total_s": summed duration, "calls": n}."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "total_s": 0.0, "calls": 0}
        )
        for span, self_s in zip(self.spans, self.self_times()):
            if span is not None:
                entry = out[span.name]
                entry["s"] += self_s
                entry["total_s"] += span.end - span.start
                entry["calls"] += 1
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is not None:
                    fh.write(json.dumps({"id": index, **span._asdict()}) + "\n")
