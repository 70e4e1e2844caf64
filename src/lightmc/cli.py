"""Command-line front end: train, evaluate, and compare.

Option precedence is flags over config-file values over built-in defaults.
Config files are flat `key=value` text using the flag names with
underscores (plus a few extra keys: min_samples_leaf, epochs_per_round,
matrix_batch, valid_fraction). Exit codes: 0 success, 1 runtime failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import codebook, learners, trainer
from .data_io import load_sparse_text, read_lines, stratified_split, write_csv
from .errors import InvalidArg, LightMCError, ParseError
from .learners import LearnerSpec
from .trainer import MODE_LIGHTMC, MODES, TrainConfig

COMPARE_HEADER = ("mode", "round", "elapsed_seconds", "valid_error")
DISTANCES_HEADER = ("round", "class_a", "class_b", "distance")

_DEFAULTS: dict[str, object] = {
    "mode": MODE_LIGHTMC,
    "code_length": "auto",
    "rounds": 100,
    "start_round": 30,
    "alpha": 0.1,
    "gamma1": 0.1,
    "gamma2": 0.2,
    "l2": 0.0,
    "decoder_batch": 256,
    "early_stop": 20,
    "learner": "trees",
    "max_leaves": 31,
    "min_samples_leaf": 1,
    "epochs_per_round": 1,
    "matrix_batch": 0,
    "threads": None,  # resolved from LIGHTMC_THREADS, then cpu count
    "seed": 0,
    "valid_fraction": 0.2,
}

_CONVERT = {
    "mode": str,
    "code_length": str,
    "rounds": int,
    "start_round": int,
    "alpha": float,
    "gamma1": float,
    "gamma2": float,
    "l2": float,
    "decoder_batch": int,
    "early_stop": int,
    "learner": str,
    "max_leaves": int,
    "min_samples_leaf": int,
    "epochs_per_round": int,
    "matrix_batch": int,
    "threads": int,
    "seed": int,
    "valid_fraction": float,
}


@dataclass
class RunReport:
    """One-line training summary printed by the train command."""

    mode: str
    final_test_error: float
    convergence_seconds: float
    rounds_run: int
    history_path: str

    def as_line(self) -> str:
        return (
            f"mode={self.mode} final_test_error={self.final_test_error:.4f} "
            f"convergence_seconds={self.convergence_seconds:.3f} "
            f"rounds_run={self.rounds_run} history={self.history_path}"
        )


def _add_shared_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--code-length", dest="code_length", default=None,
                   help="'auto' or a positive integer")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--start-round", dest="start_round", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None,
                   help="base-learner learning rate / boosting shrinkage")
    p.add_argument("--gamma1", type=float, default=None, help="decoder learning rate")
    p.add_argument("--gamma2", type=float, default=None, help="matrix learning rate")
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--decoder-batch", dest="decoder_batch", type=int, default=None)
    p.add_argument("--early-stop", dest="early_stop", type=int, default=None)
    p.add_argument("--learner", choices=("trees", "linear"), default=None)
    p.add_argument("--max-leaves", dest="max_leaves", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="training data (sparse text)")
    p.add_argument("--valid", default=None, help="validation data file")
    p.add_argument("--valid-fraction", dest="valid_fraction", type=float, default=None)
    p.add_argument("--test", default=None, help="held-out test data file")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightmc",
        description="Multiclass decomposition with trainable codes and decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model and save a bundle")
    _add_data_options(p_train)
    _add_shared_options(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="print test error of a saved model")
    p_eval.add_argument("model_dir")
    p_eval.add_argument("data_path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="run several modes on one dataset")
    _add_data_options(p_cmp)
    _add_shared_options(p_cmp)
    p_cmp.add_argument("--modes", nargs="*", default=[],
                       help="modes to run (e.g. lightmc ecoc_fixed ova)")
    p_cmp.add_argument("--pair", action="append", default=None, metavar="A,B",
                       help="class pair to trace codeword distance for; repeatable")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def _read_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    for line_no, line in enumerate(read_lines(path, "utf-8"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or key not in _CONVERT:
            raise ParseError(f"unknown config key {line!r}", line=line_no)
        try:
            out[key] = _CONVERT[key](val.strip())
        except ValueError:
            raise ParseError(
                f"bad value for {key!r}: {val.strip()!r}", line=line_no
            ) from None
    return out


def _resolve_options(args: argparse.Namespace) -> dict[str, object]:
    opts = dict(_DEFAULTS)
    if getattr(args, "config", None):
        opts.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            opts[key] = flag_val
    if opts["threads"] is None:
        env = os.environ.get("LIGHTMC_THREADS")
        try:
            opts["threads"] = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise InvalidArg(f"LIGHTMC_THREADS={env!r} is not an integer") from None
    return opts


def _train_config(opts: dict[str, object]) -> TrainConfig:
    kind = learners.BOOSTED_TREES if opts["learner"] == "trees" else learners.LINEAR_SGD
    spec = LearnerSpec(
        kind=kind,
        learning_rate=float(opts["alpha"]),
        max_leaves=int(opts["max_leaves"]),
        min_samples_leaf=int(opts["min_samples_leaf"]),
        epochs_per_round=int(opts["epochs_per_round"]),
    )
    raw_length = str(opts["code_length"])
    if raw_length == "auto":
        code_length: int | str = "auto"
    else:
        try:
            code_length = int(raw_length)
        except ValueError:
            raise InvalidArg(f"bad code length {raw_length!r}") from None
    return TrainConfig(
        code_length=code_length,
        max_rounds=int(opts["rounds"]),
        start_round=int(opts["start_round"]),
        learner=spec,
        gamma1=float(opts["gamma1"]),
        gamma2=float(opts["gamma2"]),
        decoder_batch=int(opts["decoder_batch"]),
        l2=float(opts["l2"]),
        seed=int(opts["seed"]),
        early_stop_rounds=int(opts["early_stop"]),
        mode=str(opts["mode"]),
        threads=int(opts["threads"]),
        matrix_batch=int(opts["matrix_batch"]),
    )


def _load_train_valid(args, opts):
    data = load_sparse_text(args.data)
    if args.valid:
        valid = load_sparse_text(
            args.valid,
            label_names=data.label_names,
            num_features=data.num_features,
        )
        return data, valid
    return stratified_split(data, float(opts["valid_fraction"]), int(opts["seed"]))


def cmd_train(args: argparse.Namespace) -> int:
    opts = _resolve_options(args)
    config = _train_config(opts)
    train, valid = _load_train_valid(args, opts)
    model = trainer.fit(train, valid, config)
    out = Path(args.out)
    trainer.save_model(model, out)
    if args.test:
        test = load_sparse_text(
            args.test, label_names=model.label_names, num_features=model.num_features
        )
        final_error = float(np.mean(trainer.predict(model, test) != test.labels))
    else:
        final_error = min(rec.valid_error for rec in model.history)
    report = RunReport(
        mode=model.mode,
        final_test_error=final_error,
        convergence_seconds=model.convergence_seconds,
        rounds_run=len(model.history),
        history_path=str(out / "history.csv"),
    )
    print(report.as_line())
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = trainer.load_model(args.model_dir)
    data = load_sparse_text(
        args.data_path,
        label_names=model.label_names,
        num_features=model.num_features,
    )
    error = float(np.mean(trainer.predict(model, data) != data.labels))
    print(f"{error:.4f}")
    return 0


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise InvalidArg(f"bad --pair value {text!r}; expected 'A,B'") from None
    if a == b:
        raise InvalidArg(f"--pair classes must differ, got {text!r}")
    return a, b


def cmd_compare(args: argparse.Namespace) -> int:
    if not args.modes:
        print("error: --modes requires at least one mode", file=sys.stderr)
        return 2
    for mode in args.modes:
        if mode not in MODES:
            print(f"error: unknown mode {mode!r}", file=sys.stderr)
            return 2
    opts = _resolve_options(args)
    pairs = [_parse_pair(text) for text in (args.pair or [])]
    train, valid = _load_train_valid(args, opts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_mode = MODE_LIGHTMC if MODE_LIGHTMC in args.modes else args.modes[0]

    merged_rows: list[tuple[str, int, float, float]] = []
    distance_rows: list[tuple[int, int, int, float]] = []
    for mode in args.modes:
        config = replace(_train_config(opts), mode=mode)

        def hook(info: dict, _mode=mode) -> None:
            if _mode != trace_mode or not pairs:
                return
            matrix = info["matrix"]
            for a, b in pairs:
                distance_rows.append(
                    (info["round"], a, b, codebook.codeword_distance(matrix, a, b))
                )

        model = trainer.fit(train, valid, config, round_hook=hook)
        trainer.save_model(model, out / mode)
        for rec in model.history:
            merged_rows.append((mode, rec.round, rec.wall_time, rec.valid_error))
        best = min(rec.valid_error for rec in model.history)
        print(
            f"mode={mode} best_valid_error={best:.4f} "
            f"rounds_run={len(model.history)}"
        )

    write_csv(out / "compare.csv", COMPARE_HEADER, merged_rows)
    if pairs:
        write_csv(out / "distances.csv", DISTANCES_HEADER, distance_rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LightMCError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
