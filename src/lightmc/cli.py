"""Command-line front end: train, evaluate, and compare.

Every training option is one row of `_OPTIONS`: the flag `--name-with-dashes`
and the config-file key `name_with_underscores` share the row's parser, and
its default is the `TrainConfig` or `LearnerSpec` default of the field it
sets (valid_fraction, which sets no field, defaults to VALID_FRACTION). The
keys min_samples_leaf and epochs_per_round have no flag. Option precedence
is flags over config-file values over those defaults. Config files are flat
`key=value` text, each key at most once, spelt with underscores or dashes.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import codebook, trainer
from .data_io import load_sparse_text, read_settings, stratified_split, write_csv
from .errors import InvalidArg, LightMCError, ParseError
from .learners import BOOSTED_TREES, LINEAR_SGD, LearnerSpec
from .trainer import MODE_LIGHTMC, MODES, TrainConfig

COMPARE_HEADER = ("mode", "round", "elapsed_seconds", "valid_error")
DISTANCES_HEADER = ("round", "class_a", "class_b", "distance")
VALID_FRACTION = 0.2  # held out of --data when no --valid file is given


def _one_of(choices: dict[str, object]):
    def parse(text: str) -> object:
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"expected one of {', '.join(choices)}, got {text!r}"
            )
        return choices[text]

    return parse


def _code_length(text: str) -> int | str:
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer, got {text!r}"
        ) from None


# option -> (field it sets, parser, help); a "learner." field belongs to the
# LearnerSpec, and valid_fraction sets no field
_OPTIONS = {
    "mode": ("mode", _one_of({m: m for m in MODES}), "lightmc, ecoc_fixed or ova"),
    "code_length": ("code_length", _code_length, "'auto' or a positive integer"),
    "rounds": ("max_rounds", int, "training rounds, at most"),
    "start_round": ("start_round", int, "first decoder and matrix update"),
    "alpha": ("learner.learning_rate", float,
              "base-learner learning rate / boosting shrinkage"),
    "gamma1": ("gamma1", float, "decoder learning rate"),
    "gamma2": ("gamma2", float, "matrix learning rate"),
    "l2": ("l2", float, "decoder L2 penalty"),
    "decoder_batch": ("decoder_batch", int, "decoder mini-batch size"),
    "early_stop": ("early_stop_rounds", int, "rounds without improvement; 0 = off"),
    "learner": ("learner.kind", _one_of({"trees": BOOSTED_TREES, "linear": LINEAR_SGD}),
                "base learner: trees or linear"),
    "max_leaves": ("learner.max_leaves", int, "leaves per tree"),
    "min_samples_leaf": ("learner.min_samples_leaf", int, "rows per leaf, at least"),
    "epochs_per_round": ("learner.epochs_per_round", int, "linear SGD epochs per round"),
    "threads": ("threads", int, "parallel workers for tree columns; linear runs on one"),
    "seed": ("seed", int, "random seed"),
    "valid_fraction": (None, float, "validation share of --data without --valid"),
}
_FILE_ONLY = ("min_samples_leaf", "epochs_per_round")
# config keys may also be spelt as their flags are, with dashes
_CONFIG_KEYS = {s: name for name in _OPTIONS for s in (name, name.replace("_", "-"))}


def _add_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="training data (sparse text)")
    p.add_argument("--valid", default=None, help="validation data file")
    p.add_argument("--test", default=None, help="held-out test data file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="flat key=value config file")
    for name, (_, parse, help_text) in _OPTIONS.items():
        if name not in _FILE_ONLY:
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=parse,
                           default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightmc",
        description="Multiclass decomposition with trainable codes and decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model and save a bundle")
    _add_options(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="print test error of a saved model")
    p_eval.add_argument("model_dir")
    p_eval.add_argument("data_path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="run several modes on one dataset")
    _add_options(p_cmp)
    p_cmp.add_argument("--modes", nargs="*", default=[],
                       help="modes to run (e.g. lightmc ecoc_fixed ova)")
    p_cmp.add_argument("--pair", action="append", default=None, metavar="A,B",
                       help="class pair to trace codeword distance for; repeatable")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def _read_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    for line_no, key, val in read_settings(path, _CONFIG_KEYS, "utf-8"):
        try:
            out[key] = _OPTIONS[key][1](val)
        except (ValueError, argparse.ArgumentTypeError):
            raise ParseError(
                f"{path}: bad value for {key!r}: {val!r}", line=line_no
            ) from None
    return out


def _resolve_options(args: argparse.Namespace) -> dict[str, object]:
    """The options a flag or the config file sets."""
    opts = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for name in _OPTIONS:
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            opts[name] = flag_val
    return opts


def _train_config(opts: dict[str, object]) -> TrainConfig:
    fields: dict[str, object] = {}
    learner_fields: dict[str, object] = {}
    for name, value in opts.items():
        field = _OPTIONS[name][0]
        if field is not None:
            owner, _, field = field.rpartition(".")
            (learner_fields if owner else fields)[field] = value
    config = TrainConfig(learner=LearnerSpec(**learner_fields), **fields)
    config.validate()  # before the data is read and split with config.seed
    return config


def _load_train_valid(args, opts, seed: int):
    data = load_sparse_text(args.data)
    if args.valid:
        valid = load_sparse_text(
            args.valid,
            label_names=data.label_names,
            num_features=data.num_features,
        )
        return data, valid
    return stratified_split(data, opts.get("valid_fraction", VALID_FRACTION), seed)


def cmd_train(args: argparse.Namespace) -> int:
    opts = _resolve_options(args)
    config = _train_config(opts)
    train, valid = _load_train_valid(args, opts, config.seed)
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
    print(
        f"mode={model.mode} final_test_error={final_error:.4f} "
        f"convergence_seconds={model.convergence_seconds:.3f} "
        f"rounds_run={len(model.history)} history={out / 'history.csv'}"
    )
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
    base_config = _train_config(opts)
    pairs = [_parse_pair(text) for text in (args.pair or [])]
    train, valid = _load_train_valid(args, opts, base_config.seed)
    for a, b in pairs:  # before --out is made, so a bad pair leaves nothing behind
        codebook.check_class_pair(train.num_classes, a, b)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_mode = MODE_LIGHTMC if MODE_LIGHTMC in args.modes else args.modes[0]

    merged_rows: list[tuple[str, int, float, float]] = []
    distance_rows: list[tuple[int, int, int, float]] = []
    for mode in args.modes:
        config = replace(base_config, mode=mode)

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
    except (LightMCError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
