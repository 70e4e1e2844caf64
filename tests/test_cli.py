import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lightmc import cli, data_io, synthetic, trainer
from lightmc.trainer import TrainConfig


@pytest.fixture(scope="module")
def blob_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobdata")
    train, test, _ = synthetic.make_paired_blobs(
        num_pairs=2, train_per_class=40, test_per_class=20, num_features=8, seed=2
    )
    train_path = root / "train.txt"
    test_path = root / "test.txt"
    data_io.save_sparse_text(train, train_path)
    data_io.save_sparse_text(test, test_path)
    return train_path, test_path


FAST = [
    "--rounds", "6", "--start-round", "2", "--alpha", "0.5",
    "--code-length", "4", "--max-leaves", "6", "--early-stop", "0",
    "--seed", "3", "--threads", "1",
]


def run(args):
    return cli.main(args)


class TestTrain:
    def test_bundle_written_and_report_printed(self, blob_file, tmp_path, capsys):
        train_path, test_path = blob_file
        out = tmp_path / "run1"
        code = run(
            ["train", "--data", str(train_path), "--test", str(test_path),
             "--out", str(out)] + FAST
        )
        assert code == 0
        for name in ("codebook.txt", "decoder.txt", "ensemble.txt",
                     "history.csv", "labels.map", "meta.txt"):
            assert (out / name).exists()
        line = capsys.readouterr().out.strip()
        assert line.startswith("mode=lightmc final_test_error=0.")
        assert "rounds_run=6" in line

    def test_byte_identical_reruns(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(["train", "--data", str(train_path), "--out", str(out)] + FAST) == 0
        capsys.readouterr()
        for name in ("codebook.txt", "decoder.txt", "ensemble.txt", "labels.map", "meta.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_ova_and_auto_code_length_member_counts(self, tmp_path, capsys):
        train, test, _ = synthetic.make_paired_blobs(
            num_pairs=10, train_per_class=8, test_per_class=4, num_features=6, seed=4
        )
        data_path = tmp_path / "k20.txt"
        data_io.save_sparse_text(train, data_path)
        ova_out = tmp_path / "ova"
        assert run(
            ["train", "--data", str(data_path), "--out", str(ova_out), "--mode", "ova",
             "--rounds", "2", "--max-leaves", "4", "--early-stop", "0", "--seed", "1",
             "--threads", "1"]
        ) == 0
        model = trainer.load_model(ova_out)
        assert model.ensemble.code_length == 20
        auto_out = tmp_path / "auto"
        assert run(
            ["train", "--data", str(data_path), "--out", str(auto_out),
             "--mode", "lightmc", "--code-length", "auto", "--rounds", "2",
             "--max-leaves", "4", "--early-stop", "0", "--seed", "1", "--threads", "1"]
        ) == 0
        model = trainer.load_model(auto_out)
        assert model.ensemble.code_length == 10
        capsys.readouterr()

    def test_explicit_validation_file(self, blob_file, tmp_path, capsys):
        train_path, test_path = blob_file
        out = tmp_path / "valrun"
        code = run(
            ["train", "--data", str(train_path), "--valid", str(test_path),
             "--out", str(out)] + FAST
        )
        assert code == 0
        capsys.readouterr()

    def test_empty_validation_share_exits_one(self, blob_file, tmp_path, capsys):
        # 1% of 40 rows per class rounds to no validation row at all
        train_path, _ = blob_file
        out = tmp_path / "novalid"
        code = run(["train", "--data", str(train_path), "--out", str(out),
                    "--valid-fraction", "0.01"] + FAST)
        assert code == 1
        assert "validation" in assert_one_error_line(capsys)
        assert not out.exists()

    def test_negative_seed_exits_one(self, blob_file, tmp_path, capsys):
        # the seed also draws the validation split, before fit runs
        train_path, _ = blob_file
        code = run(["train", "--data", str(train_path), "--out", str(tmp_path / "m")]
                   + FAST + ["--seed", "-1"])
        assert code == 1
        assert "seed" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("setting, message", [
        (["--threads", "0"], "threads must be an integer >= 1, got 0"),
        ("l2=-1\n", "l2 must be a finite number >= 0, got -1.0"),
    ], ids=["flag", "config-file"])
    def test_setting_outside_its_bound_exits_one(self, setting, message, blob_file,
                                                 tmp_path, capsys):
        train_path, _ = blob_file
        if isinstance(setting, str):  # a config file's text
            config = tmp_path / "bad.cfg"
            config.write_text(setting)
            setting = ["--config", str(config)]
        out = tmp_path / "none"
        code = run(["train", "--data", str(train_path), "--out", str(out)] + setting)
        assert code == 1
        assert assert_one_error_line(capsys) == f"error: {message}\n"
        assert not out.exists()

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        code = run(["train", "--data", str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "x")] + FAST)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_exits_two(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        for flag, message in [
            (["--mode", "bogus"], "'bogus'"),
            (["--code-length", "x"], "expected 'auto' or an integer, got 'x'"),
        ]:
            with pytest.raises(SystemExit) as exc:
                run(["train", "--data", str(train_path), "--out", str(tmp_path / "y")]
                    + flag)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "y").exists()


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        config = tmp_path / "run.cfg"
        config.write_text(
            "# benchmark settings\nrounds=4\nalpha=0.5\ncode_length=4\n"
            "max_leaves=6\nearly_stop=0\nstart_round=2\nseed=3\nthreads=1\n"
        )
        out = tmp_path / "cfgrun"
        code = run(["train", "--data", str(train_path), "--out", str(out),
                    "--config", str(config), "--rounds", "3"])
        assert code == 0
        line = capsys.readouterr().out
        assert "rounds_run=3" in line  # flag beat the file's rounds=4
        history = trainer.load_history(out / "history.csv")
        assert len(history) == 3

    def test_unknown_config_key_rejected(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        config = tmp_path / "bad.cfg"
        config.write_text("rounds=4\nmystery=1\n")
        code = run(["train", "--data", str(train_path),
                    "--out", str(tmp_path / "z"), "--config", str(config)])
        assert code == 1
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["learner=forest", "mode=bogus"])
    def test_bad_choice_in_file_exits_one(self, line, blob_file, tmp_path, capsys):
        # the file's values go through the same parsers as the flags'
        train_path, _ = blob_file
        config = tmp_path / "bad.cfg"
        config.write_text(f"rounds=2\n{line}\n")
        out = tmp_path / "none"
        code = run(["train", "--data", str(train_path), "--out", str(out),
                    "--config", str(config)])
        assert code == 1
        assert repr(line.partition("=")[0]) in assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", ["rounds=2\nrounds=3\n", "start_round=2\nstart-round=3\n"]
    )
    def test_repeated_config_key_exits_one(self, text, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        config = tmp_path / "twice.cfg"
        config.write_text(text)
        out = tmp_path / "none"
        code = run(["train", "--data", str(train_path), "--out", str(out),
                    "--config", str(config)])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert "line 2" in err and str(config) in err and "repeated" in err
        assert not out.exists()

    def test_bad_learner_flag_exits_two(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", str(train_path), "--out", str(tmp_path / "y"),
                 "--learner", "forest"])
        assert exc.value.code == 2
        assert "forest" in capsys.readouterr().err


@pytest.fixture(scope="module")
def overfit_bundle(blob_file, tmp_path_factory):
    train_path, test_path = blob_file
    out = tmp_path_factory.mktemp("model") / "bundle"
    # heavy trees on tiny data memorize the whole training file; the
    # separate --valid file keeps --data intact as the training set
    assert run(
        ["train", "--data", str(train_path), "--valid", str(test_path),
         "--out", str(out),
         "--rounds", "30", "--start-round", "2", "--alpha", "1.0",
         "--code-length", "4", "--max-leaves", "64", "--early-stop", "0",
         "--seed", "3", "--threads", "1", "--mode", "ecoc_fixed"]
    ) == 0
    return out


class TestEvaluate:

    def test_perfect_on_own_training_data(self, overfit_bundle, blob_file, capsys):
        train_path, _ = blob_file
        assert run(["evaluate", str(overfit_bundle), str(train_path)]) == 0
        assert capsys.readouterr().out.strip() == "0.0000"

    def test_random_labels_score_near_chance(self, overfit_bundle, tmp_path, capsys):
        rng = np.random.default_rng(0)
        train, _, _ = synthetic.make_paired_blobs(
            num_pairs=2, train_per_class=40, test_per_class=20, num_features=8, seed=2
        )
        shuffled = data_io.SparseDataset(
            indptr=train.indptr,
            indices=train.indices,
            values=train.values,
            labels=rng.integers(0, 4, size=train.num_rows),
            num_features=train.num_features,
            num_classes=4,
            label_names=train.label_names,
        )
        path = tmp_path / "randomized.txt"
        data_io.save_sparse_text(shuffled, path)
        assert run(["evaluate", str(overfit_bundle), str(path)]) == 0
        error = float(capsys.readouterr().out.strip())
        assert abs(error - 0.75) < 0.1  # 1 - 1/K for K=4

    def test_missing_bundle_exits_one(self, tmp_path, blob_file, capsys):
        train_path, _ = blob_file
        assert run(["evaluate", str(tmp_path / "ghost"), str(train_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_bundle_exits_one(self, tmp_path, blob_file, capsys):
        train_path, _ = blob_file
        bad = tmp_path / "broken"
        bad.mkdir()
        (bad / "meta.txt").write_text("format=lightmc-model v1\nmode=lightmc\n")
        (bad / "codebook.txt").write_text("garbage\n")
        assert run(["evaluate", str(bad), str(train_path)]) == 1
        capsys.readouterr()


def _edit_lines(path, edit, *args):
    lines = path.read_text().splitlines()
    edit(lines, *args)
    path.write_text("\n".join(lines) + "\n")


def _set_meta(lines, key, value):
    lines[:] = [ln for ln in lines if not ln.startswith(f"{key}=")]
    if value is not None:
        lines.append(f"{key}={value}")


def _set_line(lines, index, text):
    lines[index] = text


def _set_field(lines, index, field, text):
    fields = lines[index].split()
    fields[field] = text
    lines[index] = " ".join(fields)


def _set_root_field(lines, field, value):
    root = lines.index(next(ln for ln in lines if ln.startswith("tree 0 "))) + 1
    fields = lines[root].split()
    assert fields[1] != "-1", "the first tree's root must be a split"
    fields[field] = value
    lines[root] = " ".join(fields)


def _edit_tree_line(lines, offset, edit):
    """Replace the fields of the line `offset` lines after the first tree
    header by `edit(fields)`."""
    at = next(i for i, ln in enumerate(lines) if ln.startswith("tree 0 ")) + offset
    lines[at] = " ".join(edit(lines[at].split()))


def _keep_classes(lines, count):
    """Keep the codebook rows of the first `count` classes, and say so in the header."""
    _set_field(lines, 0, 2, str(count))
    del lines[count + 1:]


def _keep_first(lines, count):
    assert len(lines) > count
    del lines[count:]


def _set_first_leaf_value(lines, value):
    leaf = next(i for i, ln in enumerate(lines) if ln.split()[1:2] == ["-1"])
    lines[leaf] = " ".join(lines[leaf].split()[:5] + [value])


def _drop_last_stage(lines, member):
    """Drop a member's last tree, and say so in its `member` line."""
    at = next(i for i, ln in enumerate(lines) if ln.startswith(f"member {member} "))
    stages = int(lines[at].split()[2])
    last = next(i for i in range(at, len(lines)) if lines[i].startswith(f"tree {stages - 1} "))
    end = next((i for i in range(last, len(lines)) if lines[i].startswith("member ")),
               len(lines))
    del lines[last:end]
    lines[at] = f"member {member} {stages - 1}"


def _as_linear_with_first_weight(lines, weight):
    """Swap in a linear ensemble of the same shape whose first weight is `weight`."""
    code_length, features = int(lines[0].split()[2]), int(lines[2].split()[1])
    lines[:] = [f"lightmc-ensemble v1 {code_length} linear_sgd", "alpha 0.1",
                f"features {features}"]
    for j in range(code_length):
        weights = [weight] + ["0.5"] * (features - 1) if j == 0 else ["0.5"] * features
        lines += [f"member {j}", f"weights {features} {' '.join(weights)}", "bias 0.0"]


# case -> (bundle file, edit, edit arguments); each edit leaves a bundle
# the loader must reject
CORRUPTIONS = {
    "meta_without_best_round": ("meta.txt", _set_meta, "best_round", None),
    "meta_non_integer_best_round": ("meta.txt", _set_meta, "best_round", "seven"),
    "meta_best_round_past_history": ("meta.txt", _set_meta, "best_round", "99"),
    "meta_unknown_mode": ("meta.txt", _set_meta, "mode", "bogus"),
    "history_non_numeric_row": ("history.csv", _set_line, 1, "1,abc,0.1,0.2"),
    "tree_root_is_its_own_left_child": ("ensemble.txt", _set_root_field, 3, "0"),
    "tree_feature_out_of_range": ("ensemble.txt", _set_root_field, 1, "8"),
    "tree_root_threshold_nan": ("ensemble.txt", _set_root_field, 2, "nan"),
    "tree_root_value_inf": ("ensemble.txt", _set_root_field, 5, "inf"),
    "tree_leaf_value_nan": ("ensemble.txt", _set_first_leaf_value, "nan"),
    "alpha_above_one": ("ensemble.txt", _set_line, 1, "alpha 2.0"),
    "alpha_zero": ("ensemble.txt", _set_line, 1, "alpha 0.0"),
    "linear_weight_nan": ("ensemble.txt", _as_linear_with_first_weight, "nan"),
    "linear_weight_inf": ("ensemble.txt", _as_linear_with_first_weight, "-inf"),
    "meta_junk_line": ("meta.txt", list.append, "junk"),
    "codebook_extra_row": ("codebook.txt", list.append, "1.0 -1.0 1.0 -1.0"),
    "codebook_nan": ("codebook.txt", _set_field, 1, 0, "nan"),
    "codebook_two_classes": ("codebook.txt", _keep_classes, 2),
    "codebook_header_word_count": ("codebook.txt", _set_field, 0, 2, "four"),
    "ensemble_unknown_kind": ("ensemble.txt", _set_field, 0, 3, "forest"),
    "ensemble_features_not_a_number": ("ensemble.txt", _set_line, 2, "features x"),
    "decoder_extra_row": ("decoder.txt", list.append, "1.0 -1.0 1.0 -1.0"),
    "decoder_weight_inf": ("decoder.txt", _set_field, 1, 0, "inf"),
    "decoder_bias_nan": ("decoder.txt", _set_field, -1, 0, "nan"),
    "decoder_short_row": ("decoder.txt", _set_line, 1, "1.0 -1.0 1.0"),
    "ensemble_junk_after_last_member": ("ensemble.txt", list.append, "junk"),
    "label_map_bad_index": ("labels.map", _set_line, 0, "a\tx"),
    "label_map_name_with_space": ("labels.map", _set_line, 0, "a b\t0"),
    "meta_repeated_mode": ("meta.txt", list.append, "mode=lightmc"),
    "meta_unknown_key": ("meta.txt", list.append, "num_clases=3"),
    "tree_node_extra_field": ("ensemble.txt", _edit_tree_line, 1, lambda f: f + ["0"]),
    "tree_node_without_value": ("ensemble.txt", _edit_tree_line, 1, lambda f: f[:5]),
    "tree_header_extra_field": ("ensemble.txt", _edit_tree_line, 0, lambda f: f + ["x"]),
    "tree_header_wrong_stage": (
        "ensemble.txt", _edit_tree_line, 0, lambda f: [f[0], "5", f[2]]
    ),
    "tree_header_without_size": ("ensemble.txt", _edit_tree_line, 0, lambda f: f[:2]),
    "ensemble_cut_after_12_lines": ("ensemble.txt", _keep_first, 12),
    "ensemble_cut_after_40_lines": ("ensemble.txt", _keep_first, 40),
    "tree_children_share_a_node": ("ensemble.txt", _set_root_field, 4, "1"),
    "tree_right_child_skips_a_node": (
        "ensemble.txt", _edit_tree_line, 1, lambda f: f[:4] + [str(int(f[4]) + 1), f[5]]
    ),
    "member_short_of_best_round": ("ensemble.txt", _drop_last_stage, 0),
}


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    return err


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_bundle_is_a_parse_error(
        self, case, overfit_bundle, blob_file, tmp_path, capsys
    ):
        name, edit, *args = CORRUPTIONS[case]
        bundle = tmp_path / "bundle"
        shutil.copytree(overfit_bundle, bundle)
        _edit_lines(bundle / name, edit, *args)
        train_path, _ = blob_file
        assert run(["evaluate", str(bundle), str(train_path)]) == 1
        err = assert_one_error_line(capsys)
        assert name in err
        if name == "ensemble.txt":
            assert re.search(r"line \d+", err), err

    def test_bad_validation_file_is_named(self, blob_file, tmp_path, capsys):
        # the training file loads first and is good: the error must say which is bad
        train_path, test_path = blob_file
        first = test_path.read_text().splitlines()[0]
        bad = tmp_path / "bad_valid.txt"
        bad.write_text(f"{first}\n{first.split()[0]} 1:0.5 2:x\n")
        code = run(["train", "--data", str(train_path), "--valid", str(bad),
                    "--out", str(tmp_path / "m")] + FAST)
        assert code == 1
        message = f"line 2: {bad}: malformed feature entry '2:x'"
        assert assert_one_error_line(capsys) == f"error: {message}\n"

    def test_linear_swap_alone_is_a_valid_bundle(
        self, overfit_bundle, blob_file, tmp_path, capsys
    ):
        # the linear rows above fail on their one bad weight, not on the swap
        bundle = tmp_path / "bundle"
        shutil.copytree(overfit_bundle, bundle)
        _edit_lines(bundle / "ensemble.txt", _as_linear_with_first_weight, "0.5")
        train_path, _ = blob_file
        assert run(["evaluate", str(bundle), str(train_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text",
        [
            "lightmc-ensemble v1 1000000000 boosted_trees\nalpha 1.0\n"
            "features 8\nmember 0 0\n",
            "lightmc-ensemble v1 1 linear_sgd\nalpha 0.1\n"
            "features 1000000000000\nmember 0\nweights 1 0.5\nbias 0.0\n",
            "lightmc-ensemble v1 0 linear_sgd\nalpha 0.1\nfeatures 8\n",
        ],
        ids=["members", "features", "no_members"],
    )
    def test_ensemble_header_beyond_its_body(
        self, text, overfit_bundle, blob_file, tmp_path, capsys
    ):
        # the loader must not allocate what the header declares before
        # checking it against the body
        bundle = tmp_path / "bundle"
        shutil.copytree(overfit_bundle, bundle)
        (bundle / "ensemble.txt").write_text(text)
        train_path, _ = blob_file
        assert run(["evaluate", str(bundle), str(train_path)]) == 1
        assert "header declares" in assert_one_error_line(capsys)

    def test_undecodable_bundle_file(self, overfit_bundle, blob_file, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(overfit_bundle, bundle)
        with open(bundle / "codebook.txt", "ab") as fh:
            fh.write(b"\xff\n")
        train_path, _ = blob_file
        assert run(["evaluate", str(bundle), str(train_path)]) == 1
        assert_one_error_line(capsys)

    def test_undecodable_data_file(self, overfit_bundle, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        bad = tmp_path / "bad.txt"
        bad.write_bytes(train_path.read_bytes() + b"0 1:\xff\n")
        assert run(["evaluate", str(overfit_bundle), str(bad)]) == 1
        assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "sizes",
        [{"num_features": "3"}, {"num_classes": "9", "code_length": "7"}],
        ids=["features", "classes_and_code_length"],
    )
    def test_meta_sizes_must_match_the_bundle(
        self, sizes, overfit_bundle, blob_file, tmp_path, capsys
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(overfit_bundle, bundle)
        meta = bundle / "meta.txt"
        meta.write_text("".join(
            f"{key}={sizes.get(key, val)}\n"
            for key, _, val in (ln.partition("=") for ln in meta.read_text().splitlines())
        ))
        train_path, _ = blob_file
        assert run(["evaluate", str(bundle), str(train_path)]) == 1
        assert "meta.txt" in assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "blobs, alpha, seed, failure",
        [
            # the weights turn non-finite inside the learner
            ((4, 40, 5, 8, 2), "0.5", "1", "diverged"),
            # they stay finite, and the outputs overflow the decoder's scores
            ((2, 30, 10, 6, 0), "0.1", "0", "overflowed"),
        ],
        ids=["weights", "outputs"],
    )
    @pytest.mark.filterwarnings("error")
    def test_diverging_linear_learner_warns_nothing(
        self, blobs, alpha, seed, failure, tmp_path, capsys
    ):
        train, _, _ = synthetic.make_paired_blobs(*blobs)
        path = tmp_path / "blobs.txt"
        data_io.save_sparse_text(train, path)
        code = run(["train", "--data", str(path), "--out", str(tmp_path / "m"),
                    "--learner", "linear", "--alpha", alpha, "--rounds", "3",
                    "--seed", seed, "--threads", "1"])
        assert code == 1
        message = assert_one_error_line(capsys)
        assert failure in message and "learning_rate (--alpha)" in message

    def test_huge_feature_index_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("".join(f"{i % 3} 1:0.5 {10**12}:1.0\n" for i in range(30)))
        code = run(["train", "--data", str(path), "--out", str(tmp_path / "m")] + FAST)
        assert code == 1
        assert "line 1" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("learner", ["trees", "linear"])
    def test_feature_space_beyond_memory_exits_one(self, learner, tmp_path):
        # the largest feature space the parser accepts needs tens of GiB; a
        # 3 GiB address-space cap makes that allocation fail without using it
        path = tmp_path / "wide.txt"
        index = data_io.MAX_FEATURE_INDEX - 1
        path.write_text("".join(f"{i % 3} 1:0.5 {index}:1.0\n" for i in range(30)))
        cap = 3 << 30
        script = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
            "from lightmc import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", script, "train", "--data", str(path),
             "--out", str(tmp_path / "m"), "--learner", learner] + FAST,
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "allocate" in proc.stderr

    def test_non_finite_gamma_writes_no_bundle(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        out = tmp_path / "nan"
        code = run(["train", "--data", str(train_path), "--out", str(out),
                    "--gamma1", "nan"] + FAST)
        assert code == 1
        assert "gamma1" in assert_one_error_line(capsys)
        assert not out.exists()


class TestCompare:
    def test_modes_csvs_and_distance_trace(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        out = tmp_path / "cmp"
        code = run(
            ["compare", "--data", str(train_path), "--out", str(out),
             "--modes", "lightmc", "ecoc_fixed",
             "--pair", "0,1", "--pair", "0,2"] + FAST
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "mode=lightmc" in printed and "mode=ecoc_fixed" in printed
        rows = data_io.read_csv(
            out / "compare.csv", cli.COMPARE_HEADER, (str, int, float, float)
        )
        modes = {row[0] for row in rows}
        assert modes == {"lightmc", "ecoc_fixed"}
        assert len(rows) == 2 * 6
        drows = data_io.read_csv(
            out / "distances.csv", cli.DISTANCES_HEADER, (int, int, int, float)
        )
        assert len(drows) == 6 * 2  # per round per pair, lightmc only
        assert all(np.isfinite(row[3]) for row in drows)
        assert {(row[1], row[2]) for row in drows} == {(0, 1), (0, 2)}
        # per-mode bundles are reloadable
        for mode in ("lightmc", "ecoc_fixed"):
            model = trainer.load_model(out / mode)
            assert model.mode == mode

    def test_shared_initial_matrix_across_modes(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        out = tmp_path / "cmp2"
        assert run(
            ["compare", "--data", str(train_path), "--out", str(out),
             "--modes", "ecoc_fixed", "lightmc"] + FAST
        ) == 0
        capsys.readouterr()
        fixed = trainer.load_model(out / "ecoc_fixed")
        light = trainer.load_model(out / "lightmc")
        # ecoc_fixed keeps the shared initial matrix; lightmc refined its copy
        assert fixed.matrix.entries.shape == light.matrix.entries.shape
        assert not np.array_equal(fixed.matrix.entries, light.matrix.entries)

    def test_bad_pair_class_exits_one_before_out_is_made(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        out = tmp_path / "c5"
        code = run(["compare", "--data", str(train_path), "--out", str(out),
                    "--modes", "lightmc", "--pair", "0,99"] + FAST)
        assert code == 1
        assert "class_b" in assert_one_error_line(capsys)
        assert not out.exists()

    def test_empty_modes_exit_two(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        code = run(["compare", "--data", str(train_path),
                    "--out", str(tmp_path / "c3"), "--modes"])
        assert code == 2
        assert "at least one mode" in capsys.readouterr().err

    def test_unknown_mode_exits_two(self, blob_file, tmp_path, capsys):
        train_path, _ = blob_file
        code = run(["compare", "--data", str(train_path),
                    "--out", str(tmp_path / "c4"), "--modes", "nope"])
        assert code == 2
        capsys.readouterr()


class TestParsing:
    def test_pair_parsing(self):
        assert cli._parse_pair("3,7") == (3, 7)
        from lightmc.errors import InvalidArg

        with pytest.raises(InvalidArg):
            cli._parse_pair("3")
        with pytest.raises(InvalidArg):
            cli._parse_pair("4,4")

    def test_defaults_come_from_train_config(self, monkeypatch):
        # no flag, file or environment variable sets threads by default
        monkeypatch.setenv("LIGHTMC_THREADS", "3")
        opts = cli._resolve_options(argparse.Namespace(config=None))
        assert cli._train_config(opts) == TrainConfig()

    def test_readme_synopsis_lists_the_train_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        synopsis = re.search(r"^lightmc train .*?\n\n", readme, re.M | re.S).group(0)
        train = cli.build_parser()._subparsers._group_actions[0].choices["train"]
        flags = {opt for opt in train._option_string_actions if opt.startswith("--")}
        flags.discard("--help")
        assert set(re.findall(r"--[a-z0-9-]+", synopsis)) == flags
        flagless = re.search(r"The keys (.*?) have no flag", readme, re.S).group(1)
        assert tuple(re.findall(r"`(\w+)`", flagless)) == cli._FILE_ONLY
