"""Property tests: corrupt bundle and data files end in a LightMCError.

Each example takes one saved file (a file of a trees bundle, of a linear
bundle, or a data file), applies one byte substitution, insertion or
truncation to it, and loads it the way `lightmc evaluate` does; or it
writes arbitrary bytes as a data file. The loaders may accept the file or
raise a LightMCError; any other exception fails. Last, the data loader's
bulk conversion of blocks of lines must agree with its per-line parser.
"""

import contextlib
import shutil
import tempfile
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lightmc import data_io, synthetic, trainer
from lightmc.errors import LightMCError
from lightmc.learners import LINEAR_SGD, LearnerSpec
from lightmc.trainer import TrainConfig

BUNDLE_FILES = (
    "codebook.txt",
    "decoder.txt",
    "ensemble.txt",
    "history.csv",
    "labels.map",
    "meta.txt",
)
FUZZ = settings(
    max_examples=150, deadline=timedelta(seconds=5), derandomize=True, database=None
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A trees bundle, a linear bundle and the data file both were fitted on."""
    root = tmp_path_factory.mktemp("fuzz")
    train, valid, _ = synthetic.make_paired_blobs(
        num_pairs=2, train_per_class=15, test_per_class=5, num_features=4, seed=6
    )
    learners = {
        "trees": LearnerSpec(learning_rate=0.5, max_leaves=4),
        "linear": LearnerSpec(kind=LINEAR_SGD, learning_rate=0.01),
    }
    for name, learner in learners.items():
        config = TrainConfig(
            code_length=4, max_rounds=3, start_round=2, learner=learner,
            early_stop_rounds=0, seed=2,
        )
        trainer.save_model(trainer.fit(train, valid, config), root / name)
    data_io.save_sparse_text(train, root / "data.txt")
    return root


mutations = st.tuples(
    st.sampled_from(("substitute", "insert", "truncate")),
    st.integers(min_value=0),
    st.binary(min_size=1, max_size=8),
)


def mutate(path: Path, mutation) -> None:
    op, at, chunk = mutation
    raw = path.read_bytes()
    at %= len(raw) + 1
    if op == "substitute":
        raw = raw[:at] + chunk + raw[at + len(chunk):]
    elif op == "insert":
        raw = raw[:at] + chunk + raw[at:]
    else:
        raw = raw[:at]
    path.write_bytes(raw)


def evaluate(bundle: Path, data_path: Path) -> None:
    """Load a bundle and a data file and predict, as `lightmc evaluate` does."""
    with contextlib.suppress(LightMCError):
        model = trainer.load_model(bundle)
        data = data_io.load_sparse_text(
            data_path, label_names=model.label_names, num_features=model.num_features
        )
        trainer.predict(model, data)


@FUZZ
@given(
    bundle=st.sampled_from(("trees", "linear")),
    name=st.sampled_from(BUNDLE_FILES),
    mutation=mutations,
)
def test_corrupt_bundle_file(saved, bundle, name, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / bundle
        shutil.copytree(saved / bundle, copy)
        mutate(copy / name, mutation)
        evaluate(copy, saved / "data.txt")


@FUZZ
@given(bundle=st.sampled_from(("trees", "linear")), mutation=mutations)
def test_corrupt_data_file(saved, bundle, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        data_path = Path(tmp) / "data.txt"
        shutil.copyfile(saved / "data.txt", data_path)
        mutate(data_path, mutation)
        with contextlib.suppress(LightMCError):
            data_io.load_sparse_text(data_path)
        evaluate(saved / bundle, data_path)


# arbitrary bytes, and text over the data format's own characters, which
# reaches past the decoder and the label token more often
data_bytes = st.one_of(
    st.binary(max_size=300),
    st.text(" \t\n\r\x0b\x0c:#.-+_e0123456789abfinxAN", max_size=300).map(str.encode),
)


@FUZZ
@given(raw=data_bytes, zero_based=st.booleans())
def test_arbitrary_bytes_data_file(raw, zero_based):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        path.write_bytes(raw)
        try:
            data = data_io.load_sparse_text(path, zero_based=zero_based)
        except LightMCError:
            return
    assert isinstance(data, data_io.SparseDataset) and data.num_rows >= 1


# sparse text lines: well-formed rows, and rows with one fault that one of
# the loader's checks must catch, at any line of a block
index_text = st.one_of(
    st.integers(-1, 14).map(str),
    st.sampled_from(("1_0", "+3", "", "x", str(2**31), str(2**63), str(-(2**63) - 1))),
)
value_text = st.one_of(
    st.sampled_from(("1_0", "-0.0", "1e400", "-inf", "inf", "nan", "", "1:2", "e")),
    st.floats().map(repr),
)


@st.composite
def text_lines(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(("", " ", "# c", "\r", "#")))
    entries = draw(st.dictionaries(
        st.integers(0, 12), st.floats(allow_nan=False, allow_infinity=False), max_size=5
    ))
    pairs = [[str(j), repr(v)] for j, v in sorted(entries.items())]
    faults = (None, None, None, None, "index", "value", "swap", "colon", "token")
    fault = draw(st.sampled_from(faults))
    if fault in ("index", "value") and pairs:
        pairs[draw(st.integers(0, len(pairs) - 1))][fault == "value"] = draw(
            index_text if fault == "index" else value_text
        )
    tokens = [":".join(pair) for pair in pairs]
    if fault == "swap" and len(tokens) > 1:
        tokens[-2], tokens[-1] = tokens[-1], tokens[-2]
    if fault == "colon" and len(tokens) > 1:  # `i:v j:w` as `i v:j:w`: the same pieces
        k = draw(st.integers(0, len(tokens) - 2))
        tokens[k:k + 2] = pairs[k][0], f"{pairs[k][1]}:{tokens[k + 1]}"
    if fault == "token":
        odd = draw(st.sampled_from(("5", "1:2:3", ":", "::", ":1", "1:")))
        tokens.insert(draw(st.integers(0, len(tokens))), odd)
    label = draw(st.sampled_from(("a", "b", "c", "1")))
    return draw(st.sampled_from((" ", "\t", "  "))).join([label, *tokens])


def outcome(path, **kwargs):
    """The loaded dataset's arrays and names, or its error's class, message and line."""
    try:
        data = data_io.load_sparse_text(path, **kwargs)
    except LightMCError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (
        data.indptr.tolist(),
        data.indices.tolist(),
        data.values.tobytes(),
        data.labels.tolist(),
        data.num_features,
        data.label_names,
    )


@settings(FUZZ, max_examples=500)
@given(
    lines=st.lists(text_lines(), max_size=10),
    block_lines=st.integers(1, 3),
    zero_based=st.booleans(),
    num_features=st.none() | st.integers(0, 14),
    label_names=st.none() | st.just(("a", "b", "1")),
)
def test_block_parser_matches_per_line_parser(lines, block_lines, **kwargs):
    """Blocks of 1-3 lines, so that every check meets the edges of blocks."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        with mock.patch.object(data_io, "BLOCK_LINES", block_lines):
            blocks = outcome(path, **kwargs)
        with mock.patch.object(data_io, "_convert_block", lambda *args: None):
            per_line = outcome(path, **kwargs)
    assert blocks == per_line
