import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightmc import cli, codebook, data_io, softmax_decoder as sd, synthetic, trainer
from lightmc.errors import (
    EmptyFile,
    InvalidArg,
    ParseError,
    TooFewInstances,
)


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadSparseText:
    def test_basic_line(self, tmp_path):
        path = write(tmp_path, "2 1:0.5 7:-1.25\n3 2:1.0\n2 1:4.0\n")
        data = data_io.load_sparse_text(path)
        assert data.num_rows == 3
        assert data.num_classes == 2
        assert data.label_names == ("2", "3")
        assert np.array_equal(data.labels, np.array([0, 1, 0]))
        idx, vals = data.row(0)
        assert np.array_equal(idx, np.array([0, 6]))
        assert np.array_equal(vals, np.array([0.5, -1.25]))
        assert data.num_features == 7

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write(tmp_path, "# header\n\n1 1:2.0\n\n# mid\n2 1:3.0\n")
        data = data_io.load_sparse_text(path)
        assert data.num_rows == 2

    def test_out_of_order_indices_rejected(self, tmp_path):
        path = write(tmp_path, "1 1:2.0\n1 3:1.0 2:5.0\n")
        with pytest.raises(ParseError) as err:
            data_io.load_sparse_text(path)
        assert err.value.line == 2

    def test_duplicate_index_rejected(self, tmp_path):
        path = write(tmp_path, "1 2:1.0 2:3.0\n")
        with pytest.raises(ParseError):
            data_io.load_sparse_text(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "# only a comment\n")
        with pytest.raises(EmptyFile):
            data_io.load_sparse_text(path)

    def test_malformed_entry(self, tmp_path):
        path = write(tmp_path, "1 1:2.0 oops\n")
        with pytest.raises(ParseError) as err:
            data_io.load_sparse_text(path)
        assert err.value.line == 1

    def test_zero_based_flag(self, tmp_path):
        path = write(tmp_path, "1 0:2.0 4:1.0\n2 1:1.0\n")
        data = data_io.load_sparse_text(path, zero_based=True)
        idx, _ = data.row(0)
        assert np.array_equal(idx, np.array([0, 4]))
        assert data.num_features == 5

    def test_one_based_rejects_index_zero(self, tmp_path):
        path = write(tmp_path, "1 0:2.0\n")
        with pytest.raises(ParseError):
            data_io.load_sparse_text(path)

    def test_index_beyond_32_bits_rejected(self, tmp_path):
        top = data_io.MAX_FEATURE_INDEX
        widest = data_io.load_sparse_text(write(tmp_path, f"1 {top}:2.0\n"))
        assert widest.num_features == top
        path = write(tmp_path, f"1 1:1.0\n1 {top + 1}:2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            data_io.load_sparse_text(path)

    def test_num_features_floor_and_ceiling(self, tmp_path):
        path = write(tmp_path, "1 1:2.0\n2 2:1.0\n")
        data = data_io.load_sparse_text(path, num_features=10)
        assert data.num_features == 10
        with pytest.raises(ParseError):
            data_io.load_sparse_text(path, num_features=1)
        for bad in (-1, 2.5, "5"):
            with pytest.raises(InvalidArg, match="^num_features must be an integer >= 0"):
                data_io.load_sparse_text(path, num_features=bad)

    def test_frozen_label_mapping(self, tmp_path):
        path = write(tmp_path, "b 1:1.0\na 1:2.0\n")
        data = data_io.load_sparse_text(path, label_names=("a", "b"))
        assert np.array_equal(data.labels, np.array([1, 0]))
        unknown = write(tmp_path, "c 1:1.0\n", name="other.txt")
        with pytest.raises(ParseError):
            data_io.load_sparse_text(unknown, label_names=("a", "b"))

    def test_row_order_preserved(self, tmp_path):
        lines = "".join(f"{k % 3} 1:{float(k)}\n" for k in range(9))
        data = data_io.load_sparse_text(write(tmp_path, lines))
        for k in range(9):
            _, vals = data.row(k)
            assert vals[0] == float(k)


class TestBlocks:
    """The loader converts blocks of lines at once; a bad block is read again
    line by line, so its errors name the same line as a per-line parser."""

    @pytest.mark.parametrize("line", ["1 5 1:2:3", "1 1 2:3:4"])
    def test_two_colons_balancing_a_bare_token_is_a_parse_error(self, tmp_path, line):
        # a bare token and one with two colons hold as many colons as two
        # good entries; the second line's pieces would even read as 1:2 3:4
        with pytest.raises(ParseError, match="malformed feature entry") as caught:
            data_io.load_sparse_text(write(tmp_path, f"a 1:1.0\n{line}\n"))
        assert caught.value.line == 2

    def test_label_only_first_line(self, tmp_path):
        data = data_io.load_sparse_text(write(tmp_path, "a\nb 1:1.0 3:2.0\na 2:0.5\n"))
        assert data.indptr.tolist() == [0, 0, 2, 3]
        assert data.indices.tolist() == [0, 2, 1]
        # no row starts at the first entry, so no exemption wraps to the last one
        with pytest.raises(ParseError, match="strictly increasing") as caught:
            data_io.load_sparse_text(write(tmp_path, "a\nb 1:1.0 3:2.0 2:0.5\n"))
        assert caught.value.line == 2

    def test_unknown_label_in_a_later_block_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_io, "BLOCK_LINES", 2)
        path = write(tmp_path, "a 1:1.0\nb 1:1.0\na 2:1.0\nc 1:1.0\nb 1:1.0\n")
        with pytest.raises(ParseError, match="unknown label 'c'") as caught:
            data_io.load_sparse_text(path, label_names=("a", "b"))
        assert caught.value.line == 4

    def test_index_beyond_64_bits_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="outside") as caught:
            data_io.load_sparse_text(write(tmp_path, f"1 1:1.0\n1 {2**63}:2.0\n"))
        assert caught.value.line == 2

    def test_round_trip_over_several_blocks_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(1300, 40)) * 10.0 ** rng.integers(-300, 300, (1300, 40))
        dense[rng.random(dense.shape) < 0.8] = 0.0
        data = data_io.from_dense(dense, rng.integers(0, 5, size=1300))
        assert data.num_rows > 2 * data_io.BLOCK_LINES
        path = tmp_path / "out.txt"
        data_io.save_sparse_text(data, path)
        again = data_io.load_sparse_text(path)
        assert np.array_equal(again.indptr, data.indptr)
        assert np.array_equal(again.indices, data.indices)
        assert again.values.tobytes() == data.values.tobytes()
        names = [data.label_names[k] for k in data.labels]
        assert [again.label_names[k] for k in again.labels] == names


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        dense = rng.normal(size=(20, 6))
        dense[rng.random((20, 6)) < 0.5] = 0.0
        labels = rng.integers(0, 3, size=20)
        labels[:3] = [0, 1, 2]
        data = data_io.from_dense(dense, labels)
        path = tmp_path / "out.txt"
        data_io.save_sparse_text(data, path)
        again = data_io.load_sparse_text(path, label_names=data.label_names)
        assert np.array_equal(data.labels, again.labels)
        assert np.array_equal(data.indptr, again.indptr)
        assert np.array_equal(data.indices, again.indices)
        assert np.array_equal(data.values, again.values)

    def test_label_map_round_trip(self, tmp_path):
        names = ("cat", "kitty", "dog")
        path = tmp_path / "labels.map"
        data_io.save_label_map(names, path)
        assert data_io.load_label_map(path) == names
        assert path.read_text().splitlines()[0] == "cat\t0"

    @pytest.mark.parametrize("name", ["", "#b", "c d", "a\tb", "x\n", "\u3000"])
    def test_names_the_text_formats_cannot_hold_are_rejected(self, name):
        with pytest.raises(InvalidArg, match="label name"):
            data_io.from_dense(np.eye(3), np.arange(3), label_names=("a", name, "c"))


class TestBundleReaders:
    @pytest.mark.parametrize(
        "text, line",
        [
            ("a\tx\n", 1),
            ("a b\t0\n", 1),
            ("#a\t0\n", 1),
            ("\u3000\t0\n", 1),
            ("a\t0\t1\n", 1),
            ("a\t0\nb\t2\n", 2),
            ("a\t0\na\t1\n", 2),
            ("a\t0\n\nb\t1\n", 2),
        ],
    )
    def test_bad_label_map_names_file_and_line(self, tmp_path, text, line):
        path = write(tmp_path, text, "labels.map")
        with pytest.raises(ParseError) as info:
            data_io.load_label_map(path)
        assert info.value.line == line and str(path) in str(info.value)

    def test_settings_skip_comments_and_blank_lines(self, tmp_path):
        keys = {"a": "a", "b": "b", "B": "b"}
        path = write(tmp_path, "# note\n\n a = 1 \nB=x=y\n", "settings.txt")
        rows = list(data_io.read_settings(path, keys))
        assert rows == [(3, "a", "1"), (4, "b", "x=y")]
        for text in ("a=1\njunk\n", "a=1\nc=2\n", "b=1\nB=2\n", "a=1\na=1\n"):
            path = write(tmp_path, text, "settings.txt")
            with pytest.raises(ParseError) as info:
                list(data_io.read_settings(path, keys))
            assert info.value.line == 2 and str(path) in str(info.value)

    def test_float_row_round_trip_is_bitwise(self):
        row = np.array([0.0, -0.0, 5e-324, -1e308, 0.1, 1 / 3])
        text = data_io.format_floats(row)
        assert text == "0.0 -0.0 5e-324 -1e+308 0.1 0.3333333333333333"
        again = data_io.parse_floats("f.txt", 1, text.split(), row.size)
        assert again.tobytes() == row.tobytes()

    @pytest.mark.parametrize(
        "token",
        ["1_0", "1__0", "_1", "0x10", "1e", "", "infinity", "+nan", "-0", "1e999",
         "\u0661\u0662", " 2.5 ", "5e-324", "0.1"],
    )
    def test_parse_floats_reads_a_token_as_float_does(self, token):
        # a token float() reads to a finite value is that value, bit for bit;
        # any other token, non-finite ones too, is a ParseError
        try:
            expected = float(token)
        except ValueError:
            expected = math.nan
        if math.isfinite(expected):
            got = data_io.parse_floats("f.txt", 3, ["1", token], 2)
            assert got.tobytes() == np.array([1.0, expected]).tobytes()
        else:
            with pytest.raises(ParseError) as info:
                data_io.parse_floats("f.txt", 3, ["1", token], 2)
            assert str(info.value) == "line 3: f.txt: expected 2 finite numbers"

    @pytest.mark.parametrize(
        "tokens, count",
        [(["1", "nan"], 2), (["-inf"], 1), (["1"], 2), (["1", "2"], 1), (["x"], 1)],
    )
    def test_parse_floats_names_file_and_line(self, tokens, count):
        with pytest.raises(ParseError) as info:
            data_io.parse_floats("f.txt", 7, tokens, count)
        assert info.value.line == 7 and "f.txt" in str(info.value)

    @pytest.mark.parametrize(
        "text", ["lightmc-decoder v1 -1 4\n", "lightmc-decoder v1 0 4\n\n"]
    )
    def test_decoder_without_classes_is_a_parse_error(self, tmp_path, text):
        with pytest.raises(ParseError, match="header"):
            sd.load_params(write(tmp_path, text, "decoder.txt"))

    @pytest.mark.parametrize("kind", ["codebook", "decoder"])
    def test_float_row_files_match_their_headers(self, tmp_path, kind):
        path = tmp_path / f"{kind}.txt"
        if kind == "codebook":
            codebook.save_matrix(codebook.init_random(4, 5, seed=1), path)
            load = codebook.load_matrix
        else:
            sd.save_params(sd.init_from_matrix(codebook.init_random(4, 5, seed=1)), path)
            load = sd.load_params
        lines = path.read_text().splitlines()
        for i in range(1, len(lines)):
            for text in ("nan", "inf", "x", None):  # None drops the row's last number
                fields = lines[i].split()
                if text is None:
                    fields.pop()
                else:
                    fields[0] = text
                path.write_text("\n".join(lines[:i] + [" ".join(fields)] + lines[i + 1:]))
                with pytest.raises(ParseError) as info:
                    load(path)
                assert info.value.line == i + 1 and str(path) in str(info.value)
        for body in (lines + lines[-1:], lines[:-1]):
            path.write_text("\n".join(body) + "\n")
            with pytest.raises(ParseError, match="header"):
                load(path)


# every finite double may be stored: signed zeros, subnormals and extremes too
stored_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
label_tokens = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
    min_size=1,
    max_size=5,
).filter(lambda s: s.split() == [s] and not s.startswith("#"))


@st.composite
def sparse_datasets(draw):
    names = draw(st.lists(label_tokens, min_size=1, max_size=4, unique=True))
    row = st.tuples(
        st.integers(0, len(names) - 1),
        st.dictionaries(st.integers(0, 40), stored_values, max_size=6),
    )
    rows = draw(st.lists(row, min_size=1, max_size=12))
    return data_io.SparseDataset(
        indptr=np.cumsum([0] + [len(entries) for _, entries in rows]),
        indices=[j for _, entries in rows for j in sorted(entries)],
        values=[entries[j] for _, entries in rows for j in sorted(entries)],
        labels=[label for label, _ in rows],
        num_features=41,
        num_classes=len(names),
        label_names=tuple(names),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=sparse_datasets(), zero_based=st.booleans())
def test_text_round_trip_is_bitwise(data, zero_based):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        data_io.save_sparse_text(data, path, zero_based=zero_based)
        again = data_io.load_sparse_text(path, zero_based=zero_based)
    assert np.array_equal(again.indptr, data.indptr)
    assert np.array_equal(again.indices, data.indices)
    assert again.values.tobytes() == data.values.tobytes()
    names = [data.label_names[k] for k in data.labels]
    assert [again.label_names[k] for k in again.labels] == names


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.text("ab \n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028", max_size=40),
       pad=st.sampled_from([0, 8191, 8192]))
def test_read_lines_splits_as_the_whole_text_does(text, pad):
    # the line-at-a-time reader against the whole-text form it replaced; a
    # pad puts the first separator at the file reader's 8192-byte chunk edge
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.txt"
        path.write_text("x" * pad + text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            assert data_io.read_lines(path, "utf-8") == fh.read().splitlines()


class TestStratifiedSplit:
    def _uniform(self, per_class=100, num_classes=4, seed=0):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(per_class * num_classes, 5))
        labels = np.repeat(np.arange(num_classes), per_class)
        return data_io.from_dense(dense, labels)

    def test_exact_per_class_fractions(self):
        data = self._uniform()
        train, valid = data_io.stratified_split(data, 0.2, seed=1)
        assert train.num_rows == 320
        assert valid.num_rows == 80
        for k in range(4):
            assert int((train.labels == k).sum()) == 80
            assert int((valid.labels == k).sum()) == 20

    def test_union_and_disjointness(self):
        data = self._uniform(per_class=30)
        train, valid = data_io.stratified_split(data, 0.25, seed=3)
        # every original row appears exactly once across the two sides
        def row_keys(d):
            return sorted(
                (d.labels[i], d.row(i)[1].tobytes()) for i in range(d.num_rows)
            )

        combined = row_keys(train) + row_keys(valid)
        assert sorted(combined) == row_keys(data)
        assert train.num_rows + valid.num_rows == data.num_rows

    def test_seed_determinism(self):
        data = self._uniform()
        a_train, a_valid = data_io.stratified_split(data, 0.2, seed=7)
        b_train, b_valid = data_io.stratified_split(data, 0.2, seed=7)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_valid.values, b_valid.values)

    def test_every_class_in_train(self):
        rng = np.random.default_rng(5)
        dense = rng.normal(size=(8, 3))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        data = data_io.from_dense(dense, labels)
        train, _ = data_io.stratified_split(data, 0.5, seed=0)
        assert set(train.labels.tolist()) == {0, 1, 2, 3}

    def test_too_few_instances(self):
        dense = np.ones((4, 2))
        labels = np.array([0, 0, 1, 2])
        data = data_io.from_dense(dense, labels)
        with pytest.raises(TooFewInstances):
            data_io.stratified_split(data, 0.5, seed=0)

    def test_bad_fraction(self):
        data = self._uniform(per_class=10)
        with pytest.raises(InvalidArg):
            data_io.stratified_split(data, 1.5, seed=0)
        rule = "^valid_fraction must be a finite number > 0 and < 1,"
        for fraction in (0.0, 1.0, "0.2", float("nan")):
            with pytest.raises(InvalidArg, match=rule):
                data_io.stratified_split(data, fraction, seed=0)
        for seed in (-1, 0.5):
            with pytest.raises(InvalidArg, match="^seed must be an integer >= 0"):
                data_io.stratified_split(data, 0.2, seed=seed)


class TestPairedBlobs:
    def test_bad_sizes(self):
        for args, name in [
            ((1,), "num_pairs"),
            ((2.5,), "num_pairs"),
            ((2, 0), "train_per_class"),
            ((2, "5"), "train_per_class"),
            ((2, 5, 0), "test_per_class"),
            ((2, 5, 2.0), "test_per_class"),
            ((2, 5, 2, 0), "num_features"),
            ((2, 5, 2, None), "num_features"),
            ((2, 5, 2, 3, -1), "seed"),
            ((2, 5, 2, 3, "0"), "seed"),
        ]:
            with pytest.raises(InvalidArg, match=f"^{name} must be an integer"):
                synthetic.make_paired_blobs(*args)


class TestSparseDatasetViews:
    def test_columns_view_consistent(self):
        rng = np.random.default_rng(13)
        dense = rng.normal(size=(10, 4))
        dense[rng.random((10, 4)) < 0.5] = 0.0
        labels = rng.integers(0, 3, size=10)
        labels[:3] = [0, 1, 2]
        data = data_io.from_dense(dense, labels)
        col_indptr, col_rows, col_vals = data.columns
        rebuilt = np.zeros((10, 4))
        for f in range(4):
            lo, hi = col_indptr[f], col_indptr[f + 1]
            rebuilt[col_rows[lo:hi], f] = col_vals[lo:hi]
        np.testing.assert_array_equal(rebuilt, dense)

    def test_sorted_entries_is_feature_value_sorted(self):
        rng = np.random.default_rng(17)
        dense = rng.normal(size=(15, 6))
        dense[rng.random((15, 6)) < 0.3] = 0.0
        labels = rng.integers(0, 3, size=15)
        labels[:3] = [0, 1, 2]
        data = data_io.from_dense(dense, labels)
        sf, sv, srow = data.sorted_entries
        order = np.lexsort((sv, sf))
        assert np.array_equal(order, np.arange(sf.shape[0]))
        for f, v, r in zip(sf[:20], sv[:20], srow[:20]):
            assert dense[r, f] == v


def _table_loader(header, types):
    return lambda path: data_io.read_csv(path, header, types)


# file kind -> (header, loader, one good row)
CSV_KINDS = {
    "history": (trainer.HISTORY_HEADER, trainer.load_history, (3, 0.5, 1.25, 0.1)),
    "compare": (
        cli.COMPARE_HEADER,
        _table_loader(cli.COMPARE_HEADER, (str, int, float, float)),
        ("ova", 2, 0.75, 0.5),
    ),
    "distances": (
        cli.DISTANCES_HEADER,
        _table_loader(cli.DISTANCES_HEADER, (int, int, int, float)),
        (4, 0, 1, 12.5),
    ),
}
BAD_ROWS = {
    "non_numeric": lambda good: "x," * (len(good) - 1) + "x",
    "short": lambda good: ",".join(map(str, good[:-1])),
    "long": lambda good: ",".join(map(str, good + good[-1:])),
    "blank": lambda good: "",
    "undecodable": lambda good: "\udcff",
}


class TestCsv:
    @pytest.mark.parametrize("bad", sorted(BAD_ROWS))
    @pytest.mark.parametrize("kind", sorted(CSV_KINDS))
    def test_bad_row_is_a_parse_error(self, kind, bad, tmp_path):
        header, load, good = CSV_KINDS[kind]
        path = tmp_path / f"{kind}.csv"
        data_io.write_csv(path, header, [good])
        assert load(path) == [good]
        text = path.read_text() + BAD_ROWS[bad](good) + "\n"
        path.write_bytes(text.encode("ascii", "surrogateescape"))
        with pytest.raises(ParseError):
            load(path)

    @pytest.mark.parametrize("kind", sorted(CSV_KINDS))
    def test_bad_header_is_a_parse_error(self, kind, tmp_path):
        header, load, _ = CSV_KINDS[kind]
        path = tmp_path / f"{kind}.csv"
        path.write_text(",".join(reversed(header)) + "\n")
        with pytest.raises(ParseError):
            load(path)
