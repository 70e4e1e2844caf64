import numpy as np
import pytest

from lightmc import cli, data_io, trainer
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
