import numpy as np
import pytest

from lightmc import codebook
from lightmc.codebook import CodingMatrix
from lightmc.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InfeasibleCode,
    InvalidArg,
    ParseError,
)


class TestCodingMatrix:
    def test_rejects_small_dims(self):
        with pytest.raises(InvalidArg):
            CodingMatrix(np.ones((2, 4)))
        with pytest.raises(InvalidArg):
            CodingMatrix(np.ones((3, 0)))

    def test_rejects_non_finite(self):
        m = np.ones((3, 3))
        m[1, 1] = np.nan
        with pytest.raises(InvalidArg):
            CodingMatrix(m)

    def test_entries_are_immutable(self):
        m = codebook.init_random(4, 4, seed=0)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_row_bounds(self):
        m = codebook.init_random(4, 4, seed=0)
        for k in (4, -1, 1.5, "0"):
            with pytest.raises(IndexOutOfRange, match="^k must be an integer >= 0 and < 4"):
                m.row(k)


class TestInitRandom:
    def test_basic_validity(self):
        m = codebook.init_random(3, 3, seed=7)
        assert m.entries.shape == (3, 3)
        assert codebook.is_valid_binary(m)

    def test_infeasible_by_pigeonhole(self):
        # 2^(L-1) = 2 <= 4 classes
        with pytest.raises(InfeasibleCode):
            codebook.init_random(4, 2, seed=0)

    def test_bad_dimensions(self):
        for args, name in [
            ((2, 3, 0), "num_classes"),
            ((4.0, 5, 0), "num_classes"),
            ((5, 0, 0), "code_length"),
            ((4, 4.5, 0), "code_length"),
            ((4, 5, -1), "seed"),
            ((4, 5, "0"), "seed"),
        ]:
            with pytest.raises(InvalidArg, match=f"^{name} must be an integer"):
                codebook.init_random(*args)

    def test_twenty_class_code_length(self):
        length = codebook.suggested_code_length(20)
        m = codebook.init_random(20, length, seed=1)
        assert m.entries.shape == (20, 10)
        assert codebook.is_valid_binary(m)

    def test_seed_determinism(self):
        a = codebook.init_random(8, 6, seed=42)
        b = codebook.init_random(8, 6, seed=42)
        assert np.array_equal(a.entries, b.entries)

    def test_different_seeds_differ(self):
        mats = [codebook.init_random(10, 8, seed=s).entries for s in range(8)]
        distinct = {m.tobytes() for m in mats}
        assert len(distinct) >= 7

    def test_validity_across_random_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(3, 13))
            l_min = codebook.min_feasible_code_length(k)
            length = int(rng.integers(l_min, 11))
            m = codebook.init_random(k, length, seed=int(rng.integers(1 << 30)))
            assert codebook.is_valid_binary(m)
            # minimum pairwise Hamming distance >= 1 (distinct rows)
            for a in range(k):
                for b in range(a + 1, k):
                    assert codebook.codeword_distance(m, a, b) >= 4.0


class TestSuggestedCodeLength:
    def test_known_values(self):
        assert codebook.suggested_code_length(20) == 10
        assert codebook.suggested_code_length(1000) == 51
        assert codebook.suggested_code_length(3) == 2

    def test_matches_formula_oracle(self):
        # reference: evaluate the rule directly with Python round (ties to even)
        import math

        for k in (3, 5, 7, 16, 50, 128, 999, 4096):
            raw = min(5 * math.log2(k - 1) + 1, k / 2)
            assert codebook.suggested_code_length(k) == max(1, round(raw))

    def test_too_few_classes(self):
        for k in (2, 20.5, "20"):
            with pytest.raises(InvalidArg, match="^num_classes must be an integer >= 3"):
                codebook.suggested_code_length(k)


class TestHammingDecode:
    def test_three_class_example(self):
        # rows: cat, kitty, dog; distances to (0.2, 0.9, -0.4) are 1, 0, 2
        m = CodingMatrix(np.array([[1, 1, 1], [1, 1, -1], [-1, -1, -1.0]]))
        assert codebook.hamming_decode(m, np.array([0.2, 0.9, -0.4])) == 1

    def test_exact_codeword_wins(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = codebook.init_random(6, 6, seed=int(rng.integers(1 << 30)))
            k = int(rng.integers(6))
            assert codebook.hamming_decode(m, m.entries[k]) == k

    def test_tie_breaks_to_lowest_index(self):
        m = CodingMatrix(np.array([[1, 1], [-1, -1], [-1, 1.0]]))
        # o = (1, -1): rows 0 and 1 both at distance 1, row 2 at distance 2
        assert codebook.hamming_decode(m, np.array([1.0, -1.0])) == 0

    def test_sign_of_zero_is_positive(self):
        m = CodingMatrix(np.array([[1, 1], [-1, 1], [-1, -1.0]]))
        assert codebook.hamming_decode(m, np.array([0.0, 1.0])) == 0

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        m = codebook.init_random(7, 6, seed=5)
        for _ in range(40):
            o = rng.normal(size=6)
            for scale in (0.01, 3.0, 1e6):
                assert codebook.hamming_decode(m, o) == codebook.hamming_decode(
                    m, scale * o
                )

    def test_dimension_mismatch(self):
        m = codebook.init_random(4, 4, seed=0)
        with pytest.raises(DimensionMismatch):
            codebook.hamming_decode(m, np.ones(3))


class TestCodewordDistance:
    def test_identical_rows(self):
        m = CodingMatrix(np.array([[1, 1], [1, 1], [-1, 1.0]]))
        assert codebook.codeword_distance(m, 0, 1) == 0.0

    def test_binary_rows_give_four_per_flip(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m = codebook.init_random(8, 8, seed=int(rng.integers(1 << 30)))
            a, b = rng.choice(8, size=2, replace=False)
            flips = int(np.sum(m.entries[a] != m.entries[b]))
            assert codebook.codeword_distance(m, int(a), int(b)) == 4.0 * flips

    def test_out_of_range(self):
        m = codebook.init_random(4, 4, seed=0)
        for pair, name in [
            ((0, 4), "class_b"), ((-1, 0), "class_a"), (("0", 1), "class_a"), ((0, 1.0), "class_b"),
        ]:
            with pytest.raises(IndexOutOfRange, match=f"^{name} must be an integer >= 0 and < 4"):
                codebook.codeword_distance(m, *pair)


class TestSerialization:
    def test_round_trip_binary(self, tmp_path):
        m = codebook.init_random(9, 7, seed=13)
        path = tmp_path / "code.txt"
        codebook.save_matrix(m, path)
        again = codebook.load_matrix(path)
        assert np.array_equal(m.entries, again.entries)

    def test_round_trip_continuous_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        m = CodingMatrix(rng.normal(size=(5, 4)) * 1e3)
        path = tmp_path / "code.txt"
        codebook.save_matrix(m, path)
        again = codebook.load_matrix(path)
        assert np.array_equal(m.entries, again.entries)

    def test_header_format(self, tmp_path):
        m = codebook.init_random(4, 5, seed=2)
        path = tmp_path / "code.txt"
        codebook.save_matrix(m, path)
        assert path.read_text().splitlines()[0] == "lightmc-codebook v1 4 5"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a codebook\n")
        with pytest.raises(ParseError):
            codebook.load_matrix(path)
