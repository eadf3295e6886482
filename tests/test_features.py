import re

import numpy as np
import pytest

from hubsel import table
from hubsel.features import (
    FeatureFormatError,
    FeatureMatrix,
    fuse,
    l2_normalize,
    load_features,
    save_features,
)
from helpers import random_matrix, write_fbin


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestCsv:
    def test_two_rows(self, tmp_path):
        p = write(tmp_path / "a.csv", "a,1.0,2.0\nb,3.0,4.0\n")
        m = load_features(p)
        assert m.ids == ["a", "b"]
        assert m.values.shape == (2, 2)
        assert np.array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_duplicate_id_names_row(self, tmp_path):
        p = write(tmp_path / "a.csv", "a,1.0\nb,2.0\na,3.0\n")
        with pytest.raises(FeatureFormatError, match=r"row 3.*duplicate id 'a'"):
            load_features(p)

    def test_wrong_arity_names_row(self, tmp_path):
        p = write(tmp_path / "a.csv", "a,1.0,2.0\nb,3.0\n")
        with pytest.raises(FeatureFormatError, match=r"row 2.*expected 2 values"):
            load_features(p)

    def test_non_finite_names_row(self, tmp_path):
        p = write(tmp_path / "a.csv", "a,1.0\nb,inf\n")
        with pytest.raises(FeatureFormatError, match=r"row 2.*non-finite"):
            load_features(p)

    def test_bad_token_names_row(self, tmp_path):
        p = write(tmp_path / "a.csv", "a,1.0\nb,oops\n")
        with pytest.raises(FeatureFormatError, match=r"row 2.*'oops'"):
            load_features(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "a.csv", "")
        with pytest.raises(FeatureFormatError, match=": empty feature file$"):
            load_features(p)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_features(tmp_path / "nope.csv")

    def test_round_trip(self, tmp_path):
        m = random_matrix(np.random.default_rng(0), 7, 5)
        save_features(m, tmp_path / "m.csv")
        back = load_features(tmp_path / "m.csv")
        assert back.ids == m.ids
        assert np.array_equal(back.values, m.values)


def test_read_rows_parses_each_row_and_names_its_fault(tmp_path):
    p = write(tmp_path / "t.csv", "id,n\na,1\n\nb,2\nc,x\n")
    rows = table.read_rows(p, 2, "id,n", parse=lambda r: (r[0], int(r[1])))
    assert next(rows) == (2, ("a", 1))
    assert next(rows) == (4, ("b", 2))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: row 5: invalid literal"):
        next(rows)


class TestFbin:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((9, 4)).astype(np.float32).astype(np.float64)
        m = FeatureMatrix(ids=[f"id{i}" for i in range(9)], values=vals)
        save_features(m, tmp_path / "m.fbin")
        back = load_features(tmp_path / "m.fbin")
        assert back.ids == m.ids
        assert np.array_equal(back.values, m.values)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.fbin"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FeatureFormatError, match=": bad magic "):
            load_features(p)

    def test_truncated_values(self, tmp_path):
        m = FeatureMatrix(ids=["a", "b"], values=np.ones((2, 3)))
        save_features(m, tmp_path / "m.fbin")
        raw = (tmp_path / "m.fbin").read_bytes()
        (tmp_path / "cut.fbin").write_bytes(raw[:16])
        with pytest.raises(FeatureFormatError, match=": truncated value block "):
            load_features(tmp_path / "cut.fbin")

    def test_trailing_bytes(self, tmp_path):
        m = FeatureMatrix(ids=["a"], values=np.ones((1, 2)))
        save_features(m, tmp_path / "m.fbin")
        raw = (tmp_path / "m.fbin").read_bytes()
        (tmp_path / "pad.fbin").write_bytes(raw + b"\x00")
        with pytest.raises(FeatureFormatError, match=": 1 trailing byte"):
            load_features(tmp_path / "pad.fbin")

    def test_id_with_comma_rejected(self, tmp_path):
        p = write_fbin(tmp_path / "m.fbin", ["x", "a,b"], np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"row 2: id 'a,b'"):
            load_features(p)

    def test_empty_file(self, tmp_path):
        (tmp_path / "m.fbin").write_bytes(b"")
        with pytest.raises(FeatureFormatError, match=": empty feature file$"):
            load_features(tmp_path / "m.fbin")


class TestMatrixValidation:
    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match=r"^row 2: duplicate id 'a'$"):
            FeatureMatrix(ids=["a", "a"], values=np.ones((2, 2)))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureMatrix(ids=["a"], values=np.array([[np.nan, 1.0]]))

    def test_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            FeatureMatrix(ids=["a"], values=np.ones(3))

    @pytest.mark.parametrize("ident", ["a,b", "a\rb", "a\nb", "a\x00"])
    def test_id_outside_table_dialect(self, ident):
        with pytest.raises(ValueError, match=r"row 2: id .* contains"):
            FeatureMatrix(ids=["x", ident], values=np.ones((2, 2)))

    def test_id_count(self):
        with pytest.raises(ValueError, match="ids"):
            FeatureMatrix(ids=["a"], values=np.ones((2, 2)))


class TestNormalize:
    def test_three_four_five(self):
        m = FeatureMatrix(ids=["a"], values=np.array([[3.0, 4.0]]))
        out = l2_normalize(m)
        assert np.allclose(out.values, [[0.6, 0.8]], atol=1e-12, rtol=0)

    def test_zero_row_flagged_and_preserved(self):
        m = FeatureMatrix(ids=["a", "b"], values=np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.warns(UserWarning, match=r"\[0\]"):
            out = l2_normalize(m)
        assert np.array_equal(out.values[0], [0.0, 0.0])
        assert np.isclose(np.linalg.norm(out.values[1]), 1.0)

    def test_random_norms(self):
        m = random_matrix(np.random.default_rng(2), 50, 8)
        out = l2_normalize(m)
        assert np.allclose(np.linalg.norm(out.values, axis=1), 1.0, atol=1e-12, rtol=0)


class TestFuse:
    def test_two_single_row_matrices(self):
        a = FeatureMatrix(ids=["x"], values=np.array([[3.0, 4.0]]))
        b = FeatureMatrix(ids=["x"], values=np.array([[1.0, 0.0]]))
        out = fuse([a, b])
        assert out.d == 4
        assert np.allclose(out.values, [[0.6, 0.8, 1.0, 0.0]], atol=1e-12, rtol=0)

    def test_single_input_equals_normalize(self):
        m = random_matrix(np.random.default_rng(3), 6, 4)
        assert np.array_equal(fuse([m]).values, l2_normalize(m).values)

    def test_three_modalities_dims_and_block_norms(self):
        rng = np.random.default_rng(4)
        mats = [random_matrix(rng, 5, d) for d in (4, 2, 3)]
        out = fuse(mats)
        assert out.d == 9
        for lo, hi in ((0, 4), (4, 6), (6, 9)):
            norms = np.linalg.norm(out.values[:, lo:hi], axis=1)
            assert np.allclose(norms, 1.0, atol=1e-12, rtol=0)

    def test_id_mismatch_names_row(self):
        a = FeatureMatrix(ids=["x", "y"], values=np.ones((2, 2)))
        b = FeatureMatrix(ids=["x", "z"], values=np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"row 2: 'y' vs 'z'"):
            fuse([a, b])

    def test_row_count_mismatch(self):
        a = FeatureMatrix(ids=["x"], values=np.ones((1, 2)))
        b = FeatureMatrix(ids=["x", "y"], values=np.ones((2, 2)))
        with pytest.raises(ValueError, match="mismatch"):
            fuse([a, b])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            fuse([])
