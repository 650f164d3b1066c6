import io

import numpy as np
import pytest

from aggrex.data import (
    Dataset,
    FeatureSchema,
    ParseError,
    SchemaViolation,
    load_dataset,
    standardize,
    synth_multiclass,
    write_dataset,
)

from oracles import inverse_scale, synth_label_fn

SCHEMA_2C1B = FeatureSchema(("a", "b", "flag"), ("continuous", "continuous", "binary"))


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load(path, schema):
    with open(path, newline="", encoding="utf-8") as fh:
        return load_dataset(fh, schema)


class TestLoad:
    def test_three_row_round_trip(self, tmp_path):
        path = write(tmp_path, "a,b,flag,label\n1.5,2.0,0,1\n-0.5,3.25,1,0\n0.0,0.0,0,2\n")
        d = load(path, SCHEMA_2C1B)
        assert d.n == 3 and d.m == 3
        assert d.X[1, 2] == 1.0
        assert list(d.y) == [1, 0, 2]

    def test_text_lines_parse_as_the_file_does(self, tmp_path):
        # a run's dataset_used.csv is parsed from the bytes its digest check read, through StringIO
        text = "a,b,flag,label\r\n1.5,2.0,0,1\r\n-0.5,3.25,1,0\r\n"
        from_file = load(write(tmp_path, text), SCHEMA_2C1B)
        from_text = load_dataset(io.StringIO(text, newline=""), SCHEMA_2C1B)
        assert np.array_equal(from_file.X, from_text.X) and np.array_equal(from_file.y, from_text.y)
        assert from_text.n == 2

    def test_binary_value_two_rejected(self, tmp_path):
        path = write(tmp_path, "a,b,flag,label\n1.0,2.0,2,1\n")
        with pytest.raises(SchemaViolation):
            load(path, SCHEMA_2C1B)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ParseError, match="no data rows"):
            load(path, SCHEMA_2C1B)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a,b,flag,label\n")
        with pytest.raises(ParseError, match="no data rows"):
            load(path, SCHEMA_2C1B)

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "a,b,flag\n1.0,2.0,0\n")
        with pytest.raises(ParseError, match="label"):
            load(path, SCHEMA_2C1B)

    def test_malformed_row_reports_index(self, tmp_path):
        path = write(tmp_path, "a,b,flag,label\n1.0,2.0,0,1\n1.0,oops,0,1\n")
        with pytest.raises(ParseError, match="row 2"):
            load(path, SCHEMA_2C1B)

    def test_missing_value_rejected(self, tmp_path):
        path = write(tmp_path, "a,b,flag,label\n1.0,,0,1\n")
        with pytest.raises(ParseError, match="row 1"):
            load(path, SCHEMA_2C1B)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("a,b,flag,label\n1.0,2.0,0,1\n1.0,nan,0,1\n", "row 2: column 'b' holds nan"),
            ("a,b,flag,label\n1.0,2.0,0,1\n1.0,2.0,0,1\n-inf,2.0,0,1\n", "row 3: column 'a' holds -inf"),
            ("a,label,b,flag\n1.0,1,2.0,inf\n", "row 1: column 'flag' holds inf"),  # after the label column
        ],
        ids=["nan", "minus-inf", "inf-in-a-binary-column"],
    )
    def test_non_finite_value_reports_row_and_column(self, tmp_path, text, match):
        with pytest.raises(ParseError, match=match):
            load(write(tmp_path, text), SCHEMA_2C1B)

    def test_column_count_mismatch(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1.0,2.0,1\n")
        with pytest.raises(ParseError):
            load(path, SCHEMA_2C1B)

    def test_load_write_load_idempotent(self, tmp_path):
        d = synth_multiclass(seed=7, n=40, m_cont=3, m_bin=2, classes=3, relevant=(0, 1))
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        write_dataset(d, p1)
        d1 = load(p1, d.schema)
        write_dataset(d1, p2)
        d2 = load(p2, d.schema)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d.X, d1.X)
        assert np.array_equal(d.y, d1.y)
        assert p1.read_bytes() == p2.read_bytes()


class TestStandardize:
    def test_two_point_symmetry(self):
        schema = FeatureSchema(("a",), ("continuous",))
        d = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]), schema)
        s = standardize(d)
        assert np.allclose(s.X[:, 0], [-1.0, 1.0])

    def test_constant_column_scale_one(self):
        schema = FeatureSchema(("a", "b"), ("continuous", "continuous"))
        d = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.array([0, 1, 0]), schema)
        with pytest.warns(UserWarning, match="constant continuous column a: scale set to 1"):
            s = standardize(d)
        assert np.all(s.X[:, 0] == 0.0)  # (5 - 5) / 1
        assert np.allclose(s.X[:, 1], (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2 / 3))

    def test_binary_untouched(self):
        schema = FeatureSchema(("a", "flag"), ("continuous", "binary"))
        d = Dataset(np.array([[0.0, 0.0], [2.0, 1.0], [4.0, 1.0]]), np.array([0, 1, 1]), schema)
        s = standardize(d)
        assert np.array_equal(s.X[:, 1], [0.0, 1.0, 1.0])

    def test_inverse_recovers_within_1e12(self):
        d = synth_multiclass(seed=3, n=100, m_cont=5, m_bin=3, classes=4, relevant=(0, 5))
        back = inverse_scale(standardize(d), d)
        denom = np.maximum(np.abs(d.X), 1.0)
        assert np.max(np.abs(back.X - d.X) / denom) < 1e-12

    def test_needs_two_rows(self):
        schema = FeatureSchema(("a",), ("continuous",))
        d = Dataset(np.array([[1.0]]), np.array([0]), schema)
        with pytest.raises(ValueError):
            standardize(d)


class TestSynth:
    def test_deterministic(self):
        a = synth_multiclass(seed=1, n=60, m_cont=4, m_bin=4, classes=3, relevant=(0, 4))
        b = synth_multiclass(seed=1, n=60, m_cont=4, m_bin=4, classes=3, relevant=(0, 4))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_labels_ignore_non_relevant(self):
        d = synth_multiclass(seed=2, n=80, m_cont=3, m_bin=1, classes=2, relevant=(1,))
        label = synth_label_fn(d.schema, (1,), 2)
        rng = np.random.default_rng(0)
        for j in (0, 2, 3):
            X = d.X.copy()
            X[:, j] = X[rng.permutation(d.n), j]
            assert all(label(X[i]) == d.y[i] for i in range(d.n))

    def test_all_classes_hit(self):
        # Derived by running the generator: seed 5 with a 3x3x2-cell relevant
        # partition puts every one of the 5 classes in the histogram.
        d = synth_multiclass(seed=5, n=500, m_cont=10, m_bin=10, classes=5, relevant=(0, 1, 10))
        assert set(int(v) for v in d.y) == {0, 1, 2, 3, 4}

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            synth_multiclass(seed=1, n=10, m_cont=2, m_bin=0, classes=2, relevant=())


class TestSchemaInvariants:
    def test_kind_partition(self):
        s = FeatureSchema.mixed(2, 3)
        assert set(s.continuous_idx) | set(s.binary_idx) == set(range(5))
        assert not set(s.continuous_idx) & set(s.binary_idx)

    def test_dataset_rejects_non_binary(self):
        s = FeatureSchema(("f",), ("binary",))
        with pytest.raises(SchemaViolation):
            Dataset(np.array([[0.5]]), np.array([0]), s)

    def test_dataset_rejects_negative_labels(self):
        s = FeatureSchema(("f",), ("continuous",))
        with pytest.raises(SchemaViolation):
            Dataset(np.array([[0.5]]), np.array([-1]), s)
