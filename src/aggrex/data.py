"""Tabular datasets with an explicit continuous/binary feature schema.

Ingestion is CSV-only (header row, a "label" column of integers). Binary
columns must hold {0,1} exactly; missing and non-finite values are
rejected rather than imputed. Continuous columns can be standardized to
zero mean / unit standard deviation, with the per-column (shift, scale)
recorded so the mapping is invertible.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

LABEL_COLUMN = "label"


class SchemaViolation(ValueError):
    """A value or shape contradicts the feature schema."""


class ParseError(ValueError):
    """A data file could not be parsed."""


@dataclass(frozen=True)
class FeatureSchema:
    """Names plus per-feature kind tags partitioning features into continuous and binary."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) != len(self.kinds):
            raise SchemaViolation("names and kinds must have equal length")
        if len(self.names) == 0:
            raise SchemaViolation("schema needs at least one feature")
        bad = [k for k in self.kinds if k not in (CONTINUOUS, BINARY)]
        if bad:
            raise SchemaViolation(f"unknown feature kinds: {bad}")

    @property
    def count(self) -> int:
        return len(self.names)

    @property
    def continuous_idx(self) -> np.ndarray:
        return np.array([i for i, k in enumerate(self.kinds) if k == CONTINUOUS], dtype=int)

    @property
    def binary_idx(self) -> np.ndarray:
        return np.array([i for i, k in enumerate(self.kinds) if k == BINARY], dtype=int)

    @staticmethod
    def mixed(m_cont: int, m_bin: int) -> "FeatureSchema":
        """Schema with m_cont continuous features followed by m_bin binary ones."""
        names = tuple(f"c{i}" for i in range(m_cont)) + tuple(f"b{i}" for i in range(m_bin))
        kinds = (CONTINUOUS,) * m_cont + (BINARY,) * m_bin
        return FeatureSchema(names, kinds)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix + integer labels under a FeatureSchema.

    ``scaler`` holds per-continuous-feature (shift, scale) pairs when the
    dataset has been standardized; None means raw values.
    """

    X: np.ndarray
    y: np.ndarray
    schema: FeatureSchema
    scaler: dict[int, tuple[float, float]] | None = None
    warnings_: tuple[str, ...] = field(default=())

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or X.shape[1] != self.schema.count:
            raise SchemaViolation(
                f"matrix shape {X.shape} does not match schema with {self.schema.count} features"
            )
        if y.shape != (X.shape[0],):
            raise SchemaViolation("labels must be one integer per row")
        if np.any(y < 0):
            raise SchemaViolation("labels must be nonnegative integers")
        for j in self.schema.binary_idx:
            col = X[:, j]
            if not np.all((col == 0.0) | (col == 1.0)):
                raise SchemaViolation(f"binary column {self.schema.names[j]} has values outside {{0,1}}")
        X.setflags(write=False)
        y.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def label_set(self) -> tuple[int, ...]:
        return tuple(sorted(set(int(v) for v in self.y)))


def load_dataset(path, schema: FeatureSchema) -> Dataset:
    """Read a header CSV with one "label" column into a Dataset.

    Rows are kept in file order; no imputation. Raises ParseError with the
    offending 1-based data-row index on malformed rows, on a label that is
    not an int64 integer, and on a NaN or infinite feature value (naming
    its column too), SchemaViolation on binary-column values outside {0,1}.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("no data rows") from None
        header = [h.strip() for h in header]
        if LABEL_COLUMN not in header:
            raise ParseError(f'missing "{LABEL_COLUMN}" column')
        label_pos = header.index(LABEL_COLUMN)
        feat_pos = [i for i in range(len(header)) if i != label_pos]
        if len(feat_pos) != schema.count:
            raise ParseError(
                f"file has {len(feat_pos)} feature columns, schema expects {schema.count}"
            )
        rows, labels = [], []
        for ridx, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(f"row {ridx}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(row[i]) for i in feat_pos])
            except ValueError as exc:
                raise ParseError(f"row {ridx}: {exc}") from None
            lab = row[label_pos].strip()
            try:
                label = int(lab)
            except ValueError:
                raise ParseError(f"row {ridx}: label {lab!r} is not an integer") from None
            if not -(2**63) <= label < 2**63:
                raise ParseError(f"row {ridx}: label {lab!r} is outside int64")
            labels.append(label)
    if not rows:
        raise ParseError("no data rows")
    X = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        r, c = bad[0].tolist()
        raise ParseError(f"row {r + 1}: column {header[feat_pos[c]]!r} holds {float(X[r, c])!r}, not a finite number")
    return Dataset(X, np.array(labels, dtype=int), schema)


def write_dataset(d: Dataset, path) -> None:
    """Write a Dataset back to CSV (inverse of load_dataset, bit-exact via repr)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(d.schema.names) + [LABEL_COLUMN])
        for i in range(d.n):
            writer.writerow([repr(float(v)) for v in d.X[i]] + [str(int(d.y[i]))])


def standardize(d: Dataset) -> Dataset:
    """Shift/scale each continuous column to zero mean, unit standard deviation.

    Binary columns are untouched. A zero-variance continuous column keeps
    scale 1 (and a warning is recorded on the result) rather than failing:
    screening-style data routinely contains near-constant flags.
    """
    if d.n < 2:
        raise ValueError("standardize needs at least 2 rows")
    X = d.X.copy()
    scaler: dict[int, tuple[float, float]] = {}
    notes = list(d.warnings_)
    for j in d.schema.continuous_idx:
        col = X[:, int(j)]
        shift = float(col.mean())
        scale = float(col.std())
        if scale == 0.0:
            scale = 1.0
            msg = f"constant continuous column {d.schema.names[int(j)]}: scale set to 1"
            notes.append(msg)
            warnings.warn(msg)
        X[:, int(j)] = (col - shift) / scale
        scaler[int(j)] = (shift, scale)
    return Dataset(X, d.y, d.schema, scaler=scaler, warnings_=tuple(notes))


def _region_code(x: np.ndarray, schema: FeatureSchema, relevant: tuple[int, ...]) -> int:
    """Deterministic cell index of x under the fixed partition of the relevant features.

    Continuous features contribute a tercile bucket of the generation range
    [-3, 3]; binary features contribute their value. Mixed-radix encoding.
    """
    code = 0
    for j in relevant:
        if schema.kinds[j] == CONTINUOUS:
            v = x[j]
            bucket = 0 if v < -1.0 else (1 if v < 1.0 else 2)
            code = code * 3 + bucket
        else:
            code = code * 2 + int(x[j])
    return code


def synth_multiclass(
    seed: int,
    n: int,
    m_cont: int,
    m_bin: int,
    classes: int,
    relevant: tuple[int, ...] | list[int],
) -> Dataset:
    """Synthetic dataset whose labels depend only on the `relevant` features.

    Continuous features are uniform on [-3, 3]; binary features are fair
    coin flips. The label is a fixed function of the region code of the
    relevant features (mixed-radix cell index mod `classes`), so ground
    truth feature relevance is known and labels are invariant to any
    perturbation of non-relevant features. Fully reproducible from seed.
    """
    relevant = tuple(sorted(int(j) for j in relevant))
    if not relevant:
        raise ValueError("relevant feature set must be non-empty")
    if classes < 2:
        raise ValueError("need at least 2 classes")
    schema = FeatureSchema.mixed(m_cont, m_bin)
    if any(j < 0 or j >= schema.count for j in relevant):
        raise ValueError("relevant indices out of range")
    rng = np.random.default_rng(seed)
    X = np.empty((n, schema.count))
    if m_cont:
        X[:, :m_cont] = rng.uniform(-3.0, 3.0, size=(n, m_cont))
    if m_bin:
        X[:, m_cont:] = rng.integers(0, 2, size=(n, m_bin)).astype(float)
    y = np.array(
        [_region_code(X[i], schema, relevant) % classes for i in range(n)],
        dtype=int,
    )
    return Dataset(X, y, schema)
