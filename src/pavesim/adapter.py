"""Turns raw multi-source tables into one clean, encoded, split dataset.

The pipeline is join -> clean -> encode/normalize -> split. Every step is
a pure value-in/value-out transformation, so the whole chain is safe to
run concurrently on distinct inputs and is deterministic given its seeds.
Tables are held by column, and every step works a column at a time; no
step forms a row. The join maps each table's keys to row numbers and
gathers each column by the rows of the keys all tables hold, in the
first table's key order. Clean counts, imputes and fences each data
column, copies only those it imputes, and ``compress``es each by the
rows kept. Both encoders read their columns through one reader.

A column's kind comes from its name (:func:`pavesim.tables.kind_of`);
its role is decided here, once. The join key names rows, so the join
drops it. The features are every other column but the target and
:data:`pavesim.tables.NOT_DATA` (the generator's answer key and the
label columns), in table order, so a second source's columns are
features too. Cleaning, too, leaves the ``NOT_DATA`` columns as they are,
and no ``NOT_DATA`` name is a target, in a table or in the
:class:`NormalizationStats` a dataset or model file loads.

Conventions, pinned so results are exactly reproducible:

* Quartiles and medians use linear interpolation between sorted order
  statistics at zero-based positions ``(n - 1) * q`` (numpy's default).
* Normalization uses the population (divide-by-n) standard deviation.
* Indicator (boolean) columns pass through as 0/1 and are never z-scored.
* The train split size is ``floor(n * train_fraction)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import is_not
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, check_choice, check_number
from .tables import BOOLEAN, CATEGORICAL, NOT_DATA, NUMERIC, RecordTable

DROP_ROW = "drop_row"
IMPUTE_MEDIAN = "impute_median"
FLAG_ONLY = "flag_only"

MISSING_STRATEGIES = (DROP_ROW, IMPUTE_MEDIAN)
OUTLIER_STRATEGIES = (FLAG_ONLY, DROP_ROW)


@dataclass(frozen=True)
class CleanPolicy:
    """How :func:`clean` treats missing cells and fence-violating values."""

    missing_strategy: str = IMPUTE_MEDIAN
    outlier_strategy: str = FLAG_ONLY
    iqr_multiplier: float = 1.5

    def __post_init__(self):
        check_choice("missing_strategy", self.missing_strategy,
                     MISSING_STRATEGIES)
        check_choice("outlier_strategy", self.outlier_strategy,
                     OUTLIER_STRATEGIES)
        check_number("iqr_multiplier", self.iqr_multiplier, above=0)


@dataclass
class CleanReport:
    """Per-column counts of what :func:`clean` saw and did."""

    missing_counts: dict[str, int] = field(default_factory=dict)
    imputed_counts: dict[str, int] = field(default_factory=dict)
    outlier_counts: dict[str, int] = field(default_factory=dict)
    rows_dropped_missing: int = 0
    rows_dropped_outliers: int = 0

    def summary(self) -> str:
        # a cell is imputed, and a row dropped, only for a counted cell
        missing = sum(self.missing_counts.values())
        outliers = sum(self.outlier_counts.values())
        if not missing and not outliers:
            return "nothing to do"
        return (
            f"{missing} missing cells "
            f"({sum(self.imputed_counts.values())} imputed, "
            f"{self.rows_dropped_missing} rows dropped), "
            f"{outliers} outlier values "
            f"({self.rows_dropped_outliers} rows dropped)"
        )


@dataclass(frozen=True)
class ColumnStats:
    """Normalization record for one column, and the only place its
    z-score rule is applied, to scalars or arrays, in either direction."""

    name: str
    kind: str    # NUMERIC columns are z-scored, BOOLEAN pass through
    mean: float
    std: float

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DataError(f"column name must be a string, got {self.name!r}")
        check_choice(f"kind of column {self.name!r}", self.kind,
                     (NUMERIC, BOOLEAN))
        check_number(f"mean of column {self.name!r}", self.mean)
        check_number(f"std of column {self.name!r}", self.std, low=0)
        if self.kind == NUMERIC and self.std == 0:
            raise DataError(f"numeric column {self.name!r} has std 0")

    def encode(self, value: float | np.ndarray) -> float | np.ndarray:
        if self.kind == BOOLEAN:
            return value
        return (value - self.mean) / self.std

    def decode(self, value: float | np.ndarray) -> float | np.ndarray:
        if self.kind == BOOLEAN:
            return value
        return value * self.std + self.mean


def _check_target_is_data(name: str) -> None:
    """Refuse a :data:`~pavesim.tables.NOT_DATA` name as the target."""
    if name in NOT_DATA:
        raise DataError(f"column {name!r} is never data (the answer key or a "
                        "label), so it cannot be the target")


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature and target normalization parameters. The target is a
    numeric column that is neither a feature nor a
    :data:`~pavesim.tables.NOT_DATA` name."""

    features: tuple[ColumnStats, ...]
    target: ColumnStats

    def __post_init__(self):
        _check_target_is_data(self.target.name)
        if self.target.kind != NUMERIC:
            raise DataError(f"target column {self.target.name!r} must be numeric")
        if not self.features:
            raise DataError("there is no feature column besides the target "
                            f"{self.target.name!r}")
        names = [col.name for col in self.features]
        if self.target.name in names:
            raise DataError(f"target {self.target.name!r} cannot also be a "
                            "feature")
        for i, name in enumerate(names):
            if name in names[:i]:
                raise DataError(f"feature {name!r} is listed more than once")

    def encode_features(self, values: Mapping[str, object]) -> np.ndarray:
        """Normalize scalars or 1-D columns keyed by feature name into
        network input order: one vector, or an ``(n, features)`` matrix;
        an overflow is silent, for the caller to refuse. ``derive`` and
        :func:`_read_columns` refuse an absent feature first."""
        with np.errstate(over="ignore"):
            encoded = [col.encode(np.asarray(values[col.name], dtype=float))
                       for col in self.features]
        return np.stack(encoded, axis=-1)


@dataclass(frozen=True)
class Dataset:
    """Normalized feature matrix, target vector, and their statistics."""

    X: np.ndarray
    y: np.ndarray
    norm_stats: NormalizationStats

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise DataError("X must be 2-D and y 1-D")
        if self.X.shape[0] != self.y.shape[0]:
            raise DataError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.X.shape[1] != len(self.norm_stats.features):
            raise DataError(
                f"X has {self.X.shape[1]} columns but stats describe "
                f"{len(self.norm_stats.features)}"
            )
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise DataError("dataset contains non-finite values")

    @property
    def n(self) -> int:
        return self.X.shape[0]


def join_sources(tables: Sequence[RecordTable], key_column: str) -> tuple[RecordTable, int]:
    """Inner-join tables, one or more, on `key_column`.

    Returns the joined table (the union of non-key columns, in source
    order: the key names rows and is not data, so it is dropped) and the
    count of input rows dropped for lacking a match in every table. Key
    values must be present and unique within each table.
    """
    if not tables:
        raise DataError("join_sources needs at least one table")
    key_rows = [_key_index(table, t, key_column)  # per table, key -> row number
                for t, table in enumerate(tables)]

    names = tuple(name for table in tables for name in table.column_names
                  if name != key_column)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise DataError(f"column {name!r} appears in more than one table")

    keys = list(key_rows[0])  # first table's key order
    for index in key_rows[1:]:
        keys = list(filter(index.__contains__, keys))
    rows = [list(map(index.__getitem__, keys)) for index in key_rows]
    columns = [map(column.__getitem__, picked)  # made a tuple by RecordTable
               for table, picked in zip(tables, rows)
               for name, column in zip(table.column_names, table.columns)
               if name != key_column]

    dropped = sum(t.num_rows for t in tables) - len(tables) * len(keys)
    return RecordTable(names, columns, len(keys)), dropped


def _key_index(table: RecordTable, t: int, key_column: str) -> dict[object, int]:
    """Each key of table number `t` mapped to its row number. A blank or
    repeated key is refused, the first in row order."""
    keys = table.column_values(key_column)
    index = dict(zip(keys, range(len(keys))))
    if len(index) < len(keys) or None in index:
        seen = set()
        for i, key in enumerate(keys):
            if key is None:
                raise DataError(f"blank key in row {i} of table {t} "
                                f"column {key_column!r}")
            if key in seen:
                raise DataError(
                    f"duplicate key {key!r} in table {t} column {key_column!r}"
                )
            seen.add(key)
    return index


def iqr_fences(values: Sequence[float], multiplier: float) -> tuple[float, float]:
    """[Q1 - k*IQR, Q3 + k*IQR] under the linear-interpolation quartile rule.

    numpy's warnings are silenced: an infinite value makes the fences NaN,
    which flag every value, and values whose spread overflows a float have
    a std that encoding refuses.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        q1, q3 = map(float, np.quantile(np.asarray(values, dtype=float),
                                        (0.25, 0.75)))
    spread = q3 - q1
    return q1 - multiplier * spread, q3 + multiplier * spread


def clean(table: RecordTable, policy: CleanPolicy = CleanPolicy()) -> tuple[RecordTable, CleanReport]:
    """Handle missing cells, then outliers, per the policy, column by column.

    Only the data columns are cleaned: the :data:`~pavesim.tables.NOT_DATA`
    columns (the answer key and labels) are never counted, imputed or
    fenced, and pass through as they are. Missing handling covers every
    data column: drop each row with a blank, or impute a numeric column's
    median and a boolean column's majority value (ties give 0). Outlier
    fences apply to numeric columns only, on the post-imputation values
    of the rows kept.
    """
    names = table.column_names
    columns = list(table.columns)
    data = [(j, name, kind) for j, (name, kind)
            in enumerate(zip(names, table.column_kinds)) if name not in NOT_DATA]
    report = CleanReport({name: columns[j].count(None) for j, name, _ in data},
                         {name: 0 for _, name, _ in data},
                         {name: 0 for _, name, _ in data})

    keep = np.ones(table.num_rows, dtype=bool)
    if any(report.missing_counts.values()):
        if policy.missing_strategy == DROP_ROW:
            for j, _, _ in data:
                keep &= np.fromiter(map(is_not, columns[j], repeat(None)),
                                    bool, table.num_rows)
            report.rows_dropped_missing = int(np.count_nonzero(~keep))
        else:
            for j, name, kind in data:
                count = report.missing_counts[name]
                if count == 0:
                    continue
                if kind == CATEGORICAL:
                    raise DataError(f"cannot impute categorical column {name!r}")
                observed = [v for v in columns[j] if v is not None]
                if not observed:
                    raise DataError(
                        f"column {name!r} is entirely missing; no median to impute"
                    )
                if kind == BOOLEAN:
                    fill = 1.0 if sum(observed) * 2 > len(observed) else 0.0
                else:
                    fill = float(np.median(observed))
                columns[j] = [fill if v is None else v for v in columns[j]]
                report.imputed_counts[name] = count

    outliers = np.zeros_like(keep)
    for j, name, kind in data:
        if kind != NUMERIC or not keep.any():
            continue
        values = np.array(columns[j], float)  # a dropped row's blank is NaN
        lo, hi = iqr_fences(values[keep], policy.iqr_multiplier)
        flagged = keep & ~((lo <= values) & (values <= hi))
        report.outlier_counts[name] = int(np.count_nonzero(flagged))
        outliers |= flagged

    if policy.outlier_strategy == DROP_ROW:
        report.rows_dropped_outliers = int(np.count_nonzero(outliers))
        keep &= ~outliers
    kept = keep.tolist()
    columns = [compress(column, kept) for column in columns]
    return RecordTable(names, columns, int(np.count_nonzero(keep))), report


def _read_columns(table: RecordTable, features: Sequence[str], target_column: str
                  ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The feature columns by name, and the target, as float arrays.

    Refuses an empty table, a non-numeric target, a categorical feature,
    a missing cell and a non-finite value; only the named columns are read.
    """
    if table.num_rows == 0:
        raise DataError("cannot encode an empty table: it has no rows")
    if table.column_kind(target_column) != NUMERIC:
        raise DataError(f"target column {target_column!r} must be numeric")
    columns = {}
    for name in (*features, target_column):
        if table.column_kind(name) == CATEGORICAL:
            raise DataError(f"categorical column {name!r} is not supported "
                            "as a feature")
        values = table.column_values(name)
        if None in values:
            raise DataError(f"column {name!r} still has missing cells; "
                            "clean the table first")
        columns[name] = np.asarray(values, dtype=float)
        if not np.isfinite(columns[name]).all():
            raise DataError(f"column {name!r} contains non-finite values")
    return columns, columns.pop(target_column)


def _encode(stats: NormalizationStats, columns: Mapping[str, np.ndarray],
            target: np.ndarray) -> Dataset:
    return Dataset(X=stats.encode_features(columns),
                   y=stats.target.encode(target), norm_stats=stats)


def encode_and_normalize(table: RecordTable, target_column: str) -> Dataset:
    """Build the normalized training matrix from a cleaned table.

    Numeric features and the target are z-scored with population moments;
    boolean features pass through as 0/1. The features are every column
    but the target and :data:`~pavesim.tables.NOT_DATA`, in table order.
    Raises on a :data:`~pavesim.tables.NOT_DATA` target, an empty table,
    missing cells, non-finite values, constant numeric columns,
    categorical features, and moments too large for a float.
    """
    # before the column reader, which would blame a blank MuStar cell
    _check_target_is_data(target_column)
    feature_columns = [c for c in table.column_names
                       if c != target_column and c not in NOT_DATA]
    columns, target = _read_columns(table, feature_columns, target_column)

    def column_stats(name: str, arr: np.ndarray) -> ColumnStats:
        kind = table.column_kind(name)
        with np.errstate(over="ignore"):  # ColumnStats refuses an inf moment
            mean, std = float(arr.mean()), float(arr.std())
        if kind == NUMERIC and std == 0.0:
            raise DataError(
                f"target column {name!r} is constant" if name == target_column
                else f"column {name!r} is constant (std 0) and cannot be z-scored")
        return ColumnStats(name=name, kind=kind, mean=mean, std=std)

    stats = NormalizationStats(
        tuple(column_stats(name, columns[name]) for name in feature_columns),
        column_stats(target_column, target),
    )
    return _encode(stats, columns, target)


def split_indices(n: int, train_fraction: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic disjoint-and-exhaustive index partition, as two
    sorted index arrays.

    A seeded uniform permutation assigns the first
    ``floor(n * train_fraction)`` indices to the train side; each side is
    then sorted ascending (by ``np.sort``) so row order is stable.
    """
    check_number("train_fraction", train_fraction, above=0, below=1)
    if n < 2:
        raise DataError(f"need at least 2 rows to split, got {n}")
    train_size = int(np.floor(n * train_fraction))
    if train_size == 0 or train_size == n:
        raise DataError(
            f"train_fraction {train_fraction!r} leaves an empty side for n={n}"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:train_size]), np.sort(perm[train_size:])


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded random split into train and test datasets."""
    train_idx, test_idx = split_indices(ds.n, train_fraction, seed)
    train = Dataset(ds.X[train_idx], ds.y[train_idx], ds.norm_stats)
    test = Dataset(ds.X[test_idx], ds.y[test_idx], ds.norm_stats)
    return train, test


def dataset_with_stats(table: RecordTable, stats: NormalizationStats) -> Dataset:
    """Normalize a raw table under previously computed statistics.

    Used when fresh evaluation data must be encoded exactly as the
    training data was, e.g. scoring a stored model on a new CSV. Only the
    features and the target named in the stats are read, by the same
    column reader as :func:`encode_and_normalize`: those columns must be
    present, finite and without missing cells; other columns are not read.
    """
    features = [col.name for col in stats.features]
    return _encode(stats, *_read_columns(table, features, stats.target.name))
