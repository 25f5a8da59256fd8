"""Turns raw multi-source tables into one clean, encoded, split dataset.

The pipeline is join -> clean -> encode/normalize -> split. Every step is
a pure value-in/value-out transformation, so the whole chain is safe to
run concurrently on distinct inputs and is deterministic given its seeds.

Conventions, pinned so results are exactly reproducible:

* Quartiles and medians use linear interpolation between sorted order
  statistics at zero-based positions ``(n - 1) * q`` (numpy's default).
* Normalization uses the population (divide-by-n) standard deviation.
* Indicator (boolean) columns pass through as 0/1 and are never z-scored.
* The train split size is ``floor(n * train_fraction)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .tables import (
    BOOLEAN,
    CATEGORICAL,
    FEATURE_COLUMNS,
    NUMERIC,
    RecordTable,
)

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
        if self.missing_strategy not in MISSING_STRATEGIES:
            raise DataError(f"unknown missing strategy {self.missing_strategy!r}")
        if self.outlier_strategy not in OUTLIER_STRATEGIES:
            raise DataError(f"unknown outlier strategy {self.outlier_strategy!r}")
        if not 0 < self.iqr_multiplier < math.inf:
            raise DataError(f"iqr_multiplier must be a positive finite "
                            f"number, got {self.iqr_multiplier!r}")


@dataclass
class CleanReport:
    """Per-column counts of what :func:`clean` saw and did."""

    missing_counts: dict[str, int] = field(default_factory=dict)
    imputed_counts: dict[str, int] = field(default_factory=dict)
    outlier_counts: dict[str, int] = field(default_factory=dict)
    rows_dropped_missing: int = 0
    rows_dropped_outliers: int = 0

    def is_empty(self) -> bool:
        return (
            not any(self.missing_counts.values())
            and not any(self.imputed_counts.values())
            and not any(self.outlier_counts.values())
            and self.rows_dropped_missing == 0
            and self.rows_dropped_outliers == 0
        )

    def summary(self) -> str:
        if self.is_empty():
            return "nothing to do"
        return (
            f"{sum(self.missing_counts.values())} missing cells "
            f"({sum(self.imputed_counts.values())} imputed, "
            f"{self.rows_dropped_missing} rows dropped), "
            f"{sum(self.outlier_counts.values())} outlier values "
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
        if self.kind not in (NUMERIC, BOOLEAN):
            raise DataError(f"column {self.name!r} has unknown kind {self.kind!r}")
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise DataError(f"column {self.name!r} has a non-finite mean or std")
        if self.std < 0:
            raise DataError(f"column {self.name!r} has negative std {self.std!r}")
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


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature and target normalization parameters."""

    features: tuple[ColumnStats, ...]
    target: ColumnStats

    def __post_init__(self):
        if self.target.kind != NUMERIC:
            raise DataError(f"target column {self.target.name!r} must be numeric")

    def encode_features(self, values: Mapping[str, object]) -> np.ndarray:
        """Normalize scalars or 1-D columns keyed by feature name into
        network input order: one vector, or an ``(n, features)`` matrix."""
        encoded = []
        for col in self.features:
            if col.name not in values:
                raise DataError(f"feature {col.name!r} missing from input")
            encoded.append(col.encode(np.asarray(values[col.name], dtype=float)))
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
    """Inner-join tables on `key_column`.

    Returns the joined table (key plus the union of non-key columns, in
    source order) and the count of input rows dropped for lacking a match
    in every table. Key values must be unique within each table.
    """
    if not tables:
        raise DataError("join_sources needs at least one table")

    key_maps = []
    for t, table in enumerate(tables):
        idx = table.column_index(key_column)
        mapping: dict[object, tuple] = {}
        for row in table.rows:
            key = row[idx]
            if key in mapping:
                raise DataError(
                    f"duplicate key {key!r} in table {t} column {key_column!r}"
                )
            mapping[key] = row
        key_maps.append(mapping)

    if len(tables) == 1:
        return tables[0], 0

    names = [key_column]
    kinds = [tables[0].column_kind(key_column)]
    for table in tables:
        for name, kind in zip(table.column_names, table.column_kinds):
            if name == key_column:
                continue
            if name in names:
                raise DataError(f"column {name!r} appears in more than one table")
            names.append(name)
            kinds.append(kind)

    shared = [k for k in key_maps[0] if all(k in m for m in key_maps[1:])]
    rows = []
    for key in shared:  # first table's key order
        row: list = [key]
        for table, mapping in zip(tables, key_maps):
            source = mapping[key]
            for name, value in zip(table.column_names, source):
                if name != key_column:
                    row.append(value)
        rows.append(tuple(row))

    total_rows = sum(t.num_rows for t in tables)
    dropped = total_rows - len(tables) * len(shared)
    return RecordTable(tuple(names), tuple(kinds), tuple(rows)), dropped


def iqr_fences(values: Sequence[float], multiplier: float) -> tuple[float, float]:
    """[Q1 - k*IQR, Q3 + k*IQR] under the linear-interpolation quartile rule."""
    arr = np.asarray(values, dtype=float)
    q1 = float(np.quantile(arr, 0.25))
    q3 = float(np.quantile(arr, 0.75))
    spread = q3 - q1
    return q1 - multiplier * spread, q3 + multiplier * spread


def _impute_value(values: list[float], kind: str, name: str) -> float:
    if not values:
        raise DataError(
            f"column {name!r} is entirely missing; no median to impute"
        )
    if kind == BOOLEAN:
        # Majority value; ties resolve to 0 so the result stays a valid indicator.
        return 1.0 if sum(values) * 2 > len(values) else 0.0
    return float(np.median(values))


def clean(table: RecordTable, policy: CleanPolicy = CleanPolicy()) -> tuple[RecordTable, CleanReport]:
    """Handle missing cells, then outliers, per the policy.

    Missing handling covers every column (boolean columns are imputed with
    the majority value). Outlier fences apply to numeric columns only;
    indicators and categoricals are never fenced. Fences are computed on
    the post-imputation values.
    """
    report = CleanReport(
        missing_counts={n: 0 for n in table.column_names},
        imputed_counts={n: 0 for n in table.column_names},
        outlier_counts={n: 0 for n in table.column_names},
    )

    for name in table.column_names:
        report.missing_counts[name] = sum(
            1 for v in table.column_values(name) if v is None
        )

    rows = list(table.rows)
    if any(report.missing_counts.values()):
        if policy.missing_strategy == DROP_ROW:
            kept = [r for r in rows if all(v is not None for v in r)]
            report.rows_dropped_missing = len(rows) - len(kept)
            rows = kept
        else:
            medians = {}
            for col, (name, kind) in enumerate(
                zip(table.column_names, table.column_kinds)
            ):
                if report.missing_counts[name] == 0:
                    continue
                observed = [r[col] for r in rows if r[col] is not None]
                if kind == CATEGORICAL:
                    raise DataError(
                        f"cannot impute categorical column {name!r}"
                    )
                medians[col] = _impute_value(observed, kind, name)
            filled = []
            for row in rows:
                items = list(row)
                for col, value in medians.items():
                    if items[col] is None:
                        items[col] = value
                        name = table.column_names[col]
                        report.imputed_counts[name] += 1
                filled.append(tuple(items))
            rows = filled

    numeric_cols = [
        i for i, kind in enumerate(table.column_kinds) if kind == NUMERIC
    ]
    outlier_rows: set[int] = set()
    for col in numeric_cols:
        values = [r[col] for r in rows if r[col] is not None]
        if not values:
            continue
        lo, hi = iqr_fences(values, policy.iqr_multiplier)
        name = table.column_names[col]
        for i, row in enumerate(rows):
            v = row[col]
            if v is not None and not lo <= v <= hi:
                report.outlier_counts[name] += 1
                outlier_rows.add(i)

    if policy.outlier_strategy == DROP_ROW and outlier_rows:
        rows = [r for i, r in enumerate(rows) if i not in outlier_rows]
        report.rows_dropped_outliers = len(outlier_rows)

    return table.with_rows(rows), report


def _schema_features(table: RecordTable, target_column: str) -> tuple[str, ...]:
    # When the canonical nine condition attributes are all present, they
    # are the feature set; anything else riding along (e.g. generator
    # ground-truth columns) is filtered out. Otherwise every non-target
    # column is a feature.
    if all(c in table.column_names for c in FEATURE_COLUMNS):
        return FEATURE_COLUMNS
    return tuple(c for c in table.column_names if c != target_column)


def encode_and_normalize(
    table: RecordTable,
    target_column: str,
    feature_columns: Sequence[str] | None = None,
) -> Dataset:
    """Build the normalized training matrix from a cleaned table.

    Numeric features and the target are z-scored with population moments;
    boolean features pass through as 0/1. Raises on missing cells,
    non-finite values, constant numeric columns, and categorical features.
    """
    if table.column_kind(target_column) != NUMERIC:
        raise DataError(f"target column {target_column!r} must be numeric")
    if feature_columns is None:
        feature_columns = _schema_features(table, target_column)
    if target_column in feature_columns:
        raise DataError(f"target {target_column!r} cannot also be a feature")
    if table.num_rows == 0:
        raise DataError("cannot encode an empty table")

    def column_array(name: str) -> np.ndarray:
        values = table.column_values(name)
        if any(v is None for v in values):
            raise DataError(
                f"column {name!r} still has missing cells; clean the table first"
            )
        arr = np.asarray(values, dtype=float)
        if not np.isfinite(arr).all():
            raise DataError(f"column {name!r} contains non-finite values")
        return arr

    feature_stats = []
    columns = {}
    for name in feature_columns:
        kind = table.column_kind(name)
        if kind == CATEGORICAL:
            raise DataError(
                f"categorical column {name!r} is not supported as a feature"
            )
        arr = column_array(name)
        std = float(arr.std())
        if kind == NUMERIC and std == 0.0:
            raise DataError(
                f"column {name!r} is constant (std 0) and cannot be z-scored"
            )
        feature_stats.append(
            ColumnStats(name=name, kind=kind, mean=float(arr.mean()), std=std)
        )
        columns[name] = arr

    target_arr = column_array(target_column)
    t_std = float(target_arr.std())
    if t_std == 0.0:
        raise DataError(f"target column {target_column!r} is constant")
    stats = NormalizationStats(tuple(feature_stats), ColumnStats(
        name=target_column, kind=NUMERIC, mean=float(target_arr.mean()),
        std=t_std,
    ))
    return Dataset(
        X=stats.encode_features(columns),
        y=stats.target.encode(target_arr),
        norm_stats=stats,
    )


def split_indices(n: int, train_fraction: float, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic disjoint-and-exhaustive index partition.

    A seeded uniform permutation assigns the first
    ``floor(n * train_fraction)`` indices to the train side; each side is
    then sorted ascending so row order is stable.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(
            f"train_fraction must be in (0, 1), got {train_fraction!r}"
        )
    if n < 2:
        raise DataError(f"need at least 2 rows to split, got {n}")
    train_size = int(np.floor(n * train_fraction))
    if train_size == 0 or train_size == n:
        raise DataError(
            f"train_fraction {train_fraction!r} leaves an empty side for n={n}"
        )
    perm = np.random.default_rng(seed).permutation(n)
    train = tuple(sorted(int(i) for i in perm[:train_size]))
    test = tuple(sorted(int(i) for i in perm[train_size:]))
    return train, test


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded random split into train and test datasets."""
    train_idx, test_idx = split_indices(ds.n, train_fraction, seed)
    train = Dataset(ds.X[list(train_idx)], ds.y[list(train_idx)], ds.norm_stats)
    test = Dataset(ds.X[list(test_idx)], ds.y[list(test_idx)], ds.norm_stats)
    return train, test


def dataset_with_stats(
    table: RecordTable, stats: NormalizationStats, target_column: str
) -> Dataset:
    """Normalize a raw table under previously computed statistics.

    Used when fresh evaluation data must be encoded exactly as the
    training data was, e.g. scoring a stored model on a new CSV. The
    table must carry every feature named in the stats plus the target,
    with no missing cells.
    """
    if table.num_rows == 0:
        raise DataError("table has no rows")
    if table.column_kind(target_column) != NUMERIC:
        raise DataError(f"target column {target_column!r} must be numeric")
    for i, row in enumerate(table.rows):
        if any(v is None for v in row):
            raise DataError(f"row {i} has missing cells; clean the table first")
    columns = dict(zip(table.column_names, zip(*table.rows)))
    return Dataset(
        X=stats.encode_features(columns),
        y=stats.target.encode(np.asarray(columns[target_column], dtype=float)),
        norm_stats=stats,
    )
