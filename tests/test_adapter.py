import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pavesim.adapter import (
    CleanPolicy,
    ColumnStats,
    DROP_ROW,
    Dataset,
    MISSING_STRATEGIES,
    NormalizationStats,
    OUTLIER_STRATEGIES,
    clean,
    dataset_with_stats,
    encode_and_normalize,
    iqr_fences,
    join_sources,
    split,
    split_indices,
)
from pavesim.errors import DataError
from pavesim.synthetic import generate_paving_dataset
from pavesim.tables import (
    BOOLEAN,
    CATEGORICAL,
    NOT_DATA,
    NUMERIC,
    PAVING_COLUMNS,
    TRUTH_COLUMNS,
    RecordTable,
    kind_of,
)
from table_helpers import rows_of, table_of_rows


def numeric_table(name, values):
    return table_of_rows((name,),
                         ((None if v is None else float(v),) for v in values))


# ---------------------------------------------------------------- join


def make_weather_and_site():
    weather = table_of_rows(
        ("JobId", "Temperature", "Humidity"),
        ((1.0, 20.0, 70.0), (2.0, 25.0, 60.0), (3.0, 30.0, 50.0)),
    )
    site = table_of_rows(
        ("JobId", "Congestion", "Spreader"),
        ((1.0, 1.0, 0.0), (2.0, 0.0, 1.0), (3.0, 0.0, 0.0)),
    )
    return weather, site


def test_join_union_of_columns_on_shared_keys():
    weather, site = make_weather_and_site()
    joined, dropped = join_sources([weather, site], "JobId")
    # the key names rows; it is not data, so the join drops it
    assert joined.column_names == (
        "Temperature", "Humidity", "Congestion", "Spreader")
    assert joined.column_kinds == (NUMERIC, NUMERIC, BOOLEAN, BOOLEAN)
    assert joined.num_rows == 3
    assert dropped == 0
    assert rows_of(joined)[1] == (25.0, 60.0, 0.0, 1.0)


def test_join_single_table_drops_only_the_key():
    weather, _ = make_weather_and_site()
    joined, dropped = join_sources([weather], "JobId")
    assert joined == table_of_rows(("Temperature", "Humidity"),
                                   (row[1:] for row in rows_of(weather)))
    assert dropped == 0


@pytest.mark.parametrize("tables", [1, 2])
def test_join_refuses_a_blank_key(tables):
    # blank keys in two sources matched each other, and a lone blank key
    # reached clean as data
    weather, site = make_weather_and_site()
    holed = [table_of_rows(weather.column_names,
                           ((1.0, 20.0, 70.0), (None, 25.0, 60.0))),
             table_of_rows(site.column_names,
                           ((None, 1.0, 0.0), (1.0, 0.0, 1.0)))]
    with pytest.raises(DataError, match=re.escape(
            "blank key in row 1 of table 0 column 'JobId'")):
        join_sources(holed[:tables], "JobId")


def test_join_disjoint_keys_drops_everything():
    weather, _ = make_weather_and_site()
    other = table_of_rows(("JobId", "Slump"), ((7.0, 3.0), (8.0, 4.0)))
    joined, dropped = join_sources([weather, other], "JobId")
    assert joined.num_rows == 0
    assert dropped == weather.num_rows + other.num_rows


def test_join_partial_overlap_counts_unmatched_rows():
    weather, _ = make_weather_and_site()
    other = table_of_rows(("JobId", "Slump"),
                          ((2.0, 3.5), (3.0, 4.0), (9.0, 4.5)))
    joined, dropped = join_sources([weather, other], "JobId")
    assert joined.num_rows == 2
    assert joined.num_rows <= min(weather.num_rows, other.num_rows)
    # 6 input rows, 2 matched in each table
    assert dropped == 2


def test_join_duplicate_key_rejected():
    dup = table_of_rows(("JobId", "X"), ((1.0, 0.0), (1.0, 1.0)))
    with pytest.raises(DataError, match="duplicate key"):
        join_sources([dup, dup], "JobId")


def test_join_missing_key_column_rejected():
    weather, _ = make_weather_and_site()
    other = table_of_rows(("Other",), ((1.0,),))
    with pytest.raises(DataError, match="no column named 'JobId'"):
        join_sources([weather, other], "JobId")


def test_join_clashing_column_name_rejected():
    weather, _ = make_weather_and_site()
    with pytest.raises(DataError, match="more than one table"):
        join_sources([weather, weather], "JobId")


def test_a_join_of_keys_alone_keeps_its_rows_and_has_no_target():
    # sources that hold only the key join to rows with no column; encoding
    # names the absent target, not an empty table
    keys = table_of_rows(("JobId",), (("a",), ("b",), ("c",)))
    joined, dropped = join_sources([keys, keys], "JobId")
    assert (joined.column_names, joined.num_rows, dropped) == ((), 3, 0)
    assert rows_of(joined) == ((), (), ())
    with pytest.raises(DataError, match="^no column named 'Productivity'$"):
        encode_and_normalize(joined, "Productivity")


def test_join_empty_list_rejected():
    with pytest.raises(DataError):
        join_sources([], "JobId")


def join_oracle(tables, key):
    """The inner join a key at a time: the column names, the rows in the
    first table's key order and the count of rows dropped, or the text of
    the first error."""
    by_key = []
    for t, table in enumerate(tables):
        k = table.column_names.index(key)
        rows = {}
        for i, row in enumerate(rows_of(table)):
            if row[k] is None:
                return f"blank key in row {i} of table {t} column {key!r}"
            if row[k] in rows:
                return f"duplicate key {row[k]!r} in table {t} column {key!r}"
            rows[row[k]] = row
        by_key.append(rows)
    names = []
    for table in tables:
        for name in table.column_names:
            if name != key:
                if name in names:
                    return f"column {name!r} appears in more than one table"
                names.append(name)
    joined = []
    for value in by_key[0]:
        if all(value in rows for rows in by_key):
            cells = []
            for table, rows in zip(tables, by_key):
                for name, cell in zip(table.column_names, rows[value]):
                    if name != key:
                        cells.append(cell)
            joined.append(tuple(cells))
    dropped = sum(len(rows_of(t)) for t in tables) - len(tables) * len(joined)
    return tuple(names), tuple(joined), dropped


KEYS = ("k0", "k1", "k2", "k3", "k4", "k5")
#: Mostly distinct keys; now and then a blank or a repeat.
KEY_LISTS = (st.lists(st.sampled_from(KEYS), unique=True, max_size=6)
             | st.lists(st.sampled_from((*KEYS, None)), max_size=6))


@st.composite
def keyed_tables(draw):
    names = draw(st.lists(st.sampled_from(("A", "B", "C", "D", "E")),
                          unique=True, max_size=3))
    names = draw(st.permutations(["JobId", *names]))  # the key anywhere
    keys = draw(KEY_LISTS)
    cells = st.none() | st.floats(allow_nan=False)
    rows = [tuple(key if name == "JobId" else draw(cells) for name in names)
            for key in keys]
    return table_of_rows(names, rows)


@settings(max_examples=100, deadline=None)
@given(tables=st.lists(keyed_tables(), min_size=1, max_size=3))
def test_join_is_the_per_key_loop(tables):
    expected = join_oracle(tables, "JobId")
    if isinstance(expected, str):
        with pytest.raises(DataError) as info:
            join_sources(tables, "JobId")
        assert str(info.value) == expected
        return
    joined, dropped = join_sources(tables, "JobId")
    assert (joined.column_names, rows_of(joined), dropped) == expected


# ---------------------------------------------------------------- clean


def test_iqr_fences_hand_example():
    # {1,2,3,4,100}: Q1 = 2, Q3 = 4 under linear interpolation, IQR = 2
    lo, hi = iqr_fences([1, 2, 3, 4, 100], 1.5)
    assert lo == pytest.approx(-1.0)
    assert hi == pytest.approx(7.0)


def test_clean_flags_fence_violation_without_dropping():
    table = numeric_table("V", [1, 2, 3, 4, 100])
    cleaned, report = clean(table)
    assert cleaned == table
    assert report.outlier_counts["V"] == 1
    assert report.rows_dropped_outliers == 0


def test_a_value_on_a_fence_is_not_an_outlier():
    # 0..4: Q1 = 1, Q3 = 3, IQR = 2, so multiplier 0.5 fences [0, 4]
    table = numeric_table("V", [0, 1, 2, 3, 4])
    assert iqr_fences([0, 1, 2, 3, 4], 0.5) == (0.0, 4.0)
    cleaned, report = clean(table, CleanPolicy(outlier_strategy=DROP_ROW,
                                               iqr_multiplier=0.5))
    assert cleaned == table
    assert report.outlier_counts["V"] == 0


def test_clean_drop_row_removes_outlier():
    table = numeric_table("V", [1, 2, 3, 4, 100])
    cleaned, report = clean(table, CleanPolicy(outlier_strategy=DROP_ROW))
    assert cleaned.column_values("V") == (1, 2, 3, 4)
    assert report.rows_dropped_outliers == 1


def test_clean_identity_on_clean_data():
    table = numeric_table("V", [1, 2, 3, 4, 5])
    cleaned, report = clean(table)
    assert cleaned == table
    assert report.summary() == "nothing to do"


@pytest.mark.parametrize("missing", MISSING_STRATEGIES)
@pytest.mark.parametrize("outliers", OUTLIER_STRATEGIES)
def test_a_report_acts_only_on_the_cells_it_counted(missing, outliers):
    # why summary() reads "nothing to do" from the two counts alone
    policy = CleanPolicy(missing, outliers)
    for values in ([1, 2, 3, 4, 5], [1, 2, None, 4, 5], [1, 2, 3, 4, 100],
                   [None, 2, 3, 4, 100]):
        _, report = clean(numeric_table("V", values), policy)
        counted = report.missing_counts["V"] + report.outlier_counts["V"]
        done = (report.imputed_counts["V"] + report.rows_dropped_missing
                + report.rows_dropped_outliers)
        assert counted == values.count(None) + (100 in values)
        assert done <= counted  # flag_only counts an outlier, does nothing
        assert (report.summary() == "nothing to do") == (counted == 0)


def test_clean_imputes_median():
    table = numeric_table("V", [5, None, 7])
    cleaned, report = clean(table)
    assert cleaned.column_values("V") == (5, 6, 7)
    assert report.missing_counts["V"] == 1
    assert report.imputed_counts["V"] == 1


def test_clean_drop_row_missing_strategy():
    table = numeric_table("V", [5, None, 7])
    cleaned, report = clean(table, CleanPolicy(missing_strategy=DROP_ROW))
    assert cleaned.column_values("V") == (5, 7)
    assert report.rows_dropped_missing == 1
    assert report.imputed_counts["V"] == 0


def test_clean_boolean_imputes_majority_with_tie_to_zero():
    majority = table_of_rows(("Congestion",),
                             ((1.0,), (1.0,), (0.0,), (None,)))
    cleaned, _ = clean(majority)
    assert cleaned.column_values("Congestion")[3] == 1.0
    tie = table_of_rows(("Congestion",), ((1.0,), (0.0,), (None,)))
    cleaned, _ = clean(tie)
    assert cleaned.column_values("Congestion")[2] == 0.0


def test_clean_entirely_missing_column_rejected():
    table = numeric_table("V", [None, None])
    with pytest.raises(DataError, match="entirely missing"):
        clean(table)


def test_clean_cannot_impute_categorical():
    table = table_of_rows(("Condition",), (("a",), (None,)))
    with pytest.raises(DataError, match="categorical column 'Condition'"):
        clean(table)


def test_clean_passes_the_answer_key_and_labels_through():
    # MuStar's outlier dropped a training row, and a blank label could not
    # be imputed
    names = ("Slump", "MuStar", "Scenario")
    rows = tuple((float(i), float(i), "s") for i in range(19)) + \
        ((5.0, 1e6, None),)
    table = table_of_rows(names, rows)
    for missing in ("impute_median", DROP_ROW):
        cleaned, report = clean(table, CleanPolicy(missing, DROP_ROW))
        assert rows_of(cleaned) == rows
        assert report.summary() == "nothing to do"
        for counts in (report.missing_counts, report.imputed_counts,
                       report.outlier_counts):
            assert list(counts) == ["Slump"]


def test_clean_never_fences_indicator_columns():
    # 19 zeros and a single 1 would be far outside any numeric fence
    table = table_of_rows(("Congestion",),
                          tuple((0.0,) for _ in range(19)) + ((1.0,),))
    cleaned, report = clean(table, CleanPolicy(outlier_strategy=DROP_ROW))
    assert cleaned.num_rows == 20
    assert report.outlier_counts["Congestion"] == 0


def test_clean_fences_only_the_rows_it_keeps():
    # the 1000 sits in a row dropped for its blank, so it neither widens
    # nor breaks A's fences
    table = table_of_rows(("A", "B"),
                          ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0),
                           (1000.0, None)))
    cleaned, report = clean(table, CleanPolicy(missing_strategy=DROP_ROW,
                                               outlier_strategy=DROP_ROW))
    assert rows_of(cleaned) == rows_of(table)[:4]
    assert report.rows_dropped_missing == 1
    assert report.outlier_counts == {"A": 0, "B": 0}


def test_infinite_cell_gives_nan_fences_that_flag_every_value():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning
        lo, hi = iqr_fences([1.0, 2.0, math.inf], 1.5)
        _, report = clean(numeric_table("V", [1, 2, math.inf]))
    assert math.isnan(lo) and math.isnan(hi)
    assert report.outlier_counts["V"] == 3


def median_oracle(values):
    """The middle of the sorted values, or the mean of the middle two."""
    s = sorted(values)
    half = len(s) // 2
    return s[half] if len(s) % 2 else (s[half - 1] + s[half]) / 2


def quantile_oracle(values, q):
    """The linear-interpolation quantile at zero-based position (n - 1) * q,
    interpolated from the nearer end, as numpy's default does."""
    s = sorted(values)
    position = (len(s) - 1) * q
    i = int(position)
    t = position - i
    a, b = s[i], s[min(i + 1, len(s) - 1)]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def clean_oracle(names, rows, missing, outliers, k):
    """`clean` a row at a time: the rows kept, with their imputed cells, and
    the report's fields, or the text of the first error."""
    data = [j for j, name in enumerate(names) if name not in NOT_DATA]
    report = {
        "missing_counts": {names[j]: sum(row[j] is None for row in rows)
                           for j in data},
        "imputed_counts": {names[j]: 0 for j in data},
        "outlier_counts": {names[j]: 0 for j in data},
        "rows_dropped_missing": 0, "rows_dropped_outliers": 0}
    rows = [list(row) for row in rows]
    if missing == "drop_row":
        kept = [row for row in rows if all(row[j] is not None for j in data)]
        report["rows_dropped_missing"] = len(rows) - len(kept)
        rows = kept
    else:
        for j in data:
            name, count = names[j], report["missing_counts"][names[j]]
            if count == 0:
                continue
            if kind_of(name) == CATEGORICAL:
                return f"cannot impute categorical column {name!r}"
            observed = [row[j] for row in rows if row[j] is not None]
            if not observed:
                return (f"column {name!r} is entirely missing; no median "
                        "to impute")
            if kind_of(name) == BOOLEAN:
                fill = 1.0 if 2 * sum(observed) > len(observed) else 0.0
            else:
                fill = median_oracle(observed)
            for row in rows:
                if row[j] is None:
                    row[j] = fill
            report["imputed_counts"][name] = count
    flagged = set()
    for j in data:
        if kind_of(names[j]) != NUMERIC or not rows:
            continue
        values = [row[j] for row in rows]
        q1, q3 = quantile_oracle(values, 0.25), quantile_oracle(values, 0.75)
        lo, hi = q1 - k * (q3 - q1), q3 + k * (q3 - q1)
        out = {i for i, v in enumerate(values) if not lo <= v <= hi}
        report["outlier_counts"][names[j]] = len(out)
        flagged |= out
    if outliers == "drop_row":
        report["rows_dropped_outliers"] = len(flagged)
        rows = [row for i, row in enumerate(rows) if i not in flagged]
    return [tuple(row) for row in rows], report


def cell_bits(cell):
    """A cell's type and value, a float by its bits (so -0.0 is not 0.0)."""
    return type(cell), struct.pack("<d", cell) if type(cell) is float else cell


NUMBERS = (st.sampled_from((1.0, 2.0, 2.5, 3.0, 7.0, 1e3, math.inf, -math.inf))
           | st.integers(-4000, 4000).map(lambda i: i / 4))  # no -0.0
#: Cells by column: numeric and boolean data, a categorical data column,
#: and the not-data answer key and label.
CLEAN_CELLS = {"A": NUMBERS, "Slump": NUMBERS,
               "Congestion": st.sampled_from((0.0, 1.0)),
               "Spreader": st.sampled_from((0.0, 1.0)),
               "Condition": st.sampled_from(("dry", "wet")),
               "MuStar": NUMBERS, "Scenario": st.sampled_from(("s1", "s2"))}


@st.composite
def cleanable_tables(draw):
    """Names and rows; each column is full, holed (most often) or blank."""
    names = draw(st.lists(st.sampled_from(tuple(CLEAN_CELLS)), unique=True,
                          max_size=4))
    n = draw(st.integers(0, 12))
    columns = []
    for name in names:
        fill = draw(st.sampled_from(("full", "holes", "holes", "holes",
                                     "blank")))
        cells = {"full": CLEAN_CELLS[name], "blank": st.none(),
                 "holes": st.none() | CLEAN_CELLS[name]}[fill]
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return tuple(names), [tuple(c[i] for c in columns) for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(table=cleanable_tables(),
       missing=st.sampled_from(MISSING_STRATEGIES),
       outliers=st.sampled_from(OUTLIER_STRATEGIES),
       k=st.sampled_from((0.5, 1.5, 3.0)))
# a boolean majority tie, an infinite cell, and a column of blanks
@example(table=(("Congestion", "MuStar"), [(1.0, None), (0.0, 2.0),
                                          (None, 1e9)]),
         missing="impute_median", outliers=DROP_ROW, k=1.5)
@example(table=(("A", "Scenario"),
                [(1.0, None), (2.0, "s1"), (math.inf, "s2")]),
         missing="impute_median", outliers=DROP_ROW, k=1.5)
@example(table=(("Slump", "A"), [(None, 1.0), (None, 2.0)]),
         missing="impute_median", outliers="flag_only", k=1.5)
def test_clean_is_the_per_row_oracle(table, missing, outliers, k):
    names, rows = table
    expected = clean_oracle(names, rows, missing, outliers, k)
    policy = CleanPolicy(missing, outliers, k)
    if isinstance(expected, str):
        with pytest.raises(DataError) as info:
            clean(table_of_rows(names, rows), policy)
        assert str(info.value) == expected
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning
        cleaned, report = clean(table_of_rows(names, rows), policy)
    want_rows, want_report = expected
    assert cleaned.column_names == names
    assert [list(map(cell_bits, row)) for row in rows_of(cleaned)] == [
        list(map(cell_bits, row)) for row in want_rows]
    assert {f: list(v.items()) if isinstance(v, dict) else v
            for f, v in vars(report).items()} == {
        f: list(v.items()) if isinstance(v, dict) else v
        for f, v in want_report.items()}


def test_clean_policy_validation():
    with pytest.raises(DataError):
        CleanPolicy(missing_strategy="zap")
    with pytest.raises(DataError):
        CleanPolicy(outlier_strategy="zap")
    with pytest.raises(DataError):
        CleanPolicy(iqr_multiplier=0.0)
    # an infinite fence times an IQR of 0 is NaN, which flags every value
    for value in (math.inf, math.nan):
        with pytest.raises(DataError, match="iqr_multiplier must be a finite "
                                             "number > 0, got"):
            CleanPolicy(iqr_multiplier=value)


def test_clean_drop_row_idempotent_on_small_fixture():
    table = numeric_table("V", [1, 2, 3, 4, 100])
    policy = CleanPolicy(outlier_strategy=DROP_ROW)
    once, _ = clean(table, policy)
    twice, second_report = clean(once, policy)
    assert twice == once
    assert second_report.summary() == "nothing to do"


def test_clean_drop_row_idempotent_on_generated_data():
    # idempotence depends on the data converging in one pass; this
    # 300-row draw does (verified), so it is pinned here
    table = generate_paving_dataset(300, 5)
    policy = CleanPolicy(outlier_strategy=DROP_ROW)
    once, _ = clean(table, policy)
    twice, _ = clean(once, policy)
    assert twice == once


# ------------------------------------------------- encode_and_normalize


def test_encode_two_point_column():
    table = table_of_rows(("Y", "X"), ((1.0, 0.0), (2.0, 10.0)))
    ds = encode_and_normalize(table, "Y")
    stats = ds.norm_stats.features[0]
    assert stats.mean == 5.0
    assert stats.std == 5.0
    assert ds.X[:, 0].tolist() == [-1.0, 1.0]


def test_encode_indicator_passes_through():
    table = table_of_rows(("Y", "Spreader"),
                          ((1.0, 0.0), (2.0, 1.0), (3.0, 1.0)))
    ds = encode_and_normalize(table, "Y")
    assert ds.X[:, 0].tolist() == [0.0, 1.0, 1.0]
    assert ds.norm_stats.features[0].kind == BOOLEAN


def test_encode_target_z_scores():
    table = table_of_rows(("Y", "X"),
                          ((60.0, 0.0), (80.0, 1.0), (100.0, 2.0)))
    ds = encode_and_normalize(table, "Y")
    assert ds.norm_stats.target.mean == 80.0
    # population std of {60, 80, 100} is sqrt(800/3), so the
    # encoded extremes are +-20/sqrt(800/3) = +-sqrt(1.5)
    assert ds.norm_stats.target.std == pytest.approx(math.sqrt(800.0 / 3.0))
    assert ds.y.tolist() == pytest.approx(
        [-math.sqrt(1.5), 0.0, math.sqrt(1.5)])


def test_encoded_columns_are_standardized():
    table = generate_paving_dataset(500, 9)
    ds = encode_and_normalize(table, "Productivity")
    for i, stats in enumerate(ds.norm_stats.features):
        col = ds.X[:, i]
        if stats.kind == NUMERIC:
            assert abs(col.mean()) < 1e-9
            assert abs(col.std() - 1.0) < 1e-9
        else:
            assert set(np.unique(col)) <= {0.0, 1.0}
    assert abs(ds.y.mean()) < 1e-9
    assert abs(ds.y.std() - 1.0) < 1e-9


def test_generated_truth_columns_are_not_features():
    table = generate_paving_dataset(50, 2, include_truth=True)
    ds = encode_and_normalize(table, "Productivity")
    assert tuple(c.name for c in ds.norm_stats.features) == PAVING_COLUMNS[1:]


@pytest.mark.parametrize("rows,message", [
    (((1.0, 2.0), (2.0, 2.0)), "constant"),
    (((1.0, None), (2.0, 3.0)), "missing"),
    (((1.0, math.nan), (2.0, 3.0)), "non-finite"),
])
def test_encode_rejects_bad_feature_columns(rows, message):
    table = table_of_rows(("Y", "X"), rows)
    with pytest.raises(DataError, match=message):
        encode_and_normalize(table, "Y")


def paving_table(names):
    """A 30-row synth table with the answer key, a numeric ``CrewSize`` and
    the text columns ``Scenario`` and ``Condition``, as the columns `names`."""
    table = generate_paving_dataset(30, 4, include_truth=True)
    columns = dict(zip(table.column_names, table.columns))
    columns.update(CrewSize=[float(2 + i % 5) for i in range(30)],
                   Scenario=[f"s{i}" for i in range(30)],
                   Condition=["dry", "wet"] * 15)
    return RecordTable(tuple(names), [columns[n] for n in names], 30)


@pytest.mark.parametrize("names, features", [
    (PAVING_COLUMNS + ("CrewSize",), PAVING_COLUMNS[1:] + ("CrewSize",)),
    (PAVING_COLUMNS + TRUTH_COLUMNS, PAVING_COLUMNS[1:]),
    (("Scenario",) + PAVING_COLUMNS, PAVING_COLUMNS[1:]),
    (PAVING_COLUMNS[::-1], PAVING_COLUMNS[:0:-1]),
], ids=["extra-numeric", "answer-key", "label", "reordered"])
def test_features_are_every_column_but_the_target_and_not_data(names,
                                                               features):
    # the nine condition attributes were the features whenever all were
    # present, in canonical order, and every other column was dropped
    ds = encode_and_normalize(paving_table(names), "Productivity")
    assert tuple(c.name for c in ds.norm_stats.features) == features


def test_encode_rejects_categorical_feature_and_constant_target():
    # a text column is data, so a feature, and refused as one: beside the
    # nine condition attributes too
    for table in (table_of_rows(("Y", "Condition"), ((1.0, "a"), (2.0, "b"))),
                  paving_table(PAVING_COLUMNS + ("Condition",))):
        with pytest.raises(DataError, match="categorical column 'Condition' "
                                            "is not supported as a feature"):
            encode_and_normalize(table, table.column_names[0])
    flat = table_of_rows(("Y", "X"), ((2.0, 1.0), (2.0, 3.0)))
    with pytest.raises(DataError, match="constant"):
        encode_and_normalize(flat, "Y")


def test_a_constant_column_is_named_by_its_role():
    flat_target = table_of_rows(("Productivity", "Slump"),
                                ((2.0, 1.0), (2.0, 3.0)))
    with pytest.raises(DataError, match="^target column 'Productivity' is "
                                        "constant$"):
        encode_and_normalize(flat_target, "Productivity")
    flat_feature = table_of_rows(("Productivity", "Slump"),
                                 ((1.0, 3.0), (2.0, 3.0)))
    with pytest.raises(DataError, match="^" + re.escape(
            "column 'Slump' is constant (std 0) and cannot be z-scored") + "$"):
        encode_and_normalize(flat_feature, "Productivity")


def test_encode_rejects_target_as_feature_and_empty_table():
    # a target among the nine trains on the other columns; statistics
    # whose target is also one of their features are refused
    table = generate_paving_dataset(20, 3)
    ds = encode_and_normalize(table, "Slump")
    assert tuple(c.name for c in ds.norm_stats.features) == tuple(
        c for c in PAVING_COLUMNS if c != "Slump")
    stats = encode_and_normalize(table, "Productivity").norm_stats
    slump = next(c for c in stats.features if c.name == "Slump")
    with pytest.raises(DataError, match="^target 'Slump' cannot also be a "
                                        "feature$"):
        NormalizationStats(stats.features, slump)
    empty = table_of_rows(("Y", "X"), ())
    with pytest.raises(DataError, match="empty"):
        encode_and_normalize(empty, "Y")


@pytest.mark.parametrize("target", sorted(NOT_DATA))
def test_encode_refuses_a_target_that_is_never_data(target):
    # --target MuStar trained a model of the answer key, with Productivity
    # among its features; a blank MuStar cell, which clean leaves as it
    # is, gave "still has missing cells; clean the table first"
    table = generate_paving_dataset(20, 3, include_truth=True)
    names = table.column_names + (target,) * (target not in table.column_names)
    cells = [(*row, None)[:len(names)] for row in rows_of(table)]
    for table in (table_of_rows(names, cells),
                  table_of_rows(names, [(None,) * len(names), *cells[1:]])):
        with pytest.raises(DataError, match=f"^column {target!r} is never "
                           r"data \(the answer key or a label\), so it "
                           "cannot be the target$"):
            encode_and_normalize(table, target)


@pytest.mark.parametrize("target", sorted(NOT_DATA))
def test_statistics_refuse_a_target_that_is_never_data(target):
    # the rule covers the statistics a dataset or model file loads, not
    # only the table adapt encodes
    stats = encode_and_normalize(generate_paving_dataset(20, 3),
                                 "Productivity").norm_stats
    renamed = ColumnStats(target, NUMERIC, stats.target.mean, stats.target.std)
    with pytest.raises(DataError, match=f"^column {target!r} is never data "
                       r"\(the answer key or a label\), so it cannot be "
                       "the target$"):
        NormalizationStats(stats.features, renamed)


def test_encode_refuses_an_overflowing_std_without_a_warning():
    table = table_of_rows(("Y", "X"), ((1.0, 1e300), (2.0, -1e300)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="std of column 'X' must be a "
                                            "finite number >= 0, got inf"):
            encode_and_normalize(table, "Y")


def test_column_stats_round_trip_identity():
    stats = ColumnStats(name="X", kind=NUMERIC, mean=78.9775, std=11.5816)
    for value in (0.0, 66.08, -3.5, 1e6, 0.1 + 0.2):
        assert stats.decode(stats.encode(value)) == pytest.approx(
            value, abs=1e-12 * max(1.0, abs(value)))
    indicator = ColumnStats(name="B", kind=BOOLEAN, mean=0.3, std=0.46)
    assert indicator.encode(1.0) == 1.0
    assert indicator.decode(0.0) == 0.0


def test_stats_reject_malformed_columns():
    for kind, mean, std, message in (
        ("bogus", 0.0, 1.0,
         "kind of column 'A' must be numeric or boolean, got 'bogus'"),
        (CATEGORICAL, 0.0, 1.0,
         "kind of column 'A' must be numeric or boolean, got 'categorical'"),
        (NUMERIC, math.nan, 1.0,
         "mean of column 'A' must be a finite number, got nan"),
        (NUMERIC, 0.0, math.inf,
         "std of column 'A' must be a finite number >= 0, got inf"),
        (BOOLEAN, 0.5, -0.5,
         "std of column 'A' must be a finite number >= 0, got -0.5"),
        (NUMERIC, 3.0, 0.0, "std 0"),
    ):
        with pytest.raises(DataError, match=message):
            ColumnStats("A", kind, mean, std)
    constant = ColumnStats("B", BOOLEAN, 1.0, 0.0)  # an all-ones indicator
    assert constant.encode(1.0) == 1.0
    with pytest.raises(DataError, match="target column 'B' must be numeric"):
        NormalizationStats(features=(), target=constant)


def test_encode_features_orders_by_stats():
    stats = NormalizationStats(
        features=(ColumnStats("A", NUMERIC, 1.0, 2.0),
                  ColumnStats("B", BOOLEAN, 0.0, 1.0)),
        target=ColumnStats("Y", NUMERIC, 0.0, 1.0),
    )
    vec = stats.encode_features({"B": 1.0, "A": 5.0})
    assert vec.tolist() == [2.0, 1.0]


def test_dataset_validation():
    stats = NormalizationStats(
        features=(ColumnStats("A", NUMERIC, 0.0, 1.0),),
        target=ColumnStats("Y", NUMERIC, 0.0, 1.0),
    )
    with pytest.raises(DataError, match="2-D"):
        Dataset(X=np.zeros(3), y=np.zeros(3), norm_stats=stats)
    with pytest.raises(DataError, match="rows"):
        Dataset(X=np.zeros((3, 1)), y=np.zeros(2), norm_stats=stats)
    with pytest.raises(DataError, match="columns"):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(3), norm_stats=stats)
    with pytest.raises(DataError, match="non-finite"):
        Dataset(X=np.full((1, 1), np.inf), y=np.zeros(1), norm_stats=stats)


# ---------------------------------------------------------------- split


def test_split_sizes_floor():
    train_idx, test_idx = split_indices(406, 0.8, 1)
    assert len(train_idx) == 324
    assert len(test_idx) == 82


def test_split_deterministic():
    def sides(seed):
        return [side.tolist() for side in split_indices(100, 0.8, seed)]

    assert sides(7) == sides(7)
    assert sides(7) != sides(8)


def test_split_smallest_case():
    train_idx, test_idx = split_indices(2, 0.5, 3)
    assert sorted([*train_idx, *test_idx]) == [0, 1]
    assert len(train_idx) == 1


def test_split_partition_property_all_small_n():
    for n in range(2, 201):
        train_idx, test_idx = split_indices(n, 0.8, n)
        assert len(train_idx) == int(n * 0.8)
        assert set(train_idx) | set(test_idx) == set(range(n))
        assert set(train_idx) & set(test_idx) == set()
        assert list(train_idx) == sorted(train_idx)
        assert list(test_idx) == sorted(test_idx)


def test_split_indices_are_the_sorted_permutation():
    for n, seed in [(2, 0), (17, 3), (1000, 9)]:
        perm = np.random.default_rng(seed).permutation(n)
        k = int(n * 0.7)
        train_idx, test_idx = split_indices(n, 0.7, seed)
        assert train_idx.tolist() == sorted(perm[:k].tolist())
        assert test_idx.tolist() == sorted(perm[k:].tolist())
        assert train_idx.dtype.kind == test_idx.dtype.kind == "i"


def test_split_rejects_degenerate_fractions():
    with pytest.raises(DataError):
        split_indices(10, 0.0, 1)
    with pytest.raises(DataError):
        split_indices(10, 1.0, 1)
    with pytest.raises(DataError, match="empty side"):
        split_indices(2, 0.4, 1)
    with pytest.raises(DataError, match="at least 2"):
        split_indices(1, 0.5, 1)


def test_split_dataset_carries_stats_and_rows():
    table = generate_paving_dataset(50, 4)
    ds = encode_and_normalize(table, "Productivity")
    train_ds, test_ds = split(ds, 0.8, 12)
    assert train_ds.n == 40
    assert test_ds.n == 10
    assert train_ds.norm_stats == ds.norm_stats
    train_idx, test_idx = split_indices(50, 0.8, 12)
    assert np.array_equal(train_ds.X, ds.X[train_idx])
    assert np.array_equal(test_ds.y, ds.y[test_idx])


# --------------------------------------------------- dataset_with_stats


def test_dataset_with_stats_matches_fresh_encoding():
    table = generate_paving_dataset(40, 6)
    ds = encode_and_normalize(table, "Productivity")
    again = dataset_with_stats(table, ds.norm_stats)
    assert np.array_equal(again.X, ds.X)
    assert np.array_equal(again.y, ds.y)


def test_dataset_with_stats_rejects_bad_tables():
    table = generate_paving_dataset(5, 6)
    ds = encode_and_normalize(table, "Productivity")
    empty = table_of_rows(table.column_names, ())
    with pytest.raises(DataError, match="no rows"):
        dataset_with_stats(empty, ds.norm_stats)
    first = rows_of(table)[0]
    holey = table_of_rows(table.column_names,
                          (first[:1] + (None,) + first[2:],))
    with pytest.raises(DataError, match="missing"):
        dataset_with_stats(holey, ds.norm_stats)


def test_dataset_with_stats_reads_only_the_columns_it_encodes():
    table = generate_paving_dataset(20, 6, include_truth=True)
    ds = encode_and_normalize(table, "Productivity")
    blank = table.column_index("MuStar")
    holey = table_of_rows(table.column_names, (
        row[:blank] + (None,) + row[blank + 1:] for row in rows_of(table)))
    again = dataset_with_stats(holey, ds.norm_stats)
    assert np.array_equal(again.X, ds.X)
    assert np.array_equal(again.y, ds.y)
    first, *rest = rows_of(table)
    slump = table_of_rows(table.column_names,
                          [first[:1] + (None,) + first[2:], *rest])
    with pytest.raises(DataError, match="column 'Slump' still has missing"):
        dataset_with_stats(slump, ds.norm_stats)


def test_dataset_with_stats_names_an_absent_feature_column():
    table = generate_paving_dataset(5, 6)
    ds = encode_and_normalize(table, "Productivity")
    keep = [i for i, name in enumerate(table.column_names) if name != "Slump"]
    narrow = RecordTable(tuple(table.column_names[i] for i in keep),
                         [table.columns[i] for i in keep], table.num_rows)
    with pytest.raises(DataError, match="no column named 'Slump'"):
        dataset_with_stats(narrow, ds.norm_stats)
