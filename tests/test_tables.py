import io
import math
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pavesim.errors import DataError
from pavesim.tables import (
    BOOLEAN,
    CATEGORICAL,
    NUMERIC,
    PAVING_COLUMNS,
    RecordTable,
    check_value,
    kind_of,
    load_csv,
    open_text,
    read_csv,
    read_json,
    staged_files,
    table_to_csv,
    write_text,
)

HEADER = ",".join(PAVING_COLUMNS)
PAVING_KINDS = (NUMERIC, NUMERIC, BOOLEAN, BOOLEAN) + (NUMERIC,) * 6


def write_text_atomic(path, text):
    """Write `text` to `path` as the one file of ``staged_files``."""
    with staged_files() as stage:
        stage(path, text)


def test_read_csv_parses_schema_row():
    text = HEADER + "\n66.08,3.0,1,0,4.6,5.3,59.6,-0.7880,0.001,4.0\n"
    table = read_csv(io.StringIO(text))
    assert table.num_rows == 1
    assert table.column_kinds == PAVING_KINDS
    row = table.rows[0]
    assert row[0] == 66.08
    assert row[1] == 3.0
    assert row[2] == 1.0
    assert row[3] == 0.0
    assert row[-1] == 4.0


def test_read_csv_header_only_gives_zero_rows():
    table = read_csv(io.StringIO(HEADER + "\n"))
    assert table.num_rows == 0
    assert table.column_names == PAVING_COLUMNS


def test_read_csv_ragged_row_names_the_row():
    text = HEADER + "\n1,2,0,0,4,5,6,7,8,9\n1,2,0,0,4,5,6,7,8\n"
    with pytest.raises(DataError, match="row 1"):
        read_csv(io.StringIO(text))


def test_read_csv_bad_numeric_cell_names_row_and_column():
    text = HEADER + "\nabc,3.0,1,0,4.6,5.3,59.6,-0.7,0.001,4.0\n"
    with pytest.raises(DataError, match="row 0.*'Productivity'"):
        read_csv(io.StringIO(text))


def test_read_csv_rejects_non_binary_boolean_cell():
    text = HEADER + "\n66.0,3.0,2,0,4.6,5.3,59.6,-0.7,0.001,4.0\n"
    with pytest.raises(DataError, match="Congestion"):
        read_csv(io.StringIO(text))


def test_read_csv_skips_comment_lines_anywhere():
    text = "# audit line\n" + HEADER + "\n# mid comment\n" \
        "66.0,3.0,1,0,4.6,5.3,59.6,-0.7,0.001,4.0\n"
    table = read_csv(io.StringIO(text))
    assert table.num_rows == 1


def test_read_csv_empty_cell_becomes_missing():
    text = HEADER + "\n66.0,,1,0,4.6,5.3,59.6,-0.7,0.001,4.0\n"
    table = read_csv(io.StringIO(text))
    assert table.rows[0][1] is None


def test_read_csv_unknown_header_is_all_numeric():
    table = read_csv(io.StringIO("A,B\n1,2\n"))
    assert table.column_kinds == (NUMERIC, NUMERIC)


def test_read_csv_extra_columns_after_schema_are_numeric():
    text = HEADER + ",MuStar,SigmaStar\n" \
        "66.0,3.0,1,0,4.6,5.3,59.6,-0.7,0.001,4.0,65.0,2.0\n"
    table = read_csv(io.StringIO(text))
    assert table.column_kinds == PAVING_KINDS + (NUMERIC, NUMERIC)


def test_read_csv_kinds_come_from_names_in_any_order():
    # kinds were read from a header prefix: a reordered or keyed canonical
    # header was all numeric, and a Scenario label could not load
    names = ("JobId", "Scenario") + PAVING_COLUMNS[::-1]
    table = read_csv(io.StringIO(",".join(names) + "\n"
                                 "7,best,4.0,0.001,-0.7,59.6,5.3,4.6,0,1,3.0,66.0\n"))
    assert table.column_kinds == (NUMERIC, CATEGORICAL) + PAVING_KINDS[::-1]
    assert table.rows[0][:2] == (7.0, "best")
    with pytest.raises(DataError, match="boolean column 'Spreader' holds 2.0"):
        read_csv(io.StringIO(",".join(names) + "\n"
                             "7,best,4.0,0.001,-0.7,59.6,5.3,4.6,2,1,3.0,66.0\n"))


def test_kind_of_reads_the_name_alone():
    assert [kind_of(c) for c in PAVING_COLUMNS] == list(PAVING_KINDS)
    assert kind_of("Scenario") == CATEGORICAL
    assert kind_of("MuStar") == kind_of("congestion") == NUMERIC


def test_read_csv_skips_a_trailing_blank_line():
    table = read_csv(io.StringIO("Y,X\n1,2\n3,4\n5,6\n7,8\n9,10\n\n"))
    assert table.num_rows == 5
    assert table.rows[-1] == (9.0, 10.0)


def test_read_csv_skips_a_blank_line_mid_file():
    table = read_csv(io.StringIO("Y,X\n1,2\n\n3,4\n"))
    assert table.rows == ((1.0, 2.0), (3.0, 4.0))
    # later errors still number the table's rows, not the file's lines
    with pytest.raises(DataError, match="cell 'x' in row 2"):
        read_csv(io.StringIO("Y,X\n1,2\n\n3,4\nx,5\n"))
    with pytest.raises(DataError, match="row 1 has 1 cells"):
        read_csv(io.StringIO("Y,X\n\n1,2\n\n3\n"))


def test_read_csv_skips_blank_lines_before_the_header():
    table = read_csv(io.StringIO("\nY,X\n1,2\n"))
    assert table.column_names == ("Y", "X")
    assert table.rows == ((1.0, 2.0),)
    table = read_csv(io.StringIO("\n# note\n\nY,X\n\n1,2\n"))
    assert table.rows == ((1.0, 2.0),)


def test_read_csv_no_header_is_an_error():
    with pytest.raises(DataError, match="header"):
        read_csv(io.StringIO(""))
    with pytest.raises(DataError, match="header"):
        read_csv(io.StringIO("\n# only a comment\n\n"))


def test_load_csv_names_a_file_with_no_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only a comment\n\n")
    with pytest.raises(DataError, match=re.escape(
            f"file has no header row: {path}")):
        load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_csv(tmp_path / "nope.csv")


# -------------------------------------------------------------- file door


def test_open_text_reports_a_directory(tmp_path):
    with pytest.raises(DataError, match=re.escape(
            f"cannot read {tmp_path}: Is a directory")):
        load_csv(tmp_path)


@pytest.mark.parametrize("data", [
    b"Y,X\n1,\xff2\n",        # a lone continuation byte
    b"Y,X\n1,2\xc3\n",        # a character cut short at the end
    b"# \xe9t\xe9\nY,X\n",    # Latin-1 in a comment line
])
def test_open_text_refuses_text_that_is_not_utf8(tmp_path, data):
    path = tmp_path / "latin.csv"
    path.write_bytes(data)
    with pytest.raises(DataError, match=re.escape(f"{path} is not UTF-8 text: ")):
        load_csv(path)
    with pytest.raises(DataError, match="is not UTF-8 text"):
        read_json(path)


def test_open_text_reads_utf8_and_keeps_line_ends(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes("Scenario,Y\r\nbeté,1\r\n".encode())
    with open_text(path) as stream:
        assert stream.read() == "Scenario,Y\r\nbeté,1\r\n"
    table = load_csv(path)
    assert table.rows == (("beté", 1.0),)


def test_read_json_drops_comment_lines(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('# audit\n{"a":\n# inside\n 1}\n')
    assert read_json(path) == {"a": 1}


@pytest.mark.parametrize("text, message", [
    ("{not json", "is not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
    ("# only a comment\n", "is not valid JSON"),
    ("[" * 100_000, "is not valid JSON"),                 # too deep to parse
    ('{"a": ' + "1" * 5000 + "}", "is not valid JSON"),  # too long an int
])
def test_read_json_refuses_what_is_not_an_object(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        read_json(path)


def test_read_json_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        read_json(tmp_path / "gone.json")


@pytest.mark.parametrize("where",
                         ["missing directory", "directory", "empty path"])
def test_write_text_atomic_reports_an_unwritable_path(tmp_path, monkeypatch,
                                                      where):
    target = tmp_path / "out"
    if where == "directory":
        target.mkdir()
    elif where == "empty path":  # ".", which has no name to put a temp beside
        monkeypatch.chdir(tmp_path)
        target = Path("")
    else:
        target = target / "x.csv"
    with pytest.raises(DataError, match=re.escape(f"cannot write {target}: ")):
        write_text_atomic(target, "text")
    assert [p.name for p in tmp_path.rglob("*")] == (
        ["out"] if where == "directory" else [])


def test_write_text_atomic_writes_utf8(tmp_path):
    path = tmp_path / "u.csv"
    write_text_atomic(path, "beté\n")
    assert path.read_bytes() == "beté\n".encode()


def test_a_failed_write_to_a_staged_file_names_its_path(tmp_path):
    target = tmp_path / "sub" / "x.csv"
    target.parent.mkdir()
    with pytest.raises(DataError, match=re.escape(f"cannot write {target}: ")):
        with staged_files() as stage:
            tmp = stage(target)
            tmp.unlink()
            target.parent.rmdir()
            write_text(tmp, "text")
    assert not list(tmp_path.iterdir())


def test_record_table_rejects_duplicate_names():
    with pytest.raises(DataError, match="unique"):
        RecordTable(("A", "A"), (NUMERIC, NUMERIC), ())


def test_record_table_rejects_ragged_rows():
    with pytest.raises(DataError, match="row 0"):
        RecordTable(("A", "B"), (NUMERIC, NUMERIC), ((1.0,),))


def test_record_table_rejects_unknown_kind():
    with pytest.raises(DataError, match="unknown kind"):
        RecordTable(("A",), ("weird",), ())


def test_record_table_rejects_non_binary_boolean():
    with pytest.raises(DataError, match="boolean"):
        RecordTable(("A",), (BOOLEAN,), ((0.5,),))


def test_record_table_boolean_allows_missing():
    table = RecordTable(("A",), (BOOLEAN,), ((None,), (1.0,)))
    assert table.rows[0][0] is None


def test_column_lookup_and_missing_column():
    table = RecordTable(("A", "B"), (NUMERIC, BOOLEAN), ((1.0, 0.0),))
    assert table.column_index("B") == 1
    assert table.column_kind("B") == BOOLEAN
    assert table.column_values("A") == [1.0]
    with pytest.raises(DataError, match="no column named 'C'"):
        table.column_index("C")


def snake_case(name):
    """``AirEntrainment`` -> ``air_entrainment``: the ids below keep the
    names these cases were first reported under."""
    return re.sub(r"(?<=[a-z])(?=[A-Z])", "_", name).lower()


@pytest.mark.parametrize("field,value,message", [
    ("Congestion", 2.0, "Congestion"),
    ("Spreader", 0.5, "Spreader"),
    ("Humidity", 101.0, "Humidity"),
    ("Humidity", -1.0, "Humidity"),
    ("AirEntrainment", -0.1, "AirEntrainment"),
    ("PaverAge", -1.0, "PaverAge"),
    ("Slope", math.inf, "finite"),
], ids=lambda v: snake_case(v) if isinstance(v, str) else None)
def test_scenario_features_invariants(field, value, message):
    with pytest.raises(DataError, match=message):
        check_value(field, kind_of(field), value)


@pytest.mark.parametrize("name, value", [
    ("Humidity", 0), ("Humidity", 100), ("AirEntrainment", 0.0),
    ("PaverAge", 0), ("Congestion", 1), ("Spreader", 0.0),
    ("Load", -1e300), ("Slope", -4.0),
])
def test_check_value_accepts_a_value_at_its_bounds_as_a_float(name, value):
    checked = check_value(name, kind_of(name), value)
    assert checked == value and type(checked) is float


@pytest.mark.parametrize("name, value, message", [
    ("Humidity", 160.1, "Humidity must be a finite number >= 0 and <= 100, "
                        "got 160.1"),
    ("AirEntrainment", -4.5, "AirEntrainment must be a finite number >= 0, "
                             "got -4.5"),
    ("PaverAge", -1, "PaverAge must be a finite number >= 0, got -1"),
    ("Congestion", 2, "Congestion must be 0 or 1, got 2.0"),
    ("Spreader", True, "Spreader must be a finite number, got True"),
    ("Load", "3", "Load must be a finite number, got '3'"),
])
def test_check_value_states_the_rule_of_the_column(name, value, message):
    with pytest.raises(DataError) as info:
        check_value(name, kind_of(name), value)
    assert str(info.value) == message


def test_format_cell_conventions():
    table = RecordTable(
        ("A", "B", "C", "D"), (NUMERIC, BOOLEAN, CATEGORICAL, NUMERIC),
        ((None, 1.0, "rainy", 0.1 + 0.2),))
    missing, flag, label, number = table_to_csv(table).splitlines()[1].split(",")
    assert missing == ""
    assert flag == "1"
    assert label == "rainy"
    # repr floats round-trip exactly
    assert float(number) == 0.1 + 0.2


def test_csv_round_trip_is_exact(tmp_path):
    table = RecordTable(
        ("Scenario", "Slump", "Spreader"),
        (CATEGORICAL, NUMERIC, BOOLEAN),
        (("rainy", 0.1 + 0.2, 1.0), ("sunny", -17.25, 0.0), ("windy", None, 1.0)),
    )
    path = tmp_path / "t.csv"
    path.write_text(table_to_csv(table, header_comments=("written by a test",)))
    back = load_csv(path)
    assert back == table


def test_table_to_csv_comment_header_lines():
    table = RecordTable(("A",), (NUMERIC,), ((1.0,),))
    text = table_to_csv(table, header_comments=("one", "two"))
    assert text.startswith("# one\n# two\nA\n")


# ---------------------------------------------------- writer properties

#: Cells a numeric column may hold: anything a float can be, and missing.
NUMERIC_CELLS = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                     -2.2250738585072014e-308, 0.1 + 0.2]),
)
#: Categorical text with no CSV syntax: no separator, quote, line break
#: or leading ``#``, and no edge whitespace, which the reader strips.
CATEGORICAL_CELLS = st.one_of(st.none(), st.text(
    alphabet="abcXYZ019._-+:;/ ", min_size=1, max_size=8,
).map(str.strip).filter(bool))
CELLS = {
    NUMERIC: NUMERIC_CELLS,
    BOOLEAN: st.sampled_from([None, 0.0, 1.0]),
    CATEGORICAL: CATEGORICAL_CELLS,
}


#: Column names of each kind; a read takes a column's kind from its name.
NAMES = ("c0", "c1", "c2", "Congestion", "Spreader", "Scenario")


@st.composite
def tables(draw):
    names = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=1,
                                max_size=5, unique=True)))
    kinds = tuple(map(kind_of, names))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=8))
    return RecordTable(names, kinds, tuple(rows))


def same_cell(written, read):
    if written is None or isinstance(written, str):
        return read == written and type(read) is type(written)
    if math.isnan(written):
        return isinstance(read, float) and math.isnan(read)
    return struct.pack("<d", written) == struct.pack("<d", read)


@settings(max_examples=150, deadline=None)
@given(table=tables())
def test_written_tables_read_back_bit_for_bit(table):
    back = read_csv(io.StringIO(table_to_csv(table, ("a comment",))))
    assert back.column_names == table.column_names
    assert back.num_rows == table.num_rows
    for written, read in zip(table.rows, back.rows):
        assert all(map(same_cell, written, read)), (written, read)
