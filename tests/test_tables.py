import codecs
import csv
import io
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pavesim import tables as tables_module
from pavesim.errors import DataError
from pavesim.tables import (
    BOOLEAN,
    CATEGORICAL,
    NUMERIC,
    PAVING_COLUMNS,
    RecordTable,
    check_value,
    csv_text,
    json_chunks,
    kind_of,
    load_csv,
    open_text,
    read_csv,
    read_json,
    staged_files,
    table_to_csv,
    write_text,
)
from table_helpers import rows_of, table_of_rows

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
    row = rows_of(table)[0]
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
    assert table.column_values("Slump")[0] is None


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
    assert rows_of(table)[0][:2] == (7.0, "best")
    with pytest.raises(DataError, match="boolean column 'Spreader' holds 2.0"):
        read_csv(io.StringIO(",".join(names) + "\n"
                             "7,best,4.0,0.001,-0.7,59.6,5.3,4.6,2,1,3.0,66.0\n"))


def test_read_csv_reads_the_key_column_as_text():
    # a text key was refused as "not numeric" before the join saw it, and
    # keys compare as written: 1 and 1.0 are two keys, and nan one key
    text = "JobId,X\nj0,1\n1,2\n 1.0 ,3\nnan,4\n,5\n"
    table = read_csv(io.StringIO(text), lambda name: name != "JobId")
    assert table.column_values("JobId") == ("j0", "1", "1.0", "nan", None)
    assert table.column_values("X") == (1.0, 2.0, 3.0, 4.0, 5.0)
    with pytest.raises(DataError, match="cell 'j0' in row 0, column 'JobId' "
                                        "is not numeric"):
        read_csv(io.StringIO(text))


def test_read_csv_reads_the_columns_it_does_not_parse_as_text():
    # a column no command reads is text, whatever its name's kind, so a
    # note or an out-of-range flag there cannot fail the load; the
    # columns parsed keep their kinds and their refusals
    text = "Y,Notes,Congestion,X\n1,ok,2,4\n3,,0.5,x\n"
    table = read_csv(io.StringIO(text), {"Y"}.__contains__)
    assert rows_of(table) == ((1.0, "ok", "2", "4"), (3.0, None, "0.5", "x"))
    with pytest.raises(DataError, match="cell 'x' in row 1, column 'X' is "
                                        "not numeric"):
        read_csv(io.StringIO(text), {"Y", "X"}.__contains__)


def test_kind_of_reads_the_name_alone():
    assert [kind_of(c) for c in PAVING_COLUMNS] == list(PAVING_KINDS)
    assert kind_of("Scenario") == CATEGORICAL
    assert kind_of("MuStar") == kind_of("congestion") == NUMERIC


def test_read_csv_skips_a_trailing_blank_line():
    table = read_csv(io.StringIO("Y,X\n1,2\n3,4\n5,6\n7,8\n9,10\n\n"))
    assert table.num_rows == 5
    assert rows_of(table)[-1] == (9.0, 10.0)


def test_read_csv_skips_a_blank_line_mid_file():
    table = read_csv(io.StringIO("Y,X\n1,2\n\n3,4\n"))
    assert rows_of(table) == ((1.0, 2.0), (3.0, 4.0))
    # later errors still number the table's rows, not the file's lines
    with pytest.raises(DataError, match="cell 'x' in row 2"):
        read_csv(io.StringIO("Y,X\n1,2\n\n3,4\nx,5\n"))
    with pytest.raises(DataError, match="row 1 has 1 cells"):
        read_csv(io.StringIO("Y,X\n\n1,2\n\n3\n"))


def test_read_csv_names_a_bad_cell_before_a_failed_read():
    # rows are read in blocks; a read that fails within a block must not
    # hide a fault in the rows read before it
    def lines(bad):
        yield "Y,X\n"
        yield f"1,{bad}\n"
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
    with pytest.raises(DataError, match="cell 'x' in row 0, column 'X'"):
        read_csv(lines("x"))
    with pytest.raises(UnicodeDecodeError):
        read_csv(lines("2"))


def test_read_csv_names_the_file_and_row_that_csv_cannot_read(tmp_path):
    big = "9" * (csv.field_size_limit() + 1)
    path = tmp_path / "big.csv"
    for text, message in [
            (f"Y,X\n1,2\n3,{big}\n", f"cannot read row 1 of {path}: "),
            (f"Y,{big}\n1,2\n", f"cannot read the header row of {path}: "),
            # a fault in a row read before it, in the same block, comes first
            (f"Y,X\n1,x\n3,{big}\n", "cell 'x' in row 0, column 'X'")]:
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv(path)


def test_read_csv_skips_blank_lines_before_the_header():
    table = read_csv(io.StringIO("\nY,X\n1,2\n"))
    assert table.column_names == ("Y", "X")
    assert rows_of(table) == ((1.0, 2.0),)
    table = read_csv(io.StringIO("\n# note\n\nY,X\n\n1,2\n"))
    assert rows_of(table) == ((1.0, 2.0),)


def test_read_csv_no_header_is_an_error():
    with pytest.raises(DataError, match="header"):
        read_csv(io.StringIO(""))
    with pytest.raises(DataError, match="header"):
        read_csv(io.StringIO("\n# only a comment\n\n"))


@pytest.mark.parametrize("header, column", [
    (",Productivity,Slump", 0), ("Productivity, ,Slump", 1),
    ('Productivity,Slump,""', 2), ("", None)])
def test_read_csv_refuses_a_blank_column_name(header, column):
    # a spreadsheet's or pandas.to_csv's unnamed index column was read as a
    # column named "", and adapt trained on it
    text = f"# audit\n{header}\n1,60,3.5\n"
    if column is None:  # a header of one quoted blank cell
        text = '""\n1\n'
        column = 0
    with pytest.raises(DataError,
                       match=f"^column {column} of stream has no name$"):
        read_csv(io.StringIO(text))


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
    # a leading byte-order mark, as spreadsheet exports write, is skipped
    path = tmp_path / "t.csv"
    for mark in (b"", codecs.BOM_UTF8):
        path.write_bytes(mark + "Scenario,Y\r\nbeté,1\r\n".encode())
        with open_text(path) as stream:
            assert stream.read() == "Scenario,Y\r\nbeté,1\r\n"
        table = load_csv(path)
        assert table.column_names == ("Scenario", "Y")
        assert rows_of(table) == (("beté", 1.0),)


def test_read_json_drops_comment_lines(tmp_path):
    path = tmp_path / "c.json"
    for mark in (b"", codecs.BOM_UTF8):
        path.write_bytes(mark + b'# audit\n{"a":\n# inside\n 1}\n')
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
        RecordTable(("A", "A"), ((), ()), 0)


def test_record_table_rejects_ragged_rows():
    # a table holds columns: one shorter than the rest is refused, and a
    # short row, which only a CSV can hold, is refused by read_csv
    with pytest.raises(DataError, match=re.escape(
            "2 columns of 1 cells expected, got columns of [1, 0] cells")):
        RecordTable(("A", "B"), ((1.0,), ()), 1)
    with pytest.raises(DataError, match="^row 0 has 1 cells, expected 2$"):
        read_csv(io.StringIO("A,B\n1\n"))


def test_read_csv_checks_booleans_by_the_kind_a_cell_is_read_as():
    with pytest.raises(DataError, match=r"^boolean column 'Congestion' holds "
                       r"0\.5 in row 1; only 0 and 1 are allowed$"):
        read_csv(io.StringIO("Congestion\n1\n0.5\n"))
    # a key is read as text, so a boolean name does not hold it to 0 and 1
    table = read_csv(io.StringIO("Spreader,A\n1,5\n2,6\n"),
                     lambda name: name != "Spreader")
    assert rows_of(table) == (("1", 5.0), ("2", 6.0))


def test_record_table_boolean_allows_missing():
    table = table_of_rows(("Congestion",), ((None,), (1.0,)))
    assert table.column_values("Congestion")[0] is None


def test_column_lookup_and_missing_column():
    table = table_of_rows(("A", "Congestion"), ((1.0, 0.0),))
    assert table.column_index("Congestion") == 1
    assert table.column_kinds == (NUMERIC, BOOLEAN)
    assert table.column_kind("Congestion") == BOOLEAN
    assert table.column_values("A") == (1.0,)
    for lookup in (table.column_index, table.column_kind):
        with pytest.raises(DataError, match="no column named 'C'"):
            lookup("C")


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
    table = table_of_rows(("A", "Congestion", "Scenario", "D"),
                          ((None, 1.0, "rainy", 0.1 + 0.2),))
    missing, flag, label, number = table_to_csv(table).splitlines()[1].split(",")
    assert missing == ""
    assert flag == "1"
    assert label == "rainy"
    # repr floats round-trip exactly
    assert float(number) == 0.1 + 0.2


def test_csv_round_trip_is_exact(tmp_path):
    table = table_of_rows(
        ("Scenario", "Slump", "Spreader"),
        (("rainy", 0.1 + 0.2, 1.0), ("sunny", -17.25, 0.0), ("windy", None, 1.0)),
    )
    path = tmp_path / "t.csv"
    path.write_text(table_to_csv(table, header_comments=("written by a test",)))
    back = load_csv(path)
    assert back == table


def test_table_to_csv_comment_header_lines():
    table = table_of_rows(("A",), ((1.0,),))
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
#: Categorical text, CSV syntax included (separator, quote, leading
#: ``#``), but no line break and no edge whitespace, which the reader
#: strips.
CATEGORICAL_CELLS = st.one_of(st.none(), st.text(
    alphabet='abcXYZ019._-+:;/ ,"#', min_size=1, max_size=8,
).map(str.strip).filter(bool))
CELLS = {
    NUMERIC: NUMERIC_CELLS,
    BOOLEAN: st.sampled_from([None, 0.0, 1.0]),
    CATEGORICAL: CATEGORICAL_CELLS,
}
#: The same cells with none missing, and numeric cells that may be numpy
#: floats, which the writer must not write as ``np.float64(...)``.
FILLED_CELLS = {
    NUMERIC: NUMERIC_CELLS.filter(lambda v: v is not None).flatmap(
        lambda v: st.sampled_from([v, np.float64(v)])),
    BOOLEAN: st.sampled_from([0.0, 1.0]),
    CATEGORICAL: CATEGORICAL_CELLS.filter(bool),
}


#: Column names of each kind; a read takes a column's kind from its name.
NAMES = ("c0", "c1", "c2", "Congestion", "Spreader", "Scenario")


@st.composite
def tables(draw):
    names = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=1,
                                max_size=5, unique=True)))
    kinds = tuple(map(kind_of, names))
    cells = draw(st.sampled_from([CELLS, FILLED_CELLS]))
    rows = draw(st.lists(st.tuples(*(cells[k] for k in kinds)), max_size=8))
    return table_of_rows(names, rows)


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
    for written, read in zip(rows_of(table), rows_of(back)):
        assert all(map(same_cell, written, read)), (written, read)


def csv_writer_bytes(table, header_comments):
    """The table through :func:`csv_text`'s ``csv.writer`` path, a boolean
    cell as an int."""
    rows = [[int(v) if v is not None and kind == BOOLEAN else v
             for v, kind in zip(row, table.column_kinds)]
            for row in rows_of(table)]
    return csv_text(header_comments, table.column_names, rows)


@settings(max_examples=100, deadline=None)
@given(table=tables())
def test_table_to_csv_writes_the_bytes_of_the_csv_writer(table):
    # a table of floats alone takes the "%r" fast path; None, text or a
    # numpy float sends it through csv.writer
    assert (table_to_csv(table, ("a comment",))
            == csv_writer_bytes(table, ("a comment",)))


# -------------------------------------------------- reader against oracle

#: Column names and the kinds a read gives them, written out here.
ORACLE_KINDS = {"c0": NUMERIC, "c1": NUMERIC, "Congestion": BOOLEAN,
                "Spreader": BOOLEAN, "Scenario": CATEGORICAL}
RAW_CELLS = st.sampled_from([
    "", "  ", "0", "1", " 1 ", "2", "-0", "-0.0", "nan", "1e999", "-1e999",
    "3.25", " 0.1 ", "5e-324", "abc", "1,5", '"q"', "1 2", "0x1"])
#: Every such cell is a valid value of every kind.
FILLER_CELLS = st.sampled_from(["", "0", "1", " 1 "])


def read_csv_oracle(text, parse):
    """What reading `text` gives, a row at a time: the column names and
    rows, or the text of the error. Lines that start with "#" and rows
    with no cell are skipped; each cell is stripped; a blank is None; a
    text column keeps its text; any other cell must be a float, and a
    boolean's 0 or 1."""
    lines = [line for line in io.StringIO(text) if not line.startswith("#")]
    records = [r for r in csv.reader(lines) if r != []]
    if not records:
        return "file has no header row: stream"
    names = [name.strip() for name in records[0]]
    rows = []
    for i, record in enumerate(records[1:]):
        if len(record) != len(names):
            return f"row {i} has {len(record)} cells, expected {len(names)}"
        row = []
        for cell, name in zip(record, names):
            cell = cell.strip()
            kind = ORACLE_KINDS[name] if parse(name) else CATEGORICAL
            if cell == "":
                row.append(None)
                continue
            if kind == CATEGORICAL:
                row.append(cell)
                continue
            try:
                value = float(cell)
            except ValueError:
                return (f"cell {cell!r} in row {i}, column {name!r} is not "
                        "numeric")
            if kind == BOOLEAN and value != 0 and value != 1:
                return (f"boolean column {name!r} holds {value!r} in row "
                        f"{i}; only 0 and 1 are allowed")
            row.append(value)
        rows.append(tuple(row))
    return tuple(names), rows


def csv_line(cells):
    body = io.StringIO()
    csv.writer(body, lineterminator="\n").writerow(cells)
    return body.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_read_csv_gives_what_a_row_at_a_time_reader_gives(data):
    names = data.draw(st.lists(st.sampled_from(sorted(ORACLE_KINDS)),
                               min_size=1, max_size=4, unique=True))
    text_names = data.draw(st.sets(st.sampled_from(names)))
    width = len(names)
    row = st.lists(RAW_CELLS, min_size=width, max_size=width)
    ragged = st.lists(RAW_CELLS, max_size=width + 1)
    line = st.one_of(row.map(csv_line), ragged.map(csv_line),
                     st.sampled_from(["# note\n", "\n", "#1,2\n"]))
    head, tail = (data.draw(st.lists(line, max_size=5)) for _ in range(2))
    # a run of valid rows puts a fault of the tail in a later block
    filler = [csv_line(data.draw(st.lists(FILLER_CELLS, min_size=width,
                                          max_size=width)))]
    block = tables_module._BLOCK_ROWS
    filler *= data.draw(st.sampled_from(
        [0, 1, block - 1, block, block + 1, 2 * block - 1, 3 * block + 5]))
    text = "".join([data.draw(st.sampled_from(["", "# audit\n", "\n"])),
                    ",".join(f" {n}" for n in names), "\n",
                    *head, *filler, *tail])
    parse = lambda name: name not in text_names
    expected = read_csv_oracle(text, parse)
    if isinstance(expected, str):
        with pytest.raises(DataError) as info:
            read_csv(io.StringIO(text), parse)
        assert str(info.value) == expected
        return
    table = read_csv(io.StringIO(text), parse)
    assert table.column_names == expected[0]
    assert len(rows_of(table)) == len(expected[1])
    assert all(type(column) is tuple for column in table.columns)
    for read, want in zip(rows_of(table), expected[1]):
        assert all(map(same_cell, want, read))


# ------------------------------------------------------- JSON, both ways

FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e308])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOAT_LISTS = st.lists(FINITE, max_size=5) | st.lists(FLOATS, max_size=5)
MATRICES = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(FINITE, min_size=width, max_size=width)
    | st.lists(FLOATS, min_size=width, max_size=width).map(tuple),
    min_size=1, max_size=4))
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=4)
    | FLOAT_LISTS | MATRICES | st.lists(FLOAT_LISTS, max_size=4)
    | st.lists(FINITE | st.booleans() | st.integers(), max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(payload=PAYLOADS)
def test_json_chunks_write_the_bytes_of_json_dumps(payload):
    # text keys hold non-ASCII and control characters; a bool never reads
    # as a float, nor a ragged matrix as a rectangular one
    assert "".join(json_chunks([], payload)) == (
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def listed(value):
    """`value` with every numpy array as its tolist() and a tuple as a
    list: what json.dumps can write."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: listed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(listed, value))
    return value


BLOCK = tables_module._JSON_BLOCK_ROWS
ARRAY_ROWS = st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1,
                              2 * BLOCK + 3])
ARRAYS = st.one_of(
    ARRAY_ROWS.map(lambda rows: (rows,)),
    st.tuples(ARRAY_ROWS, st.integers(0, 4)),
).flatmap(lambda shape: st.builds(
    # a finite fill takes the block path; a NaN or inf anywhere, the other
    lambda fill, cells: np.array(
        [cells.get(i, fill) for i in range(int(np.prod(shape)))],
        dtype=np.float64).reshape(shape),
    FINITE, st.dictionaries(st.integers(0, max(int(np.prod(shape)) - 1, 0)),
                            FLOATS, max_size=3)))
ARRAY_PAYLOADS = st.recursive(
    ARRAYS | FLOATS | st.none(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(payload=ARRAY_PAYLOADS)
def test_json_chunks_write_an_array_as_json_dumps_writes_its_tolist(payload):
    # 1-D and 2-D float64 arrays: empty, one row, one column, NaN and
    # +-inf, and more rows than one block
    assert "".join(json_chunks(["audit"], payload)) == "# audit\n" + (
        json.dumps(listed(payload), indent=2, sort_keys=True) + "\n")


def test_json_chunks_write_a_large_array_a_block_at_a_time():
    array = np.arange(10 * BLOCK, dtype=np.float64).reshape(-1, 2)
    chunks = list(json_chunks([], {"X": array}))
    assert max(map(len, chunks)) < len("".join(chunks)) / 4
    assert "".join(chunks) == json.dumps({"X": array.tolist()}, indent=2,
                                         sort_keys=True) + "\n"


#: The one-character line breaks of str.splitlines; "\r\n" is the other.
BREAKS = ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]
LINE_TEXT = st.text(st.sampled_from(["a", "#", " ", "{", "é", *BREAKS]),
                    max_size=5)
COMMENT = st.builds("#{}{}".format, LINE_TEXT,
                    st.sampled_from([*BREAKS, "\r\n", ""]))
JSON_TEXT = st.text(st.sampled_from(["a", "#", " ", "é", "\\", *BREAKS]),
                    max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(JSON_TEXT, inner, max_size=3)),
    max_leaves=6)


def json_oracle(path, data: bytes):
    """What reading `data` as a JSON file gives: the object, or the text of
    the error, after every line that starts with "#" is dropped."""
    text = data.decode("utf-8-sig")
    kept = [line for line in text.splitlines(keepends=True)
            if not line.startswith("#")]
    try:
        raw = json.loads("".join(kept))
    except ValueError as exc:
        return f"{path} is not valid JSON: {exc}"
    return raw if isinstance(raw, dict) else f"{path} must hold a JSON object"


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("read_json") / "f.json"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_json_gives_what_dropping_comment_lines_gives(json_path, data):
    head = data.draw(st.lists(COMMENT, max_size=3))
    value = data.draw(st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=3)
                      | JSON_VALUES)
    body = json.dumps(value, indent=data.draw(st.sampled_from([None, 0, 2])),
                      ensure_ascii=data.draw(st.booleans()))
    end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [data.draw(st.sampled_from(["", "# note\n", "#\r"])) + line + end
             for line in body.split("\n")]
    tail = data.draw(st.lists(COMMENT, max_size=2))
    text = "".join(head + ([] if data.draw(st.booleans()) else lines + tail))
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text)))]
    raw = data.draw(st.sampled_from([b"", codecs.BOM_UTF8])) + text.encode()
    json_path.write_bytes(raw)
    expected = json_oracle(json_path, raw)
    if isinstance(expected, str):
        with pytest.raises(DataError) as info:
            read_json(json_path)
        assert str(info.value) == expected
    else:
        assert read_json(json_path) == expected


@pytest.mark.parametrize("line_break", [*BREAKS, "\r\n"])
def test_read_json_ends_a_comment_at_any_line_break(json_path, line_break):
    json_path.write_text(f'# audit{line_break}{{"a": 1}}\n', encoding="utf-8",
                         newline="")
    assert read_json(json_path) == {"a": 1}
