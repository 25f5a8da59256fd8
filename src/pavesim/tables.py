"""Rectangular record tables, and the kind and range of a column by name.

A :class:`RecordTable` is an immutable table of operation records held
by column, a tuple of cells per name; rows are formed only where one is
written (:func:`table_to_csv`, and ``derive`` a scenario at a time).
Cells are floats for numeric and boolean columns (booleans restricted
to 0/1), strings for categorical columns, and ``None`` for missing
values.

The canonical paving CSV layout is one header row::

    Productivity,Slump,Congestion,Spreader,AirEntrainment,Temperature,Humidity,Slope,Curvature,PaverAge

followed by comma-separated rows; missing cells are empty fields. Lines
starting with ``#`` are treated as comments and blank lines are skipped
on load, so files carrying an audit header round-trip cleanly.

A column's kind comes from its name alone (:func:`kind_of`), in any
header order; a table stores no kinds of its own. ``Congestion`` and
``Spreader`` are boolean, the :data:`LABEL_COLUMNS` and ``Condition`` are
categorical, and every other column is numeric; :func:`read_csv` reads as
text a column it is told not to parse, and holds booleans to 0 or 1. The
:data:`NOT_DATA` names are never features, and every other column but
the target is one. A scenario value is checked by its name too
(:func:`check_value`): ``Humidity`` lies in [0, 100], ``AirEntrainment``
and ``PaverAge`` are at least 0, and any value of a boolean feature is 0
or 1.

Reading and writing a CSV run their per-cell steps in C builtins.
:func:`read_csv` parses a few dozen rows at a time by column
(``map(float, ...)`` over a column's cells, and one step per blank) onto
the table's columns; a block with a fault is checked again a cell at a
time, so each refusal names its row and column as a row-at-a-time reader
would. A row ``csv`` cannot read (a cell over its field size limit) and
a blank column name are refused by file. :func:`csv_text` writes a body
of floats and ints alone, with no text and nothing missing, as one ``%``
format per row.

Every JSON artifact has one layout, :func:`json_chunks`, the bytes of
``json.dumps(..., indent=2, sort_keys=True)`` in pieces. A float64
array in the payload becomes text a block of rows at a time, and
:func:`write_text` writes each piece as it comes, so a dataset file,
the largest artifact, is never held whole: building it whole held about
4.4 times its size at once, and it set ``adapt``'s peak memory.

Every file is opened here: each input as UTF-8 (a leading byte-order
mark skipped) by :func:`open_text`, each output by :func:`staged_files`,
which renames a run's outputs into place only once all are written
(:func:`write_text` fills a staged file in place). A missing, unreadable
or non-UTF-8 input and an unwritable output each raise a
:class:`DataError` naming the path the user gave. One window remains:
two renames cannot be one atomic step, so a failed second
``os.replace`` can leave the first file committed.
"""

from __future__ import annotations

import csv
import errno
import io
import itertools
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from operator import methodcaller
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import DataError, check_choice, check_number

Cell = Union[float, str, None]

NUMERIC = "numeric"
BOOLEAN = "boolean"
CATEGORICAL = "categorical"

#: Canonical paving CSV header, in file order. Column 0 is the target.
PAVING_COLUMNS = (
    "Productivity",     # m3/hr
    "Slump",            # cm
    "Congestion",       # 0/1
    "Spreader",         # 0/1
    "AirEntrainment",   # %
    "Temperature",      # degC
    "Humidity",         # %
    "Slope",            # %
    "Curvature",        # 1/m
    "PaverAge",         # years
)

#: The names the tool itself writes that are never data, so never features:
#: the generator's answer key (``synth --truth``) and the label columns of a
#: scenario file, of ``derive``'s output and of ``mixture-demo``'s.
TRUTH_COLUMNS = ("MuStar", "SigmaStar")
SCENARIO_LABEL, DERIVED_LABEL, MIXTURE_LABEL = "Scenario", "scenario", "label"
LABEL_COLUMNS = (SCENARIO_LABEL, DERIVED_LABEL, MIXTURE_LABEL)
NOT_DATA = frozenset(TRUTH_COLUMNS + LABEL_COLUMNS)

#: The kind of each named column, the paving and label columns and
#: ``mixture-demo``'s ``Condition``; :func:`kind_of` reads others as numeric.
KIND_BY_NAME = {**dict.fromkeys(PAVING_COLUMNS, NUMERIC),
               "Congestion": BOOLEAN, "Spreader": BOOLEAN,
               **dict.fromkeys((*LABEL_COLUMNS, "Condition"), CATEGORICAL)}

#: The physical range of each named column, as :func:`check_number`'s
#: bounds (Humidity in %, AirEntrainment in %, PaverAge in years);
#: :func:`check_value` holds every scenario value to it.
BOUNDS_BY_NAME = {"AirEntrainment": {"low": 0},
                  "Humidity": {"low": 0, "high": 100},
                  "PaverAge": {"low": 0}}

TARGET_COLUMN = PAVING_COLUMNS[0]


def _is_boolean_value(value: float) -> bool:
    return value == 0.0 or value == 1.0


@dataclass(frozen=True)
class RecordTable:
    """Immutable rectangular table of named columns, each of the kind its
    name gives, held as one tuple of `num_rows` cells per name; a table
    with no column still has its rows."""

    column_names: tuple[str, ...]
    columns: tuple[tuple[Cell, ...], ...]
    num_rows: int

    def __post_init__(self):
        names = self.column_names
        if len(set(names)) != len(names):
            repeated = next(n for i, n in enumerate(names) if n in names[:i])
            raise DataError(f"column names must be unique: {repeated!r} repeats")
        # tuple() of a tuple is the tuple itself: a list is copied once
        object.__setattr__(self, "columns", tuple(map(tuple, self.columns)))
        lengths = list(map(len, self.columns))
        if lengths != [self.num_rows] * len(names):
            raise DataError(f"{len(names)} columns of {self.num_rows} cells "
                            f"expected, got columns of {lengths} cells")

    @property
    def column_kinds(self) -> tuple[str, ...]:
        return tuple(map(kind_of, self.column_names))

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DataError(f"no column named {name!r}") from None

    def column_kind(self, name: str) -> str:
        return self.column_kinds[self.column_index(name)]

    def column_values(self, name: str) -> tuple[Cell, ...]:
        return self.columns[self.column_index(name)]


def kind_of(name: str) -> str:
    """The kind of a column named `name`: :data:`KIND_BY_NAME`'s entry, or
    numeric."""
    return KIND_BY_NAME.get(name, NUMERIC)


def check_value(name: str, kind: str, value) -> float:
    """`value` as a float, if it is a number within :data:`BOUNDS_BY_NAME`'s
    bounds for `name` and, for a boolean `kind`, 0 or 1; otherwise a
    :class:`DataError` names `name` and its rule."""
    value = float(check_number(name, value, **BOUNDS_BY_NAME.get(name, {})))
    return check_choice(name, value, (0, 1)) if kind == BOOLEAN else value


def _check_cell(text: str, kind: str, row: int, column: str) -> None:
    """Raise the :class:`DataError` of a stripped cell that
    :func:`_parse_column` cannot read: a cell that is not a number, or a
    boolean that is not 0 or 1."""
    if text == "" or kind == CATEGORICAL:
        return
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"cell {text!r} in row {row}, column {column!r} is not numeric"
        ) from None
    if kind == BOOLEAN and not _is_boolean_value(value):
        raise DataError(f"boolean column {column!r} holds {value!r} in row "
                        f"{row}; only 0 and 1 are allowed")


def comment_block(lines: Iterable[str]) -> str:
    """Each line as a ``# `` comment line: how every artifact writes its
    audit header, which :func:`without_comments` skips on reading."""
    return "".join(f"# {line}\n" for line in lines)


def without_comments(lines: Iterable[str]) -> Iterator[str]:
    """Lazily drop the lines that start with ``#``; the rest pass as is."""
    return itertools.filterfalse(methodcaller("startswith", "#"), lines)


@contextmanager
def open_text(path: str | Path) -> Iterator[io.TextIOBase]:
    """An input file opened as UTF-8 text with ``newline=""`` (as
    ``csv`` asks); a leading byte-order mark, as spreadsheet exports
    write, is skipped. Failing to open or to read it, in the ``with``
    body too, raises a :class:`DataError` naming the path."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as stream:
            yield stream
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


#: The line breaks that ``str.splitlines`` knows besides ``"\n"``.
_OTHER_BREAKS = frozenset("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def read_json(path: str | Path) -> dict:
    """The JSON object in a file whose ``#`` lines are dropped. Fast path:
    when the text after its leading ``#`` lines holds no ``#``, and those
    lines hold no line break of ``str.splitlines`` but the newline, that
    rest is parsed as it is. It is then the very string that dropping the
    ``#`` lines of ``splitlines`` gives, so the object, or the error with
    its line and column, is the same. Only that one string is kept while
    ``json.loads`` runs."""
    with open_text(path) as stream:
        text = stream.read()
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1 or len(text)
    if text.find("#", start) < 0 and _OTHER_BREAKS.isdisjoint(text[:start]):
        text = text[start:]
    else:
        text = "".join(without_comments(text.splitlines(keepends=True)))
    try:
        raw = json.loads(text)
    # bad syntax, an integer literal too long to convert, too deep nesting
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path} must hold a JSON object")
    return raw


@contextmanager
def _writing(path: Path) -> Iterator[None]:
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


@contextmanager
def staged_files() -> Iterator[Callable[..., Path]]:
    """A ``stage(path, text="")`` function for the ``with`` body: it writes
    UTF-8 `text` to a new, uniquely named temp sibling of `path` (mode
    ``"x"``: ``"w"``'s 0o666 less the umask) and returns it, for the caller
    to fill by :func:`write_text` in place of `path` if it likes. A
    directory, or a path that resolves to one already staged, is refused.
    When the body returns, each sibling is renamed over its path; either
    way no temp file is left. An ``OSError`` that names a temp file, raised
    in the body too, is reported as one writing its path."""
    staged: dict[str, Path] = {}   # temp sibling -> its path

    def stage(path: str | Path, text: str = "") -> Path:
        path = Path(path)
        if any(path.resolve() == p.resolve() for p in staged.values()):
            raise DataError(f"two outputs name one file: {path}")
        with _writing(path):
            if path.is_dir():  # "" and "/" too, which have no sibling
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8") as stream:
                staged[str(tmp)] = path
                stream.write(text)
        return tmp

    try:
        yield stage
        for tmp, path in staged.items():
            os.replace(tmp, path)
    except OSError as exc:
        if exc.filename not in staged:
            raise
        with _writing(staged[exc.filename]):
            raise
    finally:
        for tmp in staged:
            Path(tmp).unlink(missing_ok=True)


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the UTF-8 strings of `chunks` in turn over `path` in place, as
    :func:`json_chunks` yields them; any ``OSError``, a failed write too,
    names `path`, for :func:`staged_files` to report."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
    except OSError as exc:
        exc.filename = str(path)
        raise


#: How many rows :func:`read_csv` parses at a time, by column. A block's
#: raw text is freed before the next is read; blocks of 256 or 1,024 rows
#: saved under 10% of the parse but left ``adapt``'s peak RSS about
#: 0.8 MiB higher.
_BLOCK_ROWS = 32


def read_csv(stream: io.TextIOBase, parse=lambda name: True) -> RecordTable:
    """Parse an open text stream; ``#`` lines and blank lines are skipped
    anywhere, row numbers count table rows, and a column is of the kind
    :func:`kind_of` its name if `parse` accepts that name, else text. A
    stream with no header row, a blank column name (a spreadsheet's
    unnamed index column), or a row ``csv`` cannot read, is refused by the
    name of its file, if any.
    Rows are read in blocks of :data:`_BLOCK_ROWS`, and each block's
    columns, parsed by :func:`_parse_block`, appended to the table's."""
    # csv.reader yields [] for a blank line, which is never data: csv_text
    # writes a row of one empty cell as "".
    reader = filter(None, csv.reader(without_comments(stream)))
    source = getattr(stream, "name", "stream")
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"file has no header row: {source}") from None
    except csv.Error as exc:  # a cell over csv.field_size_limit(), say
        raise DataError(f"cannot read the header row of {source}: {exc}"
                        ) from None
    header = tuple(h.strip() for h in header)
    if "" in header:
        raise DataError(f"column {header.index('')} of {source} has no name")
    kinds = tuple(kind_of(name) if parse(name) else CATEGORICAL
                  for name in header)
    columns: list[list[Cell]] = [[] for _ in header]
    num_rows = 0
    while True:
        block = []
        try:
            block.extend(itertools.islice(reader, _BLOCK_ROWS))
        except csv.Error as exc:
            raise DataError(f"cannot read row {num_rows + len(block)} of "
                            f"{source}: {exc}") from None
        finally:  # a read that fails still names a fault in the rows before it
            parsed = _parse_block(block, header, kinds, num_rows)
            for column, part in zip(columns, parsed):
                column += part
            num_rows += len(block)
        if len(block) < _BLOCK_ROWS:
            return RecordTable(header, columns, num_rows)


def _parse_block(block: list[list[str]], header: Sequence[str],
                 kinds: Sequence[str], first: int) -> list[list[Cell]]:
    """The columns of `block`, the table's rows from number `first` on,
    each parsed by :func:`_parse_column`. A block with a row of the wrong
    width, a cell that is not a number, or a boolean that is not 0 or 1 is
    checked again a cell at a time, in row order, by :func:`_check_cell`,
    which refuses just the cells that :func:`_parse_column` does, so the
    first fault's :class:`DataError` is raised."""
    try:
        if set(map(len, block)) <= {len(header)}:
            return list(map(_parse_column, zip(*block), kinds))
    except ValueError:
        pass
    for i, raw in enumerate(block, first):
        if len(raw) != len(header):
            raise DataError(
                f"row {i} has {len(raw)} cells, expected {len(header)}"
            )
        for cell, kind, name in zip(raw, kinds, header):
            _check_cell(cell.strip(), kind, i, name)


def _parse_column(cells: Sequence[str], kind: str) -> list[Cell]:
    """One column's cells, stripped: ``None`` for a blank, the text of a
    categorical cell and the float of any other, by C builtins and one
    step per blank. A ValueError where :func:`_check_cell` raises a
    :class:`DataError`."""
    cells = list(map(str.strip, cells))
    values = list(filter(None, cells)) if "" in cells else cells
    if kind != CATEGORICAL:
        values = list(map(float, values))
    blank = -1
    while len(values) < len(cells):  # None put back at each blank in turn
        blank = cells.index("", blank + 1)
        values.insert(blank, None)
    if kind == BOOLEAN and not set(values) <= {0.0, 1.0, None}:
        raise ValueError("a boolean cell is not 0 or 1")
    return values


def load_csv(path: str | Path, parse=lambda name: True) -> RecordTable:
    """Load a CSV file into a :class:`RecordTable` by :func:`read_csv`."""
    with open_text(path) as stream:
        return read_csv(stream, parse)


def _field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_text(header_comments: Iterable[str], header: Sequence[str],
             rows: Iterable[Sequence], footer: Iterable[str] = ()) -> str:
    """The one CSV layout of every artifact: a ``#`` audit header, a
    header line, one line per row and a ``#`` footer. ``None`` is an empty
    field, a float ``repr(float(v))`` (numpy 2 reprs an ``np.float64`` as
    ``np.float64(...)``) and anything else ``str(v)``, quoted by CSV rules;
    a line whose first cell starts with ``#`` is quoted whole, so that it
    does not read as a comment.

    A body whose every row has the header's width and whose every cell's
    type is exactly ``float`` or ``int`` is written as one ``"%r,...,%r"``
    format per row, without the writer's per-cell steps: for those two
    types ``repr`` is the text above, which never needs quoting and never
    starts with ``#``. Anything else, a ``bool`` or an ``np.float64`` too,
    sends the whole body through ``csv.writer``."""
    rows = list(map(tuple, rows))  # "%" formats a tuple, not a list
    width = len(header)
    every_cell = itertools.chain.from_iterable(rows)
    fast = (set(map(len, rows)) <= {width}
            and set(map(type, every_cell)) <= {float, int})
    body = io.StringIO()
    minimal = csv.writer(body, lineterminator="\n")
    quote_all = csv.writer(body, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in itertools.chain([header], () if fast else rows):
        cells = list(map(_field, row))
        writer = quote_all if cells and cells[0].startswith("#") else minimal
        writer.writerow(cells)
    if fast:
        body.writelines(map((",".join(["%r"] * width) + "\n").__mod__, rows))
    return (comment_block(header_comments) + body.getvalue()
            + comment_block(footer))


#: How many rows of an array :func:`json_chunks` turns into text at a
#: time: 256 rows of a 9-feature ``X`` are about 60 KB of text. Blocks
#: of 32 to 512 rows wrote a 10,000-row dataset file in the same time,
#: while the memory held in writing grew with the block (0.09 MB at 64
#: rows, 0.31 MB at 256, 1.2 MB at 1,024, for a 2.7 MB file); 256 rows
#: hold about a ninth of the file and make few pieces.
_JSON_BLOCK_ROWS = 256


def json_chunks(header_comments: Iterable[str], payload) -> Iterator[str]:
    """The one JSON layout of every artifact, in pieces to be written in
    turn: a ``#`` audit header, then the payload with sorted keys and
    two-space indents. Joined, the payload's pieces are the bytes of
    ``json.dumps(payload, indent=2, sort_keys=True)`` for text keys, with
    a tuple as a list and a numpy array as its ``tolist()``. Each key and
    scalar is written by ``json.dumps``. A float64 array of one or two
    dimensions, not empty and all finite, skips ``json``'s pure-Python
    encoder, which ``indent`` selects: it is written by ``float.__repr__``
    (the ``%r`` of each row), :data:`_JSON_BLOCK_ROWS` rows at a time, so
    that a dataset or model file is streamed to disk and never held whole
    (:func:`write_text`)."""
    yield comment_block(header_comments)
    yield from _json(payload, "")
    yield "\n"


def _json(value, indent: str) -> Iterator[str]:
    """`value` laid out as :func:`json_chunks` writes it, at `indent`."""
    if isinstance(value, np.ndarray):
        yield from _array(value, indent)
    elif isinstance(value, dict) and value:
        yield from _items("{}", ((json.dumps(k) + ": ", v)
                                 for k, v in sorted(value.items())), indent)
    elif isinstance(value, (list, tuple)) and value:
        yield from _items("[]", (("", v) for v in value), indent)
    else:
        yield json.dumps(value)   # a scalar, [] or {}


def _items(brackets: str, items: Iterable[tuple[str, object]],
           indent: str) -> Iterator[str]:
    """A JSON object or array of (key text, value) `items` at `indent`."""
    inner = indent + "  "
    separator = brackets[0] + "\n" + inner
    for key, value in items:
        yield separator + key
        yield from _json(value, inner)
        separator = ",\n" + inner
    yield "\n" + indent + brackets[1]


def _array(array: np.ndarray, indent: str) -> Iterator[str]:
    """`array` laid out at `indent` as its ``tolist()`` is, a block of
    rows at a time if it is a float64 vector or matrix, not empty and
    all finite; ``json`` writes NaN and Infinity, and ``[]`` nested."""
    if not (array.dtype == np.float64 and array.ndim in (1, 2)
            and array.size and np.isfinite(array).all()):
        yield from _json(array.tolist(), indent)
        return
    inner = indent + "  "
    separator = ",\n" + inner
    row = "%r"
    if array.ndim == 2:
        cell = "\n" + inner + "  "
        row = "[" + cell + ("," + cell).join(["%r"] * array.shape[1]) + (
            "\n" + inner + "]")
    yield "[\n" + inner
    for start in range(0, len(array), _JSON_BLOCK_ROWS):
        block = array[start:start + _JSON_BLOCK_ROWS].tolist()
        text = separator.join(map(row.__mod__, block if array.ndim == 1
                                  else map(tuple, block)))
        yield text if start == 0 else separator + text
    yield "\n" + indent + "]"


def table_to_csv(table: RecordTable, header_comments: Sequence[str] = ()) -> str:
    """The table as CSV by :func:`csv_text`; boolean cells are written as
    ``0`` and ``1``."""
    columns = ([None if v is None else int(v) for v in column]
               if kind == BOOLEAN else column
               for kind, column in zip(table.column_kinds, table.columns))
    return csv_text(header_comments, table.column_names, zip(*columns))
