"""Rectangular record tables, and the kind and range of a column by name.

A :class:`RecordTable` is an immutable named-column table of operation
records. Cells are floats for numeric and boolean columns (booleans
restricted to 0/1), strings for categorical columns, and ``None`` for
missing values.

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
(``map(float, ...)`` over each column); a block with a fault is read
again a cell at a time, so each refusal names its row and column as a
row-at-a-time reader would. :func:`table_to_csv` writes a table of floats
alone, with no text and nothing missing, as one ``%`` format per row.

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
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import DataError, check_number

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
    name gives."""

    column_names: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __post_init__(self):
        names = self.column_names
        if len(set(names)) != len(names):
            repeated = next(n for i, n in enumerate(names) if n in names[:i])
            raise DataError(f"column names must be unique: {repeated!r} repeats")
        width = len(names)
        if not set(map(len, self.rows)) <= {width}:
            i, row = next((i, r) for i, r in enumerate(self.rows)
                          if len(r) != width)
            raise DataError(f"row {i} has {len(row)} cells, expected {width}")

    @property
    def column_kinds(self) -> tuple[str, ...]:
        return tuple(map(kind_of, self.column_names))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DataError(f"no column named {name!r}") from None

    def column_kind(self, name: str) -> str:
        return self.column_kinds[self.column_index(name)]

    def column_values(self, name: str) -> list[Cell]:
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]

    def with_rows(self, rows: Iterable[tuple[Cell, ...]]) -> "RecordTable":
        return RecordTable(self.column_names, tuple(rows))


def kind_of(name: str) -> str:
    """The kind of a column named `name`: :data:`KIND_BY_NAME`'s entry, or
    numeric."""
    return KIND_BY_NAME.get(name, NUMERIC)


def check_value(name: str, kind: str, value) -> float:
    """`value` as a float, if it is a number within :data:`BOUNDS_BY_NAME`'s
    bounds for `name` and, for a boolean `kind`, 0 or 1; otherwise a
    :class:`DataError` names `name` and its rule."""
    value = float(check_number(name, value, **BOUNDS_BY_NAME.get(name, {})))
    if kind == BOOLEAN and not _is_boolean_value(value):
        raise DataError(f"{name} must be 0 or 1, got {value!r}")
    return value


def _parse_cell(text: str, kind: str, row: int, column: str) -> Cell:
    if text == "":
        return None
    if kind == CATEGORICAL:
        return text
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"cell {text!r} in row {row}, column {column!r} is not numeric"
        ) from None
    if kind == BOOLEAN and not _is_boolean_value(value):
        raise DataError(f"boolean column {column!r} holds {value!r} in row "
                        f"{row}; only 0 and 1 are allowed")
    return value


def comment_block(lines: Iterable[str]) -> str:
    """Each line as a ``# `` comment line: how every artifact writes its
    audit header, which :func:`without_comments` skips on reading."""
    return "".join(f"# {line}\n" for line in lines)


def without_comments(lines: Iterable[str]) -> Iterator[str]:
    """Lazily drop the lines that start with ``#``; the rest pass as is."""
    return (line for line in lines if not line.startswith("#"))


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
    its line and column, is the same."""
    with open_text(path) as stream:
        text = stream.read()
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1 or len(text)
    body = text[start:]
    if "#" in body or not _OTHER_BREAKS.isdisjoint(text[:start]):
        body = "".join(without_comments(text.splitlines(keepends=True)))
    try:
        raw = json.loads(body)
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


def write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 `text` over `path` in place; any ``OSError``, a failed
    write too, names `path`, for :func:`staged_files` to report."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
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
    stream with no header row is refused by the name of its file, if any.
    Rows are read in blocks of :data:`_BLOCK_ROWS` and each block is
    parsed by column (:func:`_parse_block`)."""
    # csv.reader yields [] for a blank line, which is never data: csv_text
    # writes a row of one empty cell as "".
    reader = filter(None, csv.reader(without_comments(stream)))
    try:
        header = next(reader)
    except StopIteration:
        source = getattr(stream, "name", "stream")
        raise DataError(f"file has no header row: {source}") from None
    header = tuple(h.strip() for h in header)
    kinds = tuple(kind_of(name) if parse(name) else CATEGORICAL
                  for name in header)
    rows: list[tuple[Cell, ...]] = []
    while True:
        block = []
        try:
            block.extend(itertools.islice(reader, _BLOCK_ROWS))
        finally:  # a read that fails still names a fault in the rows before it
            rows += _parse_block(block, header, kinds, len(rows))
        if len(block) < _BLOCK_ROWS:
            return RecordTable(header, tuple(rows))


def _parse_block(block: list[list[str]], header: Sequence[str],
                 kinds: Sequence[str], first: int) -> Iterable[tuple[Cell, ...]]:
    """The rows of `block`, the table's rows from number `first` on, parsed
    a column at a time by C builtins. A block with a row of the wrong
    width, a cell that is not a number, or a boolean that is not 0 or 1 is
    parsed again a cell at a time, in row order, which raises the first
    fault's :class:`DataError`."""
    if set(map(len, block)) == {len(header)}:
        try:
            return zip(*map(_parse_column, zip(*block), kinds))
        except ValueError:
            pass
    rows = []
    for i, raw in enumerate(block, first):
        if len(raw) != len(header):
            raise DataError(
                f"row {i} has {len(raw)} cells, expected {len(header)}"
            )
        rows.append(tuple(
            _parse_cell(cell.strip(), kind, i, name)
            for cell, kind, name in zip(raw, kinds, header)
        ))
    return rows


def _parse_column(cells: Sequence[str], kind: str) -> list[Cell]:
    """One column's cells as :func:`_parse_cell` reads them; a ValueError
    where it would raise a :class:`DataError`."""
    cells = list(map(str.strip, cells))
    if kind == CATEGORICAL:
        return [s or None for s in cells]
    if "" in cells:
        values = [float(s) if s else None for s in cells]
    else:
        values = list(map(float, cells))
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
    does not read as a comment."""
    body = io.StringIO()
    minimal = csv.writer(body, lineterminator="\n")
    quote_all = csv.writer(body, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in itertools.chain([header], rows):
        cells = list(map(_field, row))
        writer = quote_all if cells and cells[0].startswith("#") else minimal
        writer.writerow(cells)
    return (comment_block(header_comments) + body.getvalue()
            + comment_block(footer))


def json_text(header_comments: Iterable[str], payload) -> str:
    """The one JSON layout of every artifact: a ``#`` audit header, then
    the payload with sorted keys and two-space indents. The payload's
    bytes are those of ``json.dumps(payload, indent=2, sort_keys=True)``
    for text keys: each key and scalar is written by ``json.dumps``, a
    tuple as a list. Two fast paths skip ``json``'s pure-Python encoder,
    which ``indent`` selects: a list of finite floats, and a rectangular
    list of such lists (a matrix), are written by ``float.__repr__``."""
    return comment_block(header_comments) + _json(payload, "") + "\n"


def _json(value, indent: str) -> str:
    """`value` laid out as :func:`json_text` writes it, at `indent`."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{json.dumps(k)}: {_json(v, inner)}"
                 for k, v in sorted(value.items())]
        return _block("{}", items, indent)
    if isinstance(value, (list, tuple)) and value:
        return (_finite_floats(value, indent)
                or _block("[]", [_json(v, inner) for v in value], indent))
    return json.dumps(value)   # a scalar, [] or {}


def _block(brackets: str, items: Iterable[str], indent: str) -> str:
    inner = "\n" + indent + "  "
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + indent + brackets[1])


def _finite_floats(value: Sequence, indent: str) -> str | None:
    """`value` laid out at `indent`, if it is a list of finite floats or a
    matrix of them; otherwise None."""
    types = set(map(type, value))
    if types == {float}:
        items = map(float.__repr__, value)
    elif (types <= {list, tuple} and len(set(map(len, value))) == 1
          and set(map(type, itertools.chain.from_iterable(value))) == {float}):
        row = _block("[]", ["%r"] * len(value[0]), indent + "  ")
        items = [row % tuple(r) for r in value]
    else:
        return None
    text = _block("[]", items, indent)
    return None if "n" in text else text   # nan, inf: json writes NaN, Infinity


#: How :func:`table_to_csv` writes a cell of each column kind.
_CELL_TYPES = {NUMERIC: float, BOOLEAN: int, CATEGORICAL: str}


def table_to_csv(table: RecordTable, header_comments: Sequence[str] = ()) -> str:
    """The table as CSV; boolean cells are written as ``0`` and ``1``. A
    table whose every cell is a ``float`` (no text, nothing missing) is
    written as one ``fmt % row`` per row, ``%r`` for a numeric cell and
    ``%d`` for a boolean one: the bytes of :func:`csv_text`, which quotes
    no float's repr, without its per-cell steps."""
    kinds = table.column_kinds
    if set(map(type, itertools.chain.from_iterable(table.rows))) <= {float}:
        fmt = ",".join("%d" if k == BOOLEAN else "%r" for k in kinds) + "\n"
        return (csv_text(header_comments, table.column_names, ())
                + "".join(map(fmt.__mod__, map(tuple, table.rows))))
    types = [_CELL_TYPES[kind] for kind in kinds]
    rows = ([None if v is None else t(v) for v, t in zip(row, types)]
            for row in table.rows)
    return csv_text(header_comments, table.column_names, rows)
