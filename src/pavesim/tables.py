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

A loaded column's kind comes from its name alone (:func:`kind_of`), in
any header order: ``Congestion`` and ``Spreader`` are boolean, a
``Scenario`` label and the text columns the CLI writes (``scenario``,
``label``, ``Condition``) are categorical, and every other column is
numeric. A scenario value is checked by its name too
(:func:`check_value`): ``Humidity`` lies in [0, 100], ``AirEntrainment``
and ``PaverAge`` are at least 0, and any value of a boolean feature is 0
or 1.

Every file is opened here: each input as UTF-8 by :func:`open_text`, each
output by :func:`staged_files`, which renames a run's outputs into place
only once all are written (:func:`write_text` fills a staged file in
place). A missing, unreadable or non-UTF-8 input and an unwritable output
each raise a :class:`DataError` naming the path the user gave. One window
remains: two renames cannot be one atomic step, so a failed second
``os.replace`` can leave the first file committed.
"""

from __future__ import annotations

import csv
import errno
import io
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
COLUMN_KINDS = (NUMERIC, BOOLEAN, CATEGORICAL)

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

#: The kind of each named column: the paving columns, the label column of
#: a scenario file, and the text columns of the files the CLI writes
#: (``derive``'s ``scenario``, ``mixture-demo``'s ``label`` and
#: ``Condition``). :func:`kind_of` reads any other as numeric.
KIND_BY_NAME = {**dict.fromkeys(PAVING_COLUMNS, NUMERIC),
               "Congestion": BOOLEAN, "Spreader": BOOLEAN,
               **dict.fromkeys(("Scenario", "scenario", "label", "Condition"),
                               CATEGORICAL)}

#: The physical range of each named column, as :func:`check_number`'s
#: bounds (Humidity in %, AirEntrainment in %, PaverAge in years);
#: :func:`check_value` holds every scenario value to it.
BOUNDS_BY_NAME = {"AirEntrainment": {"low": 0},
                  "Humidity": {"low": 0, "high": 100},
                  "PaverAge": {"low": 0}}

TARGET_COLUMN = PAVING_COLUMNS[0]

#: The nine condition attributes, in canonical order.
FEATURE_COLUMNS = PAVING_COLUMNS[1:]


def _is_boolean_value(value: float) -> bool:
    return value == 0.0 or value == 1.0


@dataclass(frozen=True)
class RecordTable:
    """Immutable rectangular table of named, kind-tagged columns."""

    column_names: tuple[str, ...]
    column_kinds: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __post_init__(self):
        if len(self.column_names) != len(self.column_kinds):
            raise DataError(
                f"{len(self.column_names)} column names but "
                f"{len(self.column_kinds)} kind tags"
            )
        if len(set(self.column_names)) != len(self.column_names):
            raise DataError("column names must be unique")
        for name, kind in zip(self.column_names, self.column_kinds):
            if kind not in COLUMN_KINDS:
                raise DataError(f"column {name!r} has unknown kind {kind!r}")
        width = len(self.column_names)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise DataError(
                    f"row {i} has {len(row)} cells, expected {width}"
                )
        for name, kind in zip(self.column_names, self.column_kinds):
            if kind != BOOLEAN:
                continue
            col = self.column_names.index(name)
            for i, row in enumerate(self.rows):
                value = row[col]
                if value is not None and not _is_boolean_value(value):
                    raise DataError(
                        f"boolean column {name!r} holds {value!r} in row {i}; "
                        "only 0 and 1 are allowed"
                    )

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
        return RecordTable(self.column_names, self.column_kinds, tuple(rows))


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
        return float(text)
    except ValueError:
        raise DataError(
            f"cell {text!r} in row {row}, column {column!r} is not numeric"
        ) from None


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
    ``csv`` asks). Failing to open or to read it, in the ``with`` body
    too, raises a :class:`DataError` naming the path."""
    try:
        with open(path, encoding="utf-8", newline="") as stream:
            yield stream
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def read_json(path: str | Path) -> dict:
    """The JSON object in a file whose ``#`` lines are dropped."""
    with open_text(path) as stream:
        text = "".join(without_comments(stream.read().splitlines(keepends=True)))
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


def write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 `text` over `path` in place; any ``OSError``, a failed
    write too, names `path`, for :func:`staged_files` to report."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
    except OSError as exc:
        exc.filename = str(path)
        raise


def read_csv(stream: io.TextIOBase) -> RecordTable:
    """Parse an open text stream; ``#`` lines and blank lines are skipped
    anywhere, row numbers count table rows, and each column's kind is
    :func:`kind_of` its name. A stream with no header row is refused by
    the name of its file, if it has one."""
    # csv.reader yields [] for a blank line, which is never data: csv_text
    # writes a row of one empty cell as "".
    reader = filter(None, csv.reader(without_comments(stream)))
    try:
        header = next(reader)
    except StopIteration:
        source = getattr(stream, "name", "stream")
        raise DataError(f"file has no header row: {source}") from None
    header = tuple(h.strip() for h in header)
    kinds = tuple(map(kind_of, header))
    rows = []
    for i, raw in enumerate(reader):
        if len(raw) != len(header):
            raise DataError(
                f"row {i} has {len(raw)} cells, expected {len(header)}"
            )
        rows.append(tuple(
            _parse_cell(cell.strip(), kind, i, name)
            for cell, kind, name in zip(raw, kinds, header)
        ))
    return RecordTable(header, kinds, tuple(rows))


def load_csv(path: str | Path) -> RecordTable:
    """Load a CSV file into a :class:`RecordTable` by :func:`read_csv`."""
    with open_text(path) as stream:
        return read_csv(stream)


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
    ``np.float64(...)``) and anything else ``str(v)``."""
    lines = [",".join(header)]
    # a row of one empty cell is written as "" so that it reads back
    lines.extend(",".join(map(_field, row)) or '""' for row in rows)
    return (comment_block(header_comments) + "\n".join(lines) + "\n"
            + comment_block(footer))


def json_text(header_comments: Iterable[str], payload) -> str:
    """The one JSON layout of every artifact: a ``#`` audit header, then
    the payload with sorted keys and two-space indents."""
    return (comment_block(header_comments)
            + json.dumps(payload, indent=2, sort_keys=True) + "\n")


#: How :func:`table_to_csv` writes a cell of each column kind.
_CELL_TYPES = {NUMERIC: float, BOOLEAN: int, CATEGORICAL: str}


def table_to_csv(table: RecordTable, header_comments: Sequence[str] = ()) -> str:
    """The table as CSV; boolean cells are written as ``0`` and ``1``."""
    types = [_CELL_TYPES[kind] for kind in table.column_kinds]
    rows = ([None if v is None else t(v) for v, t in zip(row, types)]
            for row in table.rows)
    return csv_text(header_comments, table.column_names, rows)
