"""Tables built and read a row at a time, for tests: a
:class:`~pavesim.tables.RecordTable` holds columns, and forms no rows."""

from pavesim.tables import RecordTable


def table_of_rows(names, rows) -> RecordTable:
    """The table of columns `names` whose rows, in order, are `rows`; each
    row must hold one cell per name."""
    names, rows = tuple(names), tuple(map(tuple, rows))
    for i, row in enumerate(rows):
        assert len(row) == len(names), f"row {i} has {len(row)} cells"
    columns = [tuple(row[j] for row in rows) for j in range(len(names))]
    return RecordTable(names, columns, len(rows))


def rows_of(table: RecordTable) -> tuple[tuple, ...]:
    """The rows of `table`, in order, each a tuple of its cells."""
    if not table.columns:
        return ((),) * table.num_rows
    return tuple(zip(*table.columns))
