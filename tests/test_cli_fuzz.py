"""Malformed CSV inputs end in an exit code and a message, never in a
traceback.

``derive --scenarios``, ``adapt --data`` and ``evaluate --data`` (a raw
CSV) run in-process through ``cli.main`` on generated files: the header
each command expects, then 0-6 rows of ragged width whose cells are
empty, ``nan``, ``inf``, overflowing, text, or numbers in and out of the
attributes' ranges, and maybe a trailing blank line. Whatever the file,
the command returns 0, 1 or 2; on a non-zero code its stderr starts with
``error:`` or ``numerical failure:`` and no ``--out`` file is written.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pavesim import cli
from pavesim.tables import FEATURE_COLUMNS, PAVING_COLUMNS

#: Cells that break a row: empty, not finite, overflowing, text, or out
#: of an attribute's range.
BAD_CELLS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-1e400", "abc",
                     "2", "-1", "150", "1e300", "-1e300"]),
    st.floats(-200, 200).map(repr),
)


def good_cells(column):
    """Cells every command accepts in ``column``."""
    if column == "Scenario":
        return st.sampled_from(["", "best", "worst"])
    if column in ("Congestion", "Spreader"):
        return st.sampled_from(["0", "1"])
    return st.floats(0, 100).map(repr)


#: Each command's header and its argv for a model, data and out path.
COMMANDS = {
    "derive": (("Scenario",) + FEATURE_COLUMNS, lambda model, data, out: [
        "derive", "--model", model, "--scenarios", data, "--out", out]),
    "adapt": (PAVING_COLUMNS, lambda model, data, out: [
        "adapt", "--data", data, "--seed", "1", "--out", out]),
    "evaluate": (PAVING_COLUMNS, lambda model, data, out: [
        "evaluate", "--model", model, "--data", data, "--out", out]),
}


@st.composite
def rows(draw, header):
    """A good row with up to three cells made bad, and one time in four
    cut or padded to a width that may not match the header."""
    row = [draw(good_cells(column)) for column in header]
    for i in draw(st.lists(st.integers(0, len(header) - 1), max_size=3)):
        row[i] = draw(BAD_CELLS)
    if draw(st.integers(0, 3)) == 3:
        row = (row + [draw(BAD_CELLS)])[:draw(st.integers(0, len(header) + 1))]
    return row


@st.composite
def cases(draw):
    """A command name and the text of a CSV file for it."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    header = COMMANDS[command][0]
    lines = [",".join(header)] + [
        ",".join(row) for row in draw(st.lists(rows(header), max_size=6))]
    blank = "\n" if draw(st.booleans()) else ""
    return command, "\n".join(lines) + "\n" + blank


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    data, model = workdir / "d.csv", workdir / "m.model"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--n", "40", "--seed", "1",
                         "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--seed", "2",
                         "--epochs", "1", "--hidden", "3",
                         "--out", str(model)]) == 0
    return str(model)


@settings(max_examples=120, deadline=None)
@given(case=cases())
@example(case=("derive", ",".join(COMMANDS["derive"][0])
               + "\nbest,,0,1,4.5,7.7,60.1,1.2028,-0.001,0.0\n"))
def test_csv_inputs_exit_cleanly(model_file, case):
    command, text = case
    with tempfile.TemporaryDirectory() as workdir:
        data, out = Path(workdir, "data.csv"), Path(workdir, "out")
        data.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main(COMMANDS[command][1](model_file, str(data), str(out)))
        assert rc in (0, 1, 2)
        if rc != 0:
            assert err.getvalue().startswith(("error:", "numerical failure:"))
            assert not out.exists()
