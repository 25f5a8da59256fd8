"""Malformed CSV inputs end in an exit code and a message, never in a
traceback.

``derive --scenarios``, ``adapt --data`` and ``evaluate --data`` (a raw
CSV) run in-process through ``cli.main`` on generated files: the header
each command expects, then 0-6 rows of ragged width whose cells are
empty, ``nan``, ``inf``, overflowing, text, a byte that is not UTF-8, or
numbers in and out of the attributes' ranges, and maybe a trailing blank
line. Whatever the file, the command returns 0, 1 or 2; on a non-zero
code its stderr starts with ``error:`` or ``numerical failure:``, its
stdout is empty and no ``--out`` file is written. A numpy
``RuntimeWarning`` fails the test, since the command line would print it
to stderr ahead of that line.

Blank and ``#`` lines before the header, and quotes around header cells,
change nothing: the same file without them gives the same exit code,
stdout, stderr and ``--out`` bytes.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pavesim import cli
from pavesim.tables import FEATURE_COLUMNS, PAVING_COLUMNS

#: A cell holding the lone byte 0xff: files are written with
#: ``surrogateescape``, which turns this code point into that byte.
NOT_UTF8 = "\udcff"

#: Cells that break a row: empty, not finite, overflowing, text, not
#: UTF-8, or out of an attribute's range.
BAD_CELLS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-1e400", "abc",
                     NOT_UTF8, "2", "-1", "150", "1e300", "-1e300"]),
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


def run(model_file, command, text, workdir):
    """Exit code, stdout, stderr and ``--out`` bytes (``None`` when no
    file was written) of `command` on a CSV file in `workdir` holding
    `text`; each run in one `workdir` names the same paths."""
    data, out = Path(workdir, "data.csv"), Path(workdir, "out")
    data.write_bytes(text.encode("utf-8", "surrogateescape"))
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(COMMANDS[command][1](model_file, str(data), str(out)))
    return (rc, stdout.getvalue(), stderr.getvalue(),
            out.read_bytes() if out.exists() else None)


def paving_csv(*slumps):
    """A paving CSV with one good row per Slump cell given."""
    return "".join([",".join(PAVING_COLUMNS) + "\n"] + [
        f"{60.0 + i},{slump},0,1,4.5,7.7,60.1,1.2028,-0.001,0.0\n"
        for i, slump in enumerate(slumps)])


@settings(max_examples=120, deadline=None)
@given(case=cases())
@example(case=("derive", ",".join(COMMANDS["derive"][0])
               + "\nbest,,0,1,4.5,7.7,60.1,1.2028,-0.001,0.0\n"))
# numpy warned on these before its error line: NaN quartiles of an inf
# cell, and an overflowing std
@example(case=("adapt", paving_csv("3.0", "inf", "4.0")))
@example(case=("adapt", paving_csv("1e300", "-1e300")))
# a byte that is not UTF-8 was a UnicodeDecodeError traceback
@example(case=("adapt", paving_csv("3.0", "4" + NOT_UTF8, "5.0")))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_csv_inputs_exit_cleanly(model_file, case):
    with tempfile.TemporaryDirectory() as workdir:
        rc, stdout, err, out = run(model_file, *case, workdir)
    assert rc in (0, 1, 2)
    if rc != 0:
        assert err.startswith(("error:", "numerical failure:"))
        assert stdout == ""
        assert out is None


def dressed(text, preamble, quoted):
    """`text` with the `preamble` lines before its header line and the
    header cells at the `quoted` positions in double quotes."""
    header, rest = text.split("\n", 1)
    cells = (f'"{c}"' if i in quoted else c
             for i, c in enumerate(header.split(",")))
    return "".join(f"{line}\n" for line in (*preamble, ",".join(cells))) + rest


SCENARIO_TEXT = (",".join(COMMANDS["derive"][0])
                 + "\nbest,3.0,0,1,4.5,7.7,60.1,1.2028,-0.001,0.0\n")


@settings(max_examples=60, deadline=None)
@given(case=cases(),
       preamble=st.lists(st.sampled_from(["", "# note"]), max_size=3),
       quoted=st.sets(st.integers(0, len(PAVING_COLUMNS) - 1)))
# the header was found by splitting its line on commas, and read_csv took
# a blank line before it for an empty header
@example(case=("derive", SCENARIO_TEXT), preamble=[], quoted={0})
@example(case=("derive", SCENARIO_TEXT), preamble=["", "# note"], quoted=set())
@example(case=("adapt", paving_csv("3.0", "4.0", "5.0", "6.0")),
         preamble=[""], quoted=set())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lines_before_the_header_and_header_quotes_change_nothing(
        model_file, case, preamble, quoted):
    command, text = case
    with tempfile.TemporaryDirectory() as workdir:
        assert (run(model_file, command, dressed(text, preamble, quoted), workdir)
                == run(model_file, command, text, workdir))
