"""Malformed inputs end in an exit code and a message, never in a
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

The same property holds for JSON inputs: a ``simulate`` operation config
with one field replaced by a value of any JSON type, and a model or
dataset file with a key dropped or a value replaced (wrong type, wrong
shape, not finite, a 400-digit integer), run through ``derive`` and
``evaluate``; and for every numeric flag at 0, -1, ``nan``, ``inf``,
``1e-320`` and ``1e308``, which all exit 0 or 1. An integer flag reads
``1e308`` as no integer, so no huge size (``--n``, ``--reps``,
``--epochs``, ``--hidden``) is run: those have no upper cap and would run
until time or memory runs out.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pavesim import cli
from pavesim.tables import PAVING_COLUMNS, read_json

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
    "derive": (("Scenario",) + PAVING_COLUMNS[1:], lambda model, data, out: [
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
    dataset = workdir / "ds.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--n", "40", "--seed", "1",
                         "--out", str(data)]) == 0
        assert cli.main(["adapt", "--data", str(data), "--seed", "2",
                         "--out", str(dataset)]) == 0
        assert cli.main(["train", "--data", str(dataset), "--seed", "2",
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
    return main_result(COMMANDS[command][1](model_file, str(data), str(out)),
                       out)


def main_result(argv, out):
    """Exit code, stdout, stderr and the `out` file's bytes (``None`` when
    it was not written) of ``cli.main(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    return (rc, stdout.getvalue(), stderr.getvalue(),
            out.read_bytes() if out.exists() else None)


def assert_clean_exit(rc, stdout, err, out):
    """The property of every test here: exit 0, 1 or 2, and a failure
    prints one line, ``error:`` for 1 and ``numerical failure:`` for 2,
    to stderr, nothing to stdout, and leaves no ``--out`` file."""
    assert rc in (0, 1, 2)
    if rc != 0:
        assert err.startswith("error: " if rc == 1 else "numerical failure: ")
        assert err.count("\n") == 1
        assert stdout == ""
        assert out is None


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
# a Curvature whose z-score overflows warned before the error line
@example(case=("evaluate", paving_csv("3.0").replace("-0.001", "1e308")))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_csv_inputs_exit_cleanly(model_file, case):
    with tempfile.TemporaryDirectory() as workdir:
        assert_clean_exit(*run(model_file, *case, workdir))


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


# ------------------------------------------------------------ JSON inputs

#: An integer literal too long for a float: ``float()`` of it overflows.
HUGE = 10 ** 400

#: Values of every JSON type to put in place of a config or file field.
JSON_VALUES = st.one_of(
    st.sampled_from([True, False, None, "3", "abc", [], [2.0], [[1.0], []],
                     {}, {"mean": 1.0}, 0, -1, -2.5, 2.5, 1e-320, 1e308,
                     -1e308, math.nan, math.inf, -math.inf, HUGE, -HUGE]),
    st.floats(-1e3, 1e3),
    st.integers(-10, 10 ** 4),
)


SIM_CONFIG = {
    "total_quantity": 60, "truck_count": 2, "truck_capacity": 10,
    "load_time": 0.15, "haul_time": 0.4, "dump_time": 0.1,
    "return_time": 0.25, "clamp_floor": 1.0,
    "resample_mode": "per_truckload",
}
SOURCES = {
    "productivity": {"mean": 55.0, "variance": 30.0},
    "scenario": {"Slump": 3.0, "Congestion": 0, "Spreader": 1,
                 "AirEntrainment": 4.5, "Temperature": 20.0,
                 "Humidity": 60.0, "Slope": 0.0, "Curvature": 0.0,
                 "PaverAge": 2.0},
}


def sim_config(source, path, value):
    """The config with `source`'s block, and the field at `path` (one key,
    or a block and one of its keys) set to `value`."""
    config = dict(SIM_CONFIG, **{source: dict(SOURCES[source])})
    *block, key = path
    (config[block[0]] if block else config)[key] = value
    return config


@st.composite
def sim_configs(draw):
    source = draw(st.sampled_from(sorted(SOURCES)))
    paths = [(k,) for k in (*SIM_CONFIG, source)]
    paths += [(source, k) for k in SOURCES[source]]
    return source, draw(st.sampled_from(paths)), draw(JSON_VALUES)


@settings(max_examples=80, deadline=None)
@given(case=sim_configs())
# each ended in "OverflowError: int too large to convert to float"
@example(case=("productivity", ("total_quantity",), HUGE))
@example(case=("productivity", ("clamp_floor",), HUGE))
@example(case=("productivity", ("productivity", "mean"), HUGE))
@example(case=("scenario", ("scenario", "Slump"), HUGE))
# completion times near the largest float: their mean overflowed, and
# numpy warned before a summary of inf and nan
@example(case=("productivity", ("load_time",), 1e308))
# a feature whose z-score overflows warned before the numerical failure
@example(case=("scenario", ("scenario", "Curvature"), 1e308))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sim_configs_exit_cleanly(model_file, case):
    source, path, value = case
    with tempfile.TemporaryDirectory() as workdir:
        config, out = Path(workdir, "sim.json"), Path(workdir, "out.csv")
        config.write_text(json.dumps(sim_config(source, path, value)))
        model = ["--model", model_file] if source == "scenario" else []
        assert_clean_exit(*main_result(
            ["simulate", "--config", str(config), *model, "--reps", "2",
             "--seed", "1", "--out", str(out)], out))


@st.composite
def corruptions(draw, raw):
    """A copy of the JSON object `raw` with one key or list item dropped,
    or one value replaced by a :data:`JSON_VALUES` value. The value is
    picked by descending from the root, stopping at each level with
    probability 1/2, so every depth is tried."""
    raw = json.loads(json.dumps(raw))
    parent, key = None, None
    node = raw
    while isinstance(node, (dict, list)) and node and (
            parent is None or draw(st.booleans())):
        parent = node
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        node = parent[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return raw


@pytest.fixture(scope="module")
def json_files(model_file):
    """The model and dataset file that `model_file` was trained from."""
    return {"model": model_file,
            "dataset": str(Path(model_file).with_name("ds.json"))}


def run_on_files(json_files, command, target, raw):
    """`command` (derive or evaluate) with the model or dataset file
    (`target`) replaced by the JSON object `raw`."""
    files = dict(json_files)
    with tempfile.TemporaryDirectory() as workdir:
        bad, out = Path(workdir, f"bad.{target}"), Path(workdir, "out.csv")
        bad.write_text(json.dumps(raw))
        files[target] = str(bad)
        scenarios = Path(workdir, "scen.csv")
        scenarios.write_text(SCENARIO_TEXT)
        argv = (["derive", "--model", files["model"], "--scenarios",
                 str(scenarios)] if command == "derive" else
                ["evaluate", "--model", files["model"], "--data",
                 files["dataset"]])
        return main_result([*argv, "--out", str(out)], out)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), case=st.sampled_from([
    ("derive", "model"), ("evaluate", "model"), ("evaluate", "dataset")]))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_corrupted_model_and_dataset_files_exit_cleanly(json_files, data,
                                                        case):
    command, target = case
    raw = data.draw(corruptions(read_json(json_files[target])))
    assert_clean_exit(*run_on_files(json_files, command, target, raw))


@pytest.mark.parametrize("key, value, rule", [
    ("adam_beta1", -3, "a finite number >= 0 and < 1"),
    ("adam_beta2", 1.5, "a finite number >= 0 and < 1"),
    ("adam_epsilon", 0, "a finite number > 0"),
])
def test_a_model_file_with_adam_fields_out_of_range_exits_1(json_files, key,
                                                            value, rule):
    raw = read_json(json_files["model"])
    raw["training"][key] = value
    rc, stdout, err, out = run_on_files(json_files, "evaluate", "model", raw)
    assert (rc, stdout, out) == (1, "", None)
    assert err.startswith("error: malformed model file ")
    assert err.endswith(f": {key} must be {rule}, got {value!r}\n")


# ------------------------------------------------------ flags at their edges

#: Each numeric flag, in an argv whose other inputs are good; {value} is
#: the value under test. Training runs one epoch of a width-4 network.
FLAG_ARGVS = {
    "synth --n": "synth --n {value} --seed 1",
    "mixture-demo --n": "mixture-demo --n {value} --seed 1",
    "adapt --iqr-multiplier":
        "adapt --data {data} --iqr-multiplier {value} --seed 1",
    "adapt --train-fraction":
        "adapt --data {data} --train-fraction {value} --seed 1",
    "train --epochs": "train --data {dataset} --epochs {value} --hidden 4 "
                      "--seed 1",
    "train --batch-size": "train --data {dataset} --batch-size {value} "
                          "--epochs 1 --hidden 4 --seed 1",
    "train --lr": "train --data {dataset} --lr {value} --epochs 1 "
                  "--hidden 4 --seed 1",
    "train --hidden": "train --data {dataset} --hidden {value} --epochs 1 "
                      "--seed 1",
    "evaluate --level": "evaluate --model {model} --data {dataset} "
                        "--level {value}",
    "simulate --reps": "simulate --config {config} --reps {value} --seed 1",
}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e-320", "1e308"])
@pytest.mark.parametrize("flag", sorted(FLAG_ARGVS))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numeric_flags_at_their_edges_exit_cleanly(json_files, flag, value):
    with tempfile.TemporaryDirectory() as workdir:
        config, out = Path(workdir, "sim.json"), Path(workdir, "out")
        config.write_text(json.dumps(
            dict(SIM_CONFIG, productivity=SOURCES["productivity"])))
        argv = FLAG_ARGVS[flag].format(
            value=value, config=config, model=json_files["model"],
            dataset=json_files["dataset"],
            data=Path(json_files["model"]).with_name("d.csv")).split()
        rc, stdout, err, written = main_result([*argv, "--out", str(out)], out)
    assert_clean_exit(rc, stdout, err, written)
    # a first step of 1e308 leaves non-finite weights: a numerical failure
    assert rc in ((2,) if (flag, value) == ("train --lr", "1e308") else (0, 1))
