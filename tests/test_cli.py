"""End-to-end tests for the command-line interface.

These drive ``cli.main`` with argv lists instead of subprocesses so
coverage and debugging stay simple; every file artifact goes through a
real tmp directory.
"""

import csv
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pavesim import cli
from pavesim.modelfile import load_dataset, load_model
from pavesim.synthetic import generate_paving_dataset
from pavesim.tables import PAVING_COLUMNS, TARGET_COLUMN, csv_text, load_csv
from table_helpers import rows_of

FEATURE_NAMES = PAVING_COLUMNS[1:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def raw_csv(workdir):
    path = workdir / "d.csv"
    rc = cli.main(["synth", "--n", "200", "--seed", "11", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def dataset_file(workdir, raw_csv):
    path = workdir / "ds.json"
    rc = cli.main([
        "adapt", "--data", str(raw_csv), "--seed", "12",
        "--out", str(path), "--report", str(workdir / "rep.json"),
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def model_file(workdir, dataset_file):
    path = workdir / "m.model"
    rc = cli.main([
        "train", "--data", str(dataset_file), "--seed", "13",
        "--epochs", "20", "--hidden", "6,6", "--out", str(path),
    ])
    assert rc == 0
    return path


def non_comment_lines(path):
    return [
        line for line in path.read_text().splitlines()
        if not line.startswith("#")
    ]


# ---------------------------------------------------------------- parsing


def test_version_flag_prints_and_exits(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    assert "pavesim 0.1.0" in capsys.readouterr().out


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error(capsys):
    assert cli.main([]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(tmp_path, capsys):
    rc = cli.main([
        "synth", "--n", "5", "--seed", "1",
        "--out", str(tmp_path / "x.csv"), "--bogus",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_integer_flag_names_the_flag(tmp_path, capsys):
    rc = cli.main([
        "train", "--data", str(tmp_path / "d.csv"), "--seed", "1",
        "--epochs", "abc", "--out", str(tmp_path / "m.model"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--epochs" in err
    assert "invalid int value: 'abc'" in err


@pytest.mark.parametrize("command, flag", [
    ("synth", "--seed"), ("adapt", "--seed"), ("train", "--seed"),
    ("simulate", "--seed"), ("mixture-demo", "--seed"),
])
def test_negative_seed_is_a_usage_error(raw_csv, dataset_file, tmp_path,
                                        capsys, command, flag):
    inputs = {
        "synth": ["--n", "5"],
        "adapt": ["--data", str(raw_csv)],
        "train": ["--data", str(dataset_file), "--epochs", "1",
                  "--hidden", "4"],
        "simulate": ["--config",
                     str(write_config(tmp_path / "sim.cfg", DIRECT_CONFIG)),
                     "--reps", "5"],
        "mixture-demo": ["--n", "5"],
    }[command]
    seeds = {"--seed": "1", flag: "-1"}
    out = tmp_path / "out"
    rc = cli.main([command, *inputs, *(x for kv in seeds.items() for x in kv),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: seeds must be non-negative")
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_strategy_is_validated(tmp_path, capsys):
    rc = cli.main([
        "adapt", "--data", str(tmp_path / "d.csv"), "--seed", "1",
        "--missing", "wish_away", "--out", str(tmp_path / "ds.json"),
    ])
    assert rc == 1
    assert "--missing must be" in capsys.readouterr().err


def test_outlier_strategy_is_validated(tmp_path, capsys):
    rc = cli.main([
        "adapt", "--data", str(tmp_path / "d.csv"), "--seed", "1",
        "--outliers", "ignore", "--out", str(tmp_path / "ds.json"),
    ])
    assert rc == 1
    assert "--outliers must be" in capsys.readouterr().err


def test_hidden_widths_are_validated(tmp_path, capsys):
    rc = cli.main([
        "train", "--data", str(tmp_path / "d.csv"), "--seed", "1",
        "--hidden", "6,x", "--out", str(tmp_path / "m.model"),
    ])
    assert rc == 1
    assert "--hidden must be comma-separated integers" in (
        capsys.readouterr().err
    )


def test_level_choices_are_enforced(tmp_path, capsys):
    rc = cli.main([
        "evaluate", "--model", str(tmp_path / "m.model"),
        "--data", str(tmp_path / "d.csv"), "--level", "0.5",
    ])
    assert rc == 1
    assert "invalid choice" in capsys.readouterr().err


# ------------------------------------------------------------------ synth


def test_synth_writes_audit_header_and_rows(raw_csv):
    lines = raw_csv.read_text().splitlines()
    assert lines[0] == "# pavesim 0.1.0"
    assert lines[1] == "# subcommand: synth"
    body = non_comment_lines(raw_csv)
    assert body[0].split(",")[0] == TARGET_COLUMN
    assert len(body) == 1 + 200


def test_synth_prints_seed(tmp_path, capsys):
    rc = cli.main([
        "synth", "--n", "10", "--seed", "7", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed = 7" in out
    assert "wrote 10 rows" in out


def test_synth_reruns_are_byte_identical(tmp_path):
    # The audit header embeds the output path, so a faithful rerun
    # check reuses the exact argv and snapshots the bytes in between.
    path = tmp_path / "a.csv"
    argv = ["synth", "--n", "40", "--seed", "5", "--out", str(path)]
    assert cli.main(argv) == 0
    first = path.read_bytes()
    assert cli.main(argv) == 0
    assert path.read_bytes() == first


def test_synth_truth_flag_adds_generator_columns(tmp_path):
    path = tmp_path / "t.csv"
    rc = cli.main([
        "synth", "--n", "5", "--seed", "2", "--out", str(path), "--truth",
    ])
    assert rc == 0
    header = non_comment_lines(path)[0].split(",")
    assert "MuStar" in header
    assert "SigmaStar" in header


# ------------------------------------------------------------------ adapt


def test_adapt_reports_split_sizes(tmp_path, capsys):
    raw = tmp_path / "small.csv"
    assert cli.main(["synth", "--n", "50", "--seed", "3", "--out", str(raw)]) == 0
    capsys.readouterr()
    rc = cli.main([
        "adapt", "--data", str(raw), "--seed", "4",
        "--out", str(tmp_path / "small.json"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed = 4" in out
    assert "split: 40 train / 10 test rows" in out


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_adapt_rejects_a_non_finite_iqr_multiplier(tmp_path, capsys, value):
    data = tmp_path / "x.csv"
    data.write_text("Y,X\n1,5\n2,5\n3,5\n4,5\n5,6\n")
    out = tmp_path / "ds.json"
    rc = cli.main([
        "adapt", "--data", str(data), "--target", "Y", "--seed", "1",
        f"--iqr-multiplier={value}", "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: iqr_multiplier must be a finite number > 0, "
                          f"got {float(value)!r}")
    assert not out.exists()


def test_adapt_refuses_a_csv_of_the_target_alone(tmp_path, capsys):
    # numpy's "need at least one array to stack" was a traceback
    data = tmp_path / "y.csv"
    data.write_text("Y\n1\n2\n3\n4\n5\n")
    out = tmp_path / "ds.json"
    rc = cli.main(["adapt", "--data", str(data), "--target", "Y", "--seed",
                   "1", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: there is no feature column besides the "
                            "target 'Y'\n")
    assert captured.out == ""
    assert not out.exists()


def test_adapt_names_the_repeated_column(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    data.write_text("Productivity,Slump,Slump\n60,3.5,4.0\n70,4.0,4.5\n")
    out = tmp_path / "ds.json"
    rc = cli.main(["adapt", "--data", str(data), "--seed", "1", "--out",
                   str(out)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "error: column names must be unique: 'Slump' repeats\n")
    assert not out.exists()


def test_adapt_refuses_a_blank_column_name(tmp_path, capsys):
    # pandas.to_csv's unnamed index column: adapt printed "features: ,
    # Slump", trained on the row numbers and exited 0
    data = tmp_path / "pandas.csv"
    data.write_text(",Productivity,Slump\n0,60,3.5\n1,70,4.0\n2,65,3.0\n")
    out = tmp_path / "ds.json"
    rc = cli.main(["adapt", "--data", str(data), "--seed", "1", "--out",
                   str(out), "--report", str(tmp_path / "rep.json")])
    assert rc == 1
    assert capsys.readouterr() == (
        "", f"error: column 0 of {data} has no name\n")
    assert [p.name for p in tmp_path.iterdir()] == ["pandas.csv"]


def test_evaluate_and_derive_refuse_a_blank_column_name(tmp_path, raw_csv,
                                                        model_file, capsys):
    # both ignored the unnamed column before
    data = tmp_path / "pandas.csv"
    table = load_csv(raw_csv)
    data.write_text(csv_text((), ("", *table.column_names),
                             enumerate(rows_of(table)[:3])))
    for argv in (["evaluate", "--data"], ["derive", "--scenarios"]):
        rc = cli.main([argv[0], "--model", str(model_file), argv[1],
                       str(data), "--out", str(tmp_path / "out.csv")])
        assert rc == 1
        assert capsys.readouterr() == (
            "", f"error: column 0 of {data} has no name\n")
    assert [p.name for p in tmp_path.iterdir()] == ["pandas.csv"]


@pytest.mark.parametrize("blank", [False, True])
def test_adapt_refuses_the_answer_key_as_target(tmp_path, capsys, blank):
    # --target MuStar trained a model of the answer key and exited 0; with
    # a blank MuStar cell it blamed cleaning, which never touches MuStar
    data = tmp_path / "truth.csv"
    assert cli.main(["synth", "--n", "30", "--seed", "4", "--truth",
                     "--out", str(data)]) == 0
    if blank:
        lines = data.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines)
                     if not line.startswith("#")) + 1
        cells = lines[first].split(",")
        cells[-2] = ""  # MuStar, before SigmaStar
        lines[first] = ",".join(cells)
        data.write_text("".join(lines))
    capsys.readouterr()
    out = tmp_path / "ds.json"
    rc = cli.main(["adapt", "--data", str(data), "--target", "MuStar",
                   "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "error: column 'MuStar' is never data (the answer key or a "
            "label), so it cannot be the target\n")
    assert not out.exists()


def with_target(source, path, target):
    """A copy of a dataset or model file whose target is renamed."""
    text = source.read_text()
    assert text.count('"name": "Productivity"') == 1
    path.write_text(text.replace('"name": "Productivity"',
                                 f'"name": "{target}"'))
    return path


@pytest.mark.parametrize("target", ["MuStar", "label"])
def test_train_refuses_a_dataset_whose_target_is_never_data(
        tmp_path, dataset_file, capsys, target):
    # such a file, as adapt --target MuStar once wrote, loaded and trained
    data = with_target(dataset_file, tmp_path / "ds.json", target)
    out = tmp_path / "m.model"
    rc = cli.main(["train", "--data", str(data), "--seed", "1", "--epochs",
                   "2", "--hidden", "3", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", f"error: malformed dataset file {data}: malformed normalization "
            f"statistics: column {target!r} is never data (the answer key or "
            "a label), so it cannot be the target\n")
    assert not out.exists()


def test_evaluate_refuses_a_model_whose_target_is_never_data(
        tmp_path, model_file, capsys):
    # such a file loaded, and evaluate scored against the answer key
    data = tmp_path / "truth.csv"
    assert cli.main(["synth", "--n", "30", "--seed", "4", "--truth",
                     "--out", str(data)]) == 0
    model = with_target(model_file, tmp_path / "m.model", "MuStar")
    capsys.readouterr()
    out = tmp_path / "cov.csv"
    rc = cli.main(["evaluate", "--model", str(model), "--data", str(data),
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", f"error: malformed model file {model}: malformed normalization "
            "statistics: column 'MuStar' is never data (the answer key or a "
            "label), so it cannot be the target\n")
    assert not out.exists()


def test_adapt_names_a_cell_too_large_for_csv(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("Productivity,Slump\n" + "6" * 200_000 + ",3.5\n")
    out = tmp_path / "ds.json"
    rc = cli.main(["adapt", "--data", str(data), "--seed", "1", "--out",
                   str(out)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", f"error: cannot read row 0 of {data}: field larger than field "
        f"limit ({csv.field_size_limit()})\n")
    assert not out.exists()


def test_adapt_reads_a_csv_with_a_trailing_blank_line(tmp_path, capsys):
    data = tmp_path / "x.csv"
    data.write_text("Y,X\n1,5\n2,5\n3,5\n4,5\n5,6\n\n")
    out = tmp_path / "ds.json"
    rc = cli.main([
        "adapt", "--data", str(data), "--target", "Y", "--seed", "1",
        "--out", str(out),
    ])
    assert rc == 0, capsys.readouterr().err
    assert "split: 4 train / 1 test rows" in capsys.readouterr().out
    assert out.exists()


def test_adapt_writes_loadable_dataset(dataset_file):
    train_ds, test_ds = load_dataset(str(dataset_file))
    assert train_ds.n == 160
    assert test_ds.n == 40
    assert tuple(c.name for c in train_ds.norm_stats.features) == FEATURE_NAMES
    assert train_ds.norm_stats == test_ds.norm_stats


def test_adapt_cleaning_report_is_json(workdir, dataset_file):
    text = (workdir / "rep.json").read_text()
    assert text.startswith("# pavesim 0.1.0\n# subcommand: adapt\n")
    payload = json.loads(
        "\n".join(line for line in text.splitlines()
                  if not line.startswith("#"))
    )
    assert "rows_dropped_missing" in payload


def test_adapt_join_excludes_key_from_features(tmp_path, capsys):
    weather = tmp_path / "w.csv"
    weather.write_text(
        "JobId,Temperature,Humidity\n1,20,70\n2,25,60\n3,30,50\n"
    )
    site = tmp_path / "s.csv"
    site.write_text(
        "JobId,Productivity,Slump\n2,60,3.5\n3,70,4.0\n4,80,4.5\n"
    )
    out = tmp_path / "j.json"
    rc = cli.main([
        "adapt", "--data", str(weather), "--data", str(site),
        "--key", "JobId", "--seed", "5", "--train-fraction", "0.5",
        "--out", str(out),
    ])
    assert rc == 0
    assert "2 input rows dropped" in capsys.readouterr().out
    train_ds, test_ds = load_dataset(str(out))
    assert tuple(c.name for c in train_ds.norm_stats.features) == (
        "Temperature", "Humidity", "Slump",
    )
    assert train_ds.n + test_ds.n == 2


def test_adapt_join_requires_key(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("JobId,Productivity,Slump\n1,60,3.5\n2,70,4.0\n")
    b = tmp_path / "b.csv"
    b.write_text("JobId,Temperature\n1,20\n2,25\n")
    rc = cli.main([
        "adapt", "--data", str(a), "--data", str(b), "--seed", "1",
        "--out", str(tmp_path / "j.json"),
    ])
    assert rc == 1
    assert "requires --key" in capsys.readouterr().err


def keyed_csv(path, congestion, truth=False, key="{}"):
    """A synth table with a ``JobId`` column first, row i's key being
    ``key.format(i + 1)``, and the given Congestion cells (None for a
    blank)."""
    table = generate_paving_dataset(len(congestion), 21, include_truth=truth)
    at = table.column_index("Congestion")
    rows = [(key.format(i + 1), *row[:at], flag, *row[at + 1:])
            for i, (row, flag) in enumerate(zip(rows_of(table), congestion))]
    path.write_text(csv_text((), ("JobId",) + table.column_names, rows))
    return path


def test_adapt_keyed_file_with_the_answer_key_trains_on_the_nine_features(
        tmp_path, capsys):
    # --key made cli build the features itself, so MuStar and SigmaStar
    # were features and derive failed with "feature 'MuStar' missing"
    data = keyed_csv(tmp_path / "k.csv", [0, 1] * 20, truth=True)
    ds, model = tmp_path / "ds.json", tmp_path / "m.model"
    assert cli.main(["adapt", "--data", str(data), "--key", "JobId",
                     "--seed", "1", "--out", str(ds)]) == 0
    train_ds, _ = load_dataset(str(ds))
    assert tuple(c.name for c in train_ds.norm_stats.features) == FEATURE_NAMES
    assert cli.main(["train", "--data", str(ds), "--seed", "2", "--epochs",
                     "1", "--hidden", "3", "--out", str(model)]) == 0
    scen = tmp_path / "scen.csv"
    scen.write_text(SCENARIO_CSV)
    capsys.readouterr()
    assert cli.main(["derive", "--model", str(model), "--scenarios",
                     str(scen)]) == 0
    assert "best: mean = " in capsys.readouterr().out


@pytest.mark.parametrize("ones, fill", [(10, 1.0), (9, 0.0)],
                         ids=["majority", "tie"])
def test_adapt_keyed_file_imputes_congestion_as_boolean(tmp_path, ones, fill):
    # a keyed header did not start with Productivity, so Congestion was
    # numeric: z-scored, and a blank filled with the median (0.5 on a tie)
    data = keyed_csv(tmp_path / "k.csv", [1] * ones + [0] * (18 - ones) + [None])
    out = tmp_path / "ds.json"
    assert cli.main(["adapt", "--data", str(data), "--key", "JobId",
                     "--seed", "1", "--out", str(out)]) == 0
    train_ds, test_ds = load_dataset(str(out))
    at = FEATURE_NAMES.index("Congestion")
    assert train_ds.norm_stats.features[at].kind == "boolean"
    flags = np.concatenate([train_ds.X[:, at], test_ds.X[:, at]])
    assert sorted(flags) == sorted([1.0] * ones + [0.0] * (18 - ones) + [fill])


@pytest.mark.parametrize("key", ["{}", "j{}"], ids=["numeric", "text"])
def test_adapt_joined_columns_of_a_second_source_are_features(tmp_path, capsys,
                                                             key):
    # a second source's columns were joined, cleaned and counted, then
    # dropped when the nine condition attributes were all present; a text
    # key was refused at load as "not numeric"
    data = keyed_csv(tmp_path / "k.csv", [0, 1] * 20, key=key)
    crew = tmp_path / "crew.csv"
    crew.write_text("JobId,CrewSize\n" + "".join(
        f"{key.format(i)},{3 + i % 4}\n" for i in range(41, 0, -1)))
    out = tmp_path / "ds.json"
    assert cli.main(["adapt", "--data", str(data), "--data", str(crew),
                     "--key", "JobId", "--seed", "1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "40 rows, 1 input rows dropped" in stdout
    features = FEATURE_NAMES + ("CrewSize",)
    assert f"features: {', '.join(features)}\n" in stdout
    train_ds, _ = load_dataset(str(out))
    assert tuple(c.name for c in train_ds.norm_stats.features) == features


def test_adapt_joins_on_a_boolean_named_key(tmp_path, capsys):
    # the key is read as text, yet the table held a boolean name to 0 and 1
    data = tmp_path / "k.csv"
    data.write_text("Spreader,Productivity,Slump\n"
                    "1,60,3.5\n0,70,4.0\n2,65,4.5\n3,80,3.0\n")
    out = tmp_path / "ds.json"
    assert cli.main(["adapt", "--data", str(data), "--key", "Spreader",
                     "--seed", "1", "--out", str(out)]) == 0
    assert "features: Slump\n" in capsys.readouterr().out
    train_ds, test_ds = load_dataset(str(out))
    assert train_ds.n + test_ds.n == 4


def test_adapt_drops_the_same_rows_with_or_without_the_answer_key(
        tmp_path, capsys):
    # clean fenced MuStar and SigmaStar too: with them, drop_row dropped 5
    # rows of this table where it drops 3 without them
    logs = []
    for truth in ([], ["--truth"]):
        data, out = tmp_path / "d.csv", tmp_path / "ds.json"
        assert cli.main(["synth", "--n", "300", "--seed", "11", *truth,
                         "--out", str(data)]) == 0
        capsys.readouterr()
        assert cli.main(["adapt", "--data", str(data), "--seed", "12",
                         "--outliers", "drop_row", "--out", str(out)]) == 0
        logs.append(capsys.readouterr().out)
    assert "3 outlier values (3 rows dropped)" in logs[0]
    assert logs[0] == logs[1]


@pytest.mark.parametrize("missing", ["impute_median", "drop_row"])
def test_adapt_keeps_a_row_with_a_blank_label(tmp_path, capsys, missing):
    # a blank Scenario aborted adapt: "cannot impute categorical column"
    data = tmp_path / "s.csv"
    data.write_text("Scenario,Productivity,Slump\n"
                    "a,60,3.5\n,70,4.0\nc,65,4.5\nd,80,3.0\n")
    out = tmp_path / "ds.json"
    assert cli.main(["adapt", "--data", str(data), "--missing", missing,
                     "--seed", "1", "--out", str(out)]) == 0
    assert "cleaned: nothing to do\n" in capsys.readouterr().out
    train_ds, test_ds = load_dataset(str(out))
    assert train_ds.n + test_ds.n == 4


def test_adapt_refuses_a_repeated_nan_key(tmp_path, capsys):
    # a key read as a number made every nan key unequal to every other, so
    # the nan rows of both files were dropped as unmatched
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("JobId,Productivity,Slump\n1,60,3.5\nnan,70,4.0\n"
                 "2,65,4.5\nnan,80,3.0\n")
    b.write_text("JobId,Humidity\n1,60\n2,70\nnan,80\n")
    out = tmp_path / "ds.json"
    rc = cli.main(["adapt", "--data", str(a), "--data", str(b), "--key",
                   "JobId", "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "error: duplicate key 'nan' in table 0 column 'JobId'\n")
    assert not out.exists()


def test_adapt_refuses_an_unknown_key_on_one_file(tmp_path, raw_csv, capsys):
    out = tmp_path / "ds.json"
    rc = cli.main(["adapt", "--data", str(raw_csv), "--key", "Nope",
                   "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: no column named 'Nope'\n"
    assert not out.exists()


# ------------------------------------------------------------------ train


def test_train_writes_loadable_model(model_file):
    params, stats, net_cfg, train_cfg = load_model(str(model_file))
    assert net_cfg.input_dim == 9
    assert net_cfg.hidden_widths == (6, 6)
    assert train_cfg.epochs == 20
    assert params.weights[0].shape == (9, 6)
    assert tuple(c.name for c in stats.features) == FEATURE_NAMES


def test_train_refuses_a_raw_csv(tmp_path, raw_csv, capsys):
    out = tmp_path / "raw.model"
    rc = cli.main([
        "train", "--data", str(raw_csv), "--seed", "3",
        "--epochs", "2", "--hidden", "4", "--out", str(out),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {raw_csv} is not a dataset file: "
                                   f"run 'pavesim adapt --data {raw_csv} ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lr, code, message", [
    ("inf", 1, "error: learning_rate must be a finite number > 0, got inf"),
    ("nan", 1, "error: learning_rate must be a finite number > 0, got nan"),
    # overflows in the first batch: numpy must not warn before the message
    ("1e300", 2, "numerical failure: non-finite training loss"),
    ("1e12", 2, "numerical failure: non-finite training loss"),
], ids=["inf", "nan", "1e300", "1e12"])
def test_a_failing_train_prints_one_message_and_no_stdout(
        tmp_path, dataset_file, capsys, lr, code, message):
    out = tmp_path / "m.model"
    rc = cli.main(["train", "--data", str(dataset_file), "--seed", "1",
                   "--epochs", "5", "--lr", lr, "--hidden", "3",
                   "--out", str(out)])
    assert rc == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_train_divergence_exits_2_without_artifact(tmp_path, dataset_file,
                                                   capsys):
    out = tmp_path / "bad.model"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main([
            "train", "--data", str(dataset_file), "--seed", "3",
            "--epochs", "5", "--lr", "1e12", "--hidden", "8",
            "--out", str(out),
        ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "epoch 0" in err
    assert not out.exists()


# --------------------------------------------------------------- evaluate


def test_evaluate_prints_coverage(model_file, dataset_file, capsys):
    rc = cli.main([
        "evaluate", "--model", str(model_file), "--data", str(dataset_file),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seeds: none (deterministic)" in out
    assert "coverage fraction = 0." in out
    assert "at level 0.95" in out


def test_evaluate_writes_coverage_csv(model_file, dataset_file, tmp_path):
    out = tmp_path / "cov.csv"
    rc = cli.main([
        "evaluate", "--model", str(model_file), "--data", str(dataset_file),
        "--out", str(out),
    ])
    assert rc == 0
    assert "# subcommand: evaluate" in out.read_text()
    body = non_comment_lines(out)
    assert body[0] == "observed,mu,sigma,lo,hi,covered"
    assert len(body) == 1 + 40


def test_evaluate_accepts_raw_csv(model_file, raw_csv, capsys):
    rc = cli.main([
        "evaluate", "--model", str(model_file), "--data", str(raw_csv),
    ])
    assert rc == 0
    assert "coverage fraction" in capsys.readouterr().out


def test_evaluate_on_raw_csv_reads_only_the_model_columns(model_file, tmp_path,
                                                         capsys):
    # a blank in a column the model never reads does not block evaluate;
    # a blank in one it reads is refused by name
    raw = tmp_path / "truth.csv"
    assert cli.main(["synth", "--n", "30", "--seed", "4", "--truth",
                     "--out", str(raw)]) == 0
    lines = raw.read_text().splitlines(keepends=True)
    first = len([l for l in lines if l.startswith("#")]) + 1
    cells = lines[first].split(",")
    lines[first] = ",".join(cells[:-1] + ["\n"])  # SigmaStar blank
    raw.write_text("".join(lines))
    rc = cli.main(["evaluate", "--model", str(model_file), "--data", str(raw)])
    assert rc == 0
    assert "coverage fraction" in capsys.readouterr().out
    lines[first] = ",".join(cells[:1] + [""] + cells[2:])  # Slump blank
    raw.write_text("".join(lines))
    rc = cli.main(["evaluate", "--model", str(model_file), "--data", str(raw)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: column 'Slump' still has missing cells; clean the table first\n")


def test_evaluate_refuses_a_target_flag(model_file, raw_csv, tmp_path,
                                        capsys):
    # the model names its target, so evaluate takes no --target
    out = tmp_path / "cov.csv"
    rc = cli.main(["evaluate", "--model", str(model_file), "--data",
                   str(raw_csv), "--target", "SigmaStar", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "error: unrecognized arguments: --target SigmaStar\n")
    assert not out.exists()


def test_evaluate_rejects_foreign_dataset(model_file, tmp_path, capsys):
    raw = tmp_path / "other.csv"
    assert cli.main(["synth", "--n", "60", "--seed", "99", "--out", str(raw)]) == 0
    ds2 = tmp_path / "other.json"
    assert cli.main([
        "adapt", "--data", str(raw), "--seed", "5", "--out", str(ds2),
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "cov.csv"
    rc = cli.main([
        "evaluate", "--model", str(model_file), "--data", str(ds2),
        "--out", str(out),
    ])
    assert rc == 1
    assert "different statistics" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------- derive


SCENARIO_CSV = (
    "Scenario,Slump,Congestion,Spreader,AirEntrainment,"
    "Temperature,Humidity,Slope,Curvature,PaverAge\n"
    "best,3.0,0,1,4.5,7.7,60.1,1.2028,-0.001,0.0\n"
)


def test_derive_labeled_scenarios(model_file, tmp_path, capsys):
    scen = tmp_path / "scen.csv"
    scen.write_text(SCENARIO_CSV)
    out = tmp_path / "der.csv"
    rc = cli.main([
        "derive", "--model", str(model_file), "--scenarios", str(scen),
        "--out", str(out),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "seeds: none (deterministic)" in stdout
    assert "best: mean = " in stdout
    body = non_comment_lines(out)
    assert body[0] == "scenario,mean,variance,lo95,hi95"
    assert body[1].startswith("best,")


@pytest.mark.parametrize("text", [
    SCENARIO_CSV.replace("Scenario,", '"Scenario",'),
    "\n# scenarios\n\n" + SCENARIO_CSV,
], ids=["quoted-header", "blank-lines-first"])
def test_derive_reads_its_header_by_csv_rules(model_file, tmp_path, capsys,
                                              text):
    scen = tmp_path / "scen.csv"
    scen.write_text(text)
    rc = cli.main([
        "derive", "--model", str(model_file), "--scenarios", str(scen),
    ])
    assert rc == 0
    assert "best: mean = " in capsys.readouterr().out


def test_derive_labels_unlabeled_rows(model_file, tmp_path, capsys):
    scen = tmp_path / "plain.csv"
    scen.write_text(
        "Slump,Congestion,Spreader,AirEntrainment,"
        "Temperature,Humidity,Slope,Curvature,PaverAge\n"
        "3.0,0,1,4.5,20.0,60.0,0.0,0.0,2.0\n"
    )
    rc = cli.main([
        "derive", "--model", str(model_file), "--scenarios", str(scen),
    ])
    assert rc == 0
    assert "row 0: mean = " in capsys.readouterr().out


def test_derive_labels_with_csv_syntax_read_back(model_file, tmp_path):
    # the label is the first cell of derive's rows: a "#" there must not
    # read as a comment line
    values = "3.0,0,1,4.5,7.7,60.1,1.2028,-0.001,0.0"
    scen = tmp_path / "scen.csv"
    scen.write_text(SCENARIO_CSV.splitlines()[0] + "\n" + "".join(
        f"{label},{values}\n" for label in ('"a,b"', '"say ""hi"""', '"#1"')))
    out = tmp_path / "der.csv"
    rc = cli.main(["derive", "--model", str(model_file), "--scenarios",
                   str(scen), "--out", str(out)])
    assert rc == 0
    assert load_csv(out).column_values("scenario") == ("a,b", 'say "hi"', "#1")


def test_derive_and_evaluate_skip_a_text_column_they_never_read(
        model_file, raw_csv, tmp_path):
    # load parsed each column by its name's kind, so a Notes column of
    # "ok", which neither command reads, failed both with "cell 'ok' in
    # row 0, column 'Notes' is not numeric"
    lines = raw_csv.read_text().splitlines(keepends=True)
    first = len([line for line in lines if line.startswith("#")])
    noted = tmp_path / "notes.csv"
    noted.write_text("".join(lines[:first]) + "".join(
        line.replace("\n", ",Notes\n" if i == 0 else ",ok\n")
        for i, line in enumerate(lines[first:])))
    bodies = {}
    for data in (raw_csv, noted):
        for command, flag in (("evaluate", "--data"), ("derive", "--scenarios")):
            out = tmp_path / f"{command}.csv"
            assert cli.main([command, "--model", str(model_file), flag,
                             str(data), "--out", str(out)]) == 0
            bodies.setdefault(command, []).append(non_comment_lines(out))
    assert bodies["evaluate"][0] == bodies["evaluate"][1]
    assert bodies["derive"][0] == bodies["derive"][1]


def test_evaluate_and_derive_agree_bit_for_bit_on_every_row(
        model_file, raw_csv, tmp_path):
    # evaluate ran its rows as one BLAS batch and derive each row alone,
    # and a row rounds otherwise in a batch: mu and sigma differed in the
    # last bits of some rows
    cov, der = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli.main(["evaluate", "--model", str(model_file), "--data",
                     str(raw_csv), "--out", str(cov)]) == 0
    assert cli.main(["derive", "--model", str(model_file), "--scenarios",
                     str(raw_csv), "--out", str(der)]) == 0
    evaluated = list(csv.DictReader(non_comment_lines(cov)))
    derived = list(csv.DictReader(non_comment_lines(der)))
    assert len(evaluated) == len(derived) == 200
    for e, d in zip(evaluated, derived):
        assert float(e["mu"]) == float(d["mean"])
        assert float(e["sigma"]) == np.sqrt(float(d["variance"]))


def test_derive_rejects_empty_scenario_file(model_file, tmp_path, capsys):
    scen = tmp_path / "empty.csv"
    scen.write_text(
        "Slump,Congestion,Spreader,AirEntrainment,"
        "Temperature,Humidity,Slope,Curvature,PaverAge\n"
    )
    rc = cli.main([
        "derive", "--model", str(model_file), "--scenarios", str(scen),
    ])
    assert rc == 1
    assert "has no rows" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("std", 0.0), ("kind", "bogus"), ("mean", float("nan")),
    # a list was a TypeError traceback in derive
    ("name", True), ("name", ["Slump"]),
])
def test_derive_rejects_malformed_column_stats(model_file, tmp_path, capsys,
                                               key, value):
    raw = json.loads("\n".join(non_comment_lines(model_file)))
    raw["normalization"]["features"][0][key] = value  # Slump, numeric
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(raw))
    scen = tmp_path / "scen.csv"
    scen.write_text(SCENARIO_CSV)
    rc = cli.main(["derive", "--model", str(bad), "--scenarios", str(scen)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed model file {bad}: malformed "
                          "normalization statistics: ")
    assert "Traceback" not in err


def test_derive_refuses_a_model_that_lists_a_feature_twice(model_file,
                                                          tmp_path, capsys):
    # Slump in place of Congestion fed Slump into the Congestion input
    raw = json.loads("\n".join(non_comment_lines(model_file)))
    features = raw["normalization"]["features"]
    features[1] = features[0]
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(raw))
    scen = tmp_path / "scen.csv"
    scen.write_text(SCENARIO_CSV)
    out = tmp_path / "der.csv"
    rc = cli.main(["derive", "--model", str(bad), "--scenarios", str(scen),
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: malformed model file {bad}: malformed normalization "
        "statistics: feature 'Slump' is listed more than once\n")
    assert not out.exists()


def test_derive_refuses_an_empty_scenario_cell(model_file, tmp_path, capsys):
    scen = tmp_path / "scen.csv"
    scen.write_text(SCENARIO_CSV.replace("best,3.0,", "best,,"))
    out = tmp_path / "der.csv"
    rc = cli.main([
        "derive", "--model", str(model_file), "--scenarios", str(scen),
        "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: missing scenario attributes: Slump\n"
    assert not out.exists()


def test_derive_writes_a_blank_label_as_the_row_number(model_file, tmp_path,
                                                       capsys):
    scen = tmp_path / "scen.csv"
    scen.write_text(SCENARIO_CSV.replace("best,", ",") + "worst,"
                    "4.5,1,0,4.5,6.5,84.6,0.0,0.001,5.0\n")
    out = tmp_path / "der.csv"
    rc = cli.main([
        "derive", "--model", str(model_file), "--scenarios", str(scen),
        "--out", str(out),
    ])
    assert rc == 0
    assert "row 0: mean = " in capsys.readouterr().out
    body = non_comment_lines(out)
    assert body[1].startswith("row 0,")
    assert body[2].startswith("worst,")


def test_derive_refuses_an_infinite_model_seed(model_file, tmp_path, capsys):
    raw = json.loads("\n".join(non_comment_lines(model_file)))
    raw["network"]["seed"] = "LITERAL"
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(raw).replace('"LITERAL"', "1e400"))
    scen = tmp_path / "scen.csv"
    scen.write_text(SCENARIO_CSV)
    rc = cli.main(["derive", "--model", str(bad), "--scenarios", str(scen)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: malformed model file")


# --------------------------------------------------------------- simulate


DIRECT_CONFIG = {
    "total_quantity": 120,
    "truck_count": 3,
    "truck_capacity": 12,
    "load_time": 0.15,
    "haul_time": 0.4,
    "dump_time": 0.1,
    "return_time": 0.25,
    "productivity": {"mean": 55.0, "variance": 30.0},
}


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_simulate_with_direct_productivity(tmp_path, capsys):
    cfg = write_config(tmp_path / "sim.cfg", DIRECT_CONFIG)
    out = tmp_path / "sim.csv"
    rc = cli.main([
        "simulate", "--config", str(cfg), "--reps", "200", "--seed", "14",
        "--out", str(out),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "seed = 14" in stdout
    assert "input model: mean = 55.0000" in stdout
    assert "200 replications" in stdout
    assert out.read_text().startswith("# pavesim 0.1.0\n# subcommand: simulate\n")


def test_simulate_rejects_model_with_direct_productivity(tmp_path, capsys):
    cfg = write_config(tmp_path / "sim.cfg", DIRECT_CONFIG)
    rc = cli.main([
        "simulate", "--config", str(cfg), "--model", str(tmp_path / "m.model"),
        "--reps", "10", "--seed", "1", "--out", str(tmp_path / "sim.csv"),
    ])
    assert rc == 1
    assert "drop --model" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.pop("truck_count"), "config is missing keys: truck_count"),
    (lambda c: c.update(total_amount=c.pop("total_quantity")),
     "unknown config keys: total_amount"),
    (lambda c: c["productivity"].update(sd=5.5),
     "unknown productivity keys: sd"),
    # a config's own keys are checked once the input model is built
    (lambda c: (c.pop("return_time"), c["productivity"].update(variance=-1)),
     "variance must be a finite number >= 0, got -1"),
], ids=["missing", "unknown", "unknown-productivity", "model-first"])
def test_simulate_checks_the_config_keys(tmp_path, capsys, edit, message):
    payload = json.loads(json.dumps(DIRECT_CONFIG))
    edit(payload)
    cfg = write_config(tmp_path / "sim.cfg", payload)
    rc = cli.main(["simulate", "--config", str(cfg), "--reps", "10",
                   "--seed", "1", "--out", str(tmp_path / "sim.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("truck_count", [2.5, True, "3"])
def test_simulate_rejects_ill_typed_truck_count(tmp_path, capsys, truck_count):
    cfg = write_config(tmp_path / "sim.cfg",
                       dict(DIRECT_CONFIG, truck_count=truck_count))
    out = tmp_path / "sim.csv"
    rc = cli.main([
        "simulate", "--config", str(cfg), "--reps", "10", "--seed", "1",
        "--out", str(out),
    ])
    assert rc == 1
    assert "truck_count must be an integer" in capsys.readouterr().err
    assert not out.exists()

@pytest.mark.parametrize("key, value", [
    ("truck_capacity", 1e-300), ("total_quantity", 1e300)])
def test_simulate_refuses_an_oversized_load_plan(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "sim.cfg", dict(DIRECT_CONFIG, **{key: value}))
    out = tmp_path / "sim.csv"
    rc = cli.main([
        "simulate", "--config", str(cfg), "--reps", "10", "--seed", "1",
        "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: total_quantity / truck_capacity = ")
    assert "more than 1000000 truckloads" in err
    assert "Traceback" not in err
    assert not out.exists()


SCENARIO_CONFIG = {
    "total_quantity": 60,
    "truck_count": 2,
    "truck_capacity": 10,
    "load_time": 0.15,
    "haul_time": 0.4,
    "dump_time": 0.1,
    "return_time": 0.25,
    "scenario": {
        "Slump": 3.0, "Congestion": 0, "Spreader": 1, "AirEntrainment": 4.5,
        "Temperature": 20.0, "Humidity": 60.0, "Slope": 0.0,
        "Curvature": 0.0, "PaverAge": 2.0,
    },
}


def test_simulate_scenario_config_requires_model(tmp_path, capsys):
    cfg = write_config(tmp_path / "sim.cfg", SCENARIO_CONFIG)
    rc = cli.main([
        "simulate", "--config", str(cfg), "--reps", "10", "--seed", "1",
        "--out", str(tmp_path / "sim.csv"),
    ])
    assert rc == 1
    assert "--model is required" in capsys.readouterr().err


def test_simulate_scenario_config_with_model(model_file, tmp_path, capsys):
    cfg = write_config(tmp_path / "sim.cfg", SCENARIO_CONFIG)
    out = tmp_path / "sim.csv"
    rc = cli.main([
        "simulate", "--config", str(cfg), "--model", str(model_file),
        "--reps", "50", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    assert "input model: mean = " in capsys.readouterr().out
    assert out.exists()


@pytest.mark.parametrize("source, block, message", [
    ("productivity", {"mean": "55", "variance": 30.0},
     "mean must be a finite number, got '55'"),
    ("productivity", {"mean": 55.0, "variance": True},
     "variance must be a finite number >= 0, got True"),
    ("scenario", dict(SCENARIO_CONFIG["scenario"], Slump="3.0"),
     "Slump must be a finite number, got '3.0'"),
    ("scenario", dict(SCENARIO_CONFIG["scenario"], Congestion=False),
     "Congestion must be a finite number, got False"),
], ids=["productivity-block0", "productivity-block1", "scenario-block2",
        "scenario-block3"])
def test_simulate_rejects_non_numeric_source_values(model_file, tmp_path,
                                                    capsys, source, block,
                                                    message):
    payload = {k: v for k, v in DIRECT_CONFIG.items() if k != "productivity"}
    cfg = write_config(tmp_path / "sim.cfg", dict(payload, **{source: block}))
    out = tmp_path / "sim.csv"
    model = ["--model", str(model_file)] if source == "scenario" else []
    rc = cli.main([
        "simulate", "--config", str(cfg), *model, "--reps", "10",
        "--seed", "1", "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_malformed_productivity_block(tmp_path, capsys):
    payload = dict(DIRECT_CONFIG, productivity={"mean": 5})
    cfg = write_config(tmp_path / "sim.cfg", payload)
    rc = cli.main([
        "simulate", "--config", str(cfg), "--reps", "10", "--seed", "1",
        "--out", str(tmp_path / "sim.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: productivity is missing keys: variance\n")


PAIR = '"productivity": {"mean": 55.0, "variance": 30.0}'


@pytest.mark.parametrize("mangle, message", [
    (lambda t: t.replace('{"total', '"total'),
     "{path} is not valid JSON: Extra data: line 1 column 17 (char 16)"),
    (lambda t: "[1, 2]\n", "{path} must hold a JSON object"),
    (lambda t: t.replace(PAIR, '"load_time": 0.15'),
     "config must provide exactly one of 'productivity' or 'scenario', "
     "got neither"),
    (lambda t: t.replace(PAIR, PAIR + ', "scenario": {"Slump": 3.0}'),
     "config must provide exactly one of 'productivity' or 'scenario', "
     "got ['productivity', 'scenario']"),
    # a source that is not an object is refused before --model is looked at
    (lambda t: t.replace(PAIR, '"productivity": [55.0, 30.0]'),
     "productivity must be a JSON object, got [55.0, 30.0]"),
    (lambda t: t.replace(PAIR, '"scenario": [55.0, 30.0]'),
     "scenario must be a JSON object, got [55.0, 30.0]"),
    # a long one is shown abbreviated
    (lambda t: t.replace(PAIR, f'"scenario": {list(range(10_000))}'),
     "scenario must be a JSON object, got [0, 1, 2, 3, 4, 5, ...]"),
    (None, "no such file: {path}"),
], ids=["not-json", "not-object", "no-source", "two-sources",
        "productivity-list", "scenario-list", "long-scenario-list",
        "missing-file"])
def test_simulate_refuses_a_malformed_config_file(tmp_path, capsys, mangle,
                                                  message):
    path, out = tmp_path / "sim.cfg", tmp_path / "sim.csv"
    if mangle is not None:
        path.write_text("# an operation\n" + mangle(json.dumps(DIRECT_CONFIG)))
    rc = cli.main(["simulate", "--config", str(path), "--reps", "10",
                   "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")
    assert not out.exists()


# -------------------------------------------------------- scenario values


#: Scenario values refused by their column: (column, value in a config's
#: scenario block, cell in a scenario CSV).
REFUSED_SCENARIO_VALUES = [
    ("Congestion", 2, "2"),
    ("Spreader", 0.5, "0.5"),
    ("Humidity", 100.1, "100.1"),
    ("Humidity", -1, "-1"),
    ("AirEntrainment", -0.1, "-0.1"),
    ("PaverAge", -1, "-1"),
    ("Slope", float("inf"), "inf"),  # json.dumps writes Infinity
    ("Slope", "steep", "steep"),
    ("Slope", None, ""),
]


def scenario_file(path, **cells):
    """A one-row scenario CSV, labelled ``best``, of SCENARIO_CONFIG's
    values with `cells` in place of some."""
    row = {k: str(v) for k, v in SCENARIO_CONFIG["scenario"].items()}
    row.update(cells)
    path.write_text(f"Scenario,{','.join(row)}\nbest,{','.join(row.values())}\n")
    return path


@pytest.mark.parametrize("column, value, cell", REFUSED_SCENARIO_VALUES)
def test_derive_refuses_a_scenario_value_by_its_column(
        model_file, tmp_path, capsys, column, value, cell):
    scen = scenario_file(tmp_path / "scen.csv", **{column: cell})
    out = tmp_path / "der.csv"
    rc = cli.main(["derive", "--model", str(model_file), "--scenarios",
                   str(scen), "--out", str(out)])
    assert rc == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ") and column in err
    assert not out.exists()


@pytest.mark.parametrize("column, value, cell", REFUSED_SCENARIO_VALUES)
def test_simulate_refuses_a_scenario_value_by_its_column(
        model_file, tmp_path, capsys, column, value, cell):
    scenario = dict(SCENARIO_CONFIG["scenario"], **{column: value})
    cfg = write_config(tmp_path / "sim.cfg",
                       dict(SCENARIO_CONFIG, scenario=scenario))
    out = tmp_path / "sim.csv"
    rc = cli.main(["simulate", "--config", str(cfg), "--model",
                   str(model_file), "--reps", "10", "--seed", "1",
                   "--out", str(out)])
    assert rc == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ") and column in err
    assert not out.exists()


def test_a_scenario_breaking_several_rules_is_refused_by_its_first_feature(
        model_file, tmp_path, capsys):
    scen = scenario_file(tmp_path / "scen.csv", Humidity="160.1",
                         AirEntrainment="-4.5", PaverAge="-1")
    rc = cli.main(["derive", "--model", str(model_file), "--scenarios",
                   str(scen)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: AirEntrainment must be a finite number >= 0, got -4.5\n")
    scenario = dict(SCENARIO_CONFIG["scenario"], Congestion=2, Humidity=160.1)
    cfg = write_config(tmp_path / "sim.cfg",
                       dict(SCENARIO_CONFIG, scenario=scenario))
    rc = cli.main(["simulate", "--config", str(cfg), "--model",
                   str(model_file), "--reps", "10", "--seed", "1",
                   "--out", str(tmp_path / "sim.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: Congestion must be 0 or 1, got 2.0\n"


def test_a_model_of_any_schema_runs_every_stage(tmp_path, capsys):
    rng = np.random.default_rng(5)
    load, distance = rng.uniform(5, 15, 300), rng.uniform(1, 20, 300)
    duration = 30 + 2 * load + distance + rng.normal(0, 1 + 0.1 * distance)
    data = tmp_path / "trips.csv"
    data.write_text(csv_text((), ("Load", "Distance", "Duration"), zip(
        load.tolist(), distance.tolist(), duration.tolist())))
    scen = tmp_path / "scen.csv"
    scen.write_text("Scenario,Distance,Load\nnear,5,10\n")
    cfg = write_config(tmp_path / "sim.cfg", dict(
        SCENARIO_CONFIG, scenario={"Load": 10, "Distance": 5}))
    ds, model = tmp_path / "ds.json", tmp_path / "m.model"
    for argv in (
        ["adapt", "--data", str(data), "--target", "Duration", "--seed", "1",
         "--out", str(ds)],
        ["train", "--data", str(ds), "--seed", "2", "--epochs", "2",
         "--hidden", "4", "--out", str(model)],
        ["derive", "--model", str(model), "--scenarios", str(scen),
         "--out", str(tmp_path / "der.csv")],
        ["simulate", "--config", str(cfg), "--model", str(model),
         "--reps", "5", "--seed", "3", "--out", str(tmp_path / "sim.csv")],
        ["evaluate", "--model", str(model), "--data", str(data)],
    ):
        assert cli.main(argv) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert "near: mean = " in out
    assert "coverage fraction = " in out


# ----------------------------------------------------------- mixture-demo


def test_mixture_demo_writes_comparison(tmp_path, capsys):
    out = tmp_path / "mix.csv"
    samples = tmp_path / "mixsamp.csv"
    rc = cli.main([
        "mixture-demo", "--n", "500", "--seed", "15",
        "--out", str(out), "--samples-out", str(samples),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "seed = 15" in stdout
    assert "pooled: mean = " in stdout
    body = non_comment_lines(out)
    assert body[0] == "label,weight,mean,variance,pooled_variance_ratio"
    assert body[1].startswith("pooled,")
    sample_rows = non_comment_lines(samples)
    assert len(sample_rows) == 1 + 500


def test_mixture_demo_of_one_sample_has_an_infinite_ratio(tmp_path, capsys):
    # one sample: its condition has zero variance, and so has the pool
    out = tmp_path / "mix.csv"
    assert cli.main(["mixture-demo", "--n", "1", "--seed", "3",
                     "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    header, pooled, rainy = non_comment_lines(out)
    mean = pooled.split(",")[2]
    assert pooled == f"pooled,1.0,{mean},0.0,1.0"
    assert rainy == f"rainy,1.0,{mean},0.0,inf"
    assert "rainy: weight = 1.0000" in stdout
    assert "pooled/component = inf" in stdout


def test_adapt_names_the_text_column_of_a_mixture_sample(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    assert cli.main(["mixture-demo", "--n", "50", "--seed", "1", "--out",
                     str(tmp_path / "mix.csv"), "--samples-out",
                     str(samples)]) == 0
    capsys.readouterr()
    rc = cli.main(["adapt", "--data", str(samples), "--target", "Duration",
                   "--seed", "1", "--out", str(tmp_path / "ds.json")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: categorical column 'Condition' "
                                       "is not supported as a feature\n")


# -------------------------------------------------------------- read back


#: The text columns of the CSVs the walkthrough writes.
TEXT_COLUMNS = {"der.csv": {"scenario"}, "mix.csv": {"label"},
                "samples.csv": {"Condition"}}


def written_rows(path, text_columns):
    """The rows of a written CSV as the values written: a cell of a text
    column as is, an empty one as None and any other as a float."""
    header, *rows = csv.reader(non_comment_lines(path))
    return tuple(
        tuple(None if cell == "" else cell if name in text_columns
              else float(cell) for name, cell in zip(header, row))
        for row in rows)


def test_every_csv_the_walkthrough_writes_reads_back(
        raw_csv, dataset_file, model_file, tmp_path, capsys):
    paths = {name: tmp_path / name for name in (
        "cov.csv", "der.csv", "sim.csv", "mix.csv", "samples.csv")}
    cfg = write_config(tmp_path / "sim.cfg", DIRECT_CONFIG)
    scen = scenario_file(tmp_path / "scen.csv")
    for argv in (
        ["evaluate", "--model", model_file, "--data", dataset_file,
         "--out", paths["cov.csv"]],
        ["derive", "--model", model_file, "--scenarios", scen,
         "--out", paths["der.csv"]],
        ["simulate", "--config", cfg, "--reps", "20", "--seed", "14",
         "--out", paths["sim.csv"]],
        ["mixture-demo", "--n", "200", "--seed", "15", "--out",
         paths["mix.csv"], "--samples-out", paths["samples.csv"]],
    ):
        assert cli.main(list(map(str, argv))) == 0, capsys.readouterr().err
    paths["d.csv"] = raw_csv
    for name, path in paths.items():
        table = load_csv(path)
        assert rows_of(table) == written_rows(path, TEXT_COLUMNS.get(name, ())), name


# ------------------------------------------------------------- file errors


#: Every flag that names an input file, in an argv whose other inputs are
#: good; {bad} is the file under test.
INPUT_ARGVS = {
    "adapt --data": "adapt --data {bad} --seed 1 --out {out}",
    "train --data": "train --data {bad} --seed 1 --epochs 1 --out {out}",
    "evaluate --model": "evaluate --model {bad} --data {data} --out {out}",
    "evaluate --data": "evaluate --model {model} --data {bad} --out {out}",
    "derive --model": "derive --model {bad} --scenarios {scenarios} --out {out}",
    "derive --scenarios": "derive --model {model} --scenarios {bad} --out {out}",
    "simulate --config":
        "simulate --config {bad} --model {model} --reps 2 --seed 1 --out {out}",
    "simulate --model":
        "simulate --config {config} --model {bad} --reps 2 --seed 1 --out {out}",
}


@pytest.mark.parametrize("bad_kind", ["directory", "not-utf8"])
@pytest.mark.parametrize("flag", sorted(INPUT_ARGVS))
def test_an_unreadable_input_is_an_error(model_file, dataset_file, raw_csv,
                                         tmp_path, capsys, flag, bad_kind):
    files = {
        "model": model_file,
        "data": dataset_file,
        "scenarios": tmp_path / "scen.csv",
        "config": write_config(tmp_path / "sim.cfg", SCENARIO_CONFIG),
        "out": tmp_path / "out",
    }
    files["scenarios"].write_text(SCENARIO_CSV)
    bad = tmp_path / "bad"
    if bad_kind == "directory":
        bad.mkdir()
        message = f"error: cannot read {bad}: Is a directory"
    else:
        # the good file this flag reads, behind a comment line in Latin-1
        source = {"adapt --data": raw_csv, "train --data": dataset_file,
                  "evaluate --data": dataset_file,
                  "derive --scenarios": files["scenarios"],
                  "simulate --config": files["config"]}.get(flag, model_file)
        bad.write_bytes(b"# d\xe9j\xe0 vu\n" + source.read_bytes())
        message = f"error: {bad} is not UTF-8 text: "
    argv = [word.format(bad=bad, **files) for word in INPUT_ARGVS[flag].split()]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not files["out"].exists()


#: Every flag that names an output, in an argv that writes every output its
#: command can; {bad} is the output under test, the others are in {run}.
OUTPUT_ARGVS = {
    "synth --out": "synth --n 5 --seed 1 --out {bad}",
    "adapt --out":
        "adapt --data {raw} --seed 1 --out {bad} --report {run}/rep.json",
    "adapt --report":
        "adapt --data {raw} --seed 1 --out {run}/ds.json --report {bad}",
    "train --out":
        "train --data {data} --seed 1 --epochs 1 --hidden 3 --out {bad}",
    "evaluate --out": "evaluate --model {model} --data {data} --out {bad}",
    "derive --out": "derive --model {model} --scenarios {scenarios} --out {bad}",
    "simulate --out":
        "simulate --config {config} --model {model} --reps 2 --seed 1 "
        "--out {bad}",
    "mixture-demo --out":
        "mixture-demo --n 50 --seed 1 --out {bad} --samples-out {run}/s.csv",
    "mixture-demo --samples-out":
        "mixture-demo --n 50 --seed 1 --out {run}/mix.csv --samples-out {bad}",
}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("flag", sorted(OUTPUT_ARGVS))
def test_an_unwritable_out_is_an_error(model_file, dataset_file, raw_csv,
                                       tmp_path, capsys, flag, where):
    scenarios = tmp_path / "scen.csv"
    scenarios.write_text(SCENARIO_CSV)
    config = write_config(tmp_path / "sim.cfg", SCENARIO_CONFIG)
    run = tmp_path / "run"
    run.mkdir()
    bad = run / "sub"
    if where == "directory":
        bad.mkdir()
    else:
        bad = bad / "d.csv"
    argv = [word.format(bad=bad, run=run, raw=raw_csv, data=dataset_file,
                        model=model_file, scenarios=scenarios, config=config)
            for word in OUTPUT_ARGVS[flag].split()]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {bad}: ")
    assert captured.out == ""
    # no other output of the run, and no temp file
    assert [p.name for p in run.rglob("*")] == (
        ["sub"] if where == "directory" else [])
    assert not list(tmp_path.rglob("*.tmp"))


def _limit_file_size():
    # In the child only, since the limit holds for every file a process
    # writes: a write past it then fails part way with EFBIG, as one on a
    # full disk fails with ENOSPC, instead of raising SIGXFSZ.
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))


@pytest.mark.parametrize("argv, out", [
    ("adapt --data {raw} --seed 12 --out ds.json", "ds.json"),
    ("train --data {data} --seed 13 --epochs 1 --out m.model", "m.model"),
], ids=["adapt", "train"])
def test_a_failed_write_names_the_out_path(raw_csv, dataset_file, tmp_path,
                                           argv, out):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "pavesim",
         *argv.format(raw=raw_csv, data=dataset_file).split()],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src),
                               PYTHONDONTWRITEBYTECODE="1"),
        preexec_fn=_limit_file_size, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert proc.stdout == ""
    assert not list(tmp_path.iterdir())


def test_a_failed_run_keeps_the_outputs_it_would_replace(raw_csv, tmp_path,
                                                         capsys):
    out = tmp_path / "ds.json"
    out.write_text("old")
    rc = cli.main(["adapt", "--data", str(raw_csv), "--seed", "2",
                   "--out", str(out), "--report", str(tmp_path / "no/r.json")])
    assert rc == 1
    assert capsys.readouterr().out == ""
    assert out.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["ds.json"]


def test_an_interrupted_run_leaves_no_file(tmp_path, capsys, monkeypatch):
    # --out is staged when the samples are being laid out
    def interrupt(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "table_to_csv", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["mixture-demo", "--n", "50", "--seed", "1",
                  "--out", str(tmp_path / "mix.csv"),
                  "--samples-out", str(tmp_path / "s.csv")])
    assert capsys.readouterr().out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("existed", [False, True])
@pytest.mark.parametrize("argv, name", [
    ("adapt --data {raw} --seed 2 --out same.json --report same.json",
     "same.json"),
    ("mixture-demo --n 100 --seed 3 --out m.csv --samples-out ./m.csv",
     "m.csv"),
], ids=["adapt", "mixture-demo"])
def test_two_outputs_naming_one_file_are_refused(raw_csv, tmp_path, capsys,
                                                 monkeypatch, argv, name,
                                                 existed):
    monkeypatch.chdir(tmp_path)
    if existed:
        (tmp_path / name).write_text("old")
    assert cli.main(argv.format(raw=raw_csv).split()) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: two outputs name one file: ")
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ([name] if existed else [])
    if existed:
        assert (tmp_path / name).read_text() == "old"
