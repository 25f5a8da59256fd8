"""Every CLI artifact matches the frozen reference build, byte for byte.

One small README walkthrough, plus ``adapt`` on keyed and holed CSVs
(a join, imputation and both drop strategies), runs twice: through
``perfbench/reference`` (a copy of the first version of the package,
never edited) and through ``src``. Each build runs in its own subprocess, with its own ``PYTHONPATH``
and temp directory, relative paths and BLAS pinned to one thread, and the
two run at the same time. Comparing two builds on one machine, rather
than pinning digests, cancels the CPU-dependent rounding of the BLAS
kernels that ``train``, ``evaluate`` and ``derive`` go through.

Every artifact and every stdout log must be identical, except the entries
of :data:`DECLARED`: changes made on purpose, each checked exactly.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILDS = {"reference": ROOT / "perfbench" / "reference", "src": ROOT / "src"}

SCENARIOS = {
    "Slump": 3.0, "Congestion": 0, "Spreader": 1, "AirEntrainment": 4.5,
    "Temperature": 7.7, "Humidity": 60.1, "Slope": 1.2028,
    "Curvature": -0.001, "PaverAge": 0.0,
}
INPUTS = {
    "scen.csv": "Scenario," + ",".join(SCENARIOS) + "\n"
                "best,3.0,0,1,4.5,7.7,60.1,1.2028,-0.001,0.0\n"
                "worst,4.5,1,0,4.5,6.5,84.6,0.0,0.001,5.0\n",
    "direct.cfg": json.dumps({
        "total_quantity": 120, "truck_count": 3, "truck_capacity": 12,
        "load_time": 0.15, "haul_time": 0.4, "dump_time": 0.1,
        "return_time": 0.25, "productivity": {"mean": 55.0, "variance": 30.0},
    }),
    # Q / C is 7.000000000000001 in floats: the reference build plans an
    # eighth load of about 0 m^3.
    "scenario.cfg": json.dumps({
        "total_quantity": 2.1, "truck_count": 1, "truck_capacity": 0.3,
        "load_time": 0.1, "haul_time": 0.1, "dump_time": 0.1,
        "return_time": 0.1, "resample_mode": "per_truckload",
        "clamp_floor": 2.0,
        "scenario": SCENARIOS,
    }),
}

# Two keyed sources with blanks, each holding keys the other lacks, and
# a canonical paving file with blanks in every kind of column (so
# Congestion's majority, 1, and Spreader's, 0, are imputed) and a Slump far
# outside the fences.
INPUTS.update({
    "a.csv": "JobId,Productivity,Slump,Temperature,Humidity\n"
             "1,62.5,3.0,18.2,55.0\n2,70.1,4.5,21.0,\n3,58.3,2.5,,61.5\n"
             "4,66.0,3.5,19.4,58.0\n5,,4.0,22.3,49.0\n6,73.2,5.0,25.1,44.5\n"
             "7,61.8,3.0,17.5,63.0\n8,69.4,4.0,20.8,52.5\n9,90.0,3.5,19.9,57.0\n"
             "10,64.7,2.0,16.0,66.0\n11,67.5,3.5,23.0,50.0\n"
             "12,60.2,4.5,18.8,59.5\n",
    "b.csv": "JobId,Slope,Curvature,PaverAge\n"
             "14,1.0,0.002,3.0\n10,0.5,-0.001,1.0\n9,,0.0,2.0\n8,1.5,0.001,\n"
             "7,2.0,-0.002,4.0\n6,0.0,0.003,0.5\n13,1.2,0.001,2.5\n"
             "5,1.0,-0.003,6.0\n4,0.8,0.0,1.5\n3,1.8,0.002,3.5\n"
             "2,0.3,-0.001,2.0\n1,9.0,0.001,1.0\n",
    "holes.csv": ",".join(SCENARIOS).join(("Productivity,", "\n")) + """\
57.4,3.8,0,0,4.4,23.8,88.5,2.07,0.003,0.3
65.3,3.6,,0,5.1,8.2,87.3,0.39,0.0012,4.8
70.2,3.3,1,0,3.1,26.8,69.3,3.42,0.0005,2.0
,2.5,1,,4.7,28.3,53.1,2.27,-0.0012,6.9
72.6,4.3,1,1,5.4,8.1,74.1,0.73,-0.0001,0.5
57.7,2.4,1,1,6.0,6.3,,0.57,-0.0024,6.0
63.8,12.0,1,1,3.3,11.0,74.1,1.41,-0.0018,6.4
63.5,2.5,0,1,5.1,27.9,46.7,1.02,-0.0022,3.4
70.7,4.3,,0,5.5,8.3,49.0,3.73,-0.0026,1.3
58.7,3.8,1,1,3.8,6.2,50.1,2.76,-0.0014,2.3
63.7,2.3,1,0,4.7,22.6,72.4,3.09,0.0026,0.5
71.4,3.1,0,1,3.5,29.6,70.0,2.05,0.0025,
70.7,4.1,1,1,4.0,14.8,47.4,0.76,0.0013,0.6
63.0,2.8,1,0,5.3,8.3,70.2,2.38,-0.0009,5.0
60.9,2.3,0,0,3.6,9.8,57.6,1.97,-0.0025,2.0
69.4,2.4,0,0,4.1,22.3,42.9,3.65,0.0029,0.1
""",
})

#: (log name, argv); every path is relative to the build's directory.
STAGES = [
    ("synth", ["synth", "--n", "300", "--seed", "11", "--truth",
               "--out", "d.csv"]),
    ("adapt", ["adapt", "--data", "d.csv", "--seed", "12", "--out", "ds.json",
               "--report", "rep.json"]),
    ("train", ["train", "--data", "ds.json", "--seed", "13", "--epochs", "4",
               "--hidden", "6,6", "--out", "m.model"]),
    ("evaluate", ["evaluate", "--model", "m.model", "--data", "ds.json",
                  "--out", "cov.csv"]),
    ("evaluate_raw", ["evaluate", "--model", "m.model", "--data", "d.csv",
                      "--level", "0.9", "--out", "cov_raw.csv"]),
    ("derive", ["derive", "--model", "m.model", "--scenarios", "scen.csv",
                "--out", "der.csv"]),
    ("simulate", ["simulate", "--config", "direct.cfg", "--reps", "50",
                  "--seed", "14", "--out", "sim.csv"]),
    ("simulate_scenario", ["simulate", "--config", "scenario.cfg",
                           "--model", "m.model", "--reps", "20",
                           "--seed", "16", "--out", "sim_scenario.csv"]),
    ("mixture_demo", ["mixture-demo", "--n", "2000", "--seed", "15",
                      "--out", "mix.csv", "--samples-out", "mixsamp.csv"]),
    ("adapt_join", ["adapt", "--data", "a.csv", "--data", "b.csv",
                    "--key", "JobId", "--outliers", "drop_row", "--seed", "17",
                    "--out", "ds_join.json", "--report", "rep_join.json"]),
    ("adapt_impute", ["adapt", "--data", "holes.csv", "--seed", "18",
                      "--out", "ds_impute.json", "--report", "rep_impute.json"]),
    ("adapt_drop", ["adapt", "--data", "holes.csv", "--missing", "drop_row",
                    "--outliers", "drop_row", "--iqr-multiplier", "0.5",
                    "--seed", "19", "--out", "ds_drop.json",
                    "--report", "rep_drop.json"]),
]
ARTIFACTS = ("d.csv", "ds.json", "rep.json", "m.model", "cov.csv",
             "cov_raw.csv", "der.csv", "sim.csv", "sim_scenario.csv",
             "mix.csv", "mixsamp.csv", "ds_join.json", "rep_join.json",
             "ds_impute.json", "rep_impute.json", "ds_drop.json",
             "rep_drop.json")

#: Runs every stage in one process and writes each stage's stdout to
#: ``<name>.log``; argv: the directory pavesim must come from, the stages.
DRIVER = """
import contextlib, io, json, sys
import pavesim.cli
assert pavesim.cli.__file__.startswith(sys.argv[1]), pavesim.cli.__file__
for name, argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pavesim.cli.main(argv)
    with open(name + ".log", "w") as log:
        log.write(out.getvalue())
    if code != 0:
        sys.exit(f"{name} exited with {code}")
"""


def csv_rows(text):
    return list(csv.DictReader(
        line for line in text.splitlines() if not line.startswith("#")))


def comments(text):
    return [line for line in text.splitlines() if line.startswith("#")]


def only_columns_differ(columns):
    def check(ref, new):
        ref_rows, new_rows = csv_rows(ref), csv_rows(new)
        assert comments(ref) == comments(new)
        assert len(ref_rows) == len(new_rows) > 0
        assert ref_rows[0].keys() == new_rows[0].keys()
        for a, b in zip(ref_rows, new_rows):
            assert {k for k in a if a[k] != b[k]} <= columns, (a, b)
    return check


def plans_loads(ref_loads, new_loads):
    def check(ref, new):
        ref_rows, new_rows = csv_rows(ref), csv_rows(new)
        # the audit header, replications and master_seed; not the six
        # statistics of completion time that close the footer
        assert comments(ref)[:-6] == comments(new)[:-6]
        assert [r["replication"] for r in ref_rows] == \
            [r["replication"] for r in new_rows]
        assert {r["truckloads_delivered"] for r in ref_rows} == {ref_loads}
        assert {r["truckloads_delivered"] for r in new_rows} == {new_loads}
    return check


def only_line_differs(prefix):
    def check(ref, new):
        ref_lines, new_lines = ref.splitlines(), new.splitlines()
        assert len(ref_lines) == len(new_lines)
        for a, b in zip(ref_lines, new_lines):
            assert a == b or a.startswith(prefix) and b.startswith(prefix)
    return check


#: file -> (the change that made it differ, and why; its exact check)
DECLARED = {
    name: ("one decode for evaluate and derive: sigma is "
           "sqrt(exp(s) * std**2), where the reference computes "
           "sqrt(exp(s)) * std, so sigma, lo and hi move in their last bits",
           only_columns_differ({"sigma", "lo", "hi"}))
    for name in ("cov.csv", "cov_raw.csv")
}
DECLARED.update({
    "sim_scenario.csv": ("no phantom load: Q=2.1, C=0.3 plans 7 loads, "
                         "where the reference plans 8",
                         plans_loads("8", "7")),
    "simulate_scenario.log": ("the same phantom load moves the summary "
                              "line", only_line_differs("20 replications: ")),
})


def run_builds(tmp_path):
    """Start both builds at once; return each one's directory."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    procs = {}
    for build, path in BUILDS.items():
        workdir = tmp_path / build
        workdir.mkdir()
        for name, text in INPUTS.items():
            (workdir / name).write_text(text)
        procs[build] = (workdir, subprocess.Popen(
            [sys.executable, "-c", DRIVER, str(path), json.dumps(STAGES)],
            cwd=workdir, env=dict(env, PYTHONPATH=str(path)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    for build, (_, proc) in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{build} build failed:\n{err}"
    return {build: workdir for build, (workdir, _) in procs.items()}


def test_artifacts_match_the_reference_build(tmp_path):
    dirs = run_builds(tmp_path)
    outputs = list(ARTIFACTS) + [f"{name}.log" for name, _ in STAGES]
    differ = []
    for name in outputs:
        ref = (dirs["reference"] / name).read_text()
        new = (dirs["src"] / name).read_text()
        if name in DECLARED:
            DECLARED[name][1](ref, new)
        elif ref != new:
            differ.append(name)
    assert not differ, f"undeclared changes against the reference: {differ}"
    assert set(DECLARED) <= set(outputs)
