"""Every CLI artifact matches the frozen reference build, byte for byte.

One small README walkthrough runs twice: through ``perfbench/reference``
(a copy of the first version of the package, never edited) and through
``src``. Each build runs in its own subprocess, with its own ``PYTHONPATH``
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
]
ARTIFACTS = ("d.csv", "ds.json", "rep.json", "m.model", "cov.csv",
             "cov_raw.csv", "der.csv", "sim.csv", "sim_scenario.csv",
             "mix.csv", "mixsamp.csv")

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
