"""The artifacts that do not pass through the network are the same bytes
whatever kernels the CPU gets.

numpy's wheel ships a ``DYNAMIC_ARCH`` OpenBLAS, which picks its kernels
by CPU, and numpy picks its SIMD loops by CPU too. Two environment
variables stand in for other x86-64 CPUs in a child process:
``OPENBLAS_CORETYPE`` forces OpenBLAS's kernel choice, and
``NPY_DISABLE_CPU_FEATURES`` turns numpy's AVX-512 dispatch off. Each
variant runs ``synth``, ``adapt``, ``mixture-demo`` and a ``productivity``
``simulate`` in each resample mode, through ``cli.main``, and every output
and stdout log must equal the default child's bytes. Their arithmetic is
IEEE basic operations, libm through ``math``, fixed-order numpy reductions
and numpy ``Generator`` streams. ``train``, ``evaluate``, ``derive`` and
scenario ``simulate`` go through BLAS and ``np.exp``, so they are not
among them.

On a build whose OpenBLAS is not ``DYNAMIC_ARCH``, or on a CPU that is not
x86-64, the variables change nothing (or numpy warns that it cannot
disable the feature), every child runs the same code, and the test passes
trivially.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

VARIANTS = {
    "default": {},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "no_avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
}

CYCLE = {"load_time": 0.15, "haul_time": 0.4, "dump_time": 0.1,
         "return_time": 0.25}
INPUTS = {
    # 500 loads, each with its own draw and a floor that binds on some
    "fleet.cfg": json.dumps({
        "total_quantity": 6000, "truck_count": 4, "truck_capacity": 12,
        "resample_mode": "per_truckload", "clamp_floor": 2.0,
        "productivity": {"mean": 20.0, "variance": 900.0}, **CYCLE}),
    "direct.cfg": json.dumps({
        "total_quantity": 120, "truck_count": 3, "truck_capacity": 12,
        "productivity": {"mean": 55.0, "variance": 30.0}, **CYCLE}),
}

STAGES = [
    ("synth", ["synth", "--n", "300", "--seed", "11", "--truth",
               "--out", "d.csv"]),
    ("adapt", ["adapt", "--data", "d.csv", "--seed", "12",
               "--outliers", "drop_row", "--out", "ds.json",
               "--report", "rep.json"]),
    ("mixture_demo", ["mixture-demo", "--n", "2000", "--seed", "15",
                      "--out", "mix.csv", "--samples-out", "mixsamp.csv"]),
    ("simulate_fleet", ["simulate", "--config", "fleet.cfg", "--reps", "20",
                        "--seed", "17", "--out", "sim_fleet.csv"]),
    ("simulate", ["simulate", "--config", "direct.cfg", "--reps", "200",
                  "--seed", "14", "--out", "sim.csv"]),
]
ARTIFACTS = ("d.csv", "ds.json", "rep.json", "mix.csv", "mixsamp.csv",
             "sim_fleet.csv", "sim.csv")

#: Runs every stage in one process and writes each stage's stdout to
#: ``<name>.log``; argv: the stages.
DRIVER = """
import contextlib, io, json, sys
import pavesim.cli
for name, argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pavesim.cli.main(argv)
    with open(name + ".log", "w") as log:
        log.write(out.getvalue())
    if code != 0:
        sys.exit(f"{name} exited with {code}")
"""


def test_cpu_variants_write_the_default_bytes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        env.pop(name, None)
    procs = {}
    for variant, extra in VARIANTS.items():
        workdir = tmp_path / variant
        workdir.mkdir()
        for name, text in INPUTS.items():
            (workdir / name).write_text(text)
        procs[variant] = subprocess.Popen(
            [sys.executable, "-c", DRIVER, json.dumps(STAGES)], cwd=workdir,
            env=dict(env, **extra), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
    for variant, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{variant} failed:\n{err}"

    default = tmp_path / "default"
    outputs = [*ARTIFACTS, *(f"{name}.log" for name, _ in STAGES)]
    for variant in VARIANTS:
        workdir = tmp_path / variant
        differ = [name for name in outputs if (workdir / name).read_bytes()
                  != (default / name).read_bytes()]
        assert not differ, f"{variant} wrote other bytes in {differ}"
