"""The benchmark still sees every layer it times.

``perfbench/tracing.py`` wraps each function of its ``WRAPS`` table at
the module attribute its caller looks it up by, mostly ``pavesim.cli``.
A refactor that renames such an attribute, or stops calling it there,
leaves the benchmark's per-layer metrics for that function null. This
test installs the tracer, runs a small walkthrough through ``cli.main``
(a keyed two-file ``adapt``, ``train``, ``evaluate``, ``derive``, a
``scenario`` ``simulate`` with ``--model`` and ``mixture-demo``) and
requires a span for every wrapped name and a working counter for each.
The layers the benchmark times per call must be called once per unit of
work: a replication's seed and run once per replication, a gradient and
an Adam step once per batch. Below 1,000 calls the benchmark reports
their percentiles as null, so a function still called, but once per
run, would null them at full size.
It runs in a subprocess, so the wrappers do not leak into other tests.
A second test runs the benchmark's own traced ``pipeline`` workload at
smoke size and requires a strict JSON result with every per-layer
metric of ``BENCHMARK.json``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from pavesim.modelfile import load_dataset
from pavesim.network import TrainConfig
from test_reference_build import INPUTS

ROOT = Path(__file__).resolve().parents[1]

STAGES = [
    "synth --n 120 --seed 1 --out d.csv",
    "adapt --data d.csv --seed 2 --out ds.json --report rep.json",
    "adapt --data a.csv --data b.csv --key JobId --seed 3 --out dj.json",
    "train --data ds.json --seed 4 --epochs 2 --hidden 3 --out m.model",
    "evaluate --model m.model --data ds.json --out cov.csv",
    "derive --model m.model --scenarios scen.csv --out der.csv",
    "simulate --config scenario.cfg --model m.model --reps 3 --seed 5 "
    "--out sim.csv",
    "mixture-demo --n 200 --seed 6 --out mix.csv --samples-out s.csv",
]

#: argv: pavesim's source directory, perfbench's, the stages as JSON.
DRIVER = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import collections, pavesim.cli, tracing
tracer = tracing.Tracer()
tracer.install()
for argv in json.loads(sys.argv[3]):
    code = pavesim.cli.main(argv.split())
    if code != 0:
        sys.exit(f"{argv!r} exited with {code}")
spans = collections.Counter(tracer.names[span[0]] for span in tracer.spans)
print(json.dumps({"names": tracer.names, "counts": tracer.counts,
                  "spans": spans,
                  "missing": sorted(tracer.missing),
                  "uncounted": sorted(tracer.uncounted),
                  "wraps": sorted(tracing.WRAPS)}))
"""


#: The wrapped functions that the benchmark times per call.
PER_CALL = ("simulator.replication_seed", "simulator.run_replication",
            "network.loss_gradients", "network.adam_step")


def flag(command, name, default=None):
    """The value of `--name` in the stage that runs `command`."""
    argv = next(s.split() for s in STAGES if s.split()[0] == command)
    return argv[argv.index(f"--{name}") + 1] if f"--{name}" in argv else default


def expected_per_call_spans(workdir):
    """One span per replication of the simulate stage, and one per batch
    of the train stage: its epochs times the batches of its dataset's
    train split."""
    reps = int(flag("simulate", "reps"))
    train_rows = load_dataset(workdir / flag("train", "data"))[0].n
    batch_size = int(flag("train", "batch-size", TrainConfig.batch_size))
    steps = int(flag("train", "epochs")) * math.ceil(train_rows / batch_size)
    return {"simulator.replication_seed": reps,
            "simulator.run_replication": reps,
            "network.loss_gradients": steps, "network.adam_step": steps}


def test_every_wrapped_function_is_called_and_counted(tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(ROOT / "src"),
         str(ROOT / "perfbench"), json.dumps(STAGES)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["missing"] == []
    assert report["uncounted"] == []
    assert sorted(set(report["wraps"]) - set(report["names"])) == []
    # save_dataset's counter reads the size of the file it was given
    assert report["counts"]["modelfile.save_dataset.bytes"] > 0
    assert {name: report["spans"][name] for name in PER_CALL} == \
        expected_per_call_spans(tmp_path)



def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_a_traced_smoke_pipeline_ends_in_a_strict_json_result(tmp_path):
    # run.py writes .perfbench/ next to src/ and perfbench/: run a copy
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--size", "smoke", "--trace", "1", "--seconds", "1", "--seed", "3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    assert (result["correct"], result["failed"]) == (True, 0)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in per_layer if m["name"] not in result["metrics"]]
    assert missing == []
    # smoke size times too few calls for percentiles, which read null
    values = [result["metrics"][m["name"]]["value"] for m in per_layer]
    assert all(v is None or type(v) in (int, float) for v in values)
