"""The benchmark still sees every layer it times.

``perfbench/tracing.py`` wraps each function of its ``WRAPS`` table at
the module attribute its caller looks it up by, mostly ``pavesim.cli``.
A refactor that renames such an attribute, or stops calling it there,
leaves the benchmark's per-layer metrics for that function null. This
test installs the tracer, runs a small walkthrough through ``cli.main``
(a keyed two-file ``adapt``, ``train``, ``evaluate``, ``derive``, a
``scenario`` ``simulate`` with ``--model`` and ``mixture-demo``) and
requires a span for every wrapped name and a working counter for each.
It runs in a subprocess, so the wrappers do not leak into other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

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
import pavesim.cli, tracing
tracer = tracing.Tracer()
tracer.install()
for argv in json.loads(sys.argv[3]):
    code = pavesim.cli.main(argv.split())
    if code != 0:
        sys.exit(f"{argv!r} exited with {code}")
print(json.dumps({"names": tracer.names, "counts": tracer.counts,
                  "missing": sorted(tracer.missing),
                  "uncounted": sorted(tracer.uncounted),
                  "wraps": sorted(tracing.WRAPS)}))
"""


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
