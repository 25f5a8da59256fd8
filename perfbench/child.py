"""One workload process: set up, then run the stages it is told to run.

Usage: ``python3 child.py PLAN.json`` from the repeat's working directory,
with ``PAVESIM_SRC`` naming the directory to import ``pavesim`` from: the
checkout's ``src`` or the frozen reference build. Set-up is importing
``pavesim`` (and installing the tracer when the plan asks for it) and
writing the plan's small config files.

Standard output carries only the protocol, one JSON object per line;
whatever the program prints goes to standard error. The first line holds
the monotonic clock when set-up ended, so the parent can time set-up from
the moment it started this process. Then each line read from standard
input names a stage by its index; the stage runs and its line answers
with the exit code and seconds. An empty line or the end of input ends
the process, whose last line carries its peak RSS and, when asked, the
spans and per-stage tracemalloc peaks.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main(plan_path: str) -> int:
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(message: dict) -> None:
        proto.write(json.dumps(message) + "\n")

    plan = json.loads(Path(plan_path).read_text())
    src = Path(os.environ["PAVESIM_SRC"]).resolve()
    sys.path.insert(0, str(src))
    import pavesim.cli
    import pavesim.modelfile

    if src not in Path(pavesim.__file__).resolve().parents:
        print(f"pavesim imported from {pavesim.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    for name, text in plan["files"].items():
        Path(name).write_text(text)
    send({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)})

    if plan["tracemalloc"]:
        import tracemalloc
        tracemalloc.start()
    for line in sys.stdin:
        if not line.strip():
            break
        stage = plan["stages"][int(line)]
        if plan["tracemalloc"]:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            if tracer is not None and "argv" in stage:
                with tracer.span(f"cli.{stage['name']}"):
                    rc = _run(stage, pavesim)
            else:
                rc = _run(stage, pavesim)
        except Exception:
            traceback.print_exc()
            rc = -1
        entry = {"name": stage["name"], "rc": rc,
                 "seconds": time.perf_counter() - start}
        if plan["tracemalloc"]:
            entry["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        send(entry)

    report = {"peak_rss_mb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        report["trace"] = tracer.dump()
    send(report)
    return 0


def _run(stage: dict, pavesim) -> int:
    if "argv" in stage:
        return pavesim.cli.main(stage["argv"])
    # Looked up at call time, so the tracer's wrapper is the one called.
    train, test = pavesim.modelfile.load_dataset(stage["path"])
    return 0 if train.n + test.n > 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
