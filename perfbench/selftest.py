#!/usr/bin/env python3
"""Self-test of the benchmark harness; run from the root of a checkout::

    python3 perfbench/selftest.py

It runs every workload at smoke size, untraced and traced, and checks
that each run succeeds and emits exactly the metrics BENCHMARK.json lists,
each with its unit (the traced runs also check every span tree). It then
checks the span-tree check and the FIFO oracle on hand-made cases, and
that the benchmark refuses to run in a directory holding only
BENCHMARK.json and the benchmark's own files. Exit code 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke_runs(spec: dict) -> list[str]:
    failures = []
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", str(trace),
                             "--size", "smoke")
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(line)}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                failures.append(f"{label}: not correct: {line}")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != wanted:
                missing = sorted(set(wanted) - set(got))
                extra = sorted(set(got) - set(wanted))
                units = sorted(k for k in set(got) & set(wanted)
                               if got[k] != wanted[k])
                failures.append(f"{label}: missing {missing}, extra {extra}, "
                                f"wrong unit {units}")
            for name, m in line["metrics"].items():
                value = m["value"]
                numeric = isinstance(value, (int, float))
                # Smoke sizes make too few calls for percentiles.
                if not numeric and not name.endswith(("p50_us", "p99_us")):
                    failures.append(f"{label}: {name} = {value!r}")
                if trace == 0 and not (numeric and value > 0):
                    failures.append(f"{label}: {name} = {value!r}, not > 0")
    return failures


def span_check_cases() -> list[str]:
    failures = []
    good = [[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0], [2, 1, 2.0, 3.0],
            [1, 0, 5.0, 9.0], [0, -1, 11.0, 12.0]]
    if tracing.check_spans(good):
        failures.append(f"good tree rejected: {tracing.check_spans(good)}")
    if tracing.self_times(good) != [3.0, 2.0, 1.0, 4.0, 1.0]:
        failures.append(f"self times {tracing.self_times(good)}")
    outside = [[0, -1, 0.0, 10.0], [1, 0, 9.0, 11.0]]
    if not tracing.check_spans(outside):
        failures.append("child outside its parent not detected")
    tracer = tracing.Tracer()
    calls = []

    def leaf(x):
        calls.append(x)
        return [x] * x

    wrapped = tracer.wrap("leaf", leaf, lambda a, k, r: {"n": len(r)})
    with tracer.span("root"):
        wrapped(2)
        wrapped(3)
    stats = tracing.span_stats(tracer.dump())
    if stats["leaf"]["calls"] != 2 or tracer.counts != {"leaf.n": 5.0}:
        failures.append(f"tracer counted {stats['leaf']} {tracer.counts}")
    if tracing.check_spans(tracer.spans):
        failures.append(f"tracer tree: {tracing.check_spans(tracer.spans)}")
    return failures


def oracle_cases() -> list[str]:
    # 30 m^3 in loads of 12, 12, 6 with two trucks: the third load lands
    # one cycle (0.9 h) after the first two, at 1.55 h, and only its 6 m^3
    # remain, so the paver at 55 m^3/h finishes at 1.55 + 6/55 h.
    cfg = {"total_quantity": 30, "truck_capacity": 12, "truck_count": 2,
           **workloads.CYCLE}
    got = checks.fifo_completion(cfg, 55.0)
    want = 1.55 + 6 / 55
    # A slow paver is never starved: first dump at 0.65 h plus 30/5 h.
    slow = checks.fifo_completion(cfg, 5.0)
    failures = []
    if abs(got - want) > 1e-12:
        failures.append(f"fifo_completion fast paver {got!r} != {want!r}")
    if abs(slow - (0.65 + 6.0)) > 1e-12:
        failures.append(f"fifo_completion slow paver {slow!r}")
    return failures


def bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "--workload", "fleet_sim", "--seconds", "1")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout "
                f"{proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = (span_check_cases() + oracle_cases() + bare_directory()
                + smoke_runs(spec))
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
