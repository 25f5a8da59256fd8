"""Summarize perfbench results into one committed ``BENCH_<n>.json``.

Reads ``.perfbench/results/<workload>-seed<S>-trace0.json`` for every
workload that ``BENCHMARK.json`` declares and every given seed, and
writes, for each workload and each end-to-end metric, the median, min
and max over the seeds, with the seeds used and the environment block
the results share. It refuses fewer than five seeds, a missing or failed
result, and results whose environment blocks differ, since numbers from
different machines or thread settings do not summarize.

Run it from the root of a checkout, after ``perfbench/run.py`` has run
every workload at each seed::

    for s in 31 32 33 34 35; do python3 perfbench/run.py --seed $s; done
    python3 tools/bench_summary.py --seeds 31 32 33 34 35 --out BENCH_11.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_SEEDS = 5
RESULTS = Path(".perfbench/results")
BENCHMARK = Path("BENCHMARK.json")


def summarize(benchmark: dict, results: Path, seeds: list[int]) -> dict:
    if len(set(seeds)) < MIN_SEEDS:
        raise ValueError(f"need at least {MIN_SEEDS} distinct seeds, "
                         f"got {sorted(set(seeds))}")
    seeds = sorted(set(seeds))
    environment = None
    summary = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        records = []
        for seed in seeds:
            path = results / f"{workload}-seed{seed}-trace0.json"
            if not path.is_file():
                raise ValueError(f"no result {path}")
            record = json.loads(path.read_text())
            if not record.get("correct") or record.get("failed"):
                raise ValueError(f"{path} records a failed run")
            if environment is None:
                environment = record["environment"]
            elif record["environment"] != environment:
                raise ValueError(f"{path} was run in another environment: "
                                 f"{record['environment']} != {environment}")
            records.append(record)
        metrics = {}
        for metric in benchmark["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records]
            metrics[metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "median": statistics.median(values),
                "min": min(values), "max": max(values),
            }
        summary[workload] = {
            "seeds": seeds,
            "run_seconds": sorted({r["seconds"] for r in records}),
            "metrics": metrics,
        }
    return {"command": benchmark["command"], "environment": environment,
            "workloads": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True, help="summary JSON to write")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    try:
        summary = summarize(benchmark, RESULTS, args.seeds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
