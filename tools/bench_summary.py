"""Summarize perfbench results into one committed ``BENCH_<n>.json``, or
compare them pair by pair with a parent checkout's.

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

With ``--parent DIR``, the root of a checkout of the parent commit run at
the same seeds, it also prints, for each workload and end-to-end metric,
the parent's median [quartiles] -> this checkout's, whether the change
keeps to the metric's ``bound`` in ``BENCHMARK.json``, the pairs (one per
seed) this checkout read better (ties count for neither), and whether a
gain may be claimed: better in at least nine pairs in ten, with the
medians further apart than the parent's quartiles. The bound, a share of
the parent's median, reads ``worse`` when this checkout's median is worse
by more than it, else ``unresolved`` when the parent's quartiles lie
further apart than it (unless every run of this checkout beat every run
of the parent's), else ``within bound``. Both sides must pass the checks
above, in one environment. Quartiles interpolate linearly between order
statistics, as ``numpy.quantile`` does::

    python3 tools/bench_summary.py --seeds 31 32 33 34 35 --parent ../parent

With ``--layers`` as well, it compares the traced runs instead: for each
workload and each per-layer metric, the parent's median [min-max] and
this checkout's over the ``<workload>-seed<S>-trace1.json`` records that
both sides have at the given seeds (one seed is enough), skipping null
values. A traced run shows where the time went, not whether it changed,
so no claim rule is applied; the ranges show how far one layer moves
between seeds of the same code::

    python3 tools/bench_summary.py --seeds 7 --parent ../parent --layers
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
#: A gain is claimed only when the change reads better in this share of
#: the pairs, or more.
MIN_WIN_SHARE = 0.9


def load_records(benchmark: dict, results: Path,
                 seeds: list[int]) -> tuple[dict, dict[str, list[dict]]]:
    """The environment the results share and, per workload, the result
    record of each seed in ascending order; a missing or failed record, a
    mixed environment or fewer than :data:`MIN_SEEDS` seeds is refused."""
    if len(set(seeds)) < MIN_SEEDS:
        raise ValueError(f"need at least {MIN_SEEDS} distinct seeds, "
                         f"got {sorted(set(seeds))}")
    environment = None
    by_workload = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        records = []
        for seed in sorted(set(seeds)):
            path = results / f"{workload}-seed{seed}-trace0.json"
            if not path.is_file():
                raise ValueError(f"no result {path}")
            record = _read_record(path, environment)
            environment = record["environment"]
            records.append(record)
        by_workload[workload] = records
    return environment, by_workload


def _read_record(path: Path, environment: dict | None) -> dict:
    """The record at `path`; a failed run, or one run in another
    environment than `environment` (when that is not None), is refused."""
    record = json.loads(path.read_text())
    if not record.get("correct") or record.get("failed"):
        raise ValueError(f"{path} records a failed run")
    if environment is not None and record["environment"] != environment:
        raise ValueError(f"{path} was run in another environment: "
                         f"{record['environment']} != {environment}")
    return record


def _values(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records]


def summarize(benchmark: dict, results: Path, seeds: list[int]) -> dict:
    environment, by_workload = load_records(benchmark, results, seeds)
    summary = {}
    for workload, records in by_workload.items():
        metrics = {}
        for metric in benchmark["end_to_end"]:
            values = _values(records, metric["name"])
            metrics[metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "median": statistics.median(values),
                "min": min(values), "max": max(values),
            }
        summary[workload] = {
            "seeds": sorted(set(seeds)),
            "run_seconds": sorted({r["seconds"] for r in records}),
            "metrics": metrics,
        }
    return {"command": benchmark["command"], "environment": environment,
            "workloads": summary}


def compare(benchmark: dict, parent_results: Path, results: Path,
            seeds: list[int]) -> dict:
    """Per workload and end-to-end metric, each side's median and
    quartiles, the pairs the change read better, whether the claim rule
    holds, and the change's verdict against the metric's bound (see
    :func:`verdict`). Both sides must share one environment."""
    parent_env, parent = load_records(benchmark, parent_results, seeds)
    env, change = load_records(benchmark, results, seeds)
    if env != parent_env:
        raise ValueError(f"the two sides ran in other environments: "
                         f"{parent_env} != {env}")
    rows = {}
    for workload in parent:
        rows[workload] = {}
        for metric in benchmark["end_to_end"]:
            before = _values(parent[workload], metric["name"])
            after = _values(change[workload], metric["name"])
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
            (median, q1, q3), changed = _spread(before), _spread(after)
            gap = sign * (median - changed[0])
            rows[workload][metric["name"]] = {
                "parent": [median, q1, q3], "change": changed,
                "wins": wins, "pairs": len(before),
                "claim_holds": (wins >= MIN_WIN_SHARE * len(before)
                                and gap > q3 - q1),
                "verdict": verdict(before, after, sign, metric["bound"]),
            }
    return rows


def verdict(before: list[float], after: list[float], sign: int,
            bound: float) -> str:
    """``worse`` if the median of `after` is worse than that of `before`
    by more than `bound`, a share of the latter; else ``unresolved`` if
    the quartiles of `before` lie further apart than that share, unless
    every run of `after` beat every run of `before`; else ``within
    bound``. `sign` is 1 when lower is better, -1 when higher is."""
    median, q1, q3 = _spread(before)
    if sign * (statistics.median(after) - median) > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not all(
            sign * (b - a) > 0 for b in before for a in after):
        return "unresolved"
    return "within bound"


def compare_layers(benchmark: dict, parent_results: Path, results: Path,
                   seeds: list[int]) -> dict:
    """Per workload and per-layer metric, the parent's median, min and
    max and this checkout's over the traced records both sides have at
    `seeds`, and the number of seeds used; a null value is left out, and
    a metric null on either side at every seed is left out. Every record
    must come from a passed run, all in one environment."""
    environment = None
    rows = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        pairs = []
        for seed in sorted(set(seeds)):
            paths = [side / f"{workload}-seed{seed}-trace1.json"
                     for side in (parent_results, results)]
            if not all(path.is_file() for path in paths):
                continue
            pair = []
            for path in paths:
                pair.append(_read_record(path, environment))
                environment = pair[-1]["environment"]
            pairs.append(pair)
        if not pairs:
            continue
        rows[workload] = {}
        for metric in benchmark["per_layer"]:
            sides = [[r["metrics"].get(metric["name"], {}).get("value")
                      for r in side] for side in zip(*pairs)]
            sides = [[v for v in side if v is not None] for side in sides]
            if all(sides):
                rows[workload][metric["name"]] = {
                    "parent": _range(sides[0]), "change": _range(sides[1]),
                    "seeds": len(pairs)}
    if not rows:
        raise ValueError(f"no traced result at seeds {sorted(set(seeds))} "
                         "on both sides")
    return rows


def layer_lines(rows: dict, benchmark: dict) -> list[str]:
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    lines = []
    for workload, metrics in rows.items():
        for name, row in metrics.items():
            (before, b0, b1), (after, a0, a1) = row["parent"], row["change"]
            ratio = f" ({after / before:.3f})" if before else ""
            lines.append(f"{workload} {name} ({units[name]}): {before:.4g} "
                         f"[{b0:.4g}-{b1:.4g}] -> {after:.4g} [{a0:.4g}-"
                         f"{a1:.4g}]{ratio}, median [min-max] of "
                         f"{row['seeds']} traced seed"
                         + ("s" if row["seeds"] > 1 else ""))
    return lines


def _range(values: list[float]) -> list[float]:
    """The median, min and max of `values`."""
    return [statistics.median(values), min(values), max(values)]


def _spread(values: list[float]) -> list[float]:
    """The median, first quartile and third quartile of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [statistics.median(values), q1, q3]


def comparison_lines(rows: dict, benchmark: dict) -> list[str]:
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    lines = []
    for workload, metrics in rows.items():
        for name, row in metrics.items():
            (pm, p1, p3), (cm, c1, c3) = row["parent"], row["change"]
            lines.append(
                f"{workload} {name} ({units[name]}): {pm:.4g} [{p1:.4g}-"
                f"{p3:.4g}] -> {cm:.4g} [{c1:.4g}-{c3:.4g}], "
                f"{row['verdict']} at {bounds[name]:.0%}, better in "
                f"{row['wins']}/{row['pairs']} pairs, claim "
                + ("holds" if row["claim_holds"] else "does not hold"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", help="summary JSON to write")
    parser.add_argument("--parent", type=Path,
                        help="root of a parent checkout run at the same "
                             "seeds, to compare pair by pair")
    parser.add_argument("--layers", action="store_true",
                        help="with --parent, compare the per-layer metrics "
                             "of the traced runs instead")
    args = parser.parse_args(argv)
    if args.layers and (args.parent is None or args.out is not None):
        parser.error("--layers needs --parent and takes no --out")
    if args.out is None and args.parent is None:
        parser.error("give --out, --parent or both")
    benchmark = json.loads(BENCHMARK.read_text())
    try:
        if args.layers:
            print("\n".join(layer_lines(
                compare_layers(benchmark, args.parent / RESULTS, RESULTS,
                               args.seeds), benchmark)))
            return 0
        if args.parent is not None:
            rows = compare(benchmark, args.parent / RESULTS, RESULTS,
                           args.seeds)
        if args.out is not None:
            summary = summarize(benchmark, RESULTS, args.seeds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.parent is not None:
        print("\n".join(comparison_lines(rows, benchmark)))
    if args.out is not None:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
