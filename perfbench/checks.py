"""Output checks. Each reads only files a stage wrote and shares no code
with the ``pavesim`` package; each returns a list of problems (empty when
the check passes).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import ceil_div

REL_TOL = 1e-9


def data_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


def read_rows(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(data_lines(path)))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _percentile(ordered: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def simulate_csv(path: Path, reps: int, quantity: int, capacity: int) -> list[str]:
    """Row count, truckloads per replication, and the ``#`` summary block."""
    problems = []
    rows = read_rows(path)
    if len(rows) != reps:
        problems.append(f"{path.name}: {len(rows)} rows, expected {reps}")
    loads = ceil_div(quantity, capacity)
    bad = [r["replication"] for r in rows
           if int(r["truckloads_delivered"]) != loads]
    if bad:
        problems.append(f"{path.name}: {len(bad)} replications deliver other "
                        f"than {loads} truckloads")
    times = [float(r["completion_time"]) for r in rows]
    if not times:
        return problems + [f"{path.name}: no rows"]
    summary = {}
    for line in path.read_text().splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            summary[key] = value
    n = len(times)
    mean = math.fsum(times) / n
    ordered = sorted(times)
    expected = {
        "mean": mean,
        "std": math.sqrt(math.fsum((t - mean) ** 2 for t in times) / n),
        "min": ordered[0],
        "max": ordered[-1],
        "p5": _percentile(ordered, 5),
        "p95": _percentile(ordered, 95),
    }
    for key, value in expected.items():
        if key not in summary:
            problems.append(f"{path.name}: summary lacks {key}")
        elif not _close(float(summary[key]), value):
            problems.append(f"{path.name}: summary {key} = {summary[key]}, "
                            f"rows give {value!r}")
    if summary.get("replications") != str(n):
        problems.append(f"{path.name}: summary replications = "
                        f"{summary.get('replications')}, rows give {n}")
    return problems


def coverage_flags(path: Path) -> list[str]:
    """Every ``covered`` flag agrees with ``lo <= observed <= hi``."""
    bad = 0
    rows = read_rows(path)
    for r in rows:
        inside = float(r["lo"]) <= float(r["observed"]) <= float(r["hi"])
        bad += int(r["covered"]) != int(inside)
    if not rows:
        return [f"{path.name}: no rows"]
    return [f"{path.name}: {bad} covered flags disagree with lo/hi"] if bad else []


def coverage_fraction(path: Path) -> float:
    rows = read_rows(path)
    return sum(int(r["covered"]) for r in rows) / len(rows)


def dataset_counts(path: Path) -> tuple[int, int]:
    payload = json.loads("\n".join(data_lines(path)))
    return len(payload["train"]["y"]), len(payload["test"]["y"])


def split_sums_to_clean(dataset: Path, report: Path, rows_in: int) -> list[str]:
    """train + test rows equal the rows ``clean`` kept from ``rows_in``."""
    rep = json.loads("\n".join(data_lines(report)))
    kept = rows_in - rep["rows_dropped_missing"] - rep["rows_dropped_outliers"]
    train, test = dataset_counts(dataset)
    if train + test != kept:
        return [f"{dataset.name}: {train} train + {test} test rows, but "
                f"clean kept {kept} of {rows_in}"]
    return []


def sigma_rel_err(derived: Path, scenarios: list[dict], sigma_star) -> float:
    """Mean |sigma_hat - sigma*| / sigma* over the derived scenarios."""
    rows = read_rows(derived)
    if len(rows) != len(scenarios):
        raise ValueError(f"{derived.name}: {len(rows)} rows for "
                         f"{len(scenarios)} scenarios")
    errs = []
    for row, scen in zip(rows, scenarios):
        truth = float(sigma_star(scen))
        errs.append(abs(math.sqrt(float(row["variance"])) - truth) / truth)
    return math.fsum(errs) / len(errs)


def fifo_completion(cfg: dict, rate: float) -> float:
    """Completion time of the paving operation from first principles.

    Load ``j`` (0-based) leaves the plant with truck ``j mod K`` on that
    truck's trip ``j // K`` and lands in the hopper one load, haul and
    dump later. The paver works at a constant ``rate`` and can only pave
    what has been delivered, in delivery order, so it cannot finish before
    any delivery time plus the work still outstanding at that delivery:
    completion is the largest such sum over all deliveries.
    """
    quantity, capacity = cfg["total_quantity"], cfg["truck_capacity"]
    trucks = cfg["truck_count"]
    loads = ceil_div(quantity, capacity)
    cycle = (cfg["load_time"] + cfg["haul_time"] + cfg["dump_time"]
             + cfg["return_time"])
    first = cfg["load_time"] + cfg["haul_time"] + cfg["dump_time"]
    delivered_before = 0
    latest = 0.0
    for j in range(loads):
        arrival = (j // trucks) * cycle + first
        latest = max(latest, arrival + (quantity - delivered_before) / rate)
        delivered_before += min(capacity, quantity - delivered_before)
    return latest


def companion_matches_oracle(path: Path, cfg: dict, reps: int) -> list[str]:
    """Every zero-variance replication completes at the FIFO oracle time."""
    rate = cfg["productivity"]["mean"]
    expected = fifo_completion(cfg, rate)
    rows = read_rows(path)
    if len(rows) != reps:
        return [f"{path.name}: {len(rows)} rows, expected {reps}"]
    off = [float(r["completion_time"]) for r in rows
           if not _close(float(r["completion_time"]), expected)]
    if off:
        return [f"{path.name}: completion {off[0]!r} but the FIFO oracle "
                f"gives {expected!r}"]
    return []
