#!/usr/bin/env python3
"""The pavesim benchmark: real CLI pipelines timed from outside the program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, end-to-end metrics

One client runs a closed loop of repeats, one after another, until about
``--seconds`` have passed (at least three; in a traced run at least one
untraced and one traced). Inputs are generated from ``--seed`` once per
run, before the clock starts. A repeat of an untraced run starts two
fresh workload processes (``child.py``): one imports ``pavesim`` from the
checkout's ``src``, the other from the frozen reference build in
``reference/``. They make the workload's passes over its stages in turn,
one stage at a time, so each stage of the checkout is timed within a
second or two of the same stage of the reference; which build goes first
alternates. The first pass's artifacts are checked in full; every later
pass must reproduce them byte for byte.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start
until the first stage can begin) and ``peak_rss_mb`` (the workload
process's ``ru_maxrss``), medians over repeats, and ``wall_vs_ref`` (a
pass's seconds over the reference build's) and ``hot_vs_ref`` (the same
for the workload's hot stages, see README.md), medians over passes.
``--trace 1`` alternates untraced and traced one-pass repeats of the
checkout's build alone, adds one tracemalloc repeat, and reports the
per-layer metrics of ``tracing.py`` plus ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; an operation is
one stage of one build in one pass, or one output check. The full
record (environment, per-repeat times, seconds and throughput, check
results, quality figures and a sha256 of every artifact) is written to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``. Exit code 0
when every operation succeeded, 1 when one failed, 2 when the checkout
holds no ``src/pavesim`` to measure.
"""

from __future__ import annotations

import os

#: Workload processes run single-threaded BLAS/OpenMP: the baseline.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
INHERITED_THREAD_ENV = {v: os.environ.get(v) for v in THREAD_VARS}
os.environ.update({v: "1" for v in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: Where each build imports ``pavesim`` from: the checkout measured, and
#: the frozen copy every timing is compared with.
BUILDS = {"cur": SRC, "ref": BENCH_DIR / "reference"}

#: Whole-run limit; a workload process is killed when it would pass it.
RUN_LIMIT_S = 170.0
MIN_REPEATS = 3


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def check(self, label: str, check, *args) -> bool:
        """Run one output check; an artifact it cannot parse fails it."""
        try:
            problems = check(*args)
        except (OSError, ValueError, KeyError, IndexError,
                ZeroDivisionError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        return self.record(label, problems)


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "inherited_thread_env": INHERITED_THREAD_ENV,
    }


def child_env(build: str) -> dict:
    env = dict(os.environ)
    env["PAVESIM_SRC"] = str(BUILDS[build])
    env["PYTHONPATH"] = os.pathsep.join(
        [env["PAVESIM_SRC"]]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class WorkerError(Exception):
    """A workload process died, timed out or broke the protocol."""


class Worker:
    """One workload process of one build, driven a stage at a time."""

    def __init__(self, run: "Run", build: str, plan_path: Path, cwd: Path):
        self.run = run
        self.log_path = run.dir / f"child-{build}.log"
        self.log = self.log_path.open("w")
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(plan_path)],
            cwd=cwd, env=child_env(build), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        self.setup_s = self.read()["ready"] - spawned

    def read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, self.run.remaining()))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise WorkerError("timeout" if not ready else
                              f"workload process exit {self.proc.poll()}")
        return json.loads(line)

    def send(self, text: str) -> None:
        try:
            self.proc.stdin.write(text)
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerError("workload process closed its input") from None

    def stage(self, index: int) -> dict:
        self.send(f"{index}\n")
        return self.read()

    def finish(self) -> dict:
        self.send("\n")
        return self.read()

    def close(self) -> str:
        """Stop the process, wait for it; return the tail of its log."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=max(1.0, min(10.0,
                                                    self.run.remaining())))
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.log_path.read_text()[-2000:]


class Run:
    """One benchmark run of one workload: inputs, repeats, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.size = trace, size
        self.started = time.monotonic()
        self.dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{size}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = self.dir / "inputs"
        self.rep = self.dir / "rep"
        self.rep_dirs = {"cur": self.rep, "ref": self.dir / "rep_ref"}
        self.inputs.mkdir(parents=True)
        self.facts = workloads.write_inputs(workload, size, seed, self.inputs)
        self.plan = workloads.build_plan(workload, size, seed, self.facts)
        self.ledger = Ledger()
        self.repeats: list[dict] = []
        self.digests: dict[str, str] | None = None
        self.quality: dict[str, float] = {}
        self.notes: list[str] = []
        self.null_notes: dict[str, str] = {}   # metric -> why it is null

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    # ------------------------------------------------------- processes

    def warm_up(self) -> None:
        """Import each build once before the clock starts. Where bytecode
        caching is on, this compiles it, so no repeat pays for that."""
        for build in BUILDS:
            subprocess.run([sys.executable, "-c", "import pavesim.cli"],
                           env=child_env(build), cwd=self.dir, check=False,
                           timeout=max(1.0, self.remaining()))

    def repeat(self, kind: str) -> dict | None:
        """One repeat. ``paired`` starts a process of the checkout's build
        and one of the reference build, and runs the plan's passes over
        the stages in both, stage by stage, alternating which goes first.
        ``plain``, ``traced`` and ``tracemalloc`` run one pass of the
        checkout's build alone. Returns the checkout's report, with the
        reference's under ``ref``; each holds its ``passes``, a list of
        stage entries per pass."""
        n = len(self.repeats)
        builds = ("cur", "ref") if kind == "paired" else ("cur",)
        if n % 2:
            builds = builds[::-1]
        passes = self.plan["passes"] if kind == "paired" else 1
        stages = self.plan["stages"]
        plan = {"files": self.plan["files"], "stages": stages,
                "trace": kind == "traced", "tracemalloc": kind == "tracemalloc"}
        plan_path = self.dir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        label = f"{kind} repeat {n}"
        reports = {b: {"passes": []} for b in builds}
        workers: dict[str, Worker] = {}
        ok, error = True, None
        try:
            for b in builds:
                shutil.rmtree(self.rep_dirs[b], ignore_errors=True)
                self.rep_dirs[b].mkdir()
                workers[b] = Worker(self, b, plan_path, self.rep_dirs[b])
                reports[b]["setup_s"] = workers[b].setup_s
            for p in range(passes):
                for b in builds:
                    reports[b]["passes"].append([])
                for i in range(len(stages)):
                    order = builds if (p + i) % 2 == 0 else builds[::-1]
                    for b in order:
                        entry = workers[b].stage(i)
                        reports[b]["passes"][-1].append(entry)
                        ok = self.ledger.record(
                            f"{label} pass {p} {b} stage {entry['name']}",
                            [] if entry["rc"] == 0
                            else [f"exit {entry['rc']}"]) and ok
                    if not ok:
                        break
                if not ok:
                    break
                self.compare_outputs(f"{label} pass {p}")
            for b in builds:
                reports[b].update(workers[b].finish())
        except WorkerError as exc:
            error = exc
        finally:
            tails = {b: w.close() for b, w in workers.items()}
        if error is not None:
            self.ledger.record(label, [f"{error}: {' | '.join(tails.values())}"])
            return None
        if not ok:
            self.notes.append(f"{label} logs: {' | '.join(tails.values())}")
            return None
        report = reports["cur"]
        report["kind"] = kind
        if "ref" in reports:
            report["ref"] = reports["ref"]
        if "trace" in report:
            self.ledger.record(f"{label} span tree",
                               tracing.check_spans(report["trace"]["spans"]))
        self.repeats.append(report)
        return report

    def compare_outputs(self, label: str) -> None:
        """Check the first pass's artifacts in full; later passes must
        reproduce them byte for byte."""
        digests = {name: checks.sha256(self.rep / name)
                   for stage in self.plan["stages"]
                   for name in stage["outputs"]}
        if self.digests is None:
            self.digests = digests
            self.check_outputs()
            return
        for name, digest in digests.items():
            self.ledger.record(f"{label} {name} byte-identical",
                               [] if digest == self.digests[name]
                               else ["differs from the first pass"])

    # ---------------------------------------------------------- checks

    def check_outputs(self) -> None:
        """Full output checks on the first repeat's artifacts."""
        w, rep, led = self.workload, self.rep, self.ledger
        if "sim" in self.plan:
            sim = self.plan["sim"]
            led.check(f"{sim['out']} rows, truckloads and summary",
                      checks.simulate_csv, rep / sim["out"], sim["reps"],
                      sim["config"]["total_quantity"],
                      sim["config"]["truck_capacity"])
        if w == "pipeline":
            led.check("cov.csv covered flags",
                      checks.coverage_flags, rep / "cov.csv")
            led.check("ds.json train + test = clean rows out",
                      lambda: checks.split_sums_to_clean(
                          rep / "ds.json", rep / "rep.json",
                          len(checks.read_rows(rep / "d.csv"))))
            led.check("pipeline quality within tolerance", self.quality_check,
                      workloads.SIZES[self.size][w])
        if w == "ingest":
            led.check("ds.json train + test = clean rows out",
                      checks.split_sums_to_clean, rep / "ds.json",
                      rep / "rep.json", self.facts["joined_rows"])

    def quality_check(self, sz: dict) -> list[str]:
        """Calibration of the trained model: coverage of the 95% intervals
        and sigma against the generating law; also fixes ``items``."""
        rep = self.rep
        err = abs(checks.coverage_fraction(rep / "cov.csv") - 0.95)
        sig = checks.sigma_rel_err(rep / "der.csv", self.facts["scenarios"],
                                   workloads.true_sigma)
        self.quality = {"coverage_err_95": err, "sigma_rel_err": sig}
        self.plan["items"] = (sz["epochs"]
                              * checks.dataset_counts(rep / "ds.json")[0])
        problems = []
        if err > sz["max_coverage_err"]:
            problems.append(f"coverage_err_95 {err!r} > "
                            f"{sz['max_coverage_err']}")
        if sig > sz["max_sigma_rel_err"]:
            problems.append(f"sigma_rel_err {sig!r} > "
                            f"{sz['max_sigma_rel_err']}")
        return problems

    def companion(self) -> None:
        """Zero-variance fleet run, checked against the FIFO oracle."""
        comp = workloads.companion_config(self.seed, self.size)
        cfg_path = self.dir / "companion.cfg"
        out = self.dir / "companion.csv"
        cfg_path.write_text(json.dumps(comp["config"]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pavesim", "simulate", "--config",
                 cfg_path.name, "--reps", str(comp["reps"]), "--seed",
                 str(comp["seed"]), "--out", out.name],
                cwd=self.dir, env=child_env("cur"), capture_output=True,
                text=True, timeout=max(1.0, self.remaining()))
            ok = proc.returncode == 0
            err = proc.stderr[-2000:]
        except subprocess.TimeoutExpired:
            ok, err = False, "timeout"
        if self.ledger.record("companion simulate",
                              [] if ok else [f"failed: {err}"]):
            self.ledger.check("companion matches the FIFO oracle",
                              checks.companion_matches_oracle, out,
                              comp["config"], comp["reps"])

    # ------------------------------------------------------------ loop

    def execute(self) -> None:
        self.warm_up()
        if self.workload == "fleet_sim":
            self.companion()
        kinds = ("plain", "traced") if self.trace else ("paired",)
        least = len(kinds) if self.trace else MIN_REPEATS
        start = time.monotonic()
        took: list[float] = []
        # Stop when the next repeat would more likely end after --seconds
        # than before.
        while len(took) < least or (time.monotonic() - start
                                    + statistics.median(took) / 2
                                    < self.seconds):
            began = time.monotonic()
            if self.repeat(kinds[len(took) % len(kinds)]) is None:
                return
            took.append(time.monotonic() - began)
        if self.trace:
            self.repeat("tracemalloc")

    # --------------------------------------------------------- metrics

    def of_kind(self, kind: str) -> list[dict]:
        return [r for r in self.repeats if r["kind"] == kind]

    @staticmethod
    def wall(stages: list[dict], names=None) -> float:
        """Seconds of one pass's stages, or of those in ``names``."""
        return sum(s["seconds"] for s in stages
                   if names is None or s["name"] in names)

    def paired_passes(self) -> list[tuple[list, list]]:
        """(checkout's stages, reference's stages) of every paired pass."""
        return [pair for r in self.of_kind("paired")
                for pair in zip(r["passes"], r["ref"]["passes"])]

    def end_to_end(self) -> dict:
        paired = self.of_kind("paired")
        hot = self.plan["hot_stages"]
        wall, med = self.wall, statistics.median
        return {
            "setup_s": (med(r["setup_s"] for r in paired), "s"),
            "wall_vs_ref": (med(wall(c) / wall(f)
                                for c, f in self.paired_passes()), "x"),
            "hot_vs_ref": (med(wall(c, hot) / wall(f, hot)
                               for c, f in self.paired_passes()), "x"),
            "peak_rss_mb": (med(r["peak_rss_mb"] for r in paired), "MiB"),
        }

    def seconds_and_rates(self) -> dict:
        """Absolute figures of the checkout's and the reference build,
        medians over the paired passes. They move with the machine's
        speed, so they are recorded but are not metrics."""
        pairs = self.paired_passes()
        if not pairs:
            return {}
        hot = self.plan["hot_stages"]
        wall, med = self.wall, statistics.median
        out = {}
        for k, build in enumerate(("cur", "ref")):
            out[f"{build}_wall_s"] = med(wall(p[k]) for p in pairs)
            out[f"{build}_items_per_s"] = med(
                self.plan["items"] / wall(p[k], hot) for p in pairs)
        return out

    def per_layer(self) -> dict:
        med = statistics.median
        traced = self.of_kind("traced")
        stats = [tracing.span_stats(r["trace"]) for r in traced]
        missing = set().union(*(r["trace"]["missing"] for r in traced))
        uncounted = set().union(*(r["trace"]["uncounted"] for r in traced))
        for r in traced:
            self.notes.extend(n for n in r["trace"]["notes"]
                              if n not in self.notes)

        def why(name):
            return next(n for n in self.notes if n.startswith(f"{name}:"))

        out = {}
        for name, wanted in tracing.LAYER_STATS.items():
            entries = [s.get(name) for s in stats]
            calls = med(e["calls"] if e else 0 for e in entries)
            for stat in wanted:
                key = f"{name}.{stat}"
                unit = tracing.STAT_UNITS.get(stat, "count")
                if name in missing:
                    value = None
                    self.null_notes[key] = why(name)
                elif stat in ("s", "self_s", "calls"):
                    value = med(e[stat] if e else 0 for e in entries)
                elif stat in ("p50_us", "p99_us"):
                    value = self._percentile(key, entries, calls, stat)
                elif name in uncounted:
                    value = None
                    self.null_notes[key] = why(name)
                else:
                    value = med(r["trace"]["counts"].get(key, 0.0)
                                for r in traced)
                out[key] = (value, unit)

        sim_rows = []
        if "sim" in self.plan:
            sim_rows = checks.read_rows(self.rep / self.plan["sim"]["out"])
        out["simulator.replications"] = (len(sim_rows), "count")
        out["simulator.truckloads"] = (
            sum(int(r["truckloads_delivered"]) for r in sim_rows), "count")
        out["simulator.clamp_count"] = (
            sum(int(r["clamp_count"]) for r in sim_rows), "count")
        peaks = {s["name"]: s["peak_alloc_mb"]
                 for r in self.of_kind("tracemalloc")
                 for s in r["passes"][0]}
        for name in tracing.SUBCOMMANDS:
            out[f"cli.{name}.peak_alloc_mb"] = (peaks.get(name, 0.0), "MiB")
        # Repeats alternate plain, traced, ...: pair each traced repeat
        # with the plain one just before it, which ran on a machine in
        # nearly the same state.
        out["trace.overhead_s"] = (med(
            self.wall(t["passes"][0]) - self.wall(p["passes"][0])
            for p, t in zip(self.of_kind("plain"), traced)), "s")
        return out

    def _percentile(self, key, entries, calls, stat):
        if calls == 0:
            return 0.0
        pooled = [d for e in entries if e for d in e["durations"]]
        if len(pooled) < tracing.MIN_CALLS_FOR_PERCENTILES:
            self.null_notes[key] = (f"only {len(pooled)} calls over the "
                                    "traced repeats, no percentile reported")
            return None
        q = 50 if stat == "p50_us" else 99
        return float(numpy.percentile(pooled, q)) * 1e6

    def result(self) -> tuple[dict, dict]:
        """(result line, full record)."""
        led = self.ledger
        complete = bool(self.of_kind("traced") and self.of_kind("plain")
                        and self.of_kind("tracemalloc")) if self.trace \
            else bool(self.of_kind("paired"))
        metrics = {}
        if complete and led.failed == 0:
            table = self.per_layer() if self.trace else self.end_to_end()
            for name, (value, unit) in table.items():
                metrics[name] = {"value": value, "unit": unit}
                if value is None:
                    metrics[name]["note"] = self.null_notes[name]
        line = {"correct": complete and led.failed == 0,
                "attempted": max(led.attempted, 1),
                "failed": led.failed if complete else max(led.failed, 1),
                "metrics": metrics}
        record = {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": int(self.trace),
            "size": self.size, "environment": environment(),
            "failure_rate": line["failed"] / line["attempted"],
            "problems": led.problems, "notes": self.notes,
            "null_metrics": self.null_notes,
            "quality": self.quality, "artifact_sha256": self.digests,
            "seconds_and_rates": self.seconds_and_rates(),
            "repeats": [{k: r[k] for k in ("kind", "setup_s", "peak_rss_mb",
                                           "passes", "ref") if k in r}
                        for r in self.repeats],
            **line,
        }
        return line, record


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            size: str) -> dict:
    run = Run(workload, seed, seconds, trace, size)
    run.execute()
    line, record = run.result()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(run.dir, ignore_errors=True)

    print(f"[{workload}] seed {seed}, {len(run.repeats)} repeats, "
          f"{line['attempted']} operations, {line['failed']} failed "
          f"(failure_rate {record['failure_rate']:.4f})")
    for problem in record["problems"]:
        print(f"[{workload}] FAILED {problem}")
    for note in record["notes"]:
        print(f"[{workload}] note: {note}")
    for name, value in record["quality"].items():
        print(f"[{workload}] quality {name} = {value:.6g}")
    for name, value in record["seconds_and_rates"].items():
        print(f"[{workload}] {name} = {value:.6g} (not a metric)")
    for name, m in line["metrics"].items():
        shown = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"[{workload}] {name} = {shown} {m['unit']}")
    print(f"[{workload}] record: {path.relative_to(ROOT)}")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="pipeline, fleet_sim, ingest or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke sizes only exercise the harness")
    args = parser.parse_args(argv)

    if not (SRC / "pavesim" / "cli.py").is_file():
        print(f"error: no pavesim sources under {SRC}; run from the root "
              "of a pavesim checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}))
    lines = [run_one(n, args.seed, args.seconds, bool(args.trace), args.size)
             for n in names]
    for line in lines:
        print(json.dumps(line))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
