"""Spans around the calls into each pavesim layer, and what they add up to.

The workload process installs a :class:`Tracer` when it runs traced: each
function in :data:`WRAPS` is replaced, at the module attribute where its
caller looks it up, by a wrapper that records a span (name, start, end,
parent). Spans stay in memory and are written with the process report
when the run ends. A function that no longer exists under that attribute
is not wrapped; its metrics come out as ``None`` with a note, so a
refactor of the program never crashes the benchmark.

Self time is a span's duration minus the time its child spans cover.
The parent process turns the spans into the per-layer metrics named
``<module>.<function>.<stat>`` (see :data:`LAYER_STATS`).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

#: Percentiles are reported only from at least this many calls.
MIN_CALLS_FOR_PERCENTILES = 1000

#: CLI subcommands; each stage of a workload is one ``cli.<name>`` span.
SUBCOMMANDS = ("synth", "adapt", "train", "evaluate", "derive", "simulate",
               "mixture-demo")


def _rows(value) -> float:
    return float(value.num_rows)


#: span name -> (wrap sites as (module, dotted attribute), counter).
#: A counter maps (args, kwargs, result) to extra per-call counts.
WRAPS = {
    "network.train": ([("pavesim.cli", "train")], None),
    "network.loss_gradients": ([("pavesim.network", "loss_gradients")], None),
    "network.adam_step": ([("pavesim.network", "adam_step")], None),
    "simulator.run_monte_carlo": ([("pavesim.cli", "run_monte_carlo")], None),
    "simulator.replication_seed":
        ([("pavesim.simulator", "replication_seed")], None),
    "simulator.run_replication":
        ([("pavesim.simulator", "run_replication")], None),
    "simulator.SimResult.to_csv":
        ([("pavesim.simulator", "SimResult.to_csv")], None),
    "inputmodel.sample": ([("pavesim.simulator", "sample")],
                          lambda a, k, r: {"draws": float(len(r))}),
    "inputmodel.derive": ([("pavesim.cli", "derive")], None),
    "inputmodel.coverage": ([("pavesim.cli", "coverage")], None),
    "synthetic.generate_paving_dataset":
        ([("pavesim.cli", "generate_paving_dataset")],
         lambda a, k, r: {"rows": _rows(r)}),
    "synthetic.generate_weather_mixture":
        ([("pavesim.cli", "generate_weather_mixture")], None),
    "tables.load_csv": ([("pavesim.cli", "load_csv")],
                        lambda a, k, r: {"rows": _rows(r),
                                         "bytes": float(os.path.getsize(a[0]))}),
    "tables.table_to_csv": ([("pavesim.cli", "table_to_csv")], None),
    "adapter.join_sources": ([("pavesim.cli", "join_sources")],
                             lambda a, k, r: {"rows_dropped": float(r[1])}),
    "adapter.clean": ([("pavesim.cli", "clean")],
                      lambda a, k, r: {
                          "rows_in": _rows(a[0]), "rows_out": _rows(r[0]),
                          "cells_imputed":
                              float(sum(r[1].imputed_counts.values()))}),
    "adapter.encode_and_normalize":
        ([("pavesim.cli", "encode_and_normalize")], None),
    "adapter.split": ([("pavesim.cli", "split")], None),
    "modelfile.save_dataset": ([("pavesim.cli", "save_dataset")],
                               lambda a, k, r: {
                                   "bytes": float(os.path.getsize(a[0]))}),
    "modelfile.load_dataset": ([("pavesim.cli", "load_dataset"),
                                ("pavesim.modelfile", "load_dataset")], None),
    "modelfile.save_model": ([("pavesim.cli", "save_model")], None),
    "modelfile.load_model": ([("pavesim.cli", "load_model")], None),
}

#: Per-layer metric stats per span name. ``s`` total seconds, ``self_s``
#: seconds minus child spans, ``calls``, ``p50_us``/``p99_us`` per-call
#: percentiles, any other stat is a counter summed over calls.
LAYER_STATS = {
    "network.train": ("s", "self_s"),
    "network.loss_gradients": ("s", "calls", "p50_us", "p99_us"),
    "network.adam_step": ("s", "p50_us", "p99_us"),
    "simulator.run_monte_carlo": ("s",),
    "simulator.replication_seed": ("s",),
    "simulator.run_replication": ("s", "self_s", "p50_us", "p99_us"),
    "simulator.SimResult.to_csv": ("s",),
    "inputmodel.sample": ("s", "calls", "draws"),
    "inputmodel.derive": ("s", "calls"),
    "inputmodel.coverage": ("s",),
    "synthetic.generate_paving_dataset": ("s", "rows"),
    "synthetic.generate_weather_mixture": ("s",),
    "tables.load_csv": ("s", "rows", "bytes"),
    "tables.table_to_csv": ("s",),
    "adapter.join_sources": ("s", "rows_dropped"),
    "adapter.clean": ("s", "rows_in", "rows_out", "cells_imputed"),
    "adapter.encode_and_normalize": ("s",),
    "adapter.split": ("s",),
    "modelfile.save_dataset": ("s", "bytes"),
    "modelfile.load_dataset": ("s",),
    "modelfile.save_model": ("s",),
    "modelfile.load_model": ("s", "calls"),
    **{f"cli.{name}": ("s", "self_s") for name in SUBCOMMANDS},
}

#: Per-layer metrics that do not come from spans: simulator counts read
#: from the simulate CSVs, tracemalloc peaks, and the tracing overhead.
EXTRA_STATS = {
    "simulator.replications": "count",
    "simulator.truckloads": "count",
    "simulator.clamp_count": "count",
    **{f"cli.{name}.peak_alloc_mb": "MiB" for name in SUBCOMMANDS},
    "trace.overhead_s": "s",
}

STAT_UNITS = {"s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us",
              "bytes": "bytes"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{name}.{stat}": STAT_UNITS.get(stat, "count")
             for name, stats in LAYER_STATS.items() for stat in stats}
    units.update(EXTRA_STATS)
    return units


class Tracer:
    """In-memory span recorder for one workload process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, parent index, start, end]
        self.counts: dict[str, float] = {}
        self.notes: list[str] = []
        self.missing: set[str] = set()
        self.uncounted: set[str] = set()   # names whose counter failed
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        record = [self._ids[name], parent, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _count(self, name: str, counter, args, kwargs, result) -> None:
        try:
            extra = counter(args, kwargs, result)
        except Exception as exc:  # a reshaped return value must not crash
            if name not in self.uncounted:
                self.uncounted.add(name)
                self.notes.append(f"{name}: counter failed "
                                  f"({type(exc).__name__}: {exc})")
            return
        for stat, value in extra.items():
            key = f"{name}.{stat}"
            self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, name: str, fn, counter):
        open_, close, count = self._open, self._close, self._count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(record)
            if counter is not None:
                count(name, counter, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function of :data:`WRAPS` at its call sites. A name
        none of whose sites resolves is recorded as missing."""
        for name, (sites, counter) in WRAPS.items():
            absent = []
            for module_name, dotted in sites:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    owner = None
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                if callable(fn):
                    setattr(owner, attr, self.wrap(name, fn, counter))
                else:
                    absent.append(f"{module_name}.{dotted}")
            if len(absent) == len(sites):
                self.missing.add(name)
                self.notes.append(f"{name}: {', '.join(absent)} not found; "
                                  "its metrics are null")

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counts": self.counts, "notes": self.notes,
                "missing": sorted(self.missing),
                "uncounted": sorted(self.uncounted)}


# ------------------------------------------------------------ analysis


def self_times(spans: list[list]) -> list[float]:
    """Duration minus child coverage, per span (children never overlap:
    the workload is one thread, so child spans are sequential)."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_spans(spans: list[list], tol: float = 1e-6) -> list[str]:
    """Problems with the span tree: children outside their parent, a
    negative self time, or self times that do not sum to the roots."""
    problems = []
    for i, (_, parent, start, end) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ends before it starts")
        if parent >= 0:
            p_start, p_end = spans[parent][2], spans[parent][3]
            if parent >= i or start < p_start or end > p_end:
                problems.append(f"span {i} is not inside its parent {parent}")
    own = self_times(spans)
    if any(value < -tol for value in own):
        problems.append(f"negative self time {min(own)!r}")
    roots = sum(end - start for _, parent, start, end in spans if parent < 0)
    if abs(sum(own) - roots) > tol * max(1.0, len(spans)):
        problems.append(f"self times sum to {sum(own)!r}, roots to {roots!r}")
    return problems


def span_stats(report: dict) -> dict[str, dict]:
    """Per span name: total ``s``, ``self_s``, ``calls`` and durations."""
    names, spans = report["names"], report["spans"]
    own = self_times(spans)
    out: dict[str, dict] = {}
    for (idx, _, start, end), self_s in zip(spans, own):
        entry = out.setdefault(names[idx], {"s": 0.0, "self_s": 0.0,
                                            "calls": 0, "durations": []})
        entry["s"] += end - start
        entry["self_s"] += self_s
        entry["calls"] += 1
        entry["durations"].append(end - start)
    return out
