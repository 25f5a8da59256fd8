"""Discrete-event simulator of a truck-and-paver road paving operation.

A fleet of ``K`` identical trucks shuttles concrete from a batch plant
to a slip-form paver: load, haul, dump, return, repeat. Material lands
in the paver's hopper when a dump finishes, and the paver consumes
hopper inventory as a fluid at a productivity rate drawn from a
:class:`~pavesim.inputmodel.GaussianInputModel`, idling when the hopper
runs dry. A replication ends when the configured total quantity has been
placed.

Model choices that keep a closed-form oracle exact:

- load/haul/dump/return times are constants, not distributions; only
  productivity is stochastic,
- no contention: trucks never queue at the plant or the paver,
- truckload amounts are committed at dispatch, so exactly
  ``ceil(Q / C)`` loads, at most 10^6, are hauled (see
  :attr:`SimConfig.truckloads`) and their amounts sum to ``Q``,
- sampled productivities are clamped below at ``clamp_floor`` rather
  than truncated or resampled, and every clamp is counted.

With those choices the trucks move in lockstep waves and the paver is a
single first-in, first-out server, so a replication is the Lindley
recursion of :func:`run_replication`. :func:`run_monte_carlo` keeps each
replication's completion time, busy fraction and clamp count as the
columns of a :class:`SimResult`. At a constant rate completion time also
has a closed form: the first time paving at that rate has placed all the
material the waves delivered. The tests hold that oracle
(``completion_oracle`` in ``tests/test_simulator.py``); it plans loads
and waves on integer tenths of m^3 and shares no code with this module,
and the recursion reproduces it to floating-point accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError, check_number
from .inputmodel import GaussianInputModel, sample
from .tables import csv_text, read_json

PER_REPLICATION = "per_replication"
PER_TRUCKLOAD = "per_truckload"
RESAMPLE_MODES = (PER_REPLICATION, PER_TRUCKLOAD)

MAX_TRUCKLOADS = 10 ** 6


@dataclass(frozen=True)
class SimConfig:
    """One paving operation: quantities, fleet, cycle times, input model.

    Quantities, times and the clamp floor are finite numbers > 0 and
    ``truck_count`` an integer >= 1, by :func:`~pavesim.errors.check_number`.
    A plan of more than :data:`MAX_TRUCKLOADS` (10^6) loads is refused: a
    replication holds one amount and up to one sampled rate per load.
    """

    total_quantity: float          # Q, m^3
    truck_count: int               # K
    truck_capacity: float          # C, m^3 per load
    load_time: float               # hours
    haul_time: float               # hours
    dump_time: float               # hours
    return_time: float             # hours
    productivity_source: GaussianInputModel
    resample_mode: str = PER_REPLICATION
    clamp_floor: float = 1.0       # m^3/hr

    def __post_init__(self):
        for name in ("total_quantity", "truck_capacity", "load_time",
                     "haul_time", "dump_time", "return_time", "clamp_floor"):
            check_number(name, getattr(self, name), above=0)
        check_number("truck_count", self.truck_count, integer=True, low=1)
        if self.resample_mode not in RESAMPLE_MODES:
            raise DataError(
                f"resample_mode must be one of {RESAMPLE_MODES}, "
                f"got {self.resample_mode!r}"
            )
        # Q / C may overflow to inf, which math.ceil cannot take.
        ratio = self.total_quantity / self.truck_capacity
        if ratio > MAX_TRUCKLOADS + 1 or self.truckloads > MAX_TRUCKLOADS:
            raise DataError(f"total_quantity / truck_capacity = {ratio!r} "
                            f"plans more than {MAX_TRUCKLOADS} truckloads")

    @property
    def truckloads(self) -> int:
        """``ceil(Q / C)``, dropping a closing load of at most ``1e-9 * C``
        that float noise adds (2.1 / 0.3 is 7.000000000000001)."""
        n = max(1, math.ceil(self.total_quantity / self.truck_capacity))
        closing = self.total_quantity - self.truck_capacity * (n - 1)
        return n - 1 if n > 1 and closing <= 1e-9 * self.truck_capacity else n

    @property
    def cycle_time(self) -> float:
        return self.load_time + self.haul_time + self.dump_time + self.return_time

    @property
    def first_delivery_offset(self) -> float:
        return self.load_time + self.haul_time + self.dump_time


#: SimConfig fields all operation config files must provide.
_REQUIRED_KEYS = frozenset({
    "total_quantity", "truck_count", "truck_capacity",
    "load_time", "haul_time", "dump_time", "return_time",
})
_OPTIONAL_KEYS = frozenset({"resample_mode", "clamp_floor"})
#: Where the productivity distribution comes from: exactly one of a raw
#: (mean, variance) pair or a scenario feature mapping to run through a
#: trained model.
_SOURCE_KEYS = frozenset({"productivity", "scenario"})


def parse_sim_config(path: str | Path) -> dict:
    """Read and validate a JSON operation config file.

    Lines starting with ``#`` are ignored. The file must provide
    total_quantity, truck_count, truck_capacity and the four cycle
    times; it may provide resample_mode and clamp_floor; and it must
    provide exactly one productivity source: either a
    ``"productivity": {"mean": ..., "variance": ...}`` object or a
    ``"scenario": {feature name: value}`` object to be evaluated by a
    trained model. Returns the raw dictionary: its shape is checked here,
    its numbers by the classes that take them.
    """
    raw = read_json(path)
    unknown = sorted(set(raw) - _REQUIRED_KEYS - _OPTIONAL_KEYS - _SOURCE_KEYS)
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(k for k in _REQUIRED_KEYS if k not in raw)
    if missing:
        raise DataError(f"config is missing keys: {', '.join(missing)}")
    sources = sorted(k for k in _SOURCE_KEYS if k in raw)
    if len(sources) != 1:
        raise DataError(
            "config must provide exactly one of 'productivity' or "
            f"'scenario', got {sources or 'neither'}"
        )
    block = raw[sources[0]]
    if sources[0] == "productivity" and (
            not isinstance(block, dict) or set(block) != {"mean", "variance"}):
        raise DataError("'productivity' must be an object with exactly the "
                        "keys 'mean' and 'variance'")
    if not isinstance(block, dict):
        raise DataError("'scenario' must be an object of feature values")
    return raw


def build_sim_config(raw: dict, model: GaussianInputModel) -> SimConfig:
    """Assemble a SimConfig from a parsed config and an input model."""
    kwargs = {k: raw[k] for k in _REQUIRED_KEYS | _OPTIONAL_KEYS if k in raw}
    return SimConfig(productivity_source=model, **kwargs)


@dataclass(frozen=True)
class SimResult:
    """Monte-Carlo outcome as columns: entry ``i`` of each tuple is
    replication ``i``'s completion time (hours), paver busy fraction and
    count of productivity draws that hit the clamp floor. Every
    replication hauls the same ``truckloads`` loads.

    Summaries are exactly recomputable from the columns: population std,
    percentiles by linear interpolation between order statistics.
    """

    completion_times: tuple[float, ...]
    busy_fractions: tuple[float, ...]
    clamp_counts: tuple[int, ...]
    truckloads: int
    master_seed: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.completion_times))

    @property
    def std(self) -> float:
        return float(np.std(self.completion_times))

    @property
    def min(self) -> float:
        return float(np.min(self.completion_times))

    @property
    def max(self) -> float:
        return float(np.max(self.completion_times))

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.completion_times, q))

    def to_csv(self, header_comments: Sequence[str] = ()) -> str:
        """Per-replication rows, then a ``#`` summary block."""
        n = len(self.completion_times)
        rows = zip(range(n), self.completion_times, self.busy_fractions,
                   [self.truckloads] * n, self.clamp_counts)
        footer = [f"replications = {n}", f"master_seed = {self.master_seed}"]
        footer += [f"{name} = {value!r}" for name, value in (
            ("mean", self.mean), ("std", self.std), ("min", self.min),
            ("max", self.max), ("p5", self.percentile(5)),
            ("p95", self.percentile(95)))]
        return csv_text(header_comments, (
            "replication", "completion_time", "paver_busy_fraction",
            "truckloads_delivered", "clamp_count"), rows, footer)


def truckload_amounts(cfg: SimConfig) -> list[float]:
    """Dispatch plan: full loads, then one partial closing the total."""
    n = cfg.truckloads
    amounts = [cfg.truck_capacity] * n
    amounts[-1] = cfg.total_quantity - cfg.truck_capacity * (n - 1)
    return amounts


def _clamped_draws(cfg: SimConfig, seed: int) -> tuple[list[float], int]:
    """Sampled productivity draws, floored at clamp_floor."""
    n = 1 if cfg.resample_mode == PER_REPLICATION else cfg.truckloads
    draws = sample(cfg.productivity_source, seed, n)
    clamp_count = sum(1 for p in draws if p < cfg.clamp_floor)
    return [max(p, cfg.clamp_floor) for p in draws], clamp_count


def run_replication(cfg: SimConfig, seed: int) -> tuple[float, float, int]:
    """Simulate one replication of the paving operation; returns its
    ``(completion_time, busy_fraction, clamp_count)``.

    All trucks start loading at t = 0 and truck ``i % K`` hauls load
    ``i``, so load ``i`` lands in the hopper at ``a_i = (i // K) * tau +
    t1``. The paver places loads first in, first out, each at the rate
    sampled for it, so load ``i`` is finished at::

        f_i = max(a_i, f_{i-1}) + amount_i / rate_i

    (the Lindley recursion), and completion is the last finish. This is
    the event-by-event model of dumps and parcel finishes: dumps land in
    load-index order, simultaneous dumps order by truck index ``i % K``
    and so also by load index, and handling a dump before or after a
    parcel finish at the same instant changes no start time, which is
    always ``max(arrival, previous finish)``.
    """
    draws, clamp_count = _clamped_draws(cfg, seed)
    n_loads = cfg.truckloads
    rates = draws * n_loads if cfg.resample_mode == PER_REPLICATION else draws
    amounts = truckload_amounts(cfg)

    tau, t1, k = cfg.cycle_time, cfg.first_delivery_offset, cfg.truck_count
    busy_time = 0.0
    placed = 0.0
    now = 0.0
    for i in range(n_loads):
        arrival = (i // k) * tau + t1
        duration = amounts[i] / rates[i]
        now = max(arrival, now) + duration
        busy_time += duration
        placed += amounts[i]

    # the n additions and the partial load's subtraction each err by about
    # an ulp of the total at most: a lost load above 2n ulps shows
    slack = 2 * n_loads * math.ulp(cfg.total_quantity)
    if not math.isclose(placed, cfg.total_quantity, rel_tol=0, abs_tol=slack):
        raise AssertionError(
            f"conservation violated: placed {placed!r} of "
            f"{cfg.total_quantity!r}"
        )
    return now, busy_time / now, clamp_count


def run_monte_carlo(
    cfg: SimConfig, replications: int, master_seed: int
) -> SimResult:
    """Independent replications with per-replication child seeds.

    Replication ``i`` uses a seed derived deterministically from
    ``(master_seed, i)``, so results do not depend on execution order
    and any subset could run in parallel. Completion times too large for
    their mean and std to be finite raise a :class:`NumericalError`.
    """
    check_number("replications", replications, integer=True, low=1)
    times, busy, clamps = zip(*(
        run_replication(cfg, replication_seed(master_seed, i))
        for i in range(replications)))
    result = SimResult(times, busy, clamps, cfg.truckloads, master_seed)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite([result.mean, result.std]).all():
            raise NumericalError(f"completion times overflow: mean "
                                 f"{result.mean!r}, std {result.std!r}")
    return result


def replication_seed(master_seed: int, index: int) -> int:
    """Deterministic child seed for one replication."""
    ss = np.random.SeedSequence((master_seed, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
