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
single first-in, first-out server. Only the rates vary between
replications, so a run builds and checks its load plan once
(:attr:`SimConfig.plan`: each load's arrival and amount), and a
replication only draws its rates and runs the Lindley recursion of
:func:`run_replication` over that plan. From :data:`ARRAY_LOADS` (112)
loads on, the recursion runs on arrays: the finishes are one sequential
``np.add.accumulate`` of the durations while the paver is busy, and the
per-load loop takes over at its first idle. Below that, the loop is one
conditional and one add per load over Python floats, with the durations
divided out in C builtins before it. Both paths give the same bits.
Replication ``i`` draws from numpy's PCG64 stream keyed by
``SeedSequence((master_seed, i))`` (:func:`replication_seed`), so two
configs run at one master seed pave on common random numbers.
:func:`run_monte_carlo` keeps each
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
from functools import cached_property, reduce
from itertools import repeat
from operator import add, lt, truediv
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError, check_choice, check_number
from .inputmodel import GaussianInputModel, sample
from .tables import csv_text

PER_REPLICATION = "per_replication"
PER_TRUCKLOAD = "per_truckload"
RESAMPLE_MODES = (PER_REPLICATION, PER_TRUCKLOAD)

MAX_TRUCKLOADS = 10 ** 6

#: From this many loads on, :func:`run_replication` runs its recursion on
#: arrays (:attr:`SimConfig.plan_arrays`); below it, one load at a time.
#: The array path's worst case, a ``per_replication`` paver that idles at
#: every load, costs the same as the loop here; a busy paver gains from
#: about 50 loads on.
ARRAY_LOADS = 112


@dataclass(frozen=True)
class SimConfig:
    """One paving operation: quantities, fleet, cycle times, input model.

    Quantities, times and the clamp floor are finite numbers > 0 and
    ``truck_count`` an integer >= 1, by :func:`~pavesim.errors.check_number`.
    A plan of more than :data:`MAX_TRUCKLOADS` (10^6) loads is refused: a
    replication holds one amount and up to one sampled rate per load.
    ``pavesim simulate`` builds one from a config file; this module reads none.
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
        check_choice("resample_mode", self.resample_mode, RESAMPLE_MODES)
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

    @cached_property
    def plan(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Each load's hopper arrival and amount, built and checked once.

        All trucks start loading at t = 0 and truck ``i % K`` hauls load
        ``i``, so load ``i`` lands at ``(i // K) * cycle + first``, where
        ``first`` is load + haul + dump and ``cycle`` adds the return.
        """
        amounts = tuple(truckload_amounts(self))
        placed, total = sum(amounts), self.total_quantity
        # the n additions and the partial load's subtraction each err by
        # about an ulp of the total at most: a lost load above 2n ulps shows
        slack = 2 * len(amounts) * math.ulp(total)
        if not math.isclose(placed, total, rel_tol=0, abs_tol=slack):
            raise AssertionError(
                f"conservation violated: placed {placed!r} of {total!r}")
        first = self.load_time + self.haul_time + self.dump_time
        cycle, k = first + self.return_time, self.truck_count
        arrivals = tuple((i // k) * cycle + first for i in range(len(amounts)))
        return arrivals, amounts

    @cached_property
    def plan_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:attr:`plan`'s arrivals and amounts as float64 arrays, and each
        load's duration at the clamp floor as Python divides it: an int
        amount over an int floor is their exact quotient, rounded once."""
        arrivals, amounts = self.plan
        at_floor = list(map(truediv, amounts, repeat(self.clamp_floor)))
        return (np.array(arrivals, dtype=float), np.array(amounts, dtype=float),
                np.array(at_floor, dtype=float))


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


def run_replication(cfg: SimConfig, seed: int | np.random.SeedSequence
                    ) -> tuple[float, float, int]:
    """Simulate one replication of the paving operation; returns its
    ``(completion_time, busy_fraction, clamp_count)``.

    The replication makes one :func:`~pavesim.inputmodel.sample` call on
    ``seed``: one rate per load in ``per_truckload`` mode, one for every
    load in ``per_replication`` mode. A rate below ``clamp_floor`` is
    raised to it and counted. Over the run's one :attr:`SimConfig.plan`
    of arrivals ``a_i`` the paver places loads first in, first out, so
    load ``i`` is finished at::

        f_i = max(a_i, f_{i-1}) + amount_i / rate_i

    (the Lindley recursion), and completion is the last finish. This is
    the event-by-event model of dumps and parcel finishes: dumps land in
    load-index order, simultaneous dumps order by truck index ``i % K``
    and so also by load index, and handling a dump before or after a
    parcel finish at the same instant changes no start time, which is
    always ``max(arrival, previous finish)``. The loop writes that ``max``
    as a conditional expression, which keeps its tie rule and saves a
    call per load. The durations are divided out in one pass first, and
    busy time is their left-to-right float sum (``sum()`` compensates
    from Python 3.12 on, so it would change the bits).

    A plan of :data:`ARRAY_LOADS` loads or more runs the same arithmetic
    on arrays, with the same bits. A draw is clamped as ``operator.lt``
    decides and a clamped load's duration is Python's own quotient, so an
    int floor or amount above 2^53 moves nothing. While the paver never
    idles, ``f_i = f_{i-1} + d_i``, so the finishes are one
    ``np.add.accumulate`` over ``a_0, d_0, d_1, ...``, which adds left to
    right as the loop does. At the first load that lands after the
    previous finish, where the paver idles, the loop takes over from that
    finish. Busy time is the last entry of the durations' own accumulate
    (``np.sum`` adds pairwise, so it would change the bits). Where a
    duration or finish overflows to inf, that path warns as numpy does;
    :func:`run_monte_carlo` silences it, as the loop's floats overflow
    silently.
    """
    arrivals, amounts = cfg.plan
    per_load = cfg.resample_mode == PER_TRUCKLOAD
    draws = sample(cfg.productivity_source, seed,
                   len(amounts) if per_load else 1)
    if len(amounts) >= ARRAY_LOADS:
        return _replication_by_array(cfg, draws)
    # Python floats: a numpy scalar would compare with an int floor above
    # 2^53 as a float does, not exactly
    draws = draws.tolist()
    floor = cfg.clamp_floor
    # operator.lt, not floor.__gt__: an int floor returns NotImplemented
    clamp_count = sum(map(lt, draws, repeat(floor)))
    rates = list(map(max, draws, repeat(floor))) if clamp_count else draws
    durations = list(map(truediv, amounts,
                         rates if per_load else repeat(rates[0])))
    now = _last_finish(0.0, arrivals, durations)
    return now, reduce(add, durations, 0.0) / now, clamp_count


def _last_finish(now: float, arrivals: Sequence[float],
                 durations: Sequence[float]) -> float:
    """The Lindley recursion, one load at a time, from a paver that is
    free at ``now``."""
    for arrival, duration in zip(arrivals, durations):
        now = (now if now > arrival else arrival) + duration
    return now


def _replication_by_array(cfg: SimConfig, draws: np.ndarray
                          ) -> tuple[float, float, int]:
    """:func:`run_replication` over :attr:`SimConfig.plan_arrays`, with
    the same bits. ``draws`` is :func:`~pavesim.inputmodel.sample`'s
    float64 array, one per load or, in ``per_replication`` mode, one
    draw that broadcasts."""
    arrivals, amounts, at_floor = cfg.plan_arrays
    floor = cfg.clamp_floor
    low = float(floor)
    # draw < floor as operator.lt decides it: no float lies strictly
    # between an int floor and the float it rounds to
    below = draws <= low if low < floor else draws < low
    clamp_count = int(np.count_nonzero(below))
    steps = np.empty(amounts.size + 1)
    steps[0] = arrivals[0]
    durations = steps[1:]
    np.divide(amounts, np.maximum(draws, low), out=durations)
    if clamp_count:
        np.copyto(durations, at_floor, where=below)
    finish = np.add.accumulate(steps)
    busy = float(np.add.accumulate(durations)[-1])
    # finish[j] is f_{j-1}; load j idles when it lands after that finish
    idle = arrivals[1:] > finish[1:-1]
    j = int(idle.argmax()) + 1
    if idle[j - 1]:
        now = _last_finish(float(finish[j]), cfg.plan[0][j:],
                           durations[j:].tolist())
    else:
        now = float(finish[-1])
    return now, busy / now, clamp_count


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
    # the array path overflows to inf as the loop's floats do, silently
    with np.errstate(over="ignore", invalid="ignore"):
        times, busy, clamps = zip(*(
            run_replication(cfg, replication_seed(master_seed, i))
            for i in range(replications)))
        result = SimResult(times, busy, clamps, cfg.truckloads, master_seed)
        if not np.isfinite([result.mean, result.std]).all():
            raise NumericalError(f"completion times overflow: mean "
                                 f"{result.mean!r}, std {result.std!r}")
    return result


def replication_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic child seed for one replication: the ``SeedSequence``
    of ``(master_seed, index)``, which :func:`~pavesim.inputmodel.sample`
    hands to PCG64 as it is, so it is hashed once."""
    return np.random.SeedSequence((master_seed, index))
