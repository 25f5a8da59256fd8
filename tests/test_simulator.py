import dataclasses
import math
from operator import ge

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pavesim import simulator
from pavesim.errors import DataError, NumericalError, check_record
from pavesim.inputmodel import GaussianInputModel, sample
from pavesim.simulator import (
    MAX_TRUCKLOADS,
    PER_REPLICATION,
    PER_TRUCKLOAD,
    RESAMPLE_MODES,
    SimConfig,
    SimResult,
    replication_seed,
    run_monte_carlo,
    run_replication,
    truckload_amounts,
)
from pavesim.tables import read_json

FIXED_50 = GaussianInputModel(50.0, 0.0)
CONSTRAINED_LEGS = (0.2, 0.5, 0.2, 0.1)    # load, haul, dump, return


def constrained_config(**overrides):
    load, haul, dump, ret = CONSTRAINED_LEGS
    base = dict(
        total_quantity=100.0, truck_count=2, truck_capacity=10.0,
        load_time=load, haul_time=haul, dump_time=dump, return_time=ret,
        productivity_source=FIXED_50,
    )
    base.update(overrides)
    return SimConfig(**base)


# ------------------------------------------------- constant-rate oracle


def completion_oracle(q10, c10, trucks, legs, rate):
    """Completion time at the constant paving rate ``rate``, worked out
    from first principles with none of the simulator's code.

    ``q10`` and ``c10`` are Q and C in whole tenths of m^3, so the plan
    is exact integer arithmetic: ``ceil(q10 / c10)`` loads, ``trucks`` to a
    wave, and wave ``w`` (from 0) dumps at load + haul + dump + ``w``
    cycles. Cumulative delivery before wave ``w`` is
    ``min(w * trucks * c10, q10)`` tenths. The paver places whatever has
    been delivered at ``rate`` and idles only when it has placed it all.
    What wave ``w`` and the later waves deliver cannot be placed before
    wave ``w`` dumps, so paving has placed all of Q no earlier than
    ``dump_w + (Q - delivered before w) / rate`` for every ``w``; it
    reaches Q at the latest of these bounds, the one for the last wave
    at whose dump the paver had run dry (wave 0 if it never did).
    """
    load, haul, dump, ret = legs
    loads = -(-q10 // c10)
    waves = -(-loads // trucks)
    first_dump = load + haul + dump
    cycle = load + haul + dump + ret
    return max(
        first_dump + w * cycle + (q10 - min(w * trucks * c10, q10)) / 10 / rate
        for w in range(waves)
    )


def drawn(cfg, seed, n):
    """The first ``n`` draws of a replication with this seed, as Python
    floats: ``sample`` gives a float64 array, and a numpy scalar would
    compare with an int floor above 2^53 as a float does, not exactly as
    the simulator does."""
    return sample(cfg.productivity_source, seed, n).tolist()


def clamped_rates(cfg, seed, n):
    """The first ``n`` rates a replication with this seed paves at: the
    draws of ``sample``, floored at the clamp floor."""
    return [max(p, cfg.clamp_floor) for p in drawn(cfg, seed, n)]


def tenths_config(q10, c10, trucks, legs, rate, **overrides):
    """A SimConfig with Q = q10 / 10, C = c10 / 10 and a constant rate."""
    load, haul, dump, ret = legs
    return SimConfig(
        total_quantity=q10 / 10, truck_count=trucks, truck_capacity=c10 / 10,
        load_time=load, haul_time=haul, dump_time=dump, return_time=ret,
        productivity_source=GaussianInputModel(rate, 0.0), **overrides,
    )


def test_supply_unconstrained_hand_case():
    # one giant load delivered almost instantly; the paver just works
    # 100 m^3 at 50 m^3/hr after a 0.5 hr haul
    legs = (1e-9, 0.5, 1e-9, 1e-9)
    cfg = tenths_config(1000, 1000, 10, legs, 50.0)
    expected = 0.5 + 2e-9 + 2.0
    assert completion_oracle(1000, 1000, 10, legs, 50.0) == pytest.approx(
        expected, abs=1e-12)
    assert abs(run_replication(cfg, 0)[0] - expected) < 1e-12


def test_supply_constrained_hand_case():
    # 10 loads in 5 waves of 2; tau = 1.0, t1 = 0.9, final wave carries
    # 20 m^3: 0.9 + 4*1.0 + 20/50 = 5.3
    cfg = constrained_config()
    assert completion_oracle(1000, 100, 2, CONSTRAINED_LEGS, 50.0) == (
        pytest.approx(5.3, rel=1e-12))
    completion_time, busy_fraction, _ = run_replication(cfg, 3)
    assert abs(completion_time - 5.3) < 1e-9
    # the paver works Q/P = 2 hours of the 5.3
    assert busy_fraction == pytest.approx(2.0 / 5.3, rel=1e-9)
    assert run_monte_carlo(cfg, 1, 3).truckloads == 10


def test_single_load_hand_case():
    legs = (0.1, 0.4, 0.05, 0.2)
    cfg = tenths_config(300, 300, 1, legs, 60.0)
    expected = 0.1 + 0.4 + 0.05 + 30.0 / 60.0
    assert completion_oracle(300, 300, 1, legs, 60.0) == pytest.approx(
        expected, rel=1e-12)
    assert run_replication(cfg, 1)[0] == pytest.approx(expected, rel=1e-12)


def test_recursion_matches_the_oracle_on_random_configs():
    # Every other trial has Q a whole number of loads, where float noise
    # in Q / C (2.1 / 0.3 is 7.000000000000001) could plan a phantom
    # load; when that load would open a wave of its own, it would delay
    # completion by a cycle.
    rng = np.random.default_rng(60)
    noisy = 0
    for trial in range(200):
        c10 = int(rng.integers(1, 301))
        if trial % 2:
            q10 = int(rng.integers(1, 40 * c10))
        else:
            q10 = c10 * int(rng.integers(1, 40))
        trucks = int(rng.integers(1, 7))
        legs = tuple(float(x) for x in rng.uniform(0.05, 1.5, size=4))
        p = float(rng.uniform(20, 120))
        cfg = tenths_config(q10, c10, trucks, legs, p)
        assert run_replication(cfg, 3)[0] == pytest.approx(
            completion_oracle(q10, c10, trucks, legs, p), rel=1e-12)
        loads = -(-q10 // c10)
        noisy += (math.ceil((q10 / 10) / (c10 / 10)) > loads
                  and loads % trucks == 0)
    assert noisy > 0


def test_random_rates_match_the_max_plus_closed_form():
    # The last load is finished at max_j (a_j + sum_{k >= j} amount_k /
    # rate_k): the paver starts at the latest dump after which it never
    # idles again. Amounts and arrival times are rebuilt here from Q, C,
    # K and the legs, and the rates from the replication's seed. Q and
    # C are whole tenths and the load plan is integer arithmetic on
    # tenths, so float noise in Q / C (2.1 / 0.3 is 7.000000000000001)
    # cannot add a phantom load unnoticed; every other trial has Q a
    # whole number of loads, where that noise strikes.
    rng = np.random.default_rng(61)
    idled = never_idled = clamped = noisy = 0
    for trial in range(200):
        c10 = int(rng.integers(1, 301))
        if trial % 2:
            q10 = int(rng.integers(1, 40 * c10))
        else:
            q10 = c10 * int(rng.integers(1, 40))
        trucks = int(rng.integers(1, 9))
        legs = [float(x) for x in rng.uniform(0.02, 1.0, size=4)]
        mean = float(rng.uniform(10, 150))
        std = mean * float(rng.uniform(0.05, 1.0))
        cfg = SimConfig(
            total_quantity=q10 / 10, truck_count=trucks,
            truck_capacity=c10 / 10, load_time=legs[0],
            haul_time=legs[1], dump_time=legs[2], return_time=legs[3],
            productivity_source=GaussianInputModel(mean, std * std),
            resample_mode=PER_TRUCKLOAD,
        )
        completion_time, _, clamp_count = run_replication(cfg, trial)

        full_loads, remainder = divmod(q10, c10)
        amounts = [c10 / 10] * full_loads + ([remainder / 10] if remainder
                                             else [])
        noisy += math.ceil((q10 / 10) / (c10 / 10)) > len(amounts)
        cycle, first = sum(legs), sum(legs[:3])
        arrivals = [(j // trucks) * cycle + first for j in range(len(amounts))]
        draws = drawn(cfg, trial, len(amounts))
        assert clamp_count == sum(p < cfg.clamp_floor for p in draws)
        rates = clamped_rates(cfg, trial, len(amounts))
        times = [a / r for a, r in zip(amounts, rates)]
        finishes = [arrivals[j] + math.fsum(times[j:])
                    for j in range(len(amounts))]
        expected = max(finishes)
        assert completion_time == pytest.approx(expected, rel=1e-12)

        idled += finishes.index(expected) > 0
        never_idled += finishes.index(expected) == 0
        clamped += clamp_count > 0
    # both regimes, the clamp floor and noisy Q / C are exercised
    assert idled > 0 and never_idled > 0 and clamped > 0 and noisy > 0

def test_analytic_respects_the_clamp_floor():
    for floor in (1.0, 2.0):
        cfg = tenths_config(1000, 100, 2, CONSTRAINED_LEGS, 0.5,
                            clamp_floor=floor)
        completion_time, _, clamp_count = run_replication(cfg, 0)
        assert clamp_count == 1
        assert completion_time == pytest.approx(
            completion_oracle(1000, 100, 2, CONSTRAINED_LEGS, floor),
            rel=1e-12)


# ----------------------------------------------------------- monotonicity


def test_completion_improves_with_more_trucks():
    times = [
        run_replication(constrained_config(truck_count=k), 0)[0]
        for k in (1, 2, 3, 5, 12)
    ]
    assert all(a >= b for a, b in zip(times, times[1:]))
    assert times[0] > times[-1]


def test_completion_improves_with_bigger_trucks():
    times = [
        run_replication(constrained_config(truck_capacity=c), 0)[0]
        for c in (5.0, 10.0, 20.0, 50.0)
    ]
    assert all(a >= b for a, b in zip(times, times[1:]))


def test_completion_grows_with_quantity():
    times = [
        run_replication(constrained_config(total_quantity=q), 0)[0]
        for q in (50.0, 100.0, 150.0, 250.0)
    ]
    assert all(a < b for a, b in zip(times, times[1:]))


# ----------------------------------------------------------- conservation


def test_truckload_amounts_close_the_total():
    cfg = constrained_config(total_quantity=100.0, truck_capacity=30.0)
    assert truckload_amounts(cfg) == [30.0, 30.0, 30.0, 10.0]
    rng = np.random.default_rng(1)
    for _ in range(200):
        cfg = constrained_config(
            total_quantity=float(rng.uniform(1, 500)),
            truck_capacity=float(rng.uniform(0.5, 40)),
        )
        amounts = truckload_amounts(cfg)
        assert len(amounts) == cfg.truckloads
        assert math.fsum(amounts) == pytest.approx(
            cfg.total_quantity, abs=1e-9)
        assert all(a > 0 for a in amounts[:-1])
        assert 0 < amounts[-1] <= cfg.truck_capacity + 1e-12


def test_float_noise_in_q_over_c_plans_no_phantom_load():
    # 2.1 / 0.3 is 7.000000000000001 in floats. Seven loads of 0.3 m^3,
    # one truck, 0.4 h cycle, first dump at 0.3 h, P = 10: the paver
    # waits for every load, so completion is 0.3 + 6 * 0.4 + 0.3 / 10.
    cfg = SimConfig(
        total_quantity=2.1, truck_count=1, truck_capacity=0.3,
        load_time=0.1, haul_time=0.1, dump_time=0.1, return_time=0.1,
        productivity_source=GaussianInputModel(10.0, 0.0),
    )
    assert cfg.truckloads == 7
    assert truckload_amounts(cfg)[-1] == pytest.approx(0.3, rel=1e-12)
    completion_time = run_replication(cfg, 0)[0]
    assert run_monte_carlo(cfg, 1, 0).truckloads == 7
    assert completion_time == pytest.approx(2.73, rel=1e-12)
    assert completion_oracle(21, 3, 1, (0.1, 0.1, 0.1, 0.1), 10.0) == (
        pytest.approx(completion_time, rel=1e-12))


@pytest.mark.parametrize("total, loads", [
    (108 + 1e-8, 9),    # closing load of about 1e-8 <= 1e-9 * C = 1.2e-8
    (108 + 2e-8, 10),   # about 2e-8 > 1.2e-8: a real, if tiny, load
])
def test_a_closing_load_up_to_1e_9_of_a_truck_is_noise(total, loads):
    # 1e-9 / C (8.3e-11) as the tolerance would plan a tenth load for both
    cfg = constrained_config(total_quantity=total, truck_capacity=12)
    assert cfg.truckloads == loads


def test_a_closing_load_of_exactly_1e_9_of_a_truck_is_dropped():
    # "at most": 1e-9 * 1e9 is exactly 1.0, and so is the closing load
    capacity, total = 1e9, 3e9 + 1
    assert total - capacity * 3 == 1e-9 * capacity == 1.0
    cfg = constrained_config(total_quantity=total, truck_capacity=capacity)
    assert cfg.truckloads == 3
    assert constrained_config(total_quantity=total + 1,
                              truck_capacity=capacity).truckloads == 4


@settings(max_examples=1000, deadline=None)
@given(q10=st.integers(1, 400), c10=st.integers(1, 59), k=st.integers(1, 8))
def test_decimal_quantities_plan_whole_loads(q10, c10, k):
    cfg = constrained_config(total_quantity=q10 / 10, truck_capacity=c10 / 10,
                             truck_count=k)
    assert cfg.truckloads == -(-q10 // c10)
    amounts = truckload_amounts(cfg)
    assert len(amounts) == cfg.truckloads
    assert all(a > 0 for a in amounts)
    assert math.fsum(amounts) == pytest.approx(q10 / 10, abs=1e-9)


def test_paver_busy_time_accounts_for_all_material():
    completion_time, busy_fraction, _ = run_replication(constrained_config(), 7)
    busy_hours = busy_fraction * completion_time
    assert busy_hours * 50.0 == pytest.approx(100.0, rel=1e-9)


def test_busy_time_sums_parcel_times_under_varying_rates():
    cfg = constrained_config(
        productivity_source=GaussianInputModel(50.0, 64.0),
        resample_mode=PER_TRUCKLOAD,
    )
    completion_time, busy_fraction, _ = run_replication(cfg, 11)
    expected = math.fsum(a / r for a, r in zip(
        truckload_amounts(cfg), clamped_rates(cfg, 11, cfg.truckloads)))
    busy_hours = busy_fraction * completion_time
    assert busy_hours == pytest.approx(expected, rel=1e-12)


@st.composite
def replication_configs(draw):
    """SimConfigs of 1 to 300 loads with a partial closing load, in both
    resample modes, with float or int fields as JSON gives them: an int
    capacity may lie above 2^53, and an int clamp floor may bind."""
    loads = draw(st.integers(1, 300))
    if draw(st.booleans()):
        capacity = draw(st.integers(1, 40) | st.integers(2**53, 2**60))
        partial = draw(st.integers(1, capacity))
    else:
        capacity = draw(st.floats(0.25, 40.0))
        partial = capacity * draw(st.floats(0.01, 1.0))
    legs = draw(st.lists(st.integers(1, 3) | st.floats(0.01, 1.0),
                         min_size=4, max_size=4))
    return SimConfig(
        total_quantity=capacity * (loads - 1) + partial,
        truck_count=draw(st.integers(1, 9)), truck_capacity=capacity,
        load_time=legs[0], haul_time=legs[1], dump_time=legs[2],
        return_time=legs[3],
        productivity_source=GaussianInputModel(
            draw(st.sampled_from([5, 20.0, 55.0])),
            draw(st.sampled_from([0.0, 30.0, 900]))),
        resample_mode=draw(st.sampled_from(RESAMPLE_MODES)),
        clamp_floor=draw(st.sampled_from([1.0, 2, 20, 20.5])))


@settings(max_examples=150, deadline=None)
@given(cfg=replication_configs(), seed=st.integers(0, 2**64 + 7))
@example(cfg=SimConfig(6000, 4, 12, 0.15, 0.4, 0.1, 0.25,
                       GaussianInputModel(20.0, 900.0), PER_TRUCKLOAD, 2.0),
         seed=17)
@example(cfg=SimConfig(3 * (2**53 + 1) + 5, 2, 2**53 + 1, 1, 1, 1, 1,
                       GaussianInputModel(5, 30.0), PER_REPLICATION, 20),
         seed=2**64 + 7)
# 111 and 112 loads, on both sides of where a per-load loop once gave way
# to arrays
@example(cfg=SimConfig(12 * 110 + 5, 8, 12, 0.15, 0.4, 0.1, 0.25,
                       GaussianInputModel(55.0, 30.0), PER_TRUCKLOAD), seed=1)
@example(cfg=SimConfig(12 * 111 + 5, 8, 12, 0.15, 0.4, 0.1, 0.25,
                       GaussianInputModel(55.0, 30.0), PER_TRUCKLOAD), seed=1)
# a paver that idles at the first wave, and one busy up to load 320 of 1,000
@example(cfg=SimConfig(2400.5, 2, 12, 0.15, 0.4, 0.1, 0.25,
                       GaussianInputModel(55.0, 30.0), PER_TRUCKLOAD), seed=3)
@example(cfg=SimConfig(12000, 8, 12, 0.15, 0.4, 0.1, 0.25,
                       GaussianInputModel(107.0, 100.0), PER_TRUCKLOAD), seed=4)
@example(cfg=SimConfig(12000.5, 8, 12, 0.15, 0.4, 0.1, 0.25,
                       GaussianInputModel(55.0, 30.0), PER_REPLICATION), seed=4)
# truck-bound: 1,001 loads at one rate, two to a wave, and the paver
# idles at every wave
@example(cfg=SimConfig(12000.5, 2, 12, 0.15, 0.4, 0.1, 0.25,
                       GaussianInputModel(200.0, 900.0), PER_REPLICATION),
         seed=8)
# 97 of 201 draws clamped to an int floor; then an int capacity above 2^53
# clamped to one, an exact quotient that float division would round twice
@example(cfg=SimConfig(2400.5, 3, 12, 0.15, 0.4, 0.1, 0.25,
                       GaussianInputModel(20.0, 900.0), PER_TRUCKLOAD, 20), seed=5)
@example(cfg=SimConfig(150 * (2**53 + 3) + 5, 4, 2**53 + 3, 1, 1, 1, 1,
                       GaussianInputModel(20.0, 900.0), PER_TRUCKLOAD, 20),
         seed=6)
# draws of exactly 2^53 lie below a floor of 2^53 + 1, which rounds to 2^53
@example(cfg=SimConfig(12 * 150, 8, 12, 1, 1, 1, 1,
                       GaussianInputModel(2**53, 0.0), PER_TRUCKLOAD, 2**53 + 1),
         seed=7)
def test_replication_is_the_max_plus_closed_form(cfg, seed):
    # Completion is S_n + max_j (a_j - S_j), with S_j the left-to-right sum
    # of the first j durations and busy time S_n, all in Python floats
    # here: the plan is rebuilt from the config's fields, and a clamped
    # load's duration is the amount over the floor as Python divides it.
    n = cfg.truckloads
    first = cfg.load_time + cfg.haul_time + cfg.dump_time
    cycle = first + cfg.return_time
    arrivals = [float((j // cfg.truck_count) * cycle + first) for j in range(n)]
    amounts = [cfg.truck_capacity] * (n - 1) + [
        cfg.total_quantity - cfg.truck_capacity * (n - 1)]
    draws = drawn(cfg, seed, n if cfg.resample_mode == PER_TRUCKLOAD else 1)
    clamps = sum(p < cfg.clamp_floor for p in draws)
    rates = [max(p, cfg.clamp_floor) for p in draws] * (n // len(draws))
    durations = [amount / rate for amount, rate in zip(amounts, rates)]
    sums = [0.0]
    for duration in durations:
        sums.append(sums[-1] + duration)
    busy = sums[-1]
    now = busy + max(a - s for a, s in zip(arrivals, sums))
    completion_time, busy_fraction, clamp_count = run_replication(cfg, seed)
    assert (completion_time, busy_fraction, clamp_count) == (
        now, busy / now, clamps)
    # the literal per-load Lindley recursion, to within rounding
    finish = 0.0
    for arrival, duration in zip(arrivals, durations):
        finish = max(arrival, finish) + duration
    assert completion_time == pytest.approx(finish, rel=1e-12)
    assert busy_fraction == pytest.approx(busy / finish, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(cfg=replication_configs(), master=st.integers(0, 2**64 - 1))
@example(cfg=SimConfig(12000, 8, 12, 0.15, 0.4, 0.1, 0.25,
                       GaussianInputModel(55.0, 30.0), PER_TRUCKLOAD), master=7)
def test_one_more_truck_never_finishes_later_on_common_random_numbers(
        cfg, master):
    # Replication i draws from replication_seed(master, i) whatever the
    # fleet, so K + 1 trucks pave at the same rates; each load lands no
    # later, and max and float addition are monotone.
    more = dataclasses.replace(cfg, truck_count=cfg.truck_count + 1)
    k, k_plus_1 = (run_monte_carlo(c, 3, master) for c in (cfg, more))
    assert all(map(ge, k.completion_times, k_plus_1.completion_times))
    assert k.clamp_counts == k_plus_1.clamp_counts


# ------------------------------------------------------------ stochastic


def test_replication_is_deterministic():
    cfg = constrained_config(productivity_source=GaussianInputModel(50.0, 25.0))
    assert run_replication(cfg, 9) == run_replication(cfg, 9)
    assert run_replication(cfg, 9) != run_replication(cfg, 10)


def test_monte_carlo_is_deterministic_and_order_independent():
    cfg = constrained_config(productivity_source=GaussianInputModel(50.0, 25.0))
    result = run_monte_carlo(cfg, 8, 99)
    assert result == run_monte_carlo(cfg, 8, 99)
    # each replication depends only on (master_seed, index)
    backwards = [
        run_replication(cfg, replication_seed(99, i))
        for i in reversed(range(8))
    ]
    assert list(zip(result.completion_times, result.busy_fractions,
                    result.clamp_counts)) == backwards[::-1]
    assert run_monte_carlo(cfg, 8, 100) != result


def test_monte_carlo_summary_statistics():
    cfg = constrained_config(productivity_source=GaussianInputModel(50.0, 25.0))
    result = run_monte_carlo(cfg, 30, 5)
    times = result.completion_times
    assert len(times) == 30
    assert result.std > 0
    assert result.min <= result.mean <= result.max
    assert result.min <= result.percentile(5) <= result.percentile(95) <= result.max
    assert result.mean == pytest.approx(float(np.mean(times)), rel=1e-15)


def test_zero_variance_monte_carlo_is_degenerate():
    result = run_monte_carlo(constrained_config(), 5, 1)
    assert result.std == 0.0
    assert result.min == result.max == result.mean


def test_replication_seed_is_stable_and_spread():
    def state(master, index):
        return tuple(replication_seed(master, index).generate_state(4).tolist())

    assert state(9, 0) == state(9, 0)
    assert len({state(9, i) for i in range(100)}) == 100
    assert state(9, 0) != state(10, 0)
    assert state(2**64 + 7, 2**40) != state(2**64 + 7, 2**40 + 1)


def test_first_draws_across_replications_look_independent():
    # one N(0, 1) draw from each of 4,000 replications: 4-sigma bands on
    # the mean, the variance and the lag-1 correlation of neighbours
    n, unit = 4000, GaussianInputModel(0.0, 1.0)
    z = np.array([sample(unit, replication_seed(3, i), 1)[0] for i in range(n)])
    assert abs(z.mean()) < 4 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 4 * math.sqrt(2 / n)
    assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < 4 / math.sqrt(n)


def test_clamping_counts_and_floors_draws():
    wild = GaussianInputModel(0.0, 1e6)
    cfg = SimConfig(
        total_quantity=100.0, truck_count=3, truck_capacity=10.0,
        load_time=0.1, haul_time=0.2, dump_time=0.1, return_time=0.1,
        productivity_source=wild, resample_mode=PER_TRUCKLOAD,
    )
    raised = SimConfig(
        total_quantity=100.0, truck_count=3, truck_capacity=10.0,
        load_time=0.1, haul_time=0.2, dump_time=0.1, return_time=0.1,
        productivity_source=wild, resample_mode=PER_TRUCKLOAD,
        clamp_floor=5.0,
    )
    assert cfg.truckloads == 10
    for config, floor in ((cfg, 1.0), (raised, 5.0)):
        completion_time, busy_fraction, clamp_count = run_replication(config, 5)
        rates = clamped_rates(config, 5, 10)
        below = sum(p < floor for p in drawn(config, 5, 10))
        # the floor binds on some draws and not on others
        assert clamp_count == below and 0 < below < 10
        assert min(rates) == floor
        # the paver works each load at its floored rate
        assert busy_fraction * completion_time == pytest.approx(
            math.fsum(10.0 / r for r in rates), rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", RESAMPLE_MODES)
def test_draws_of_zero_are_floored_before_any_division(mode):
    # every draw is 0.0: each load is paved at the floor, and no amount is
    # divided by zero on the way
    cfg = constrained_config(productivity_source=GaussianInputModel(0.0, 0.0),
                             resample_mode=mode, clamp_floor=2.0)
    completion_time, busy_fraction, clamp_count = run_replication(cfg, 1)
    assert clamp_count == (cfg.truckloads if mode == PER_TRUCKLOAD else 1)
    assert busy_fraction * completion_time == pytest.approx(50.0, rel=1e-12)


def test_per_replication_mode_reuses_one_draw():
    cfg = constrained_config(
        productivity_source=GaussianInputModel(50.0, 25.0))
    # one draw, so every load of a replication takes the same time
    completion_time, busy_fraction, _ = run_replication(cfg, 2)
    assert cfg.resample_mode == PER_REPLICATION
    busy_hours = busy_fraction * completion_time
    assert busy_hours == pytest.approx(
        100.0 / clamped_rates(cfg, 2, 1)[0], rel=1e-12)


# ---------------------------------------------------------------- config


def test_sim_config_properties():
    cfg = constrained_config(total_quantity=100.0, truck_capacity=30.0)
    assert cfg.truckloads == 4
    assert cfg.plan[0] == pytest.approx((0.9, 0.9, 1.9, 1.9))
    assert constrained_config(total_quantity=90.0, truck_capacity=30.0).truckloads == 3


@pytest.mark.parametrize("field,value,message", [
    ("total_quantity", 0.0, "total_quantity"),
    ("truck_capacity", -1.0, "truck_capacity"),
    ("load_time", math.inf, "load_time"),
    ("haul_time", 0.0, "haul_time"),
    ("clamp_floor", 0.0, "clamp_floor"),
    ("truck_count", 0, "truck_count"),
    ("resample_mode", "sometimes", "resample_mode"),
])
def test_sim_config_validation(field, value, message):
    with pytest.raises(DataError, match=message):
        constrained_config(**{field: value})



def test_sim_config_bounds_the_load_plan():
    at_limit = constrained_config(total_quantity=float(MAX_TRUCKLOADS),
                                  truck_capacity=1.0)
    assert at_limit.truckloads == MAX_TRUCKLOADS == 10 ** 6
    assert len(truckload_amounts(at_limit)) == MAX_TRUCKLOADS
    # 700000 / 0.7 is 1000000.0000000001: float noise plans no extra load
    noisy = constrained_config(total_quantity=700000.0, truck_capacity=0.7)
    assert math.ceil(700000.0 / 0.7) > MAX_TRUCKLOADS == noisy.truckloads


@pytest.mark.parametrize("q, c", [
    (MAX_TRUCKLOADS + 1.0, 1.0),
    (1e6 * 0.3 + 0.01, 0.3),
    (1e300, 1.0),
    (1.0, 1e-300),
    (1e300, 1e-300),
])
def test_sim_config_refuses_a_plan_above_the_limit(q, c):
    with pytest.raises(DataError, match="more than 1000000 truckloads"):
        constrained_config(total_quantity=q, truck_capacity=c)


def test_a_quantity_far_below_the_capacity_is_one_load():
    # Q / C underflows to 0.0, and the plan must still hold one load
    cfg = constrained_config(total_quantity=1e-300, truck_capacity=1e300)
    assert cfg.truckloads == 1
    assert truckload_amounts(cfg) == [1e-300]
    assert run_monte_carlo(cfg, 2, 1).truckloads == 1


@pytest.mark.parametrize("value", [2.5, True, "3", np.float64(2.0)])
def test_sim_config_rejects_non_integer_truck_count(value):
    with pytest.raises(DataError, match="truck_count must be an integer"):
        constrained_config(truck_count=value)


def test_sim_config_accepts_numpy_integer_truck_count():
    cfg = constrained_config(truck_count=np.int64(2))
    assert run_replication(cfg, 3) == run_replication(constrained_config(), 3)


@pytest.mark.parametrize("field", ["total_quantity", "load_time", "clamp_floor"])
def test_sim_config_rejects_bool_for_positive_fields(field):
    with pytest.raises(DataError, match=field):
        constrained_config(**{field: True})

def test_run_monte_carlo_rejects_zero_replications():
    with pytest.raises(DataError):
        run_monte_carlo(constrained_config(), 0, 1)


@pytest.mark.parametrize("q10, c10", [(100000, 1), (300000, 3), (3601, 3)])
def test_many_inexact_loads_conserve_the_total(q10, c10):
    # 10^5 loads of 0.1 sum to 10000.000000018847, which an absolute
    # tolerance of 1e-9 took for a conservation fault. Each plan is
    # truck-bound: two loads a wave, placed in 0.012 h of a 1 h cycle, so
    # the paver idles at every wave, down to 1,201 loads with a partial one.
    cfg = tenths_config(q10, c10, 2, CONSTRAINED_LEGS, 50.0)
    assert run_replication(cfg, 1)[0] == pytest.approx(
        completion_oracle(q10, c10, 2, CONSTRAINED_LEGS, 50.0), rel=1e-9)


def test_losing_a_tiny_partial_load_breaks_conservation(monkeypatch):
    # the last of 1001 loads is 1e-7 m^3, which a relative tolerance of
    # 1e-9 (1e-6 m^3 of this total) let go missing
    cfg = constrained_config(total_quantity=1000.0000001, truck_capacity=1.0)
    plan = truckload_amounts(cfg)
    assert len(plan) == 1001 and plan[-1] == pytest.approx(1e-7)
    monkeypatch.setattr(simulator, "truckload_amounts",
                        lambda cfg: plan[:-1] + [0.0])
    with pytest.raises(AssertionError, match="conservation violated"):
        run_replication(cfg, 1)


def test_a_run_plans_its_loads_once(monkeypatch):
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return truckload_amounts(cfg)

    monkeypatch.setattr(simulator, "truckload_amounts", counted)
    cfg = constrained_config(
        productivity_source=GaussianInputModel(50.0, 64.0),
        resample_mode=PER_TRUCKLOAD)
    run_monte_carlo(cfg, 50, 1)
    assert len(calls) == 1 and calls[0] is cfg


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_completion_times_whose_mean_overflows_are_a_numerical_error():
    cfg = constrained_config(load_time=1e308)
    with pytest.raises(NumericalError,
                       match="completion times overflow: mean inf, std nan"):
        run_monte_carlo(cfg, 2, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_durations_that_overflow_on_the_array_path_warn_nothing():
    # 120 loads and 10; then arrivals that overflow too, where an arrival
    # less a sum of durations is inf - inf, NaN, and completion still inf
    for q, legs in ((1.2e302, {}), (1e301, {}),
                    (1.2e302, {"load_time": 1e308})):
        cfg = constrained_config(
            total_quantity=q, truck_capacity=1e300, clamp_floor=1e-10,
            productivity_source=GaussianInputModel(1e-10, 0.0), **legs)
        with pytest.raises(NumericalError,
                           match="completion times overflow: mean inf, std nan"):
            run_monte_carlo(cfg, 2, 1)


# ------------------------------------------------------------ config file


def write_config(path, text):
    path.write_text(text)
    return path


GOOD_CONFIG = (
    '# an operation\n'
    '{"total_quantity": 120, "truck_count": 3, "truck_capacity": 12,\n'
    ' "load_time": 0.15, "haul_time": 0.4, "dump_time": 0.1,\n'
    ' "return_time": 0.25,\n'
    ' "productivity": {"mean": 55.0, "variance": 30.0}}\n'
)


def config_from(raw):
    """The SimConfig of a direct-pair config's object, as ``simulate``
    builds it."""
    model = check_record(GaussianInputModel, "productivity",
                         raw.pop("productivity"))
    return check_record(SimConfig, "config", raw, complete=False,
                        productivity_source=model)


def test_parse_sim_config_accepts_commented_json(tmp_path):
    raw = read_json(write_config(tmp_path / "op.cfg", GOOD_CONFIG))
    assert raw["total_quantity"] == 120
    assert raw["productivity"] == {"mean": 55.0, "variance": 30.0}
    cfg = config_from(raw)
    assert cfg.truck_count == 3
    assert cfg.productivity_source == GaussianInputModel(55.0, 30.0)
    assert cfg.resample_mode == "per_replication"


def test_parse_sim_config_forwards_optional_keys(tmp_path):
    text = GOOD_CONFIG.replace(
        ' "productivity"',
        ' "resample_mode": "per_truckload", "clamp_floor": 2.0, "productivity"')
    cfg = config_from(read_json(write_config(tmp_path / "op.cfg", text)))
    assert cfg.resample_mode == "per_truckload"
    assert cfg.clamp_floor == 2.0


# ------------------------------------------------------------------- csv


def test_result_csv_rows_and_summary_block():
    result = run_monte_carlo(constrained_config(), 3, 17)
    text = result.to_csv(header_comments=("operation demo",))
    lines = text.splitlines()
    assert lines[0] == "# operation demo"
    assert lines[1] == ("replication,completion_time,paver_busy_fraction,"
                        "truckloads_delivered,clamp_count")
    assert lines[2].startswith("0,")
    assert len(lines[2].split(",")) == 5
    summary = [l for l in lines if l.startswith("# ")]
    assert "# replications = 3" in summary
    assert "# master_seed = 17" in summary
    for key in ("mean", "std", "min", "max", "p5", "p95"):
        assert any(l.startswith(f"# {key} = ") for l in summary)


@settings(max_examples=40, deadline=None)
@given(reps=st.integers(1, 40), master=st.integers(0, 2 ** 64 - 1),
       variance=st.sampled_from([0.0, 25.0, 900.0, 1e6]),
       mode=st.sampled_from(["per_replication", PER_TRUCKLOAD]),
       q10=st.integers(1, 2000), c10=st.integers(1, 300))
def test_csv_summary_is_numpy_over_the_written_column(
        reps, master, variance, mode, q10, c10):
    cfg = constrained_config(
        total_quantity=q10 / 10, truck_capacity=c10 / 10, resample_mode=mode,
        productivity_source=GaussianInputModel(50.0, variance))
    lines = run_monte_carlo(cfg, reps, master).to_csv().splitlines()
    footer = dict(line[2:].split(" = ") for line in lines if line[0] == "#")
    times = np.array([float(line.split(",")[1]) for line in lines[1:]
                      if line[0] != "#"])
    assert len(times) == int(footer["replications"]) == reps
    assert int(footer["master_seed"]) == master
    expected = {"mean": np.mean(times), "std": np.std(times),
                "min": np.min(times), "max": np.max(times),
                "p5": np.percentile(times, 5), "p95": np.percentile(times, 95)}
    for key, value in expected.items():
        assert float(footer[key]).hex() == float(value).hex(), key


def test_result_equality_is_structural():
    a = run_monte_carlo(constrained_config(), 2, 4)
    b = SimResult(a.completion_times, a.busy_fractions, a.clamp_counts,
                  a.truckloads, 4)
    assert a == b
