import itertools

import numpy as np
import pytest

from pavesim.errors import DataError
from pavesim.inputmodel import compare_pooled_vs_conditioned
from pavesim.synthetic import (
    DEMO_SCENARIOS,
    FEATURE_LAW,
    WEATHER_MIXTURE,
    generate_paving_dataset,
    generate_weather_mixture,
    true_moments,
)
from pavesim.tables import (
    CATEGORICAL,
    NUMERIC,
    PAVING_COLUMNS,
    TRUTH_COLUMNS,
    check_value,
    kind_of,
    load_csv,
    table_to_csv,
)
from table_helpers import rows_of


def test_true_moments_hand_values():
    # worst: 90 - 22.5 - 8 + 2.5*0.5 - 0.045*13.5^2 - 0.06*14.6 - 0.8
    mu, sigma = true_moments(DEMO_SCENARIOS["worst"])
    assert mu == pytest.approx(50.87275, abs=1e-9)
    assert sigma == pytest.approx(8.0, rel=1e-12)
    mu, sigma = true_moments(DEMO_SCENARIOS["medium"])
    assert mu == pytest.approx(64.3514, abs=1e-9)
    assert sigma == pytest.approx(6.25, rel=1e-12)
    mu, sigma = true_moments(DEMO_SCENARIOS["best"])
    assert mu == pytest.approx(85.68175, abs=1e-9)
    assert sigma == pytest.approx(1.5, rel=1e-12)


def test_demo_scenarios_are_ordered():
    assert set(DEMO_SCENARIOS) == {"worst", "medium", "best"}
    mu = {k: true_moments(f)[0] for k, f in DEMO_SCENARIOS.items()}
    sigma = {k: true_moments(f)[1] for k, f in DEMO_SCENARIOS.items()}
    assert mu["best"] > mu["medium"] > mu["worst"]
    assert sigma["worst"] > sigma["medium"] > sigma["best"]


def test_true_moments_stay_in_band_on_feature_grid():
    # Every mu* term depends on a single feature and is monotone between
    # the candidate points below (temperature, slope, and curvature get
    # their interior optimum as a candidate), so grid extremes bound the
    # whole sampled box.
    grid = itertools.product(
        (2.5, 5.0),            # slump
        (0.0, 1.0),            # congestion
        (0.0, 1.0),            # spreader
        (3.8, 5.0),            # air entrainment
        (2.0, 20.0, 32.0),     # temperature
        (50.0, 95.0),          # humidity
        (-4.0, 0.0, 4.0),      # slope
        (-0.002, 0.0, 0.002),  # curvature
        (0.0, 5.0),            # paver age
    )
    for combo in grid:
        mu, sigma = true_moments(dict(zip(PAVING_COLUMNS[1:], combo)))
        assert 30.0 <= mu <= 110.0
        assert 1.5 <= sigma <= 8.0


def sampled_features(n_rows, seed):
    """The feature columns of a generated table, keyed by column name."""
    table = generate_paving_dataset(n_rows, seed)
    return {name: table.column_values(name) for name in PAVING_COLUMNS[1:]}


def test_sampled_features_stay_in_band():
    f = {k: np.array(v) for k, v in sampled_features(2000, 0).items()}
    mu, sigma = true_moments(f)
    assert mu.shape == sigma.shape == (2000,)
    assert np.all((30.0 <= mu) & (mu <= 110.0))
    assert np.all((1.5 <= sigma) & (sigma <= 8.0))


def test_sample_features_are_named_by_their_columns():
    assert tuple(FEATURE_LAW) == PAVING_COLUMNS[1:]
    assert all(tuple(f) == PAVING_COLUMNS[1:] for f in DEMO_SCENARIOS.values())


def test_every_sampled_value_passes_check_value():
    for name, column in sampled_features(2000, 2).items():
        for value in column:
            assert check_value(name, kind_of(name), value) == value


def test_sampled_paver_age_lands_on_half_years():
    ages = set(sampled_features(2000, 1)["PaverAge"])
    assert all(a * 2 == int(a * 2) for a in ages)
    assert len(ages) > 3


def loop_oracle(n_rows, seed, include_truth):
    """The rows of the per-row sampling loop, written out: ten scalar
    generator calls and Python arithmetic per row."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        slump = float(rng.uniform(2.5, 5.0))
        congestion = float(rng.random() < 0.5)
        spreader = float(rng.random() < 0.3)
        air = float(rng.uniform(3.8, 5.0))
        temperature = float(rng.uniform(2.0, 32.0))
        humidity = float(rng.uniform(50.0, 95.0))
        slope = float(rng.uniform(-4.0, 4.0))
        curvature = float(rng.uniform(-0.002, 0.002))
        age = round(rng.uniform(0.0, 5.0) * 2.0) / 2.0
        mu = (
            90.0 - 4.5 * age - 8.0 * congestion + 7.0 * spreader
            + 2.5 * (slump - 4.0) - 0.045 * (temperature - 20.0) ** 2
            - 0.06 * (humidity - 70.0) - 1.5 * abs(slope)
            - 800.0 * abs(curvature)
        )
        sigma = max(1.0, 2.5 + 0.7 * age + 2.0 * congestion - 1.0 * spreader)
        row = (float(rng.normal(mu, sigma)), slump, congestion, spreader,
               air, temperature, humidity, slope, curvature, age)
        rows.append(row + ((mu, sigma) if include_truth else ()))
    return rows


@pytest.mark.parametrize("include_truth", [False, True])
@pytest.mark.parametrize("n_rows, seed", [(1, 0), (7, 3), (200, 5), (10000, 12345)])
def test_generate_matches_the_per_row_loop(n_rows, seed, include_truth):
    # (10000, 12345) holds a row whose Productivity differs in the last
    # bit if the temperature term is squared by numpy's ** rather than pow.
    rows = rows_of(generate_paving_dataset(n_rows, seed, include_truth))
    assert list(rows) == loop_oracle(n_rows, seed, include_truth)
    assert all(type(cell) is float for row in rows for cell in row)


def test_generate_is_deterministic():
    a = generate_paving_dataset(50, 123)
    b = generate_paving_dataset(50, 123)
    assert a == b
    assert a != generate_paving_dataset(50, 124)


def test_generate_schema():
    table = generate_paving_dataset(10, 0)
    assert table.column_names == PAVING_COLUMNS
    assert table.num_rows == 10
    with_truth = generate_paving_dataset(10, 0, include_truth=True)
    assert with_truth.column_names == PAVING_COLUMNS + TRUTH_COLUMNS
    # same seed, so the visible part matches the plain table
    assert [r[:10] for r in rows_of(with_truth)] == list(rows_of(table))


def test_generate_rejects_empty_request():
    with pytest.raises(DataError):
        generate_paving_dataset(0, 1)
    with pytest.raises(DataError):
        generate_weather_mixture(0, 1)


def test_residuals_match_the_declared_law():
    table = generate_paving_dataset(4000, 11, include_truth=True)
    prod = np.array(table.column_values("Productivity"), dtype=float)
    mu = np.array(table.column_values("MuStar"), dtype=float)
    sigma = np.array(table.column_values("SigmaStar"), dtype=float)
    z = (prod - mu) / sigma
    assert abs(float(np.mean(prod - mu))) < 0.3
    assert abs(float(z.mean())) < 0.05
    assert 0.97 < float(z.std()) < 1.03


def test_generated_data_needs_no_cleaning():
    from pavesim.adapter import clean

    _, report = clean(generate_paving_dataset(50, 3))
    assert report.summary() == "nothing to do"


def test_generated_table_round_trips_through_csv(tmp_path):
    table = generate_paving_dataset(25, 42, include_truth=True)
    path = tmp_path / "synth.csv"
    path.write_text(table_to_csv(table))
    assert load_csv(path) == table


# -------------------------------------------------------------- mixture


def pooled_row(spec):
    """mixture-demo's pooled row for an equal-weight spec, from a sample
    that holds each condition's moments exactly: mean - std, mean + std."""
    assert len({weight for _, weight, _, _ in spec}) == 1
    labels = [label for label, _, _, _ in spec]
    durations = [mean + sign * std for _, _, mean, std in spec
                 for sign in (-1.0, 1.0)]
    return compare_pooled_vs_conditioned(
        labels, [label for label in labels for _ in (0, 1)], durations)[0]


def test_pooled_model_by_total_variance():
    _, _, mean, variance, _ = pooled_row(WEATHER_MIXTURE)
    # within = 4, between = (6^2 + 0 + 6^2)/3 = 24
    assert mean == pytest.approx(24.0, rel=1e-12)
    assert variance == pytest.approx(28.0, rel=1e-12)


def test_single_component_mixture_is_just_that_gaussian():
    spec = (("only", 1.0, 40.0, 3.0),)
    assert pooled_row(spec) == ("pooled", 1.0, 40.0, 9.0, 1.0)
    table = generate_weather_mixture(100, 2, spec)
    assert set(table.column_values("Condition")) == {"only"}


#: The default mixture written out, then a 0.9/0.1 mixture, a single
#: condition, and three conditions of unequal weight.
MIXTURE_SPECS = {
    "default": (("rainy", 1.0 / 3.0, 30.0, 2.0),
                ("windy", 1.0 / 3.0, 24.0, 2.0),
                ("sunny", 1.0 / 3.0, 18.0, 2.0)),
    "rare": (("common", 0.9, 10.0, 1.0), ("rare", 0.1, 50.0, 1.0)),
    "single": (("only", 1.0, 40.0, 3.0),),
    "unequal": (("a", 0.5, 10.0, 2.0), ("b", 0.3, 20.0, 3.0),
                ("c", 0.2, 35.0, 1.0)),
}


def mixture_oracle(n_rows, seed, spec):
    """The rows of the per-row mixture loop, written out: a weighted
    ``rng.choice`` of the condition, then ``rng.normal`` of its law."""
    rng = np.random.default_rng(seed)
    weights = [weight for _, weight, _, _ in spec]
    rows = []
    for _ in range(n_rows):
        label, _, mean, std = spec[rng.choice(len(spec), p=weights)]
        rows.append((label, float(rng.normal(mean, std))))
    return rows


@pytest.mark.parametrize("n_rows", [1, 7, 2000])
@pytest.mark.parametrize("name", list(MIXTURE_SPECS))
def test_weather_mixture_matches_the_per_row_loop(name, n_rows):
    spec = MIXTURE_SPECS[name]
    for seed in (0, 5, 2**40 + 5):
        table = (generate_weather_mixture(n_rows, seed) if name == "default"
                 else generate_weather_mixture(n_rows, seed, spec))
        assert list(rows_of(table)) == mixture_oracle(n_rows, seed, spec)
        assert all(type(label) is str and type(duration) is float
                   for label, duration in rows_of(table))


def test_weather_table_shape_and_determinism():
    table = generate_weather_mixture(200, 6)
    assert table.column_names == ("Condition", "Duration")
    assert table.column_kinds == (CATEGORICAL, NUMERIC)
    assert set(table.column_values("Condition")) <= {"rainy", "windy", "sunny"}
    assert table == generate_weather_mixture(200, 6)
    assert table != generate_weather_mixture(200, 7)


def test_weather_sample_variances_split_as_designed():
    table = generate_weather_mixture(30000, 7)
    durations = np.array(table.column_values("Duration"), dtype=float)
    labels = table.column_values("Condition")
    pooled_variance = np.var(durations)
    assert abs(pooled_variance - 28.0) / 28.0 < 0.05
    for condition in ("rainy", "windy", "sunny"):
        variance = np.var(
            [d for d, l in zip(durations, labels) if l == condition])
        assert 1.9 < np.sqrt(variance) < 2.1
        assert variance < pooled_variance


def test_custom_mixture_weights_drive_label_frequencies():
    spec = (("common", 0.9, 10.0, 1.0), ("rare", 0.1, 50.0, 1.0))
    table = generate_weather_mixture(5000, 8, spec)
    labels = table.column_values("Condition")
    frac = labels.count("common") / len(labels)
    assert 0.87 < frac < 0.93


def test_truth_free_table_joins_cleanly_with_itself():
    # regression guard: the truth columns must never leak into a table
    # generated without them
    table = generate_paving_dataset(5, 14)
    assert not any(c in table.column_names for c in TRUTH_COLUMNS)
