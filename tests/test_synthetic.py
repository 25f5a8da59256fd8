import itertools

import numpy as np
import pytest

from pavesim.errors import DataError
from pavesim.inputmodel import (
    GaussianInputModel,
    compare_pooled_vs_conditioned,
    pooled_fit,
)
from pavesim.synthetic import (
    DEFAULT_WEATHER_MIXTURE,
    DEMO_SCENARIOS,
    MixtureSpec,
    TRUTH_COLUMNS,
    WeatherComponent,
    generate_paving_dataset,
    generate_weather_mixture,
    sample_features,
    true_moments,
)
from pavesim.tables import (
    CATEGORICAL,
    FEATURE_COLUMNS,
    NUMERIC,
    PAVING_COLUMNS,
    check_value,
    kind_of,
    load_csv,
    table_to_csv,
)


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
        mu, sigma = true_moments(dict(zip(FEATURE_COLUMNS, combo)))
        assert 30.0 <= mu <= 110.0
        assert 1.0 <= sigma <= 9.0


def test_sampled_features_stay_in_band():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        mu, sigma = true_moments(sample_features(rng))
        assert 30.0 <= mu <= 110.0
        assert 1.0 <= sigma <= 9.0


def test_sample_features_are_named_by_their_columns():
    features = sample_features(np.random.default_rng(0))
    assert tuple(features) == FEATURE_COLUMNS
    assert all(tuple(f) == FEATURE_COLUMNS for f in DEMO_SCENARIOS.values())


def test_every_sampled_value_passes_check_value():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        for name, value in sample_features(rng).items():
            assert check_value(name, kind_of(name), value) == value


def test_sampled_paver_age_lands_on_half_years():
    rng = np.random.default_rng(1)
    ages = {sample_features(rng)["PaverAge"] for _ in range(500)}
    assert all(a * 2 == int(a * 2) for a in ages)
    assert len(ages) > 3


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
    assert [r[:10] for r in with_truth.rows] == list(table.rows)


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
    assert report.is_empty()


def test_generated_table_round_trips_through_csv(tmp_path):
    table = generate_paving_dataset(25, 42, include_truth=True)
    path = tmp_path / "synth.csv"
    path.write_text(table_to_csv(table))
    assert load_csv(path) == table


# -------------------------------------------------------------- mixture


def pooled_model(spec):
    """The pooled Gaussian of a spec's components, as mixture-demo pools."""
    components = [(c.weight, GaussianInputModel(c.mean, c.std**2))
                  for c in spec.components]
    return compare_pooled_vs_conditioned(components).pooled


def test_pooled_model_by_total_variance():
    pooled = pooled_model(DEFAULT_WEATHER_MIXTURE)
    # within = 4, between = (6^2 + 0 + 6^2)/3 = 24
    assert pooled.mean == pytest.approx(24.0, rel=1e-12)
    assert pooled.variance == pytest.approx(28.0, rel=1e-12)


def test_single_component_mixture_is_just_that_gaussian():
    spec = MixtureSpec((WeatherComponent("only", 1.0, 40.0, 3.0),))
    assert pooled_model(spec) == GaussianInputModel(40.0, 9.0)
    table = generate_weather_mixture(100, 2, spec)
    assert set(table.column_values("Condition")) == {"only"}


def test_mixture_validation():
    with pytest.raises(DataError, match="sum to 1"):
        MixtureSpec((
            WeatherComponent("a", 0.5, 1.0, 1.0),
            WeatherComponent("b", 0.4, 2.0, 1.0),
        ))
    with pytest.raises(DataError, match="duplicate"):
        MixtureSpec((
            WeatherComponent("a", 0.5, 1.0, 1.0),
            WeatherComponent("a", 0.5, 2.0, 1.0),
        ))
    with pytest.raises(DataError, match="at least one"):
        MixtureSpec(())
    with pytest.raises(DataError):
        WeatherComponent("a", 0.0, 1.0, 1.0)
    with pytest.raises(DataError):
        WeatherComponent("a", 1.0, 1.0, 0.0)
    with pytest.raises(DataError):
        WeatherComponent("", 1.0, 1.0, 1.0)


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
    pooled = pooled_fit(durations)
    assert abs(pooled.variance - 28.0) / 28.0 < 0.05
    for condition in ("rainy", "windy", "sunny"):
        fit = pooled_fit(
            [d for d, l in zip(durations, labels) if l == condition])
        assert 1.9 < fit.std < 2.1
        assert fit.variance < pooled.variance


def test_custom_mixture_weights_drive_label_frequencies():
    spec = MixtureSpec((
        WeatherComponent("common", 0.9, 10.0, 1.0),
        WeatherComponent("rare", 0.1, 50.0, 1.0),
    ))
    table = generate_weather_mixture(5000, 8, spec)
    labels = table.column_values("Condition")
    frac = labels.count("common") / len(labels)
    assert 0.87 < frac < 0.93


def test_truth_free_table_joins_cleanly_with_itself():
    # regression guard: the truth columns must never leak into a table
    # generated without them
    table = generate_paving_dataset(5, 14)
    assert not any(c in table.column_names for c in TRUTH_COLUMNS)
