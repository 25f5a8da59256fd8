import math

import numpy as np
import pytest

from pavesim.adapter import (
    ColumnStats,
    Dataset,
    NormalizationStats,
    dataset_with_stats,
    encode_and_normalize,
)
from pavesim.errors import DataError, NumericalError
from pavesim.inputmodel import (
    CoveragePoint,
    GaussianInputModel,
    Z_VALUES,
    compare_pooled_vs_conditioned,
    confidence_interval,
    coverage,
    derive,
    pooled_fit,
    sample,
)
from pavesim.network import NetworkConfig, NetworkParams, init_network
from pavesim.synthetic import generate_paving_dataset
from pavesim.tables import BOOLEAN, FEATURE_COLUMNS, NUMERIC

EPS = np.finfo(float).eps


def scenario_stats(target_mean=80.0, target_std=10.0):
    features = tuple(
        ColumnStats(
            name=name,
            kind=BOOLEAN if name in ("Congestion", "Spreader") else NUMERIC,
            mean=0.0,
            std=1.0,
        )
        for name in FEATURE_COLUMNS
    )
    target = ColumnStats("Productivity", NUMERIC, target_mean, target_std)
    return NormalizationStats(features=features, target=target)


def constant_head_net(input_dim, mu_bias, s_bias):
    # single linear layer with zero weights: every input maps to the biases
    return NetworkParams(
        weights=[np.zeros((input_dim, 2))],
        biases=[np.array([mu_bias, s_bias])],
    )


def a_scenario():
    return dict(
        Slump=3.5, Congestion=0.0, Spreader=1.0, AirEntrainment=4.4,
        Temperature=18.0, Humidity=65.0, Slope=0.5, Curvature=0.0,
        PaverAge=1.5,
    )


class TestGaussianInputModel:
    def test_std_is_sqrt_of_variance(self):
        assert GaussianInputModel(5.0, 25.0).std == 5.0
        assert GaussianInputModel(5.0, 0.0).std == 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            GaussianInputModel(0.0, -1.0)
        with pytest.raises(DataError):
            GaussianInputModel(math.nan, 1.0)
        with pytest.raises(DataError):
            GaussianInputModel(0.0, math.inf)


class TestDerive:
    def test_constant_heads_map_back_to_physical_units(self):
        stats = scenario_stats()
        model = derive(constant_head_net(9, 0.5, 0.0), a_scenario(), stats)
        assert model.mean == 85.0
        assert model.variance == 100.0

    def test_log_variance_head_exponentiates(self):
        stats = scenario_stats()
        model = derive(
            constant_head_net(9, 0.0, math.log(4.0)), a_scenario(), stats)
        assert model.mean == 80.0
        assert model.variance == pytest.approx(400.0, rel=1e-12)

    def test_overflowing_variance_head_raises(self):
        stats = scenario_stats()
        with pytest.raises(NumericalError, match="overflowed"):
            derive(constant_head_net(9, 0.0, 800.0), a_scenario(), stats)

    def test_reports_missing_features(self):
        with pytest.raises(DataError, match="Slump"):
            derive(constant_head_net(9, 0.0, 0.0), {"Congestion": 0.0},
                   scenario_stats())

    def test_treats_none_as_missing(self):
        values = dict.fromkeys(FEATURE_COLUMNS, 0.0)
        values["Slope"] = values["PaverAge"] = None
        with pytest.raises(DataError,
                           match="^missing scenario attributes: Slope, PaverAge$"):
            derive(constant_head_net(9, 0.0, 0.0), values, scenario_stats())

    def test_reads_only_the_model_features(self):
        stats = NormalizationStats(
            features=(ColumnStats("Load", NUMERIC, 10.0, 2.0),),
            target=ColumnStats("Duration", NUMERIC, 50.0, 5.0))
        model = derive(constant_head_net(1, 0.5, 0.0),
                       {"Load": 12.0, "Humidity": 160.1, "Label": "x"}, stats)
        assert (model.mean, model.variance) == (52.5, 25.0)


class TestSample:
    def test_deterministic_per_seed(self):
        model = GaussianInputModel(50.0, 25.0)
        assert sample(model, 5, 10) == sample(model, 5, 10)
        assert sample(model, 5, 10) != sample(model, 6, 10)
        assert len(sample(model, 5, 7)) == 7

    def test_zero_variance_collapses_to_the_mean(self):
        assert sample(GaussianInputModel(42.0, 0.0), 1, 5) == [42.0] * 5

    def test_rejects_empty_request(self):
        with pytest.raises(DataError):
            sample(GaussianInputModel(0.0, 1.0), 1, 0)

    def test_large_sample_moments_and_interval_mass(self):
        model = GaussianInputModel(90.0, 25.0)
        draws = np.array(sample(model, 17, 10**5))
        # 4-sigma CLT band on the sample mean
        assert abs(draws.mean() - 90.0) < 4 * 5.0 / math.sqrt(10**5)
        lo, hi = confidence_interval(model, 0.95)
        frac = float(np.mean((draws >= lo) & (draws <= hi)))
        assert 0.94 < frac < 0.96


class TestConfidenceInterval:
    def test_fixture_interval(self):
        lo, hi = confidence_interval(GaussianInputModel(86.79, 25.0), 0.95)
        assert (lo, hi) == (76.99000000000001, 96.59)
        # the fixture happens to subtract back exactly
        assert (86.79 - lo) == (hi - 86.79)

    def test_symmetry_up_to_rounding(self):
        # mean +- half_width by construction; the two recovered half
        # widths can differ only by cancellation noise
        rng = np.random.default_rng(123)
        for _ in range(2000):
            mean = float(rng.normal(0, 1) * 10 ** rng.uniform(-3, 3))
            std = float(abs(rng.normal(0, 1)) * 10 ** rng.uniform(-3, 3))
            model = GaussianInputModel(mean, std * std)
            lo, hi = confidence_interval(model, 0.95)
            half = Z_VALUES[0.95] * model.std
            slack = 4 * EPS * (abs(mean) + half)
            assert abs((mean - lo) - (hi - mean)) <= slack
            assert lo <= mean <= hi

    def test_width_grows_with_level(self):
        model = GaussianInputModel(10.0, 4.0)
        widths = {}
        for level, z in Z_VALUES.items():
            lo, hi = confidence_interval(model, level)
            widths[level] = hi - lo
            assert widths[level] == pytest.approx(2 * z * 2.0, rel=1e-12)
        assert widths[0.90] < widths[0.95] < widths[0.99]

    def test_zero_variance_interval_is_a_point(self):
        assert confidence_interval(GaussianInputModel(7.0, 0.0), 0.95) == (7.0, 7.0)

    def test_unsupported_level(self):
        with pytest.raises(DataError, match="unsupported level"):
            confidence_interval(GaussianInputModel(0.0, 1.0), 0.5)


def unit_dataset(y_values):
    stats = NormalizationStats(
        features=(ColumnStats("X", NUMERIC, 0.0, 1.0),),
        target=ColumnStats("Y", NUMERIC, 0.0, 1.0),
    )
    n = len(y_values)
    return Dataset(X=np.zeros((n, 1)), y=np.array(y_values, dtype=float),
                   norm_stats=stats), stats


class TestCoverage:
    def test_three_point_hand_case(self):
        # mu = 0, sigma = 1 everywhere: the 95% interval is +-1.96, so
        # observations 0 and 1 land inside and 5 falls out
        ds, stats = unit_dataset([0.0, 1.0, 5.0])
        report = coverage(constant_head_net(1, 0.0, 0.0), stats, ds, 0.95)
        assert report.coverage_fraction == pytest.approx(2.0 / 3.0)
        assert [p.covered for p in report.points] == [True, True, False]
        point = report.points[0]
        assert (point.lo, point.hi) == (-1.96, 1.96)
        assert point.sigma == 1.0

    def test_everything_covered(self):
        ds, stats = unit_dataset([0.0, 0.5, -0.5])
        report = coverage(constant_head_net(1, 0.0, 0.0), stats, ds, 0.95)
        assert report.coverage_fraction == 1.0

    def test_fraction_rises_with_level(self):
        ds, stats = unit_dataset([0.0, 1.7, 2.2, 5.0])
        net = constant_head_net(1, 0.0, 0.0)
        fractions = [
            coverage(net, stats, ds, level).coverage_fraction
            for level in (0.90, 0.95, 0.99)
        ]
        assert fractions == [0.25, 0.5, 0.75]

    def test_csv_layout(self):
        ds, stats = unit_dataset([0.0])
        report = coverage(constant_head_net(1, 0.0, 0.0), stats, ds, 0.95)
        text = report.to_csv(header_comments=("note",))
        lines = text.splitlines()
        assert lines[0] == "# note"
        assert lines[1] == "observed,mu,sigma,lo,hi,covered"
        assert lines[2] == "0.0,0.0,1.0,-1.96,1.96,1"

    def test_input_validation(self):
        ds, stats = unit_dataset([0.0])
        net = constant_head_net(1, 0.0, 0.0)
        empty = Dataset(X=ds.X[:0], y=ds.y[:0], norm_stats=ds.norm_stats)
        with pytest.raises(DataError, match="empty"):
            coverage(net, stats, empty, 0.95)
        other = NormalizationStats(
            features=stats.features,
            target=ColumnStats("Y", NUMERIC, 1.0, 1.0),
        )
        with pytest.raises(DataError, match="different statistics"):
            coverage(net, other, ds, 0.95)
        with pytest.raises(DataError, match="unsupported level"):
            coverage(net, stats, ds, 0.8)

    def test_overflowing_variance_raises(self):
        ds, stats = unit_dataset([0.0])
        with pytest.raises(NumericalError, match="overflowed"):
            coverage(constant_head_net(1, 0.0, 800.0), stats, ds, 0.95)

    def test_points_equal_derive_bit_for_bit(self):
        # A one-row test set gives coverage and derive the same forward
        # pass on the same encoded row, so only their decodes could
        # differ. An untrained net spreads the log-variances enough that
        # a second rounding of sigma (sqrt(exp(s)) * std in place of
        # sqrt(exp(s) * std**2)) shows in the last bits of some rows.
        table = generate_paving_dataset(200, 11)
        stats = encode_and_normalize(table, "Productivity").norm_stats
        net = init_network(NetworkConfig(input_dim=9, hidden_widths=(8,),
                                         seed=4))
        for row in table.rows:
            mapping = dict(zip(table.column_names, row))
            model = derive(net, mapping, stats)
            one_row = dataset_with_stats(table.with_rows((row,)), stats,
                                         "Productivity")
            for level in Z_VALUES:
                (point,) = coverage(net, stats, one_row, level).points
                assert (point.mu, point.sigma) == (model.mean, model.std)
                assert (point.lo, point.hi) == confidence_interval(model, level)

    def test_point_covered_is_inclusive(self):
        point = CoveragePoint(observed=1.0, mu=0.0, sigma=1.0, lo=-1.0, hi=1.0)
        assert point.covered


class TestPooledFit:
    def test_constant_samples(self):
        fit = pooled_fit([1.0, 1.0, 1.0])
        assert (fit.mean, fit.variance) == (1.0, 0.0)

    def test_two_point_population_variance(self):
        fit = pooled_fit([0.0, 2.0])
        assert (fit.mean, fit.variance) == (1.0, 1.0)

    def test_four_sample_fixture(self):
        fit = pooled_fit([66.08, 86.79, 69.35, 93.69])
        assert fit.mean == pytest.approx(78.9775, abs=1e-10)
        assert fit.variance == pytest.approx(134.13176875, abs=1e-9)

    def test_validation(self):
        with pytest.raises(DataError, match="zero samples"):
            pooled_fit([])
        with pytest.raises(DataError, match="non-finite"):
            pooled_fit([1.0, math.inf])


class TestMixtureComparison:
    def test_two_equal_weight_components(self):
        result = compare_pooled_vs_conditioned([
            (0.5, GaussianInputModel(10.0, 4.0)),
            (0.5, GaussianInputModel(30.0, 4.0)),
        ])
        # within 4, between 0.5*100 + 0.5*100
        assert result.pooled.mean == 20.0
        assert result.pooled.variance == 104.0
        assert [r.variance_ratio for r in result.components] == [26.0, 26.0]
        assert [r.label for r in result.components] == [
            "component_0", "component_1"]

    def test_identical_means_leave_only_within_variance(self):
        result = compare_pooled_vs_conditioned([
            (0.5, GaussianInputModel(10.0, 4.0)),
            (0.5, GaussianInputModel(10.0, 8.0)),
        ])
        assert result.pooled.variance == 6.0
        assert result.components[0].variance_ratio == 1.5
        assert result.components[1].variance_ratio == 0.75

    def test_conditioning_beats_pooling_when_means_spread(self):
        # equal component variances and distinct means: the pooled model
        # is strictly wider than every conditioned one
        result = compare_pooled_vs_conditioned([
            (0.25, GaussianInputModel(m, 2.5)) for m in (10.0, 14.0, 20.0, 30.0)
        ])
        assert all(r.variance_ratio > 1.0 for r in result.components)

    def test_zero_variance_component_has_infinite_ratio(self):
        result = compare_pooled_vs_conditioned([
            (0.5, GaussianInputModel(1.0, 0.0)),
            (0.5, GaussianInputModel(2.0, 1.0)),
        ])
        assert result.components[0].variance_ratio == math.inf

    def test_single_component_is_the_pooled_model(self):
        model = GaussianInputModel(40.0, 9.0)
        result = compare_pooled_vs_conditioned([(1.0, model)], labels=["all"])
        assert result.pooled == model
        assert result.components[0].variance_ratio == 1.0
        assert result.components[0].label == "all"

    def test_monte_carlo_agrees_with_total_variance_law(self):
        components = [
            (0.5, GaussianInputModel(10.0, 4.0)),
            (0.3, GaussianInputModel(20.0, 9.0)),
            (0.2, GaussianInputModel(35.0, 1.0)),
        ]
        result = compare_pooled_vs_conditioned(components)
        assert result.pooled.mean == pytest.approx(18.0, rel=1e-12)
        assert result.pooled.variance == pytest.approx(95.9, rel=1e-12)
        # stratified draw with exact component proportions
        pool = []
        for i, (weight, model) in enumerate(components):
            pool += sample(model, 500 + i, int(round(weight * 10**5)))
        fit = pooled_fit(pool)
        assert abs(fit.mean - 18.0) / 18.0 < 0.02
        assert abs(fit.variance - 95.9) / 95.9 < 0.05

    def test_validation(self):
        good = GaussianInputModel(0.0, 1.0)
        with pytest.raises(DataError, match="at least one"):
            compare_pooled_vs_conditioned([])
        with pytest.raises(DataError, match="positive"):
            compare_pooled_vs_conditioned([(0.0, good), (1.0, good)])
        with pytest.raises(DataError, match="sum to 1"):
            compare_pooled_vs_conditioned([(0.6, good), (0.6, good)])
        with pytest.raises(DataError, match="labels for"):
            compare_pooled_vs_conditioned([(1.0, good)], labels=["a", "b"])

    def test_csv_puts_the_pooled_row_first(self):
        result = compare_pooled_vs_conditioned(
            [(1.0, GaussianInputModel(5.0, 4.0))], labels=["calm"])
        lines = result.to_csv(header_comments=("x",)).splitlines()
        assert lines[0] == "# x"
        assert lines[1] == "label,weight,mean,variance,pooled_variance_ratio"
        assert lines[2] == "pooled,1.0,5.0,4.0,1.0"
        assert lines[3] == "calm,1.0,5.0,4.0,1.0"


def test_z_value_table_is_fixed():
    assert Z_VALUES == {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}
