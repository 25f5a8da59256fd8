import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pavesim.adapter import (
    ColumnStats,
    Dataset,
    NormalizationStats,
    dataset_with_stats,
    encode_and_normalize,
)
from pavesim.errors import DataError, NumericalError
from pavesim.inputmodel import (
    CoverageReport,
    GaussianInputModel,
    Z_VALUES,
    compare_pooled_vs_conditioned,
    confidence_interval,
    coverage,
    derive,
    sample,
)
from pavesim.network import NetworkConfig, NetworkParams, init_network
from pavesim.synthetic import generate_paving_dataset
from pavesim.tables import BOOLEAN, NUMERIC, PAVING_COLUMNS
from table_helpers import rows_of

EPS = np.finfo(float).eps


def scenario_stats(target_mean=80.0, target_std=10.0):
    features = tuple(
        ColumnStats(
            name=name,
            kind=BOOLEAN if name in ("Congestion", "Spreader") else NUMERIC,
            mean=0.0,
            std=1.0,
        )
        for name in PAVING_COLUMNS[1:]
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
        values = dict.fromkeys(PAVING_COLUMNS[1:], 0.0)
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


def pcg64_draws(seed, n, mean, variance):
    """``n`` variates ``mean + std * z`` as Python floats, with ``z`` read
    straight from numpy's ``Generator(PCG64(seed)).standard_normal(n)``,
    as the oracle for ``sample``'s bits."""
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
    std = math.sqrt(variance)
    return [mean + std * x for x in z.tolist()]


def assert_draws_contract(drawn, n):
    """``sample``'s return contract: one 1-D float64 array of ``n``."""
    assert type(drawn) is np.ndarray
    assert drawn.dtype == np.float64 and drawn.shape == (n,)


class TestSample:
    def test_deterministic_per_seed(self):
        model = GaussianInputModel(50.0, 25.0)
        assert sample(model, 5, 10).tolist() == sample(model, 5, 10).tolist()
        assert sample(model, 5, 10).tolist() != sample(model, 6, 10).tolist()
        assert len(sample(model, 5, 7)) == 7

    def test_zero_variance_collapses_to_the_mean(self):
        assert sample(GaussianInputModel(42.0, 0.0), 1, 5).tolist() == [42.0] * 5

    def test_rejects_empty_request(self):
        with pytest.raises(DataError):
            sample(GaussianInputModel(0.0, 1.0), 1, 0)

    @pytest.mark.parametrize("seed", [0, 32, 2**32, 2**64 + 7])
    @pytest.mark.parametrize("mean, variance", [(55.0, 30.0), (20, 900),
                                                (42.0, 0.0)])
    def test_draws_are_numpys_pcg64_normals(self, seed, mean, variance):
        expected = pcg64_draws(seed, 4097, mean, variance)
        model = GaussianInputModel(mean, variance)
        for n in [*range(1, 300), 1000, 4097]:
            drawn = sample(model, seed, n)
            assert_draws_contract(drawn, n)
            assert drawn.tolist() == expected[:n], n

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**70), n=st.integers(1, 600),
           mean=st.floats(-1e6, 1e6),
           variance=st.sampled_from([0.0, 1e-12, 1.0, 30.0, 1e8]))
    def test_any_seed_draws_numpys_pcg64_normals(self, seed, n, mean,
                                                 variance):
        drawn = sample(GaussianInputModel(mean, variance), seed, n)
        assert_draws_contract(drawn, n)
        assert drawn.tolist() == pcg64_draws(seed, n, mean, variance)

    def test_a_seed_sequence_keys_the_stream_as_it_is(self):
        # replication_seed hands sample a SeedSequence, hashed only once
        model = GaussianInputModel(20, 900)
        seq = np.random.SeedSequence((7, 3))
        assert sample(model, seq, 50).tolist() == pcg64_draws(seq, 50, 20, 900)
        assert sample(model, seq, 50).tolist() != \
            sample(model, np.random.SeedSequence((7, 4)), 50).tolist()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**70), n=st.integers(1, 600), data=st.data())
    def test_the_first_k_draws_do_not_depend_on_n(self, seed, n, data):
        # what keeps common random numbers across configs of other load
        # counts: a replication's k-th rate is the same however many it draws
        k = data.draw(st.integers(1, n))
        model = GaussianInputModel(55.0, 30.0)
        assert sample(model, seed, n)[:k].tolist() == \
            sample(model, seed, k).tolist()

    def test_large_sample_moments_and_interval_mass(self):
        model = GaussianInputModel(90.0, 25.0)
        draws = np.array(sample(model, 17, 10**5))
        # 4-sigma CLT band on the sample mean
        assert abs(draws.mean() - 90.0) < 4 * 5.0 / math.sqrt(10**5)
        lo, hi = confidence_interval(model.mean, model.std, 0.95)
        frac = float(np.mean((draws >= lo) & (draws <= hi)))
        assert 0.94 < frac < 0.96


class TestConfidenceInterval:
    def test_fixture_interval(self):
        lo, hi = confidence_interval(86.79, 5.0, 0.95)
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
            lo, hi = confidence_interval(model.mean, model.std, 0.95)
            half = Z_VALUES[0.95] * model.std
            slack = 4 * EPS * (abs(mean) + half)
            assert abs((mean - lo) - (hi - mean)) <= slack
            assert lo <= mean <= hi

    def test_width_grows_with_level(self):
        model = GaussianInputModel(10.0, 4.0)
        widths = {}
        for level, z in Z_VALUES.items():
            lo, hi = confidence_interval(model.mean, model.std, level)
            widths[level] = hi - lo
            assert widths[level] == pytest.approx(2 * z * 2.0, rel=1e-12)
        assert widths[0.90] < widths[0.95] < widths[0.99]

    def test_zero_variance_interval_is_a_point(self):
        assert confidence_interval(7.0, 0.0, 0.95) == (7.0, 7.0)

    def test_unsupported_level(self):
        with pytest.raises(DataError) as info:
            confidence_interval(0.0, 1.0, 0.5)
        assert str(info.value) == "level must be 0.9 or 0.95 or 0.99, got 0.5"


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
        assert report.covered.tolist() == [True, True, False]
        assert (report.lo[0], report.hi[0]) == (-1.96, 1.96)
        assert report.sigma.tolist() == [1.0] * 3

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
        with pytest.raises(DataError) as info:
            coverage(net, stats, ds, 0.8)
        assert str(info.value) == "level must be 0.9 or 0.95 or 0.99, got 0.8"

    def test_refuses_a_target_that_overflows_when_decoded(self):
        # a dataset file may hold any finite normalized target; decoding
        # 1e308 with std_y 10 overflowed with a numpy warning
        stats = NormalizationStats(
            features=(ColumnStats("X", NUMERIC, 0.0, 1.0),),
            target=ColumnStats("Y", NUMERIC, 0.0, 10.0))
        ds = Dataset(X=np.zeros((3, 1)), y=np.array([0.0, 1e308, -1e308]),
                     norm_stats=stats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^observed target in row 1 "
                               r"\(1e\+308 normalized\) overflows a float "
                               r"when decoded$"):
                coverage(constant_head_net(1, 0.0, 0.0), stats, ds, 0.95)

    def test_overflowing_variance_raises(self):
        ds, stats = unit_dataset([0.0])
        with pytest.raises(NumericalError, match="overflowed"):
            coverage(constant_head_net(1, 0.0, 800.0), stats, ds, 0.95)

    def test_a_target_std_whose_square_overflows_raises(self):
        # std_y**2 raised OverflowError past std_y = 1.3e154
        stats = NormalizationStats(
            features=(ColumnStats("X", NUMERIC, 0.0, 1.0),),
            target=ColumnStats("Y", NUMERIC, 0.0, 1e308))
        ds = Dataset(X=np.zeros((1, 1)), y=np.zeros(1), norm_stats=stats)
        with pytest.raises(NumericalError,
                           match=r"^predicted variance overflowed \(s=0\.0\)$"):
            coverage(constant_head_net(1, 0.0, 0.0), stats, ds, 0.95)

    @pytest.mark.parametrize("rows, error, message", [
        ([[0.0, 0.0], [0.0, 8e-298], [0.0, 1e10]], NumericalError,
         r"^predicted variance overflowed \(s=800\.0\d*\)$"),
        ([[0.0, 0.0], [0.0, 1e10], [0.0, 8e-298]], NumericalError,
         r"^network produced non-finite output \(mu=0\.0, s=inf\)$"),
        ([[0.0, 0.0], [1e8, 0.0], [0.0, 1e10]], DataError,
         r"^mean must be a finite number, got inf$"),
    ], ids=["variance", "head", "mean"])
    def test_refuses_the_first_bad_row(self, rows, error, message):
        # mu = 1e300 * a and s = 1e300 * b, with std_y 10: row 1 is the
        # first bad row, whatever fails in row 2
        stats = NormalizationStats(
            features=(ColumnStats("A", NUMERIC, 0.0, 1.0),
                      ColumnStats("B", NUMERIC, 0.0, 1.0)),
            target=ColumnStats("Y", NUMERIC, 0.0, 10.0))
        ds = Dataset(X=np.array(rows), y=np.zeros(3), norm_stats=stats)
        net = NetworkParams(weights=[np.diag([1e300, 1e300])],
                            biases=[np.zeros(2)])
        with pytest.raises(error, match=message):
            coverage(net, stats, ds, 0.95)

    def test_points_equal_derive_bit_for_bit(self):
        # Coverage runs the whole table as one batch and derive one row
        # at a time, so both the forward pass and the decode must not
        # depend on the batch. An untrained net spreads the log-variances
        # enough that a second rounding of sigma (sqrt(exp(s)) * std in
        # place of sqrt(exp(s) * std**2)), or np.exp in place of math.exp,
        # shows in the last bits of some rows.
        table = generate_paving_dataset(200, 11)
        stats = encode_and_normalize(table, "Productivity").norm_stats
        net = init_network(NetworkConfig(input_dim=9, hidden_widths=(8,),
                                         seed=4))
        models = [derive(net, dict(zip(table.column_names, row)), stats)
                  for row in rows_of(table)]
        for level in Z_VALUES:
            report = coverage(net, stats, dataset_with_stats(table, stats),
                              level)
            for i, model in enumerate(models):
                assert (report.mu[i], report.sigma[i]) == (model.mean,
                                                           model.std)
                assert (report.lo[i], report.hi[i]) == confidence_interval(
                    model.mean, model.std, level)

    def test_point_covered_is_inclusive(self):
        # an observation on either end of its interval is covered
        report = CoverageReport(
            observed=np.array([-1.0, 1.0]), mu=np.zeros(2), sigma=np.ones(2),
            lo=np.full(2, -1.0), hi=np.ones(2))
        assert report.covered.tolist() == [True, True]
        assert report.coverage_fraction == 1.0


def compare(samples):
    """compare_pooled_vs_conditioned on a mapping of label -> samples,
    the labels in mapping order."""
    conditions = [label for label, xs in samples.items() for _ in xs]
    durations = [x for xs in samples.values() for x in xs]
    return compare_pooled_vs_conditioned(list(samples), conditions, durations)


class TestPooledFit:
    # one condition: the pooled row is that sample's population fit

    def test_constant_samples(self):
        assert compare({"a": [1.0, 1.0, 1.0]}) == [
            ("pooled", 1.0, 1.0, 0.0, 1.0), ("a", 1.0, 1.0, 0.0, math.inf)]

    def test_two_point_population_variance(self):
        assert compare({"a": [0.0, 2.0]})[0] == ("pooled", 1.0, 1.0, 1.0, 1.0)

    def test_four_sample_fixture(self):
        _, _, mean, variance, _ = compare(
            {"a": [66.08, 86.79, 69.35, 93.69]})[0]
        assert mean == pytest.approx(78.9775, abs=1e-10)
        assert variance == pytest.approx(134.13176875, abs=1e-9)


class TestMixtureComparison:
    def test_two_equal_weight_components(self):
        rows = compare({"a": [8.0, 12.0], "b": [28.0, 32.0]})
        # within 4, between 0.5*100 + 0.5*100
        assert rows == [("pooled", 1.0, 20.0, 104.0, 1.0),
                        ("a", 0.5, 10.0, 4.0, 26.0),
                        ("b", 0.5, 30.0, 4.0, 26.0)]

    def test_identical_means_leave_only_within_variance(self):
        rows = compare({"a": [8.0, 12.0, 8.0, 12.0],
                        "b": [6.0, 10.0, 10.0, 14.0]})
        assert rows[0][3] == 6.0
        assert [r[4] for r in rows[1:]] == [1.5, 0.75]

    def test_conditioning_beats_pooling_when_means_spread(self):
        # equal condition variances and distinct means: the pooled model
        # is strictly wider than every conditioned one
        rows = compare({str(m): [m - 1.0, m + 1.0]
                        for m in (10.0, 14.0, 20.0, 30.0)})
        assert all(r[4] > 1.0 for r in rows[1:])

    def test_zero_variance_component_has_infinite_ratio(self):
        rows = compare({"a": [1.0, 1.0], "b": [1.0, 3.0]})
        assert rows[1] == ("a", 0.5, 1.0, 0.0, math.inf)
        assert rows[2][4] == rows[0][3] == 0.75

    def test_single_component_is_the_pooled_model(self):
        rows = compare({"all": [37.0, 43.0]})
        assert rows == [("pooled", 1.0, 40.0, 9.0, 1.0),
                        ("all", 1.0, 40.0, 9.0, 1.0)]

    def test_monte_carlo_agrees_with_total_variance_law(self):
        components = {
            "a": (0.5, GaussianInputModel(10.0, 4.0)),
            "b": (0.3, GaussianInputModel(20.0, 9.0)),
            "c": (0.2, GaussianInputModel(35.0, 1.0)),
        }
        # stratified draw with exact component proportions
        samples = {label: sample(model, 500 + i, int(round(weight * 10**5)))
                   for i, (label, (weight, model))
                   in enumerate(components.items())}
        rows = compare(samples)
        (_, _, mean, variance, _), *conditions = rows
        assert abs(mean - 18.0) / 18.0 < 0.02
        assert abs(variance - 95.9) / 95.9 < 0.05
        # pooling the condition moments gives the one-Gaussian fit
        pool = [x for xs in samples.values() for x in xs]
        assert mean == pytest.approx(np.mean(pool), rel=1e-12)
        assert variance == pytest.approx(np.var(pool), rel=1e-12)
        for (label, w, m, v, _), (weight, model) in zip(
                conditions, components.values()):
            assert w == weight
            assert abs(m - model.mean) < 0.05
            assert abs(v / model.variance - 1.0) < 0.05

    def test_csv_puts_the_pooled_row_first(self):
        # labels come in the given order, absent ones are left out
        rows = compare_pooled_vs_conditioned(
            ["windy", "calm", "stormy"], ["calm", "calm"], [3.0, 7.0])
        assert rows == [("pooled", 1.0, 5.0, 4.0, 1.0),
                        ("calm", 1.0, 5.0, 4.0, 1.0)]


def test_z_value_table_is_fixed():
    assert Z_VALUES == {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}
