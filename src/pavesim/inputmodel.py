"""Gaussian simulation input models in physical units.

This is where network outputs stop being normalized numbers and become
usable distributions. One forward pass and one decode map feature rows
to ``(mean, variance)`` columns in m^3/hr (or minutes, for the hauling
demo): :func:`derive` applies them to one scenario, read by the model's
own feature names, :func:`sample` draws variates from the result, and
:func:`coverage` to every held-out row, so for the same feature row its
mu, sigma and interval equal derive's bit for bit.
:func:`compare_pooled_vs_conditioned` fits the deliberately naive
baseline that ignores conditions, one Gaussian over a labelled sample,
and quantifies what that pooling costs in variance against a Gaussian
per condition.

Variates come from numpy's own PCG64 generator, one stream per seed, so
a caller that keys each replication by its own ``SeedSequence`` gets
common random numbers across configs. They are never truncated at zero
even though negative productivity is unphysical; consumers clamp
instead, so the model's moments stay exactly what the network predicted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .adapter import Dataset, NormalizationStats
from .errors import DataError, NumericalError, check_choice, check_number
from .network import NetworkParams, forward_batch
from .tables import check_value, csv_text

#: Central-interval z-values. A fixed table, not a quantile routine: only
#: these three levels are supported.
Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class GaussianInputModel:
    """A Gaussian in physical units, ready to feed a simulator."""

    mean: float
    variance: float

    def __post_init__(self):
        check_number("mean", self.mean)
        check_number("variance", self.variance, low=0)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def _exp(s: float) -> float:
    """``math.exp``, but ``inf`` past a float's range, where it raises."""
    try:
        return math.exp(s)
    except OverflowError:
        return math.inf


def _decode(stats: NormalizationStats, mu_norm: np.ndarray, s: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Map normalized head columns to physical ones: ``mean = mu_norm *
    std_y + mean_y``, ``variance = exp(s) * std_y**2`` by ``math.exp`` per
    element (numpy's ``exp`` can differ in the last bit). The first row
    with a non-finite head, variance or mean is refused."""
    try:
        var_y = stats.target.std**2
    except OverflowError:  # a model file may hold any finite std_y
        var_y = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        mean = stats.target.decode(mu_norm)
        variance = np.array([_exp(v) for v in s.tolist()]) * var_y
    bad = ~(np.isfinite(s) & np.isfinite(mean) & np.isfinite(variance))
    if bad.any():
        i = int(bad.argmax())
        mu_i, s_i = float(mu_norm[i]), float(s[i])
        if not (math.isfinite(mu_i) and math.isfinite(s_i)):
            raise NumericalError(
                f"network produced non-finite output (mu={mu_i!r}, s={s_i!r})")
        if not math.isfinite(variance[i]):
            raise NumericalError(f"predicted variance overflowed (s={s_i!r})")
        GaussianInputModel(float(mean[i]), float(variance[i]))  # refuses mean
    return mean, variance


def derive(
    params: NetworkParams,
    values: Mapping[str, object],
    stats: NormalizationStats,
) -> GaussianInputModel:
    """Predict the productivity distribution for one operating condition.

    Reads the model's own features from `values`, a name -> value
    mapping (other names are ignored): a missing or ``None`` value is
    refused, and each one is checked by :func:`check_value`. Encodes
    them with the training normalization, runs the network, and maps the
    normalized heads back to physical units.
    """
    missing = [c.name for c in stats.features if values.get(c.name) is None]
    if missing:
        raise DataError(f"missing scenario attributes: {', '.join(missing)}")
    x = stats.encode_features(
        {c.name: check_value(c.name, c.kind, values[c.name])
         for c in stats.features})
    (mean,), (variance,) = _decode(stats, *forward_batch(params, x[None, :]))
    return GaussianInputModel(mean=float(mean), variance=float(variance))


def sample(model: GaussianInputModel, seed: int | np.random.SeedSequence,
           n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. variates ``mean + std * z``, no truncation, as one
    1-D float64 array; ``z`` is ``standard_normal(n)`` of numpy's
    ``Generator(PCG64(seed))``, where ``seed`` is an int or a
    ``SeedSequence``. So the draws are deterministic per seed, and the
    first ``k`` of ``n`` are the draws for ``n = k``. ``float()`` rounds an
    int mean as Python's int + float does."""
    check_number("n", n, integer=True, low=1)
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
    return float(model.mean) + model.std * z


def confidence_interval(mean, std, level: float):
    """``mean -+ z*std``, scalars or columns, at a level of :data:`Z_VALUES`."""
    half_width = Z_VALUES[check_choice("level", level, tuple(Z_VALUES))] * std
    return mean - half_width, mean + half_width


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """Per-row columns of a held-out set, in physical units: the observed
    target, and the predicted mean, sigma and central interval."""

    observed: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def covered(self) -> np.ndarray:
        return (self.lo <= self.observed) & (self.observed <= self.hi)

    @property
    def coverage_fraction(self) -> float:
        return np.count_nonzero(self.covered) / self.observed.size

    def to_csv(self, header_comments: Sequence[str] = ()) -> str:
        """Plot-data CSV: one row per test point, covered flag as 0/1."""
        columns = (self.observed, self.mu, self.sigma, self.lo, self.hi,
                   self.covered.astype(int))
        return csv_text(header_comments, ("observed", "mu", "sigma", "lo",
                        "hi", "covered"), zip(*(c.tolist() for c in columns)))


def coverage(
    params: NetworkParams,
    stats: NormalizationStats,
    test: Dataset,
    level: float,
) -> CoverageReport:
    """Interval coverage of the observed targets on a held-out dataset.

    ``test`` must be normalized under the same ``stats`` (its own stats
    are checked against the argument); predictions and observations are
    compared in physical units.
    """
    if test.norm_stats != stats:
        raise DataError(
            "test dataset was normalized under different statistics than "
            "the model; evaluate on the dataset the model was trained from"
        )
    if test.n == 0:
        raise DataError("test dataset is empty")
    with np.errstate(over="ignore"):
        observed = stats.target.decode(test.y)
    finite = np.isfinite(observed)
    if not finite.all():
        i = int(finite.argmin())
        raise DataError(f"observed target in row {i} ({float(test.y[i])!r} "
                        "normalized) overflows a float when decoded")
    mean, variance = _decode(stats, *forward_batch(params, test.X))
    sigma = np.sqrt(variance)
    return CoverageReport(observed, mean, sigma,
                          *confidence_interval(mean, sigma, level))


def compare_pooled_vs_conditioned(
    labels: Sequence[str], conditions: Sequence[str],
    durations: Sequence[float],
) -> list[tuple[str, float, float, float, float]]:
    """``mixture-demo``'s CSV rows ``(label, weight, mean, variance,
    pooled_variance_ratio)``: the pooled Gaussian, then each of ``labels``
    present in ``conditions``. A condition's weight is its sample share and
    its moments are population (divide-by-n) ones. The law of total
    variance pools them: weighted mean, and weighted within-condition
    variance plus weighted squared spread of the means. The ratio is
    ``inf`` for a condition of zero variance.
    """
    conditions = np.asarray(conditions)
    durations = np.asarray(durations, dtype=float)
    # Scalar Python sums and pow keep mix.csv's bits; numpy's array sum
    # and ``**2`` (a multiply) can differ in the last bit.
    parts = []
    for label in labels:
        x = durations[conditions == label]
        if x.size:
            parts.append((label, x.size / durations.size,
                          float(np.mean(x)), float(np.var(x))))
    mean = sum(w * m for _, w, m, _ in parts)
    variance = (sum(w * v for _, w, _, v in parts)
                + sum(w * (m - mean) ** 2 for _, w, m, _ in parts))
    return [("pooled", 1.0, mean, variance, 1.0)] + [
        (label, w, m, v, variance / v if v > 0 else math.inf)
        for label, w, m, v in parts]
