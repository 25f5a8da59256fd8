"""Gaussian simulation input models in physical units.

This is where network outputs stop being normalized numbers and become
usable distributions. One decode maps the network's normalized heads to
a ``(mean, variance)`` pair in m^3/hr (or minutes, for the hauling
demo): :func:`derive` applies it to one scenario, read by the model's
own feature names, :func:`sample` draws variates from the result, and
:func:`coverage` applies it to every held-out row, so its sigma and
interval equal derive's bit for bit.
:func:`compare_pooled_vs_conditioned` fits the deliberately naive
baseline that ignores conditions, one Gaussian over a labelled sample,
and quantifies what that pooling costs in variance against a Gaussian
per condition.

Variates are never truncated at zero even though negative productivity
is unphysical; consumers clamp instead, so the model's moments stay
exactly what the network predicted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .adapter import Dataset, NormalizationStats
from .errors import DataError, NumericalError, check_number
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


def _decode(
    stats: NormalizationStats, mu_norm: float, s: float
) -> GaussianInputModel:
    """Map one normalized ``(mu, s)`` head pair to physical units:
    ``mean = mu_norm * std_y + mean_y``, ``variance = exp(s) * std_y**2``."""
    if not (math.isfinite(mu_norm) and math.isfinite(s)):
        raise NumericalError(
            f"network produced non-finite output (mu={mu_norm!r}, s={s!r})"
        )
    try:
        variance = math.exp(s) * stats.target.std**2
    except OverflowError:
        raise NumericalError(f"predicted variance overflowed (s={s!r})") from None
    if not math.isfinite(variance):
        raise NumericalError(f"predicted variance overflowed (s={s!r})")
    return GaussianInputModel(mean=stats.target.decode(mu_norm), variance=variance)


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
    mu_norm, s = forward_batch(params, x[None, :])
    return _decode(stats, float(mu_norm[0]), float(s[0]))


def _polar_normals(rng: random.Random, n: int) -> list[float]:
    """n standard normals via the polar (Marsaglia) construction."""
    out: list[float] = []
    while len(out) < n:
        u = 2.0 * rng.random() - 1.0
        v = 2.0 * rng.random() - 1.0
        w = u * u + v * v
        if w >= 1.0 or w == 0.0:
            continue
        factor = math.sqrt(-2.0 * math.log(w) / w)
        out.append(u * factor)
        out.append(v * factor)
    return out[:n]


def sample(model: GaussianInputModel, seed: int, n: int) -> list[float]:
    """Draw ``n`` i.i.d. variates; deterministic per seed, no truncation."""
    check_number("n", n, integer=True, low=1)
    rng = random.Random(seed)
    std = model.std
    return [model.mean + std * z for z in _polar_normals(rng, n)]


def confidence_interval(
    model: GaussianInputModel, level: float
) -> tuple[float, float]:
    """Central interval ``mean -+ z*sigma`` at one of the supported levels."""
    if level not in Z_VALUES:
        supported = ", ".join(str(k) for k in sorted(Z_VALUES))
        raise DataError(f"unsupported level {level!r}; pick one of {supported}")
    half_width = Z_VALUES[level] * model.std
    return model.mean - half_width, model.mean + half_width


@dataclass(frozen=True)
class CoveragePoint:
    observed: float
    mu: float
    sigma: float
    lo: float
    hi: float

    @property
    def covered(self) -> bool:
        return self.lo <= self.observed <= self.hi


@dataclass(frozen=True)
class CoverageReport:
    """Per-point interval hits plus the aggregate coverage fraction."""

    points: tuple[CoveragePoint, ...]
    level: float

    @property
    def coverage_fraction(self) -> float:
        return sum(p.covered for p in self.points) / len(self.points)

    def to_csv(self, header_comments: Sequence[str] = ()) -> str:
        """Plot-data CSV: one row per test point, covered flag as 0/1."""
        return csv_text(
            header_comments, ("observed", "mu", "sigma", "lo", "hi", "covered"),
            ((p.observed, p.mu, p.sigma, p.lo, p.hi, int(p.covered))
             for p in self.points))


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
    mu_norm, s = forward_batch(params, test.X)
    points = []
    for i in range(test.n):
        model = _decode(stats, float(mu_norm[i]), float(s[i]))
        lo, hi = confidence_interval(model, level)
        points.append(CoveragePoint(
            observed=stats.target.decode(float(test.y[i])),
            mu=model.mean,
            sigma=model.std,
            lo=lo,
            hi=hi,
        ))
    return CoverageReport(points=tuple(points), level=level)


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
