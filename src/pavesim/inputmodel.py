"""Gaussian simulation input models in physical units.

This is where network outputs stop being normalized numbers and become
usable distributions. One decode maps the network's normalized heads to
a ``(mean, variance)`` pair in m^3/hr (or minutes, for the hauling
demo): :func:`derive` applies it to one scenario, read by the model's
own feature names, :func:`sample` draws variates from the result, and
:func:`coverage` applies it to every held-out row, so its sigma and
interval equal derive's bit for bit.
:func:`pooled_fit` is the deliberately naive baseline that ignores
conditions and fits one Gaussian to everything;
:func:`compare_pooled_vs_conditioned` quantifies what that pooling costs
in variance.

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


def pooled_fit(samples: Sequence[float]) -> GaussianInputModel:
    """One Gaussian over all samples, conditions ignored.

    Population (divide-by-n) moments, matching the normalization
    convention elsewhere so tests can be exact.
    """
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise DataError("cannot fit a distribution to zero samples")
    if not np.isfinite(values).all():
        raise DataError("samples contain non-finite values")
    return GaussianInputModel(
        mean=float(values.mean()), variance=float(values.var())
    )


@dataclass(frozen=True)
class MixtureComponentRow:
    label: str
    weight: float
    model: GaussianInputModel
    #: pooled variance divided by this component's variance
    variance_ratio: float


@dataclass(frozen=True)
class MixtureComparison:
    """Pooled Gaussian vs the per-condition Gaussians it smears together."""

    pooled: GaussianInputModel
    components: tuple[MixtureComponentRow, ...]

    def to_csv(self, header_comments: Sequence[str] = ()) -> str:
        rows = [("pooled", 1.0, self.pooled.mean, self.pooled.variance, 1.0)]
        rows += [(r.label, r.weight, r.model.mean, r.model.variance,
                  r.variance_ratio) for r in self.components]
        return csv_text(header_comments, (
            "label", "weight", "mean", "variance", "pooled_variance_ratio"),
            rows)


def compare_pooled_vs_conditioned(
    components: Sequence[tuple[float, GaussianInputModel]],
    labels: Sequence[str] | None = None,
) -> MixtureComparison:
    """Pool weighted Gaussian components by the law of total variance.

    Pooled mean is the weighted component mean; pooled variance adds the
    weighted within-component variance and the weighted squared spread
    of component means. The ratio pooled/component says how much wider
    the condition-blind model is than each condition-specific one.
    """
    if len(components) == 0:
        raise DataError("need at least one (weight, model) component")
    weights = [w for w, _ in components]
    if any(not w > 0 for w in weights):
        raise DataError(f"weights must be positive, got {weights}")
    total = sum(weights)
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise DataError(f"weights must sum to 1, got {total!r}")
    if labels is None:
        labels = [f"component_{i}" for i in range(len(components))]
    if len(labels) != len(components):
        raise DataError(
            f"{len(labels)} labels for {len(components)} components"
        )

    pooled_mean = sum(w * m.mean for w, m in components)
    within = sum(w * m.variance for w, m in components)
    between = sum(w * (m.mean - pooled_mean) ** 2 for w, m in components)
    pooled = GaussianInputModel(mean=pooled_mean, variance=within + between)

    rows = tuple(
        MixtureComponentRow(
            label=label,
            weight=w,
            model=m,
            variance_ratio=pooled.variance / m.variance if m.variance > 0
            else math.inf,
        )
        for label, (w, m) in zip(labels, components)
    )
    return MixtureComparison(pooled=pooled, components=rows)
