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


#: From this many variates on, :func:`_polar_normals` draws by array and
#: :func:`sample` returns one: the two paths cost the same here, the loop
#: a third of the array path's at n = 1, and the array path half the
#: loop's at n = 1000. It equals the simulator's ``ARRAY_LOADS``, so its
#: per-load loop is always handed Python floats.
BULK_DRAWS = 112


def _polar_normals(rng: random.Random, n: int) -> list[float] | np.ndarray:
    """n standard normals by Marsaglia and Bray's polar method, a list of
    Python floats for ``n < BULK_DRAWS`` and a 1-D float64 array from
    there on, with the same bits either way.

    Each pair takes two uniforms ``u, v`` in [-1, 1) from ``rng.random()``
    and is kept when ``0 < w = u*u + v*v < 1``, as ``u * f, v * f`` with
    ``f = sqrt(-2 log(w) / w)``. The bulk path reads the same stream as
    64-bit words of ``rng.getrandbits``, whose first word is the least
    significant on any byte order, and turns each into a uniform by
    ``random()``'s own formula, ``(a >> 5) * 2**26 + (b >> 6)`` over
    ``2**53``. It draws about 4/3 of the pairs it needs and draws again
    if too few are kept, so ``rng`` ends further on than the loop leaves
    it. ``log`` is ``math.log`` per element in both paths: numpy's ``log``
    differs from it in the last bit of some values.
    """
    if n < BULK_DRAWS:
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
    parts, need = [], (n + 1) // 2
    while need > 0:
        m = 2 * (need + need // 3 + 8)
        words = np.frombuffer(
            rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u4")
        x = 2.0 * (((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6))
                   * 2.0**-53) - 1.0
        u, v = x[0::2], x[1::2]
        w = u * u + v * v
        keep = ((w < 1.0) & (w != 0.0)).nonzero()[0][:need]
        w = w[keep]
        log_w = np.fromiter(map(math.log, w.tolist()), float, w.size)
        # rows (u, v) times f: raveled, the pairs' variates in draw order
        kept = x.reshape(-1, 2)[keep] * np.sqrt(-2.0 * log_w / w)[:, None]
        parts.append(kept.ravel())
        need -= w.size
    # one round is the usual case: its block needs no concatenate copy
    return (parts[0] if len(parts) == 1 else np.concatenate(parts))[:n]


def sample(model: GaussianInputModel, seed: int, n: int
           ) -> list[float] | np.ndarray:
    """Draw ``n`` i.i.d. variates ``mean + std * z`` from the normals of
    :func:`_polar_normals` on ``random.Random(seed)``; deterministic per
    seed, no truncation. Like the normals, they are a list of Python
    floats for ``n < BULK_DRAWS`` and a 1-D float64 array from there on,
    with the same bits either way."""
    check_number("n", n, integer=True, low=1)
    z = _polar_normals(random.Random(seed), n)
    std = model.std
    if n < BULK_DRAWS:
        return [model.mean + std * x for x in z]
    # the same IEEE multiply and add per element; float() rounds an int
    # mean as Python's int + float does; |z| <= sqrt(208 ln 2) < 12.1, so
    # neither can overflow
    return float(model.mean) + std * z


def confidence_interval(mean, std, level: float):
    """``mean -+ z*std``, scalars or columns, at a level of :data:`Z_VALUES`."""
    if level not in Z_VALUES:
        supported = ", ".join(str(k) for k in sorted(Z_VALUES))
        raise DataError(f"unsupported level {level!r}; pick one of {supported}")
    half_width = Z_VALUES[level] * std
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
