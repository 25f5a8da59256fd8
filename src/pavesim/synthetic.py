"""Synthetic road-paving data with a known noise law.

Real paving productivity logs are scarce, so tests and demos run against
generated records whose true conditional mean and standard deviation are
closed-form functions of the features. That gives every downstream check
an exact answer key: a model's predicted ``sigma`` can be scored against
the ``sigma*`` that actually generated the noise.

The generating law is fixed here and nowhere else:

    mu*(x)    = 90 - 4.5*age - 8*congestion + 7*spreader + 2.5*(slump - 4)
                - 0.045*(T - 20)**2 - 0.06*(humidity - 70)
                - 1.5*|slope| - 800*|curvature|
    sigma*(x) = 2.5 + 0.7*age + 2.0*congestion - 1.0*spreader

Productivity is drawn as N(mu*, sigma*^2). Over the sampled feature
ranges mu* stays within [30, 110] m/h and sigma* within [1.5, 8] m/h.

A feature vector is a plain dict keyed by column name, the form
:func:`pavesim.inputmodel.derive` reads: :func:`true_moments` takes one
(of scalars, or of columns) and :data:`DEMO_SCENARIOS` holds three. The
sampling ranges live in :data:`FEATURE_LAW` and nowhere else.
:func:`generate_weather_mixture` draws ``mixture-demo``'s sample.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import check_number
from .tables import PAVING_COLUMNS, TRUTH_COLUMNS, RecordTable


def true_moments(f: Mapping[str, float]) -> tuple[float, float]:
    """True (mean, standard deviation) of productivity for the features
    ``f``, keyed by column name, each a scalar or a column array. The
    square calls libm ``pow`` (``np.float_power``), as Python's ``**``
    does; numpy's ``**2`` multiplies and can differ in the last bit."""
    mu = (
        90.0
        - 4.5 * f["PaverAge"]
        - 8.0 * f["Congestion"]
        + 7.0 * f["Spreader"]
        + 2.5 * (f["Slump"] - 4.0)
        - 0.045 * np.float_power(f["Temperature"] - 20.0, 2.0)
        - 0.06 * (f["Humidity"] - 70.0)
        - 1.5 * abs(f["Slope"])
        - 800.0 * abs(f["Curvature"])
    )
    sigma = (2.5 + 0.7 * f["PaverAge"] + 2.0 * f["Congestion"]
             - 1.0 * f["Spreader"])
    return mu, sigma


#: The sampling law, in column and draw order: uniform on ``(low, high)``,
#: or 1.0 with probability ``(p,)``; PaverAge is rounded to half-years.
FEATURE_LAW: dict[str, tuple[float, ...]] = dict(
    Slump=(2.5, 5.0), Congestion=(0.5,), Spreader=(0.3,),
    AirEntrainment=(3.8, 5.0), Temperature=(2.0, 32.0), Humidity=(50.0, 95.0),
    Slope=(-4.0, 4.0), Curvature=(-0.002, 0.002), PaverAge=(0.0, 5.0),
)


def generate_paving_dataset(
    n_rows: int, seed: int, include_truth: bool = False
) -> RecordTable:
    """Generate ``n_rows`` synthetic paving records, deterministically.

    Each row draws nine uniforms, one per feature in column order, then
    one standard normal ``z``. Features and ``mu* + sigma* * z`` are then
    computed by column, as scalar ``Generator.uniform`` and ``normal`` do.

    With ``include_truth`` the table carries the two numeric
    :data:`~pavesim.tables.TRUTH_COLUMNS`, holding the generating moments
    per row. They are an evaluation answer key, never data, so a model
    trained on a truth-bearing table never sees them.
    """
    check_number("n_rows", n_rows, integer=True, low=1)
    rng = np.random.default_rng(seed)
    u = np.empty((n_rows, len(FEATURE_LAW)))
    z = np.empty(n_rows)
    for i in range(n_rows):
        rng.random(out=u[i])
        z[i] = rng.standard_normal()
    f = {name: (u[:, j] < law[0]).astype(float) if len(law) == 1
         else law[0] + (law[1] - law[0]) * u[:, j]
         for j, (name, law) in enumerate(FEATURE_LAW.items())}
    f["PaverAge"] = np.round(f["PaverAge"] * 2.0) / 2.0
    mu, sigma = true_moments(f)
    names = PAVING_COLUMNS + (TRUTH_COLUMNS if include_truth else ())
    columns = [mu + sigma * z, *f.values(), mu, sigma][: len(names)]
    return RecordTable(names, [c.tolist() for c in columns], n_rows)


#: Equal-weight demo mixture, one ``(label, weight, mean, std)`` row per
#: weather condition, whose hauling duration is N(mean, std^2): rain slows
#: hauling, sun speeds it up. Pooled variance is 28 (4 within-condition +
#: 24 between-condition), far above any single condition's 4.
WEATHER_MIXTURE = (
    ("rainy", 1.0 / 3.0, 30.0, 2.0),
    ("windy", 1.0 / 3.0, 24.0, 2.0),
    ("sunny", 1.0 / 3.0, 18.0, 2.0),
)


def generate_weather_mixture(
    n_rows: int, seed: int,
    spec: tuple[tuple[str, float, float, float], ...] = WEATHER_MIXTURE,
) -> RecordTable:
    """Sample labelled cycle durations, columns Condition (categorical)
    and Duration (numeric), from ``spec``'s ``(label, weight, mean, std)``
    rows. Each row draws a uniform ``u``, then a standard normal ``z``;
    by column, ``u`` picks the condition as scalar ``Generator.choice``
    does, and Duration is ``mean + std * z``, as ``Generator.normal``."""
    check_number("n_rows", n_rows, integer=True, low=1)
    rng = np.random.default_rng(seed)
    u = np.empty(n_rows)
    z = np.empty(n_rows)
    for i in range(n_rows):
        u[i] = rng.random()
        z[i] = rng.standard_normal()
    labels, weights, means, stds = map(np.array, zip(*spec))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    k = cdf.searchsorted(u, side="right")
    # As objects, the cells share one str per label, not one str each.
    return RecordTable(("Condition", "Duration"), [
        labels.astype(object)[k].tolist(), (means[k] + stds[k] * z).tolist()],
        n_rows)


#: Three reference job profiles spanning the productivity range: an old
#: paver in congestion with no spreader ("worst"), a mid-life machine in
#: congestion ("medium"), and a fresh machine with a spreader on a clear
#: site ("best").
DEMO_SCENARIOS: dict[str, dict[str, float]] = {
    "worst": dict(
        Slump=4.5, Congestion=1.0, Spreader=0.0, AirEntrainment=4.5,
        Temperature=6.5, Humidity=84.6, Slope=0.0, Curvature=0.001,
        PaverAge=5.0,
    ),
    "medium": dict(
        Slump=4.3, Congestion=1.0, Spreader=0.0, AirEntrainment=4.2,
        Temperature=21.8, Humidity=86.0, Slope=-3.4952, Curvature=0.001,
        PaverAge=2.5,
    ),
    "best": dict(
        Slump=3.0, Congestion=0.0, Spreader=1.0, AirEntrainment=4.5,
        Temperature=7.7, Humidity=60.1, Slope=1.2028, Curvature=-0.001,
        PaverAge=0.0,
    ),
}
