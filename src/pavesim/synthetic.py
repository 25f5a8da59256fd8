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
    sigma*(x) = max(1.0, 2.5 + 0.7*age + 2.0*congestion - 1.0*spreader)

Productivity is drawn as N(mu*, sigma*^2). Over the sampled feature
ranges mu* stays within [30, 110] m/h and sigma* within [1, 9] m/h.

A feature vector is a plain dict keyed by column name, the form
:func:`pavesim.inputmodel.derive` reads: :func:`sample_features` draws
one, :func:`true_moments` takes one, and :data:`DEMO_SCENARIOS` holds
three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DataError, check_number
from .tables import PAVING_COLUMNS, RecordTable, kind_of

#: Hidden answer-key columns appended when truth output is requested.
TRUTH_COLUMNS = ("MuStar", "SigmaStar")


def true_moments(f: Mapping[str, float]) -> tuple[float, float]:
    """True (mean, standard deviation) of productivity for the features
    ``f``, keyed by column name."""
    mu = (
        90.0
        - 4.5 * f["PaverAge"]
        - 8.0 * f["Congestion"]
        + 7.0 * f["Spreader"]
        + 2.5 * (f["Slump"] - 4.0)
        - 0.045 * (f["Temperature"] - 20.0) ** 2
        - 0.06 * (f["Humidity"] - 70.0)
        - 1.5 * abs(f["Slope"])
        - 800.0 * abs(f["Curvature"])
    )
    sigma = max(
        1.0,
        2.5 + 0.7 * f["PaverAge"] + 2.0 * f["Congestion"] - 1.0 * f["Spreader"],
    )
    return mu, sigma


#: Feature sampling ranges; uniform unless noted.
_SLUMP_RANGE = (2.5, 5.0)
_CONGESTION_P = 0.5
_SPREADER_P = 0.3
_AIR_RANGE = (3.8, 5.0)
_TEMPERATURE_RANGE = (2.0, 32.0)
_HUMIDITY_RANGE = (50.0, 95.0)
_SLOPE_RANGE = (-4.0, 4.0)
_CURVATURE_RANGE = (-0.002, 0.002)
_AGE_RANGE = (0.0, 5.0)  # rounded to half-years


def sample_features(rng: np.random.Generator) -> dict[str, float]:
    """Draw one plausible paving-job feature vector, keyed by column name
    in :data:`~pavesim.tables.FEATURE_COLUMNS` order (the draw order)."""
    return {
        "Slump": float(rng.uniform(*_SLUMP_RANGE)),
        "Congestion": float(rng.random() < _CONGESTION_P),
        "Spreader": float(rng.random() < _SPREADER_P),
        "AirEntrainment": float(rng.uniform(*_AIR_RANGE)),
        "Temperature": float(rng.uniform(*_TEMPERATURE_RANGE)),
        "Humidity": float(rng.uniform(*_HUMIDITY_RANGE)),
        "Slope": float(rng.uniform(*_SLOPE_RANGE)),
        "Curvature": float(rng.uniform(*_CURVATURE_RANGE)),
        "PaverAge": round(rng.uniform(*_AGE_RANGE) * 2.0) / 2.0,
    }


def generate_paving_dataset(
    n_rows: int, seed: int, include_truth: bool = False
) -> RecordTable:
    """Generate ``n_rows`` synthetic paving records, deterministically.

    With ``include_truth`` the table carries two extra numeric columns,
    ``MuStar`` and ``SigmaStar``, holding the generating moments per row.
    They are an evaluation answer key; feature selection downstream
    ignores them, so a model trained on a truth-bearing table never sees
    them.
    """
    check_number("n_rows", n_rows, integer=True, low=1)
    rng = np.random.default_rng(seed)
    names = PAVING_COLUMNS + (TRUTH_COLUMNS if include_truth else ())
    rows = []
    for _ in range(n_rows):
        f = sample_features(rng)
        mu, sigma = true_moments(f)
        productivity = float(rng.normal(mu, sigma))
        row = [productivity, *f.values()]
        if include_truth:
            row += [mu, sigma]
        rows.append(tuple(row))
    return RecordTable(names, tuple(map(kind_of, names)), tuple(rows))


@dataclass(frozen=True)
class WeatherComponent:
    """One weather condition: label, mixture weight, duration law N(mu, sigma^2)."""

    label: str
    weight: float
    mean: float
    std: float

    def __post_init__(self):
        if not self.label:
            raise DataError("component label must be non-empty")
        check_number("component weight", self.weight, above=0)
        check_number("component std", self.std, above=0)


@dataclass(frozen=True)
class MixtureSpec:
    """Finite Gaussian mixture over labelled operating conditions."""

    components: tuple[WeatherComponent, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise DataError("mixture needs at least one component")
        labels = [c.label for c in self.components]
        if len(set(labels)) != len(labels):
            raise DataError(f"duplicate component labels: {labels}")
        total = sum(c.weight for c in self.components)
        if not np.isclose(total, 1.0, rtol=0, atol=1e-9):
            raise DataError(f"component weights must sum to 1, got {total!r}")


#: Equal-weight demo mixture: rain slows hauling, sun speeds it up.
#: Pooled variance is 28 (4 within-condition + 24 between-condition),
#: far above any single condition's 4.
DEFAULT_WEATHER_MIXTURE = MixtureSpec(
    components=(
        WeatherComponent("rainy", 1.0 / 3.0, 30.0, 2.0),
        WeatherComponent("windy", 1.0 / 3.0, 24.0, 2.0),
        WeatherComponent("sunny", 1.0 / 3.0, 18.0, 2.0),
    )
)


def generate_weather_mixture(
    n_rows: int, seed: int, spec: MixtureSpec = DEFAULT_WEATHER_MIXTURE
) -> RecordTable:
    """Sample labelled cycle durations from a weather mixture.

    Each row picks a condition by weight, then draws Duration from that
    condition's Gaussian. Output columns: Condition (categorical),
    Duration (numeric).
    """
    check_number("n_rows", n_rows, integer=True, low=1)
    rng = np.random.default_rng(seed)
    weights = [c.weight for c in spec.components]
    rows = []
    for _ in range(n_rows):
        c = spec.components[rng.choice(len(spec.components), p=weights)]
        rows.append((c.label, float(rng.normal(c.mean, c.std))))
    names = ("Condition", "Duration")
    return RecordTable(names, tuple(map(kind_of, names)), tuple(rows))


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
