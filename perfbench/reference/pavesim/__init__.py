"""Condition-aware Gaussian input models for road-paving simulation.

The pipeline: adapt tabular operation data, train a heteroscedastic
feed-forward network (mean and log-variance heads under a Gaussian
negative log-likelihood), validate interval coverage, derive per-scenario
Gaussian input models, and feed them to a discrete-event paving
simulator. See the subpackages:

- :mod:`pavesim.tables` - record tables, the canonical paving schema, CSV
- :mod:`pavesim.adapter` - join, clean, encode, normalize, split
- :mod:`pavesim.network` - the from-scratch network and Adam trainer
- :mod:`pavesim.inputmodel` - physical-unit models, coverage, pooling
- :mod:`pavesim.synthetic` - known-truth data generators
- :mod:`pavesim.simulator` - the truck-and-paver event simulation
- :mod:`pavesim.modelfile` - model and dataset file formats
- :mod:`pavesim.cli` - the ``pavesim`` command
"""

__version__ = "0.1.0"

from .errors import (
    DataError,
    NumericalError,
    PavesimError,
    TrainingDivergedError,
)

__all__ = [
    "__version__",
    "DataError",
    "NumericalError",
    "PavesimError",
    "TrainingDivergedError",
]
