"""Exception types shared across the package, and the one rule for a number."""

import math
import numbers


class PavesimError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PavesimError):
    """Invalid, malformed, or inconsistent input data or configuration."""


class NumericalError(PavesimError):
    """Numerical failure: divergence or non-finite values where finite ones are required."""


class TrainingDivergedError(NumericalError):
    """Training aborted because the loss became non-finite."""

    def __init__(self, epoch: int, batch: int, loss: float):
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
        super().__init__(
            f"non-finite training loss ({loss!r}) at epoch {epoch}, batch {batch}"
        )


def check_number(name: str, value, *, integer: bool = False, low=None,
                 high=None, above=None, below=None):
    """`value` if it is a finite int or float (numpy's too; only an int if
    `integer`) within the bounds given, ``low <= value <= high``,
    ``above < value`` and ``value < below``. Otherwise a :class:`DataError`
    states the whole rule: ``adam_beta1 must be a finite number >= 0 and
    < 1, got -3``. A bool, and an int too large for a float, never pass."""
    try:
        # int and float first: an isinstance check against an ABC is slow
        ok = ((type(value) is int or (type(value) is float and not integer)
               or (isinstance(value, numbers.Integral if integer else numbers.Real)
                   and not isinstance(value, bool)))
              and math.isfinite(value)
              and (low is None or value >= low)
              and (high is None or value <= high)
              and (above is None or value > above)
              and (below is None or value < below))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        bounds = " and ".join(f"{op} {bound}" for op, bound in (
            (">=", low), ("<=", high), (">", above), ("<", below))
            if bound is not None)
        rule = f"{kind} {bounds}".rstrip()
        raise DataError(f"{name} must be {rule}, got {value!r}")
    return value
