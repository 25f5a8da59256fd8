"""Exception types shared across the package, the one rule for a number,
the one rule for a value from a fixed set and the one rule for a JSON
object and its keys, a record's too."""

import math
import numbers
import reprlib
from dataclasses import MISSING, fields


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


def check_choice(name: str, value, choices):
    """`value` if it equals one of `choices`; otherwise a :class:`DataError`
    lists them in order, as :func:`check_number` states its rule:
    ``resample_mode must be per_replication or per_truckload, got 'x'``."""
    if value not in choices:
        raise DataError(f"{name} must be {' or '.join(map(str, choices))}, "
                        f"got {value!r}")
    return value


def check_object(what: str, obj) -> dict:
    """`obj` if it is a JSON object; else a :class:`DataError` names `what`
    and shows `obj` abbreviated: ``got [0, 1, 2, 3, 4, 5, ...]``."""
    if not isinstance(obj, dict):
        raise DataError(f"{what} must be a JSON object, "
                        f"got {reprlib.repr(obj)}")
    return obj


def check_keys(what: str, obj, keys, optional=()) -> dict:
    """`obj` if it is a JSON object (:func:`check_object`) whose keys are
    among `keys` and hold every one of them but those `optional`; else a
    :class:`DataError` names `what`: ``unknown config keys: a, b`` or
    ``layer 0 is missing keys: bias``, each list sorted."""
    check_object(what, obj)
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise DataError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = sorted(set(keys) - set(optional) - set(obj))
    if missing:
        raise DataError(f"{what} is missing keys: {', '.join(missing)}")
    return obj


def check_record(cls, what: str, obj, *, complete: bool = True, **given):
    """The dataclass `cls` built from the fields `given` and the JSON object
    `obj`, whose keys :func:`check_keys` holds to the other fields (if not
    `complete`, one with a default may be left out); `cls` checks values."""
    allowed = [f for f in fields(cls) if f.name not in given]
    defaulted = [f.name for f in allowed if not complete and (
        f.default is not MISSING or f.default_factory is not MISSING)]
    check_keys(what, obj, [f.name for f in allowed], defaulted)
    return cls(**obj, **given)
