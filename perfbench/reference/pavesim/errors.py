"""Exception types shared across the package."""


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
