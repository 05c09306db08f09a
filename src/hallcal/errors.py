"""Exception hierarchy shared across the toolkit."""


class HallcalError(Exception):
    """Base class for all toolkit errors."""


# -- layout / geometry ------------------------------------------------------

class DuplicateIdError(HallcalError):
    """Two facilities of the same class share an id."""


class DuplicatePositionError(HallcalError):
    """Two facilities of the same class share a position."""


class EmptyFacilityClassError(HallcalError):
    """A facility class (CRACs, servers, sensors) is empty or too small."""


class MissingAisleCoverageError(HallcalError):
    """Sensor set lacks at least one cold-aisle or one hot-aisle sensor."""


class NonFinitePositionError(HallcalError):
    """A facility position contains NaN or infinity."""


class ZeroDistanceError(HallcalError):
    """A facility coincides with a sensor position (reciprocal distance undefined)."""


class AllWeightsCutError(HallcalError):
    """Thresholding removed every incoming weight of some sensor."""


# -- surrogate / numerics ---------------------------------------------------

class NonPositiveFlowRateError(HallcalError):
    """An air flow rate is zero or negative."""


class DimensionMismatchError(HallcalError):
    """Vector or matrix dimensions are inconsistent with the layout."""


class EmptyBatchError(HallcalError):
    """A loss or gradient was requested over an empty batch."""


class EmptyDatasetError(HallcalError):
    """Training was requested on an empty dataset."""


class MixedStateError(HallcalError):
    """A training dataset's samples do not all share one operating state."""


# -- search -----------------------------------------------------------------

class ObjectiveNonFiniteError(HallcalError):
    """The objective returned NaN or infinity for a feasible candidate."""


# -- solvers ----------------------------------------------------------------

class InvalidInputError(HallcalError):
    """A solver input fails validation."""


class CommandFailedError(HallcalError):
    """External solver command could not start or exited with a nonzero status."""


class SolverTimeoutError(HallcalError):
    """External solver command exceeded its wall-clock cap."""


class ParseError(HallcalError):
    """A data file or solver output file is malformed."""


# -- engine / studies -------------------------------------------------------

class CalibrationAbortedError(HallcalError):
    """A solver, fit or search failure aborted a calibration run; carries
    the partial result."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class OutputDirectoryError(HallcalError):
    """A command's output directory or the external solver's workdir cannot
    be created, or a file in it cannot be written or removed."""


class PoolTooSmallError(HallcalError):
    """Sample pool is too small for the requested study fractions."""


class UnknownMethodError(HallcalError):
    """Requested calibration method is not one of the known tags."""
