"""Exception types shared across the library."""


class RobustKBError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(RobustKBError):
    """Array shapes are inconsistent with the declared dimensions."""


class NonFinite(RobustKBError):
    """An input array contains NaN or infinity."""


class NotPositiveDefinite(RobustKBError):
    """A matrix required to be positive definite is not."""


class NotPSD(RobustKBError):
    """A matrix required to be positive semidefinite is not."""


class OutOfGrid(RobustKBError):
    """A requested time does not lie on the model grid."""


class GridMismatch(RobustKBError):
    """Two objects were built on different grids."""


class MissingRiccati(RobustKBError):
    """A closed-loop computation was requested without a covariance path."""


class LostPositivity(RobustKBError):
    """The covariance path left the positive-semidefinite cone."""


class IllConditionedStep(RobustKBError):
    """One grid interval's covariance step is singular, or gives a
    covariance that is not finite."""


class DegenerateG(RobustKBError):
    """The observation matrix vanishes where a quotient by it is needed."""


class UnsupportedTilt(RobustKBError):
    """A drift tilt acts along directions with no signal noise."""


class InvalidSeed(RobustKBError, ValueError):
    """A master seed or path offset is not a non-negative integer."""


class InvalidPathCount(RobustKBError, ValueError):
    """A path count is not a positive integer, or too large to run."""


class BoxTooLarge(RobustKBError):
    """An uncertainty box has too many vertices to enumerate."""


class ConfigError(RobustKBError):
    """A scenario config file failed to parse; the message names the JSON path."""


class UnsupportedClassWarning(UserWarning):
    """A structural assumption behind a solver shortcut does not hold."""
