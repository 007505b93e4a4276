"""Exception types for numeric failures.

Anything raised as `RQITError` means a computation could not be carried out
at the requested accuracy (truncation, positivity, size or chart limits),
as opposed to a plain misuse of the API, which raises the usual built-ins
(ValueError, IndexError).
"""


class RQITError(Exception):
    """Base class for numeric failures."""


class SizeError(RQITError):
    """An array or a run would exceed a size limit: the memory budget of an
    operator build, the work budget of a banded sweep, the work bound of a
    Monte-Carlo figure, or a cutoff that cannot be finite."""


class NotPSDError(RQITError):
    """An operator required to be positive semi-definite is not."""


class TruncationError(RQITError):
    """The Fock cutoff is insufficient for the requested tolerance."""


class InvalidBlochError(RQITError):
    """A Bloch vector lies outside the unit ball."""


class BoundaryError(RQITError):
    """A state-space evaluation too close to the pure-state boundary."""


class ChartError(RQITError):
    """A polar-chart evaluation at or too close to a coordinate singularity."""


class NumericError(RQITError):
    """A LAPACK routine reported a failure (a nonzero INFO), or an exact sum
    met an infinity or a NaN."""
