"""Exception hierarchy shared across the package.

The three intermediate classes map onto the CLI exit codes: configuration
problems exit with 2, input-data problems with 3, numerical failures with 4.
"""


class MgmError(Exception):
    """Base class for every error this package raises deliberately."""


class ConfigError(MgmError):
    """Invalid configuration value, preset name, or parameter combination."""


class DataError(MgmError):
    """Malformed, inconsistent, or missing input data."""


class NumericalError(MgmError):
    """A numerical routine failed or its mathematical preconditions were violated."""


class InvalidScaleSpecError(ConfigError):
    """Scale sampling parameters are out of their admissible ranges."""


class ScaleOutOfRangeError(ConfigError):
    """A neighborhood scale is incompatible with the number of samples."""


class DimTooLargeError(ConfigError):
    """A requested dimension exceeds what the input matrix can support."""


class ParseError(DataError):
    """A cell of a delimited file could not be parsed as a number."""


class RaggedRowsError(DataError):
    """Rows of a delimited file have inconsistent lengths."""


class LabelLengthMismatchError(DataError):
    """A label vector does not have one entry per sample."""


class LengthMismatchError(DataError):
    """Two label vectors that must be compared have different lengths."""


class NegativeValuesError(DataError):
    """Normalization was requested on data containing negative entries."""


class AllColumnsZeroError(NumericalError):
    """Every column of a matrix to orthonormalize is numerically zero."""


class AmbientDimMismatchError(NumericalError):
    """Two subspaces live in ambient spaces of different dimension."""


class MartinDivergentError(NumericalError):
    """The Martin metric diverges when any principal angle reaches pi/2."""


class DegenerateAffinityError(NumericalError):
    """All pairwise distances are zero, so no affinity scale can be chosen."""


class DegenerateEmbeddingError(NumericalError):
    """A distance matrix admits no positive-eigenvalue Euclidean embedding."""
