"""Exception hierarchy shared across the package.

Under MgmError, three classes map onto the CLI exit codes: ConfigError exits
with 2, DataError with 3 and NumericalError with 4. Every raise site uses one
of them, except where the package itself catches a narrower case:
`load_matrix` catches ParseError so that a ragged row reports before a bad
cell, and `distance_matrix` catches MartinDivergentError to name the pair.
"""


class MgmError(Exception):
    """Base class for every error this package raises deliberately."""


class ConfigError(MgmError):
    """Invalid configuration value, preset name, or parameter combination."""


class DataError(MgmError):
    """Malformed, inconsistent, or missing input data."""


class NumericalError(MgmError):
    """A numerical routine failed or its mathematical preconditions were violated."""


class ParseError(DataError):
    """A cell of a delimited file could not be parsed as a number."""


class MartinDivergentError(NumericalError):
    """The Martin metric diverges when any principal angle reaches pi/2."""
