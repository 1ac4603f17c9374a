"""Exception hierarchy shared across the package.

Under MgmError, three classes map onto the CLI exit codes: ConfigError exits
with 2, DataError with 3 and NumericalError with 4. Every raise site uses one
of them.
"""


class MgmError(Exception):
    """Base class for every error this package raises deliberately."""


class ConfigError(MgmError):
    """Invalid configuration value, preset name, or parameter combination."""


class DataError(MgmError):
    """Malformed, inconsistent, or missing input data."""


class NumericalError(MgmError):
    """A numerical routine failed or its mathematical preconditions were violated."""
