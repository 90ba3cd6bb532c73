"""Exception hierarchy shared by the whole package.

The CLI maps these onto process exit codes: configuration problems exit 2,
data/ingestion problems exit 3, anything else exits 4.
"""


class ConalError(Exception):
    """Base class for all package errors."""


class ConfigError(ConalError):
    """Invalid specification, configuration value, or unknown name."""


class DataError(ConalError):
    """Malformed input data: bad files, shape mismatches, contract violations."""


class UsageError(ConalError):
    """API called in an unsupported order (e.g. predicting before training), or an
    internal invariant broken (e.g. the loop's pools): a program fault, not bad input."""
