"""Exception types shared across the package, one per exit code of the CLI.

Each class carries the code the CLI exits with as ``exit_code``: 2 for a
configuration error, 3 for a data error. A failed stage prints one stderr
line ``[<stage>] <Class>: <message>``. The classes take the one message
argument of ``Exception``, so they pickle as it does across the process
boundary of a chain worker.
"""


class SoftspinError(Exception):
    """Base class for package errors."""

    exit_code = 3


class ConfigError(SoftspinError):
    """Invalid or inconsistent run configuration."""

    exit_code = 2


class DataError(SoftspinError):
    """Invalid input data, a degenerate computation or a missing artifact."""
