"""Exception types shared across the package, one per exit code of the CLI.

``ConfigError`` exits with 2, ``DataError`` (invalid input, a degenerate
computation or a missing artifact) with 3 and ``DivergenceDetected`` with 4;
a ``ParallelChainError`` exits with 4 when one of its chains diverged, else 3.
A failed stage prints one stderr line ``[<stage>] <Class>: <message>``.

Every exception survives pickling across process boundaries (parallel chain
execution) through the one ``SoftspinError.__reduce__``.
"""

import copyreg


class SoftspinError(Exception):
    """Base class for package errors."""

    def __reduce__(self):
        # ``cls.__new__(cls, *args)`` sets the message without running
        # ``__init__``, whose parameters differ by class; the attributes
        # come back from ``__dict__``
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(SoftspinError):
    """Invalid or inconsistent run configuration."""


class DataError(SoftspinError):
    """Invalid input data, a degenerate computation or a missing artifact."""


class DivergenceDetected(SoftspinError):
    def __init__(self, iteration=None, detail=""):
        where = "" if iteration is None else f" at iteration {iteration}"
        extra = f": {detail}" if detail else ""
        super().__init__(f"state diverged{where}{extra}")
        self.iteration = iteration
        self.detail = detail


class ParallelChainError(SoftspinError):
    """One or more chains of a parallel run failed.

    ``failures`` is a list of (chain_index, exception) pairs; the sibling
    chains were allowed to finish before this was raised.
    """

    def __init__(self, failures):
        lines = [f"chain {i}: {exc}" for i, exc in failures]
        super().__init__("; ".join(lines))
        self.failures = list(failures)
