"""Exception types shared across the package, one per exit code of the CLI.

Each class carries the code the CLI exits with as ``exit_code``. A failed
stage prints one stderr line ``[<stage>] <Class>: <message>``.

Every exception survives pickling across process boundaries (parallel chain
execution) through the one ``SoftspinError.__reduce__``.
"""

import copyreg


class SoftspinError(Exception):
    """Base class for package errors."""

    exit_code = 3

    def __reduce__(self):
        # ``cls.__new__(cls, *args)`` sets the message without running
        # ``__init__``, whose parameters differ by class; the attributes
        # come back from ``__dict__``
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(SoftspinError):
    """Invalid or inconsistent run configuration."""

    exit_code = 2


class DataError(SoftspinError):
    """Invalid input data, a degenerate computation or a missing artifact."""


class DivergenceDetected(SoftspinError):
    exit_code = 4

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

    @property
    def exit_code(self) -> int:
        """4 when one of the chains diverged, else 3."""
        diverged = any(isinstance(exc, DivergenceDetected) for _, exc in self.failures)
        return DivergenceDetected.exit_code if diverged else SoftspinError.exit_code
