"""Exception types shared across the package.

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
    """Invalid input data."""


class MissingColumn(DataError):
    def __init__(self, name):
        super().__init__(f"missing required column {name!r}")
        self.name = name


class BadCategory(DataError):
    def __init__(self, row, column, value):
        super().__init__(
            f"row {row}: column {column!r} has value {value!r} outside its domain"
        )
        self.row = row
        self.column = column
        self.value = value


class TargetOutOfRange(DataError):
    def __init__(self, row, value):
        super().__init__(f"row {row}: target value {value!r} outside [0, 100]")
        self.row = row
        self.value = value


class DuplicateUnitId(DataError):
    def __init__(self, unit_id):
        super().__init__(f"duplicate unit id {unit_id!r}")
        self.unit_id = unit_id


class ZeroVariance(SoftspinError):
    def __init__(self, name):
        super().__init__(f"zero variance in {name!r}")
        self.name = name


class DegenerateRow(SoftspinError):
    def __init__(self, row):
        super().__init__(f"standardized profile mean is zero at row {row}")
        self.row = row


class DivergenceDetected(SoftspinError):
    def __init__(self, iteration=None, detail=""):
        where = "" if iteration is None else f" at iteration {iteration}"
        extra = f": {detail}" if detail else ""
        super().__init__(f"state diverged{where}{extra}")
        self.iteration = iteration
        self.detail = detail


class InsufficientPool(SoftspinError):
    """Retained pool smaller than the requested batch size."""


class EmptyCalibration(SoftspinError):
    """Calibration split contains no units."""


class AllCollinear(SoftspinError):
    """No regressor survives the collinearity filter."""


class ParallelChainError(SoftspinError):
    """One or more chains of a parallel run failed.

    ``failures`` is a list of (chain_index, exception) pairs; the sibling
    chains were allowed to finish before this was raised.
    """

    def __init__(self, failures):
        lines = [f"chain {i}: {exc}" for i, exc in failures]
        super().__init__("; ".join(lines))
        self.failures = list(failures)


class MissingArtifact(DataError):
    def __init__(self, stage, path):
        super().__init__(
            f"missing artifact for stage {stage!r}: {path} (run the earlier stages first)"
        )
        self.stage = stage
        self.path = str(path)
