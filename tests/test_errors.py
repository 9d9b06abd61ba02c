import inspect
import pickle

import pytest

from softspin import errors

# one instance of every exception class, structured ones with their fields
INSTANCES = [
    errors.SoftspinError("base"),
    errors.ConfigError("engines: at least one engine must be enabled"),
    errors.DataError("field must be finite"),
    errors.DivergenceDetected(12, "non-finite state"),
    errors.ParallelChainError([(1, errors.DivergenceDetected(5, "state escaped the domain guard")),
                               (3, errors.DivergenceDetected())]),
]


def assert_same(a, b):
    assert type(a) is type(b)
    assert str(a) == str(b)
    assert a.args == b.args
    assert a.__dict__.keys() == b.__dict__.keys()
    for key, value in a.__dict__.items():
        if key == "failures":
            assert [i for i, _ in value] == [i for i, _ in b.failures]
            for (_, inner), (_, back) in zip(value, b.failures):
                assert_same(inner, back)
        else:
            assert b.__dict__[key] == value


def test_every_class_has_an_instance():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.SoftspinError)}
    assert classes == {type(exc) for exc in INSTANCES}


@pytest.mark.parametrize("exc", INSTANCES, ids=[type(e).__name__ for e in INSTANCES])
@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trip_keeps_message_and_fields(exc, protocol):
    back = pickle.loads(pickle.dumps(exc, protocol=protocol))
    assert_same(exc, back)


@pytest.mark.parametrize("exc, code", [
    (errors.SoftspinError("base"), 3),
    (errors.ConfigError("workers must be >= 1"), 2),
    (errors.DataError("no calibration scores"), 3),
    (errors.DivergenceDetected(12, "non-finite state"), 4),
    (errors.ParallelChainError([(0, errors.DataError("x")), (1, OSError("disk full"))]), 3),
    (errors.ParallelChainError([(0, errors.DataError("x")), (2, errors.DivergenceDetected(7))]), 4),
], ids=["SoftspinError", "ConfigError", "DataError", "DivergenceDetected",
        "ParallelChainError-failed", "ParallelChainError-diverged"])
def test_exit_code(exc, code):
    assert exc.exit_code == code
    assert pickle.loads(pickle.dumps(exc)).exit_code == code
