"""Every package failure survives a pickle round trip, as a forked or
worker process that hands it back needs."""

import inspect
import pickle

from quadmode import errors

# one instance of each QuadmodeError class in errors.py, built as the package builds it
INSTANCES = {
    errors.QuadmodeError: errors.QuadmodeError("failed", t=1.5),
    errors.ConfigError: errors.ConfigError("must be >= 0, got -1", field="grid.dt"),
    errors.CoefficientEvaluationError: errors.CoefficientEvaluationError("a", 3.0, "outside"),
    errors.SingularCoefficientError: errors.SingularCoefficientError("a(0) is zero", t=0.0),
    errors.InvalidMediumError: errors.InvalidMediumError("xi <= 0", t=2.25),
    errors.StiffnessError: errors.StiffnessError("step cap", t=0.125),
    errors.BlowUpError: errors.BlowUpError("beta through zero", t=7.0),
    errors.PathRejectedError: errors.PathRejectedError("resample budget spent", t=0.5),
    errors.EnsembleError: errors.EnsembleError("2 of 4 paths failed", t=None),
}


def test_every_error_class_is_covered():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.QuadmodeError)}
    assert classes == set(INSTANCES)


def test_errors_survive_pickling():
    for cls, exc in INSTANCES.items():
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc) and back.args == exc.args
        for attr in ("t", "field", "name"):
            assert getattr(back, attr, "absent") == getattr(exc, attr, "absent"), (cls, attr)
    coefficient = pickle.loads(pickle.dumps(INSTANCES[errors.CoefficientEvaluationError]))
    assert (coefficient.name, coefficient.t) == ("a", 3.0)
    assert str(coefficient) == "coefficient 'a' at t=3.0: outside"
    assert pickle.loads(pickle.dumps(INSTANCES[errors.ConfigError])).field == "grid.dt"
