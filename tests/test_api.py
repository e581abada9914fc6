"""The public API as a snapshot: the names ``opuc`` exports, the parameter
names of each exported callable and the public methods and properties of
each exported class.  Adding, removing or renaming a parameter or a method
shows up here as a diff."""

import inspect

import opuc

# name: parameter names, or None for an exception class that keeps the
# built-in constructor (inspect finds no signature for it)
API = {
    "AmbiguousRootError": ("message", "ambiguous"),
    "ComplexPoly": ("coeffs",),
    "CrossCheckError": None,
    "GuardViolationError": ("index", "modulus", "guard"),
    "IdentityReport": ("n", "grid", "wall_on_circle", "pinter_nevai", "liouville"),
    "MigrationRow": ("n", "zeros", "pole_dist", "circle_dist"),
    "MomentReport": ("moments", "growth_rate", "predicted_rate"),
    "PoleEvaluationError": None,
    "QuadratureError": None,
    "RationalFn": ("num", "den"),
    "RecoveryResult": ("alphas", "termination"),
    "RootFindingError": ("message", "residuals"),
    "SchurStep": ("alpha", "next_fn"),
    "SzegoReport": ("lhs", "poles", "epsilon", "log_integral", "rhs", "rel_error",
                    "quad_points", "subtracted"),
    "TraceRow": ("k", "predicted", "actual", "predicted_star", "actual_star"),
    "VerblunskySequence": ("alphas", "guard_unit"),
    "WallPair": ("A", "B", "n"),
    "as_rational_F": ("seq",),
    "as_rational_f": ("seq",),
    "boyd_integral": ("seq", "N"),
    "circle_quadrature": ("g", "m"),
    "from_roots": ("rts",),
    "inverse_schur_step": ("f",),
    "log_split_check": ("seq", "n"),
    "moments": ("seq", "m", "J"),
    "omega": ("seq", "n"),
    "omega_log_sign": ("seq", "n"),
    "pole_set": ("seq",),
    "re_F_khrushchev": ("seq", "n", "theta"),
    "recover_coefficients": ("fstar", "max_n"),
    "roots": ("p",),
    "second_kind_polys": ("seq", "n"),
    "series_div": ("num", "den", "order"),
    "split_by_circle": ("values",),
    "szego_polys": ("seq", "n"),
    "szego_verify": ("seq",),
    "tail_schur": ("seq", "N"),
    "verify_identities": ("seq", "n", "grid"),
    "wall_polys": ("seq", "n"),
    "zero_count_trace": ("seq", "n_max"),
    "zero_migration": ("seq", "n_values"),
}

# class name: its public methods and properties, for each exported class
# that has any (those of the classes it inherits from within opuc included)
METHODS = {
    "ComplexPoly": ("degree", "is_zero", "magnitude_bound", "reverse", "shifted"),
    "RationalFn": ("value",),
    "VerblunskySequence": ("N", "alpha"),
}


def _parameters(obj) -> tuple[str, ...] | None:
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:
        return None


def test_exported_names():
    assert opuc.__all__ == sorted(API)
    assert all(hasattr(opuc, name) for name in opuc.__all__)


def test_parameter_names():
    assert {name: _parameters(getattr(opuc, name)) for name in opuc.__all__} == API


def _methods(cls) -> tuple[str, ...]:
    return tuple(sorted(
        name for klass in cls.__mro__ if klass.__module__.startswith("opuc")
        for name, value in vars(klass).items()
        if not name.startswith("_") and (callable(value) or isinstance(value, property))))


def test_public_methods():
    classes = [getattr(opuc, name) for name in opuc.__all__]
    snapshot = {cls.__name__: _methods(cls) for cls in classes if inspect.isclass(cls)}
    assert {name: methods for name, methods in snapshot.items() if methods} == METHODS


def test_no_signature_only_for_exception_classes():
    for name, params in API.items():
        if params is None:
            assert issubclass(getattr(opuc, name), Exception), name
