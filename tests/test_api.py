"""The public API as a snapshot: the names ``opuc`` exports, the parameter
names of each exported callable and the public methods and properties of
each exported class.  Adding, removing or renaming a parameter or a method
shows up here as a diff.  The package's source names no extended-precision
type, so no answer depends on the platform's long double, its Schur
module imports no numpy, and it imports nothing but numpy and the standard
library."""

import ast
import inspect
import re
import sys
from pathlib import Path

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


def test_source_names_no_extended_precision_type():
    # np.longdouble is float64 on some platforms (e.g. Windows and macOS on arm64)
    pattern = re.compile(r"c?longdouble|float128|complex256")
    named = [f"{path.name}: {match.group()}"
             for path in sorted(Path(opuc.__file__).parent.glob("*.py"))
             for match in pattern.finditer(path.read_text())]
    assert named == []


def test_schur_imports_no_numpy():
    # schur is coefficient-level rational algebra; sampling on the circle,
    # Khrushchev's split included, belongs to analysis
    tree = ast.parse((Path(opuc.__file__).parent / "schur.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [name for name in imported if "numpy" in name or "_on_circle" in name] == []


def test_imports_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency (pyproject.toml); mpmath,
    # hypothesis and pytest serve the tests alone
    outside = []
    for path in sorted(Path(opuc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in {"numpy", *sys.stdlib_module_names}]
    assert outside == []
