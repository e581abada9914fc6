"""Command-line harness: case-file ingestion, verification, JSON reports,
and CSV grid dumps.

Exit codes for ``verify``: 0 pass, 1 a report whose relative error misses
``--tol`` (the report goes to stdout, nothing to stderr) or a
parse/validation failure (a malformed argument or an output path that
cannot be written included), 2 the verification refused (roots in the
circle guard band, roots that could not be resolved, a failed internal
cross-check, a non-finite integrand, a sample at a pole or a float64
overflow).  Every error and refusal is one line on stderr.  JSON is strict.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys
from dataclasses import dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    QUAD_MAX_POINTS,
    AmbiguousRootError,
    QuadratureError,
    moments,
    pole_set,
    re_F_khrushchev,
    szego_verify,
    zero_count_trace,
)
from .opuc_core import (
    DEFAULT_GUARD_UNIT,
    CrossCheckError,
    VerblunskySequence,
    omega,
    second_kind_polys,
    szego_polys,
)
from .schur import PoleEvaluationError, RationalFn, recover_coefficients
from .poly import ComplexPoly, RootFindingError, _on_circle

DEFAULT_VERIFY_TOL = 1e-8
MAX_INDEX = 1 << 11  # the largest --n, --n-max, --m, --order and --max-n: at it, trace
                     # on a two-coefficient case takes about 2 s, the others under 1 s;
                     # and the most coefficients in a case file, --num or --den: a case
                     # of 2048 costs verify, poles or moments about 13 s and 300 MB


class CaseError(ValueError):
    """A case file failed to parse or validate."""


@dataclass(frozen=True)
class CaseFile:
    seq: VerblunskySequence
    label: str


def _number(value) -> float:
    """A JSON number as a float; a string, a boolean or anything else that
    is no number is a TypeError, an integer beyond float64 an OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _complex_from_obj(obj, where: str) -> complex:
    try:
        return complex(_number(obj["re"]), _number(obj["im"]))
    except (TypeError, KeyError, OverflowError) as exc:
        raise CaseError(f"{where}: expected an object with numbers 're' and 'im'") from exc


def load_case(path: Path) -> CaseFile:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CaseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CaseError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CaseError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("alphas"), list):
        raise CaseError(f"{path}: case file must be an object with an 'alphas' list")
    if len(raw["alphas"]) > MAX_INDEX:  # refused before any coefficient is read
        raise CaseError(f"{path}: at most {MAX_INDEX} alphas, got {len(raw['alphas'])}")
    alphas = [_complex_from_obj(a, f"alphas[{j}]") for j, a in enumerate(raw["alphas"])]
    try:
        guard = _number(raw.get("guard_unit", DEFAULT_GUARD_UNIT))
    except (TypeError, OverflowError) as exc:
        raise CaseError(f"{path}: 'guard_unit' entries must be numbers: {exc}") from exc
    label = str(raw.get("label", Path(path).stem))
    try:
        seq = VerblunskySequence(alphas, guard)
    except ValueError as exc:  # a GuardViolationError keeps its measured gap
        raise CaseError(f"{path}: {exc}") from exc
    return CaseFile(seq=seq, label=label)


def _encode(obj):
    """A complex number as ``{"re", "im"}``, a dataclass (a report or a
    trace row) as its fields."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(value) -> str:
    """Strict JSON: never NaN or Infinity."""
    return json.dumps(value, indent=2, allow_nan=False, default=_encode)


def _parse_complex_list(text: str, flag: str) -> list[complex]:
    parts, out = text.split(","), []
    _require_bounded(f"the number of {flag} coefficients", len(parts))
    for k, part in enumerate(parts):
        try:
            z = complex(part.strip().replace(" ", ""))
        except ValueError as exc:
            raise CaseError(f"{flag}: entry {k} ({part!r}) is not a complex number") from exc
        if not cmath.isfinite(z):
            raise CaseError(f"{flag}: entry {k} ({part!r}) is not finite")
        out.append(z)
    return out


def _require_positive(flag: str, value: float) -> None:
    """Refuse an option value that is not positive, NaN included."""
    if not value > 0:
        raise ValueError(f"{flag} must be positive, got {value!r}")


def _require_bounded(flag: str, value: int | None) -> None:
    """Refuse an index, order or count above MAX_INDEX before any work, as
    each sizes a Python loop or list (a polynomial of n coefficients costs
    the root finder n x n matrices)."""
    if value is not None and value > MAX_INDEX:
        raise ValueError(f"{flag} must be at most {MAX_INDEX}, got {value}")


def cmd_verify(args: argparse.Namespace) -> int:
    _require_positive("--tol", args.tol)
    case = load_case(args.input)
    report = szego_verify(case.seq)
    print(_dumps({"label": case.label, **vars(report)}))
    return 0 if report.rel_error < args.tol else 1


def cmd_grid(args: argparse.Namespace) -> int:
    if not 1 <= args.points <= QUAD_MAX_POINTS:
        raise ValueError(f"--points must be between 1 and {QUAD_MAX_POINTS}, got {args.points}")
    case = load_case(args.input)
    L = len(case.seq)
    thetas = 2.0 * np.pi * np.arange(args.points) / args.points
    with np.errstate(all="ignore"):  # out-of-range samples end in a refusal, not a warning
        den = _on_circle([szego_polys(case.seq, L)[1].coeffs], args.points)[0]
        if not den.all():  # rounding, not overflow: Phi_L* has no zero on the circle
            raise PoleEvaluationError(
                f"a sample of Phi_L* is 0 at theta = {float(thetas[den == 0][0])!r}")
        # Phi_L Psi_L* + Phi_L* Psi_L = 2 z^L omega_{L-1} makes Re F =
        # omega_{L-1} / |Phi_L*|^2 on the circle, with no difference to cancel;
        # dividing by |Phi_L*| twice keeps its square from overflowing
        mod = np.abs(den)
        direct = omega(case.seq, L - 1) / mod / mod
        formula = re_F_khrushchev(case.seq, case.seq.N, thetas)
    if not (np.isfinite(direct).all() and np.isfinite(formula).all()):
        raise OverflowError("samples of Re F on the grid overflow float64")
    rows = zip(thetas.tolist(), direct.tolist(), formula.tolist(),
               np.abs(direct - formula).tolist())
    lines = ["theta,reF_direct,reF_khrushchev,abs_diff"]
    lines += [f"{t:.17g},{d:.17g},{f:.17g},{e:.17g}" for t, d, f, e in rows]
    text = "\n".join(lines) + "\n"
    if args.csv:
        Path(args.csv).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_poles(args: argparse.Namespace) -> int:
    case = load_case(args.input)
    print(_dumps({"label": case.label, "poles": pole_set(case.seq)}))
    return 0


def cmd_polys(args: argparse.Namespace) -> int:
    _require_bounded("--n", args.n)
    case = load_case(args.input)
    phi, phistar = szego_polys(case.seq, args.n)
    psi, psistar = second_kind_polys(case.seq, args.n)
    if not np.isfinite(phi.coeffs + phistar.coeffs + psi.coeffs + psistar.coeffs).all():
        raise OverflowError(f"polynomial coefficients at n = {args.n} overflow float64")
    print(_dumps({"label": case.label, "n": args.n, "phi": phi.coeffs,
                  "phi_star": phistar.coeffs, "psi": psi.coeffs,
                  "psi_star": psistar.coeffs}))
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    _require_bounded("--order", args.order)
    _require_bounded("--m", args.m)
    case = load_case(args.input)
    m = args.m if args.m is not None else len(case.seq)
    report = moments(case.seq, m, args.order)
    print(_dumps({"label": case.label, "m": m, **vars(report)}))
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    _require_bounded("--max-n", args.max_n)
    num = _parse_complex_list(args.num, "--num")
    den = _parse_complex_list(args.den, "--den")
    fstar = RationalFn(ComplexPoly(num), ComplexPoly(den))
    result = recover_coefficients(fstar, args.max_n)
    finite = np.isfinite(result.alphas)
    if not finite.all():
        raise OverflowError(
            f"recovered coefficients from alpha_{np.argmin(finite)} on overflow float64")
    print(_dumps({"alphas": result.alphas, "terminated": result.termination}))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    _require_bounded("--n-max", args.n_max)
    case = load_case(args.input)
    n_max = args.n_max if args.n_max is not None else len(case.seq)
    rows = zero_count_trace(case.seq, n_max)
    print(_dumps({"label": case.label, "rows": rows}))
    return 0


def _run_batch_case(path: Path, tol: float, out_dir: Path) -> dict:
    """Verify one case file and write its report into ``out_dir``; any
    failure, an unwritable report included, is the case's ``fail`` entry."""
    entry: dict = {"file": path.name}
    try:
        case = load_case(path)
        entry["label"] = case.label
        report = szego_verify(case.seq)
        (out_dir / f"{path.stem}.report.json").write_text(_dumps(report) + "\n")
        entry["rel_error"] = report.rel_error
        entry["status"] = "pass" if report.rel_error < tol else "fail"
    except Exception as exc:  # one bad case must not lose the summary
        entry["status"] = "fail"
        entry["error_type"] = type(exc).__name__
        entry["error"] = str(exc)
    return entry


def cmd_batch(args: argparse.Namespace) -> int:
    _require_positive("--tol", args.tol)
    case_dir = Path(args.dir)
    if not case_dir.is_dir():
        raise ValueError(f"{case_dir} is not a directory")
    out_dir = Path(args.out)
    if out_dir.resolve() == case_dir.resolve():  # a rerun would read the reports as cases
        raise ValueError(f"--out {out_dir} is the --dir directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = [_run_batch_case(p, args.tol, out_dir) for p in sorted(case_dir.glob("*.json"))]
    worst = max((e["rel_error"] for e in entries if "rel_error" in e), default=None)
    summary = {
        "pass": sum(1 for e in entries if e["status"] == "pass"),
        "fail": sum(1 for e in entries if e["status"] == "fail"),
        "worst_rel_error": worst,
        "cases": entries,
    }
    text = _dumps(summary)
    (out_dir / "summary.json").write_text(text + "\n")
    print(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one ValueError (exit 1 in
    ``main``) instead of a usage block and exit 2, the refusal code."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opuc",
        description="Verblunsky-sequence toolkit: Szego identity verification, "
                    "pole sets, moments, and inverse Schur recovery.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="Verify the Szego identity for a case file")
    verify.add_argument("--input", type=Path, required=True, help="case JSON file")
    verify.add_argument("--tol", type=float, default=DEFAULT_VERIFY_TOL,
                        help="pass threshold on the relative error")
    verify.set_defaults(func=cmd_verify)

    grid = sub.add_parser("grid", help="Dump Re F on a circle grid as CSV")
    grid.add_argument("--input", type=Path, required=True)
    grid.add_argument("--points", type=int, default=256)
    grid.add_argument("--csv", type=Path, default=None, help="output file (stdout if omitted)")
    grid.set_defaults(func=cmd_grid)

    poles = sub.add_parser("poles", help="Poles of F inside the unit disk")
    poles.add_argument("--input", type=Path, required=True)
    poles.set_defaults(func=cmd_poles)

    polys = sub.add_parser("polys", help="Recurrence polynomials at index n")
    polys.add_argument("--input", type=Path, required=True)
    polys.add_argument("--n", type=int, required=True)
    polys.set_defaults(func=cmd_polys)

    mom = sub.add_parser("moments", help="Moment sequence and growth rate")
    mom.add_argument("--input", type=Path, required=True)
    mom.add_argument("--order", type=int, default=20, help="number of moments J")
    mom.add_argument("--m", type=int, default=None, help="recurrence index (default: stored length)")
    mom.set_defaults(func=cmd_moments)

    rec = sub.add_parser("recover", help="Inverse Schur recovery from rational F_*")
    rec.add_argument("--num", type=str, required=True,
                     help="comma-separated numerator coefficients, constant first")
    rec.add_argument("--den", type=str, required=True,
                     help="comma-separated denominator coefficients, constant first")
    rec.add_argument("--max-n", type=int, required=True, dest="max_n")
    rec.set_defaults(func=cmd_recover)

    trace = sub.add_parser("trace", help="Zero-count recursion trace")
    trace.add_argument("--input", type=Path, required=True)
    trace.add_argument("--n-max", type=int, default=None, dest="n_max")
    trace.set_defaults(func=cmd_trace)

    batch = sub.add_parser("batch", help="Verify every case file in a directory")
    batch.add_argument("--dir", type=Path, required=True)
    batch.add_argument("--out", type=Path, required=True)
    batch.add_argument("--tol", type=float, default=DEFAULT_VERIFY_TOL)
    batch.set_defaults(func=cmd_batch)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # CaseError and unwritable output paths included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AmbiguousRootError, CrossCheckError, PoleEvaluationError, QuadratureError,
            RootFindingError, OverflowError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
