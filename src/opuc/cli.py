"""Command-line harness: case-file ingestion, verification, JSON reports,
and CSV grid dumps.

Exit codes for ``verify``: 0 pass, 1 parse/validation failure (a malformed
argument or an output path that cannot be written included), 2 the
verification refused (roots in the circle guard band, roots that could not
be resolved, a failed internal cross-check, a non-finite integrand, a sample
at a pole or a float64 overflow).  Every failure is one line on stderr.
JSON is strict.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_QUAD_MAX_POINTS,
    DEFAULT_QUAD_TOL,
    QUAD_MIN_POINTS,
    AmbiguousRootError,
    MomentReport,
    QuadratureError,
    SzegoReport,
    moments,
    pole_set,
    szego_verify,
    zero_count_trace,
)
from .opuc_core import (
    DEFAULT_GUARD_UNIT,
    CrossCheckError,
    GuardViolationError,
    VerblunskySequence,
    second_kind_polys,
    szego_polys,
)
from .schur import (
    PoleEvaluationError,
    RationalFn,
    as_rational_F,
    khrushchev_split,
    recover_coefficients,
)
from .poly import ComplexPoly, RootFindingError

DEFAULT_VERIFY_TOL = 1e-8


class CaseError(ValueError):
    """A case file failed to parse or validate."""


@dataclass(frozen=True)
class CaseFile:
    seq: VerblunskySequence
    quad_tol: float
    quad_max_points: int
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
    alphas = [_complex_from_obj(a, f"alphas[{j}]") for j, a in enumerate(raw["alphas"])]
    quad = raw.get("quad", {})
    if not isinstance(quad, dict):
        raise CaseError(f"{path}: 'quad' must be an object")
    try:
        guard = _number(raw.get("guard_unit", DEFAULT_GUARD_UNIT))
        tol = _number(quad.get("tol", DEFAULT_QUAD_TOL))
        points = quad.get("max_points", DEFAULT_QUAD_MAX_POINTS)
        max_points = int(points)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CaseError(f"{path}: 'guard_unit' and 'quad' entries must be numbers: {exc}") from exc
    if not 0 < tol < math.inf:
        raise CaseError(f"{path}: 'quad' tol must be positive and finite, got {tol!r}")
    if isinstance(points, bool) or max_points != points or max_points < 1:
        raise CaseError(f"{path}: 'quad' max_points must be a positive integer, got {points!r}")
    if max_points < QUAD_MIN_POINTS:  # the first quadrature level has this many
        raise CaseError(f"{path}: 'quad' max_points must be at least {QUAD_MIN_POINTS}, "
                        f"got {max_points}")
    label = str(raw.get("label", Path(path).stem))
    try:
        seq = VerblunskySequence(alphas, guard)
    except GuardViolationError as exc:
        raise CaseError(f"{path}: index {exc.index} on unit circle") from exc
    except ValueError as exc:
        raise CaseError(f"{path}: {exc}") from exc
    return CaseFile(seq=seq, quad_tol=tol, quad_max_points=max_points, label=label)


def _cx(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def report_to_dict(report: SzegoReport) -> dict:
    return {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "epsilon": report.epsilon,
        "log_integral": report.log_integral,
        "rel_error": report.rel_error,
        "quad_points": report.quad_points,
        "poles": [_cx(p) for p in report.poles],
        "warnings": list(report.warnings),
        "subtracted": [_cx(r) for r in report.subtracted],
    }


def moment_report_to_dict(report: MomentReport) -> dict:
    return {
        "moments": [_cx(c) for c in report.moments],
        "growth_rate": report.growth_rate,
        "predicted_rate": report.predicted_rate,
    }


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))


def _parse_complex_list(text: str, flag: str) -> list[complex]:
    out = []
    for k, part in enumerate(text.split(",")):
        try:
            z = complex(part.strip().replace(" ", ""))
        except ValueError as exc:
            raise CaseError(f"{flag}: entry {k} ({part!r}) is not a complex number") from exc
        if not cmath.isfinite(z):
            raise CaseError(f"{flag}: entry {k} ({part!r}) is not finite")
        out.append(z)
    return out


def _require_positive(*flags: tuple[str, float | None]) -> None:
    """Refuse an option value that is given and not positive, NaN included."""
    for flag, value in flags:
        if value is not None and not value > 0:
            raise ValueError(f"{flag} must be positive, got {value!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    # a --quad-tol or --max-points of 0 would fall back to the case's value
    _require_positive(("--tol", args.tol), ("--quad-tol", args.quad_tol))
    if args.max_points is not None and args.max_points < QUAD_MIN_POINTS:
        raise ValueError(f"--max-points must be at least {QUAD_MIN_POINTS}, got {args.max_points}")
    case = load_case(args.input)
    report = szego_verify(case.seq, tol=args.quad_tol or case.quad_tol,
                          max_points=args.max_points or case.quad_max_points)
    payload = {"label": case.label, **report_to_dict(report)}
    _emit(payload)
    return 0 if report.rel_error < args.tol else 1


def cmd_grid(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    case = load_case(args.input)
    thetas = 2.0 * np.pi * np.arange(args.points) / args.points
    with np.errstate(all="ignore"):  # out-of-range samples end in a refusal, not a warning
        direct = as_rational_F(case.seq)(np.cos(thetas) + 1j * np.sin(thetas)).real
        formula = khrushchev_split(case.seq, case.seq.N).re_F(thetas)
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
    _emit({"label": case.label, "poles": [_cx(p) for p in pole_set(case.seq)]})
    return 0


def cmd_polys(args: argparse.Namespace) -> int:
    case = load_case(args.input)
    phi, phistar = szego_polys(case.seq, args.n)
    psi, psistar = second_kind_polys(case.seq, args.n)
    if not np.isfinite(phi.coeffs + phistar.coeffs + psi.coeffs + psistar.coeffs).all():
        raise OverflowError(f"polynomial coefficients at n = {args.n} overflow float64")
    _emit({
        "label": case.label,
        "n": args.n,
        "phi": [_cx(c) for c in phi.coeffs],
        "phi_star": [_cx(c) for c in phistar.coeffs],
        "psi": [_cx(c) for c in psi.coeffs],
        "psi_star": [_cx(c) for c in psistar.coeffs],
    })
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    case = load_case(args.input)
    m = args.m if args.m is not None else len(case.seq)
    report = moments(case.seq, m, args.order)
    _emit({"label": case.label, "m": m, **moment_report_to_dict(report)})
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    num = _parse_complex_list(args.num, "--num")
    den = _parse_complex_list(args.den, "--den")
    fstar = RationalFn(ComplexPoly(num), ComplexPoly(den))
    result = recover_coefficients(fstar, args.max_n)
    finite = np.isfinite(result.alphas)
    if not finite.all():
        raise OverflowError(
            f"recovered coefficients from alpha_{np.argmin(finite)} on overflow float64")
    _emit({
        "alphas": [_cx(a) for a in result.alphas],
        "terminated": result.termination,
    })
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    case = load_case(args.input)
    n_max = args.n_max if args.n_max is not None else len(case.seq)
    rows = zero_count_trace(case.seq, n_max)
    _emit({
        "label": case.label,
        "rows": [{
            "k": r.k,
            "predicted": r.predicted,
            "actual": r.actual,
            "predicted_star": r.predicted_star,
            "actual_star": r.actual_star,
        } for r in rows],
    })
    return 0


def _run_batch_case(path: Path, tol: float) -> dict:
    entry: dict = {"file": path.name}
    try:
        case = load_case(path)
        entry["label"] = case.label
        report = szego_verify(case.seq, tol=case.quad_tol,
                              max_points=case.quad_max_points)
        entry["report"] = json.dumps(report_to_dict(report), indent=2, allow_nan=False)
        entry["rel_error"] = report.rel_error
        entry["status"] = "pass" if report.rel_error < tol else "fail"
    except Exception as exc:  # one bad case must not lose the summary
        entry["status"] = "fail"
        entry["error_type"] = type(exc).__name__
        entry["error"] = str(exc)
    return entry


def cmd_batch(args: argparse.Namespace) -> int:
    _require_positive(("--tol", args.tol))
    case_dir = Path(args.dir)
    if not case_dir.is_dir():
        print(f"error: {case_dir} is not a directory", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = [_run_batch_case(p, args.tol) for p in sorted(case_dir.glob("*.json"))]
    for entry in entries:
        if "report" in entry:
            (out_dir / f"{Path(entry['file']).stem}.report.json").write_text(
                entry["report"] + "\n")
    worst = max((e["rel_error"] for e in entries if "rel_error" in e), default=None)
    summary = {
        "pass": sum(1 for e in entries if e["status"] == "pass"),
        "fail": sum(1 for e in entries if e["status"] == "fail"),
        "worst_rel_error": worst,
        "cases": [{k: v for k, v in e.items() if k != "report"} for e in entries],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
    _emit(summary)
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
    verify.add_argument("--quad-tol", type=float, default=None,
                        help="override the case quadrature tolerance")
    verify.add_argument("--max-points", type=int, default=None,
                        help="override the case quadrature point cap")
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
