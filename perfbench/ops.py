"""The operations of each workload, their output checks, and outcome classes.

An op is one call into the public API of ``opuc`` (in the ``cli`` workload,
one ``opuc.cli.main(argv)`` invocation).  Its outcome is one of

* ``passed``:  the output passes the benchmark's own check;
* ``refused``: a documented refusal -- ``AmbiguousRootError``,
  ``QuadratureError`` or CLI exit code 2;
* ``failed``:  anything else, including a wrong answer, an undocumented
  exception or a traceback.

A failed op is also a *fault* -- counted in the result's ``failed`` and
making ``correct`` false -- when its output is wrong in kind: an exception,
a malformed output, a count or identity that contradicts the inputs.  An
answer of the right kind that misses a numeric tolerance is a failed
outcome the rates report, not a fault; so, on ``near-circle`` only, is a
``CrossCheckError``: the library's own consistency check failing on the
frontier that workload exists to chart.  Any other exception stays a
fault there too.

Calls look up library names on the module at call time (``opuc.szego_verify``,
``cli.main``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gen

PASSED, REFUSED, FAILED = "passed", "refused", "failed"
REFUSAL_NAMES = ("AmbiguousRootError", "QuadratureError")
FRONTIER_NAMES = ("CrossCheckError",)   # failed but not a fault, on near-circle only
REFUSED_EXIT = 2
VERIFY_RTOL = 1e-8       # rhs against the recomputed lhs
LHS_RTOL = 1e-12         # the report's own lhs against the recomputed one
ROUND_TRIP_TOL = 1e-9    # recovered coefficients against the inputs
MOMENT_RTOL = 1e-8       # moments against the numpy series division
POLE_TOL = 1e-6          # poles against the in-disk zeros of Phi_L*
GRID_POINTS = 1024
GRID_RTOL = 1e-10


@dataclass
class Result:
    outcome: str
    fault: bool = False
    errors: tuple[float, ...] = ()   # relative errors of a passed numeric check
    szego: bool = False              # they are Szego relative errors
    detail: str = ""


@dataclass
class Op:
    kind: str
    case: int
    call: Callable[[], Any]
    check: Callable[[Any], Result]
    prepare: Callable[[], None] | None = None   # untimed, before each call


class CheckFailure(Exception):
    """An output contradicts the inputs or the program's own contract."""


def refusal_types(opuc) -> tuple[type, ...]:
    # a refusal class removed by a later refactor simply stops matching
    return tuple(getattr(opuc, name) for name in REFUSAL_NAMES if hasattr(opuc, name))


def classify_exception(exc: BaseException, refusals: tuple[type, ...],
                       frontier: bool = False) -> Result:
    if isinstance(exc, refusals):
        return Result(REFUSED)
    expected = frontier and type(exc).__name__ in FRONTIER_NAMES
    return Result(FAILED, fault=not expected, detail=f"{type(exc).__name__}: {exc}")


def classify_exit(code: int) -> Result | None:
    """Refused for exit 2, failed for any code but 0; None means 'check the output'."""
    if code == 0:
        return None
    if code == REFUSED_EXIT:
        return Result(REFUSED)
    return Result(FAILED, fault=True, detail=f"exit code {code}")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _within(err: float, tol: float, what: str, szego: bool = False) -> Result:
    """Passed if err <= tol; otherwise a failed outcome that is not a fault."""
    if err <= tol:
        return Result(PASSED, errors=(err,), szego=szego)
    return Result(FAILED, detail=f"{what} off by {err:.2e} > {tol:.0e}")


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1.0)


def _checked(fn: Callable[[Any], Result]) -> Callable[[Any], Result]:
    def check(out: Any) -> Result:
        try:
            return fn(out)
        # an output missing, unreadable or of the wrong shape fails its check
        except (CheckFailure, AttributeError, IndexError, KeyError, OSError, TypeError,
                ValueError) as exc:
            return Result(FAILED, fault=True, detail=f"{type(exc).__name__}: {exc}")
    return check


# -- shared checks ----------------------------------------------------------

def _szego_error(rhs: float, lhs: float, ref: float) -> float:
    """Relative error of a report's rhs, once its lhs and rhs are of the right kind."""
    _require(math.isclose(lhs, ref, rel_tol=LHS_RTOL), f"report lhs {lhs!r} != {ref!r}")
    _require(math.isfinite(rhs), f"rhs not finite: {rhs!r}")
    return abs(rhs - ref) / abs(ref)


def _verification(rhs: float, lhs: float, ref: float) -> Result:
    return _within(_szego_error(rhs, lhs, ref), VERIFY_RTOL, "rhs", szego=True)


def _match_poles(poles: list[complex], ref: list[complex]) -> Result:
    _require(len(poles) == len(ref), f"{len(poles)} poles, expected {len(ref)}")
    worst = 0.0
    left = list(ref)
    for p in poles:
        k = min(range(len(left)), key=lambda i: abs(left[i] - p))
        worst = max(worst, abs(left.pop(k) - p))
    return _within(worst, POLE_TOL, "pole")


def _trace_rows(rows: list[tuple[int, int, int, int]], ref: list[tuple[int, int]]) -> None:
    _require(len(rows) == len(ref), f"{len(rows)} trace rows, expected {len(ref)}")
    for k, ((pred, act, pred_s, act_s), expect) in enumerate(zip(rows, ref), start=1):
        _require((pred, pred_s) == expect, f"k={k}: predicted {(pred, pred_s)} != {expect}")
        _require((pred, pred_s) == (act, act_s), f"k={k}: predicted != actual")


# -- workloads ----------------------------------------------------------------

def verify_ops(opuc, cases) -> list[Op]:
    def op(i: int, alphas: list[complex]) -> Op:
        ref = gen.lhs(alphas)
        return Op("szego_verify", i,
                  lambda: opuc.szego_verify(opuc.VerblunskySequence(alphas)),
                  _checked(lambda rep: _verification(rep.rhs, rep.lhs, ref)))
    return [op(i, a) for i, a in enumerate(cases)]


def structure_ops(opuc, cases) -> list[Op]:
    ops = []
    for i, alphas in enumerate(cases):
        seq = lambda a=alphas: opuc.VerblunskySequence(a)
        star_zeros = gen.in_disk_star_zeros(alphas)
        mom_ref = gen.moments_ref(alphas, gen.MOMENT_ORDER)
        trace_ref = gen.trace_ref(alphas, gen.TRACE_N)

        def poles(out, ref=star_zeros):
            return _match_poles(list(out), ref)

        def moments(out, ref=mom_ref):
            _require(len(out.moments) == len(ref), "wrong number of moments")
            return _within(max(_rel(a, b) for a, b in zip(out.moments, ref)),
                           MOMENT_RTOL, "moment")

        def trace(out, ref=trace_ref):
            _trace_rows([(r.predicted, r.actual, r.predicted_star, r.actual_star)
                         for r in out], ref)
            return Result(PASSED)

        def round_trip(out, ref=alphas):
            _require(out.termination is None, f"terminated early: {out.termination}")
            _require(len(out.alphas) == len(ref), "wrong number of coefficients")
            return _within(max(abs(a - b) for a, b in zip(out.alphas, ref)),
                           ROUND_TRIP_TOL, "round trip")

        ops += [
            Op("pole_set", i, lambda s=seq: opuc.pole_set(s()), _checked(poles)),
            Op("moments", i, lambda s=seq, a=alphas: opuc.moments(s(), len(a), gen.MOMENT_ORDER),
               _checked(moments)),
            Op("zero_count_trace", i, lambda s=seq: opuc.zero_count_trace(s(), gen.TRACE_N),
               _checked(trace)),
            Op("round_trip", i, lambda s=seq, a=alphas: opuc.recover_coefficients(
                opuc.as_rational_F(s()), len(a)), _checked(round_trip)),
        ]
    return ops


def batch_check(out_dir: Path, files: list[Path], refs: list[float]) -> Result:
    """A ``batch`` run passes when every report is of the right kind.  A
    report whose rhs misses its tolerance is still a verification the CLI
    answered: it counts among the batch's errors and is noted, but does
    not fail the batch."""
    summary = json.loads((out_dir / "summary.json").read_text())
    _require(summary["pass"] + summary["fail"] == len(files),
             f"summary counts {summary['pass']} + {summary['fail']} != {len(files)}")
    errors = []
    for path, ref in zip(files, refs):
        rep = json.loads((out_dir / f"{path.stem}.report.json").read_text())
        errors.append(_szego_error(rep["rhs"], rep["lhs"], ref))
    misses = sum(e > VERIFY_RTOL for e in errors)
    return Result(PASSED, errors=tuple(errors), szego=True,
                  detail=f"batch: {misses} of {len(errors)} reports miss rhs {VERIFY_RTOL:.0e}"
                  if misses else "")


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def write_case_files(cases, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, alphas in enumerate(cases):
        path = directory / f"case{i:03d}.json"
        path.write_text(json.dumps({
            "alphas": [{"re": a.real, "im": a.imag} for a in alphas],
            "label": f"case{i:03d}",
        }))
        paths.append(path)
    return paths


def warmup_calls(ops: list[Op]) -> list[Callable[[], Any]]:
    """The first op of each kind."""
    seen: dict[str, Callable[[], Any]] = {}
    for op in ops:
        seen.setdefault(op.kind, op.call)
    return list(seen.values())


def cli_ops(opuc_cli, cases, workdir: Path) -> tuple[list[Op], list[Callable[[], Any]]]:
    """One ``batch`` over all case files, ``grid`` on the first few files,
    and ``poles`` and ``trace`` on each; outputs go under ``workdir``.

    Also returns warm-up calls that touch the same code as ``batch`` and
    ``grid`` at a fraction of their cost.
    """
    files = write_case_files(cases, workdir / "cases")
    out_dir = workdir / "batch"
    refs = [gen.lhs(a) for a in cases]

    def run(argv: list[str]) -> Callable[[], CliRun]:
        def call() -> CliRun:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = opuc_cli.main(argv)
                except SystemExit as exc:   # argparse rejects its arguments this way
                    code = exc.code if isinstance(exc.code, int) else 1
            return CliRun(int(code or 0), out.getvalue(), err.getvalue())
        return call

    def clear(path: Path) -> Callable[[], None]:
        # so that each check reads what its own op wrote
        def remove() -> None:
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        return remove

    def cli_check(fn: Callable[[CliRun], Result]) -> Callable[[CliRun], Result]:
        def check(r: CliRun) -> Result:
            if "Traceback" in r.stderr:
                return Result(FAILED, fault=True, detail="traceback on stderr")
            early = classify_exit(r.code)
            return early if early is not None else fn(r)
        return _checked(check)

    def grid(csv_path: Path) -> Callable[[CliRun], Result]:
        def check(r: CliRun) -> Result:
            rows = list(csv.reader(csv_path.read_text().splitlines()))
            _require(rows[0] == ["theta", "reF_direct", "reF_khrushchev", "abs_diff"],
                     f"grid header {rows[0]}")
            _require(len(rows) == GRID_POINTS + 1, f"{len(rows) - 1} grid rows")
            worst = 0.0
            for row in rows[1:]:
                direct, formula, diff = (float(x) for x in row[1:])
                _require(math.isclose(diff, abs(direct - formula), rel_tol=1e-12, abs_tol=1e-300),
                         f"abs_diff column {diff!r} is not |direct - formula|")
                worst = max(worst, diff / max(1.0, abs(direct)))
            return _within(worst, GRID_RTOL, "grid abs_diff")
        return check

    def poles(ref: list[complex]) -> Callable[[CliRun], Result]:
        def check(r: CliRun) -> Result:
            return _match_poles([complex(p["re"], p["im"])
                                 for p in json.loads(r.stdout)["poles"]], ref)
        return check

    def trace(ref: list[tuple[int, int]]) -> Callable[[CliRun], Result]:
        def check(r: CliRun) -> Result:
            rows = json.loads(r.stdout)["rows"]
            _trace_rows([(x["predicted"], x["actual"], x["predicted_star"], x["actual_star"])
                         for x in rows], ref)
            return Result(PASSED)
        return check

    ops = [Op("batch", -1, run(["batch", "--dir", str(files[0].parent), "--out", str(out_dir)]),
              cli_check(lambda r: batch_check(out_dir, files, refs)), clear(out_dir))]
    for i, path in enumerate(files[:gen.CLI_GRID_CASES]):
        csv_path = workdir / f"grid{i}.csv"
        ops.append(Op("grid", i, run(["grid", "--input", str(path), "--points",
                                      str(GRID_POINTS), "--csv", str(csv_path)]),
                      cli_check(grid(csv_path)), clear(csv_path)))
    for i, (path, alphas) in enumerate(zip(files, cases)):
        ops.append(Op("poles", i, run(["poles", "--input", str(path)]),
                      cli_check(poles(gen.in_disk_star_zeros(alphas)))))
        ops.append(Op("trace", i, run(["trace", "--input", str(path)]),
                      cli_check(trace(gen.trace_ref(alphas, len(alphas))))))
    warm = [run(["verify", "--input", str(files[0])]),
            run(["grid", "--input", str(files[0]), "--points", "16",
                 "--csv", str(workdir / "warm.csv")]),
            *warmup_calls(ops[1 + gen.CLI_GRID_CASES:])]
    return ops, warm
