import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import opuc
from opuc.cli import CaseError, load_case, main, report_to_dict
from opuc import CrossCheckError, SzegoReport, VerblunskySequence, szego_verify
from opuc.schur import KhrushchevSplit, PoleEvaluationError

from helpers import NEAR_COMMON_ROOT_ALPHAS


def write_case(path, alphas, **extra):
    payload = {"alphas": [{"re": a.real, "im": a.imag} for a in map(complex, alphas)]}
    payload.update(extra)
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------------------
# verify


def test_verify_single_big(tmp_path, capsys):
    case = write_case(tmp_path / "case_a2.json", [2.0])
    assert main(["verify", "--input", str(case)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lhs"] == -3.0
    assert abs(out["rhs"] + 3.0) < 1e-8
    assert out["epsilon"] == -1
    assert [complex(p["re"], p["im"]) for p in out["poles"]] == [0.5]


def test_verify_empty(tmp_path, capsys):
    case = write_case(tmp_path / "empty.json", [])
    assert main(["verify", "--input", str(case)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lhs"] == 1.0 and out["rhs"] == 1.0


def test_verify_logs_nothing_to_stderr(tmp_path):
    # the library logs nothing, so a verify run that passes writes nothing to
    # stderr, even on a case whose F has a pole and a zero 3e-11 apart
    case = write_case(tmp_path / "case.json", NEAR_COMMON_ROOT_ALPHAS)
    path = [str(Path(opuc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "opuc.cli", "verify", "--input", str(case)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_verify_unit_circle_rejected(tmp_path, capsys):
    case = write_case(tmp_path / "bad.json", [1.0])
    assert main(["verify", "--input", str(case)]) == 1
    err = capsys.readouterr().err
    assert "index 0 on unit circle" in err


def test_verify_invalid_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["verify", "--input", str(bad)]) == 1


def test_verify_honors_tol_flag(tmp_path):
    case = write_case(tmp_path / "case.json", [2.0])
    assert main(["verify", "--input", str(case), "--tol", "1e-300"]) == 1


def test_verify_ambiguous_pole_exits_2(tmp_path, capsys):
    from test_analysis import guard_band_sequence

    case = write_case(tmp_path / "band.json", guard_band_sequence().alphas)
    assert main(["verify", "--input", str(case)]) == 2
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "poles"])
def test_unresolved_roots_are_one_refusal_line(tmp_path, capsys, unresolved_roots, command):
    case = write_case(tmp_path / "roots.json", [2.0, 0.5])
    assert main([command, "--input", str(case)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: root residuals") and err.count("\n") == 1


def test_verify_overflow_is_one_refusal_line(tmp_path, capsys):
    # |alpha_0|^2 and the Phi_1* samples exceed the largest double
    case = write_case(tmp_path / "huge.json", [1e200, 0.5])
    assert main(["verify", "--input", str(case)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: samples of log|Re F| overflow float64")
    assert err.count("\n") == 1


def strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_moments_overflow_is_one_refusal_line(tmp_path, capsys):
    # c_2 onwards exceed the largest double; no NaN reaches stdout
    case = write_case(tmp_path / "huge.json", [1e200, 0.5])
    assert main(["moments", "--input", str(case)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "refused: moments from c_2 on overflow float64\n"


@pytest.mark.parametrize("command, alphas", [
    ("poles", [2.0, 1e-320]),        # Phi_2*'s leading coefficient is subnormal
    ("verify", [1e100, 1e100, 0.5]),  # the roots' powers overflow float64
])
def test_out_of_range_roots_are_one_quiet_refusal_line(tmp_path, capsys, command, alphas):
    case = write_case(tmp_path / "case.json", alphas)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--input", str(case)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert caught == []


def test_poles_names_a_root_beyond_float64_range(tmp_path, capsys):
    # Phi_2* of [2.0, 1e-320] has a root near 1e320: the companion matrix
    # overflows and the Aberth restart misses too
    case = write_case(tmp_path / "case.json", [2.0, 1e-320])
    assert main(["poles", "--input", str(case)]) == 2
    assert capsys.readouterr().err == ("refused: the polynomial has a root beyond float64 "
                                       "range (its companion matrix overflows)\n")


def test_polys_overflow_is_one_refusal_line(tmp_path, capsys):
    case = write_case(tmp_path / "huge.json", [1e200, 1e200])
    assert main(["polys", "--input", str(case), "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "refused: polynomial coefficients at n = 2 overflow float64\n"


def test_cross_check_failure_is_one_refusal_line(tmp_path, capsys, monkeypatch):
    def disagree(seq, *args):
        raise CrossCheckError("2 poles exceed the 1 in-disk zeros of Phi_N*")

    monkeypatch.setattr(opuc.cli, "pole_set", disagree)
    case = write_case(tmp_path / "case.json", [2.0, 0.5])
    assert main(["poles", "--input", str(case)]) == 2
    assert capsys.readouterr().err == "refused: 2 poles exceed the 1 in-disk zeros of Phi_N*\n"


def test_verify_nan_coefficient_rejected(tmp_path, capsys):
    case = tmp_path / "nan.json"
    case.write_text(json.dumps({"alphas": [{"re": math.nan, "im": 0.0}]}))
    assert main(["verify", "--input", str(case)]) == 1
    err = capsys.readouterr().err
    assert "not finite" in err


def test_verify_quad_not_an_object(tmp_path, capsys):
    case = write_case(tmp_path / "quad.json", [2.0], quad=5)
    assert main(["verify", "--input", str(case)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'quad' must be an object" in err


def test_verify_max_points_not_a_number(tmp_path, capsys):
    case = write_case(tmp_path / "points.json", [2.0], quad={"max_points": "lots"})
    assert main(["verify", "--input", str(case)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be numbers" in err


def test_report_roundtrip():
    # the JSON form keeps every field exactly; the second case has three
    # roots of Phi_L* subtracted near the circle
    def points(objs):
        return tuple(complex(p["re"], p["im"]) for p in objs)

    for alphas in ([2, 0.5], [2.0, 0.95, -0.95j, 0.9]):
        report = szego_verify(VerblunskySequence(alphas))
        data = json.loads(json.dumps(report_to_dict(report)))
        again = SzegoReport(**{**data, "poles": points(data["poles"]),
                               "subtracted": points(data["subtracted"]),
                               "warnings": tuple(data["warnings"])})
        assert again == report


def test_verify_lists_subtracted_roots(tmp_path, capsys):
    alphas = [2.0, 0.95, -0.95j, 0.9]
    case = write_case(tmp_path / "case.json", alphas)
    assert main(["verify", "--input", str(case)]) == 0
    out = json.loads(capsys.readouterr().out)
    listed = tuple(complex(r["re"], r["im"]) for r in out["subtracted"])
    assert listed == szego_verify(VerblunskySequence(alphas)).subtracted
    assert len(listed) == 3


# ---------------------------------------------------------------------------
# grid


def test_grid_rows(tmp_path, capsys):
    case = write_case(tmp_path / "case.json", [2.0])
    assert main(["grid", "--input", str(case), "--points", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,reF_direct,reF_khrushchev,abs_diff"
    assert len(lines) == 5
    row = lines[2].split(",")  # theta = pi/2
    assert abs(float(row[0]) - math.pi / 2) < 1e-15
    assert abs(float(row[1]) + 0.6) < 1e-12
    assert abs(float(row[2]) + 0.6) < 1e-12
    assert float(row[3]) < 1e-12


def test_grid_lebesgue(tmp_path, capsys):
    case = write_case(tmp_path / "case.json", [])
    assert main(["grid", "--input", str(case), "--points", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        _, direct, formula, diff = line.split(",")
        assert float(direct) == 1.0 and float(formula) == 1.0


def test_grid_csv_file(tmp_path, capsys):
    case = write_case(tmp_path / "case.json", [0.5])
    out = tmp_path / "grid.csv"
    assert main(["grid", "--input", str(case), "--points", "1", "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,reF_direct,reF_khrushchev,abs_diff"
    row = lines[1].split(",")
    assert abs(float(row[1]) - 3.0) < 1e-12


@pytest.mark.parametrize("points", ["0", "-3"])
def test_grid_rejects_points_below_one(tmp_path, capsys, points):
    case = write_case(tmp_path / "case.json", [2.0, 0.5])
    assert main(["grid", "--input", str(case), "--points", points]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --points") and captured.err.count("\n") == 1


@pytest.mark.parametrize("alphas", [[1e100, 1e100, 0.5], [1e200, 1e200]],
                         ids=["denominator-overflows", "nan-samples"])
def test_grid_overflow_is_one_quiet_refusal_line(tmp_path, capsys, alphas):
    case = write_case(tmp_path / "case.json", alphas)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["grid", "--input", str(case), "--points", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "refused: samples of Re F on the grid overflow float64\n"
    assert caught == []


def test_grid_sample_at_a_pole_is_one_refusal_line(tmp_path, capsys, monkeypatch):
    def at_pole(self, thetas):
        raise PoleEvaluationError("Khrushchev denominator vanishes at theta = 0.0")

    monkeypatch.setattr(KhrushchevSplit, "re_F", at_pole)
    case = write_case(tmp_path / "case.json", [2.0, 0.5])
    assert main(["grid", "--input", str(case), "--points", "8"]) == 2
    assert capsys.readouterr().err == "refused: Khrushchev denominator vanishes at theta = 0.0\n"


def test_grid_builds_tail_once(tmp_path, capsys, tail_builds):
    case = write_case(tmp_path / "case.json", [2.0, 0.5j, -0.3])
    assert main(["grid", "--input", str(case), "--points", "64"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 65
    assert tail_builds == [1]


def test_grid_builds_no_wall_product(tmp_path, capsys, wall_builds):
    case = write_case(tmp_path / "case.json", [2.0, 0.5j, -0.3])
    assert main(["grid", "--input", str(case), "--points", "64"]) == 0
    assert wall_builds == []


# ---------------------------------------------------------------------------
# other subcommands


def test_poles_json(tmp_path, capsys):
    case = write_case(tmp_path / "case.json", [2.0, 0.5])
    assert main(["poles", "--input", str(case)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["poles"]) == 1
    assert abs(out["poles"][0]["re"] - (math.sqrt(3) - 1)) < 1e-9
    assert abs(out["poles"][0]["im"]) < 1e-12


def test_polys_json(tmp_path, capsys):
    case = write_case(tmp_path / "case.json", [2.0, 0.5])
    assert main(["polys", "--input", str(case), "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [c["re"] for c in out["phi"]] == [-0.5, -1.0, 1.0]
    assert [c["re"] for c in out["phi_star"]] == [1.0, -1.0, -0.5]


def test_moments_json(tmp_path, capsys):
    case = write_case(tmp_path / "case.json", [2.0])
    assert main(["moments", "--input", str(case), "--order", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [c["re"] for c in out["moments"]] == [2, 4, 8, 16, 32]
    assert abs(out["growth_rate"] - 2.0) < 1e-12


def test_recover_json(capsys):
    assert main(["recover", "--num", "1,2", "--den", "1,-2", "--max-n", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [c["re"] for c in out["alphas"]] == [2, 0, 0, 0]
    assert out["terminated"] is None


def test_recover_bad_coefficient(capsys):
    assert main(["recover", "--num", "1,zzz", "--den", "1", "--max-n", "2"]) == 1


@pytest.mark.parametrize("num, den, entry", [
    ("nan", "1", "--num: entry 0 ('nan') is not finite"),
    ("1,2", "1,inf", "--den: entry 1 ('inf') is not finite"),
])
def test_recover_non_finite_entry_is_one_error_line(capsys, num, den, entry):
    assert main(["recover", "--num", num, "--den", den, "--max-n", "5"]) == 1
    assert capsys.readouterr().err == f"error: {entry}\n"


def test_recover_overflow_is_one_refusal_line(capsys):
    # F_* normalized by den(0) = 1e-308 has a coefficient beyond float64
    assert main(["recover", "--num", "1e308,1e308", "--den", "1e-308,1", "--max-n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: ") and captured.err.count("\n") == 1
    assert "overflow float64" in captured.err


def test_recover_negative_max_n_is_one_error_line(capsys):
    assert main(["recover", "--num", "1,2", "--den", "1,-2", "--max-n", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: max_n must be nonnegative, got -1\n"


@pytest.mark.parametrize("num, code, err", [
    ("0,1", 1, "error: F_*(0) = 0: the Moebius seed is undefined\n"),
    # F_*(0) = 1 is 7.1e-309 of |1| + |1e308 + 1e308j|: nonzero, but the seed
    # cancels to rounding
    ("1,1e308+1e308j", 2, "refused: |F_*(0)| is 7.1e-309 of the numerator's sum_k |c_k|, "
                          "at most 1e-14: the Moebius seed has a pole at z = 0 to rounding\n"),
], ids=["zero", "tiny"])
def test_recover_zero_and_tiny_seed_constant(capsys, num, code, err):
    assert main(["recover", "--num", num, "--den", "1,0.5", "--max-n", "3"]) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", [
    ["grid", "--input", "c.json", "--points", "abc"],
    ["grid", "--points", "16"],
    ["recover", "--num", "1", "--den", "1", "--max-n", "1.5"],
    ["verify", "--input", "c.json", "--tol"],
    ["nosuchcommand"],
    [],
])
def test_malformed_command_line_is_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: opuc") and captured.err.count("\n") == 1


def test_cached_parser_behaves_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    # one parser serves every call in a process; a malformed command line or
    # a bad --input between calls must leave nothing behind
    case = str(write_case(tmp_path / "case.json", [2.0, 0.5j, -0.3]))
    calls = [
        ["poles", "--input", case],
        ["grid", "--input", case, "--points", "abc"],
        ["grid", "--input", case, "--points", "4"],
        ["trace", "--input", str(tmp_path / "missing.json")],
        ["trace", "--input", case, "--n-max", "2"],
        ["recover", "--num", "1"],
        ["recover", "--num", "1,2", "--den", "1,-2", "--max-n", "3"],
        ["verify", "--input", case, "--tol", "0"],
        ["moments", "--input", case, "--order", "3"],
        ["polys", "--input", case, "--n", "2"],
        ["poles", "--input", case],
    ]

    def run_all():
        results = []
        for argv in calls:
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    assert opuc.cli.build_parser() is opuc.cli.build_parser()
    cached = run_all()
    monkeypatch.setattr(opuc.cli, "build_parser", opuc.cli.build_parser.__wrapped__)
    assert cached == run_all()
    assert [code for code, _, _ in cached] == [0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["grid", "--help"])
    assert exit_.value.code == 0
    assert "--points" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["recover", "--num", "1", "--den", "0,1", "--max-n", "2"],
    ["recover", "--num", "0", "--den", "1", "--max-n", "2"],
    ["polys", "--n", "-1"],
    ["moments", "--order", "0"],
    ["moments", "--m", "-1"],
    ["verify", "--quad-tol", "nan"],   # would run to the point cap
    ["verify", "--quad-tol", "0"],     # would fall back to the case's tolerance
    ["verify", "--max-points", "0"],
    ["verify", "--max-points", "63"],  # the first quadrature level has 64 points
    ["verify", "--tol", "nan"],        # printed a report and exited 1
    ["verify", "--tol", "0"],
    ["verify", "--tol", "-1"],
    ["batch", "--tol", "nan"],         # marked every case "fail"
    ["batch", "--tol", "0"],
    ["batch", "--tol", "-1"],
    ["trace", "--n-max", "-1"],        # answered with no rows
])
def test_bad_argument_is_one_error_line(tmp_path, capsys, argv):
    case = write_case(tmp_path / "case.json", [2.0, 0.5])
    if argv[0] == "batch":
        argv = [argv[0], "--dir", str(tmp_path), "--out", str(tmp_path / "out"), *argv[1:]]
    elif argv[0] != "recover":
        argv = [argv[0], "--input", str(case), *argv[1:]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_trace_json(tmp_path, capsys):
    case = write_case(tmp_path / "case.json", [2.0, 0.5])
    assert main(["trace", "--input", str(case)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [(r["predicted"], r["actual"]) for r in out["rows"]] == [(0, 0), (1, 1)]


# ---------------------------------------------------------------------------
# batch


def test_batch_mixed(tmp_path, capsys):
    cases = tmp_path / "cases"
    cases.mkdir()
    write_case(cases / "a.json", [2.0], label="a")
    write_case(cases / "b.json", [0.5], label="b")
    write_case(cases / "c.json", [], label="c")
    write_case(cases / "bad.json", [1.0])
    out_dir = tmp_path / "results"
    assert main(["batch", "--dir", str(cases), "--out", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] == 3 and summary["fail"] == 1
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "a.report.json").exists()
    assert not (out_dir / "bad.report.json").exists()
    statuses = {c["file"]: c["status"] for c in summary["cases"]}
    assert statuses["bad.json"] == "fail"


def test_batch_records_nan_case_and_writes_summary(tmp_path, capsys):
    cases = tmp_path / "cases"
    cases.mkdir()
    write_case(cases / "a.json", [2.0])
    (cases / "nan.json").write_text(json.dumps({"alphas": [{"re": math.nan, "im": 0.0}]}))
    out_dir = tmp_path / "results"
    assert main(["batch", "--dir", str(cases), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["pass"] == 1 and summary["fail"] == 1
    assert "not finite" in summary["cases"][1]["error"]


def test_batch_records_unresolved_roots_and_writes_summary(tmp_path, capsys, unresolved_roots):
    cases = tmp_path / "cases"
    cases.mkdir()
    write_case(cases / "a.json", [])  # F = 1: no root-finding
    write_case(cases / "roots.json", [2.0, 0.5])
    out_dir = tmp_path / "results"
    assert main(["batch", "--dir", str(cases), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["pass"] == 1 and summary["fail"] == 1
    entry = summary["cases"][1]
    assert entry["file"] == "roots.json" and entry["status"] == "fail"
    assert entry["error_type"] == "RootFindingError"
    assert entry["error"].startswith("root residuals")


def test_batch_writes_strict_json(tmp_path, capsys, monkeypatch):
    # a report carrying NaN becomes a recorded failure, not a NaN token
    import opuc.cli
    from opuc.analysis import SzegoReport

    def nan_report(seq, **kwargs):
        nan = float("nan")
        return SzegoReport(lhs=1.0, poles=(), epsilon=1, log_integral=nan, rhs=nan,
                           rel_error=nan, quad_points=64, warnings=())

    monkeypatch.setattr(opuc.cli, "szego_verify", nan_report)
    cases = tmp_path / "cases"
    cases.mkdir()
    write_case(cases / "a.json", [2.0])
    out_dir = tmp_path / "results"
    assert main(["batch", "--dir", str(cases), "--out", str(out_dir)]) == 0
    summary = strict_json((out_dir / "summary.json").read_text())
    assert strict_json(capsys.readouterr().out) == summary
    assert summary["fail"] == 1 and summary["worst_rel_error"] is None
    assert summary["cases"][0]["error_type"] == "ValueError"
    assert not (out_dir / "a.report.json").exists()


def test_batch_empty_dir(tmp_path, capsys):
    cases = tmp_path / "cases"
    cases.mkdir()
    assert main(["batch", "--dir", str(cases), "--out", str(tmp_path / "r")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"pass": 0, "fail": 0, "worst_rel_error": None, "cases": []}


def test_batch_missing_dir(tmp_path):
    assert main(["batch", "--dir", str(tmp_path / "nope"), "--out", str(tmp_path / "r")]) == 1


# ---------------------------------------------------------------------------
# fuzz

# exponents of the coefficient moduli, kept off 0 so no modulus is within the
# guard of the circle (such a case is invalid input, exit 1)
_exponents = st.floats(-320.0, 300.0).filter(lambda e: abs(e) > 1e-6)
_coefficients = st.builds(lambda e, t: complex(10.0 ** e * complex(math.cos(t), math.sin(t))),
                          _exponents, st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=25, deadline=None)
@given(st.lists(_coefficients, min_size=1, max_size=6))
def test_cli_answers_or_refuses_on_any_valid_case(alphas):
    # valid cases of any scale: exit 0, 1 (verify: rel_error above --tol) or
    # 2 (refused), at most one stderr line and never "error:", strict JSON
    with tempfile.TemporaryDirectory() as tmp:
        case = str(write_case(Path(tmp) / "case.json", alphas))
        for argv in (["poles"], ["trace"], ["moments"], ["polys", "--n", str(len(alphas))],
                     ["verify", "--max-points", "4096"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([argv[0], "--input", case, *argv[1:]])
            assert code in (0, 1, 2), argv
            assert err.getvalue().count("\n") <= 1 and not err.getvalue().startswith("error:"), argv
            assert [str(w.message) for w in caught] == [], argv
            if code != 2:
                strict_json(out.getvalue())


def _run_cli(argv) -> tuple[int, str, str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


# entries of --num/--den: numbers of any size, NaN and infinities, complex
# literals and junk
_number_text = st.one_of(
    st.floats().map(repr),
    st.builds(lambda e, t: repr(10.0 ** e * complex(math.cos(t), math.sin(t))),
              st.floats(-320.0, 300.0), st.floats(0.0, 2.0 * math.pi)),
    st.integers(-10, 10).map(str),
    st.text(alphabet="0123456789.+-ejinfa ", max_size=8),
)
_coefficient_list = st.lists(_number_text, min_size=1, max_size=5).map(",".join)


@settings(max_examples=60, deadline=None)
@given(_coefficient_list, _coefficient_list, st.integers(-3, 12))
def test_recover_answers_or_refuses_on_any_arguments(num, den, max_n):
    # exit 0 with strict JSON, 1 (a malformed argument) or 2 (refused); one
    # stderr line at most and no warning
    code, out, err, caught = _run_cli(
        ["recover", f"--num={num}", f"--den={den}", "--max-n", str(max_n)])
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and caught == []
    if code == 0:
        strict_json(out)
    else:
        assert out == "" and err.startswith("error: " if code == 1 else "refused: ")


_json_scalars = st.one_of(st.none(), st.booleans(), st.text(max_size=6),
                          st.integers(-10 ** 400, 10 ** 400), st.floats())
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_numbers = st.one_of(st.integers(-10 ** 400, 10 ** 400), st.floats(), st.text(max_size=5))
_alpha_entries = st.one_of(st.fixed_dictionaries({"re": _numbers, "im": _numbers}), _json_values)
_case_payloads = st.one_of(
    st.text(max_size=20),
    _json_values.map(json.dumps),
    st.fixed_dictionaries(
        {"alphas": st.one_of(st.lists(_alpha_entries, max_size=4), _json_values)},
        optional={"quad": st.one_of(
                      st.fixed_dictionaries({}, optional={"tol": _numbers, "max_points": _numbers}),
                      _json_values),
                  "guard_unit": _numbers,
                  "label": _json_values}).map(json.dumps),
)


@settings(max_examples=40, deadline=None)
@given(_case_payloads)
def test_cli_answers_or_refuses_on_any_case_file(payload):
    # a file that is no valid case exits 1 with one "error:" line from every
    # command; a valid one exits 0, 1 (verify above --tol) or 2 (refused)
    # with at most one stderr line and strict JSON on stdout
    with tempfile.TemporaryDirectory() as tmp:
        case = Path(tmp) / "case.json"
        case.write_text(payload)
        try:
            load_case(case)
            valid = True
        except CaseError:
            valid = False
        for argv in (["poles"], ["trace"], ["moments"], ["polys", "--n", "2"],
                     ["verify", "--max-points", "4096"], ["grid", "--points", "16"]):
            code, out, err, caught = _run_cli([argv[0], "--input", str(case), *argv[1:]])
            assert code in ((0, 1, 2) if valid else (1,)), argv
            assert err.count("\n") <= 1 and caught == [], argv
            if not valid:
                assert out == "" and err.startswith("error: "), argv
            elif code == 0 and argv[0] != "grid":
                strict_json(out)


def _output_path(root: Path, kind: str, name: str) -> Path:
    """A path to write to: new, an existing file, an existing directory, or
    one below a file (which cannot be made)."""
    target = root / name
    if kind == "file":
        target.write_text("old\n")
    elif kind == "dir":
        target.mkdir()
    elif kind == "below-file":
        (root / "plain").write_text("")
        target = root / "plain" / name
    return target


_output_kinds = st.sampled_from(["new", "file", "dir", "below-file"])
_points = st.one_of(st.integers(-3, 64).map(str), st.sampled_from(["", "abc", "1.5", "1e3", "-"]))


@settings(max_examples=30, deadline=None)
@given(st.lists(_coefficients, max_size=4), _points, st.one_of(st.none(), _output_kinds))
def test_grid_answers_or_refuses_on_any_arguments(alphas, points, csv):
    # exit 0 with one finite row per point, 1 (a malformed argument or an
    # output that cannot be written) or 2 (refused); one stderr line at most
    with tempfile.TemporaryDirectory() as tmp:
        case = str(write_case(Path(tmp) / "case.json", alphas))
        argv = ["grid", "--input", case, f"--points={points}"]
        if csv is not None:
            target = _output_path(Path(tmp), csv, "grid.csv")
            argv += ["--csv", str(target)]
        code, out, err, caught = _run_cli(argv)
        assert code in (0, 1, 2)
        assert err.count("\n") <= 1 and caught == []
        if code != 0:
            assert out == "" and err.startswith("error: " if code == 1 else "refused: ")
            return
        text = out if csv is None else target.read_text()
        lines = text.splitlines()
        assert len(lines) == int(points) + 1
        assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(","))


_tols = st.one_of(st.floats().map(repr), st.text(alphabet="0123456789.-einfa", max_size=5))
_junk_payloads = st.one_of(st.text(max_size=20), _json_values.map(json.dumps))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.lists(_coefficients, max_size=4), _junk_payloads), max_size=3),
       _tols, _output_kinds, st.booleans())
def test_batch_answers_on_any_arguments_and_writes_its_summary(cases, tol, out, dir_exists):
    # exit 0 with the summary on stdout and in summary.json, both strict JSON
    # and one entry per case file; or exit 1 with one error line (a malformed
    # --tol, a missing --dir, an --out that cannot be made)
    with tempfile.TemporaryDirectory() as tmp:
        case_dir = Path(tmp) / "cases"
        if dir_exists:
            case_dir.mkdir()
            for j, case in enumerate(cases):
                if isinstance(case, list):
                    write_case(case_dir / f"{j}.json", case, quad={"max_points": 4096})
                else:
                    (case_dir / f"{j}.json").write_text(case)
        out_dir = _output_path(Path(tmp), out, "results")
        code, stdout, err, caught = _run_cli(
            ["batch", "--dir", str(case_dir), "--out", str(out_dir), f"--tol={tol}"])
        assert code in (0, 1)
        assert err.count("\n") <= 1 and caught == []
        if code == 1:
            assert stdout == "" and err.startswith("error: ")
            return
        summary = strict_json((out_dir / "summary.json").read_text())
        assert strict_json(stdout) == summary
        assert len(summary["cases"]) == len(cases)
        assert summary["pass"] + summary["fail"] == len(cases)


@pytest.mark.parametrize("payload, message", [
    ('{"alphas": [{"re": 1%s, "im": 0}]}' % ("0" * 400,), "alphas[0]: expected an object"),
    ('{"alphas": [{"re": 1.0, "im": 0}], "guard_unit": NaN}', "guard_unit must be positive"),
    ('{"alphas": [{"re": 0.5, "im": 0}], "quad": {"tol": NaN}}', "'quad' tol must be positive"),
    ('{"alphas": [{"re": 0.5, "im": 0}], "quad": {"tol": Infinity}}',
     "'quad' tol must be positive and finite"),
    ('{"alphas": [{"re": 0.5, "im": 0}], "quad": {"max_points": 0}}',
     "'quad' max_points must be a positive integer"),
    ('{"alphas": [{"re": 0.5, "im": 0}], "quad": {"max_points": true}}',
     "'quad' max_points must be a positive integer"),
    ('{"alphas": [{"re": 0.5, "im": 0}], "quad": {"max_points": 2.5}}',
     "'quad' max_points must be a positive integer"),
    ('{"alphas": [{"re": 2.0, "im": 0}, {"re": 0.5, "im": 0}], "quad": {"max_points": 1}}',
     "'quad' max_points must be at least 64, got 1"),
    ('{"alphas": [{"re": 0.5, "im": 0}], "quad": {"max_points": 63}}',
     "'quad' max_points must be at least 64, got 63"),
    ("[" * 100000 + "]" * 100000, "JSON nested too deeply"),
    ('{"alphas": [{"re": "2.0", "im": 0}]}', "alphas[0]: expected an object with numbers"),
    ('{"alphas": [{"re": 2.0, "im": "0"}]}', "alphas[0]: expected an object with numbers"),
    ('{"alphas": [{"re": 0.5, "im": 0}, {"re": true, "im": 0}]}',
     "alphas[1]: expected an object with numbers"),
    ('{"alphas": [{"re": 0.5, "im": false}]}', "alphas[0]: expected an object with numbers"),
    ('{"alphas": [{"re": 0.5, "im": 0}], "guard_unit": "1e-8"}', "entries must be numbers"),
    ('{"alphas": [{"re": 0.5, "im": 0}], "guard_unit": true}', "entries must be numbers"),
    ('{"alphas": [{"re": 0.5, "im": 0}], "quad": {"tol": "1e-3"}}', "entries must be numbers"),
    ('{"alphas": [{"re": 0.5, "im": 0}], "quad": {"tol": true}}', "entries must be numbers"),
])
def test_malformed_case_file_is_one_error_line(tmp_path, capsys, payload, message):
    # an integer beyond float64, a NaN guard (which would admit |alpha| = 1),
    # a NaN or infinite quadrature tolerance (the latter stopped after 128
    # points), a point cap that is no positive integer (0 stopped after one
    # level) or below the first level's 64 points (1 answered on 64 and
    # warned of a cap of 1), nesting beyond the recursion limit, and strings
    # or booleans where a number belongs
    case = tmp_path / "case.json"
    case.write_text(payload)
    assert main(["poles", "--input", str(case)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
