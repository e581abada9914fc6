"""Tests of the benchmark itself (not of opuc):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import ops  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = gen.generate(workload, 11)
    again = gen.generate(workload, 11)
    other = gen.generate(workload, 12)
    assert first == again
    assert gen.inputs_hash(first) == gen.inputs_hash(again)
    assert gen.inputs_hash(first) != gen.inputs_hash(other)


def test_generator_imports_numpy_only():
    import ast

    tree = ast.parse((HERE / "gen.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "hashlib", "json", "numpy"}


def test_near_circle_takes_one_case_per_margin_window():
    cases = gen._near_circle_base()
    assert len(cases) == len(gen.NEAR_CIRCLE_LENGTHS) * 8
    for L in gen.NEAR_CIRCLE_LENGTHS:
        edges = gen.NEAR_CIRCLE_WINDOWS[L]
        margins = sorted(gen._log_margin(a) for a in cases if len(a) == L)
        for k, m in enumerate(margins):
            assert edges[2 * k] <= m <= edges[2 * k + 1]


def test_near_circle_seeds_rotate_the_same_cases():
    a, b = gen.generate("near-circle", 5), gen.generate("near-circle", 6)
    for x, y in zip(a, b):
        assert [abs(v) for v in x] == pytest.approx([abs(v) for v in y])
        assert x != y


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    assert worker.tail_percentile(n) == expected


def test_tail_percentile_rule_holds_for_every_count():
    for n in range(1, 3000):
        p = worker.tail_percentile(n)
        higher = [q for q in worker.PERCENTILES if p is None or q > p]
        if p is not None:
            assert n - worker.rank(p, n) >= worker.TAIL_SAMPLES
        assert all(n - worker.rank(q, n) < worker.TAIL_SAMPLES for q in higher)


def test_missing_op_percentile_reads_as_pass_time():
    lat = [0.001] * 4 + [float("inf")] * 6
    assert worker.percentile_ms(lat, 50.0, 2.5) == 2500.0
    assert worker.percentile_ms(lat, 10.0, 2.5) == 1.0


def test_pass_time_sums_each_ops_median_over_passes():
    # three ops, three passes; op 1 hits a slow spell in the second pass
    durations = [1.0, 2.0, 3.0,
                 1.0, 9.0, 3.0,
                 1.2, 2.0, 3.0]
    assert worker.pass_time(durations, 3) == 6.0


def test_missing_op_percentile_orders_by_speed_whatever_the_pass_count():
    lat = [0.001] * 4 + [float("inf")] * 6
    slow_one_pass = worker.pass_time([1.4] * 10, 10)
    fast_two_passes = worker.pass_time([1.3] * 20, 10)
    assert (worker.percentile_ms(lat * 2, 50.0, fast_two_passes)
            < worker.percentile_ms(lat, 50.0, slow_one_pass))


def test_probe_scaling_cancels_a_slow_spell():
    probe = worker.Probe()
    ref = worker.PROBE_REF_S
    # ten probes at full speed, then ten at half speed
    probe.times = [ref] * 10 + [2 * ref] * 10
    # the same op, once in each spell, takes twice as long in the slow one
    scaled = probe.scale([0.004, 0.008], marks=[3, 17])
    assert scaled == pytest.approx([0.004, 0.004])
    # an op's speed is the median of the probes on both sides of it
    assert probe.scale([0.004], marks=[10]) == pytest.approx([0.004 * 2 / 3])


def test_probe_counts_its_probes():
    probe = worker.Probe()
    assert probe.maybe() == 1      # the first call always probes
    assert probe.maybe() == 1      # too soon for another
    probe.take()
    assert len(probe.times) == 2 and all(t > 0 for t in probe.times)


def test_error_digits_follow_the_tail_rule():
    # 100 errors: p90 has ten beyond it
    assert worker.error_digits([1e-12] * 89 + [1e-9] * 11) == pytest.approx(9.0)
    assert worker.error_digits([1e-12] * 91 + [1e-9] * 9) == pytest.approx(12.0)
    # fewer than 20: no percentile has ten beyond, so the median
    assert worker.error_digits([1e-12] * 9 + [1e-6] * 6) == pytest.approx(12.0)
    assert worker.error_digits([0.0] * 10) == 16.0


def test_rates_never_read_zero():
    assert worker.rate(0, 200) == 1 / 202
    assert worker.rate(200, 200) == 201 / 202


def test_classifier_maps_documented_refusals_to_refused():
    import opuc

    refusals = ops.refusal_types(opuc)
    assert len(refusals) == 2
    amb = opuc.AmbiguousRootError("roots in the guard band", [1 + 0j])
    for exc in (amb, opuc.QuadratureError("not finite")):
        for frontier in (False, True):
            assert ops.classify_exception(exc, refusals, frontier).outcome == ops.REFUSED
    assert ops.classify_exit(2).outcome == ops.REFUSED


def test_classifier_maps_everything_else_to_failed():
    import opuc

    refusals = ops.refusal_types(opuc)
    res = ops.classify_exception(ValueError("boom"), refusals)
    assert (res.outcome, res.fault) == (ops.FAILED, True)
    cross = opuc.CrossCheckError("poles exceed zeros")
    assert ops.classify_exception(cross, refusals).fault
    # on the frontier workload the consistency check's error is an outcome, not a fault
    res = ops.classify_exception(cross, refusals, frontier=True)
    assert (res.outcome, res.fault) == (ops.FAILED, False)
    # but every other exception, the library's own included, is still a fault there
    others = (ValueError("x"), opuc.RootFindingError("no roots"),
              opuc.PoleEvaluationError("pole"), opuc.GuardViolationError(0, 1.0, 1e-8))
    for exc in others:
        res = ops.classify_exception(exc, refusals, frontier=True)
        assert (res.outcome, res.fault) == (ops.FAILED, True), exc
    for code in (1, 3, 130):
        assert ops.classify_exit(code).outcome == ops.FAILED
    assert ops.classify_exit(0) is None


def test_tracer_counts_calls_and_restores_the_library():
    import opuc
    import opuc.analysis
    from tracer import Tracer

    original = opuc.analysis.pole_set
    tracer = Tracer()
    tracer.install(opuc)
    try:
        tracer.op(0, "pole_set", lambda: opuc.pole_set(opuc.VerblunskySequence([2.0, 0.5])))
    finally:
        tracer.uninstall()
    assert opuc.analysis.pole_set is original and opuc.pole_set is original
    m = tracer.metrics(ops=1)
    assert m["analysis.pole_set.calls"] == 1
    assert m["schur.as_rational_F.calls"] == 1
    assert m["poly.roots.calls"] >= 1
    assert m["analysis.pole_set.self_s"] >= 0
    assert tracer.absent == []
    names = {s[2] for s in tracer.spans}
    assert {"op.pole_set", "analysis.pole_set", "schur.as_rational_F"} <= names


def _batch_output(tmp_path, rhs_scale):
    import json

    cases = gen.generate("cli", 3)[:3]
    files = ops.write_case_files(cases, tmp_path / "cases")
    refs = [gen.lhs(a) for a in cases]
    out = tmp_path / "batch"
    out.mkdir()
    for path, ref, scale in zip(files, refs, rhs_scale):
        (out / f"{path.stem}.report.json").write_text(json.dumps({"lhs": ref, "rhs": ref * scale}))
    (out / "summary.json").write_text(json.dumps({"pass": len(files) - 1, "fail": 1}))
    return out, files, refs


def test_batch_passes_with_a_tolerance_miss_and_notes_it(tmp_path):
    out, files, refs = _batch_output(tmp_path, [1 + 1e-12, 1 + 1e-6, 1.0])
    res = ops.batch_check(out, files, refs)
    assert res.outcome == ops.PASSED and not res.fault
    assert max(res.errors) == pytest.approx(1e-6, rel=1e-3)
    assert "1 of 3" in res.detail


def test_batch_with_a_report_of_the_wrong_kind_is_a_fault(tmp_path):
    out, files, refs = _batch_output(tmp_path, [1.0, float("nan"), 1.0])
    res = ops._checked(lambda _: ops.batch_check(out, files, refs))(None)
    assert (res.outcome, res.fault) == (ops.FAILED, True)
