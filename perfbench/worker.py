"""One workload in one process: set-up, the timed or traced loop, metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

``run.py`` starts this with ``src`` on the path and prints what it returns.
MODE ``setup`` stops after set-up; ``time`` runs the closed loop (one
caller, no think time) in whole passes over the ops until about
S seconds have gone, probing the machine's speed between ops (see Probe);
``trace`` runs passes for about S/2 seconds untraced, then as many passes
traced.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import time

_START = time.perf_counter()   # set-up is timed from here, before any import

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import gen
import ops

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

PROBE_EVERY_S = 0.025  # the machine's speed is probed at most this often
PROBE_WINDOW = 1        # an op's speed is the median of this many probes on each side
PROBE_REF_S = 1e-3      # times read as if the probe took this long
SETUP_PROBES = 5        # probes after set-up, to scale setup_s
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
TAIL_SAMPLES = 10       # a percentile is reported with at least this many samples beyond it
ERROR_FLOOR = 1e-16     # relative errors below this read as this, so digits <= 16


# -- statistics ------------------------------------------------------------------

def rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile p among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))   # round: 99.9% of 10000 is 9990


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least TAIL_SAMPLES samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n - rank(p, n) >= TAIL_SAMPLES:
            best = p
    return best


def pass_time(durations: list[float], k: int) -> float:
    """Time of one pass over the k ops: the sum of each op's median duration
    over the passes, so that a slow spell of the machine during part of a
    pass does not move it."""
    return sum(statistics.median(durations[i::k]) for i in range(k))


def percentile_ms(latencies: list[float], p: float, limit_s: float) -> float:
    """Percentile p of the op latencies, in ms.  A refused or failed op
    misses every latency limit, so it sorts as infinitely slow; a
    percentile that lands on one is reported as ``limit_s``, the time of
    one pass over all the ops.  That limit does not depend on how many
    passes fit into the run, so it moves in step with the loop's speed."""
    value = sorted(latencies)[rank(p, len(latencies)) - 1]
    return 1e3 * (limit_s if math.isinf(value) else value)


def error_percentile(n: int) -> float:
    """The tail rule of the latencies, with the median when no percentile
    has ten errors beyond it."""
    return tail_percentile(n) or 50.0


def error_digits(errors: list[float]) -> float:
    """Correct digits at percentile error_percentile of the relative errors:
    -log10 of the error that share of them is at or below.  Unlike the
    worst error, it does not swing with one rare case per seed."""
    if not errors:
        return 0.0
    value = sorted(errors)[rank(error_percentile(len(errors)), len(errors)) - 1]
    return -math.log10(max(value, ERROR_FLOOR))


def rate(k: int, n: int) -> float:
    """Share of k in n, as (k + 1) / (n + 2) (Laplace's rule of succession),
    which never reads 0, so that a relative bound on it is defined."""
    return (k + 1) / (n + 2)


# -- the machine's speed ------------------------------------------------------------

class Probe:
    """Measures how fast the machine runs right now, with a fixed kernel
    that never touches opuc: small numpy root-finding and Python arithmetic
    like the library's object work, and one polynomial evaluation on 2^14
    points like its quadrature.

    A shared machine runs at times half as fast as at others, for seconds
    or minutes, whatever runs on it.  ``scale`` multiplies each op's
    duration by PROBE_REF_S over the probe time around it, so that times
    read as they would on a machine where the probe takes PROBE_REF_S
    (at full speed it takes about 1.2 ms on a 2-core x86 machine).  A
    slow spell stretches op and probe alike and cancels.  The kernel runs
    twice per probe and the second run is timed, so that what an op left
    in the caches does not show in the probe."""

    _COEFFS = np.random.default_rng(0).random((8, 12)) + 0j
    _POINTS = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))

    def __init__(self) -> None:
        self.times: list[float] = []
        self._last = -math.inf

    @classmethod
    def kernel(cls) -> float:
        total = 0.0
        for row in cls._COEFFS:
            total += abs(np.polyval(row, np.roots(row)[0]))
            for k in range(30):
                total += k * 1.5
        return total + abs(np.polyval(cls._COEFFS[0], cls._POINTS)).max()

    def take(self) -> None:
        gc.disable()   # a collection the library's garbage set off is not the machine's
        try:
            self.kernel()
            t0 = time.perf_counter()
            self.kernel()
            self.times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self._last = time.perf_counter()

    def maybe(self) -> int:
        """Probe if PROBE_EVERY_S has gone since the last probe; return the
        number of probes so far."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.take()
        return len(self.times)

    def scale(self, durations: list[float], marks: list[int]) -> list[float]:
        """Each duration times PROBE_REF_S over the median of the
        PROBE_WINDOW probes before and after its op (``marks[j]`` is the
        number of probes taken before op j started)."""
        out = []
        for d, m in zip(durations, marks):
            near = self.times[max(0, m - PROBE_WINDOW): m + PROBE_WINDOW]
            out.append(d * PROBE_REF_S / statistics.median(near))
        return out


# -- the loop ----------------------------------------------------------------------

def build(workload: str, seed: int, workdir: Path):
    import opuc
    import opuc.cli

    cases = gen.generate(workload, seed)
    frontier = workload == "near-circle"
    if workload == "cli":
        op_list, warm = ops.cli_ops(opuc.cli, cases, workdir)
    else:
        if workload == "structure":
            op_list = ops.structure_ops(opuc, cases)
        else:
            op_list = ops.verify_ops(opuc, cases)
        warm = ops.warmup_calls(op_list)
    for call in warm:
        try:
            call()
        except Exception:   # noqa: BLE001 -- warm-up only loads code; the loop classifies
            pass
    return opuc, cases, op_list, ops.refusal_types(opuc), frontier


def run_passes(op_list, refusals, frontier: bool, seconds: float | None = None,
               passes: int | None = None, tracer=None, probe: Probe | None = None):
    """Whole passes over op_list: a fixed number, or until about ``seconds``
    have gone (stopping where the next pass would overrun by more than half).
    With a probe, the machine's speed is probed between ops, and the
    returned marks give the number of probes taken before each op."""
    clock = time.perf_counter
    durations: list[float] = []
    results: list = []
    marks: list[int] = []
    pass_walls: list[float] = []
    start = clock()
    done = 0
    while True:
        pass_start = clock()
        for i, op in enumerate(op_list):
            if op.prepare is not None:
                op.prepare()
            if probe is not None:
                marks.append(probe.maybe())
            t0 = clock()
            try:
                out = op.call() if tracer is None else tracer.op(i, op.kind, op.call)
            except Exception as exc:   # noqa: BLE001 -- every exception is an outcome
                t1 = clock()
                res = ops.classify_exception(exc, refusals, frontier)
            else:
                t1 = clock()
                res = op.check(out)
            durations.append(t1 - t0)
            results.append(res)
        pass_walls.append(clock() - pass_start)
        done += 1
        elapsed = clock() - start
        if passes is not None:
            if done >= passes:
                break
        elif elapsed + elapsed / done / 2 >= seconds:
            break
    if probe is not None:
        probe.take()   # so the last op has probes after it
    return durations, results, clock() - start, pass_walls, marks


def check_coverage(op_list, results) -> list[str]:
    """Kinds of op none of whose outputs passed a check in the first pass."""
    checked = {op.kind for op, r in zip(op_list, results) if r.outcome == ops.PASSED}
    return sorted({op.kind for op in op_list} - checked)


def end_to_end(op_list, walls, results, probe: Probe, marks) -> tuple[dict, dict]:
    """Throughputs come from the pass time (see pass_time); percentiles
    pool the ops of all passes.  Both use the op durations at the machine's
    full speed (see Probe)."""
    n = len(results)
    k = len(op_list)
    durations = probe.scale(walls, marks)
    latencies = [d if r.outcome == ops.PASSED else math.inf for d, r in zip(durations, results)]
    one_pass = pass_time(durations, k)
    first = results[:k]
    counts = {o: sum(r.outcome == o for r in first) for o in (ops.PASSED, ops.REFUSED, ops.FAILED)}
    passed = [r for r in first if r.outcome == ops.PASSED]
    errors = [e for r in passed if r.szego for e in r.errors] or \
             [e for r in passed for e in r.errors]
    metrics = {
        "ops_per_s": k / one_pass,
        "passes_per_s": counts[ops.PASSED] / one_pass,
        "op_ms.p50": percentile_ms(latencies, 50.0, one_pass),
        "op_ms.p90": percentile_ms(latencies, 90.0, one_pass),
        "pass_rate": rate(counts[ops.PASSED], k),
        "refused_rate": rate(counts[ops.REFUSED], k),
        "failed_rate": rate(counts[ops.FAILED], k),
        "rel_error.digits": error_digits(errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = tail_percentile(n)
    samples = {
        f"p{p:g}": {"samples": n, "beyond": n - rank(p, n),
                    "missing_ops": sum(math.isinf(x) for x in latencies),
                    "censored": math.isinf(sorted(latencies)[rank(p, n) - 1])}
        for p in (50.0, 90.0)
    }
    if tail is not None:
        samples["tail_rule"] = {"percentile": tail, "ms": percentile_ms(latencies, tail, one_pass)}
    # outcomes are deterministic; a later pass that differs from the first is reported
    unstable = sum(results[j].outcome != results[j % k].outcome for j in range(k, n))
    wall_pass = pass_time(walls, k)
    record = {"outcomes_first_pass": counts, "unstable_outcomes": unstable,
              "percentile_samples": samples, "pass_time_s": one_pass,
              "wall": {"pass_time_s": wall_pass, "ops_per_s": k / wall_pass,
                       "op_ms.p50": 1e3 * statistics.median(walls)},
              "probes": {"count": len(probe.times), "fastest_s": min(probe.times),
                         "median_s": statistics.median(probe.times)},
              "rel_error_source": "szego" if any(r.szego for r in passed) else "checks",
              "rel_error_samples": len(errors),
              "rel_error_percentile": error_percentile(len(errors)),
              "worst_rel_error": max(errors, default=None)}
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        opuc, cases, op_list, refusals, frontier = build(args.workload, args.seed, workdir)
        setup_wall = time.perf_counter() - _START
        probe = Probe()
        for _ in range(SETUP_PROBES):
            probe.take()
        setup_s = setup_wall * PROBE_REF_S / statistics.median(probe.times)
        env = {
            "workload": args.workload, "seed": args.seed, "mode": args.mode,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "inputs_sha256": gen.inputs_hash(cases), "cases": len(cases),
            "ops_per_pass": len(op_list), "setup_s": setup_s, "setup_wall_s": setup_wall,
        }
        if args.mode == "setup":
            print(json.dumps({"env": env}))
            return 0

        timed = args.mode == "time"
        untraced = run_passes(op_list, refusals, frontier,
                              seconds=args.seconds if timed else args.seconds / 2,
                              probe=probe if timed else None)
        durations, results, wall, pass_walls, marks = untraced
        passes = len(pass_walls)
        env.update(passes=passes, attempted=len(results), timed_s=wall, pass_s=pass_walls)
        units = None   # run.py knows the end-to-end units
        if timed:
            metrics, record = end_to_end(op_list, durations, results, probe, marks)
            env.update(record)
        else:
            from tracer import METRICS, Tracer

            tracer = Tracer()
            tracer.install(opuc)
            try:
                _, t_results, t_wall, _, _ = run_passes(op_list, refusals, frontier,
                                                        passes=passes, tracer=tracer)
            finally:
                tracer.uninstall()
            results = results + t_results
            metrics = tracer.metrics(len(t_results))
            metrics["trace.overhead"] = t_wall / wall
            units = {name: unit for name, (_layer, _stat, unit) in METRICS.items()}
            units["trace.overhead"] = "ratio"
            tracer.write_spans(OUT / f"{args.workload}.spans.jsonl")
            per_case = {}
            for _sid, _parent, name, _s, _e, op in tracer.spans:
                if name == "schur.tail_schur":
                    per_case[op] = per_case.get(op, 0) + 1
            tails = [per_case.get(i, 0) / passes for i in range(len(op_list))]
            env.update(traced_s=t_wall, spans=len(tracer.spans), absent=tracer.absent,
                       tail_schur_calls_per_op={"min": min(tails), "median": statistics.median(tails),
                                                "max": max(tails)})

        uncovered = check_coverage(op_list, results)
        faults = [r for r in results if r.fault]
        env["fault_details"] = sorted({r.detail for r in faults})[:5]
        env["failed_details"] = sorted({r.detail for r in results
                                        if r.outcome == ops.FAILED and not r.fault})[:5]
        env["passed_notes"] = sorted({r.detail for r in results
                                      if r.outcome == ops.PASSED and r.detail})[:5]
        if uncovered:
            print(f"error: no passed output check for {', '.join(uncovered)}", file=sys.stderr)
        print(json.dumps({
            "units": units,
            "correct": not faults and not uncovered,
            "attempted": len(results),
            "failed": len(faults),
            "metrics": metrics,
            "env": env,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
