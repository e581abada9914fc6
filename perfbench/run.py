"""The opuc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: verify-suite, near-circle,
structure, cli.  With ``--trace 0`` it prints every end-to-end metric;
with ``--trace 1`` every per-layer metric.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md
in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-suite", "near-circle", "structure", "cli")
SETUP_SAMPLES = 5          # set-ups per run; setup_s is their median
WORKER_TIMEOUT_S = 170.0   # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "passes_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "pass_rate": "ratio",
    "refused_rate": "ratio",
    "failed_rate": "ratio",
    "rel_error.digits": "digits",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # all load is one caller on one thread; np.roots must not fan out to BLAS threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the measured run")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped the worker
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # the library's own log output is kept, counted, and shown in part
    lines = proc.stderr.splitlines()
    out["env"]["stderr_lines"] = len(lines)
    if lines:
        out["env"]["stderr_head"] = lines[:3]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opuc" / "__init__.py").is_file():
        print(f"error: the opuc sources are not at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            result = run_worker(args, "trace", deadline)
        else:
            setups = [run_worker(args, "setup", deadline)["env"]["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            result = run_worker(args, "time", deadline)
            setups.append(result["env"]["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["env"]["setup_samples_s"] = setups
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = result["units"] if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload:>12}  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    if not result["correct"]:
        print("error: output checks failed: "
              f"{result['env'].get('fault_details')}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
