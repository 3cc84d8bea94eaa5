#!/usr/bin/env python3
"""mblab benchmark: run one workload for a fixed time and report its metrics.

  python3 perfbench/run.py --workload desk_staggered --seed 1 --seconds 16 --trace 0

Each iteration runs the workload's fixed problem set once, in a fresh
worker process (worker.py), as a closed loop: one caller that starts the
next iteration only after the previous one has finished.  Iterations
start until --seconds have passed, and at least two run (one of each
kind when traced).
Set-up time comes from two set-up-only worker processes plus every
iteration's own set-up.  Times
are scaled to the machine speed sampled while each worker runs (see
calibration.py); the run record keeps the raw times.

--trace 0 reports the end-to-end metrics, --trace 1 alternates untraced
and traced iterations and reports the per-layer metrics.  Every result is
checked against the reference results; the last line of output is one
JSON object with the keys correct, attempted, failed and metrics.
--workload all runs every workload in turn; --quick uses short problems.

The run exits with code 2, printing no result, when the mblab sources are
not next to this directory.
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

import metrics
from calibration import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 2
MIN_ITERATIONS = 2
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# Pin BLAS/OpenMP pools: the only threads are bifurcation_sweep's own.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def _spawn(workload: str, seed: int, trace: bool, quick: bool, probe: bool,
           deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if quick:
        cmd.append("--quick")
    if probe:
        cmd.append("--probe")
    env = {**os.environ, **PINNED_THREADS}
    timeout = max(1.0, deadline - time.monotonic())
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, deadline: float) -> dict:
    probes = [_spawn(workload, seed, False, quick, True, deadline)
              for _ in range(1 if quick else SETUP_PROBES)]

    untraced, traced = [], []
    wanted = 1 if trace or quick else MIN_ITERATIONS  # untraced iterations
    start = time.monotonic()
    while True:
        use_trace = trace and len(untraced) > len(traced)
        it = _spawn(workload, seed, use_trace, quick, False, deadline)
        (traced if use_trace else untraced).append(it)
        done = time.monotonic() - start >= seconds and len(untraced) >= wanted
        if done and (not trace or traced):
            break

    iterations = untraced + traced
    attempted = sum(i["count"] for it in iterations for i in it["items"])
    failed = sum(i["failed"] for it in iterations for i in it["items"])
    setups = [scaled(it["setup_s"], it["setup_bursts"])
              for it in probes + iterations]
    walls = [scaled(it["wall_s"], it["wall_bursts"])
             for it in untraced]
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cell_steps_per_s": untraced[0]["cell_steps"] / wall,
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in untraced),
    }
    if trace:
        layers = {name: statistics.median(it["layers"][name] for it in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = statistics.median(
            scaled(it["wall_s"], it["wall_bursts"])
            for it in traced) / wall
        spec = metrics.PER_LAYER
        values = layers
    else:
        spec = {k: v[:2] for k, v in metrics.END_TO_END.items()}
    missing_metrics = sorted(set(spec) - set(values))
    if missing_metrics:
        raise WorkerFailed(f"metrics not computed: {missing_metrics}")

    first = iterations[0]
    print(f"# workload {workload}: seed {seed}, order {first['order']}, "
          f"{len(untraced)} untraced and {len(traced)} traced iterations, "
          f"quick={quick}")
    print(f"# environment {json.dumps(probes[0]['environment'])}")
    for it in traced[:1]:
        for name in it["missing"]:
            print(f"# trace: {name} is missing at this commit")
    for item in first["items"]:
        print(f"# oracle {item['name']}: bit_identical={item['bit_identical']} "
              f"max_abs_diff={item['max_abs_diff']:.3g} "
              f"failed={item['failed']}/{item['count']} {item['detail']}")
    lo, hi = _quartiles(walls)
    print(f"# wall_s over {len(walls)} iterations: median {wall:.6g} s, "
          f"quartiles {lo:.6g} .. {hi:.6g} s; unscaled median "
          f"{statistics.median(it['wall_s'] for it in untraced):.6g} s")
    for name, (unit, _better) in spec.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(f"failed_ratio = {failed / attempted!r} ({failed}/{attempted})")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "quick": quick, "setup_samples": setups,
              "untraced": untraced, "traced": traced}
    suffix = f"{workload}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}"
    with open(OUT_DIR / f"run-{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, (unit, _better) in spec.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=metrics.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="short problems, one set-up probe")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mblab" / "__init__.py").is_file():
        print(f"error: no mblab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.quick, deadline)
        except WorkerFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
