#!/usr/bin/env python3
"""The benchmark's own checks.

  python3 perfbench/selftest.py

1. BENCHMARK.json declares exactly the workloads, metrics, units and
   bounds the code emits.
2. The oracle passes the stored references and fails injected faults: one
   profile value moved by 1e-6, one sweep entry carrying an error.
3. Quick mode, untraced and traced, over all four workloads finishes in
   under 60 s, emits every metric with its unit for every workload, and is
   correct.
4. The traced quick numbers have the structure of the README's layer
   table.

Prints one PASS/FAIL line per check; exits 1 if any fails.
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402

QUICK_LIMIT_S = 60.0


def check_contract() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(metrics.WORKLOADS):
        problems.append("workload names differ")
    declared = {m["name"]: (m["unit"], m["better"], m["bound"])
                for m in spec["end_to_end"]}
    if declared != metrics.END_TO_END:
        problems.append(f"end_to_end differs: {declared} vs {metrics.END_TO_END}")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != metrics.PER_LAYER:
        problems.append("per_layer differs: "
                        f"{sorted(set(declared) ^ set(metrics.PER_LAYER))}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if max(bounds.values()) != bounds.get("setup_s"):
        problems.append("setup_s must have the largest bound")
    return problems


def check_oracle() -> list:
    problems = []
    for name in metrics.WORKLOADS:
        ref = workloads.load_reference(name, quick=False)
        failed = sum(i["failed"] for i in workloads.make(name, False).check(ref, ref))
        if failed:
            problems.append(f"{name}: the reference fails its own check")

    desk = workloads.make("desk_staggered", False)
    ref = workloads.load_reference("desk_staggered", quick=False)
    moved = dict(ref, trapezoid=ref["trapezoid"].copy())
    moved["trapezoid"][-1, 700] += 1e-6
    items = {i["name"]: i for i in desk.check(moved, ref)}
    bad = items["trapezoid"]
    if not (bad["failed"] == 1 and not bad["bit_identical"]
            and 0.5e-6 < bad["max_abs_diff"] < 2e-6 and not items["midpoint"]["failed"]):
        problems.append(f"profile moved by 1e-6 not caught: {bad}")

    sweep = workloads.make("sweep_matrix", False)
    ref = workloads.load_reference("sweep_matrix", quick=False)
    broken = dict(ref)
    broken["pair4.error"] = np.array("NumericalError: injected")
    failed = sum(i["failed"] for i in sweep.check(broken, ref))
    if failed != 1:
        problems.append(f"sweep entry with an error counted {failed} times, not once")
    return problems


def _quick(trace: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--quick",
           "--seconds", "1", "--seed", "7", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=4 * QUICK_LIMIT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited with {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def check_quick() -> tuple:
    start = time.monotonic()
    untraced, traced = _quick(0), _quick(1)
    elapsed = time.monotonic() - start
    problems = []
    if elapsed >= QUICK_LIMIT_S:
        problems.append(f"quick mode took {elapsed:.1f} s")
    expected = [({k: v[0] for k, v in metrics.END_TO_END.items()}, untraced),
                ({k: v[0] for k, v in metrics.PER_LAYER.items()}, traced)]
    for units, results in expected:
        if len(results) != len(metrics.WORKLOADS):
            problems.append(f"{len(results)} results for {len(metrics.WORKLOADS)} workloads")
        for name, result in zip(metrics.WORKLOADS, results):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{name}: metrics or units differ: "
                                f"{sorted(set(got.items()) ^ set(units.items()))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name}: not correct: {result}")
    return problems, elapsed, dict(zip(metrics.WORKLOADS, traced))


def check_layer_structure(traced: dict) -> list:
    problems = []

    def value(workload, metric):
        return traced[workload]["metrics"][metric]["value"]

    for workload in metrics.WORKLOADS:
        cweno_only = workload == "desk_cweno"
        for metric in ("operators.helmholtz_solve.node4.calls",
                       "cweno.cweno_reconstruct.calls", "cweno.rk4_step.calls"):
            if (value(workload, metric) > 0) != cweno_only:
                problems.append(f"{workload}: {metric} = {value(workload, metric)}")
        study = workload == "truncation_study"
        for metric in ("experiments.run_cached.hits", "bounds.compare_domains.calls",
                       "bounds.bound_constants.calls", "bounds.lemma_audit.calls"):
            if (value(workload, metric) > 0) != study:
                problems.append(f"{workload}: {metric} = {value(workload, metric)}")
        if not value(workload, "trace.overhead_ratio") > 0:
            problems.append(f"{workload}: no trace.overhead_ratio")
    if value("sweep_matrix", "experiments.run_cached.misses") != len(workloads.SWEEP_PAIRS):
        problems.append("sweep_matrix: every lookup should miss")
    if not value("sweep_matrix", "experiments.sweep.span_inflation") > 0:
        problems.append("sweep_matrix: no span inflation")
    return problems


def main() -> int:
    results = [("contract", check_contract()), ("oracle", check_oracle())]
    quick_problems, elapsed, traced = check_quick()
    results.append((f"quick mode ({elapsed:.1f} s)", quick_problems))
    results.append(("layer structure",
                    check_layer_structure(traced) if not quick_problems
                    else ["skipped: quick mode failed"]))
    for label, problems in results:
        print(f"{'PASS' if not problems else 'FAIL'} {label}"
              + "".join(f"\n  {p}" for p in problems))
    return 0 if all(not p for _, p in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
