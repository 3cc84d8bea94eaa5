"""One iteration of one workload in a fresh interpreter.

run.py starts this script once per iteration, so each iteration pays the
set-up a command-line user pays and starts with an empty run cache.  It
prints one JSON object: set-up time (process start to the first step),
wall time of the timed call, the speed samples for both (see
calibration.py), peak resident memory, the oracle items and, when traced,
the per-layer values.

  python3 perfbench/worker.py --workload desk_cweno --seed 1 --trace 0 \
      --spawned-at <time.monotonic() of the caller>

--probe stops after set-up; --quick selects the short problem sizes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def _span_inflation(tracer, workload, prepared) -> float:
    """Median run_manifest span inside the sweep over the median span of
    the same manifests run one after another."""
    def run_spans():
        return [s[5] - s[4] for s in tracer.spans
                if s[3] == "experiments.run_manifest"]

    in_sweep = run_spans()
    tracer.spans.clear()
    workload.solo(prepared)
    return statistics.median(in_sweep) / statistics.median(run_spans())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    # NumPy is part of mblab's own import; loading it first lets the
    # sampler time the rest of the set-up.
    import numpy  # noqa: F401
    from calibration import INTERVAL_S, SETUP_INTERVAL_S, SpeedSampler

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        with SpeedSampler(SETUP_INTERVAL_S) as setup_sampler:
            sys.path.insert(0, str(ROOT / "src"))
            import mblab
            if not Path(mblab.__file__).resolve().is_relative_to(ROOT / "src"):
                raise SystemExit(f"mblab imported from {mblab.__file__}, "
                                 f"not {ROOT / 'src'}")
            import metrics
            import workloads
            from tracer import Tracer

            workload = workloads.make(args.workload, args.quick)
            prepared = workload.prepare(args.seed, workdir)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s, "setup_bursts": setup_sampler.samples,
                  "order": prepared.order, "environment": _environment()}
        if args.probe:
            print(json.dumps(result))
            return 0

        tracer = None
        if args.trace:
            tracer = Tracer(metrics.TRACED, metrics.LABELS)
            tracer.install()
        with SpeedSampler(INTERVAL_S) as sampler:
            start = time.perf_counter()
            try:
                output, error = workload.execute(prepared), ""
            except Exception as exc:  # reported as failed items below
                output, error = None, f"{type(exc).__name__}: {exc}"
            wall_s = time.perf_counter() - start
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["wall_bursts"] = sampler.samples

        if tracer is not None:
            summary = tracer.summary()
            cache = tracer.cache_lookups("experiments.run_cached",
                                         "experiments.run_manifest")
            tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
            inflation = 0.0
            if hasattr(workload, "solo") and not error:
                inflation = _span_inflation(tracer, workload, prepared)
            tracer.uninstall()
            result["layers"] = metrics.layer_values(
                summary, cache, workload.staggered_steps(prepared), inflation)
            result["missing"] = tracer.missing

        if error:
            items = [{"name": "execute", "count": workload.attempted(),
                      "failed": workload.attempted(), "bit_identical": False,
                      "max_abs_diff": float("inf"), "detail": error}]
        else:
            observed = workload.observe(prepared, output)
            items = workload.check(observed,
                                   workloads.load_reference(args.workload, args.quick))
        result.update({
            "wall_s": wall_s,
            "cell_steps": workload.cell_steps(prepared),
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "items": items,
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
