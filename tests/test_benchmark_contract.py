"""The names the benchmark's tracer wraps and the arguments its labels read.

perfbench/ wraps mblab functions by "<module>.<name>" and keys each
Helmholtz solve by the phase of its first argument and its order, so a
rename or a signature change there fails here, not only in the
benchmark's own selftest.
"""
from __future__ import annotations

import importlib.util
import pathlib

from mblab import experiments
from mblab.experiments import desk_manifest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_and_labels_match_the_package():
    metrics, tracer = _load("metrics"), _load("tracer")
    trace = tracer.Tracer(metrics.TRACED, metrics.LABELS)
    trace.install()
    try:  # a label that cannot read its call's arguments raises here
        for scheme in ("third_order", "trapezoid"):
            experiments.run_manifest(desk_manifest(scheme=scheme, t_final=0.001))
    finally:
        trace.uninstall()
    helmholtz = {"operators.helmholtz_solve", "operators.helmholtz_apply"}
    assert not helmholtz & set(trace.missing)
    summary = trace.summary()
    solves = {name for name in summary if name.startswith("operators.helmholtz_solve")}
    assert solves <= {f"operators.helmholtz_solve.{key}" for key in metrics.SOLVE_BANDS}
    # the third-order steps solve through their workspace's cached solves;
    # their landing reads are order-4 half-grid helmholtz_solve calls
    assert summary["operators.helmholtz_solve.half4"]["calls"] > 0
    assert summary["operators.helmholtz_apply"]["calls"] > 0
    assert summary["cweno.rk4_step"]["calls"] > 0


def test_a_traced_sweep_reaches_run_manifest(empty_run_cache):
    # the benchmark's span inflation takes the median of the run_manifest
    # spans inside a sweep, then of the same manifests run one at a time:
    # a sweep must march through the module attribute run_manifest, and
    # run_manifest must take one manifest
    metrics, tracer = _load("metrics"), _load("tracer")
    trace = tracer.Tracer(metrics.TRACED, metrics.LABELS)
    base = desk_manifest(dx=0.005, t_final=0.01)
    trace.install()
    try:
        entries = experiments.bifurcation_sweep([(1.0, 0.75), (5.0, 0.9)], base)
        in_sweep = [s for s in trace.spans if s[3] == "experiments.run_manifest"]
        trace.spans.clear()
        fields = experiments.run_manifest(base)
        solo = [s for s in trace.spans if s[3] == "experiments.run_manifest"]
    finally:
        trace.uninstall()
    assert [e["error"] for e in entries] == [None, None]
    assert len(in_sweep) >= 1
    assert len(solo) == 1
    assert [f.time for f in fields] == [base.t_final]
