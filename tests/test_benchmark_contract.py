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
    assert summary["operators.helmholtz_solve.node4"]["calls"] > 0
    assert summary["operators.helmholtz_apply"]["calls"] > 0
    assert summary["cweno.rk4_step"]["calls"] > 0
