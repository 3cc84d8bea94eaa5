"""Metric names and units, the traced functions, and the per-layer metrics
derived from trace spans.

BENCHMARK.json at the repository root declares the same names and units;
selftest.py checks that the two agree.
"""
from __future__ import annotations

import os

WORKLOADS = ("desk_staggered", "desk_cweno", "sweep_matrix", "truncation_study")

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "cell_steps_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

# Public functions wrapped by the tracer, as "<module>.<name>" inside mblab.
TRACED = (
    "flux.flux",
    "flux.flux_deriv",
    "operators.helmholtz_solve",
    "operators.helmholtz_apply",
    "staggered.run",
    "staggered.predictor",
    "staggered.cfl_check",
    "cweno.cweno_reconstruct",
    "cweno.numerical_flux",
    "cweno.diffusion_q",
    "cweno.rk4_step",
    "experiments.run_manifest",
    "experiments.run_cached",
    "experiments.classify_profile",
    "experiments.export",
    "experiments.load_manifest",
    "bounds.compare_domains",
    "bounds.bound_constants",
    "bounds.lemma_audit",
    "cli.main",
)

# helmholtz_solve span key -> number of matrix bands of that solve
SOLVE_BANDS = {"node2": 3, "half2": 3, "node4": 7, "half4": 5}


def _solve_label(args, kwargs, result):
    """Key a Helmholtz solve by field phase and order: node2 ... half4."""
    w = args[0] if args else kwargs["w"]
    order = kwargs.get("order", args[5] if len(args) > 5 else 2)
    phase = "node" if w.phase == "integer_grid" else "half"
    return f"operators.helmholtz_solve.{phase}{order}", w.values.size


def _flux_label(args, kwargs, result):
    u = args[0] if args else kwargs["u"]
    return "flux.flux", getattr(u, "size", 1)


def _export_label(args, kwargs, result):
    written = sum(os.path.getsize(p) for p in result.values() if p)
    return "experiments.export", written


LABELS = {
    "operators.helmholtz_solve": _solve_label,
    "flux.flux": _flux_label,
    "experiments.export": _export_label,
}


def _per_layer() -> dict:
    spec = {}
    for key in SOLVE_BANDS:
        base = f"operators.helmholtz_solve.{key}"
        spec[f"{base}.calls"] = ("count", "lower")
        spec[f"{base}.self_s"] = ("s", "lower")
        spec[f"{base}.us_per_call"] = ("us", "lower")
        spec[f"{base}.bytes_computed"] = ("B", "lower")
    spec.update({
        "operators.helmholtz_apply.calls": ("count", "lower"),
        "operators.helmholtz_apply.self_s": ("s", "lower"),
        "flux.flux.calls": ("count", "lower"),
        "flux.flux.self_s": ("s", "lower"),
        "flux.flux.values": ("count", "lower"),
        "flux.flux_deriv.calls": ("count", "lower"),
        "flux.flux_deriv.self_s": ("s", "lower"),
        "staggered.run.self_s": ("s", "lower"),
        "staggered.step_us": ("us", "lower"),
        "staggered.predictor.self_s": ("s", "lower"),
        "staggered.cfl_check.calls": ("count", "lower"),
        "staggered.cfl_check.self_s": ("s", "lower"),
        "cweno.cweno_reconstruct.calls": ("count", "lower"),
        "cweno.cweno_reconstruct.self_s": ("s", "lower"),
        "cweno.numerical_flux.self_s": ("s", "lower"),
        "cweno.diffusion_q.self_s": ("s", "lower"),
        "cweno.rk4_step.calls": ("count", "lower"),
        "cweno.rk4_step.us_per_call": ("us", "lower"),
        "cweno.rk4_step.self_s": ("s", "lower"),
        "experiments.run_manifest.self_s": ("s", "lower"),
        "experiments.classify_profile.self_s": ("s", "lower"),
        "experiments.export.self_s": ("s", "lower"),
        "experiments.export.bytes_written": ("B", "lower"),
        "experiments.run_cached.hits": ("count", "higher"),
        "experiments.run_cached.misses": ("count", "lower"),
        "experiments.run_cached.hit_ratio": ("ratio", "higher"),
        "experiments.sweep.span_inflation": ("ratio", "lower"),
        "bounds.compare_domains.calls": ("count", "lower"),
        "bounds.compare_domains.self_s": ("s", "lower"),
        "bounds.bound_constants.calls": ("count", "lower"),
        "bounds.bound_constants.self_s": ("s", "lower"),
        "bounds.lemma_audit.calls": ("count", "lower"),
        "bounds.lemma_audit.self_s": ("s", "lower"),
        "cli.main.self_s": ("s", "lower"),
        "experiments.load_manifest.self_s": ("s", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
    })
    return spec


# name -> (unit, better)
PER_LAYER = _per_layer()


def layer_values(summary: dict, cache: dict, staggered_steps: int,
                 span_inflation: float) -> dict:
    """Per-layer metrics of one traced iteration, trace.overhead_ratio
    aside (it needs the untraced iterations too).

    summary maps span name -> {"calls", "total_s", "self_s", "size"};
    cache holds the run_cached "hits" and "misses"; span_inflation is 0
    for workloads without a sweep.
    """
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    out = {}
    for key, bands in SOLVE_BANDS.items():
        name = f"operators.helmholtz_solve.{key}"
        calls = get(name, "calls")
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = get(name, "self_s")
        out[f"{name}.us_per_call"] = (1e6 * get(name, "total_s") / calls
                                      if calls else 0.0)
        # computed, not measured: right-hand side, solution and the bands
        out[f"{name}.bytes_computed"] = 8 * get(name, "size") * (bands + 2)
    for name in ("operators.helmholtz_apply", "flux.flux", "flux.flux_deriv",
                 "staggered.cfl_check", "cweno.cweno_reconstruct",
                 "cweno.rk4_step", "bounds.compare_domains",
                 "bounds.bound_constants", "bounds.lemma_audit"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("operators.helmholtz_apply", "flux.flux", "flux.flux_deriv",
                 "staggered.run", "staggered.predictor", "staggered.cfl_check",
                 "cweno.cweno_reconstruct", "cweno.numerical_flux",
                 "cweno.diffusion_q", "cweno.rk4_step",
                 "experiments.run_manifest", "experiments.classify_profile",
                 "experiments.export", "bounds.compare_domains",
                 "bounds.bound_constants", "bounds.lemma_audit", "cli.main",
                 "experiments.load_manifest"):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["flux.flux.values"] = get("flux.flux", "size")
    out["staggered.step_us"] = (1e6 * get("staggered.run", "total_s")
                                / staggered_steps if staggered_steps else 0.0)
    rk4 = get("cweno.rk4_step", "calls")
    out["cweno.rk4_step.us_per_call"] = (
        1e6 * get("cweno.rk4_step", "total_s") / rk4 if rk4 else 0.0)
    out["experiments.export.bytes_written"] = get("experiments.export", "size")
    hits, misses = cache["hits"], cache["misses"]
    out["experiments.run_cached.hits"] = hits
    out["experiments.run_cached.misses"] = misses
    out["experiments.run_cached.hit_ratio"] = (hits / (hits + misses)
                                               if hits + misses else 0.0)
    out["experiments.sweep.span_inflation"] = span_inflation
    return out
