"""The benchmark workloads: fixed problem sets called through mblab's public
API, and the oracle that checks their results.

A workload has four steps:

  prepare(seed, workdir)     set-up: manifest validation and inputs; the
                             seed only permutes the submission order
  execute(prepared)          the timed call into mblab
  observe(prepared, output)  results as named arrays in canonical order
  check(observed, reference) oracle items, one per manifest run (and one
                             for the kernel-audit grid)

Reference results were generated at the seed commit by make_reference.py
and live in reference/<workload>[-quick].npz.  A numeric result passes
when it differs from its reference by at most TOL, scaled by
max(1, |reference|); bit-identity is reported beside it.  Quick mode runs
the same calls on shorter problems and checks only the references, since
the paper's criteria hold at full size.

Importing this module imports mblab: put the repository's src directory
on sys.path first.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mblab import bounds, cli, experiments
from mblab.flux import FluxModel
from mblab.operators import HALF_GRID, INTEGER_GRID, Field

HERE = Path(__file__).resolve().parent
DESK_MANIFEST = HERE / "manifests" / "desk.json"
REFERENCE_DIR = HERE / "reference"

ALPHA = math.sqrt(2.0 / 3.0)
TOL = 1e-8
MODEL = FluxModel(2.0)


def reference_path(workload: str, quick: bool) -> Path:
    return REFERENCE_DIR / f"{workload}{'-quick' if quick else ''}.npz"


def load_reference(workload: str, quick: bool) -> dict:
    with np.load(reference_path(workload, quick), allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def time_steps(m) -> int:
    """Steps a manifest takes: staggered steps come in pairs that land on
    each snapshot time, an RK4 step counts once."""
    dt = m.lam * m.dx
    steps, t = 0, 0.0
    for target in sorted(set(m.snapshot_times) | {m.t_final}):
        if m.scheme == "third_order":
            steps += math.ceil((target - t) / dt - 1e-9)
        else:
            steps += 2 * math.ceil((target - t) / (2.0 * dt) - 1e-9)
        t = target
    return steps


def cell_steps(m) -> int:
    return round(m.L / m.dx) * time_steps(m)


def _permuted(items, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


# --- oracle -------------------------------------------------------------------

def _scaled_diff(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| / max(1, |ref|); NaN in the same places counts as equal."""
    got = got.astype(float)
    ref = ref.astype(float)
    both_nan = np.isnan(got) & np.isnan(ref)
    diff = np.where(both_nan, 0.0, np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
    if diff.size == 0:
        return 0.0
    worst = float(np.max(diff))
    return worst if math.isfinite(worst) else math.inf


def check_item(name: str, keys: list, observed: dict, reference: dict,
               problems: list = ()) -> dict:
    """Compare the observed arrays under keys with their references.

    The item fails on a shape or text mismatch, a numeric difference above
    TOL, a non-empty "<name>.error", or any entry of problems.
    """
    problems = list(problems)
    bit_identical = True
    worst = 0.0
    for key in keys:
        got, ref = np.asarray(observed[key]), reference[key]
        if key.endswith(".error"):
            if str(got):
                problems.append(str(got))
            continue
        if got.shape != ref.shape:
            problems.append(f"{key}: shape {got.shape} != reference {ref.shape}")
            bit_identical, worst = False, math.inf
            continue
        if ref.dtype.kind == "U":
            if not np.array_equal(got, ref):
                problems.append(f"{key}: {got} != reference {ref}")
                bit_identical = False
            continue
        bit_identical &= got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        diff = _scaled_diff(got, ref)
        worst = max(worst, diff)
        if not diff <= TOL:
            problems.append(f"{key}: max_abs_diff {diff:.3g} > {TOL:g}")
    return {"name": name, "count": 1, "failed": int(bool(problems)),
            "bit_identical": bool(bit_identical), "max_abs_diff": worst,
            "detail": "; ".join(problems)}


@dataclass
class Prepared:
    order: list
    manifests: dict = field(default_factory=dict)  # every manifest run
    extra: dict = field(default_factory=dict)


class Workload:
    def cell_steps(self, prepared: Prepared) -> int:
        return sum(cell_steps(m) for m in prepared.manifests.values())

    def staggered_steps(self, prepared: Prepared) -> int:
        return sum(time_steps(m) for m in prepared.manifests.values()
                   if m.scheme != "third_order")


# --- desk runs through the CLI ---------------------------------------------------

_CLI_FLAGS = {"scheme": "--scheme", "t_final": "--t-final",
              "snapshot_times": "--snapshot-times"}


def _cli_value(value) -> str:
    if isinstance(value, list):
        return ",".join(repr(float(v)) for v in value)
    return value if isinstance(value, str) else repr(value)


class DeskCli(Workload):
    """`mblab riemann` on the desk manifest (manifest -> run -> classify ->
    export), once per entry of runs: label -> manifest overrides."""

    def __init__(self, runs: dict, criterion3: bool):
        self.runs = runs
        self.criterion3 = criterion3

    def attempted(self) -> int:
        return len(self.runs)

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        base = json.loads(experiments.load_manifest(DESK_MANIFEST)
                          .model_dump_json(by_alias=True))
        prepared = Prepared(order=_permuted(self.runs, seed))
        for label, update in self.runs.items():
            prepared.manifests[label] = experiments.RunManifest(**{**base, **update})
            out_dir = workdir / label
            argv = ["riemann", "--manifest", str(DESK_MANIFEST),
                    "--output-dir", str(out_dir)]
            for key, value in update.items():
                argv += [_CLI_FLAGS[key], _cli_value(value)]
            prepared.extra[label] = {"argv": argv, "out_dir": out_dir}
        return prepared

    def execute(self, prepared: Prepared) -> dict:
        """label -> error message, empty when the CLI exited with 0."""
        errors = {}
        for label in prepared.order:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(prepared.extra[label]["argv"])
                errors[label] = "" if code == 0 else f"exit code {code}"
            except Exception as exc:  # one failed run must not stop the rest
                errors[label] = f"{type(exc).__name__}: {exc}"
        return errors

    def observe(self, prepared: Prepared, output: dict) -> dict:
        obs = {}
        for label, error in output.items():
            m = prepared.manifests[label]
            csv = prepared.extra[label]["out_dir"] / "snapshots.csv"
            profile, cls, plateau, lead = np.empty((0, 0)), "", math.nan, math.nan
            if not error:
                rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
                profile = rows[:, 1].reshape(len(np.unique(rows[:, 2])), -1)
                final = profile[-1]
                phase = (INTEGER_GRID if final.size == round(m.L / m.dx) + 1
                         else HALF_GRID)
                report = experiments.classify_profile(
                    Field(final, phase, m.t_final), m, MODEL)
                cls = report.classification
                if report.plateau_value is not None:
                    plateau = report.plateau_value
                if report.shock_positions:
                    lead = max(report.shock_positions) / m.t_final
            obs[label] = profile
            obs[f"{label}.error"] = np.array(error)
            obs[f"{label}.class"] = np.array(cls)
            obs[f"{label}.plateau"] = np.array(plateau)
            obs[f"{label}.lead_speed"] = np.array(lead)
        return obs

    def check(self, observed: dict, reference: dict) -> list:
        items = []
        for label in self.runs:
            problems = []
            if self.criterion3:
                # criterion 3: the nonclassical plateau profile
                cls = str(observed[f"{label}.class"])
                plateau = float(observed[f"{label}.plateau"])
                lead = float(observed[f"{label}.lead_speed"])
                if cls != "two_shock_plateau":
                    problems.append(f"criterion 3: class {cls}")
                if not abs(plateau - 0.98) <= 0.02:
                    problems.append(f"criterion 3: plateau {plateau}")
                if not abs(lead - 1.02) <= 0.03:
                    problems.append(f"criterion 3: lead speed {lead}")
            keys = [k for k in reference if k == label or k.startswith(label + ".")]
            items.append(check_item(label, keys, observed, reference, problems))
        return items


# --- criterion-4 bifurcation matrix ---------------------------------------------

SWEEP_PAIRS = [(tau, u_B) for tau in (0.2, 1.0, 5.0)
               for u_B in (0.75, ALPHA, 0.9)]
_MONOTONE = {"single_shock", "rarefaction_shock"}
SWEEP_ALLOWED = {
    (0.2, 0.75): _MONOTONE, (0.2, ALPHA): _MONOTONE, (0.2, 0.9): _MONOTONE,
    (1.0, 0.75): {"single_shock", "oscillatory_single_shock"},
    (1.0, ALPHA): {"two_shock_plateau"},
    (1.0, 0.9): {"rarefaction_shock"},
    (5.0, 0.75): {"two_shock_plateau"},
    (5.0, ALPHA): {"two_shock_plateau"},
    (5.0, 0.9): {"two_shock_plateau"},
}


class Sweep(Workload):
    """bifurcation_sweep over the nine criterion-4 pairs on the desk base."""

    def __init__(self, base: dict, criterion4: bool):
        self.base = base
        self.criterion4 = criterion4

    def attempted(self) -> int:
        return len(SWEEP_PAIRS)

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        base = experiments.desk_manifest(**self.base)
        prepared = Prepared(order=_permuted(SWEEP_PAIRS, seed), extra={"base": base})
        for pair in SWEEP_PAIRS:
            prepared.manifests[pair] = base.model_copy(
                update={"tau": pair[0], "u_B": pair[1]})
        return prepared

    def execute(self, prepared: Prepared) -> list:
        return experiments.bifurcation_sweep(prepared.order, prepared.extra["base"])

    def solo(self, prepared: Prepared) -> None:
        """The same manifests run one after another, for span inflation."""
        for pair in SWEEP_PAIRS:
            experiments.run_manifest(prepared.manifests[pair])

    def observe(self, prepared: Prepared, output: list) -> dict:
        by_pair = {(e["tau"], e["u_B"]): e for e in output}
        obs = {}
        for i, pair in enumerate(SWEEP_PAIRS):
            entry = by_pair.get(pair)
            error = "missing from the sweep" if entry is None else entry["error"] or ""
            profile, cls, overshoot = np.empty(0), "", math.nan
            if not error:
                report = entry["report"]
                cls, overshoot = report.classification, report.overshoot
                # a cache hit: the run the sweep just made
                profile = experiments.run_cached(prepared.manifests[pair])[-1].values
            obs[f"pair{i}"] = profile
            obs[f"pair{i}.error"] = np.array(error)
            obs[f"pair{i}.class"] = np.array(cls)
            obs[f"pair{i}.overshoot"] = np.array(overshoot)
        return obs

    def check(self, observed: dict, reference: dict) -> list:
        items = []
        for i, pair in enumerate(SWEEP_PAIRS):
            problems = []
            if self.criterion4:
                cls = str(observed[f"pair{i}.class"])
                overshoot = float(observed[f"pair{i}.overshoot"])
                if cls not in SWEEP_ALLOWED[pair]:
                    problems.append(f"criterion 4: class {cls}")
                if pair[0] == 0.2 and not overshoot < 1e-3:
                    problems.append(f"criterion 4: overshoot {overshoot:.3g}")
                if pair[0] == 5.0 and pair[1] in (0.75, ALPHA) and not overshoot > 0.1:
                    problems.append(f"criterion 4: overshoot {overshoot:.3g}")
            keys = [k for k in reference if k.split(".")[0] == f"pair{i}"]
            name = f"tau={pair[0]:g},u_B={pair[1]:.4g}"
            items.append(check_item(name, keys, observed, reference, problems))
        return items


# --- criterion-8 domain study and criterion-7 audit grid ------------------------

STUDY_L = (0.15, 0.25, 0.35, 0.7)
AUDIT_LAMS = (0.3, 0.5, 0.7)
AUDIT_TAUS = (0.2, 5.0)


def audit_points() -> list:
    """The 270 (item, params, x) points of criterion 7, in canonical order."""
    points = []
    for lam in AUDIT_LAMS:
        for tau in AUDIT_TAUS:
            p = bounds.BoundParams(lam=lam, C_u=ALPHA, L0=0.1, L=0.75,
                                   g_sup=ALPHA, M=2.0, epsilon=0.01, tau=tau)
            for x in (0.0, 0.05, 0.1, 0.2, 10.0 * p.scale):
                points += [(item, p, x) for item in bounds.AUDIT_ITEMS]
    return points


class Truncation(Workload):
    """domain_study at criterion-8 scale, then the criterion-7 audit grid."""

    def __init__(self, times: tuple, criterion8: bool):
        self.times = times
        self.criterion8 = criterion8

    def attempted(self) -> int:
        return len(STUDY_L) * len(self.times) + len(audit_points())

    def _runs(self):
        return [(t, L) for t in self.times for L in STUDY_L]

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        rng = random.Random(seed)
        base = experiments.desk_manifest(tau=5.0, u_B=ALPHA, epsilon=0.01,
                                         dx=1e-3, L0=0.05)
        points = audit_points()
        prepared = Prepared(order=[], extra={
            "base": base,
            "L": rng.sample(STUDY_L, len(STUDY_L)),
            "t": rng.sample(self.times, len(self.times)),
            "audit": rng.sample(range(len(points)), len(points)),
            "points": points,
        })
        prepared.order = [prepared.extra["L"], prepared.extra["t"]]
        for t, L in self._runs():
            prepared.manifests[(t, L)] = base.model_copy(
                update={"L": L, "t_final": t, "snapshot_times": []})
        return prepared

    def execute(self, prepared: Prepared) -> tuple:
        x = prepared.extra
        study = experiments.domain_study(x["base"], x["L"], x["t"])
        audits = {i: bounds.lemma_audit(*x["points"][i]) for i in x["audit"]}
        return study, audits

    def observe(self, prepared: Prepared, output: tuple) -> dict:
        study, audits = output
        by_run = {(e["t"], e["L"]): e for e in study["entries"]}
        obs = {}
        for i, run in enumerate(self._runs()):
            e = by_run.get(run)
            obs[f"run{i}.error"] = np.array("" if e else "missing from the study")
            obs[f"run{i}"] = (experiments.run_cached(prepared.manifests[run])[-1].values
                              if e else np.empty(0))
            obs[f"run{i}.class"] = np.array(e["classification"] if e else "")
            for key in ("h1_diff", "sup_diff", "bound"):
                value = e[key] if e else None
                obs[f"run{i}.{key}"] = np.array(math.nan if value is None else value)
        n = len(prepared.extra["points"])
        obs["audit.lhs"] = np.array([audits[i]["lhs"] for i in range(n)])
        obs["audit.rhs"] = np.array([audits[i]["rhs"] for i in range(n)])
        obs["audit.holds"] = np.array([bool(audits[i]["holds"]) for i in range(n)])
        return obs

    def check(self, observed: dict, reference: dict) -> list:
        items = []
        runs = self._runs()
        for i, (t, L) in enumerate(runs):
            problems = []
            h1 = float(observed[f"run{i}.h1_diff"])
            if self.criterion8 and not math.isnan(float(reference[f"run{i}.bound"])):
                # criterion 8: under the bound and decreasing in L
                if not h1 <= float(observed[f"run{i}.bound"]):
                    problems.append("criterion 8: h1_diff above the bound")
                if i > 0 and runs[i - 1][0] == t:
                    prev = float(observed[f"run{i - 1}.h1_diff"])
                    if not h1 < prev + 1e-12:
                        problems.append("criterion 8: h1_diff not decreasing in L")
            keys = [k for k in reference if k.split(".")[0] == f"run{i}"]
            items.append(check_item(f"t={t:g},L={L:g}", keys, observed,
                                    reference, problems))
        items.append(self._check_audit(observed, reference))
        return items

    def _check_audit(self, observed: dict, reference: dict) -> dict:
        keys = ("audit.lhs", "audit.rhs", "audit.holds")
        got = [np.asarray(observed[k]) for k in keys]
        ref = [reference[k] for k in keys]
        n = ref[0].size
        if any(g.shape != r.shape for g, r in zip(got, ref)):
            return {"name": "lemma_audit", "count": n, "failed": n,
                    "bit_identical": False, "max_abs_diff": math.inf,
                    "detail": "shape mismatch"}
        bad = ~got[2] | (got[2] != ref[2])
        worst = 0.0
        for g, r in zip(got[:2], ref[:2]):
            diff = np.abs(g - r) / np.maximum(1.0, np.abs(r))
            diff = np.where(np.isfinite(diff), diff, math.inf)
            bad |= ~(diff <= TOL)
            worst = max(worst, float(np.max(diff)))
        failed = int(np.count_nonzero(bad))
        return {"name": "lemma_audit", "count": n, "failed": failed,
                "bit_identical": all(g.tobytes() == r.tobytes()
                                     for g, r in zip(got, ref)),
                "max_abs_diff": worst,
                "detail": f"{failed} of {n} audit items fail" if failed else ""}


_QUICK_DESK = {"t_final": 0.05, "snapshot_times": [0.01, 0.02, 0.03, 0.04]}


def make(name: str, quick: bool):
    """The workload called name, at full or quick size."""
    if name == "desk_staggered":
        extra = _QUICK_DESK if quick else {}  # full: the manifest's own times
        return DeskCli({"trapezoid": dict(extra),
                        "midpoint": {"scheme": "midpoint", **extra}},
                       criterion3=not quick)
    if name == "desk_cweno":
        t_final, snaps = ((0.002, [0.001]) if quick
                          else (0.02, [0.004, 0.008, 0.012, 0.016]))
        return DeskCli({"third_order": {"scheme": "third_order",
                                        "t_final": t_final,
                                        "snapshot_times": snaps}},
                       criterion3=False)
    if name == "sweep_matrix":
        return Sweep({"dx": 2e-3, "t_final": 0.05 if quick else 0.5},
                     criterion4=not quick)
    if name == "truncation_study":
        return Truncation((0.02,) if quick else (0.05, 0.1),
                          criterion8=not quick)
    raise ValueError(f"unknown workload {name!r}")
