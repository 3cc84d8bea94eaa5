"""Experiment drivers: manifest-described runs, order tables, profile
classification, bifurcation/domain/epsilon sweeps, and file export.

A RunManifest pins every knob of one run (scheme, model and grid
parameters, initial-condition kind, snapshot times); runs are fully
deterministic, so repeated executions of one manifest are bit-identical.
Results are memoized per process in one run cache, keyed by manifest
without output_dir, which no run reads, and the sweeps fill it through one
planner: manifests that differ only in t_final and snapshot_times share one
march, and staggered marches to one t_final that differ only in u_B, tau,
L and snapshot_times go as one batch, each run byte for byte as alone.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bounds import _truncation_params, compare_domains
from .errors import ManifestError, NumericalError
from .flux import FluxModel
from .operators import Field, GridSpec, HALF_GRID, INTEGER_GRID, MBLParams, MIN_CELLS
from . import cweno, staggered
from .march import RunContext, landing_targets

__all__ = [
    "RunManifest",
    "ProfileReport",
    "DEFAULT_SWEEP_PAIRS",
    "desk_manifest",
    "load_manifest",
    "smooth_ramp_ic",
    "run_manifest",
    "run_cached",
    "order_table",
    "classify_profile",
    "bifurcation_sweep",
    "domain_study",
    "epsilon_sweep",
    "export",
]

SCHEMES = ("trapezoid", "midpoint", "third_order")
IC_KINDS = ("riemann", "smooth_ramp")


# the JSON key and CLI flag name of a field, where it is not the field's name
_ALIASES = {"lam": "lambda"}


@dataclass(frozen=True, init=False)
class RunManifest:
    """Complete, deterministic description of one run.

    Built from keywords only, each a field's name or alias; the JSON key
    for the time-step ratio lam is "lambda", and either name may be given,
    but not both.  A number is an int or float (not a bool) of finite
    value and is stored as a float, snapshot_times is a list or tuple of
    such numbers, stored as a tuple, and scheme, ic_kind and output_dir are
    strings.  Any other input, an unknown key, or a value the checks below
    refuse raises ManifestError, naming the field.  Manifests are frozen,
    snapshot_times too: run results are cached under their manifest.

    Runs with ic_kind="smooth_ramp" place the domain at [-10, -10+L] (the
    ramp sits at x=5), riemann runs at [0, L].
    """

    scheme: str = "trapezoid"
    M: float = 2.0
    epsilon: float = 0.005
    tau: float = 1.0
    u_B: float = 0.9
    L: float = 0.75
    L0: float = 0.0
    dx: float = 0.0005
    lam: float = 0.1
    t_final: float = 0.5
    snapshot_times: tuple[float, ...] = ()
    ic_kind: str = "riemann"
    output_dir: str = "."

    def __init__(self, **data):
        if "lambda" in data:
            if "lam" in data:
                raise ManifestError("lambda is given twice, as 'lambda' and as 'lam'")
            data["lam"] = data.pop("lambda")
        unknown = sorted(data.keys() - _SPEC.keys())
        if unknown:
            raise ManifestError(f"unknown manifest field(s): {', '.join(unknown)}")
        for name, (check, default) in _SPEC.items():
            object.__setattr__(self, name, check(_ALIASES.get(name, name),
                                                 data.get(name, default)))
        if self.scheme not in SCHEMES:
            raise ManifestError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.ic_kind not in IC_KINDS:
            raise ManifestError(f"ic_kind must be one of {IC_KINDS}, got {self.ic_kind!r}")
        if self.dx <= 0 or self.L <= 0 or self.t_final <= 0:
            raise ManifestError("dx, L and t_final must be positive")
        # the clocks add lam * dx per step; a lam <= 0 is GridSpec's error
        if self.lam > 0 and self.t_final + self.lam * self.dx == self.t_final:
            raise ManifestError(f"t_final = {self.t_final!r} is out of reach: "
                                "t_final + lambda * dx rounds to t_final")
        if self.epsilon < 0 or self.tau < 0:
            raise ManifestError("epsilon and tau must be nonnegative")
        if not 0.0 <= self.u_B <= 1.0:
            raise ManifestError("u_B must lie in [0, 1]")
        if self.L0 < 0 or self.L0 >= self.L:
            raise ManifestError("need 0 <= L0 < L")
        if self.ic_kind == "riemann":
            # chord bound on the leading shock speed; an M whose flux
            # constants overflow is FluxModel's NumericalError (exit code 3)
            try:
                speed = FluxModel(self.M).D
            except ValueError as exc:
                raise ManifestError(str(exc)) from None
            if self.L <= speed * self.t_final:
                warnings.warn(
                    f"domain-sizing: L = {self.L} <= {speed:.4g} * t_final; "
                    "the leading wave may reach the outflow boundary",
                    stacklevel=_outside_stacklevel())

    def model_dump(self, *, by_alias: bool = False, exclude=()) -> dict:
        """The fields as a dict, keyed by alias with by_alias, without those
        named in exclude; snapshot_times as a list."""
        out = {}
        for name in _SPEC:
            if name not in exclude:
                value = getattr(self, name)
                out[_ALIASES.get(name, name) if by_alias else name] = (
                    list(value) if isinstance(value, tuple) else value)
        return out

    def model_dump_json(self, *, by_alias: bool = False, exclude=()) -> str:
        """model_dump as compact JSON: the run cache's key and the echo."""
        return json.dumps(self.model_dump(by_alias=by_alias, exclude=exclude),
                          separators=(",", ":"))

    def model_copy(self, *, update: Optional[dict] = None) -> RunManifest:
        """derive(**update): a copy with the fields of update replaced, validated."""
        return self.derive(**(update or {}))

    def derive(self, **update) -> RunManifest:
        """A copy with the given fields replaced, each by its name or alias,
        validated like any new manifest."""
        aliased = [name for name, alias in _ALIASES.items() if alias in update]
        return type(self)(**{**self.model_dump(exclude=aliased), **update})


def _number(name: str, value) -> float:
    """value as a float: an int or float, not a bool, of finite value."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # its repr may pass the int-to-str digit limit
            raise ManifestError(f"{name} must be a finite number, got an int "
                                "beyond the float range") from None
        if math.isfinite(number):
            return number
    raise ManifestError(f"{name} must be a finite number, got {value!r}")


def _numbers(name: str, value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ManifestError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_number(name, v) for v in value)


def _text(name: str, value) -> str:
    if not isinstance(value, str):
        raise ManifestError(f"{name} must be a string, got {value!r}")
    return value


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _outside_stacklevel() -> int:
    """The stacklevel at which a warning raised by this function's caller
    points at the innermost frame outside the package: the line that built
    the manifest through desk_manifest, derive or load_manifest too."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    return level


# per field: the check of its annotation and its default
_SPEC = {f.name: ({"float": _number, "tuple[float, ...]": _numbers, "str": _text}[f.type],
                  f.default) for f in dataclasses.fields(RunManifest)}


@dataclass
class ProfileReport:
    classification: str
    plateau_value: Optional[float]
    shock_positions: list[float]
    overshoot: float


def desk_manifest(**overrides) -> RunManifest:
    """The RunManifest defaults (M=2, eps=0.005, dx=eps/10, lam=0.1, T=0.5)
    with tau=5."""
    return RunManifest(**{"tau": 5.0, **overrides})


def load_manifest(path) -> RunManifest:
    """Read a manifest JSON file; the echo format written by export (the
    manifest nested under a "manifest" key) is accepted too."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ManifestError("a manifest file must hold a JSON object")
    if isinstance(data.get("manifest"), dict):
        data = data["manifest"]
    return RunManifest(**data)


def smooth_ramp_ic(x, u_B: float):
    """u_B * H(x-5, 5): plateau u_B left of x=0, a half-period cosine-like
    ramp on [0, 10], zero beyond."""
    y = np.asarray(x, dtype=float) - 5.0
    ramp = 1.0 - 0.5 * (1.0 + y / 5.0 + np.sin(np.pi * y / 5.0) / np.pi)
    out = u_B * np.where(y < -5.0, 1.0, np.where(y > 5.0, 0.0, ramp))
    return float(out) if np.ndim(x) == 0 else out


def _grid_for(manifest: RunManifest) -> GridSpec:
    n = round(manifest.L / manifest.dx)
    x0 = -10.0 if manifest.ic_kind == "smooth_ramp" else 0.0
    return GridSpec(L=manifest.L, n_cells=n, dx=manifest.dx,
                    lam=manifest.lam, x0=x0)


def _bc_for(u_B) -> tuple:
    """The Dirichlet pair: u_B at the inflow, 0 at the outflow."""
    return (u_B, 0.0)


def _initial_nodes(manifest: RunManifest, grid: GridSpec) -> np.ndarray:
    """Node values at t = 0."""
    x = grid.nodes()
    if manifest.ic_kind == "riemann":
        return np.where(x <= manifest.L0 + 1e-12, manifest.u_B, 0.0)
    return smooth_ramp_ic(x, manifest.u_B)


def _initial_cells(manifest: RunManifest, grid: GridSpec) -> np.ndarray:
    """Cell averages of u at t = 0, exact for the riemann step and by
    Simpson's rule for the smooth ramp."""
    xl = grid.nodes()[:-1]
    if manifest.ic_kind == "riemann":
        frac = np.clip((manifest.L0 - xl) / grid.dx, 0.0, 1.0)
        return manifest.u_B * frac
    xr = xl + grid.dx
    xm = grid.centers()
    return (smooth_ramp_ic(xl, manifest.u_B)
            + 4.0 * smooth_ramp_ic(xm, manifest.u_B)
            + smooth_ramp_ic(xr, manifest.u_B)) / 6.0


def _context(manifest: RunManifest) -> RunContext:
    return RunContext(grid=_grid_for(manifest),
                      params=MBLParams(manifest.epsilon, manifest.tau),
                      model=FluxModel(manifest.M), bc=_bc_for(manifest.u_B))


# the field that no run reads, so it splits neither the run cache, nor a
# trajectory, nor a batch
_UNREAD = "output_dir"
# the fields in which the manifests of one staggered batch may differ
_BATCH_FREE = {"u_B", "tau", "L", _UNREAD}


def run_manifest(manifest: RunManifest | Sequence[RunManifest]) -> list:
    """Run to t_final, returning one Field per requested snapshot time plus
    the final state (staggered schemes: node values; third_order: cell
    averages of u).

    A list of staggered-scheme manifests that differ only in u_B, tau, L
    and output_dir marches as one batch and returns one such list of fields
    per manifest, each byte for byte that manifest's own run.  A
    NumericalError in any run fails the batch.
    """
    if isinstance(manifest, RunManifest):
        return _march([manifest])[0]
    batch = list(manifest)
    if not batch or any(m.scheme == "third_order" for m in batch):
        raise ValueError("a batch holds one or more staggered-scheme manifests")
    shared = batch[0].model_dump(exclude=_BATCH_FREE)
    if any(m.model_dump(exclude=_BATCH_FREE) != shared for m in batch):
        raise ValueError("the manifests of a batch may differ only in "
                         f"{sorted(_BATCH_FREE)}")
    return _march(batch)


def _march(batch: list[RunManifest]) -> list[list[Field]]:
    """One list of fields per manifest of batch: a staggered batch, or one
    third_order manifest."""
    ctxs = [_context(m) for m in batch]
    head = batch[0]
    if head.scheme == "third_order":
        return [cweno.run(_initial_cells(head, ctxs[0].grid), ctxs[0],
                          head.t_final, head.snapshot_times)]
    return staggered.run([_initial_nodes(m, ctx.grid) for m, ctx in zip(batch, ctxs)],
                         ctxs, head.scheme, head.t_final, head.snapshot_times)


_RUN_CACHE: dict[str, tuple[Field, ...]] = {}


def _key(manifest: RunManifest) -> str:
    """The run cache's key: the JSON, which tells u_B = -0.0 from 0.0,
    without output_dir."""
    return manifest.model_dump_json(by_alias=True, exclude={_UNREAD})


def _targets(manifest: RunManifest) -> list[float]:
    return landing_targets(0.0, manifest.t_final, manifest.snapshot_times)


def run_cached(manifest: RunManifest) -> tuple[Field, ...]:
    """Memoized run_manifest: runs are deterministic, and equal manifests
    share one tuple of read-only fields."""
    key = _key(manifest)
    if key not in _RUN_CACHE:
        _remember(manifest, [manifest], run_manifest(manifest))
    return _RUN_CACHE[key]


def _remember(march: RunManifest, members: Sequence[RunManifest],
              fields: list[Field]) -> None:
    """Cache, as the run of each member, the fields of march that landed on
    the member's times, made read-only."""
    landed = dict(zip(_targets(march), fields))
    for f in fields:
        f.values.setflags(write=False)
    for m in members:
        _RUN_CACHE[_key(m)] = tuple(landed[s] for s in _targets(m))


def _plan(manifests: Sequence[RunManifest]) -> None:
    """Fill the run cache for manifests, marching each trajectory once.

    A trajectory is a manifest without t_final, snapshot_times and
    output_dir.  Its uncached manifests share one march to their latest
    t_final, landing on each of their times (a lone one marches as itself):
    a field landed at s is the final field of a run that ends at s.
    Staggered marches to one t_final that may share a batch, whatever their
    times, go as one run_manifest batch that lands on all of them; after a
    NumericalError there, each trajectory of two or more manifests marches
    alone, as a third_order one does.  A manifest left uncached is left to
    run_cached, which raises its own error; any other error propagates.
    """
    trajectories: dict[str, dict[str, RunManifest]] = {}
    for m in manifests:
        if _key(m) not in _RUN_CACHE:
            trajectory = m.model_dump_json(exclude={"t_final", "snapshot_times", _UNREAD})
            trajectories.setdefault(trajectory, {})[_key(m)] = m
    plans, batches = [], {}
    with warnings.catch_warnings():  # the manifests of a march warned
        warnings.filterwarnings("ignore", "domain-sizing", UserWarning)
        for members in (list(t.values()) for t in trajectories.values()):
            march = members[0] if len(members) == 1 else members[0].derive(
                t_final=max(m.t_final for m in members),
                snapshot_times=sorted({s for m in members for s in _targets(m)}))
            plans.append((march, members))
            if march.scheme != "third_order":
                batches.setdefault(march.model_dump_json(
                    exclude=_BATCH_FREE | {"snapshot_times"}), []).append((march, members))
        for batch in (b for b in batches.values() if len(b) > 1):
            times = sorted({s for march, _ in batch for s in _targets(march)})
            batch = [(march if _targets(march) == times else
                      march.derive(snapshot_times=times), members)
                     for march, members in batch]
            try:
                runs = run_manifest([march for march, _ in batch])
            except NumericalError:  # its trajectories march alone below
                continue
            for (march, members), fields in zip(batch, runs):
                _remember(march, members, fields)
    for march, members in plans:
        if len(members) > 1 and _key(members[0]) not in _RUN_CACHE:
            with contextlib.suppress(NumericalError):  # run_cached reports it
                _remember(march, members, run_manifest(march))


# --- order tables -----------------------------------------------------------

def _order_test_manifest(scheme: str, tau: float, u_B: float, n: int) -> RunManifest:
    # lam=0.2 reproduces the published self-difference magnitudes for the
    # staggered schemes; still comfortably inside the CFL bound 0.5/2.25.
    return RunManifest(scheme=scheme, M=2.0, epsilon=1.0, tau=tau, u_B=u_B,
                       L=30.0, L0=0.0, dx=30.0 / n, lam=0.2, t_final=1.0,
                       snapshot_times=[], ic_kind="smooth_ramp")


def _self_difference(coarse: Field, fine: Field, dx: float) -> dict:
    """Norms of fine restricted to coarse's points, less coarse: a cell
    average of two fine cells, or every other node."""
    if fine.phase == HALF_GRID:
        fine_on_coarse = 0.5 * (fine.values[0::2] + fine.values[1::2])
        diff = fine_on_coarse - coarse.values
    else:
        diff = fine.values[::2] - coarse.values
    return {"l1": float(np.sum(np.abs(diff)) * dx),
            "l2": float(np.sqrt(np.sum(diff ** 2) * dx)),
            "linf": float(np.max(np.abs(diff)))}


def order_table(scheme: str, params_triple: tuple[float, float],
                levels: list[int]) -> list[dict]:
    """Self-convergence table on the smooth-ramp configuration (eps=1, M=2,
    domain [-10, 20], T=1).  Row N holds ||u_N - u_2N|| in three norms and
    the orders log2(e_{N/2}/e_N) against the previous row.  Level N is an
    N-cell grid, so a level below the fewest cells a run of the scheme takes
    (operators.MIN_CELLS, or cweno.MIN_CELLS for third_order) is a
    ValueError."""
    fewest = cweno.MIN_CELLS if scheme == "third_order" else MIN_CELLS
    if any(n < fewest for n in levels):
        raise ValueError(f"{scheme} levels must be at least {fewest} cells")
    tau, u_B = params_triple
    rows: list[dict] = []
    prev: Optional[dict] = None
    for n in levels:
        coarse = run_cached(_order_test_manifest(scheme, tau, u_B, n))[-1]
        fine = run_cached(_order_test_manifest(scheme, tau, u_B, 2 * n))[-1]
        errs = _self_difference(coarse, fine, 30.0 / n)
        row = {"N": n, **errs}
        for norm in ("l1", "l2", "linf"):
            row[f"order_{norm}"] = (math.log2(prev[norm] / errs[norm])
                                    if prev and prev["N"] * 2 == n else None)
        rows.append(row)
        prev = row
    return rows


# --- profile classification -------------------------------------------------

PLATEAU_TOL = 5e-3
PLATEAU_MIN_CELLS = 10
SHOCK_WINDOW = 3
OVERSHOOT_FLOOR = 5e-3


def _plateau_runs(v: np.ndarray) -> list[tuple[int, int, float]]:
    """Maximal runs (start, stop, mean) of cells within PLATEAU_TOL of the
    running mean of the current run."""
    runs = []
    start = 0
    acc = v[0]
    count = 1
    for i in range(1, v.size):
        mean = acc / count
        if abs(v[i] - mean) <= PLATEAU_TOL:
            acc += v[i]
            count += 1
        else:
            if count >= PLATEAU_MIN_CELLS:
                runs.append((start, i, mean))
            start, acc, count = i, v[i], 1
    if count >= PLATEAU_MIN_CELLS:
        runs.append((start, v.size, acc / count))
    return runs


def _shock_positions(v: np.ndarray, x: np.ndarray) -> list[float]:
    """Steep-gradient clusters whose total change exceeds 0.1 of the data
    range; clusters separated by at most SHOCK_WINDOW cells merge.  The
    reported position is the steepest cell face of each cluster."""
    rng = float(v.max() - v.min())
    if rng <= 0.0:
        return []
    du = np.diff(v)
    gmax = float(np.abs(du).max())
    idx = np.nonzero(np.abs(du) >= 0.3 * gmax)[0]
    clusters = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i - prev > SHOCK_WINDOW:
            clusters.append((start, prev))
            start = i
        prev = i
    clusters.append((start, prev))
    positions = []
    for a, b in clusters:
        if abs(v[b + 1] - v[a]) > 0.1 * rng:
            k = a + int(np.argmax(np.abs(du[a:b + 1])))
            positions.append(float(0.5 * (x[k] + x[k + 1])))
    return positions


def classify_profile(u: Field, manifest: RunManifest,
                     model: FluxModel) -> ProfileReport:
    """Map a final-time profile onto the qualitative solution classes.

    Plateaus are runs of >= 10 cells within 5e-3 of a common value,
    excluding the zero state and the inflow level; a plateau exceeding
    u_B + 0.02 marks the non-monotone two-shock profile, one below u_B
    marks the rarefaction-shock profile.  A right-boundary value above
    1e-3 means the outflow boundary has been reached and the truncated
    run is invalid.
    """
    v = u.values
    grid = _grid_for(manifest)
    x = grid.points(u.phase)
    u_B = manifest.u_B
    overshoot = float(v.max() - u_B)
    shocks = _shock_positions(v, x)
    boundary = v[-2] if u.phase == INTEGER_GRID else v[-1]
    if abs(boundary) > 1e-3:
        return ProfileReport("truncated_invalid", None, shocks, overshoot)

    runs = [r for r in _plateau_runs(v)
            if r[2] > 0.02 and abs(r[2] - u_B) > 0.02]
    high = [r for r in runs if r[2] > u_B + 0.02]
    if high:
        best = max(high, key=lambda r: r[1] - r[0])
        # The genuine overshoot plateau sits at the top of the profile and
        # is much wider than the dispersive wavelength; the flat crest of a
        # decaying oscillation train is a wavelength-scale feature.
        wide = ((best[1] - best[0]) * grid.dx
                >= 4.0 * manifest.epsilon * math.sqrt(manifest.tau))
        if wide and best[2] >= v.max() - 2 * PLATEAU_TOL:
            return ProfileReport("two_shock_plateau", float(best[2]), shocks,
                                 overshoot)
    low = [r for r in runs if r[2] <= u_B - 0.02]
    if low:
        best = max(low, key=lambda r: r[1] - r[0])
        return ProfileReport("rarefaction_shock", float(best[2]), shocks,
                             overshoot)
    if overshoot >= OVERSHOOT_FLOOR:
        return ProfileReport("oscillatory_single_shock", None, shocks, overshoot)
    return ProfileReport("single_shock", None, shocks, overshoot)


# --- sweeps -----------------------------------------------------------------

_ALPHA_2 = float(np.sqrt(2.0 / 3.0))

DEFAULT_SWEEP_PAIRS: list[tuple[float, float]] = (
    [(tau, u_B) for tau in (0.2, 1.0, 5.0) for u_B in (0.75, _ALPHA_2, 0.9)]
    + [(5.0, u) for u in (0.99, 0.98, 0.97)]
    + [(5.0, u) for u in (0.70, 0.69, 0.68, 0.67, 0.66)]
    + [(tau, 0.6) for tau in (0.2, 1.0, 5.0)]
)


def bifurcation_sweep(pairs=None, base: Optional[RunManifest] = None) -> list[dict]:
    """Run and classify each (tau, u_B); failures are recorded per entry and
    the sweep continues.  Entries come back sorted by (tau, u_B).

    Every pair is derived, and its grid and times validated, before any
    run.  The staggered runs of all pairs then march as one batch (see
    _plan); a pair the batch leaves (a lone or third_order one, or every
    pair of a failed batch) runs alone.
    """
    pairs = list(DEFAULT_SWEEP_PAIRS if pairs is None else pairs)
    if not pairs:
        raise ValueError("pairs must not be empty")
    if base is None:
        base = desk_manifest()
    model = FluxModel(base.M)

    entries, derived = [], []
    for tau, u_B in pairs:
        entry = {"tau": tau, "u_B": u_B, "report": None, "error": None}
        try:
            m = base.derive(tau=tau, u_B=u_B)
            _grid_for(m)
            _targets(m)
            derived.append((entry, m))
        except Exception as exc:  # per-run isolation
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entries.append(entry)
    _plan([m for _, m in derived])
    for entry, m in derived:
        try:
            entry["report"] = classify_profile(run_cached(m)[-1], m, model)
        except Exception as exc:  # per-run isolation
            entry["error"] = f"{type(exc).__name__}: {exc}"
    return sorted(entries, key=lambda e: (e["tau"], e["u_B"]))


def domain_study(base: RunManifest, L_values: list[float],
                 times: list[float]) -> dict:
    """Compare truncated-domain runs against the largest domain at each
    requested time; each entry carries the difference norms, the
    closed-form bound, the domain-sizing verdict, and the classification
    of the truncated run.

    The runs of all entries are planned together (see _plan): each domain
    marches once, to the latest requested time and landing on the others,
    and the domains march as one batch.  A NumericalError is recorded per
    entry under "error", with the norms and bound set to None, and the
    study continues; an entry whose domain march failed makes its own run.
    """
    if not L_values:
        raise ValueError("L_values must not be empty")
    if not times:
        raise ValueError("times must not be empty")
    L_values = sorted(L_values)
    L_ref = L_values[-1]
    model = FluxModel(base.M)
    with warnings.catch_warnings():  # sizing_ok reports the short domains
        warnings.filterwarnings("ignore", "domain-sizing", UserWarning)
        manifests = {(t, L): base.derive(L=L, t_final=t, snapshot_times=[])
                     for t in times for L in L_values}
        if len(L_values) > 1:  # an undefined bound fails before any run
            _truncation_params(base).scale
        _plan(list(manifests.values()))
        entries = []
        for t in times:
            for L in L_values:
                entry = {"t": t, "L": L, "classification": None,
                         "sizing_ok": L > model.D * t,
                         "h1_diff": None, "sup_diff": None, "bound": None}
                try:
                    m = manifests[t, L]
                    u = run_cached(m)[-1]
                    entry["classification"] = classify_profile(u, m, model).classification
                    if L < L_ref:
                        ref = run_cached(manifests[t, L_ref])[-1]
                        entry.update(compare_domains(m, u.values, ref.values))
                except NumericalError as exc:  # per-entry isolation
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                entries.append(entry)
    return {"L_ref": L_ref, "entries": entries}


def _transition_width(v: np.ndarray, x: np.ndarray, u_high: float) -> float:
    """Distance over which the profile falls from 90% to 10% of u_high at
    the leading front."""
    hi = np.nonzero(v >= 0.9 * u_high)[0]
    if hi.size == 0:
        return float("nan")
    i_hi = hi[-1]
    lo = np.nonzero(v[i_hi:] <= 0.1 * u_high)[0]
    if lo.size == 0:
        return float("nan")
    return float(x[i_hi + lo[0]] - x[i_hi])


def epsilon_sweep(base: RunManifest, eps_values: list[float]) -> list[dict]:
    """Fixed-grid sweep over epsilon; reports the leading-front transition
    width and the plateau value per run."""
    if not eps_values:
        raise ValueError("eps_values must not be empty")
    model = FluxModel(base.M)
    out = []
    for eps in sorted(eps_values):
        m = base.derive(epsilon=eps)
        u = run_cached(m)[-1]
        report = classify_profile(u, m, model)
        x = _grid_for(m).points(u.phase)
        u_high = report.plateau_value if report.plateau_value else m.u_B
        out.append({"epsilon": eps,
                    "width": _transition_width(u.values, x, u_high),
                    "plateau_value": report.plateau_value,
                    "classification": report.classification})
    return out


# --- export -----------------------------------------------------------------

_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Quick look at the exported snapshots.\"\"\"
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open("snapshots.csv", encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
        series[float(row["t"])].append((float(row["x"]), float(row["u"])))

for t, pts in sorted(series.items()):
    pts.sort()
    plt.plot([p[0] for p in pts], [p[1] for p in pts], label=f"t={t:g}")
plt.xlabel("x")
plt.ylabel("u")
plt.legend()
plt.show()
"""


def export(fields: list[Field], manifest: RunManifest,
           output_dir=None) -> dict:
    """Write snapshots.csv (header x,u,t; 17-significant-digit floats, LF
    endings), the manifest echo JSON with the code version, and a small
    plot script.  An empty snapshot list writes the manifest only."""
    out_dir = Path(output_dir if output_dir is not None else manifest.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = _grid_for(manifest)

    paths = {"csv": None, "manifest": str(out_dir / "manifest.json"),
             "plot": None}
    if fields:
        csv_path = out_dir / "snapshots.csv"
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,u,t\n")
            for f in fields:  # Python floats format faster than numpy scalars
                tail = f",{f.time:.17g}\n"
                fh.write("".join([f"{xi:.17g},{ui:.17g}{tail}" for xi, ui in
                                  zip(grid.points(f.phase).tolist(), f.values.tolist())]))
        paths["csv"] = str(csv_path)
        plot_path = out_dir / "plot.py"
        with open(plot_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_PLOT_SCRIPT)
        paths["plot"] = str(plot_path)

    echo = {"manifest": manifest.model_dump(by_alias=True),
            "code_version": __version__}
    with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
