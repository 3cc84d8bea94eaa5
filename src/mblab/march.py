"""The run context, the linear-stability guard and the snapshot-landing
time loop shared by both marching schemes.

Every landed field must lie in the saturation range widened by its own
width on each side, [-1, 2].  The saturation u lives in [0, 1], and so do
the boundary data and starting states of a run.  The equation gives u no
maximum principle: the dispersive term makes fronts overshoot and plateaus
rise above the inflow value, and a scheme near its stability limit adds a
few tenths more.  Outside [0, 1], though, the clamped flux is flat, and
what remains there is the linear u_t = eps u_xx + eps^2 tau u_xxt, which
only dissipates (its energy |u|^2 + eps^2 tau |u_x|^2 decays at the rate
2 eps |u_x|^2).  So an excursion outside [0, 1] is fed only by overshoot
of the transport inside, which in a stable run stays a fraction of the
jumps in the data, themselves at most 1.  A value more than one full range
outside [0, 1] is no overshoot but a scheme that diverged while staying
finite, and it is a NumericalError.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .flux import FluxModel
from .operators import _SYMBOLS, Field, GridSpec, MBLParams

# the centre of the saturation range [0, 1] and the largest distance from
# it that a landed value may have: one range width beyond each end
_RANGE_CENTRE = 0.5
_RANGE_REACH = 1.5


@dataclass(frozen=True)
class RunContext:
    """The fixed data of one run: grid, model parameters, flux and the
    constant Dirichlet pair bc = (g, h), stored as two floats.

    A bc that is not one number per end is a ValueError.  A NaN/Inf
    boundary value is a NumericalError, checked once here: inside a step,
    minmod and the clamped flux could turn it finite.
    """

    grid: GridSpec
    params: MBLParams
    model: FluxModel
    bc: tuple

    def __post_init__(self):
        if len(self.bc) != 2 or any(np.ndim(v) for v in self.bc):
            raise ValueError("bc takes one boundary value per end")
        object.__setattr__(self, "bc", tuple(float(v) for v in self.bc))
        if not np.isfinite(self.bc).all():
            raise NumericalError("boundary value is NaN/Inf")


def _check_linear_gain(scheme: str, ctxs: Sequence[RunContext], order: int,
                       factor: Callable) -> None:
    """Reject runs of ctxs (which share eps, lam and dx) whose explicit
    diffusion amplifies a linear mode: a NumericalError named after scheme
    when max |factor(s, z)| > 1 over the modes s = 4 sin^2(theta/2) in
    [0, 4], with z = r q / (1 + kappa s), q the symbol of the order-2 or
    order-4 stencil (operators._SYMBOLS[order]), r = eps lam / dx
    and each distinct kappa = eps^2 tau / dx^2 of the runs; an r so large
    that the factor overflows is rejected too."""
    grid = ctxs[0].grid
    r = ctxs[0].params.epsilon * grid.lam / grid.dx
    s = np.linspace(0.0, 4.0, 4001)
    q = _SYMBOLS[order](s)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN gain fails
        gain = float(np.max([np.abs(factor(s, r * q / (1.0 + c / grid.dx ** 2 * s)))
                             for c in {ctx.params.disp for ctx in ctxs}]))
    if not gain <= 1.0:
        raise NumericalError(f"{scheme} scheme unstable: max|G| = {gain:.6g} > 1 "
                             f"at eps*lam/dx = {r:.6g}")


def _past(t: float, target: float) -> bool:
    """Whether time t lies past target by more than the landing tolerance,
    1e-12; a time at most that far past a target lands on it."""
    return t > target + 1e-12


def landing_targets(t0: float, t_final: float,
                    snapshot_times: Sequence[float]) -> list[float]:
    """The times a run from t0 lands on: the sorted distinct snapshot times,
    a time at most 1e-12 past t_final taken as t_final, then t_final unless
    the last of them is within 1e-12 of it.  A NaN or infinite time is a
    ValueError."""
    times = sorted(set(float(s) for s in snapshot_times))
    if not np.isfinite([t_final, *times]).all():
        raise ValueError("t_final and the snapshot times must be finite")
    if t_final <= t0:
        raise ValueError("t_final must exceed the current time")
    if any(s <= t0 or _past(s, t_final) for s in times):
        raise ValueError("snapshot times must lie in (t0, t_final]")
    times = sorted({min(s, t_final) for s in times})
    return times if times and not _past(t_final, times[-1]) else times + [t_final]


def land_snapshots(advance: Callable[[tuple, float], tuple],
                   read: Callable[[tuple, float], list[Field]], state: tuple,
                   t_final: float, snapshot_times: Sequence[float],
                   dt_nom: float) -> list[list[Field]]:
    """March state by nominal steps dt_nom and land on each requested time
    (to 1e-12) with one shorter step on a fork of the state.

    state is a tuple whose first item is the scheme's clock, which sums the
    steps; advance(state, dt) returns the state one step of dt on.  A time
    left within 1e-12 short of dt_nom still takes a nominal step.  The march
    goes on from the unforked state, so the field at time s is the final
    field of a run that ends at s, whatever else the run lands on.  read
    builds one Field per run the state holds, stamped with the requested
    time exactly; the result is one list per run, holding its field at each
    snapshot time and then the final field, last.  The march runs with
    float overflow and invalid operations silenced: the schemes' NaN/Inf
    checks report them.  A landed field with a value outside [-1, 2] (see
    the module docstring) is a NumericalError.  A dt_nom of at most 1e-12
    would march past its targets, and is a ValueError.
    """
    if not dt_nom > 1e-12:
        raise ValueError(f"nominal time step {dt_nom:g} does not exceed the "
                         "landing tolerance 1e-12")
    landed: list[list[Field]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for target in landing_targets(state[0], t_final, snapshot_times):
            while not _past(state[0] + dt_nom, target):
                state = advance(state, dt_nom)
            fields = read(advance(state, target - state[0])
                          if _past(target, state[0]) else state, target)
            reach = max(float(np.abs(f.values - _RANGE_CENTRE).max()) for f in fields)
            if not reach <= _RANGE_REACH:
                raise NumericalError(
                    f"field at t = {target:g} leaves [-1, 2] (|u - 1/2| reaches "
                    f"{reach:.6g}): the scheme diverged")
            landed.append(fields)
    return [list(run) for run in zip(*landed)]
