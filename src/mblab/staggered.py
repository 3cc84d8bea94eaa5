"""Second-order staggered central schemes (trapezoid and midpoint variants).

One step advances node values onto the grid shifted by dx/2: the evolved
quantity is w = (I - eps^2 tau D^2) u, moved by a predictor-corrector pair
with minmod-limited slopes, and u is recovered from w by the banded
Helmholtz solve.  Steps are taken in pairs so that reported solutions live
on the integer grid.

Per step, with lam = dt/dx and c = eps^2 tau:

  staggered average   wb_{j+1/2} = (w_j + w_{j+1})/2 + (w'_j - w'_{j+1})/8
  predictor           w_j(t+dt/2) = w_j + (eps dx D2 u_j - f'_j) lam/2
  trapezoid corrector (I - (c + eps dt/2) D2) u(t+dt) =
                        (I - (c - eps dt/2) D2) ub(t) - lam [df at t+dt/2]
  midpoint corrector  (I - c D2) u(t+dt) =
                        wb(t) - lam [df at t+dt/2] + eps dt D2 ub(t+dt/2)

where w', f' are minmod-limited undivided differences and df is the flux
difference between the two neighbors of the new staggered node at the
half time.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .march import land_snapshots
from .errors import NumericalError
from .flux import FluxModel, flux, flux_deriv
from .operators import (
    Field,
    GridSpec,
    HALF_GRID,
    INTEGER_GRID,
    MBLParams,
    _d2_order2,
    helmholtz_apply,
    helmholtz_solve,
)

__all__ = [
    "Scheme2State",
    "make_state",
    "predictor",
    "step",
    "cfl_check",
    "run",
]

TRAPEZOID = "trapezoid"
MIDPOINT = "midpoint"


@dataclass
class Scheme2State:
    u: Field
    w: Field
    grid: GridSpec
    params: MBLParams
    model: FluxModel
    variant: str
    bc: tuple[Callable[[float], float], Callable[[float], float]]


def make_state(u0, grid: GridSpec, params: MBLParams, model: FluxModel,
               variant: str, bc) -> Scheme2State:
    """Build a consistent state from node-centered initial values."""
    if variant not in (TRAPEZOID, MIDPOINT):
        raise ValueError(f"unknown variant {variant!r}")
    u = Field(np.asarray(u0, dtype=float).copy(), INTEGER_GRID, 0.0)
    state = Scheme2State(u=u, w=u, grid=grid, params=params, model=model,
                         variant=variant, bc=bc)
    state.w = _to_w(state)
    return state


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(sgn a + sgn b)/2 * min(|a|, |b|), elementwise."""
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def _ghost_slopes(v: np.ndarray, g: float, h: float) -> np.ndarray:
    """Minmod slopes against constant-value ghosts at both ends."""
    ext = np.concatenate([[g], v, [h]])
    return _minmod(ext[2:] - ext[1:-1], ext[1:-1] - ext[:-2])


def _to_w(state: Scheme2State) -> Field:
    """w = (I - eps^2 tau D^2) u under the ghost policy of u's phase."""
    u = state.u
    if u.phase == INTEGER_GRID:
        return helmholtz_apply(u, state.params, state.grid.dx)
    g, h = state.bc[0](u.time), state.bc[1](u.time)
    w = u.values - state.params.disp * _d2_order2(u.values, state.grid.dx, g, h)
    return Field(w, phase=u.phase, time=u.time)


def cfl_check(u: Field, grid: GridSpec, model: FluxModel) -> dict:
    """ok iff lam * max|f'(u_j)| < 1/2; margin is the distance to the limit."""
    speed = float(np.max(np.abs(flux_deriv(u.values, model))))
    margin = 0.5 - grid.lam * speed
    return {"ok": margin > 0.0, "margin": margin}


def predictor(state: Scheme2State) -> Field:
    """w at t + dt/2 on the current grid phase.

    Boundary nodes of an integer-phase field are replaced by the Dirichlet
    values at the half time; half-phase nodes are all interior.
    """
    grid, params, model = state.grid, state.params, state.model
    dx, lam = grid.dx, grid.lam
    dt = lam * dx
    t = state.u.time
    g, h = state.bc[0](t), state.bc[1](t)
    u, w = state.u.values, state.w.values
    f = flux(u, model)
    d2u = _d2_order2(u, dx, g, h)
    fslope = _ghost_slopes(f, flux(g, model), flux(h, model))
    wp = w + (params.epsilon * dx * d2u - fslope) * lam / 2.0
    if state.u.phase == INTEGER_GRID:
        wp[0] = state.bc[0](t + dt / 2.0)
        wp[-1] = state.bc[1](t + dt / 2.0)
    return Field(wp, phase=state.u.phase, time=t + dt / 2.0)


def _staggered_average(w: np.ndarray, slope: np.ndarray) -> np.ndarray:
    return 0.5 * (w[:-1] + w[1:]) + 0.125 * (slope[:-1] - slope[1:])


def step(state: Scheme2State) -> Scheme2State:
    """One staggered step of the state's variant; the output phase is toggled."""
    grid, params, model = state.grid, state.params, state.model
    dx, lam = grid.dx, grid.lam
    dt = lam * dx
    eps = params.epsilon
    c = params.disp
    t = state.u.time
    g0, h0 = state.bc[0](t), state.bc[1](t)
    gh, hh = state.bc[0](t + dt / 2.0), state.bc[1](t + dt / 2.0)
    g1, h1 = state.bc[0](t + dt), state.bc[1](t + dt)
    new_phase = HALF_GRID if state.u.phase == INTEGER_GRID else INTEGER_GRID
    # the unknowns on the new points: every half cell, or the interior nodes
    inner = slice(None) if new_phase == HALF_GRID else slice(1, -1)

    def solve_new(values, g, h, time, coefficient=None):
        """u on the new staggered points from values at their unknowns."""
        if new_phase == INTEGER_GRID:
            values = np.concatenate([[g], values, [h]])
        return helmholtz_solve(Field(values, new_phase, time), g, h, params,
                               dx, order=2, coefficient=coefficient).values

    check = cfl_check(state.u, grid, model)
    if not check["ok"]:
        raise NumericalError(
            f"CFL violation: lambda*max|f'| = {0.5 - check['margin']:.6g} >= 0.5")

    w = state.w.values
    wbar = _staggered_average(w, _ghost_slopes(w, g0, h0))

    # predictor, converted to u at the half time
    wp = predictor(state)
    up = helmholtz_solve(wp, gh, hh, params, dx, order=2)
    fph = flux(up.values, model)
    df = fph[1:] - fph[:-1]

    if state.variant == TRAPEZOID:
        ubar = solve_new(wbar, g0, h0, t)[inner]
        rhs = ubar - (c - eps * dt / 2.0) * _d2_order2(ubar, dx, g0, h0) - lam * df
        coefficient = c + eps * dt / 2.0
    else:  # MIDPOINT
        wbar_mid = _staggered_average(wp.values, _ghost_slopes(wp.values, gh, hh))
        ubar_mid = solve_new(wbar_mid, gh, hh, t + dt / 2.0)[inner]
        rhs = wbar - lam * df + eps * dt * _d2_order2(ubar_mid, dx, gh, hh)
        coefficient = None
    u_new = solve_new(rhs, g1, h1, t + dt, coefficient)

    out = replace(state, u=Field(u_new, new_phase, t + dt))
    out.w = _to_w(out)
    return out


def run(state: Scheme2State, t_final: float, snapshot_times: Sequence[float] = ()
        ) -> list[Field]:
    """Advance in step pairs, landing exactly on each requested time.

    Snapshot times (and t_final) are hit by shrinking the final pair's dt;
    returned fields all live on the integer grid, the final state last.
    """
    lam_nom = state.grid.lam
    dx = state.grid.dx
    pair = 2.0 * (lam_nom * dx)  # two steps of dt = lam_nom * dx

    def advance(dt: float) -> float:
        nonlocal state
        state = _with_lam(state, lam_nom if dt == pair else dt / 2.0 / dx)
        state = step(step(state))
        return state.u.time

    return land_snapshots(advance, lambda: state.u, state.u.time, t_final,
                          snapshot_times, pair)


def _with_lam(state: Scheme2State, lam: float) -> Scheme2State:
    if state.grid.lam == lam:
        return state
    grid = GridSpec(L=state.grid.L, n_cells=state.grid.n_cells, dx=state.grid.dx,
                    lam=lam, x0=state.grid.x0)
    return replace(state, grid=grid)
