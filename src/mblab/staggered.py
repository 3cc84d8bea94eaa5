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

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .march import land_snapshots
from .errors import NumericalError
from .flux import FluxModel, flux, flux_and_deriv
from .operators import (
    Field,
    GridSpec,
    HALF_GRID,
    INTEGER_GRID,
    MBLParams,
    _d2_order2,
    _solve_unknowns,
    helmholtz_apply,
)

__all__ = [
    "Scheme2State",
    "make_state",
    "step",
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
    """Build a consistent state from node-centered initial values.

    A midpoint state whose linear amplification exceeds 1 is a
    NumericalError: its run would grow without bound yet stay finite, and
    the clamped f' hides it from the CFL test.
    """
    if variant not in (TRAPEZOID, MIDPOINT):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == MIDPOINT:
        r = params.epsilon * grid.lam / grid.dx
        gain = _midpoint_gain(r, params.disp / grid.dx ** 2)
        if gain > 1.0:
            raise NumericalError(f"midpoint scheme unstable: max|G| = {gain:.6g} > 1 "
                                 f"at eps*lam/dx = {r:.6g}")
    u = Field(np.asarray(u0, dtype=float).copy(), INTEGER_GRID, 0.0)
    return Scheme2State(u=u, w=helmholtz_apply(u, params, grid.dx), grid=grid,
                        params=params, model=model, variant=variant, bc=bc)


def _midpoint_gain(r: float, kappa: float) -> float:
    """max over s = 4 sin^2(theta/2) in [0, 4] of the midpoint corrector's
    linear amplification |G| = cos(theta/2) |1 - z + z^2/2|, with
    z = r s / (1 + kappa s), r = eps lam / dx and kappa = eps^2 tau / dx^2."""
    s = np.linspace(0.0, 4.0, 4001)
    z = r * s / (1.0 + kappa * s)
    return float(np.max(np.sqrt(1.0 - s / 4.0) * (1.0 - z + 0.5 * z * z)))


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(sgn a + sgn b)/2 * min(|a|, |b|), elementwise."""
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def _slopes(ext: np.ndarray) -> np.ndarray:
    """Minmod slopes of ghost-extended values, along the last axis."""
    d = ext[..., 1:] - ext[..., :-1]
    return _minmod(d[..., 1:], d[..., :-1])


def _ghost_slopes(v: np.ndarray, g: float, h: float) -> np.ndarray:
    """Minmod slopes against constant-value ghosts at both ends."""
    return _slopes(np.concatenate([[g], v, [h]]))


def _cfl_margin(speeds: np.ndarray, lam: float) -> float:
    """1/2 - lam * max|f'|: positive iff the step is stable."""
    return 0.5 - lam * float(np.abs(speeds).max())


def _predict(state: Scheme2State, fslope: np.ndarray, g: float, h: float,
             gh: float, hh: float) -> np.ndarray:
    """w at t + dt/2 from the flux slopes, with ghosts g, h at t.

    Boundary nodes of an integer-phase field take the Dirichlet values gh,
    hh at the half time; half-phase nodes are all interior.
    """
    dx, lam = state.grid.dx, state.grid.lam
    d2u = _d2_order2(state.u.values, dx, g, h)
    wp = state.w.values + (state.params.epsilon * dx * d2u - fslope) * lam / 2.0
    if state.u.phase == INTEGER_GRID:
        wp[0], wp[-1] = gh, hh
    return wp


def _staggered_average(w: np.ndarray, slope: np.ndarray) -> np.ndarray:
    return 0.5 * (w[:-1] + w[1:]) + 0.125 * (slope[:-1] - slope[1:])


def step(state: Scheme2State) -> Scheme2State:
    """One staggered step of the state's variant; the output phase is toggled.

    Works on arrays from the state's two Fields to the new state's two.  A
    NaN/Inf anywhere is a NumericalError: the new Fields check themselves,
    and the six boundary values and the half-time u are checked here,
    because minmod and the clamped flux can turn an Inf there finite.
    """
    grid, params, model = state.grid, state.params, state.model
    dx, lam = grid.dx, grid.lam
    dt = lam * dx
    eps = params.epsilon
    c = params.disp
    t = state.u.time
    left, right = state.bc
    g0, h0 = left(t), right(t)
    gh, hh = left(t + dt / 2.0), right(t + dt / 2.0)
    g1, h1 = left(t + dt), right(t + dt)
    if not all(map(math.isfinite, (g0, h0, gh, hh, g1, h1))):
        raise NumericalError("boundary value is NaN/Inf")
    phase = state.u.phase
    new_phase = HALF_GRID if phase == INTEGER_GRID else INTEGER_GRID
    u, w = state.u.values, state.w.values

    # one flux evaluation on u and its ghosts gives the slopes and the speed
    f_ext, speeds = flux_and_deriv(np.concatenate([[g0], u, [h0]]), model)
    margin = _cfl_margin(speeds[1:-1], lam)
    if not margin > 0.0:
        raise NumericalError(
            f"CFL violation: lambda*max|f'| = {0.5 - margin:.6g} >= 0.5")

    ext = np.empty((2, u.size + 2))
    ext[0, 0], ext[0, 1:-1], ext[0, -1] = g0, w, h0
    ext[1] = f_ext
    wslope, fslope = _slopes(ext)
    wbar = _staggered_average(w, wslope)

    # predictor, converted to u at the half time
    wp = _predict(state, fslope, g0, h0, gh, hh)
    up = wp.copy()
    unknowns = slice(1, -1) if phase == INTEGER_GRID else slice(None)
    up[unknowns] = _solve_unknowns(up[unknowns], phase, gh, hh, c, dx)
    if not np.isfinite(up).all():
        raise NumericalError("half-time u contains NaN/Inf values")
    fph = flux(up, model)
    df = fph[1:] - fph[:-1]

    # the unknowns on the new points: every half cell, or the interior nodes
    if state.variant == TRAPEZOID:
        ubar = _solve_unknowns(wbar, new_phase, g0, h0, c, dx)
        rhs = ubar - (c - eps * dt / 2.0) * _d2_order2(ubar, dx, g0, h0) - lam * df
        coefficient = c + eps * dt / 2.0
    else:  # MIDPOINT
        wbar_mid = _staggered_average(wp, _ghost_slopes(wp, gh, hh))
        ubar_mid = _solve_unknowns(wbar_mid, new_phase, gh, hh, c, dx)
        rhs = wbar - lam * df + eps * dt * _d2_order2(ubar_mid, dx, gh, hh)
        coefficient = c
    u_new = _solve_unknowns(rhs, new_phase, g1, h1, coefficient, dx)

    if new_phase == INTEGER_GRID:
        u_out = Field(np.concatenate([[g1], u_new, [h1]]), new_phase, t + dt)
        w_out = helmholtz_apply(u_out, params, dx)
    else:
        u_out = Field(u_new, new_phase, t + dt)
        w_out = Field(u_new - c * _d2_order2(u_new, dx, g1, h1), new_phase, t + dt)
    return Scheme2State(u=u_out, w=w_out, grid=grid, params=params, model=model,
                        variant=state.variant, bc=state.bc)


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
