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

from typing import Sequence

import numpy as np

from .march import RunContext, land_snapshots
from .errors import NumericalError
from .flux import flux, flux_and_deriv
from .operators import (
    Field,
    HALF_GRID,
    INTEGER_GRID,
    _d2_order2,
    _padded,
    _solve_unknowns,
    helmholtz_apply,
)

__all__ = [
    "step",
    "run",
]

TRAPEZOID = "trapezoid"
MIDPOINT = "midpoint"


def _midpoint_gain(r: float, kappa: float) -> float:
    """max over s = 4 sin^2(theta/2) in [0, 4] of the midpoint corrector's
    linear amplification |G| = cos(theta/2) |1 - z + z^2/2|, with
    z = r s / (1 + kappa s), r = eps lam / dx and kappa = eps^2 tau / dx^2."""
    s = np.linspace(0.0, 4.0, 4001)
    z = r * s / (1.0 + kappa * s)
    return float(np.max(np.sqrt(1.0 - s / 4.0) * (1.0 - z + 0.5 * z * z)))


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(sgn a + sgn b)/2 * min(|a|, |b|), elementwise, as the common positive
    part plus the common negative part (at most one is nonzero)."""
    return np.maximum(np.minimum(a, b), 0.0) + np.minimum(np.maximum(a, b), 0.0)


def _slopes(ext: np.ndarray) -> np.ndarray:
    """Minmod slopes of ghost-extended values, along the last axis."""
    d = ext[..., 1:] - ext[..., :-1]
    return _minmod(d[..., 1:], d[..., :-1])


def _cfl_margin(speeds: np.ndarray, lam: float) -> float:
    """1/2 - lam * max|f'|: positive iff the step is stable.  The clamped
    flux is nondecreasing, so the speeds need no abs."""
    return 0.5 - lam * float(speeds.max())


def _predict(u_ext: np.ndarray, w: np.ndarray, fslope: np.ndarray,
             ctx: RunContext, lam: float) -> np.ndarray:
    """w at t + dt/2 from u with its ghosts and the flux slopes.

    Boundary nodes of an integer-phase field keep the Dirichlet values;
    half-phase nodes are all interior.
    """
    dx = ctx.grid.dx
    # w + (eps dx D2 u - fslope) lam / 2, in place and in that rounding order
    wp = _d2_order2(u_ext, dx)
    wp *= ctx.params.epsilon * dx
    wp -= fslope
    wp *= lam
    wp /= 2.0
    wp += w
    if w.size == ctx.grid.n_cells + 1:
        wp[0], wp[-1] = ctx.bc
    return wp


def _staggered_average(w: np.ndarray, slope: np.ndarray) -> np.ndarray:
    return 0.5 * (w[:-1] + w[1:]) + 0.125 * (slope[:-1] - slope[1:])


def step(u: np.ndarray, w: np.ndarray, ctx: RunContext, variant: str,
         lam: float) -> tuple[np.ndarray, np.ndarray]:
    """One staggered step of dt = lam dx from (u, w) to the other grid phase.

    n_cells + 1 values are nodes, n_cells are half cells.  A NaN/Inf in the
    new u or w, or in the half-time u (the clamped flux can turn an Inf
    there finite), is a NumericalError.  The boundary values were checked
    by the RunContext.
    """
    dx = ctx.grid.dx
    dt = lam * dx
    eps = ctx.params.epsilon
    c = ctx.params.disp
    g, h = ctx.bc
    phase = INTEGER_GRID if u.size == ctx.grid.n_cells + 1 else HALF_GRID
    new_phase = HALF_GRID if phase == INTEGER_GRID else INTEGER_GRID

    # u with its ghosts gives the flux, its slopes and speed, and D2 u
    u_ext = _padded(u, g, h)
    f_ext, speeds = flux_and_deriv(u_ext, ctx.model)
    margin = _cfl_margin(speeds[1:-1], lam)
    if not margin > 0.0:
        raise NumericalError(
            f"CFL violation: lambda*max|f'| = {0.5 - margin:.6g} >= 0.5")

    ext = np.empty((2, u.size + 2))
    ext[0, 0], ext[0, 1:-1], ext[0, -1] = g, w, h
    ext[1] = f_ext
    wslope, fslope = _slopes(ext)
    wbar = _staggered_average(w, wslope)

    # predictor, converted to u at the half time
    wp = _predict(u_ext, w, fslope, ctx, lam)
    up = wp.copy()
    unknowns = slice(1, -1) if phase == INTEGER_GRID else slice(None)
    up[unknowns] = _solve_unknowns(up[unknowns], phase, g, h, c, dx)
    if not np.isfinite(up).all():
        raise NumericalError("half-time u contains NaN/Inf values")
    fph = flux(up, ctx.model)
    df = fph[1:] - fph[:-1]

    # the unknowns on the new points: every half cell, or the interior nodes
    if variant == TRAPEZOID:
        ubar = _solve_unknowns(wbar, new_phase, g, h, c, dx)
        d2 = _d2_order2(_padded(ubar, g, h), dx)
        rhs = ubar - (c - eps * dt / 2.0) * d2 - lam * df
        coefficient = c + eps * dt / 2.0
    else:  # MIDPOINT
        wbar_mid = _staggered_average(wp, _slopes(_padded(wp, g, h)))
        ubar_mid = _solve_unknowns(wbar_mid, new_phase, g, h, c, dx)
        d2 = _d2_order2(_padded(ubar_mid, g, h), dx)
        rhs = wbar - lam * df + eps * dt * d2
        coefficient = c
    u_new = _solve_unknowns(rhs, new_phase, g, h, coefficient, dx)
    u_new_ext = _padded(u_new, g, h)
    w_new = _d2_order2(u_new_ext, dx)  # u_new - c D2 u_new, in place
    w_new *= c
    np.subtract(u_new, w_new, out=w_new)
    if new_phase == INTEGER_GRID:  # the pinned boundary nodes are the ghosts
        u_new, w_new = u_new_ext, _padded(w_new, g, h)
    if not (np.isfinite(u_new).all() and np.isfinite(w_new).all()):
        raise NumericalError("new u or w contains NaN/Inf values")
    return u_new, w_new


def run(u0, ctx: RunContext, variant: str, t_final: float,
        snapshot_times: Sequence[float] = ()) -> list[Field]:
    """Advance node values u0 from t = 0 in step pairs, landing exactly on
    each requested time.

    Snapshot times (and t_final) are hit by shrinking the final pair's dt;
    returned fields all live on the integer grid, the final state last.  A
    midpoint run whose linear amplification exceeds 1 is a NumericalError
    before the first step: it would grow without bound yet stay finite, and
    the clamped f' hides it from the CFL test.
    """
    if variant not in (TRAPEZOID, MIDPOINT):
        raise ValueError(f"unknown variant {variant!r}")
    grid, params = ctx.grid, ctx.params
    lam_nom, dx = grid.lam, grid.dx
    if variant == MIDPOINT:
        r = params.epsilon * lam_nom / dx
        gain = _midpoint_gain(r, params.disp / dx ** 2)
        if gain > 1.0:
            raise NumericalError(f"midpoint scheme unstable: max|G| = {gain:.6g} > 1 "
                                 f"at eps*lam/dx = {r:.6g}")
    start = Field(u0, INTEGER_GRID, 0.0)
    u, w, t = start.values, helmholtz_apply(start, params, dx).values, 0.0
    pair = 2.0 * (lam_nom * dx)  # two steps of dt = lam_nom * dx

    def advance(dt: float) -> float:
        nonlocal u, w, t
        lam = lam_nom if dt == pair else dt / 2.0 / dx
        for _ in range(2):
            u, w = step(u, w, ctx, variant, lam)
            t += lam * dx
        return t

    return land_snapshots(advance, lambda time: Field(u, INTEGER_GRID, time),
                          0.0, t_final, snapshot_times, pair)
