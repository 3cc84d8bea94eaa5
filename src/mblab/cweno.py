"""Third-order semi-discrete central scheme on cell averages of w.

CWENO reconstruction blends left/center/right stencil polynomials per cell,
with weights driven by smoothness indicators:

  IS_L = (wb_j - wb_{j-1})^2
  IS_R = (wb_{j+1} - wb_j)^2
  IS_C = (13/3)(wb_{j+1} - 2 wb_j + wb_{j-1})^2 + (1/4)(wb_{j+1} - wb_{j-1})^2
  alpha_i = c_i / (eps0 + IS_i)^2,  c_L = c_R = 1/4, c_C = 1/2, eps0 = 1e-6

The blended quadratic on cell j has

  A_j = wb_j - (W_C/12)(wb_{j+1} - 2 wb_j + wb_{j-1})
  B_j = [W_R (wb_{j+1}-wb_j) + W_C (wb_{j+1}-wb_{j-1})/2 + W_L (wb_j-wb_{j-1})]/dx
  C_j = 2 W_C (wb_{j+1} - 2 wb_j + wb_{j-1}) / dx^2

and the interface values are w^-_{j+1/2} from cell j, w^+_{j+1/2} from
cell j+1.  The semi-discrete update is

  d wb_j / dt = -(H_{j+1/2} - H_{j-1/2})/dx + eps Q_j

with the local-speed flux H and the fourth-order second difference Q,
integrated by classical RK4 with dt = lam dx.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flux import FluxModel, flux, flux_deriv
from .operators import (
    Field,
    GridSpec,
    HALF_GRID,
    INTEGER_GRID,
    MBLParams,
    _d2_order4,
    helmholtz_solve,
)

__all__ = [
    "Reconstruction",
    "RhsContext",
    "cweno_reconstruct",
    "local_speed",
    "numerical_flux",
    "diffusion_q",
    "semidiscrete_rhs",
    "rk4_step",
]

EPS0 = 1e-6
C_SIDE = 0.25
C_CENTER = 0.5


@dataclass
class Reconstruction:
    """Interface values of the per-cell quadratics.

    w_minus[i] and w_plus[i] are the two one-sided values at the interface
    between cells i and i+1.  weights stacks (W_L, W_C, W_R) per cell (edge
    cells use copied ghost averages).
    """

    w_minus: np.ndarray
    w_plus: np.ndarray
    weights: np.ndarray


def cweno_reconstruct(wbar, dx: float) -> Reconstruction:
    v = np.asarray(wbar, dtype=float)
    if v.size < 5:
        raise ValueError(f"need at least 5 cell averages, got {v.size}")
    ext = np.concatenate([[v[0]], v, [v[-1]]])
    dm = ext[1:-1] - ext[:-2]
    dp = ext[2:] - ext[1:-1]
    d2 = dp - dm

    is_l = dm ** 2
    is_r = dp ** 2
    is_c = (13.0 / 3.0) * d2 ** 2 + 0.25 * (dp + dm) ** 2
    al = C_SIDE / (EPS0 + is_l) ** 2
    ar = C_SIDE / (EPS0 + is_r) ** 2
    ac = C_CENTER / (EPS0 + is_c) ** 2
    total = al + ac + ar
    w_l, w_c, w_r = al / total, ac / total, ar / total

    a = v - (w_c / 12.0) * d2
    b = (w_r * dp + 0.5 * w_c * (dp + dm) + w_l * dm) / dx
    c = 2.0 * w_c * d2 / dx ** 2

    w_minus = a[:-1] + 0.5 * dx * b[:-1] + 0.125 * dx ** 2 * c[:-1]
    w_plus = a[1:] - 0.5 * dx * b[1:] + 0.125 * dx ** 2 * c[1:]
    return Reconstruction(w_minus=w_minus, w_plus=w_plus,
                          weights=np.stack([w_l, w_c, w_r], axis=1))


def local_speed(u_minus, u_plus, model: FluxModel):
    """max of the flux derivative over the two interface states."""
    a = np.maximum(flux_deriv(u_minus, model), flux_deriv(u_plus, model))
    return float(a) if np.isscalar(u_minus) and np.isscalar(u_plus) else a


def numerical_flux(u_minus, u_plus, w_minus, w_plus, model: FluxModel):
    """(f(u+) + f(u-))/2 - (a/2)(w+ - w-)."""
    a = local_speed(u_minus, u_plus, model)
    h = 0.5 * (flux(u_plus, model) + flux(u_minus, model)) \
        - 0.5 * a * (np.asarray(w_plus) - np.asarray(w_minus))
    return float(h) if np.ndim(h) == 0 else h


def diffusion_q(u, dx: float) -> np.ndarray:
    """(-u_{j-2} + 16u_{j-1} - 30u_j + 16u_{j+1} - u_{j+2}) / (12 dx^2),
    with one-sided closures of the same order at the two nodes per end."""
    return _d2_order4(np.asarray(u, dtype=float), dx)


@dataclass
class RhsContext:
    grid: GridSpec
    params: MBLParams
    model: FluxModel
    bc: tuple[Callable[[float], float], Callable[[float], float]]


def semidiscrete_rhs(wbar: np.ndarray, t: float, ctx: RhsContext) -> np.ndarray:
    """-(H_{j+1/2} - H_{j-1/2})/dx + eps Q_j on the cell averages.

    The Dirichlet values enter as one constant ghost cell per side before
    reconstruction, so the outermost interfaces sit at the domain ends.
    Interface w-values are converted to u-values by the order-4 solve on
    the interface-point grid; the diffusion term uses cell-average u from
    the tridiagonal half-grid solve, which reproduces the published
    convergence behaviour of the scheme.
    """
    grid, params, model = ctx.grid, ctx.params, ctx.model
    g, h = ctx.bc[0](t), ctx.bc[1](t)
    dx = grid.dx
    padded = np.concatenate([[g], wbar, [h]])
    rec = cweno_reconstruct(padded, dx)
    wm, wp = rec.w_minus, rec.w_plus
    um = helmholtz_solve(Field(wm, INTEGER_GRID, t), wm[0], wm[-1],
                         params, dx, order=4).values
    up = helmholtz_solve(Field(wp, INTEGER_GRID, t), wp[0], wp[-1],
                         params, dx, order=4).values
    flux_h = numerical_flux(um, up, wm, wp, model)
    out = -(flux_h[1:] - flux_h[:-1]) / dx
    if params.epsilon != 0.0:
        ubar = helmholtz_solve(Field(wbar, HALF_GRID, t), g, h,
                               params, dx, order=2).values
        out = out + params.epsilon * diffusion_q(ubar, dx)
    return out


def rk4_step(wbar: np.ndarray, t: float, dt: float, ctx: RhsContext,
             rhs: Callable = semidiscrete_rhs) -> np.ndarray:
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = rhs(wbar, t, ctx)
    k2 = rhs(wbar + 0.5 * dt * k1, t + 0.5 * dt, ctx)
    k3 = rhs(wbar + 0.5 * dt * k2, t + 0.5 * dt, ctx)
    k4 = rhs(wbar + dt * k3, t + dt, ctx)
    return wbar + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
