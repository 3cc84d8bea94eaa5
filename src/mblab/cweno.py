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

from typing import Sequence

import numpy as np

from .errors import NumericalError
from .flux import FluxModel, flux_and_deriv
from .march import RunContext, land_snapshots
from .operators import (
    Field,
    HALF_GRID,
    _d2_order4,
    _padded,
    helmholtz_solve,
)

__all__ = [
    "cweno_reconstruct",
    "numerical_flux",
    "semidiscrete_rhs",
    "rk4_step",
    "run",
]

EPS0 = 1e-6
C_SIDE = 0.25
C_CENTER = 0.5


def cweno_reconstruct(wbar, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Interface values (w_minus, w_plus) of the per-cell quadratics.

    w_minus[i] and w_plus[i] are the two one-sided values at the interface
    between cells i and i+1 (edge cells use copied ghost averages).
    """
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
    return w_minus, w_plus


def numerical_flux(u_minus: np.ndarray, u_plus: np.ndarray, w_minus: np.ndarray,
                   w_plus: np.ndarray, model: FluxModel) -> np.ndarray:
    """(f(u+) + f(u-))/2 - (a/2)(w+ - w-) with the local speed
    a = max(f'(u-), f'(u+))."""
    f_minus, d_minus = flux_and_deriv(u_minus, model)
    f_plus, d_plus = flux_and_deriv(u_plus, model)
    a = np.maximum(d_minus, d_plus)
    return 0.5 * (f_plus + f_minus) - 0.5 * a * (w_plus - w_minus)


def semidiscrete_rhs(wbar: np.ndarray, ctx: RunContext) -> np.ndarray:
    """-(H_{j+1/2} - H_{j-1/2})/dx + eps Q_j on the cell averages.

    The Dirichlet values enter as one constant ghost cell per side before
    reconstruction, so the outermost interfaces sit at the domain ends.
    Interface w-values are converted to u-values by the order-4 solve on
    the interface-point grid; the diffusion term uses cell-average u from
    the tridiagonal half-grid solve, which reproduces the published
    convergence behaviour of the scheme.
    """
    grid, params, model = ctx.grid, ctx.params, ctx.model
    g, h = ctx.bc
    dx, c = grid.dx, params.disp
    wm, wp = cweno_reconstruct(_padded(wbar, g, h), dx)
    um = helmholtz_solve(Field(wm), wm[0], wm[-1], c, dx, order=4).values
    up = helmholtz_solve(Field(wp), wp[0], wp[-1], c, dx, order=4).values
    flux_h = numerical_flux(um, up, wm, wp, model)
    out = -(flux_h[1:] - flux_h[:-1]) / dx
    if params.epsilon != 0.0:
        ubar = helmholtz_solve(Field(wbar, HALF_GRID), g, h, c, dx, order=2).values
        out = out + params.epsilon * _d2_order4(ubar, dx)
    return out


def rk4_step(wbar: np.ndarray, dt: float, ctx: RunContext) -> np.ndarray:
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = semidiscrete_rhs(wbar, ctx)
    k2 = semidiscrete_rhs(wbar + 0.5 * dt * k1, ctx)
    k3 = semidiscrete_rhs(wbar + 0.5 * dt * k2, ctx)
    k4 = semidiscrete_rhs(wbar + dt * k3, ctx)
    return wbar + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_gain(r: float, kappa: float) -> float:
    """max over s = 4 sin^2(theta/2) in [0, 4] of the RK4 factor
    |1 + z + z^2/2 + z^3/6 + z^4/24| of the diffusion term, with
    z = -r q(s) / (1 + kappa s), q(s) = s + s^2/12 the symbol of the
    fourth-order Q, r = eps lam / dx and kappa = eps^2 tau / dx^2."""
    s = np.linspace(0.0, 4.0, 4001)
    z = -r * (s + s * s / 12.0) / (1.0 + kappa * s)
    factor = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return float(np.max(np.abs(factor)))


def run(wbar0: np.ndarray, ctx: RunContext, t_final: float,
        snapshot_times: Sequence[float] = ()) -> list[Field]:
    """Advance the cell averages of w from t = 0 by RK4 steps of dt = lam dx,
    landing exactly on each requested time.

    Returned fields hold the cell averages of u (the order-4 half-grid
    solve), the final state last.  Two conditions are rejected before the
    first step: lam * C >= 1/2 (f' is clamped, so C bounds the speed of u
    everywhere), and an RK4 factor above 1 for some mode of the diffusion
    term (_rk4_gain).  The boundary values were checked by the RunContext.
    """
    grid, params = ctx.grid, ctx.params
    if grid.lam * ctx.model.C >= 0.5:
        raise NumericalError(
            f"CFL violation: lambda*C = {grid.lam * ctx.model.C:.6g} >= 0.5")
    r = params.epsilon * grid.lam / grid.dx
    gain = _rk4_gain(r, params.disp / grid.dx ** 2)
    if gain > 1.0:
        raise NumericalError(f"third-order scheme unstable: max|R| = {gain:.6g} > 1 "
                             f"at eps*lam/dx = {r:.6g}")

    def advance(state: tuple, dt: float) -> tuple:
        t, wbar = state
        return t + dt, rk4_step(wbar, dt, ctx)

    def read(state: tuple, time: float) -> Field:
        return helmholtz_solve(Field(state[1], HALF_GRID, time), *ctx.bc,
                               params.disp, grid.dx, order=4)

    return land_snapshots(advance, read, (0.0, wbar0), t_final, snapshot_times,
                          grid.lam * grid.dx)
