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

The interface values w^- and w^+ travel as one two-column block: the
reconstruction returns them as the rows of a C-ordered (2, interfaces)
array, whose transpose is the Fortran-ordered (interfaces, 2) right-hand
side of one order-4 solve for u^- and u^+, and the flux H takes both
blocks in one flux evaluation.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NumericalError
from .flux import FluxModel, flux_and_deriv
from .march import RunContext, _check_linear_gain, land_snapshots
from .operators import (
    Field,
    HALF_GRID,
    _d2_order4,
    _solve_unknowns,
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


def cweno_reconstruct(wbar, dx: float, bc) -> np.ndarray:
    """Interface values of the per-cell quadratics, as one C-ordered
    (2, interfaces) block whose rows are w_minus and w_plus.

    Two constant ghost cells hold each boundary value of bc = (g, h), so
    the n + 1 interfaces of the n cells run from one domain end to the
    other; w_minus[i] and w_plus[i] are the one-sided values at interface i
    from the cells on its left and right.  The arithmetic is done in place,
    in the rounding order of the formulas in the module docstring.
    """
    v = np.asarray(wbar, dtype=float)
    if v.size < 5:
        raise ValueError(f"need at least 5 cell averages, got {v.size}")
    ext = np.empty(v.size + 4)
    ext[:2], ext[2:-2], ext[-2:] = bc[0], v, bc[1]
    cells = ext[1:-1]
    dm = cells - ext[:-2]
    dp = ext[2:] - cells
    d2 = dp - dm
    dsum = dp + dm

    # alpha_i = c_i / (eps0 + IS_i)^2, then the weights alpha_i / total
    al = dm * dm
    ar = dp * dp
    ac = d2 * d2
    ac *= 13.0 / 3.0
    ac += 0.25 * (dsum * dsum)
    for alpha, weight in ((al, C_SIDE), (ar, C_SIDE), (ac, C_CENTER)):
        alpha += EPS0
        alpha *= alpha
        np.divide(weight, alpha, out=alpha)
    total = al + ac
    total += ar
    al /= total
    ac /= total
    ar /= total

    # A, (dx/2) B and (dx^2/8) C of each cell's quadratic
    a = ac / 12.0
    a *= d2
    np.subtract(cells, a, out=a)
    b = ar * dp
    b += (0.5 * ac) * dsum
    b += np.multiply(al, dm, out=al)
    b /= dx
    b *= 0.5 * dx
    c = 2.0 * ac
    c *= d2
    c /= dx ** 2
    c *= 0.125 * dx ** 2

    out = np.empty((2, v.size + 1))
    np.add(a[:-1], b[:-1], out=out[0])
    out[0] += c[:-1]
    np.subtract(a[1:], b[1:], out=out[1])
    out[1] += c[1:]
    return out


def numerical_flux(u: np.ndarray, w: np.ndarray, model: FluxModel) -> np.ndarray:
    """(f(u+) + f(u-))/2 - (a/2)(w+ - w-) with the local speed
    a = max(f'(u-), f'(u+)), from one flux evaluation of the block.

    u and w are (2, interfaces) blocks whose rows are the minus and plus
    interface values, as cweno_reconstruct returns them.
    """
    f, d = flux_and_deriv(u, model)
    out = f[1] + f[0]
    out *= 0.5
    jump = np.maximum(d[0], d[1])
    jump *= 0.5
    jump *= w[1] - w[0]
    out -= jump
    return out


def semidiscrete_rhs(wbar: np.ndarray, ctx: RunContext) -> np.ndarray:
    """-(H_{j+1/2} - H_{j-1/2})/dx + eps Q_j on the cell averages, at any
    time: the boundary data are constant, so the right-hand side is autonomous.

    The Dirichlet values fill two ghost cells per side for the
    reconstruction, so the outermost interfaces sit at the domain ends.
    The interface w-values, minus and plus, are converted to u-values as
    one two-column block by the order-4 solve on the interface-point grid;
    its Field checks the interface values and their u for NaN/Inf.  The
    diffusion term uses cell-average u from the tridiagonal half-grid
    solve, which reproduces the published convergence behaviour of the
    scheme.
    """
    grid, params, model = ctx.grid, ctx.params, ctx.model
    dx, c = grid.dx, params.disp
    w = cweno_reconstruct(wbar, dx, ctx.bc)
    u = helmholtz_solve(Field(w.T), w[:, 0], w[:, -1], c, dx, order=4).values.T
    flux_h = numerical_flux(u, w, model)
    out = flux_h[1:] - flux_h[:-1]
    out /= -dx
    if params.epsilon != 0.0:
        q = _d2_order4(_solve_unknowns(wbar.copy(), HALF_GRID, *ctx.bc, c, dx), dx)
        q *= params.epsilon
        out += q
    return out


def rk4_step(wbar: np.ndarray, dt: float, ctx: RunContext) -> np.ndarray:
    """One classical RK4 step of the cell averages; NaN/Inf in the new
    averages is a NumericalError."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = semidiscrete_rhs(wbar, ctx)
    k2 = semidiscrete_rhs(wbar + 0.5 * dt * k1, ctx)
    k3 = semidiscrete_rhs(wbar + 0.5 * dt * k2, ctx)
    k4 = semidiscrete_rhs(wbar + dt * k3, ctx)
    out = wbar + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise NumericalError("new cell averages contain NaN/Inf values")
    return out


def run(wbar0: np.ndarray, ctx: RunContext, t_final: float,
        snapshot_times: Sequence[float] = ()) -> list[Field]:
    """Advance the cell averages of w from t = 0 by RK4 steps of dt = lam dx,
    landing exactly on each requested time.

    Returns the one run of march.land_snapshots: fields holding the cell
    averages of u (the order-4 half-grid solve), the final state last.  Two
    conditions are rejected before the first step: lam * C >= 1/2 (f' is
    clamped, so C bounds the speed of u everywhere), and an RK4 factor
    above 1 for some mode of the diffusion term (march._check_linear_gain).
    A NaN or infinite time is a ValueError (march.landing_targets).  The
    boundary values were checked by the RunContext.
    """
    grid, params = ctx.grid, ctx.params
    if grid.lam * ctx.model.C >= 0.5:
        raise NumericalError(
            f"CFL violation: lambda*C = {grid.lam * ctx.model.C:.6g} >= 0.5")
    # RK4's degree-4 Taylor polynomial of e^-z on the symbol s + s^2/12 of
    # the fourth-order Q
    _check_linear_gain("third-order", [ctx], lambda s: s + s * s / 12.0,
                       lambda s, z: 1.0 - z * (1.0 - z / 2.0 * (1.0 - z / 3.0 * (1.0 - z / 4.0))))

    def advance(state: tuple, dt: float) -> tuple:
        t, wbar = state
        return t + dt, rk4_step(wbar, dt, ctx)

    def read(state: tuple, time: float) -> list[Field]:
        return [helmholtz_solve(Field(state[1], HALF_GRID, time), *ctx.bc,
                                params.disp, grid.dx, order=4)]

    return land_snapshots(advance, read, (0.0, wbar0), t_final, snapshot_times,
                          grid.lam * grid.dx)[0]
