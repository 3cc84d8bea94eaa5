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
array, whose inner columns, copied into a Fortran-ordered (unknowns, 2)
block, are the right-hand side of one order-4 solve for u^- and u^+, and
the flux H takes both blocks in one flux evaluation.

A run starts from the cell averages of u, as a staggered run starts from
its node values, and forms wb = ubar - c D^2 ubar itself.  It builds one
Workspace, which holds every row its start and steps read or write, the
reconstruction's among them, and the two solves of its stages, each
factored once per run; each kernel takes its workspace or the rows it
writes as arguments, with no default.  Each stage writes into those rows
in the rounding order of the formulas above, so a step allocates only
the new averages it returns and the masks of its finiteness tests.  The
differences wb_{j+1} - wb_j form one row, whose two shifted windows are
the left and right differences of each cell, and so do alpha_L and
alpha_R, since c_L = c_R.
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
    INTEGER_GRID,
    _Solve,
    _d2_order4,
    helmholtz_solve,
)

__all__ = [
    "cweno_reconstruct",
    "numerical_flux",
    "semidiscrete_rhs",
    "rk4_step",
    "Workspace",
    "run",
]

EPS0 = 1e-6
C_SIDE = 0.25
C_CENTER = 0.5
MIN_CELLS = 5  # the fewest cell averages a Workspace takes


def cweno_reconstruct(wbar, ws: Workspace) -> np.ndarray:
    """Interface values of the per-cell quadratics, as one C-ordered
    (2, interfaces) block whose rows are w_minus and w_plus.

    Two constant ghost cells hold each boundary value of the run of ws, so
    the n + 1 interfaces of the n cells run from one domain end to the
    other; w_minus[i] and w_plus[i] are the one-sided values at interface i
    from the cells on its left and right.  The arithmetic is done in the
    reconstruction rows of ws, with its run's dx, and its w is returned, in
    the rounding order of the formulas in the module docstring.
    """
    dx, (g, h) = ws.ctx.grid.dx, ws.ctx.bc
    ws.ext[:2], ws.averages[...], ws.ext[-2:] = g, wbar, h
    dm, dp = ws.dm, ws.dp
    np.subtract(ws.ext_hi, ws.ext_lo, out=ws.diff)
    d2 = np.subtract(dp, dm, out=ws.d2)
    dsum = np.add(dp, dm, out=ws.dsum)

    # alpha_i = c_i / (eps0 + IS_i)^2, then the weights alpha_i / total
    side = np.multiply(ws.diff, ws.diff, out=ws.side)
    ac = np.multiply(d2, d2, out=ws.ac)
    ac *= 13.0 / 3.0
    tmp = np.multiply(dsum, dsum, out=ws.tmp)
    tmp *= 0.25
    ac += tmp
    for alpha, weight in ((side, C_SIDE), (ac, C_CENTER)):
        alpha += EPS0
        alpha *= alpha
        np.divide(weight, alpha, out=alpha)
    total = np.add(ws.al, ac, out=ws.total)
    total += ws.ar
    wl = np.divide(ws.al, total, out=ws.wl)
    wr = np.divide(ws.ar, total, out=ws.wr)
    ac /= total

    # A, (dx/2) B and (dx^2/8) C of each cell's quadratic: B in the total
    # row and C in the W_C row, each once its last reader is done
    a = np.divide(ac, 12.0, out=ws.a)
    a *= d2
    np.subtract(ws.cells, a, out=a)
    b = np.multiply(wr, dp, out=total)
    tmp = np.multiply(ac, 0.5, out=tmp)
    tmp *= dsum
    b += tmp
    b += np.multiply(wl, dm, out=wl)
    b /= dx
    b *= 0.5 * dx
    c = ac
    c *= 2.0
    c *= d2
    c /= dx ** 2
    c *= 0.125 * dx ** 2

    a, b, c, w_minus = ws.minus
    np.add(a, b, out=w_minus)
    w_minus += c
    a, b, c, w_plus = ws.plus
    np.subtract(a, b, out=w_plus)
    w_plus += c
    return ws.w


def numerical_flux(u: np.ndarray, w: np.ndarray, model: FluxModel,
                   out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(f(u+) + f(u-))/2 - (a/2)(w+ - w-) with the local speed
    a = max(f'(u-), f'(u+)), from one flux evaluation of the block.

    u and w are (2, interfaces) blocks whose rows are the minus and plus
    interface values, as cweno_reconstruct returns them.  The flux is formed
    in out, and f, f' and the flux's temporaries in the five blocks of work,
    each shaped like u.
    """
    f, d, *rest = work
    flux_and_deriv(u, model, out=(f, d), work=rest)
    out = np.add(f[1], f[0], out=out)
    out *= 0.5
    jump = np.maximum(d[0], d[1], out=d[0])
    jump *= 0.5
    jump *= np.subtract(w[1], w[0], out=d[1])
    out -= jump
    return out


class Workspace:
    """Every row that the third-order steps of one run read or write, and
    the two solves of its stages, built and factored once per run, as a
    staggered Batch owns the arrays and solves of its steps.  A step
    overwrites them all, so a workspace steps one state at a time; nothing
    a step returns lives in it; a caller that steps outside run builds its
    own, Workspace(ctx).  Fewer than 5 cells is a ValueError.  It holds:

      ctx             the run's RunContext, whose grid, boundary values,
                      parameters and model every step of the workspace uses
      ext, ..., w     the reconstruction rows of cweno_reconstruct: the
                      averages between two ghost cells a side, their
                      difference row (dm and dp are its two windows), the
                      side-weight row (alpha_L and alpha_R are its two
                      windows, as c_L = c_R), eight rows over the cells
                      with their neighbours, and the interface block w
      node4, rhs4, u  the order-4 solve of the interface values'
                      unknowns, its F-ordered (n - 1, 2) right-hand
                      side, and the (2, n + 1) u block
      flux, h         f, f' and the flux's three work blocks, each shaped
                      like u, and the interface flux row
      half2, ubar, q  the order-2 half-grid solve, its right-hand side,
                      and Q with its work row, where run also forms the
                      start's D^2 u
      k, stage        the four RK4 slopes and the stage row
    """

    def __init__(self, ctx: RunContext):
        self.ctx = ctx
        n, dx, c = ctx.grid.n_cells, ctx.grid.dx, ctx.params.disp
        if n < MIN_CELLS:
            raise ValueError(f"need at least {MIN_CELLS} cell averages, got {n}")
        self.ext = np.empty(n + 4)
        self.averages, self.cells = self.ext[2:-2], self.ext[1:-1]
        self.ext_hi, self.ext_lo = self.ext[1:], self.ext[:-1]
        self.diff, self.side = np.empty((2, n + 3))
        self.dm, self.dp = self.diff[:-1], self.diff[1:]
        self.al, self.ar = self.side[:-1], self.side[1:]
        (self.d2, self.dsum, self.ac, self.tmp, self.total, self.wl, self.wr,
         self.a) = np.empty((8, n + 2))
        self.w = w = np.empty((2, n + 1))
        # what each interface reads of its two cells, A, B and C, and its row
        # of w: the right end of the left cell, the left end of the right cell
        self.minus = self.a[:-1], self.total[:-1], self.ac[:-1], w[0]
        self.plus = self.a[1:], self.total[1:], self.ac[1:], w[1]
        self.node4 = _Solve(INTEGER_GRID, 4, dx, ((n - 1, c),))
        self.half2 = _Solve(HALF_GRID, 2, dx, ((n, c),))
        self.rhs4 = np.empty((n - 1, 2), order="F")
        self.u = np.empty((2, n + 1))
        # the interface values at the solve's unknowns, as its right-hand
        # side takes them, and at the two domain ends, which are its boundary
        # values and u's
        self.w_inner, self.u_inner = w[:, 1:-1].T, self.u[:, 1:-1].T
        self.w_left, self.w_right = w[:, 0], w[:, -1]
        self.w_ends, self.u_ends = w[:, ::n], self.u[:, ::n]
        self.flux, self.h = np.empty((5, 2, n + 1)), np.empty(n + 1)
        self.h_hi, self.h_lo = self.h[1:], self.h[:-1]
        self.ubar, self.q, self.q_work = np.empty(n), np.empty(n), np.empty(n - 4)
        self.k, self.stage = tuple(np.empty((4, n))), np.empty(n)


def semidiscrete_rhs(wbar: np.ndarray, ws: Workspace, out: np.ndarray) -> np.ndarray:
    """-(H_{j+1/2} - H_{j-1/2})/dx + eps Q_j on the cell averages, at any
    time: the boundary data are constant, so the right-hand side is autonomous.

    The Dirichlet values fill two ghost cells per side for the
    reconstruction, so the outermost interfaces sit at the domain ends.
    The interface w-values, minus and plus, are converted to u-values as
    one two-column block by the order-4 solve on the interface-point grid;
    a NaN/Inf in the interface values or in their u is a NumericalError.
    The diffusion term uses cell-average u from the tridiagonal half-grid
    solve, which reproduces the published convergence behaviour of the
    scheme.  The run is that of ws, every intermediate lives in its rows,
    and the result is formed in out.
    """
    ctx = ws.ctx
    dx = ctx.grid.dx
    w = cweno_reconstruct(wbar, ws)
    if not np.isfinite(w).all():
        raise NumericalError("interface values contain NaN/Inf")
    ws.rhs4[...] = ws.w_inner
    ws.u_inner[...] = ws.node4(ws.rhs4, ws.w_left, ws.w_right)
    ws.u_ends[...] = ws.w_ends
    if not np.isfinite(ws.u).all():
        raise NumericalError("interface u contains NaN/Inf")
    numerical_flux(ws.u, w, ctx.model, ws.h, ws.flux)
    out = np.subtract(ws.h_hi, ws.h_lo, out=out)
    out /= -dx
    if ctx.params.epsilon != 0.0:
        ws.ubar[...] = wbar
        q = _d2_order4(ws.half2(ws.ubar, *ctx.bc), dx, ws.q, ws.q_work)
        q *= ctx.params.epsilon
        out += q
    return out


def _stage(wbar: np.ndarray, h: float, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """wbar + h k, formed in out."""
    np.multiply(k, h, out=out)
    out += wbar
    return out


def rk4_step(wbar: np.ndarray, dt: float, ws: Workspace) -> np.ndarray:
    """One classical RK4 step of the cell averages of the run of ws, whose
    stages live in its rows.  It returns the new averages, a new array that
    shares no memory with wbar or ws, and never writes wbar.
    A dt that is not positive and finite is a ValueError; NaN/Inf in the new
    averages is a NumericalError."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    s, (k1, k2, k3, k4) = ws.stage, ws.k
    k1 = semidiscrete_rhs(wbar, ws, k1)
    k2 = semidiscrete_rhs(_stage(wbar, 0.5 * dt, k1, s), ws, k2)
    k3 = semidiscrete_rhs(_stage(wbar, 0.5 * dt, k2, s), ws, k3)
    k4 = semidiscrete_rhs(_stage(wbar, dt, k3, s), ws, k4)
    # wbar + (dt/6) (k1 + 2 k2 + 2 k3 + k4), in that rounding order
    total = np.multiply(k2, 2.0, out=s)
    total += k1
    k3 *= 2.0
    total += k3
    total += k4
    total *= dt / 6.0
    out = wbar + total
    if not np.isfinite(out).all():
        raise NumericalError("new cell averages contain NaN/Inf values")
    return out


def run(ubar0: np.ndarray, ctx: RunContext, t_final: float,
        snapshot_times: Sequence[float] = ()) -> list[Field]:
    """Advance the cell averages ubar0 of u at t = 0 by RK4 steps of
    dt = lam dx on the cell averages of w, landing exactly on each requested
    time.

    The start w0 = ubar0 - c D^2 ubar0 is formed here, with c = eps^2 tau
    and the order-4 _d2_order4 over every average, the first and last taking
    its one-sided edge closures over the averages themselves; at c = 0 the
    start is ubar0 itself.  Returns the one run of march.land_snapshots:
    fields holding the cell averages of u (the order-4 half-grid solve), the
    final state last.  Two conditions are rejected before the first step:
    lam * C >= 1/2 (f' is clamped, so C bounds the speed of u everywhere),
    and an RK4 factor above 1 for some mode of the diffusion term
    (march._check_linear_gain).  A NaN or infinite time is a ValueError
    (march.landing_targets).  The boundary values were checked by the
    RunContext.  The start and every step run in one Workspace, built here;
    each landing reads u through its own helmholtz_solve.
    """
    grid, params = ctx.grid, ctx.params
    if grid.lam * ctx.model.C >= 0.5:
        raise NumericalError(
            f"CFL violation: lambda*C = {grid.lam * ctx.model.C:.6g} >= 0.5")
    # RK4's degree-4 Taylor polynomial of e^-z on the symbol s + s^2/12 of
    # the fourth-order Q
    _check_linear_gain("third-order", [ctx], lambda s: s + s * s / 12.0,
                       lambda s, z: 1.0 - z * (1.0 - z / 2.0 * (1.0 - z / 3.0 * (1.0 - z / 4.0))))

    ws = Workspace(ctx)
    wbar0 = ubar0
    if params.disp != 0.0:
        cd2 = _d2_order4(ubar0, grid.dx, ws.q, ws.q_work)
        cd2 *= params.disp
        wbar0 = ubar0 - cd2

    def advance(state: tuple, dt: float) -> tuple:
        t, wbar = state
        return t + dt, rk4_step(wbar, dt, ws)

    def read(state: tuple, time: float) -> list[Field]:
        return [helmholtz_solve(Field(state[1], HALF_GRID, time), *ctx.bc,
                                params.disp, grid.dx, order=4)]

    return land_snapshots(advance, read, (0.0, wbar0), t_final, snapshot_times,
                          grid.lam * grid.dx)[0]
