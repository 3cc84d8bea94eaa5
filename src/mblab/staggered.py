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

A march is a Batch of runs that share dx, lambda, epsilon and the flux
model; their u_B, tau and L may differ.  The runs lie end to end in one
vector, n + 3 slots for a run of n cells on both phases (see Batch), so
every stencil is one array operation over the whole batch and each solve
one LAPACK call.  A single run is a batch of one.

The march state is (t, u).  A step forms w and D2 u from u by
helmholtz_apply, and every later intermediate, in scratch arrays that its
Batch owns, each where the next stage reads it; the flux and the CFL test
form their temporaries in the batch's rows too.  The views of that scratch
which a step reads or writes are built once with the batch, so a step
slices only its input u and its new right-hand side.  On every path it
allocates only the new u it returns, a new array, so a landing fork and
the main march can step one state, and the two finiteness masks.  f' and
the CFL test are evaluated only when the step's lam times FluxModel.C,
which bounds the clamped f', reaches 1/2 (see Batch.check_cfl).
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .march import RunContext, _check_linear_gain, land_snapshots
from .errors import NumericalError
from .flux import flux, flux_and_deriv
from .operators import (
    Field,
    HALF_GRID,
    INTEGER_GRID,
    _Solve,
    _d2_order2,
    helmholtz_apply,
)

__all__ = [
    "Batch",
    "step",
    "run",
]

TRAPEZOID = "trapezoid"
MIDPOINT = "midpoint"


# 0-d operands: a Python float costs each ufunc call a scalar conversion
_ZERO, _HALF, _EIGHTH, _TWO = (np.array(v) for v in (0.0, 0.5, 0.125, 2.0))


def _minmod(a: np.ndarray, b: np.ndarray, out: np.ndarray,
            tmp: np.ndarray) -> np.ndarray:
    """(sgn a + sgn b)/2 * min(|a|, |b|), elementwise, as the common positive
    part plus the common negative part (at most one is nonzero), formed in
    out with tmp as work space."""
    out = np.maximum(np.minimum(a, b, out=out), _ZERO, out=out)
    out += np.minimum(np.maximum(a, b, out=tmp), _ZERO, out=tmp)
    return out


def _slope_views(ext: np.ndarray, diff: np.ndarray, out: np.ndarray,
                 tmp: np.ndarray) -> tuple:
    """The operands of _slopes over ghost-extended values ext along the last
    axis: the neighbours of ext, diff and the neighbours of diff, out and
    tmp."""
    return ext[..., 1:], ext[..., :-1], diff, diff[..., 1:], diff[..., :-1], out, tmp


def _slopes(hi: np.ndarray, lo: np.ndarray, diff: np.ndarray, diff_hi: np.ndarray,
            diff_lo: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Minmod slopes of ghost-extended values ext, given as hi = ext[..., 1:]
    and lo = ext[..., :-1], formed in out with the differences in diff
    (diff_hi and diff_lo its neighbours) and tmp as work space."""
    np.subtract(hi, lo, out=diff)
    return _minmod(diff_hi, diff_lo, out, tmp)


def _average_views(w: np.ndarray, slope: np.ndarray, tmp: np.ndarray) -> tuple:
    """The operands of _staggered_average of w with its slopes: the
    neighbours of each, and tmp."""
    return w[:-1], w[1:], slope[:-1], slope[1:], tmp


def _staggered_average(w_lo: np.ndarray, w_hi: np.ndarray, slope_lo: np.ndarray,
                       slope_hi: np.ndarray, tmp: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """(w_j + w_{j+1})/2 + (w'_j - w'_{j+1})/8 of neighbours, given as w_lo =
    w[:-1], w_hi = w[1:] and so for the slopes w', formed in out with tmp as
    work space."""
    out = np.add(w_lo, w_hi, out=out)
    out *= _HALF
    tmp = np.subtract(slope_lo, slope_hi, out=tmp)
    tmp *= _EIGHTH
    out += tmp
    return out


def _cfl_margin(speeds: np.ndarray, lam: float) -> float:
    """1/2 - lam * max|f'|: positive iff the step is stable.  The clamped
    flux is nondecreasing, so the speeds need no abs."""
    return 0.5 - lam * float(speeds.max())


# The clamped f' is at most FluxModel.C, reached at M = 1, u = 1/2; the
# computed f' and lam * C each carry a few roundings, far inside the 64 ulps
# this cut leaves below 1/2.  A step whose lam * C is below it can fail no
# CFL test, so it skips f' and the test.
_CFL_SAFE = 0.5 * (1.0 - 2.0 ** -46)


class Batch:
    """Staggered runs marched together, laid end to end in one vector.

    Run k has n_k cells and owns the n_k + 3 slots from starts[k] = s on
    both phases:

      nodes       s: ghost g, s+1 .. s+n+1: the nodes (g and h pinned at
                  the ends), s+n+2: ghost h
      half cells  s: ghost g, s+1 .. s+n: the cells, s+n+1: ghost h,
                  s+n+2: a spare slot holding h

    so node j and cell j+1/2 both sit at slot s+1+j: a staggered average or
    flux difference onto slot i reads the old slots i and i+1 (nodes to
    cells) or i-1 and i (cells to nodes) in every run at once.  The frame
    of a phase (its ghosts, pinned nodes and spare slot) holds the
    boundary values; stencils over the whole vector write garbage there,
    which frame() puts back.  The runs share dx, lambda, epsilon and the
    flux model; c = eps^2 tau, the boundary pair and n may differ.

    A batch owns the scratch arrays of its steps, so it steps one state at a
    time; nothing a step returns lives in them.  It builds every view of
    them that a step reads or writes once: those a step from either phase
    takes (the rows [w; f], the operands of the slopes and averages, the
    predictor's inner slots, the lam df row) as its own attributes, and
    those that differ by phase in views[phase]: the new phase and its
    slots, the frame slots, the placed average, and the _Solves of the two
    half-time solves with the rows each solves.  What depends on lam is
    formed per step.
    """

    def __init__(self, ctxs: Sequence[RunContext]):
        if not ctxs:
            raise ValueError("a batch needs at least one run")
        head = ctxs[0]
        shared = (head.grid.dx, head.grid.lam, head.params.epsilon, head.model)
        if any((ctx.grid.dx, ctx.grid.lam, ctx.params.epsilon, ctx.model) != shared
               for ctx in ctxs):
            raise ValueError("the runs of a batch must share dx, lambda, "
                             "epsilon and the flux model")
        self.dx, self.lam, self.eps, self.model = shared
        self.n = [ctx.grid.n_cells for ctx in ctxs]
        self.starts = [0]
        for n in self.n[:-1]:
            self.starts.append(self.starts[-1] + n + 3)
        self.size = self.starts[-1] + self.n[-1] + 3
        self.disp = [ctx.params.disp for ctx in ctxs]
        # c at the inner slots 1 .. size-2, where the stencils land
        if len(set(self.disp)) == 1:
            self.c = self.disp[0]
        else:
            self.c = np.repeat(self.disp, [n + 3 for n in self.n])[1:-1]
        # the frame of each phase: the slots of g (ghost, first node) and of
        # h (last node or ghost, then the ghost or spare slot after it)
        g, h = (np.array(v) for v in zip(*(ctx.bc for ctx in ctxs)))
        s = np.array(self.starts)
        e = s + np.array(self.n) + 1
        self._frames = {INTEGER_GRID: (np.r_[s, s + 1, e, e + 1], np.r_[g, g, h, h]),
                        HALF_GRID: (np.r_[s, e, e + 1], np.r_[g, h, h])}
        # the boundary values of the runs, as the solves take them
        self.g, self.h = (v[0] if len(ctxs) == 1 else v for v in (g, h))
        self._solves = {}
        # a step's scratch, which every step overwrites: the rows [w; f],
        # the flux's work row, D2 u at the inner slots, the predictor, the
        # average placed on the new phase, and the differences of [w; f],
        # their minmod slopes and work space
        size = self.size
        self._wf, self._fwork = np.empty((2, size)), np.empty(size)
        self._d2u = np.empty(size - 2)
        self._wp, self._placed = np.empty(size), np.empty(size)
        wf, wp, placed = self._wf, self._wp, self._placed
        diff, slope, tmp = (np.empty((2, size - k)) for k in (1, 2, 2))
        # the views of it that a step from either phase takes; the flux
        # difference across each new slot, with lam, and the midpoint's D2
        # go to free rows
        self._w, self._f = wf
        self._w_inner, self._wp_inner = wf[0, 1:-1], wp[1:-1]
        self._fslope = slope[1]
        self._wf_slopes = _slope_views(wf, diff, slope, tmp)
        self._wp_slopes = _slope_views(wp, diff[0], slope[0], tmp[0])
        self._w_average, self._wp_average = (_average_views(v, slope[0], tmp[0, 1:])
                                             for v in (self._w_inner, self._wp_inner))
        self._df = wf[1, 2:-1], wf[1, 1:-2], diff[1, 2:]
        self._d2_placed = tmp[1, 1:]
        # and those that differ by phase: the averages land on the slots
        # from shift; the half-time solves are the predictor's on phase and
        # the placed average's on the new phase, each with its rows
        self.views = {}
        for phase, new_phase, shift in ((INTEGER_GRID, HALF_GRID, 1),
                                        (HALF_GRID, INTEGER_GRID, 2)):
            new = slice(shift, shift + size - 3)
            self.views[phase] = SimpleNamespace(
                new_phase=new_phase, new=new, frame=self._frames[phase][0],
                placed_new=placed[new], placed_ext=placed[shift - 1:shift + size - 2],
                solves=tuple((solve, v[span]) for v, (span, solve, _) in (
                    (wp, self.solver(phase)), (placed, self.solver(new_phase)))))

    def frame(self, v: np.ndarray, phase: str) -> np.ndarray:
        """v with the boundary values put back in the frame of phase."""
        slots, values = self._frames[phase]
        v[slots] = values
        return v

    def pack(self, points: Sequence[np.ndarray], phase: str) -> np.ndarray:
        """One vector from each run's point values and its ghosts (and
        spare slot); pinned nodes keep the values given."""
        extra = 1 if phase == INTEGER_GRID else 0
        if [len(p) for p in points] != [n + extra for n in self.n]:
            raise ValueError("need the point values of each run")
        v = self.frame(np.empty(self.size), phase)
        for s, p in zip(self.starts, points):
            v[s + 1:s + 1 + len(p)] = p
        return v

    def points(self, v: np.ndarray, phase: str) -> list[np.ndarray]:
        """Each run's point values in v, as views."""
        extra = 1 if phase == INTEGER_GRID else 0
        return [v[s + 1:s + 1 + n + extra] for s, n in zip(self.starts, self.n)]

    def solver(self, phase: str, delta: float = 0.0) -> tuple:
        """The rows, the _Solve of (I - (c + delta) D^2) u = w on phase, and
        c - delta, the coefficient of the trapezoid's right-hand side: one
        entry per (phase, delta) for the batch, built and factored once.
        The rows span the vector from the first run's first unknown to the
        last run's last: a segment per run, the frame between."""
        key = (phase, delta)
        if key not in self._solves:
            first = 2 if phase == INTEGER_GRID else 1  # a run's first unknown slot
            segments = tuple((n + 1 - first, c + delta)
                             for n, c in zip(self.n, self.disp))
            self._solves[key] = (slice(first, self.size - 2),
                                 _Solve(phase, 2, self.dx, segments, gap=first + 2),
                                 self.c - delta)
        return self._solves[key]

    def check_cfl(self, u: np.ndarray, phase: str, lam: float) -> None:
        """A CFL violation at the points of u is a NumericalError.  f' is
        evaluated only where lam * C reaches _CFL_SAFE: below it no point
        can fail.  f and f' are formed in the rows [w; f], with the flux's
        temporaries in the rows of its work, the predictor and the placed
        average, all of which the step overwrites in full.  The node frame
        repeats the pinned values; the cell frame is no point, so its f' is
        set to 0, which never decides the maximum of an f' >= 0."""
        if lam * self.model.C < _CFL_SAFE:
            return
        _, speeds = flux_and_deriv(u, self.model, self._wf,
                                   (self._fwork, self._wp, self._placed))
        if phase == HALF_GRID:
            speeds[self._frames[phase][0]] = 0.0
        margin = _cfl_margin(speeds, lam)
        if not margin > 0.0:
            raise NumericalError(
                f"CFL violation: lambda*max|f'| = {0.5 - margin:.6g} >= 0.5")


def _predict(d2u: np.ndarray, fslope: np.ndarray, w: np.ndarray, eps_dx: float,
             lam: float, out: np.ndarray) -> np.ndarray:
    """w at t + dt/2 from D2 u, the flux slopes and w at the same slots:
    w + (eps dx D2 u - fslope) lam / 2, formed in out in that rounding
    order."""
    np.multiply(d2u, eps_dx, out=out)
    out -= fslope
    out *= lam
    out /= _TWO
    out += w
    return out


def step(u: np.ndarray, phase: str, batch: Batch, variant: str,
         lam: float) -> np.ndarray:
    """One staggered step of dt = lam dx from u on phase to the other
    phase, for every run of batch at once.

    u is a framed vector of the batch (Batch.pack), and w = (I - c D2) u
    takes u's frame: a start whose pinned nodes differ from its boundary
    pair keeps them in w on its first step.  The step returns the new u, a
    new array that shares no memory with the batch's scratch or with u, so
    a state may be stepped twice.  Each run steps byte for byte as it would
    alone.  A CFL violation (tested only where it can happen, see
    Batch.check_cfl), or a NaN/Inf in the half-time or new u (the clamped
    flux can turn an Inf there finite; a w that overflows reaches the
    half-time u), is a NumericalError.  The boundary values were checked by
    the RunContexts.
    """
    v = batch.views[phase]
    dx, eps, new_phase = batch.dx, batch.eps, v.new_phase
    dt = lam * dx

    # w and D2 u from u, then the slopes of w and f(u), and the staggered
    # average of w: the trapezoid solves it for u, the midpoint adds the
    # corrector to it in the new u's right-hand side
    batch.check_cfl(u, phase, lam)
    helmholtz_apply(u, batch.c, dx, out=batch._w_inner, d2=batch._d2u)
    batch._w[v.frame] = u[v.frame]
    flux(u, batch.model, out=batch._f, work=batch._fwork)
    _slopes(*batch._wf_slopes)
    rhs = np.empty(batch.size)
    unknowns = rhs[v.new]  # every half cell, or the interior nodes
    _staggered_average(*batch._w_average,
                       v.placed_new if variant == TRAPEZOID else unknowns)

    # predictor, converted to u at the half time; the midpoint first
    # averages it onto the new phase
    _predict(batch._d2u, batch._fslope, batch._w_inner, eps * dx, lam, batch._wp_inner)
    up = batch.frame(batch._wp, phase)
    if variant == MIDPOINT:
        _slopes(*batch._wp_slopes)
        _staggered_average(*batch._wp_average, v.placed_new)
    (solve, rows), (solve_new, rows_new) = v.solves
    solve(rows, batch.g, batch.h)
    if not np.isfinite(up).all():
        raise NumericalError("half-time u contains NaN/Inf values")
    # the flux rows of wf and diff are free once their slopes are taken
    flux(up, batch.model, out=batch._f, work=batch._fwork)
    ldf = np.subtract(*batch._df)
    ldf *= lam

    # the right-hand side on the new unknowns, solved in place
    ubar = batch.frame(batch._placed, new_phase)
    solve_new(rows_new, batch.g, batch.h)
    if variant == TRAPEZOID:
        span, solve, c_rhs = batch.solver(new_phase, eps * dt / 2.0)
        helmholtz_apply(ubar, c_rhs, dx, out=rhs[1:-1])
        unknowns -= ldf
    else:  # MIDPOINT
        span, solve, _ = batch.solver(new_phase)
        d2 = _d2_order2(v.placed_ext, dx, batch._d2_placed)
        d2 *= eps * dt
        unknowns -= ldf
        unknowns += d2
    u_new = batch.frame(rhs, new_phase)
    solve(u_new[span], batch.g, batch.h)
    if not np.isfinite(u_new).all():
        raise NumericalError("new u contains NaN/Inf values")
    return u_new


def run(starts: Sequence[np.ndarray], ctxs: Sequence[RunContext], variant: str,
        t_final: float, snapshot_times: Sequence[float] = ()) -> list[list[Field]]:
    """March the runs of ctxs, from node values starts at t = 0, as one
    Batch in step pairs, landing exactly on each requested time.

    Returns march.land_snapshots' one list of fields per run as it is, each
    byte for byte what the run gives alone.  Each snapshot time (and
    t_final) is hit by one shorter pair on a fork of the march, so a
    snapshot never moves the later fields; returned fields all live on the
    integer grid, the final state last.  A midpoint batch whose linear
    amplification exceeds 1 for some run is a NumericalError before the
    first step (see march._check_linear_gain).  So is a CFL violation, a
    NaN/Inf or a landed value outside [-1, 2] in any run.  An unknown
    variant, or a NaN or infinite time (march.landing_targets), is a
    ValueError.
    """
    if variant not in (TRAPEZOID, MIDPOINT):
        raise ValueError(f"unknown variant {variant!r}")
    batch = Batch(ctxs)
    lam_nom, dx = batch.lam, batch.dx
    if variant == MIDPOINT:
        # the corrector's factor cos(theta/2) (1 - z + z^2/2) on the
        # order-2 symbol s
        _check_linear_gain("midpoint", ctxs, lambda s: s,
                           lambda s, z: np.sqrt(1.0 - s / 4.0) * (1.0 - z + 0.5 * z * z))
    # a NaN/Inf start fails in its Field
    u0 = batch.pack([Field(u, INTEGER_GRID).values for u in starts], INTEGER_GRID)
    pair = 2.0 * (lam_nom * dx)  # two steps of dt = lam_nom * dx

    def advance(state: tuple, dt: float) -> tuple:
        t, u = state
        lam = lam_nom if dt == pair else dt / 2.0 / dx
        for phase in (INTEGER_GRID, HALF_GRID):
            u = step(u, phase, batch, variant, lam)
            t += lam * dx
        return t, u

    def read(state: tuple, time: float) -> list[Field]:
        return [Field(p.copy(), INTEGER_GRID, time)
                for p in batch.points(state[1], INTEGER_GRID)]

    return land_snapshots(advance, read, (0.0, u0), t_final, snapshot_times, pair)
