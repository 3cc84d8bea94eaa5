"""Discrete spatial operators shared by the time-stepping schemes.

Node-centered fields on [x0, x0+L] carry n_cells+1 values with the
boundary (Dirichlet) values stored in the array; half-grid fields carry
n_cells values at the staggered points x0 + (j+1/2)dx.  The elliptic
operator is (I - c D^2) with c = eps^2 tau (or a scheme-supplied
coefficient); its inverse is a LAPACK solve, factored once per matrix:
LDL^T (dpttrf/dpttrs) for the symmetric positive definite order-2
tridiagonal matrices, banded LU (dgbtrf/dgbtrs) for the order-4 ones.

Boundary closures for half-grid fields: a solve places the boundary value
midway between the first unknown and a reflected ghost (linear
interpolation to the physical endpoint), while explicit stencil
applications use the boundary value itself as a constant ghost.  The two
agree whenever the data is flat next to the boundary.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs

from .errors import NumericalError

__all__ = [
    "GridSpec",
    "Field",
    "MBLParams",
    "INTEGER_GRID",
    "HALF_GRID",
    "helmholtz_apply",
    "helmholtz_solve",
    "weighted_h1_norm",
]

INTEGER_GRID = "integer_grid"
HALF_GRID = "half_grid"


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [x0, x0+L] with n_cells cells and time ratio lam = dt/dx."""

    L: float
    n_cells: int
    dx: float = None  # type: ignore[assignment]
    lam: float = 0.1
    x0: float = 0.0

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError(f"need at least 4 cells, got {self.n_cells}")
        if not self.L > 0:
            raise ValueError("L must be positive")
        if self.dx is None:
            object.__setattr__(self, "dx", self.L / self.n_cells)
        if abs(self.dx * self.n_cells - self.L) > 1e-12 * self.L:
            raise ValueError(
                f"dx*n_cells = {self.dx * self.n_cells!r} does not match L = {self.L!r}")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")

    def nodes(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_cells + 1)

    def centers(self) -> np.ndarray:
        return self.x0 + self.dx * (np.arange(self.n_cells) + 0.5)


@dataclass(frozen=True)
class MBLParams:
    """Model parameters: diffusion scale epsilon and dispersion ratio tau.

    epsilon = 0 is allowed so that the inviscid conservation identities can
    be exercised; tau = 0 degenerates to the purely viscous equation.
    """

    epsilon: float
    tau: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")

    @property
    def disp(self) -> float:
        """The elliptic coefficient eps^2 * tau."""
        return self.epsilon ** 2 * self.tau


@dataclass
class Field:
    """Values on one phase of the staggered grid at a given time."""

    values: np.ndarray
    phase: str = INTEGER_GRID
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.phase not in (INTEGER_GRID, HALF_GRID):
            raise ValueError(f"unknown phase {self.phase!r}")
        if not np.isfinite(self.values).all():
            raise NumericalError("field contains NaN/Inf values")


def _padded(v: np.ndarray, left: float, right: float) -> np.ndarray:
    """v with one constant ghost value at each end."""
    out = np.empty(v.size + 2)
    out[0], out[1:-1], out[-1] = left, v, right
    return out


def _d2_order2(ext: np.ndarray, dx: float) -> np.ndarray:
    """Three-point second difference at the inner points of ext, whose first
    and last values are the ghosts: ((a - 2 b) + c) / dx^2, in place."""
    out = np.multiply(ext[1:-1], 2.0)
    np.subtract(ext[:-2], out, out=out)
    out += ext[2:]
    out /= dx ** 2
    return out


# one-sided second-derivative closures, exact through degree 4
_LEFT_EDGE = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0
_LEFT_IN = np.array([11.0, -20.0, 6.0, 4.0, -1.0]) / 12.0


def _d2_order4(v: np.ndarray, dx: float) -> np.ndarray:
    """Five-point fourth-order second derivative with one-sided closures."""
    n = v.size
    if n < 5:
        raise ValueError("need at least 5 values for the 5-point stencil")
    out = np.empty(n)
    out[2:-2] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2]
                 + 16.0 * v[3:-1] - v[4:]) / (12.0 * dx ** 2)
    out[0] = _LEFT_EDGE @ v[:5] / dx ** 2
    out[1] = _LEFT_IN @ v[:5] / dx ** 2
    out[-1] = _LEFT_EDGE @ v[-5:][::-1] / dx ** 2
    out[-2] = _LEFT_IN @ v[-5:][::-1] / dx ** 2
    return out


def helmholtz_apply(u: Field, params: MBLParams, dx: float, order: int = 2) -> Field:
    """w = u - eps^2 tau D^2 u on a node-centered field; boundary rows are identity."""
    if u.phase != INTEGER_GRID:
        raise ValueError("helmholtz_apply expects a node-centered field")
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    v = u.values
    c = params.disp
    w = v.copy()
    if c != 0.0:
        d2 = _d2_order2(v, dx) if order == 2 else _d2_order4(v, dx)[1:-1]
        w[1:-1] = v[1:-1] - c * d2
    return Field(w, phase=u.phase, time=u.time)


# Band tables of (I - c D^2) u = w.  An interior row is the identity plus
# ct times the stencil, with ct = c / (scale dx^2).  Each closure gives the
# rows that replace the interior ones at the left edge (column -> weight,
# the diagonal adding 1) and the weights of the boundary value on the
# right-hand side of the first rows.  The right edge mirrors the left.  A
# tuple of weights is added term by term: the order-2 half-grid edge adds
# its ghost term to the interior diagonal, and 1 + 3ct would round
# differently.
_STENCILS = {2: (1.0, (-1.0, 2.0, -1.0)),
             4: (12.0, (1.0, -16.0, 30.0, -16.0, 1.0))}
_CLOSURES = {
    # nodes: the endpoints are pinned and move to the right-hand side; at
    # order 4 the first unknown takes the one-sided closure over nodes 0..4
    (INTEGER_GRID, 2): ((), (1.0,)),
    (INTEGER_GRID, 4): (({0: 20.0, 1: -6.0, 2: -4.0, 3: 1.0},), (11.0, -1.0)),
    # half grid: reflected ghosts v(-1/2) = 2 bc - v(1/2), v(-3/2) = 2 bc - v(3/2)
    (HALF_GRID, 2): (({0: (2.0, 1.0), 1: -1.0},), (2.0,)),
    (HALF_GRID, 4): (({0: 46.0, 1: -17.0, 2: 1.0},
                      {0: -17.0, 1: 30.0, 2: -16.0, 3: 1.0}), (30.0, -2.0)),
}


def _entry(weight, ct: float, diagonal: bool) -> float:
    terms = weight if isinstance(weight, tuple) else (weight,)
    value = 1.0 + terms[0] * ct if diagonal else terms[0] * ct
    for extra in terms[1:]:
        value += extra * ct
    return value


def _bands(m: int, phase: str, order: int, ct: float) -> np.ndarray:
    """Band storage of the m-unknown matrix: entry (i, j) at [width + i - j, j]."""
    stencil = _STENCILS[order][1]
    rows = _CLOSURES[phase, order][0]
    half = len(stencil) // 2
    width = max([half] + [abs(j - i) for i, row in enumerate(rows) for j in row])
    ab = np.zeros((2 * width + 1, m))
    for k, weight in enumerate(stencil):
        off = k - half  # column minus row
        ab[width - off, max(off, 0):m + min(off, 0)] = _entry(weight, ct, off == 0)
    # entry (i, j) sits at ab[width + i - j, j]; its mirror (m-1-i, m-1-j)
    # at ab[width + j - i, m-1-j]
    for i, row in enumerate(rows):
        for j in range(max(i - width, 0), min(i + width + 1, m)):
            ab[width + i - j, j] = ab[width + j - i, m - 1 - j] = 0.0
        for j, weight in row.items():
            ab[width + i - j, j] = ab[width + j - i, m - 1 - j] = \
                _entry(weight, ct, i == j)
    return ab


@functools.lru_cache(maxsize=32)
def _factored_solve(m: int, phase: str, order: int, ct: float) -> functools.partial:
    """LAPACK solve of the m-unknown matrix, bound to its read-only factors.

    Width 1 (order 2) is symmetric, and strictly diagonally dominant with a
    positive diagonal for ct >= 0, so positive definite: its LDL^T factors
    come from the diagonal and the superdiagonal (dpttrf, solved by dpttrs).
    The order-4 one-sided closures are not symmetric; those bands go in the
    last 2 width + 1 of 3 width + 1 rows, the general band layout (dgbtrf,
    solved by dgbtrs).  Called on a right-hand side, the result returns
    (solution, info).
    """
    ab = _bands(m, phase, order, ct)
    width = ab.shape[0] // 2
    if width == 1:
        *factors, info = dpttrf(ab[1], ab[0, 1:])
        solve = functools.partial(dpttrs, *factors)
    else:
        gb = np.zeros((3 * width + 1, m))
        gb[width:] = ab
        lu, ipiv, info = dgbtrf(gb, width, width, overwrite_ab=1)
        factors = lu, ipiv
        solve = functools.partial(dgbtrs, lu, width, width, ipiv=ipiv)
    if info != 0:
        raise NumericalError(f"Helmholtz factorisation failed (info={info})")
    for a in factors:
        a.setflags(write=False)
    return solve


def _solve_unknowns(rhs: np.ndarray, phase: str, bc_left: float, bc_right: float,
                    c: float, dx: float, order: int = 2) -> np.ndarray:
    """The unknowns of (I - c D^2) u = w: every half cell, or the interior nodes.

    rhs holds w at those unknowns and is overwritten; the boundary values
    enter through the closures.  No finiteness check: callers decide where
    NaN/Inf is caught.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    if c == 0.0:
        return rhs
    # fewer cells and the order-4 edge closures would overlap; order 2 asks
    # for the four cells that a GridSpec needs
    need = 5 if order == 4 else 4
    if (rhs.size + 1 if phase == INTEGER_GRID else rhs.size) < need:
        raise ValueError(f"order-{order} solve needs at least {need} cells")
    ct = c / (_STENCILS[order][0] * dx ** 2)
    for i, weight in enumerate(_CLOSURES[phase, order][1]):
        rhs[i] += weight * ct * bc_left
        rhs[-1 - i] += weight * ct * bc_right
    out, info = _factored_solve(rhs.size, phase, order, ct)(rhs, overwrite_b=1)
    if info != 0:
        raise NumericalError(f"Helmholtz solve failed (info={info})")
    return out


def helmholtz_solve(w: Field, bc_left: float, bc_right: float, params: MBLParams,
                    dx: float, order: int = 2) -> Field:
    """Solve (I - c D^2) u = w under Dirichlet data, c = eps^2 tau.

    Node-centered fields pin the endpoints to the boundary values; half-grid
    fields use reflected ghosts so the boundary value is interpolated at the
    physical endpoint.
    """
    c = params.disp
    v = w.values
    if w.phase == INTEGER_GRID:
        out = _solve_unknowns(v[1:-1].copy(), w.phase, bc_left, bc_right, c, dx, order)
        out = np.concatenate([[bc_left], out, [bc_right]])
    else:
        out = _solve_unknowns(v.copy(), w.phase, bc_left, bc_right, c, dx, order)
    return Field(out, phase=w.phase, time=w.time)


def weighted_h1_norm(y: Field, params: MBLParams, dx: float) -> float:
    """sqrt( integral of y^2 + (eps sqrt(tau) y_x)^2 ), trapezoid/forward-difference form."""
    v = y.values
    s = params.epsilon * np.sqrt(params.tau)
    weights = np.ones_like(v)
    weights[0] = weights[-1] = 0.5
    sq = dx * float(weights @ (v * v))
    if v.size > 1:
        dv = np.diff(v) / dx
        sq += dx * float((s * dv) @ (s * dv))
    return float(np.sqrt(sq))
