"""Discrete spatial operators shared by the time-stepping schemes.

Node-centered fields on [x0, x0+L] carry n_cells+1 values with the
boundary (Dirichlet) values stored in the array; half-grid fields carry
n_cells values at the staggered points x0 + (j+1/2)dx.  The elliptic
operator is (I - c D^2) with c = eps^2 tau (or a scheme-supplied
coefficient); its inverse is a LAPACK solve: LDL^T (dpttrf/dpttrs) for
the symmetric positive definite order-2 tridiagonal matrices, banded LU
(dgbtrf/dgbtrs) for the order-4 ones.
The four routines come from scipy's LAPACK extension module, loaded from
its file: the inits of scipy and scipy.linalg, which load modules no solve
needs (see _load_flapack), do not run.

Every solve is one _Solve, which assembles and factors its matrix once:
the factorisation, the closure terms of the boundary values, the c = 0
rule and the size check live there and nowhere else.  Its order-2 form
takes several fields laid end to end in one vector, the runs of a
staggered batch, and solves them in one dpttrs call; a single field is a
batch of one.  Rows that the solve must keep, the slots between two fields
and every field with c = 0, are identity rows that hold +0 during the call
and get their values back after it, so each field comes out byte for byte
as its own solve.

Boundary closures for half-grid fields: a solve places the boundary value
midway between the first unknown and a reflected ghost (linear
interpolation to the physical endpoint), while explicit stencil
applications use the boundary value itself as a constant ghost.  The two
agree whenever the data is flat next to the boundary.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

__all__ = [
    "GridSpec",
    "Field",
    "MBLParams",
    "INTEGER_GRID",
    "HALF_GRID",
    "MIN_CELLS",
    "helmholtz_apply",
    "helmholtz_solve",
    "weighted_h1_norm",
]

INTEGER_GRID = "integer_grid"
HALF_GRID = "half_grid"
MIN_CELLS = 4  # the fewest cells a grid takes


def _load_flapack():
    """scipy's f2py LAPACK module scipy.linalg._flapack, loaded from its
    file in the directory find_spec gives for scipy, which runs no init.

    The scipy init would load about 20 modules no solve uses (subprocess,
    sysconfig, signal, scipy's test runner), and the scipy.linalg init
    another 260 (numpy.f2py, numpy.ma, numpy.random, numpy.testing and
    numpy.polynomial).  Where the direct load fails, as it may for a wheel
    whose scipy init sets up its shared libraries, scipy is imported and the
    load tried once more; a second failure is module_from_spec's
    ImportError, which names the path.  CPython keeps one copy of an
    extension module per file and name, so the routines taken from here are
    the very objects that scipy.linalg.lapack exports.
    """
    name = "scipy.linalg._flapack"
    path = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                        "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    spec = importlib.util.spec_from_file_location(
        name, path, loader=importlib.machinery.ExtensionFileLoader(name, path))
    try:
        module = importlib.util.module_from_spec(spec)
    except ImportError:
        import scipy  # its init may set up the shared libraries the file needs
        module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgbtrf, dgbtrs, dpttrf, dpttrs = (_flapack.dgbtrf, _flapack.dgbtrs,
                                  _flapack.dpttrf, _flapack.dpttrs)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [x0, x0+L] with n_cells cells and time ratio lam = dt/dx."""

    L: float
    n_cells: int
    dx: float = None  # type: ignore[assignment]
    lam: float = 0.1
    x0: float = 0.0

    def __post_init__(self):
        if self.n_cells < MIN_CELLS:
            raise ValueError(f"need at least {MIN_CELLS} cells, got {self.n_cells}")
        if not self.L > 0:
            raise ValueError("L must be positive")
        if self.dx is None:
            object.__setattr__(self, "dx", self.L / self.n_cells)
        if (self.n_cells + 1) * 8 > np.iinfo(np.intp).max:  # bytes of the nodes
            raise ValueError(f"L = {self.L!r} and dx = {self.dx!r} give more cells "
                             "than any array can hold")
        if abs(self.dx * self.n_cells - self.L) > 1e-12 * self.L:
            raise ValueError(
                f"dx*n_cells = {self.dx * self.n_cells!r} does not match L = {self.L!r}")
        dx = float(self.dx)  # every stencil divides by dx^2
        if not np.finfo(float).tiny <= dx * dx < np.inf:
            raise ValueError(f"dx = {self.dx!r} has no normal float dx^2")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")

    def nodes(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_cells + 1)

    def centers(self) -> np.ndarray:
        return self.x0 + self.dx * (np.arange(self.n_cells) + 0.5)

    def points(self, phase: str) -> np.ndarray:
        """The nodes for INTEGER_GRID, the cell centers for HALF_GRID."""
        return self.nodes() if phase == INTEGER_GRID else self.centers()


@dataclass(frozen=True)
class MBLParams:
    """Model parameters: diffusion scale epsilon and dispersion ratio tau.

    epsilon = 0 is allowed so that the inviscid conservation identities can
    be exercised; tau = 0 degenerates to the purely viscous equation.  An
    eps^2 tau beyond the float range is a NumericalError.
    """

    epsilon: float
    tau: float
    disp: float = field(init=False)  # the elliptic coefficient eps^2 * tau

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        try:
            disp = self.epsilon ** 2 * self.tau
        except OverflowError:
            disp = np.inf
        if disp == np.inf:
            raise NumericalError("eps^2 tau overflows the float range at "
                                 f"epsilon = {self.epsilon!r}, tau = {self.tau!r}")
        object.__setattr__(self, "disp", disp)


@dataclass(frozen=True)
class Field:
    """Values on one phase of the staggered grid at a given time, shaped
    (points,) or, for a block of columns solved together, (points, runs).
    Building one checks every value for NaN/Inf.  A Field is frozen: its
    values, phase and time are never replaced."""

    values: np.ndarray
    phase: str = INTEGER_GRID
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.phase not in (INTEGER_GRID, HALF_GRID):
            raise ValueError(f"unknown phase {self.phase!r}")
        if not np.isfinite(self.values).all():
            raise NumericalError("field contains NaN/Inf values")


_TWO = np.array(2.0)  # a 0-d operand: a Python float costs each call a conversion


def _d2_order2(ext: np.ndarray, dx: float, out: np.ndarray = None) -> np.ndarray:
    """Three-point second difference at the inner points of ext, whose first
    and last values are the ghosts: ((a - 2 b) + c) / dx^2, formed in out
    (a new array by default)."""
    out = np.multiply(ext[1:-1], _TWO, out=out)
    np.subtract(ext[:-2], out, out=out)
    out += ext[2:]
    out /= dx ** 2
    return out


# one-sided second-derivative closures, exact through degree 4
_LEFT_EDGE = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0
_LEFT_IN = np.array([11.0, -20.0, 6.0, 4.0, -1.0]) / 12.0


def _d2_order4(v: np.ndarray, dx: float, out: np.ndarray,
               work: np.ndarray) -> np.ndarray:
    """Five-point fourth-order second derivative with one-sided closures.

    The interior rows are (((-a + 16 b) - 30 c) + 16 d) - e over 12 dx^2,
    formed in place in that rounding order (16 b - a is -a + 16 b exactly),
    in out (n values) with the 30 c and 16 d terms in work (n - 4 values).
    """
    n = v.size
    if n < 5:
        raise ValueError("need at least 5 values for the 5-point stencil")
    inner = np.multiply(v[1:-3], 16.0, out=out[2:-2])
    inner -= v[:-4]
    term = np.multiply(v[2:-2], 30.0, out=work)
    inner -= term
    inner += np.multiply(v[3:-1], 16.0, out=term)
    inner -= v[4:]
    inner /= 12.0 * dx ** 2
    out[0] = _LEFT_EDGE @ v[:5] / dx ** 2
    out[1] = _LEFT_IN @ v[:5] / dx ** 2
    out[-1] = _LEFT_EDGE @ v[-5:][::-1] / dx ** 2
    out[-2] = _LEFT_IN @ v[-5:][::-1] / dx ** 2
    return out


def helmholtz_apply(ext: np.ndarray, c, dx: float, out: np.ndarray = None,
                    d2: np.ndarray = None) -> np.ndarray:
    """w = u - c D^2 u at the inner points of ext, whose first and last values
    are the boundary values (nodes) or the ghosts (half cells), as for
    _d2_order2.

    c is one coefficient or one per inner point; w is formed in out (a new
    array by default).  D^2 u is formed in d2 when given, which keeps it for
    the caller.
    """
    cd2 = np.multiply(_d2_order2(ext, dx, out if d2 is None else d2), c, out=out)
    return np.subtract(ext[1:-1], cd2, out=out)


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


class _Solve:
    """(I - c D^2) u = w on the unknowns of segments laid end to end, gap
    rows apart, each byte for byte its own solve (see the module
    docstring): segment (m, c) holds the m unknowns of one field of phase,
    its interior nodes or every half cell.  A segment with c != 0 needs 4
    cells at order 2 (as a GridSpec does) and 5 at order 4, where fewer
    would overlap the two edge closures.

    The matrix is factored once, here; lapack binds its read-only factors
    and returns (solution, info).  A solve ignores info: dpttrs and dgbtrs
    report only an illegal argument, and none can reach them.  f2py takes
    n, the band widths and the leading dimensions from the arrays, and the
    closure terms index the last unknown row, so a shorter rhs is an
    IndexError before the call.  Order 2 is symmetric positive definite
    (strictly diagonally dominant, positive diagonal): one dpttrf over the
    whole span, the live segments' rows with identity rows (d = 1, e = 0)
    at the kept ones, whose zero couplings leave each segment the factors
    it has alone.  Order 4 takes one segment; its one-sided closures are
    not symmetric, so its bands take the general band layout (dgbtrf).
    """

    def __init__(self, phase: str, order: int, dx: float, segments: tuple,
                 gap: int = 0):
        if order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {order}")
        if order == 4 and len(segments) > 1:
            raise ValueError(f"an order-4 solve takes one segment, got {len(segments)}")
        ms, cs = (np.array(v) for v in zip(*segments))
        live = cs != 0.0  # a segment with c = 0 keeps its right-hand side
        need = 5 if order == 4 else 4
        if (ms[live] + (phase == INTEGER_GRID) < need).any():  # m nodes: m + 1 cells
            raise ValueError(f"order-{order} solve needs at least {need} cells")
        self.trivial = not live.any()
        if self.trivial:  # the identity: nothing to solve
            return
        cts = cs / (_STENCILS[order][0] * dx ** 2)
        firsts = np.arange(len(ms)) * gap + np.cumsum(ms) - ms
        solved = np.zeros(firsts[-1] + ms[-1], dtype=bool)
        for a, m, on in zip(firsts, ms, live):
            solved[a:a + m] = on
        self.kept = None if solved.all() else np.flatnonzero(~solved)
        # the closure terms of the boundary values at the first rows of each
        # segment, mirrored at its last rows (ct = 0 on kept rows, which get
        # their values back anyway); a lone segment indexes by scalars, which
        # is cheaper
        first, last, ct = (v[0] if len(ms) == 1 else v
                           for v in (firsts, firsts + ms - 1, cts))
        self.closures = [(first + i, last - i, weight * ct)
                         for i, weight in enumerate(_CLOSURES[phase, order][1])]
        if order == 4:
            ab = _bands(ms[0], phase, 4, ct)
            width = ab.shape[0] // 2
            gb = np.zeros((3 * width + 1, ms[0]))
            gb[width:] = ab
            lu, ipiv, info = dgbtrf(gb, width, width, overwrite_ab=1)
            factors = lu, ipiv
            self.lapack = functools.partial(dgbtrs, lu, width, width, ipiv=ipiv,
                                            overwrite_b=1)
        else:
            d, e = np.ones(solved.size), np.zeros(solved.size - 1)
            for a, m, ct in zip(firsts[live], ms[live], cts[live]):
                ab = _bands(m, phase, 2, ct)
                d[a:a + m], e[a:a + m - 1] = ab[1], ab[0, 1:]
            *factors, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
            self.lapack = functools.partial(dpttrs, *factors, overwrite_b=1)
        if info != 0:
            raise NumericalError(f"Helmholtz factorisation failed (info={info})")
        for a in factors:
            a.setflags(write=False)

    def __call__(self, rhs: np.ndarray, left, right) -> np.ndarray:
        """The solution, in rhs itself where it is contiguous; rhs holds w
        at every row, shaped (rows,) or, for one segment, (rows, runs), and
        left and right the boundary values of each segment (or run)."""
        if self.trivial:
            return rhs
        kept = rhs[self.kept] if self.kept is not None else None
        for first, last, weight in self.closures:
            rhs[first] += weight * left
            rhs[last] += weight * right
        if kept is not None:
            rhs[self.kept] = 0.0
        out = self.lapack(rhs)[0]
        if kept is not None:
            out[self.kept] = kept
        return out


def helmholtz_solve(w: Field, bc_left, bc_right, c: float, dx: float,
                    order: int = 2) -> Field:
    """Solve (I - c D^2) u = w under Dirichlet data.

    Node-centered fields pin the endpoints to the boundary values; half-grid
    fields use reflected ghosts so the boundary value is interpolated at the
    physical endpoint.  A (points, runs) block takes one boundary value per
    column (or one for all) and solves every column in one LAPACK call, each
    byte for byte as alone; its solution is built in Fortran order, the
    layout LAPACK reads and writes, so no column is copied strided.  Each
    call factors its own _Solve: a caller that solves one matrix many times
    keeps the _Solve instead.
    """
    v = w.values
    nodes = w.phase == INTEGER_GRID
    unknowns = (v[1:-1] if nodes else v).copy(order="F")
    solve = _Solve(w.phase, order, dx, ((len(unknowns), c),))
    if nodes:
        out = np.empty(v.shape, order="F")
        out[0], out[-1] = bc_left, bc_right
        out[1:-1] = solve(unknowns, bc_left, bc_right)
    else:
        out = solve(unknowns, bc_left, bc_right)
    return Field(out, phase=w.phase, time=w.time)


def weighted_h1_norm(v: np.ndarray, s: float, dx: float) -> float:
    """sqrt( integral of v^2 + (s v_x)^2 ), trapezoid/forward-difference form,
    with s = eps sqrt(tau)."""
    weights = np.ones_like(v)
    weights[0] = weights[-1] = 0.5
    sq = dx * float(weights @ (v * v))
    dv = np.diff(v) / dx
    sq += dx * float((s * dv) @ (s * dv))
    return float(np.sqrt(sq))
