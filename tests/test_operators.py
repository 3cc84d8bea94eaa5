"""Grids, fields, and the dispersive Helmholtz transfer operators."""
from __future__ import annotations

import importlib.machinery
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy
import scipy.linalg.lapack
from scipy.linalg.lapack import dpttrf, dpttrs

from mblab import operators
from mblab.errors import NumericalError
from mblab.experiments import desk_manifest, run_manifest
from mblab.operators import (
    Field,
    GridSpec,
    HALF_GRID,
    INTEGER_GRID,
    MBLParams,
    _bands,
    _d2_order2,
    _Solve,
    _d2_order4,
    helmholtz_apply,
    helmholtz_solve,
    weighted_h1_norm,
)


def test_grid_spec_basics():
    g = GridSpec(L=1.0, n_cells=8, dx=0.125, lam=0.1)
    assert g.nodes().shape == (9,)
    assert g.centers().shape == (8,)
    assert g.nodes()[0] == 0.0 and g.nodes()[-1] == pytest.approx(1.0)
    assert np.allclose(g.centers(), g.nodes()[:-1] + 0.0625)
    assert np.array_equal(g.points(INTEGER_GRID), g.nodes())
    assert np.array_equal(g.points(HALF_GRID), g.centers())


def test_grid_spec_default_dx():
    g = GridSpec(L=2.0, n_cells=10)
    assert g.dx == pytest.approx(0.2)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(L=1.0, n_cells=3)
    with pytest.raises(ValueError):
        GridSpec(L=-1.0, n_cells=8)
    with pytest.raises(ValueError):
        GridSpec(L=1.0, n_cells=8, dx=0.2)  # 8 * 0.2 != 1
    with pytest.raises(ValueError):
        GridSpec(L=1.0, n_cells=8, lam=0.0)
    # NaN fails every comparison, so each check is written to refuse it
    with pytest.raises(ValueError, match="no normal float"):
        GridSpec(L=1.0, n_cells=8, dx=math.nan)
    with pytest.raises(ValueError, match="lambda must be positive"):
        GridSpec(L=1.0, n_cells=8, lam=math.nan)
    GridSpec(L=2.0 ** -509, n_cells=4)  # dx^2 = 2^-1022, the smallest normal
    # dx n_cells may miss L by a relative 1e-12, and no more
    GridSpec(L=1.0, n_cells=8, dx=0.125 * (1.0 + 0.7e-12))
    with pytest.raises(ValueError, match="does not match"):
        GridSpec(L=1.0, n_cells=8, dx=0.125 * (1.0 + 1.5e-12))


def test_grid_spec_refuses_a_length_that_is_not_positive():
    # without this check L = 0 and NaN fail on dx^2, and L < 0 on dx n_cells
    for L in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="L must be positive"):
            GridSpec(L=L, n_cells=8)


def test_params_validation():
    p = MBLParams(epsilon=0.01, tau=5.0)
    assert p.disp == pytest.approx(5e-4)
    with pytest.raises(ValueError):
        MBLParams(epsilon=-0.01, tau=5.0)
    with pytest.raises(ValueError):
        MBLParams(epsilon=0.01, tau=-5.0)


@pytest.mark.parametrize("epsilon, tau", [(1e160, 1.0), (1e160, 0.0), (1e150, 1e20)])
def test_params_name_an_overflowing_dispersion_coefficient(epsilon, tau):
    # eps^2 overflows (a Python OverflowError) or eps^2 tau rounds to inf
    with pytest.raises(NumericalError) as exc_info:
        MBLParams(epsilon=epsilon, tau=tau)
    assert str(exc_info.value) == ("eps^2 tau overflows the float range at "
                                   f"epsilon = {epsilon!r}, tau = {tau!r}")


def test_the_lapack_routines_are_the_ones_scipy_linalg_exports():
    # one extension module per file: loading it apart from scipy.linalg
    # yields the same routine objects
    for name in ("dgbtrf", "dgbtrs", "dpttrf", "dpttrs"):
        assert getattr(operators, name) is getattr(scipy.linalg.lapack, name)


def test_the_lapack_loader_names_a_missing_extension(tmp_path, monkeypatch):
    # find_spec returns the spec of an imported scipy as it stands
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(scipy, "__spec__", spec)
    with pytest.raises(ImportError) as exc_info:
        operators._load_flapack()
    assert str(tmp_path / "linalg" / "_flapack") in str(exc_info.value)
    assert exc_info.value.path.startswith(str(tmp_path / "linalg" / "_flapack"))


def test_the_lapack_loader_imports_scipy_and_loads_again_after_a_failed_load():
    # a wheel whose scipy init sets up the shared libraries: the first,
    # direct load fails before scipy is imported, the second follows it
    code = "\n".join([
        "import importlib.machinery, sys",
        "loader = importlib.machinery.ExtensionFileLoader",
        "real, seen = loader.create_module, []",
        "def once(self, spec):",
        "    if spec.name == 'scipy.linalg._flapack':",
        "        seen.append('scipy' in sys.modules)",
        "        if len(seen) == 1:",
        "            raise ImportError('no shared libraries', path=spec.origin)",
        "    return real(self, spec)",
        "loader.create_module = once",
        "from mblab import operators",
        "print(seen)",
        "import scipy.linalg.lapack",
        "print(operators.dpttrs is scipy.linalg.lapack.dpttrs)",
    ])
    src = str(pathlib.Path(operators.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.splitlines() == ["[False, True]", "True"]


def test_field_rejects_nan():
    with pytest.raises(NumericalError):
        Field(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(NumericalError):
        Field(np.array([0.0, np.inf, 1.0]))
    with pytest.raises(ValueError):
        Field(np.zeros(4), phase="diagonal")


def test_d2_order2_exact_on_quadratic():
    x = np.linspace(0.0, 1.0, 21)
    u = 3.0 * x * x - x + 2.0
    out = _d2_order2(u, x[1] - x[0])
    assert out.shape == (19,)  # the first and last values are the ghosts
    assert np.allclose(out, 6.0, rtol=0, atol=1e-10)
    assert _d2_order2(np.array([2.0, 1.0, 4.0]), 0.5)[0] == pytest.approx(16.0)


def _random_node_field(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 0.9, n + 1)


def _d2_order4_alone(v, dx):
    """_d2_order4 of v in rows of its own."""
    return _d2_order4(v, dx, np.empty(v.size), np.empty(v.size - 4))


def _apply_nodes(u, c, dx, order=2):
    """w on the nodes: u - c D^2 u inside, by helmholtz_apply at order 2 and
    by the order-4 kernel at order 4; identity boundary rows."""
    w = u.copy()
    w[1:-1] = (helmholtz_apply(u, c, dx) if order == 2
               else u[1:-1] - c * _d2_order4_alone(u, dx)[1:-1])
    return w


def test_round_trip_order2():
    c = MBLParams(epsilon=0.3, tau=2.0).disp
    dx = 1.0 / 64
    u = _random_node_field(64, seed=1)
    w = _apply_nodes(u, c, dx, order=2)
    back = helmholtz_solve(Field(w), u[0], u[-1], c, dx, order=2)
    assert np.allclose(back.values, u, rtol=1e-12, atol=1e-13)


def test_round_trip_order4():
    c = MBLParams(epsilon=0.3, tau=2.0).disp
    dx = 1.0 / 64
    u = _random_node_field(64, seed=2)
    w = _apply_nodes(u, c, dx, order=4)
    back = helmholtz_solve(Field(w), u[0], u[-1], c, dx, order=4)
    assert np.allclose(back.values, u, rtol=1e-12, atol=1e-13)


def test_solve_rejects_unknown_order():
    with pytest.raises(ValueError, match="order must be 2 or 4"):
        helmholtz_solve(Field(np.zeros(9)), 0.0, 0.0, 0.01, 0.1, order=3)


def test_sine_modes_are_eigenvectors_order2():
    # second-difference eigenvalue on Dirichlet sine modes
    L, n = 1.0, 64
    dx = L / n
    c = MBLParams(epsilon=0.1, tau=1.0).disp
    x = np.linspace(0.0, L, n + 1)
    for k in range(1, 7):
        u = np.sin(k * math.pi * x / L)
        mu = 1.0 + c * (2.0 - 2.0 * math.cos(k * math.pi * dx / L)) / dx**2
        w = helmholtz_apply(u, c, dx)
        assert np.max(np.abs(w - mu * u[1:-1])) < 1e-12
        back = helmholtz_solve(Field(mu * u), 0.0, 0.0, c, dx, order=2)
        assert np.max(np.abs(back.values - u)) < 1e-12


def test_inverse_damps_high_modes():
    L, n = 1.0, 64
    dx = L / n
    c = MBLParams(epsilon=0.5, tau=1.0).disp
    x = np.linspace(0.0, L, n + 1)
    amps = []
    for k in range(1, 8):
        v = np.sin(k * math.pi * x / L)
        out = helmholtz_solve(Field(v), 0.0, 0.0, c, dx, order=2)
        amps.append(np.dot(out.values, v) / np.dot(v, v))
    amps = np.array(amps)
    assert np.all(amps <= 1.0 + 1e-14)
    assert np.all(np.diff(amps) < 0.0)


def test_order4_stencil_exact_on_quintic_interior():
    # the five-point interior stencil differentiates degree-5 data exactly
    n = 40
    dx = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    u = x**5 - 2.0 * x**4 + x**3 + 0.5 * x - 3.0
    d2 = 20.0 * x**3 - 24.0 * x**2 + 6.0 * x
    resid = u[1:-1] - (u[1:-1] - _d2_order4_alone(u, dx)[1:-1])  # c D2 u, c = 1
    assert np.allclose(resid[1:-1], d2[2:-2], rtol=0, atol=1e-9)


def test_one_sided_closures_exact_on_quartic():
    n = 40
    dx = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    u = x**4 - x**2 + 0.25
    d2 = 12.0 * x**2 - 2.0
    resid = u[1:-1] - (u[1:-1] - _d2_order4_alone(u, dx)[1:-1])
    assert np.allclose(resid, d2[1:-1], rtol=0, atol=1e-9)


def test_zero_dispersion_solve_is_identity_with_bc_override():
    c = MBLParams(epsilon=0.0, tau=5.0).disp
    w = np.array([0.3, 0.5, 0.6, 0.55, 0.2])
    out = helmholtz_solve(Field(w), 0.1, 0.9, c, 0.25, order=2)
    assert np.array_equal(out.values, [0.1, 0.5, 0.6, 0.55, 0.9])
    # tau = 0 also makes c = 0: the interior passes through, the ends are pinned
    u = _random_node_field(32, seed=3)
    w = _apply_nodes(u, MBLParams(epsilon=0.2, tau=3.0).disp, 1.0 / 32)
    out = helmholtz_solve(Field(w), u[0], u[-1], MBLParams(epsilon=0.2, tau=0.0).disp,
                          1.0 / 32)
    assert np.array_equal(out.values[1:-1], w[1:-1])
    assert out.values[0] == u[0] and out.values[-1] == u[-1]


# Solutions frozen from the four hand-assembled solvers that the band table
# replaced: a non-symmetric input, unequal boundary values and c != 0.  The
# order-2 values were frozen again when those solves moved from LU (dgttrf)
# to LDL^T (dpttrf); _LU_ANCHOR keeps the LU values, which they match to
# within 1.2e-16 (at most 2 ulp).
_FROZEN_INPUT = [0.1, 0.35, 0.2, 0.8, 0.65, 0.9, 0.4, 0.55, 0.7]
_FROZEN = {
    (INTEGER_GRID, 2): [0.25, 0.3167812335819705, 0.38067889369015384,
                        0.4602604855422742, 0.5103508000977168,
                        0.5483187882727529, 0.5557588934853545,
                        0.5767197359796707, 0.6],
    (INTEGER_GRID, 4): [0.25, 0.32160611403726885, 0.38612581697540405,
                        0.462180610805563, 0.5129320288738105,
                        0.549796292460813, 0.5603229056620769,
                        0.5808050966309023, 0.6],
    (HALF_GRID, 2): [0.2839716370237614, 0.3678846712295969,
                     0.4490099164796683, 0.5430700503130442,
                     0.6018064037916497, 0.6389981742660581,
                     0.6318321473677284, 0.6187487721506252],
    (HALF_GRID, 4): [0.2850709274080394, 0.36800937632726355,
                     0.45011452074362623, 0.5410803743425509,
                     0.600560168558928, 0.6363323656302544,
                     0.6315174198045388, 0.6172605230337694],
}


_LU_ANCHOR = {
    INTEGER_GRID: [0.25, 0.3167812335819706, 0.38067889369015384,
                   0.4602604855422741, 0.5103508000977168,
                   0.5483187882727529, 0.5557588934853545,
                   0.5767197359796707, 0.6],
    HALF_GRID: [0.28397163702376144, 0.36788467122959695,
                0.44900991647966837, 0.5430700503130443,
                0.6018064037916497, 0.6389981742660581,
                0.6318321473677284, 0.6187487721506252],
}


@pytest.mark.parametrize("phase, order", sorted(_FROZEN))
def test_solve_matches_frozen_values(phase, order):
    v = np.array(_FROZEN_INPUT)
    if phase == HALF_GRID:
        v = v[:-1] + 0.05 * np.arange(8)
    out = helmholtz_solve(Field(v, phase=phase), 0.25, 0.6,
                          MBLParams(epsilon=0.3, tau=2.0).disp, 0.125, order=order)
    assert np.array_equal(out.values, _FROZEN[phase, order])
    if order == 2:
        assert np.allclose(out.values, _LU_ANCHOR[phase], rtol=0, atol=2.5e-16)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("phase", [INTEGER_GRID, HALF_GRID])
def test_solve_of_a_block_is_its_column_solves(phase, order):
    # a (points, 2) block with one boundary value per column solves in one
    # LAPACK call, each column byte for byte as alone, in either layout
    rng = np.random.default_rng(order)
    cols = rng.uniform(0.0, 1.0, (2, 41))
    left, right = np.array([0.2, 0.9]), np.array([0.05, 0.6])
    c, dx = MBLParams(epsilon=0.3, tau=2.0).disp, 0.025
    alone = [helmholtz_solve(Field(cols[j], phase, 0.5), left[j], right[j], c, dx,
                             order=order) for j in range(2)]
    for block in (cols.T, np.ascontiguousarray(cols.T)):
        out = helmholtz_solve(Field(block, phase, 0.5), left, right, c, dx,
                              order=order)
        assert (out.phase, out.time, out.values.shape) == (phase, 0.5, (41, 2))
        for j in range(2):
            assert out.values[:, j].tobytes() == alone[j].values.tobytes()
    # a 1-D call returns what the column-only solve returned: the unknowns
    # solved in place, the pinned ends put back on the node grid
    v = cols[0]
    unknowns = v[1:-1] if phase == INTEGER_GRID else v
    want = _Solve(phase, order, dx, ((len(unknowns), c),))(unknowns.copy(), 0.2, 0.05)
    if phase == INTEGER_GRID:
        want = np.concatenate([[0.2], want, [0.05]])
    assert alone[0].values.shape == v.shape
    assert alone[0].values.tobytes() == want.tobytes()


def test_solve_rejects_fields_too_short_for_the_closures():
    c = MBLParams(epsilon=0.3, tau=2.0).disp
    with pytest.raises(ValueError):
        helmholtz_solve(Field(np.zeros(1), phase=HALF_GRID), 0.2, 0.8,
                        c, 0.1, order=2)
    with pytest.raises(ValueError):  # three cells, two unknowns
        helmholtz_solve(Field(np.zeros(4)), 0.2, 0.8, c, 0.1, order=2)
    with pytest.raises(ValueError):
        helmholtz_solve(Field(np.zeros(4), phase=HALF_GRID), 0.2, 0.8,
                        c, 0.1, order=4)
    with pytest.raises(ValueError):
        helmholtz_solve(Field(np.zeros(5)), 0.2, 0.8, c, 0.1, order=4)


@pytest.mark.parametrize("phase", [INTEGER_GRID, HALF_GRID])
def test_solve_with_nan_boundary_value_is_a_numerical_error(phase):
    # exit code 3 in the CLI, not the validation error of exit code 2
    with pytest.raises(NumericalError):
        helmholtz_solve(Field(np.zeros(10), phase=phase), math.nan, 0.0,
                        MBLParams(epsilon=0.1, tau=1.0).disp, 0.1)


def test_each_matrix_is_factored_once_per_run(monkeypatch, empty_run_cache):
    calls = []

    def counted(name):
        routine = getattr(operators, name)

        def factor(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)
        return factor

    for name in ("dpttrf", "dgbtrf"):
        monkeypatch.setattr(operators, name, counted(name))
    run_manifest(desk_manifest(tau=5.0, t_final=0.002))  # 20 step pairs
    # both phases, each with eps^2 tau and the corrector's eps^2 tau + eps dt/2
    assert calls == ["dpttrf"] * 4
    # a batch of two such runs factors one span per (phase, coefficient)
    run_manifest([desk_manifest(tau=5.0, t_final=0.002, u_B=u_B) for u_B in (0.9, 0.6)])
    assert calls == ["dpttrf"] * 8
    for order in (2, 4):  # tridiagonal and general band factors
        lapack = _Solve(HALF_GRID, order, 0.1, ((9, 0.5),)).lapack
        factors = [a for a in (*lapack.args, *lapack.keywords.values())
                   if isinstance(a, np.ndarray)]
        assert factors and not any(a.flags.writeable for a in factors)
    assert calls[8:] == ["dpttrf", "dgbtrf"]
    # a third-order run factors its workspace's order-4 node solve and
    # order-2 half-grid solve once, and each of its k + 1 landing reads its
    # own order-4 half-grid solve; no solve outlives its run, so a second
    # equal run (past the run cache) factors anew
    for times in ((), (0.0001, 0.00015)):
        for _ in range(2):
            del calls[:]
            empty_run_cache.clear()
            run_manifest(desk_manifest(scheme="third_order", t_final=0.0002,
                                       snapshot_times=times))  # 4 RK4 steps
            assert calls == ["dgbtrf", "dpttrf"] + ["dgbtrf"] * (len(times) + 1)


def test_a_matrix_that_is_not_positive_definite_fails_its_factorisation():
    # no public path passes a negative c; c = -dx^2 gives the order-2
    # diagonal 1 - 2 = -1, and dpttrf stops at the first row
    with pytest.raises(NumericalError, match=r"factorisation failed \(info=1\)"):
        _Solve(INTEGER_GRID, 2, 0.1, ((5, -0.01),))


def test_an_order4_solve_takes_one_segment():
    # the identity rows that join order-2 segments have no order-4 form
    with pytest.raises(ValueError, match="one segment"):
        _Solve(HALF_GRID, 4, 0.1, ((9, 0.01), (9, 0.01)), gap=2)
    with pytest.raises(ValueError, match="one segment"):
        _Solve(INTEGER_GRID, 4, 0.1, ((9, 0.01), (9, 0.0)))


@pytest.mark.parametrize("ct", [1e-6, 0.5, 1e4])
@pytest.mark.parametrize("m", [3, 4, 9, 1500])
@pytest.mark.parametrize("phase", [INTEGER_GRID, HALF_GRID])
def test_order2_matrices_are_symmetric_positive_definite(phase, m, ct):
    # the premise of the LDL^T solve: sub- and superdiagonal agree, and the
    # positive diagonal outweighs each row's off-diagonals
    ab = _bands(m, phase, 2, ct)
    assert np.array_equal(ab[2, :-1], ab[0, 1:])
    off = np.zeros(m)
    off[:-1] += np.abs(ab[0, 1:])
    off[1:] += np.abs(ab[2, :-1])
    assert (ab[1] > off).all()
    d, e, info = dpttrf(ab[1], ab[0, 1:])
    assert info == 0
    rhs = np.random.default_rng(m).uniform(-1.0, 1.0, m)
    x, info = dpttrs(d, e, rhs.copy())
    resid = ab[1] * x - rhs
    resid[:-1] += ab[0, 1:] * x[1:]
    resid[1:] += ab[2, :-1] * x[:-1]
    assert info == 0 and np.abs(resid).max() <= 1e-12 * ab[1].max()


def test_half_grid_solve_constant():
    c = MBLParams(epsilon=0.4, tau=1.5).disp
    w = Field(np.full(16, 0.7), phase=HALF_GRID)
    for order in (2, 4):
        out = helmholtz_solve(w, 0.7, 0.7, c, 0.1, order=order)
        assert out.phase == HALF_GRID
        assert np.allclose(out.values, 0.7, rtol=0, atol=1e-13)


def test_half_grid_solve_linear():
    # reflected ghosts are exact for affine data, so the solve returns it
    L, n = 1.0, 20
    dx = L / n
    xc = (np.arange(n) + 0.5) * dx
    vals = 0.2 + 0.6 * xc
    c = MBLParams(epsilon=0.3, tau=2.0).disp
    for order in (2, 4):
        out = helmholtz_solve(Field(vals, phase=HALF_GRID), 0.2, 0.8,
                              c, dx, order=order)
        assert np.allclose(out.values, vals, rtol=0, atol=1e-12)


def test_weighted_h1_norm_zero_and_constant():
    n = 100
    dx = 1.0 / n
    assert weighted_h1_norm(np.zeros(n + 1), 1.0, dx) == 0.0
    c = 0.8
    got = weighted_h1_norm(np.full(n + 1, c), 1.0, dx)
    assert got == pytest.approx(c * 1.0, rel=1e-12)  # c * sqrt(L)


def test_weighted_h1_norm_linear():
    # y = x on [0,1] with eps*sqrt(tau) = 1: sqrt(1/3 + 1) up to O(dx^2)
    n = 100
    dx = 1.0 / n
    y = np.linspace(0.0, 1.0, n + 1)
    assert weighted_h1_norm(y, 1.0, dx) == pytest.approx(
        math.sqrt(4.0 / 3.0), abs=1e-4)


def test_weighted_h1_norm_is_a_norm():
    s = 0.2 * math.sqrt(4.0)  # eps sqrt(tau)
    n = 50
    dx = 1.0 / n
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=n + 1)
        b = rng.normal(size=n + 1)
        na = weighted_h1_norm(a, s, dx)
        nb = weighted_h1_norm(b, s, dx)
        nab = weighted_h1_norm(a + b, s, dx)
        assert nab <= na + nb + 1e-12
        assert weighted_h1_norm(2.5 * a, s, dx) == pytest.approx(
            2.5 * na, rel=1e-12)
