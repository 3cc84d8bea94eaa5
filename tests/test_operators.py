"""Grids, fields, and the dispersive Helmholtz transfer operators."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrs

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
    _factored_solve,
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


def test_params_validation():
    p = MBLParams(epsilon=0.01, tau=5.0)
    assert p.disp == pytest.approx(5e-4)
    with pytest.raises(ValueError):
        MBLParams(epsilon=-0.01, tau=5.0)
    with pytest.raises(ValueError):
        MBLParams(epsilon=0.01, tau=-5.0)


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


def test_round_trip_order2():
    params = MBLParams(epsilon=0.3, tau=2.0)
    dx = 1.0 / 64
    u = _random_node_field(64, seed=1)
    w = helmholtz_apply(Field(u), params, dx, order=2)
    back = helmholtz_solve(w, u[0], u[-1], params, dx, order=2)
    assert np.allclose(back.values, u, rtol=1e-12, atol=1e-13)


def test_round_trip_order4():
    params = MBLParams(epsilon=0.3, tau=2.0)
    dx = 1.0 / 64
    u = _random_node_field(64, seed=2)
    w = helmholtz_apply(Field(u), params, dx, order=4)
    back = helmholtz_solve(w, u[0], u[-1], params, dx, order=4)
    assert np.allclose(back.values, u, rtol=1e-12, atol=1e-13)


def test_apply_requires_node_field():
    params = MBLParams(epsilon=0.1, tau=1.0)
    with pytest.raises(ValueError):
        helmholtz_apply(Field(np.zeros(8), phase=HALF_GRID), params, 0.1)
    with pytest.raises(ValueError):
        helmholtz_apply(Field(np.zeros(9)), params, 0.1, order=3)


def test_sine_modes_are_eigenvectors_order2():
    # second-difference eigenvalue on Dirichlet sine modes
    L, n = 1.0, 64
    dx = L / n
    params = MBLParams(epsilon=0.1, tau=1.0)
    c = params.disp
    x = np.linspace(0.0, L, n + 1)
    for k in range(1, 7):
        u = np.sin(k * math.pi * x / L)
        mu = 1.0 + c * (2.0 - 2.0 * math.cos(k * math.pi * dx / L)) / dx**2
        w = helmholtz_apply(Field(u), params, dx, order=2)
        assert np.max(np.abs(w.values[1:-1] - mu * u[1:-1])) < 1e-12
        back = helmholtz_solve(Field(mu * u), 0.0, 0.0, params, dx, order=2)
        assert np.max(np.abs(back.values - u)) < 1e-12


def test_inverse_damps_high_modes():
    L, n = 1.0, 64
    dx = L / n
    params = MBLParams(epsilon=0.5, tau=1.0)
    x = np.linspace(0.0, L, n + 1)
    amps = []
    for k in range(1, 8):
        v = np.sin(k * math.pi * x / L)
        out = helmholtz_solve(Field(v), 0.0, 0.0, params, dx, order=2)
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
    params = MBLParams(epsilon=1.0, tau=1.0)
    w = helmholtz_apply(Field(u), params, dx, order=4)
    resid = u - w.values  # equals disp * D2 u
    assert np.allclose(resid[2:-2], d2[2:-2], rtol=0, atol=1e-9)


def test_one_sided_closures_exact_on_quartic():
    n = 40
    dx = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    u = x**4 - x**2 + 0.25
    d2 = 12.0 * x**2 - 2.0
    params = MBLParams(epsilon=1.0, tau=1.0)
    w = helmholtz_apply(Field(u), params, dx, order=4)
    resid = u - w.values
    assert np.allclose(resid[1:-1], d2[1:-1], rtol=0, atol=1e-9)


def test_zero_dispersion_solve_is_identity_with_bc_override():
    params = MBLParams(epsilon=0.0, tau=5.0)
    w = np.array([0.3, 0.5, 0.6, 0.55, 0.2])
    out = helmholtz_solve(Field(w), 0.1, 0.9, params, 0.25, order=2)
    assert np.array_equal(out.values, [0.1, 0.5, 0.6, 0.55, 0.9])
    # tau = 0 also makes c = 0: the interior passes through, the ends are pinned
    u = _random_node_field(32, seed=3)
    w = helmholtz_apply(Field(u), MBLParams(epsilon=0.2, tau=3.0), 1.0 / 32)
    out = helmholtz_solve(w, u[0], u[-1], MBLParams(epsilon=0.2, tau=0.0), 1.0 / 32)
    assert np.array_equal(out.values[1:-1], w.values[1:-1])
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
                          MBLParams(epsilon=0.3, tau=2.0), 0.125, order=order)
    assert np.array_equal(out.values, _FROZEN[phase, order])
    if order == 2:
        assert np.allclose(out.values, _LU_ANCHOR[phase], rtol=0, atol=2.5e-16)


def test_solve_rejects_fields_too_short_for_the_closures():
    params = MBLParams(epsilon=0.3, tau=2.0)
    with pytest.raises(ValueError):
        helmholtz_solve(Field(np.zeros(1), phase=HALF_GRID), 0.2, 0.8,
                        params, 0.1, order=2)
    with pytest.raises(ValueError):  # three cells, two unknowns
        helmholtz_solve(Field(np.zeros(4)), 0.2, 0.8, params, 0.1, order=2)
    with pytest.raises(ValueError):
        helmholtz_solve(Field(np.zeros(4), phase=HALF_GRID), 0.2, 0.8,
                        params, 0.1, order=4)
    with pytest.raises(ValueError):
        helmholtz_solve(Field(np.zeros(5)), 0.2, 0.8, params, 0.1, order=4)


@pytest.mark.parametrize("phase", [INTEGER_GRID, HALF_GRID])
def test_solve_with_nan_boundary_value_is_a_numerical_error(phase):
    # exit code 3 in the CLI, not the validation error of exit code 2
    with pytest.raises(NumericalError):
        helmholtz_solve(Field(np.zeros(10), phase=phase), math.nan, 0.0,
                        MBLParams(epsilon=0.1, tau=1.0), 0.1)


def test_each_matrix_is_factored_once_per_run():
    _factored_solve.cache_clear()
    run_manifest(desk_manifest(tau=5.0, t_final=0.002))  # 20 step pairs
    # both phases, each with eps^2 tau and the corrector's eps^2 tau + eps dt/2
    assert _factored_solve.cache_info().misses == 4
    for order in (2, 4):  # tridiagonal and general band factors
        solve = _factored_solve(9, HALF_GRID, order, 0.5)
        factors = [a for a in (*solve.args, *solve.keywords.values())
                   if isinstance(a, np.ndarray)]
        assert factors and not any(a.flags.writeable for a in factors)


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
    solve = _factored_solve(m, phase, 2, ct)
    assert solve.func is dpttrs
    assert not any(a.flags.writeable for a in solve.args)
    rhs = np.random.default_rng(m).uniform(-1.0, 1.0, m)
    x, info = solve(rhs.copy())
    resid = ab[1] * x - rhs
    resid[:-1] += ab[0, 1:] * x[1:]
    resid[1:] += ab[2, :-1] * x[:-1]
    assert info == 0 and np.abs(resid).max() <= 1e-12 * ab[1].max()


def test_half_grid_solve_constant():
    params = MBLParams(epsilon=0.4, tau=1.5)
    w = Field(np.full(16, 0.7), phase=HALF_GRID)
    for order in (2, 4):
        out = helmholtz_solve(w, 0.7, 0.7, params, 0.1, order=order)
        assert out.phase == HALF_GRID
        assert np.allclose(out.values, 0.7, rtol=0, atol=1e-13)


def test_half_grid_solve_linear():
    # reflected ghosts are exact for affine data, so the solve returns it
    L, n = 1.0, 20
    dx = L / n
    xc = (np.arange(n) + 0.5) * dx
    vals = 0.2 + 0.6 * xc
    params = MBLParams(epsilon=0.3, tau=2.0)
    for order in (2, 4):
        out = helmholtz_solve(Field(vals, phase=HALF_GRID), 0.2, 0.8,
                              params, dx, order=order)
        assert np.allclose(out.values, vals, rtol=0, atol=1e-12)


def test_weighted_h1_norm_zero_and_constant():
    params = MBLParams(epsilon=1.0, tau=1.0)
    n = 100
    dx = 1.0 / n
    assert weighted_h1_norm(Field(np.zeros(n + 1)), params, dx) == 0.0
    c = 0.8
    got = weighted_h1_norm(Field(np.full(n + 1, c)), params, dx)
    assert got == pytest.approx(c * 1.0, rel=1e-12)  # c * sqrt(L)


def test_weighted_h1_norm_linear():
    # y = x on [0,1] with eps*sqrt(tau) = 1: sqrt(1/3 + 1) up to O(dx^2)
    params = MBLParams(epsilon=1.0, tau=1.0)
    n = 100
    dx = 1.0 / n
    y = np.linspace(0.0, 1.0, n + 1)
    assert weighted_h1_norm(Field(y), params, dx) == pytest.approx(
        math.sqrt(4.0 / 3.0), abs=1e-4)


def test_weighted_h1_norm_is_a_norm():
    params = MBLParams(epsilon=0.2, tau=4.0)
    n = 50
    dx = 1.0 / n
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=n + 1)
        b = rng.normal(size=n + 1)
        na = weighted_h1_norm(Field(a), params, dx)
        nb = weighted_h1_norm(Field(b), params, dx)
        nab = weighted_h1_norm(Field(a + b), params, dx)
        assert nab <= na + nb + 1e-12
        assert weighted_h1_norm(Field(2.5 * a), params, dx) == pytest.approx(
            2.5 * na, rel=1e-12)
