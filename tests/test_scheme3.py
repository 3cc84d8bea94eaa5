"""Central WENO reconstruction and the semidiscrete third-order scheme."""
from __future__ import annotations

import numpy as np
import pytest

from mblab import cweno
from mblab.cweno import (
    RhsContext,
    cweno_reconstruct,
    numerical_flux,
    rk4_step,
    semidiscrete_rhs,
)
from mblab.errors import NumericalError
from mblab.experiments import desk_manifest, run_manifest
from mblab.flux import FluxModel, flux
from mblab.operators import GridSpec, MBLParams, _d2_order4

MODEL = FluxModel(2.0)


def _quadratic_cell_averages():
    # q(x) = 1 + 2x + 3x^2 averaged exactly over seven cells of width 0.1
    x = 0.1 * np.arange(8)
    anti = x + x**2 + x**3
    return np.diff(anti) / 0.1


def test_reconstruct_quadratic_interfaces():
    w_minus, w_plus = cweno_reconstruct(_quadratic_cell_averages(), 0.1)
    assert w_minus == pytest.approx(
        [1.1100000000307042, 1.5153107283783902, 1.8663600398037543,
         2.2770424587759588, 2.747516303785591, 3.2778624149685154],
        rel=1e-12)
    assert w_plus == pytest.approx(
        [1.2324969996561641, 1.522090460217576, 1.8718095846362204,
         2.2816011329819221, 2.7514388036574511, 3.5699999999969272],
        rel=1e-12)


def test_reconstruct_constant_data():
    w_minus, w_plus = cweno_reconstruct(np.full(9, 0.6), 0.05)
    assert np.allclose(w_minus, 0.6, rtol=0, atol=1e-15)
    assert np.allclose(w_plus, 0.6, rtol=0, atol=1e-15)


def test_reconstruct_scale_invariance():
    x = np.linspace(0.0, 2.0, 30)
    wbar = 2.0 + np.sin(2.0 * x)
    a_minus, a_plus = cweno_reconstruct(wbar, x[1] - x[0])
    b_minus, b_plus = cweno_reconstruct(10.0 * wbar, x[1] - x[0])
    assert np.allclose(b_minus, 10.0 * a_minus, rtol=1e-5)
    assert np.allclose(b_plus, 10.0 * a_plus, rtol=1e-5)


def test_reconstruct_needs_five_cells():
    with pytest.raises(ValueError):
        cweno_reconstruct(np.ones(4), 0.1)


def test_numerical_flux_hand_value():
    lo, hi = np.array([0.3]), np.array([0.6])
    h = numerical_flux(lo, hi, lo, hi, MODEL)
    assert h[0] == pytest.approx(-0.0046567280018108836, rel=1e-13)
    # the local speed max(f'(0.3), f'(0.6)), read back from the jump term
    a = (0.5 * (flux(0.3, MODEL) + flux(0.6, MODEL)) - h[0]) / (0.5 * 0.3)
    assert a == pytest.approx(2.0761245674740478, rel=1e-13)
    # symmetric in the two states
    swapped = numerical_flux(hi, lo, lo, hi, MODEL)
    assert swapped[0] == h[0]


def test_numerical_flux_consistency():
    for u in (0.0, 0.25, 0.7, 1.0):
        h = numerical_flux(np.array([u]), np.array([u]),
                           np.array([u]), np.array([u]), MODEL)
        assert h[0] == pytest.approx(flux(u, MODEL), abs=1e-15)


def test_d2_order4_polynomials():
    # the diffusion term Q of the semi-discrete scheme
    n = 24
    dx = 1.0 / n
    xc = (np.arange(n) + 0.5) * dx
    assert np.allclose(_d2_order4(np.full(n, 0.3), dx), 0.0, rtol=0, atol=1e-12)
    # degree <= 4 is exact everywhere, closures included
    assert np.allclose(_d2_order4(xc**2, dx), 2.0, rtol=0, atol=1e-9)
    assert np.allclose(_d2_order4(xc**4, dx), 12.0 * xc**2, rtol=0, atol=1e-8)
    # degree 5 only on the interior five-point rows
    out = _d2_order4(xc**5, dx)
    assert np.allclose(out[2:-2], 20.0 * xc[2:-2] ** 3, rtol=0, atol=1e-8)


def _ctx(n_cells=20, lam=0.1, epsilon=0.0, tau=1.0, g=0.8, h=0.0):
    grid = GridSpec(L=2.0, n_cells=n_cells, dx=2.0 / n_cells, lam=lam)
    params = MBLParams(epsilon=epsilon, tau=tau)
    return RhsContext(grid=grid, params=params, model=MODEL,
                      bc=(g, h))


def test_rhs_vanishes_on_constant_state():
    ctx = _ctx(g=0.5, h=0.5, epsilon=0.02)
    wbar = np.full(20, 0.5)
    out = semidiscrete_rhs(wbar, 0.0, ctx)
    assert np.allclose(out, 0.0, atol=1e-13)


def test_rhs_telescopes_to_boundary_fluxes():
    # with dispersion and diffusion off, sum(rhs)*dx collapses to f(g) - f(h)
    g, h = 0.8, 0.0
    ctx = _ctx(g=g, h=h)
    ramp = np.clip((1.2 - (np.arange(20) + 0.5) * 0.1) / 0.6, 0.0, 1.0)
    wbar = g * ramp  # flat at g for the first cells, flat at 0 for the last
    out = semidiscrete_rhs(wbar, 0.0, ctx)
    total = out.sum() * ctx.grid.dx
    assert total == pytest.approx(flux(g, MODEL) - flux(h, MODEL), abs=1e-10)


def test_rk4_rejects_bad_dt():
    ctx = _ctx()
    with pytest.raises(ValueError):
        rk4_step(np.full(20, 0.1), 0.0, 0.0, ctx)
    with pytest.raises(ValueError):
        rk4_step(np.full(20, 0.1), 0.0, -0.1, ctx)


def test_rk4_exact_on_polynomial_rhs(monkeypatch):
    # dw/dt = 1 + 2t + 3t^2 integrates exactly through the quadrature
    ctx = _ctx()

    def rhs(wbar, t, _ctx):
        return np.full_like(wbar, 1.0 + 2.0 * t + 3.0 * t * t)

    monkeypatch.setattr(cweno, "semidiscrete_rhs", rhs)
    w0 = np.zeros(20)
    dt = 0.37
    w1 = rk4_step(w0, 0.0, dt, ctx)
    assert np.allclose(w1, dt + dt**2 + dt**3, rtol=1e-14, atol=0)


def test_rk4_preserves_constant_state():
    ctx = _ctx(g=0.4, h=0.4, epsilon=0.05, tau=2.0)
    w0 = np.full(20, 0.4)
    w1 = rk4_step(w0, 0.0, 0.001, ctx)
    assert np.allclose(w1, 0.4, rtol=0, atol=1e-14)


def test_rhs_moves_a_front_downstream():
    # sanity: a decreasing front transported with positive speeds
    g = 0.7
    ctx = _ctx(g=g, h=0.0, epsilon=0.01, tau=0.5)
    xc = (np.arange(20) + 0.5) * 0.1
    wbar = g * 0.5 * (1.0 - np.tanh((xc - 0.9) / 0.15))
    out = semidiscrete_rhs(wbar, 0.0, ctx)
    assert out.shape == wbar.shape
    assert np.all(np.isfinite(out))
    # mass flows in from the left boundary faster than it leaves
    assert out.sum() * ctx.grid.dx > 0.0


@pytest.mark.parametrize("lam, stable", [(0.045, True), (0.055, False)])
def test_third_order_run_with_growing_diffusion_modes_is_rejected(lam, stable):
    # tau = 0, so r = eps*lam/dx is 0.45 or 0.55: max RK4 factor 1.0 or 1.247;
    # unguarded, the r = 0.55 run overflows in the reconstruction and ends
    # on the NaN check of a Field
    m = desk_manifest(scheme="third_order", tau=0.0, u_B=0.9, epsilon=0.02,
                      dx=0.002, lam=lam, t_final=0.1)
    if stable:
        assert run_manifest(m)[-1].values.max() <= m.u_B
    else:
        with pytest.raises(NumericalError, match="third-order scheme unstable"):
            run_manifest(m)
