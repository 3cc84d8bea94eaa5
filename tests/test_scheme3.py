"""Central WENO reconstruction and the semidiscrete third-order scheme."""
from __future__ import annotations

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mblab import cli, cweno
from mblab.cweno import (
    cweno_reconstruct,
    numerical_flux,
    rk4_step,
    semidiscrete_rhs,
)
from mblab.errors import NumericalError
from mblab.experiments import desk_manifest, run_manifest
from mblab.flux import FluxModel, flux, flux_and_deriv
from mblab.march import RunContext
from mblab.operators import GridSpec, MBLParams, _d2_order4
from mblab.staggered import _minmod

from test_operators import _d2_order4_alone
from test_scheme2 import _arrays_reached

MODEL = FluxModel(2.0)


def _quadratic_cell_averages():
    # q(x) = 1 + 2x + 3x^2 averaged exactly over seven cells of width 0.1
    x = 0.1 * np.arange(8)
    anti = x + x**2 + x**3
    return np.diff(anti) / 0.1


def _inner_interfaces(wbar, dx):
    """The interfaces between the cells of wbar, with its edge averages as
    the ghost values, in the workspace of a run with cells of width dx."""
    n = wbar.size
    ctx = RunContext(GridSpec(L=n * dx, n_cells=n, dx=dx), MBLParams(0.0, 0.0), MODEL,
                     (wbar[0], wbar[-1]))
    return cweno_reconstruct(wbar, cweno.Workspace(ctx))[:, 1:-1]


def test_reconstruct_quadratic_interfaces():
    w_minus, w_plus = _inner_interfaces(_quadratic_cell_averages(), 0.1)
    assert w_minus == pytest.approx(
        [1.1100000000307042, 1.5153107283783902, 1.8663600398037543,
         2.2770424587759588, 2.747516303785591, 3.2778624149685154],
        rel=1e-12)
    assert w_plus == pytest.approx(
        [1.2324969996561641, 1.522090460217576, 1.8718095846362204,
         2.2816011329819221, 2.7514388036574511, 3.5699999999969272],
        rel=1e-12)


def test_reconstruct_constant_data():
    w_minus, w_plus = _inner_interfaces(np.full(9, 0.6), 0.05)
    assert np.allclose(w_minus, 0.6, rtol=0, atol=1e-15)
    assert np.allclose(w_plus, 0.6, rtol=0, atol=1e-15)


def test_reconstruct_scale_invariance():
    x = np.linspace(0.0, 2.0, 30)
    wbar = 2.0 + np.sin(2.0 * x)
    a_minus, a_plus = _inner_interfaces(wbar, x[1] - x[0])
    b_minus, b_plus = _inner_interfaces(10.0 * wbar, x[1] - x[0])
    assert np.allclose(b_minus, 10.0 * a_minus, rtol=1e-5)
    assert np.allclose(b_plus, 10.0 * a_plus, rtol=1e-5)


def test_reconstruct_needs_five_cells():
    # a grid may have 4 cells; the reconstruction rows of its workspace may not
    def ctx(n):
        return RunContext(GridSpec(L=0.1 * n, n_cells=n), MBLParams(0.0, 0.0), MODEL,
                          (0.5, 0.0))

    with pytest.raises(ValueError, match="at least 5 cell averages"):
        cweno.Workspace(ctx(4))
    assert cweno.Workspace(ctx(5)).w.shape == (2, 6)


def _kurganov_levy_ends(wbar, g, h, dx):
    """The interface block in the literal form of Kurganov & Levy: each
    cell's A, B and C, with the normalised weights W_i = alpha_i / total,
    evaluated at its two ends, A +- (dx/2) B + (dx^2/8) C; and the largest
    |average| of the three that each value reads."""
    ext = np.concatenate([[g, g], wbar, [h, h]])
    left, mid, right = ext[:-2], ext[1:-1], ext[2:]
    second = right - 2.0 * mid + left
    alpha_l = cweno.C_SIDE / (cweno.EPS0 + (mid - left) ** 2) ** 2
    alpha_r = cweno.C_SIDE / (cweno.EPS0 + (right - mid) ** 2) ** 2
    alpha_c = cweno.C_CENTER / (cweno.EPS0 + 13.0 / 3.0 * second ** 2
                                + 0.25 * (right - left) ** 2) ** 2
    total = alpha_l + alpha_c + alpha_r
    w_l, w_c, w_r = alpha_l / total, alpha_c / total, alpha_r / total
    a = mid - w_c / 12.0 * second
    b = (w_r * (right - mid) + w_c * (right - left) / 2.0 + w_l * (mid - left)) / dx
    c = 2.0 * w_c * second / dx ** 2
    ends = np.array([(a + dx / 2.0 * b + dx ** 2 / 8.0 * c)[:-1],
                     (a - dx / 2.0 * b + dx ** 2 / 8.0 * c)[1:]])
    read = np.maximum(np.maximum(abs(left), abs(mid)), abs(right))
    return ends, np.array([read[:-1], read[1:]])


@st.composite
def _profiles(draw):
    """n + 2 values in [0, 1]: a smooth wave, jumps, or constant stretches."""
    n = draw(st.integers(5, 30))
    kind = draw(st.sampled_from(["smooth", "jumps", "stretches"]))
    if kind == "smooth":
        k, phase = draw(st.floats(0.05, 3.0)), draw(st.floats(0.0, 2.0 * math.pi))
        return 0.5 + 0.5 * np.sin(k * np.arange(n + 2) + phase)
    values = st.floats(0.0, 1.0)
    if kind == "jumps":
        return np.array(draw(st.lists(values, min_size=n + 2, max_size=n + 2)))
    runs = draw(st.lists(st.tuples(values, st.integers(1, 6)), min_size=1, max_size=n + 2))
    return np.resize(np.repeat(*zip(*runs)), n + 2)


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(profile=_profiles(), offset=st.floats(-1.0, 1.0),
       scale=st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e),
       dx=st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e))
def test_reconstruct_is_the_kurganov_levy_quadratic_at_the_cell_ends(profile, offset,
                                                                     scale, dx):
    # the direct end values against A +- (dx/2) B + (dx^2/8) C: differences
    # of scale 1e-8 to 1e3 on an offset, around and far from eps0, to 4 ulps
    # of the averages each value reads (2.7 at most in a 160 000-draw sweep)
    values = offset + scale * profile
    g, wbar, h = values[0], values[1:-1], values[-1]
    n = wbar.size
    ctx = RunContext(GridSpec(L=n * dx, n_cells=n, dx=dx), MBLParams(0.0, 0.0), MODEL,
                     (g, h))
    got = cweno_reconstruct(wbar, cweno.Workspace(ctx))
    ends, read = _kurganov_levy_ends(wbar, g, h, dx)
    assert (np.abs(got - ends) <= 4.0 * np.finfo(float).eps * read).all()


def _flux(u, w):
    """numerical_flux of the blocks u and w, in rows of its own."""
    return numerical_flux(u, w, MODEL, np.empty(u.shape[1]), np.empty((5,) + u.shape))


def test_numerical_flux_hand_value():
    # rows of a block are the minus and plus interface values
    block = np.array([[0.3], [0.6]])
    h = _flux(block, block)
    assert h[0] == pytest.approx(-0.0046567280018108836, rel=1e-13)
    # the local speed max(f'(0.3), f'(0.6)), read back from the jump term
    a = (0.5 * (flux(0.3, MODEL) + flux(0.6, MODEL)) - h[0]) / (0.5 * 0.3)
    assert a == pytest.approx(2.0761245674740478, rel=1e-13)
    # symmetric in the two states
    swapped = _flux(block[::-1], block)
    assert swapped[0] == h[0]


def test_numerical_flux_consistency():
    for u in (0.0, 0.25, 0.7, 1.0):
        block = np.full((2, 1), u)
        h = _flux(block, block)
        assert h[0] == pytest.approx(flux(u, MODEL), abs=1e-15)


def test_d2_order4_polynomials():
    # the diffusion term Q of the semi-discrete scheme
    n = 24
    dx = 1.0 / n
    xc = (np.arange(n) + 0.5) * dx
    assert np.allclose(_d2_order4_alone(np.full(n, 0.3), dx), 0.0, rtol=0, atol=1e-12)
    # degree <= 4 is exact everywhere, closures included
    assert np.allclose(_d2_order4_alone(xc**2, dx), 2.0, rtol=0, atol=1e-9)
    assert np.allclose(_d2_order4_alone(xc**4, dx), 12.0 * xc**2, rtol=0, atol=1e-8)
    # degree 5 only on the interior five-point rows
    out = _d2_order4_alone(xc**5, dx)
    assert np.allclose(out[2:-2], 20.0 * xc[2:-2] ** 3, rtol=0, atol=1e-8)


def test_d2_order4_needs_five_values():
    # without the guard, numpy's own broadcast error would be a ValueError too
    with pytest.raises(ValueError, match="at least 5 values"):
        _d2_order4_alone(np.ones(4), 0.1)
    assert np.allclose(_d2_order4_alone(np.ones(5), 0.1), 0.0, rtol=0, atol=1e-12)


def _ctx(n_cells=20, lam=0.1, epsilon=0.0, tau=1.0, g=0.8, h=0.0):
    grid = GridSpec(L=2.0, n_cells=n_cells, dx=2.0 / n_cells, lam=lam)
    params = MBLParams(epsilon=epsilon, tau=tau)
    return RunContext(grid=grid, params=params, model=MODEL, bc=(g, h))


def _rhs(wbar, ctx):
    """semidiscrete_rhs in a workspace and an output row of its own."""
    return semidiscrete_rhs(wbar, cweno.Workspace(ctx), np.empty_like(wbar))


def _step(wbar, dt, ctx):
    """rk4_step in a workspace of its own."""
    return rk4_step(wbar, dt, cweno.Workspace(ctx))


def test_run_from_the_exact_cell_averages_of_u_is_the_manifest_run():
    # dx = 2^-8 puts the step at L0 on a cell edge, so its exact averages are
    # u_B and 0; run forms the start w from them, as for any manifest
    m = desk_manifest(scheme="third_order", L=1.0, L0=0.25, dx=2.0 ** -8,
                      t_final=0.01, snapshot_times=[0.005])
    ctx = RunContext(GridSpec(L=1.0, n_cells=256, dx=2.0 ** -8, lam=m.lam),
                     MBLParams(m.epsilon, m.tau), MODEL, (m.u_B, 0.0))
    ubar0 = np.where(ctx.grid.centers() < m.L0, m.u_B, 0.0)
    ran = cweno.run(ubar0, ctx, m.t_final, m.snapshot_times)
    assert [(f.time, f.phase, f.values.tobytes()) for f in ran] == \
        [(f.time, f.phase, f.values.tobytes()) for f in run_manifest(m)]


def test_rhs_vanishes_on_constant_state():
    ctx = _ctx(g=0.5, h=0.5, epsilon=0.02)
    wbar = np.full(20, 0.5)
    out = _rhs(wbar, ctx)
    assert np.allclose(out, 0.0, atol=1e-13)


def test_rhs_telescopes_to_boundary_fluxes():
    # with dispersion and diffusion off, sum(rhs)*dx collapses to f(g) - f(h)
    g, h = 0.8, 0.0
    ctx = _ctx(g=g, h=h)
    ramp = np.clip((1.2 - (np.arange(20) + 0.5) * 0.1) / 0.6, 0.0, 1.0)
    wbar = g * ramp  # flat at g for the first cells, flat at 0 for the last
    out = _rhs(wbar, ctx)
    total = out.sum() * ctx.grid.dx
    assert total == pytest.approx(flux(g, MODEL) - flux(h, MODEL), abs=1e-10)


@pytest.mark.parametrize("lam, rejected", [(0.25, True), (np.nextafter(0.25, 0.0), False)])
def test_run_rejects_lambda_c_from_one_half(lam, rejected):
    # M = 1 gives C = 2 exactly, so lam = 1/4 puts lam * C at 1/2
    model = FluxModel(1.0)
    assert model.C == 2.0
    ctx = RunContext(GridSpec(L=2.0, n_cells=20, lam=lam), MBLParams(0.0, 1.0), model,
                     (0.5, 0.5))
    if rejected:
        with pytest.raises(NumericalError, match="CFL violation"):
            cweno.run(np.full(20, 0.5), ctx, t_final=0.05)
    else:
        assert cweno.run(np.full(20, 0.5), ctx, t_final=0.05)[-1].values.shape == (20,)


@pytest.mark.parametrize("t_final, times", [(math.nan, ()), (1.0, [math.nan])])
def test_run_rejects_a_nan_time(t_final, times):
    with pytest.raises(ValueError, match="finite"):
        cweno.run(np.full(20, 0.4), _ctx(), t_final, times)


def test_rk4_rejects_bad_dt():
    # a NaN or infinite dt would otherwise end in a NaN/Inf NumericalError
    ctx = _ctx()
    for dt in (0.0, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            _step(np.full(20, 0.1), dt, ctx)


def test_rk4_exact_on_polynomial_rhs(monkeypatch):
    # dw/dt = 1 + 2t + 3t^2 integrates exactly through the quadrature; the
    # right-hand side is autonomous, so the first value carries the clock t.
    # A right-hand side may return a new array instead of its workspace row
    ctx = _ctx()

    def rhs(wbar, _ws, _out):
        t = wbar[0]
        out = np.full_like(wbar, 1.0 + 2.0 * t + 3.0 * t * t)
        out[0] = 1.0
        return out

    monkeypatch.setattr(cweno, "semidiscrete_rhs", rhs)
    w0 = np.zeros(20)
    dt = 0.37
    w1 = _step(w0, dt, ctx)
    assert w1[0] == pytest.approx(dt, rel=1e-15)
    assert np.allclose(w1[1:], dt + dt**2 + dt**3, rtol=1e-14, atol=0)


def test_rk4_preserves_constant_state():
    ctx = _ctx(g=0.4, h=0.4, epsilon=0.05, tau=2.0)
    w0 = np.full(20, 0.4)
    w1 = _step(w0, 0.001, ctx)
    assert np.allclose(w1, 0.4, rtol=0, atol=1e-14)


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=0.0, max_value=0.05),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=24, max_size=24))
def test_rk4_step_changes_the_mass_by_the_boundary_fluxes(epsilon, g, h, interior):
    # tau = 0: an RK4 step moves dx*sum(wbar) by dt*(f(g) - f(h)), because the
    # flux differences telescope and Q sums to zero against the 20 constant
    # cells at each end, which one step cannot disturb.  At tau > 0 the
    # balance is not exact: the Helmholtz solve is nonlocal, so u near the
    # ends feels the interior (residuals near 1e-9 at eps = 0.02, tau = 5
    # and 1e-8 at eps = 0.05, tau = 1 on this setup)
    ctx = _ctx(n_cells=64, epsilon=epsilon, tau=0.0, g=g, h=h)
    wbar = np.concatenate([np.full(20, g), interior, np.full(20, h)])
    dt = ctx.grid.lam * ctx.grid.dx
    w1 = _step(wbar, dt, ctx)
    change = ctx.grid.dx * (w1.sum() - wbar.sum())
    assert change == pytest.approx(dt * (flux(g, MODEL) - flux(h, MODEL)),
                                   rel=0, abs=1e-12)


@pytest.mark.parametrize("kernel", [
    cweno.cweno_reconstruct, cweno.numerical_flux, cweno.semidiscrete_rhs,
    cweno.rk4_step, flux_and_deriv, _minmod, _d2_order4])
def test_the_marching_kernels_take_every_row_from_their_caller(kernel):
    # one code path per kernel: a default would be a second one that builds
    # fresh rows, which no caller in the package takes
    defaults = [p.name for p in inspect.signature(kernel).parameters.values()
                if p.default is not inspect.Parameter.empty]
    assert defaults == []


def test_rk4_step_makes_one_block_solve_and_one_flux_call_per_stage(monkeypatch):
    # the minus and plus interface values travel as one two-column block
    # through the workspace's order-4 solve: a refactor that splits
    # it again doubles these counts
    ctx = _ctx(epsilon=0.02)
    ws = cweno.Workspace(ctx)
    solve = ws.node4
    solves, fluxes = [], []
    flux_and_deriv = cweno.flux_and_deriv

    def counting_solve(rhs, left, right):
        solves.append(rhs.shape)
        return solve(rhs, left, right)

    def counting_flux(u, model, **rows):
        fluxes.append(u.shape)
        return flux_and_deriv(u, model, **rows)

    ws.node4 = counting_solve
    monkeypatch.setattr(cweno, "flux_and_deriv", counting_flux)
    xc = (np.arange(20) + 0.5) * 0.1
    rk4_step(0.4 * (1.0 - np.tanh((xc - 0.9) / 0.15)), 0.01, ws)
    assert solves == [(19, 2)] * 4
    assert fluxes == [(2, 21)] * 4


@pytest.mark.parametrize("epsilon", [0.0, 0.02])
def test_a_state_stepped_twice_gives_the_same_bytes_both_times(epsilon):
    # a landing fork steps the state that the main march steps next, and
    # marches on: no step may write into the averages it is given, and
    # nothing it returns may live in the workspace
    ctx = _ctx(epsilon=epsilon)
    ws = cweno.Workspace(ctx)
    wbar = np.random.default_rng(12).random(20)
    given = wbar.tobytes()
    first = rk4_step(wbar, 0.01, ws)
    kept = first.tobytes()
    rk4_step(first, 0.003, ws)  # the fork marches on
    second = rk4_step(wbar, 0.01, ws)
    assert wbar.tobytes() == given
    assert first.tobytes() == kept
    assert second.tobytes() == kept
    assert _step(wbar, 0.01, ctx).tobytes() == kept  # a workspace of its own
    # every array the workspace reaches, its rows, views and solves too
    arrays = _arrays_reached(ws)
    assert any(a is ws.k[3] for a in arrays)
    for a in (first, second):
        assert not any(np.shares_memory(a, b) for b in arrays + [wbar])
    assert not np.shares_memory(first, second)


def test_a_step_allocates_little_beyond_the_averages_it_returns():
    # the stages of a step live in its workspace: after a warm-up step, one
    # desk-sized step's peak allocation over its baseline is the new
    # averages, a finiteness mask and the objects of the calls, below twice
    # the new averages
    grid = GridSpec(L=0.75, n_cells=1500, dx=5e-4, lam=0.1)
    ctx = RunContext(grid, MBLParams(epsilon=0.005, tau=5.0), MODEL, (0.8, 0.0))
    ws = cweno.Workspace(ctx)
    wbar = np.where(grid.centers() < 0.1, 0.8, 0.0)
    dt = grid.lam * grid.dx
    wbar = rk4_step(wbar, dt, ws)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        new = rk4_step(wbar, dt, ws)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * new.nbytes, f"peak {peak} B against new averages of {new.nbytes} B"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rhs_of_non_finite_averages_is_a_numerical_error(bad):
    ctx = _ctx(epsilon=0.02)
    wbar = np.full(20, 0.3)
    wbar[7] = bad
    # an Inf meets inf - inf in the smoothness indicators, which numpy
    # would report as a warning before the check under test is reached
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="NaN/Inf"):
        _rhs(wbar, ctx)


def _poison_the_second_step(monkeypatch):
    """Make the fourth stage of the second RK4 step return an Inf."""
    calls = []
    rhs = cweno.semidiscrete_rhs

    def poisoned(wbar, ws, out):
        calls.append(None)
        out = rhs(wbar, ws, out)
        if len(calls) == 8:
            out[5] = math.inf
        return out

    monkeypatch.setattr(cweno, "semidiscrete_rhs", poisoned)
    return calls


def test_a_state_that_turns_non_finite_ends_the_run(monkeypatch):
    calls = _poison_the_second_step(monkeypatch)
    ctx = _ctx(epsilon=0.02)
    with pytest.raises(NumericalError, match="cell averages contain NaN/Inf"):
        cweno.run(np.full(20, 0.4), ctx, t_final=1.0)
    assert len(calls) == 8  # caught at the end of the step that made it


def test_cli_third_order_non_finite_state_exit_code(monkeypatch, tmp_path, capsys):
    _poison_the_second_step(monkeypatch)
    path = tmp_path / "manifest.json"
    path.write_text(desk_manifest(scheme="third_order", L=0.3, L0=0.05, dx=0.005,
                                  t_final=0.01).model_dump_json(by_alias=True))
    rc = cli.main(["riemann", "--manifest", str(path),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_rhs_moves_a_front_downstream():
    # sanity: a decreasing front transported with positive speeds
    g = 0.7
    ctx = _ctx(g=g, h=0.0, epsilon=0.01, tau=0.5)
    xc = (np.arange(20) + 0.5) * 0.1
    wbar = g * 0.5 * (1.0 - np.tanh((xc - 0.9) / 0.15))
    out = _rhs(wbar, ctx)
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
