"""Staggered predictor-corrector scheme: frozen single-step values and invariants."""
import math

import numpy as np
import pytest

from mblab import cweno, staggered
from mblab.errors import NumericalError
from mblab.experiments import desk_manifest, run_manifest
from mblab.flux import FluxModel, classical_bl_profile, flux, flux_deriv
from mblab.operators import (
    Field,
    GridSpec,
    HALF_GRID,
    INTEGER_GRID,
    MBLParams,
    _d2_order2,
    helmholtz_apply,
    helmholtz_solve,
)
from mblab.staggered import (
    _cfl_margin,
    _ghost_slopes,
    _minmod,
    _predict,
    _slopes,
    make_state,
    run,
    step,
)

GRID = GridSpec(L=1.0, n_cells=4, dx=0.25, lam=0.1)
PARAMS = MBLParams(epsilon=0.1, tau=1.0)
MODEL = FluxModel(2.0)


def _state_a(variant="trapezoid"):
    u0 = np.array([0.0, 0.0, 0.9, 0.9, 0.9])
    bc = (0.0, 0.9)
    return make_state(u0, GRID, PARAMS, MODEL, variant, bc)


def _state_b(variant="trapezoid"):
    u0 = np.array([0.1, 0.3, 0.4, 0.45, 0.5])
    bc = (0.1, 0.5)
    return make_state(u0, GRID, PARAMS, MODEL, variant, bc)


def test_initial_transform_case_a():
    st = _state_a()
    assert st.w.values == pytest.approx(
        [0.0, -0.144, 1.044, 0.9, 0.9], rel=1e-12, abs=1e-15)


def test_initial_transform_case_b():
    st = _state_b()
    assert st.w.values == pytest.approx(
        [0.1, 0.316, 0.40800000000000003, 0.45, 0.5], rel=1e-12)


def test_predictor_case_a():
    st = _state_a()
    dt = GRID.lam * GRID.dx
    fslope = _slopes(flux(np.concatenate([[0.0], st.u.values, [0.9]]), MODEL))
    wp = _predict(st, fslope, 0.0, 0.9)
    up = helmholtz_solve(Field(wp, INTEGER_GRID, dt / 2), 0.0, 0.9, PARAMS, GRID.dx)
    assert up.values == pytest.approx(
        [0.0, 0.012139846908058789, 0.8876537369914852,
         0.89850348327169527, 0.9], rel=1e-12, abs=1e-15)


def test_trapezoid_step_case_a():
    new = step(_state_a())
    assert new.u.phase == HALF_GRID
    assert new.u.values.shape == (4,)
    assert new.u.time == pytest.approx(0.025)
    assert new.u.values == pytest.approx(
        [0.003034373050424487, 0.37600269414014259,
         0.87614233422734289, 0.89716019326334884], rel=1e-12)


def test_midpoint_step_case_a():
    new = step(_state_a("midpoint"))
    assert new.u.values == pytest.approx(
        [0.0036321628863597473, 0.37420546073572414,
         0.87677504625812142, 0.89728924995968284], rel=1e-12)


def test_trapezoid_step_case_b():
    new = step(_state_b())
    assert new.u.values == pytest.approx(
        [0.17728750706436602, 0.34117617112801873,
         0.41789737750046152, 0.47372118639661648], rel=1e-12)


def test_midpoint_step_case_b():
    new = step(_state_b("midpoint"))
    assert new.u.values == pytest.approx(
        [0.18827092037804416, 0.34255200884069575,
         0.4178001538204017, 0.47100172623565684], rel=1e-12)


def test_variants_differ():
    a = step(_state_b()).u.values
    b = step(_state_b("midpoint")).u.values
    assert not np.allclose(a, b, rtol=1e-6)


def test_unknown_variant():
    with pytest.raises(ValueError):
        _state_a("leapfrog")


def test_minmod():
    a = np.array([1.0, -3.0, 1.0, 0.0, 2.0])
    b = np.array([2.0, -1.0, -1.0, 5.0, 0.5])
    assert np.array_equal(_minmod(a, b), [1.0, -1.0, 0.0, 0.0, 0.5])


def test_slopes():
    v = np.array([0.0, 1.0, 3.0, 4.0])
    s = _ghost_slopes(v, 0.0, 4.0)
    assert s.shape == v.shape
    assert s[1] == 1.0  # minmod(3-1, 1-0)
    assert s[2] == 1.0
    assert s[0] == 0.0 and s[-1] == 0.0  # flat against the ghosts


def test_cfl_margin():
    assert _cfl_margin(flux_deriv(np.array([0.0, 0.1, 0.2]), MODEL), GRID.lam) > 0
    assert not _cfl_margin(flux_deriv(np.array([0.6, 0.6, 0.6]), MODEL), 0.5) > 0


@pytest.mark.parametrize("lam, stable", [(0.085, True), (0.09, False)])
def test_midpoint_state_with_growing_linear_modes_is_rejected(lam, stable):
    # tau = 0, so r = eps*lam/dx is 0.85 or 0.9 against a limit near 0.892;
    # unguarded, the r = 0.9 run reaches max|u| ~ 4e23 by t = 0.1, finite
    # throughout, while its clamped f' keeps the CFL test quiet
    m = desk_manifest(scheme="midpoint", tau=0.0, u_B=0.9, epsilon=0.02,
                      dx=0.002, lam=lam, t_final=0.1)
    if stable:
        assert np.abs(run_manifest(m)[-1].values).max() <= m.u_B + 1e-12
    else:
        with pytest.raises(NumericalError, match="midpoint"):
            run_manifest(m)


@pytest.mark.parametrize("u_B", [0.9, 0.75])
def test_tau_zero_runs_converge_to_the_classical_profile(u_B):
    # at tau = 0 the eps -> 0 limit is the entropy solution (van Duijn,
    # Peletier & Pop, SIAM J. Math. Anal. 39, 2007); no run overshoots u_B
    distances = []
    for eps in (0.02, 0.01, 0.005):
        m = desk_manifest(tau=0.0, u_B=u_B, epsilon=eps, dx=eps / 10, t_final=0.25)
        u = run_manifest(m)[-1].values
        assert u.max() - u_B <= 1e-12
        x = m.dx * np.arange(u.size)
        reference = classical_bl_profile(u_B, MODEL, x / m.t_final)
        distances.append(m.dx * np.abs(u - reference).sum())
    assert distances[1] <= 0.7 * distances[0]
    assert distances[2] <= 0.7 * distances[1]


# Final u of a 40-step Riemann run through both grid phases, with u above 1
# so that the flux clamp acts; frozen from the step that built a Field per
# operation, which the array-level step must match bit for bit.
_RIEMANN_40 = {
    "trapezoid": [0.98, 0.9924610116492456, 1.0154983242531317,
                  1.0322356511842783, 1.032416824676687, 1.013681006729668,
                  0.9747345600722574, 0.9154557121448639, 0.8348655312739799,
                  0.7297626895420738, 0.600025402282415, 0.4597067799727457,
                  0.3277082218833994, 0.21192896685242527, 0.11431658515698426,
                  0.03881424406620042, 0.0],
    "midpoint": [0.98, 0.9963425481428951, 1.020503229496715,
                 1.0368119840888539, 1.0361924885157274, 1.0165723336954386,
                 0.9769247014675126, 0.9174303432768227, 0.8371942312160164,
                 0.7328731380729975, 0.604065498444486, 0.46457106120700276,
                 0.3335345715111682, 0.21903640714759923, 0.1224634092003983,
                 0.046156667714997116, 0.0],
}


@pytest.mark.parametrize("variant", sorted(_RIEMANN_40))
def test_short_riemann_run_matches_frozen_values(variant):
    grid = GridSpec(L=1.0, n_cells=16, lam=0.2)
    u0 = np.where(grid.nodes() <= 0.25, 0.98, 0.0)
    st = make_state(u0, grid, MBLParams(epsilon=0.05, tau=10.0), MODEL, variant,
                    (0.98, 0.0))
    for _ in range(40):
        st = step(st)
    assert st.u.phase == INTEGER_GRID
    assert np.array_equal(st.u.values, _RIEMANN_40[variant])


@pytest.mark.parametrize("variant", ["trapezoid", "midpoint"])
def test_new_w_is_u_minus_c_d2_u_on_both_phases(variant):
    # desk grid, Riemann data: one three-point stencil, _d2_order2, gives w
    # on the unknowns bit for bit after a half-phase and a node-phase step,
    # and helmholtz_apply's order-2 w as well
    m = desk_manifest()
    grid = GridSpec(L=m.L, n_cells=round(m.L / m.dx), dx=m.dx, lam=m.lam)
    params = MBLParams(m.epsilon, m.tau)
    c, g, h = params.disp, m.u_B, 0.0
    u0 = np.where(grid.nodes() <= m.L0, g, h)
    st = make_state(u0, grid, params, MODEL, variant, (g, h))
    for phase, unknowns in ((HALF_GRID, slice(None)), (INTEGER_GRID, slice(1, -1))):
        st = step(st)
        assert st.u.phase == phase
        u = st.u.values[unknowns]
        assert np.array_equal(st.w.values[unknowns], u - c * _d2_order2(u, grid.dx, g, h))
    assert (st.w.values[0], st.w.values[-1]) == (g, h)
    v = st.u.values
    w = helmholtz_apply(st.u, params, grid.dx, order=2).values
    assert np.array_equal(w[1:-1], v[1:-1] - c * _d2_order2(v[1:-1], grid.dx, v[0], v[-1]))


@pytest.mark.parametrize("scheme", ["trapezoid", "midpoint", "third_order"])
@pytest.mark.parametrize("bc", [(math.nan, 0.5), (0.1, math.nan),
                                (math.inf, 0.5), (0.1, -math.inf)])
def test_non_finite_boundary_value_is_rejected_before_the_first_step(
        scheme, bc, monkeypatch):
    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(staggered, "step", no_step)
    monkeypatch.setattr(cweno, "rk4_step", no_step)
    with pytest.raises(NumericalError, match="boundary value"):
        if scheme == "third_order":
            ctx = cweno.RhsContext(grid=GRID, params=PARAMS, model=MODEL, bc=bc)
            cweno.run(np.full(GRID.n_cells, 0.3), ctx, t_final=0.1)
        else:
            run(make_state(np.full(5, 0.3), GRID, PARAMS, MODEL, scheme, bc),
                t_final=0.1)


def test_a_run_builds_at_most_two_fields_per_step(monkeypatch):
    built = []
    check = Field.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    pairs = 10
    for variant in ("trapezoid", "midpoint"):
        st = _state_b(variant)
        built.clear()
        monkeypatch.setattr(Field, "__post_init__", counting)
        fields = run(st, t_final=pairs * 2.0 * GRID.lam * GRID.dx)
        monkeypatch.undo()
        # the new state's u and w per step, one stamped copy per returned field
        assert len(built) <= 2 * (2 * pairs) + len(fields)


def test_step_raises_on_cfl_violation():
    grid = GridSpec(L=1.0, n_cells=8, dx=0.125, lam=0.5)
    u0 = np.full(9, 0.6)
    bc = (0.6, 0.6)
    st = make_state(u0, grid, PARAMS, MODEL, "trapezoid", bc)
    with pytest.raises(NumericalError, match="CFL"):
        step(st)


def test_constant_state_is_preserved_exactly():
    grid = GridSpec(L=1.0, n_cells=8, dx=0.125, lam=0.1)
    u0 = np.full(9, 0.4)
    bc = (0.4, 0.4)
    for variant in ("trapezoid", "midpoint"):
        st = make_state(u0, grid, PARAMS, MODEL, variant, bc)
        st = step(step(st))
        assert st.u.phase == INTEGER_GRID
        assert np.allclose(st.u.values, 0.4, rtol=0, atol=1e-14)


def test_mass_change_per_step_pair_matches_boundary_fluxes():
    # with dispersion off, a full staggered pair changes the mass by
    # exactly lam*dx*(f(g) - f(h)) per step
    grid = GridSpec(L=1.0, n_cells=10, dx=0.1, lam=0.1)
    params = MBLParams(epsilon=0.0, tau=1.0)
    g, h = 0.8, 0.0
    u0 = np.where(np.arange(11) <= 4, g, h).astype(float)
    bc = (g, h)
    st = make_state(u0, grid, params, MODEL, "trapezoid", bc)
    mass0 = grid.dx * st.w.values.sum()
    st = step(step(st))
    mass2 = grid.dx * st.w.values.sum()
    expected = 2.0 * grid.lam * grid.dx * (flux(g, MODEL) - flux(h, MODEL))
    assert mass2 - mass0 == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("scheme", ["trapezoid", "third_order"])
def test_run_lands_snapshots_exactly(scheme):
    dt = GRID.lam * GRID.dx  # 0.025
    t_mid = 3.3 * dt         # not a multiple of a full pair
    if scheme == "trapezoid":
        fields = run(_state_a(), t_final=5.0 * dt, snapshot_times=[t_mid])
        phase, size = INTEGER_GRID, 5
    else:  # the order-4 solves need a few more cells
        m = desk_manifest(scheme=scheme, epsilon=0.1, tau=1.0, L=1.0, L0=0.25,
                          dx=0.125, lam=0.2, t_final=5.0 * dt,
                          snapshot_times=[t_mid])
        fields = run_manifest(m)
        phase, size = HALF_GRID, 8
    assert len(fields) == 2
    assert [f.time for f in fields] == [t_mid, 5.0 * dt]
    for f in fields:
        assert f.phase == phase
        assert f.values.shape == (size,)


def test_run_is_deterministic():
    a = run(_state_a(), t_final=0.2)[-1].values
    b = run(_state_a(), t_final=0.2)[-1].values
    assert np.array_equal(a, b)


def test_run_validates_times():
    with pytest.raises(ValueError):
        run(_state_a(), t_final=0.0)
    with pytest.raises(ValueError):
        run(_state_a(), t_final=0.1, snapshot_times=[0.2])
    with pytest.raises(ValueError):
        run(_state_a(), t_final=0.1, snapshot_times=[-0.05])
