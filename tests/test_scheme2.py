"""Staggered predictor-corrector scheme: frozen single-step values and invariants."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mblab import cweno, staggered
from mblab.errors import NumericalError
from mblab.experiments import desk_manifest, run_manifest
from mblab.flux import FluxModel, classical_bl_profile, flux, flux_deriv
from mblab.march import RunContext
from mblab.operators import (
    Field,
    GridSpec,
    HALF_GRID,
    INTEGER_GRID,
    MBLParams,
    _d2_order2,
    _padded,
    helmholtz_apply,
    helmholtz_solve,
)
from mblab.staggered import (
    _cfl_margin,
    _minmod,
    _predict,
    _slopes,
    run,
    step,
)

GRID = GridSpec(L=1.0, n_cells=4, dx=0.25, lam=0.1)
PARAMS = MBLParams(epsilon=0.1, tau=1.0)
MODEL = FluxModel(2.0)


def _start(u0, bc, grid=GRID, params=PARAMS):
    """(u, w, ctx) at t = 0 from node values u0 and the boundary pair bc."""
    u = np.asarray(u0, dtype=float)
    w = helmholtz_apply(Field(u, INTEGER_GRID), params, grid.dx).values
    return u, w, RunContext(grid, params, MODEL, bc)


def _state_a():
    return _start([0.0, 0.0, 0.9, 0.9, 0.9], (0.0, 0.9))


def _state_b():
    return _start([0.1, 0.3, 0.4, 0.45, 0.5], (0.1, 0.5))


def test_initial_transform_case_a():
    _, w, _ = _state_a()
    assert w == pytest.approx(
        [0.0, -0.144, 1.044, 0.9, 0.9], rel=1e-12, abs=1e-15)


def test_initial_transform_case_b():
    _, w, _ = _state_b()
    assert w == pytest.approx(
        [0.1, 0.316, 0.40800000000000003, 0.45, 0.5], rel=1e-12)


def test_predictor_case_a():
    u, w, ctx = _state_a()
    dt = GRID.lam * GRID.dx
    u_ext = _padded(u, 0.0, 0.9)
    fslope = _slopes(flux(u_ext, MODEL))
    wp = _predict(u_ext, w, fslope, ctx, GRID.lam)
    up = helmholtz_solve(Field(wp, INTEGER_GRID, dt / 2), 0.0, 0.9, PARAMS, GRID.dx)
    assert up.values == pytest.approx(
        [0.0, 0.012139846908058789, 0.8876537369914852,
         0.89850348327169527, 0.9], rel=1e-12, abs=1e-15)


def test_trapezoid_step_case_a():
    u_new, w_new = step(*_state_a(), "trapezoid", GRID.lam)
    assert u_new.shape == w_new.shape == (4,)  # the half cells
    assert u_new == pytest.approx(
        [0.003034373050424487, 0.37600269414014259,
         0.87614233422734289, 0.89716019326334884], rel=1e-12)


def test_midpoint_step_case_a():
    u_new, _ = step(*_state_a(), "midpoint", GRID.lam)
    assert u_new == pytest.approx(
        [0.0036321628863597473, 0.37420546073572414,
         0.87677504625812142, 0.89728924995968284], rel=1e-12)


def test_trapezoid_step_case_b():
    u_new, _ = step(*_state_b(), "trapezoid", GRID.lam)
    assert u_new == pytest.approx(
        [0.17728750706436602, 0.34117617112801873,
         0.41789737750046152, 0.47372118639661648], rel=1e-12)


def test_midpoint_step_case_b():
    u_new, _ = step(*_state_b(), "midpoint", GRID.lam)
    assert u_new == pytest.approx(
        [0.18827092037804416, 0.34255200884069575,
         0.4178001538204017, 0.47100172623565684], rel=1e-12)


def test_variants_differ():
    a, _ = step(*_state_b(), "trapezoid", GRID.lam)
    b, _ = step(*_state_b(), "midpoint", GRID.lam)
    assert not np.allclose(a, b, rtol=1e-6)


def test_unknown_variant():
    u, _, ctx = _state_a()
    with pytest.raises(ValueError, match="leapfrog"):
        run(u, ctx, "leapfrog", t_final=0.1)


def test_minmod():
    a = np.array([1.0, -3.0, 1.0, 0.0, 2.0])
    b = np.array([2.0, -1.0, -1.0, 5.0, 0.5])
    assert np.array_equal(_minmod(a, b), [1.0, -1.0, 0.0, 0.0, 0.5])


def _minmod_reference(a, b):
    """The sign form of minmod that the five-pass kernel replaced."""
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                          -2.2250738585072009e-308, 1.0, -1.0])
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | _EDGES
_PAIRS = st.tuples(_FINITE, _FINITE) | _FINITE.map(lambda v: (v, v))


@given(st.lists(_PAIRS, min_size=1, max_size=64))
def test_minmod_matches_the_sign_form_byte_for_byte(pairs):
    ab = np.array(pairs, dtype=float)
    a, b = ab[:, 0].copy(), ab[:, 1].copy()
    # the sign form gives -0.0 for a negative value against a zero, the
    # five-pass form +0.0; adding +0.0 changes that and no other bit
    assert _minmod(a, b).tobytes() == (_minmod_reference(a, b) + 0.0).tobytes()


def test_slopes():
    v = np.array([0.0, 1.0, 3.0, 4.0])
    s = _slopes(_padded(v, 0.0, 4.0))
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
# so that the flux clamp acts.  Frozen again when the order-2 solves moved
# from LU (dgttrf) to LDL^T (dpttrf); _RIEMANN_40_LU keeps the values of the
# LU solver (those of the step that built a Field per operation, bit for
# bit), which the new ones match to within 1.3e-15.
_RIEMANN_40 = {
    "trapezoid": [0.98, 0.9924610116492458, 1.0154983242531324,
                  1.0322356511842794, 1.0324168246766876, 1.0136810067296675,
                  0.9747345600722562, 0.9154557121448628, 0.8348655312739792,
                  0.7297626895420732, 0.6000254022824146, 0.4597067799727452,
                  0.3277082218833989, 0.21192896685242488, 0.11431658515698408,
                  0.03881424406620035, 0.0],
    "midpoint": [0.98, 0.9963425481428951, 1.0205032294967151,
                 1.0368119840888543, 1.0361924885157276, 1.0165723336954384,
                 0.9769247014675124, 0.9174303432768225, 0.8371942312160163,
                 0.7328731380729976, 0.604065498444486, 0.46457106120700264,
                 0.33353457151116805, 0.21903640714759906, 0.1224634092003982,
                 0.046156667714997046, 0.0],
}
_RIEMANN_40_LU = {
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
    u, w, ctx = _start(u0, (0.98, 0.0), grid, MBLParams(epsilon=0.05, tau=10.0))
    for _ in range(40):
        u, w = step(u, w, ctx, variant, grid.lam)
    assert u.size == grid.n_cells + 1  # back on the nodes
    assert np.array_equal(u, _RIEMANN_40[variant])
    assert np.allclose(u, _RIEMANN_40_LU[variant], rtol=0, atol=2e-15)


@pytest.mark.parametrize("variant", ["trapezoid", "midpoint"])
def test_new_w_is_u_minus_c_d2_u_on_both_phases(variant):
    # desk grid, Riemann data: one three-point stencil, _d2_order2, gives w
    # on the unknowns bit for bit after a half-phase and a node-phase step,
    # and helmholtz_apply's order-2 w as well
    m = desk_manifest()
    grid = GridSpec(L=m.L, n_cells=round(m.L / m.dx), dx=m.dx, lam=m.lam)
    params = MBLParams(m.epsilon, m.tau)
    c, g, h = params.disp, m.u_B, 0.0
    u, w, ctx = _start(np.where(grid.nodes() <= m.L0, g, h), (g, h), grid, params)
    for size, unknowns in ((grid.n_cells, slice(None)),
                           (grid.n_cells + 1, slice(1, -1))):
        u, w = step(u, w, ctx, variant, grid.lam)
        assert u.size == w.size == size
        v = u[unknowns]
        assert np.array_equal(w[unknowns], v - c * _d2_order2(_padded(v, g, h), grid.dx))
    assert (w[0], w[-1]) == (g, h)
    w_apply = helmholtz_apply(Field(u, INTEGER_GRID), params, grid.dx, order=2).values
    assert np.array_equal(w_apply[1:-1], u[1:-1] - c * _d2_order2(u, grid.dx))


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
        ctx = RunContext(GRID, PARAMS, MODEL, bc)
        if scheme == "third_order":
            cweno.run(np.full(GRID.n_cells, 0.3), ctx, t_final=0.1)
        else:
            run(np.full(5, 0.3), ctx, scheme, t_final=0.1)


def test_a_run_builds_at_most_two_fields_per_step(monkeypatch):
    built = []
    check = Field.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    dt = GRID.lam * GRID.dx
    for variant in ("trapezoid", "midpoint"):
        u, _, ctx = _state_b()
        built.clear()
        monkeypatch.setattr(Field, "__post_init__", counting)
        fields = run(u, ctx, variant, t_final=20.0 * dt, snapshot_times=[7.3 * dt])
        monkeypatch.undo()
        # u0 and its w, then one per returned field: none inside a step
        assert len(fields) == 2
        assert len(built) <= 2 + len(fields)


def test_step_raises_on_cfl_violation():
    grid = GridSpec(L=1.0, n_cells=8, dx=0.125, lam=0.5)
    u, w, ctx = _start(np.full(9, 0.6), (0.6, 0.6), grid)
    with pytest.raises(NumericalError, match="CFL"):
        step(u, w, ctx, "trapezoid", grid.lam)


def test_constant_state_is_preserved_exactly():
    grid = GridSpec(L=1.0, n_cells=8, dx=0.125, lam=0.1)
    for variant in ("trapezoid", "midpoint"):
        u, w, ctx = _start(np.full(9, 0.4), (0.4, 0.4), grid)
        for _ in range(2):
            u, w = step(u, w, ctx, variant, grid.lam)
        assert u.size == 9
        assert np.allclose(u, 0.4, rtol=0, atol=1e-14)


def test_mass_change_per_step_pair_matches_boundary_fluxes():
    # with dispersion off, a full staggered pair changes the mass by
    # exactly lam*dx*(f(g) - f(h)) per step
    grid = GridSpec(L=1.0, n_cells=10, dx=0.1, lam=0.1)
    params = MBLParams(epsilon=0.0, tau=1.0)
    g, h = 0.8, 0.0
    u, w, ctx = _start(np.where(np.arange(11) <= 4, g, h), (g, h), grid, params)
    mass0 = grid.dx * w.sum()
    for _ in range(2):
        u, w = step(u, w, ctx, "trapezoid", grid.lam)
    mass2 = grid.dx * w.sum()
    expected = 2.0 * grid.lam * grid.dx * (flux(g, MODEL) - flux(h, MODEL))
    assert mass2 - mass0 == pytest.approx(expected, abs=1e-10)


def _run_a(**kwargs):
    u, _, ctx = _state_a()
    return run(u, ctx, "trapezoid", **kwargs)


@pytest.mark.parametrize("scheme", ["trapezoid", "third_order"])
def test_run_lands_snapshots_exactly(scheme):
    dt = GRID.lam * GRID.dx  # 0.025
    t_mid = 3.3 * dt         # not a multiple of a full pair
    if scheme == "trapezoid":
        fields = _run_a(t_final=5.0 * dt, snapshot_times=[t_mid])
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
    a = _run_a(t_final=0.2)[-1].values
    b = _run_a(t_final=0.2)[-1].values
    assert np.array_equal(a, b)


def test_run_validates_times():
    with pytest.raises(ValueError):
        _run_a(t_final=0.0)
    with pytest.raises(ValueError):
        _run_a(t_final=0.1, snapshot_times=[0.2])
    with pytest.raises(ValueError):
        _run_a(t_final=0.1, snapshot_times=[-0.05])
