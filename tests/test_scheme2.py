"""Staggered predictor-corrector scheme: frozen single-step values and invariants."""
import gc
import itertools
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mblab import cli, cweno, staggered
from mblab.errors import NumericalError
from mblab.experiments import desk_manifest, run_manifest
from mblab.flux import FluxModel, flux
from mblab.march import RunContext, land_snapshots, landing_targets
from mblab.operators import (
    Field,
    GridSpec,
    HALF_GRID,
    INTEGER_GRID,
    MBLParams,
    _Solve,
    _d2_order2,
    helmholtz_apply,
    helmholtz_solve,
)
from mblab.staggered import (
    _CFL_SAFE,
    Batch,
    _cfl_margin,
    _minmod,
    _predict,
    _slope_views,
    _slopes,
    run,
    step,
)

from classical_bl import classical_bl_profile, fprime

GRID = GridSpec(L=1.0, n_cells=4, dx=0.25, lam=0.1)
PARAMS = MBLParams(epsilon=0.1, tau=1.0)
MODEL = FluxModel(2.0)


def _start(u0, bc, grid=GRID, params=PARAMS):
    """(u, ctx) at t = 0 from node values u0 and the boundary pair bc."""
    return np.asarray(u0, dtype=float), RunContext(grid, params, MODEL, bc)


def _phase(u, ctx):
    return INTEGER_GRID if len(u) == ctx.grid.n_cells + 1 else HALF_GRID


def _other(phase):
    return HALF_GRID if phase == INTEGER_GRID else INTEGER_GRID


def _w(u, ctx):
    """w = (I - c D2) u of a run's point values: the pinned nodes keep
    their values, the half cells read the boundary pair as ghosts."""
    batch = Batch([ctx])
    phase = _phase(u, ctx)
    w = batch.pack([u], phase)
    w[1:-1] = helmholtz_apply(w, ctx.params.disp, ctx.grid.dx)
    w = batch.points(w, phase)[0]
    if phase == INTEGER_GRID:
        w[0], w[-1] = u[0], u[-1]
    return w


def _step(u, ctx, variant, lam):
    """One step of a lone run from its point values to the new ones, through
    its batch vectors."""
    batch = Batch([ctx])
    phase = _phase(u, ctx)
    u_new = step(batch.pack([u], phase), phase, batch, variant, lam)
    return batch.points(u_new, _other(phase))[0]


def _slopes_of(ext):
    """Minmod slopes of ghost-extended values, in new arrays."""
    n = ext.shape[-1]
    return _slopes(*_slope_views(ext, np.empty(n - 1), np.empty(n - 2), np.empty(n - 2)))


def _padded(v, left, right):
    return np.concatenate([[left], v, [right]])


def _state_a():
    return _start([0.0, 0.0, 0.9, 0.9, 0.9], (0.0, 0.9))


def _state_b():
    return _start([0.1, 0.3, 0.4, 0.45, 0.5], (0.1, 0.5))


def test_initial_transform_case_a():
    w = _w(*_state_a())
    assert w == pytest.approx(
        [0.0, -0.144, 1.044, 0.9, 0.9], rel=1e-12, abs=1e-15)


def test_initial_transform_case_b():
    w = _w(*_state_b())
    assert w == pytest.approx(
        [0.1, 0.316, 0.40800000000000003, 0.45, 0.5], rel=1e-12)


def test_predictor_case_a():
    u, ctx = _state_a()
    dt = GRID.lam * GRID.dx
    batch = Batch([ctx])
    u_ext = batch.pack([u], INTEGER_GRID)
    fslope = _slopes_of(flux(u_ext, MODEL))
    w = batch.pack([_w(u, ctx)], INTEGER_GRID)
    wp = np.empty(batch.size)
    _predict(_d2_order2(u_ext, GRID.dx), fslope, w[1:-1], PARAMS.epsilon * GRID.dx,
             GRID.lam, wp[1:-1])
    wp = batch.frame(wp, INTEGER_GRID)  # the pinned nodes keep the Dirichlet values
    up = helmholtz_solve(Field(batch.points(wp, INTEGER_GRID)[0], INTEGER_GRID,
                               dt / 2), 0.0, 0.9, PARAMS.disp, GRID.dx)
    assert up.values == pytest.approx(
        [0.0, 0.012139846908058789, 0.8876537369914852,
         0.89850348327169527, 0.9], rel=1e-12, abs=1e-15)


def test_trapezoid_step_case_a():
    u_new = _step(*_state_a(), "trapezoid", GRID.lam)
    assert u_new.shape == (4,)  # the half cells
    assert u_new == pytest.approx(
        [0.003034373050424487, 0.37600269414014259,
         0.87614233422734289, 0.89716019326334884], rel=1e-12)


def test_midpoint_step_case_a():
    u_new = _step(*_state_a(), "midpoint", GRID.lam)
    assert u_new == pytest.approx(
        [0.0036321628863597473, 0.37420546073572414,
         0.87677504625812142, 0.89728924995968284], rel=1e-12)


def test_trapezoid_step_case_b():
    u_new = _step(*_state_b(), "trapezoid", GRID.lam)
    assert u_new == pytest.approx(
        [0.17728750706436602, 0.34117617112801873,
         0.41789737750046152, 0.47372118639661648], rel=1e-12)


def test_midpoint_step_case_b():
    u_new = _step(*_state_b(), "midpoint", GRID.lam)
    assert u_new == pytest.approx(
        [0.18827092037804416, 0.34255200884069575,
         0.4178001538204017, 0.47100172623565684], rel=1e-12)


def test_variants_differ():
    a = _step(*_state_b(), "trapezoid", GRID.lam)
    b = _step(*_state_b(), "midpoint", GRID.lam)
    assert not np.allclose(a, b, rtol=1e-6)


def test_unknown_variant():
    u, ctx = _state_a()
    with pytest.raises(ValueError, match="leapfrog"):
        run([u], [ctx], "leapfrog", t_final=0.1)


def test_minmod():
    a = np.array([1.0, -3.0, 1.0, 0.0, 2.0])
    b = np.array([2.0, -1.0, -1.0, 5.0, 0.5])
    assert np.array_equal(_minmod(a, b, np.empty(5), np.empty(5)),
                          [1.0, -1.0, 0.0, 0.0, 0.5])


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
    out = _minmod(a, b, np.empty_like(a), np.empty_like(a))
    assert out.tobytes() == (_minmod_reference(a, b) + 0.0).tobytes()


def test_slopes():
    v = np.array([0.0, 1.0, 3.0, 4.0])
    s = _slopes_of(_padded(v, 0.0, 4.0))
    assert s.shape == v.shape
    assert s[1] == 1.0  # minmod(3-1, 1-0)
    assert s[2] == 1.0
    assert s[0] == 0.0 and s[-1] == 0.0  # flat against the ghosts


def test_cfl_margin():
    assert _cfl_margin(fprime(np.array([0.0, 0.1, 0.2]), MODEL), GRID.lam) > 0
    assert not _cfl_margin(fprime(np.array([0.6, 0.6, 0.6]), MODEL), 0.5) > 0


def _largest_unchecked_lam(model):
    """The largest lam whose steps skip the CFL test: lam * C < _CFL_SAFE."""
    lam = _CFL_SAFE / model.C
    while not lam * model.C < _CFL_SAFE:
        lam = math.nextafter(lam, 0.0)
    return lam


def test_c_is_reached_by_the_computed_f_prime_at_m_1_and_u_one_half():
    model = FluxModel(1.0)
    assert fprime(0.5, model) == model.C == 2.0
    assert _cfl_margin(fprime(np.array([0.5]), model),
                       _largest_unchecked_lam(model)) > 0
    # there lam = 1/4 makes lam max f' = 1/2 exactly, which the strict
    # bound refuses, at a node or a cell that is a point
    ctx = RunContext(GridSpec(L=1.0, n_cells=4, lam=0.25), PARAMS, model, (0.3, 0.0))
    for points in ([0.3, 0.5, 0.1, 0.0, 0.0], [0.3, 0.5, 0.1, 0.0]):
        with pytest.raises(NumericalError, match="= 0.5 >= 0.5"):
            _step(np.array(points), ctx, "trapezoid", 0.25)


@settings(max_examples=400, deadline=None)
@given(M=st.floats(1e-3, 1e3), u=st.floats(-1.0, 2.0))
def test_c_bounds_the_computed_f_prime(M, u):
    # a step skips f' and the CFL test where lam * C < _CFL_SAFE: that
    # rests on C bounding every computed f', up to the rounding the cut
    # leaves room for
    model = FluxModel(M)
    speeds = fprime(np.array([u]), model)
    assert speeds[0] <= model.C * (1.0 + 2.0 ** -50)
    assert _cfl_margin(speeds, _largest_unchecked_lam(model)) > 0


def test_a_cfl_violation_that_appears_mid_run_fails_the_step_it_appears_in(
        monkeypatch):
    # lam * C = 0.52, just over the cut, at M = 1; f' crosses 1/(2 lam) only
    # for u near 1/2, which the dispersive overshoot above the inflow value
    # 0.42 reaches after some 40 steps.  The step that fails is the first
    # whose points fail the test as a CFL check on every step sees it.
    model = FluxModel(1.0)
    grid = GridSpec(L=1.0, n_cells=20, lam=0.52 / model.C)
    ctx = RunContext(grid, MBLParams(0.05, 5.0), model, (0.42, 0.0))
    u0 = np.zeros(21)
    u0[0] = 0.42
    failing = []
    checked_step = staggered.step

    def step_seen(u, phase, batch, variant, lam):
        speeds = fprime(np.concatenate(batch.points(u, phase)), model)
        failing.append(not _cfl_margin(speeds, lam) > 0)
        return checked_step(u, phase, batch, variant, lam)

    monkeypatch.setattr(staggered, "step", step_seen)
    with pytest.raises(NumericalError, match="CFL"):
        run([u0], [ctx], "trapezoid", t_final=200 * grid.lam * grid.dx)
    assert failing.index(True) == len(failing) - 1 >= 20


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


def test_a_midpoint_gain_that_overflows_is_rejected():
    # tau = 0 and r = eps*lam/dx = 4e154: z^2 overflows, and at theta = pi
    # the factor is 0 * inf = NaN, which no max|G| > 1 test would catch
    m = desk_manifest(scheme="midpoint", tau=0.0, epsilon=1e153, L=0.1, dx=0.0025,
                      t_final=0.01)
    with pytest.raises(NumericalError, match=r"midpoint scheme unstable: max\|G\| = nan"):
        run_manifest(m)


def _edge_of_stability(scheme, lam, t_final):
    return desk_manifest(scheme=scheme, tau=0.0, u_B=0.9, epsilon=0.02, dx=0.002,
                         lam=lam, t_final=t_final)


@pytest.mark.parametrize("lam, overshoot", [(0.085, 0.0), (0.086, 0.1081)])
def test_midpoint_runs_at_its_guard_edge_stay_in_range(lam, overshoot):
    # both pass the midpoint guard; r = 0.86 overshoots u_B by 0.108 and
    # undershoots to -0.046, still inside [-1, 2]
    u = run_manifest(_edge_of_stability("midpoint", lam, 0.2))[-1].values
    assert u.max() - 0.9 == pytest.approx(overshoot, abs=1e-4)
    assert -1.0 < u.min() and u.max() < 2.0


def test_the_unguarded_trapezoid_stays_in_range_far_past_the_midpoint_limit():
    # r = 2 and lam C = 0.45 at tau = 0, where the midpoint guard stops at
    # r ~ 0.892: the trapezoid's diffusion is implicit, so it needs no guard
    u = run_manifest(_edge_of_stability("trapezoid", 0.2, 0.2))[-1].values
    assert 0.0 <= u.min() and u.max() <= 0.9


@pytest.mark.parametrize("scheme, lam, t_final", [("midpoint", 0.087, 0.2),
                                                  ("third_order", 0.052, 0.1)])
def test_a_diverged_run_that_stays_finite_is_a_numerical_error(scheme, lam, t_final):
    # each passes its scheme's up-front guard, then grows while finite: the
    # midpoint run to max u ~ 1.07e12, the third-order one (r = 0.52, an
    # RK4 instability of the convective part) to |u - 1/2| ~ 174
    with pytest.raises(NumericalError, match=r"leaves \[-1, 2\]"):
        run_manifest(_edge_of_stability(scheme, lam, t_final))


def test_cli_diverged_run_exit_code(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(_edge_of_stability("midpoint", 0.087, 0.2)
                    .model_dump_json(by_alias=True))
    rc = cli.main(["riemann", "--manifest", str(path),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


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
    u, ctx = _start(u0, (0.98, 0.0), grid, MBLParams(epsilon=0.05, tau=10.0))
    batch = Batch([ctx])
    u = batch.pack([u], INTEGER_GRID)
    for _ in range(20):
        for phase in (INTEGER_GRID, HALF_GRID):
            u = step(u, phase, batch, variant, grid.lam)
    u = batch.points(u, INTEGER_GRID)[0]  # back on the nodes
    assert np.array_equal(u, _RIEMANN_40[variant])
    assert np.allclose(u, _RIEMANN_40_LU[variant], rtol=0, atol=2e-15)


# Final u of two step pairs from a start whose pinned nodes (0.2, 0.6) are
# not its boundary pair (0.1, 0.5): on the first step w keeps the pinned
# values of u, not the pair.  Frozen when the march state became (t, u).
_OFF_PAIR = {
    "trapezoid": [0.1, 0.22018813291095968, 0.3466249127713864,
                  0.43513613820098856, 0.5],
    "midpoint": [0.1, 0.23044043611140816, 0.34993863553475796,
                 0.4341755368957813, 0.5],
}


@pytest.mark.parametrize("variant", sorted(_OFF_PAIR))
def test_a_start_off_its_boundary_pair_matches_frozen_values(variant):
    u, ctx = _start([0.2, 0.3, 0.4, 0.45, 0.6], (0.1, 0.5))
    fields, = run([u], [ctx], variant, t_final=4 * GRID.lam * GRID.dx)
    assert np.array_equal(fields[-1].values, _OFF_PAIR[variant])


@pytest.mark.parametrize("variant", ["trapezoid", "midpoint"])
def test_new_w_is_u_minus_c_d2_u_on_both_phases(variant):
    # desk grid, Riemann data: one three-point stencil, _d2_order2, gives w
    # on the unknowns bit for bit after a half-phase and a node-phase step,
    # and helmholtz_apply's order-2 w as well
    m = desk_manifest()
    grid = GridSpec(L=m.L, n_cells=round(m.L / m.dx), dx=m.dx, lam=m.lam)
    params = MBLParams(m.epsilon, m.tau)
    c, g, h = params.disp, m.u_B, 0.0
    u, ctx = _start(np.where(grid.nodes() <= m.L0, g, h), (g, h), grid, params)
    for size, unknowns in ((grid.n_cells, slice(None)),
                           (grid.n_cells + 1, slice(1, -1))):
        u = _step(u, ctx, variant, grid.lam)
        w = _w(u, ctx)
        assert u.size == w.size == size
        v = u[unknowns]
        assert np.array_equal(w[unknowns], v - c * _d2_order2(_padded(v, g, h), grid.dx))
    assert (w[0], w[-1]) == (g, h)
    w_apply = helmholtz_apply(u, c, grid.dx)
    assert np.array_equal(w_apply, u[1:-1] - c * _d2_order2(u, grid.dx))


_UNIT = st.floats(0.0, 1.0)


@st.composite
def _runs(draw, phase):
    """(u, ctx) of a run on phase: 4 to 12 cells of dx = 0.1, a tau in
    [0, 2] (0 keeps the c-solves the identity) and values in [0, 1]."""
    cells = draw(st.integers(4, 12))
    grid = GridSpec(L=0.1 * cells, n_cells=cells, dx=0.1, lam=0.1)
    tau = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    values = hnp.arrays(float, len(grid.points(phase)), elements=_UNIT)
    bc = (draw(_UNIT), draw(_UNIT))
    return draw(values), RunContext(grid, MBLParams(epsilon=0.1, tau=tau), MODEL, bc)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), variant=st.sampled_from(["trapezoid", "midpoint"]),
       phase=st.sampled_from([INTEGER_GRID, HALF_GRID]))
def test_a_batch_steps_each_run_as_it_would_alone(data, variant, phase):
    # runs of different sizes, tau and boundary pairs, on node and half-cell
    # vectors, against one step per run in a batch of its own
    runs = data.draw(st.lists(_runs(phase), min_size=1, max_size=4))
    batch = Batch([ctx for _, ctx in runs])
    u_new = step(batch.pack([u for u, _ in runs], phase), phase, batch, variant, 0.1)
    for (u, ctx), u_got in zip(runs, batch.points(u_new, _other(phase))):
        assert u_got.tobytes() == _step(u, ctx, variant, 0.1).tobytes()


_SIGNS = (0.0, -0.0, 0.3, -0.3)


def _arrays_reached(obj):
    """Every ndarray that obj reaches through instance attributes,
    containers and partials, not through classes, modules or functions."""
    seen, arrays, todo = set(), [], [obj]
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            arrays.append(x)
        else:
            todo.extend(gc.get_referents(x))
    return arrays


@pytest.mark.parametrize("phase", [INTEGER_GRID, HALF_GRID])
@pytest.mark.parametrize("variant", ["trapezoid", "midpoint"])
def test_a_state_stepped_twice_gives_the_same_bytes_both_times(variant, phase):
    # a landing fork steps the state that the main march steps next, and
    # marches on: no step may write into the state it is given, and nothing
    # it returns may live in the batch's scratch.  One run, then three of
    # mixed tau (0 keeps that run's c-solves the identity)
    rng = np.random.default_rng(11)
    for taus in ((1.0,), (0.0, 1.0, 5.0)):
        ctxs = [RunContext(GridSpec(L=0.1 * n, n_cells=n, dx=0.1, lam=0.1),
                           MBLParams(epsilon=0.1, tau=tau), MODEL, bc)
                for n, tau, bc in zip((6, 5, 7), taus,
                                      ((0.9, 0.0), (0.6, 0.1), (0.3, 0.0)))]
        batch = Batch(ctxs)
        u = batch.pack([rng.random(len(ctx.grid.points(phase))) for ctx in ctxs],
                       phase)
        given = u.tobytes()
        first = step(u, phase, batch, variant, 0.1)
        kept = first.tobytes()
        step(first, _other(phase), batch, variant, 0.03)  # the fork marches on
        second = step(u, phase, batch, variant, 0.1)
        assert u.tobytes() == given
        assert first.tobytes() == kept
        assert second.tobytes() == kept
        # every array the batch reaches, its prepared views and solves too
        arrays = _arrays_reached(batch)
        assert any(a is batch.views[phase].placed_new for a in arrays)
        for a in (first, second):
            assert not any(np.shares_memory(a, b) for b in arrays + [u])
        assert not np.shares_memory(first, second)


@pytest.mark.parametrize("phase", [INTEGER_GRID, HALF_GRID])
@pytest.mark.parametrize("variant", ["trapezoid", "midpoint"])
def test_a_step_allocates_little_beyond_the_u_it_returns(variant, phase):
    # the temporaries of a step live in its batch's scratch: after a warm-up
    # step (which builds the corrector's solve), a step's peak allocation
    # over its baseline is the new u, two finiteness masks of an eighth of
    # its size and the objects of the calls, below twice the new u.  At
    # lam = 0.23, lam C is above 1/2, so the step tests CFL, in its batch's
    # rows too; the state's largest f', at 0.9, keeps it stable
    ctx = RunContext(GridSpec(L=1.0, n_cells=1000, dx=1e-3, lam=0.1),
                     MBLParams(epsilon=0.01, tau=2.0), MODEL, (0.9, 0.0))
    batch = Batch([ctx])
    x = ctx.grid.points(phase)
    u = batch.pack([np.where(x < 0.3, 0.9, 0.0)], phase)
    for lam in (0.1, 0.23):
        step(u, phase, batch, variant, lam)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            u_new = step(u, phase, batch, variant, lam)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * u_new.nbytes, \
            f"lam {lam}: peak {peak} B against a new u of {u_new.nbytes} B"


@pytest.mark.parametrize("phase", [INTEGER_GRID, HALF_GRID])
def test_pack_refuses_a_point_list_of_the_wrong_length(phase):
    # a short list would leave np.empty's garbage in the vector, a long one
    # write into the next run's slots, and a missing run go unfilled
    _, ctx = _state_a()
    batch = Batch([ctx, ctx])
    good = np.zeros(len(ctx.grid.points(phase)))
    for points in ([good, good[:-1]], [good[1:], good], [good, np.zeros(good.size + 1)],
                   [np.zeros(good.size + 1), good], [good], [good] * 3):
        with pytest.raises(ValueError, match="need the point values of each run"):
            batch.pack(points, phase)


@pytest.mark.parametrize("delta", [0.0, 0.002])
@pytest.mark.parametrize("phase", [INTEGER_GRID, HALF_GRID])
def test_a_batch_solve_is_each_runs_own_solve(phase, delta):
    # one block-diagonal dpttrs call with identity rows between the runs
    # against a one-segment _Solve per run: three runs of 4, 5 and 6 cells, +-0
    # or signed values in every right-hand side, and every sign of the
    # boundary values at the two joints.  tau = 0 makes a run's c-solve the
    # identity at delta = 0: the first, middle or last run, so that a kept
    # run starts or ends the solved span, or all three, the identity
    rng = np.random.default_rng(3)
    unknowns = slice(1, -1) if phase == INTEGER_GRID else slice(None)
    for taus in ((0.0, 0.5, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, 0.0), (0.0, 0.0, 0.0)):
        for h0, g1, h1, g2 in itertools.product(_SIGNS, repeat=4):
            ctxs = [RunContext(GridSpec(L=0.1 * n, n_cells=n, dx=0.1, lam=0.1),
                               MBLParams(epsilon=0.1, tau=tau), MODEL, bc)
                    for n, tau, bc in zip((4, 5, 6), taus,
                                          ((0.3, h0), (g1, h1), (g2, 0.0)))]
            batch = Batch(ctxs)
            for fill in (0.0, -0.0, None):
                rhs = []
                for ctx in ctxs:
                    w = np.full(len(ctx.grid.points(phase)), fill) if fill is not None \
                        else rng.choice(_SIGNS, len(ctx.grid.points(phase)))
                    if phase == INTEGER_GRID:  # the pinned nodes hold the bc
                        w[0], w[-1] = ctx.bc
                    rhs.append(w)
                v = batch.pack(rhs, phase)
                span, solve, _ = batch.solver(phase, delta)
                solve(v[span], batch.g, batch.h)
                got = batch.points(v, phase)
                for ctx, w, u in zip(ctxs, rhs, got):
                    want = w.copy()
                    segment = ((len(w[unknowns]), ctx.params.disp + delta),)
                    want[unknowns] = _Solve(phase, 2, 0.1, segment)(
                        w[unknowns].copy(), *ctx.bc)
                    assert u.tobytes() == want.tobytes()


def test_a_batch_holds_runs_of_one_dx_lambda_epsilon_and_model():
    _, ctx = _state_a()
    Batch([ctx, RunContext(GridSpec(L=2.0, n_cells=8, dx=0.25, lam=0.1),
                           MBLParams(epsilon=0.1, tau=3.0), MODEL, (0.5, 0.0))])
    for other in (RunContext(GridSpec(L=1.0, n_cells=8, lam=0.1), PARAMS, MODEL,
                             (0.0, 0.9)),
                  RunContext(GRID, MBLParams(epsilon=0.2, tau=1.0), MODEL, (0.0, 0.9)),
                  RunContext(GRID, PARAMS, FluxModel(3.0), (0.0, 0.9))):
        with pytest.raises(ValueError, match="share"):
            Batch([ctx, other])
    with pytest.raises(ValueError, match="at least one"):
        Batch([])


def test_the_cfl_test_of_half_cells_leaves_out_their_ghosts():
    # f' peaks at the inflow value g: on the half cells g sits only in the
    # ghost, so the step runs; on the nodes it is a pinned point.  So too in
    # a batch of two whose second run flows in at g: its ghost g lies
    # between the runs, after the first run's ghost h and spare slot
    u = np.linspace(0.0, 1.0, 2001)
    g = float(u[np.argmax(fprime(u, MODEL))])
    lam = 0.5 / fprime(g, MODEL) * 1.001
    grid = GridSpec(L=1.0, n_cells=8, lam=lam)
    ctx = RunContext(grid, PARAMS, MODEL, (g, 0.0))
    cells = np.zeros(8)
    _step(cells, ctx, "trapezoid", lam)
    with pytest.raises(NumericalError, match="CFL"):
        _step(np.zeros(9), ctx, "trapezoid", lam)
    batch = Batch([RunContext(grid, PARAMS, MODEL, (0.3, 0.0)), ctx])
    step(batch.pack([cells, cells], HALF_GRID), HALF_GRID, batch, "trapezoid", lam)
    nodes = batch.pack([np.r_[0.3, np.zeros(8)], np.r_[g, np.zeros(8)]], INTEGER_GRID)
    with pytest.raises(NumericalError, match="CFL"):
        step(nodes, INTEGER_GRID, batch, "trapezoid", lam)


@pytest.mark.parametrize("g", [math.nan])
def test_run_context_rejects_a_non_finite_inflow_scalar_or_per_run(g):
    with pytest.raises(NumericalError, match="boundary value"):
        RunContext(GRID, PARAMS, MODEL, (g, 0.0))


def test_run_context_rejects_an_inflow_per_run():
    # nothing marches a per-run array: bc holds one float per end
    for bc in ((np.array([0.3, 0.9]), 0.0), (0.3, 0.0, 0.9)):
        with pytest.raises(ValueError, match="one boundary value per end"):
            RunContext(GRID, PARAMS, MODEL, bc)
    bc = RunContext(GRID, PARAMS, MODEL, (np.float64(0.3), 0)).bc
    assert bc == (0.3, 0.0) and all(type(v) is float for v in bc)


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
            run([np.full(5, 0.3)], [ctx], scheme, t_final=0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("variant", ["trapezoid", "midpoint"])
def test_non_finite_start_is_rejected_before_the_first_step(variant, bad, monkeypatch):
    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(staggered, "step", no_step)
    u, ctx = _state_b()
    u[2] = bad
    with pytest.raises(NumericalError, match="NaN/Inf"):
        run([u], [ctx], variant, t_final=0.1)


@pytest.mark.parametrize("variant", ["trapezoid", "midpoint"])
def test_an_overflowing_start_is_a_numerical_error_not_a_warning(variant):
    # the march's overflow and invalid values reach its own NaN/Inf checks
    grid = GridSpec(L=1.0, n_cells=8, dx=0.125, lam=0.1)
    u = np.zeros(grid.n_cells + 1)
    u[4] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="NaN/Inf"):
            run([u], [RunContext(grid, PARAMS, MODEL, (0.0, 0.0))], variant,
                t_final=0.1)


def test_a_run_builds_at_most_two_fields_per_step(monkeypatch):
    built = []
    check = Field.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    dt = GRID.lam * GRID.dx
    for variant in ("trapezoid", "midpoint"):
        u, ctx = _state_b()
        built.clear()
        monkeypatch.setattr(Field, "__post_init__", counting)
        fields, = run([u], [ctx], variant, t_final=20.0 * dt,
                      snapshot_times=[7.3 * dt])
        monkeypatch.undo()
        # u0 (its NaN/Inf check), then one per returned field: none inside
        # a step
        assert len(fields) == 2
        assert len(built) <= 2 + len(fields)


def test_step_raises_on_cfl_violation():
    grid = GridSpec(L=1.0, n_cells=8, dx=0.125, lam=0.5)
    u, ctx = _start(np.full(9, 0.6), (0.6, 0.6), grid)
    with pytest.raises(NumericalError, match="CFL"):
        _step(u, ctx, "trapezoid", grid.lam)


def test_step_raises_on_a_non_finite_half_time_u():
    # w = u - c D2 u overflows next to a node at 1e308, and the predictor's
    # solve carries it into the half-time u
    grid = GridSpec(L=1.0, n_cells=8, dx=0.125, lam=0.1)
    u, ctx = _start(np.where(np.arange(9) == 4, 1e308, 0.4), (0.4, 0.4), grid)
    with np.errstate(all="ignore"), \
            pytest.raises(NumericalError, match="half-time u contains NaN/Inf"):
        _step(u, ctx, "trapezoid", grid.lam)


def test_midpoint_step_raises_on_a_non_finite_new_u():
    # tau = 0 and eps = 10: the half-time u stays finite (about 7e306), and
    # the corrector's explicit diffusion takes the new u past the float range
    grid = GridSpec(L=1.0, n_cells=8, dx=0.125, lam=0.1)
    u, ctx = _start(np.where(np.arange(9) == 1, 1e306, 0.4), (0.4, 0.4), grid,
                    MBLParams(epsilon=10.0, tau=0.0))
    with np.errstate(all="ignore"), \
            pytest.raises(NumericalError, match="new u contains NaN/Inf"):
        _step(u, ctx, "midpoint", grid.lam)


def test_constant_state_is_preserved_exactly():
    grid = GridSpec(L=1.0, n_cells=8, dx=0.125, lam=0.1)
    for variant in ("trapezoid", "midpoint"):
        u, ctx = _start(np.full(9, 0.4), (0.4, 0.4), grid)
        for _ in range(2):
            u = _step(u, ctx, variant, grid.lam)
        assert u.size == 9
        assert np.allclose(u, 0.4, rtol=0, atol=1e-14)


@settings(deadline=None, max_examples=100)
@given(scheme=st.sampled_from(["trapezoid", "midpoint", "third_order"]),
       value=_UNIT, epsilon=st.floats(0.0, 0.05),
       tau=st.one_of(st.just(0.0), st.floats(0.0, 10.0)), cells=st.integers(8, 40))
def test_every_scheme_preserves_a_constant_state(scheme, value, epsilon, tau, cells):
    # a constant state with its own value at both ends is a steady state of
    # the equation: four staggered steps (two pairs) or two RK4 steps keep
    # it to rounding
    grid = GridSpec(L=1.0, n_cells=cells, lam=0.1)
    ctx = RunContext(grid, MBLParams(epsilon=epsilon, tau=tau), MODEL, (value, value))
    dt = grid.lam * grid.dx
    if scheme == "third_order":
        ws = cweno.Workspace(ctx)
        states = [np.full(cells, value)]
        for _ in range(2):
            states.append(cweno.rk4_step(states[-1], dt, ws))
    else:
        batch = Batch([ctx])
        u, phase = batch.pack([np.full(cells + 1, value)], INTEGER_GRID), INTEGER_GRID
        states = []
        for _ in range(4):
            u, phase = step(u, phase, batch, scheme, grid.lam), _other(phase)
            states.append(batch.points(u, phase)[0])
    for state in states:
        assert np.abs(state - value).max() <= 1e-14


@pytest.mark.parametrize("epsilon, tau", [(0.0, 1.0), (0.01, 0.0), (0.01, 1.0),
                                          (0.01, 5.0)])
@pytest.mark.parametrize("variant", ["trapezoid", "midpoint"])
def test_mass_change_per_step_pair_matches_boundary_fluxes(variant, epsilon, tau):
    # a staggered pair changes the mass by exactly lam*dx*(f(g) - f(h)) per
    # step while the end cells stay constant, so that no diffusive flux
    # crosses the ends: the closure terms of both phases' solves carry the
    # boundary values and nothing else
    grid = GridSpec(L=1.0, n_cells=40, dx=0.025, lam=0.1)
    params = MBLParams(epsilon=epsilon, tau=tau)
    g, h = 0.8, 0.0
    u, ctx = _start(np.where(grid.nodes() <= 0.5, g, h), (g, h), grid, params)
    mass0 = grid.dx * _w(u, ctx).sum()
    for _ in range(4):
        u = _step(u, ctx, variant, grid.lam)
    mass2 = grid.dx * _w(u, ctx).sum()
    expected = 4.0 * grid.lam * grid.dx * (flux(g, MODEL) - flux(h, MODEL))
    assert mass2 - mass0 == pytest.approx(expected, abs=1e-10)


def _run_a(**kwargs):
    u, ctx = _state_a()
    return run([u], [ctx], "trapezoid", **kwargs)[0]


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
    with pytest.raises(ValueError):
        _run_a(t_final=0.1, snapshot_times=[0.0])  # the start is no landing


def _march(t_final, dt_nom, value=0.5):
    """The steps land_snapshots takes to t_final from t = 0 in nominal steps
    of dt_nom, on a state that is its clock alone, landing a one-point
    field of value."""
    steps = []

    def advance(state, dt):
        steps.append(dt)
        return (state[0] + dt,)

    land_snapshots(advance, lambda state, time: [Field(np.array([value]), INTEGER_GRID, time)],
                   (0.0,), t_final, (), dt_nom)
    return steps


@pytest.mark.parametrize("left, nominal", [(0.7e-12, True), (1.5e-12, False)])
def test_a_time_left_within_1e_12_of_a_step_takes_a_nominal_step(left, nominal):
    assert _march(0.1 - left, 0.1) == ([0.1] if nominal else [0.1 - left])


@pytest.mark.parametrize("left, stepped", [(0.7e-12, False), (1.5e-12, True)])
def test_a_time_left_within_1e_12_is_landed_on_without_a_step(left, stepped):
    steps = _march(0.1 + left, 0.1)
    assert len(steps) == (2 if stepped else 1) and steps[0] == 0.1


def test_the_landing_tolerance_bounds_the_nominal_step():
    assert _march(3e-12, 1.5e-12) == [1.5e-12, 1.5e-12]
    for dt_nom in (1e-12, math.nan):  # a short march, should the guard let one by
        with pytest.raises(ValueError, match="landing tolerance"):
            _march(3e-12, dt_nom)


def test_snapshot_times_may_pass_t_final_by_1e_12():
    assert 1.0 + 1e-12 in landing_targets(0.0, 1.0, [1.0 + 1e-12])
    with pytest.raises(ValueError, match="snapshot times"):
        landing_targets(0.0, 1.0, [1.0 + 1.5e-12])
    # one within 1e-12 of t_final is its landing, one further off is its own
    assert landing_targets(0.0, 1.0, [1.0 - 0.7e-12]) == [1.0 - 0.7e-12]
    assert landing_targets(0.0, 1.0, [1.0 - 1.5e-12]) == [1.0 - 1.5e-12, 1.0]


def test_a_landed_field_may_reach_minus_one_and_two_and_no_further():
    for value in (-1.0, 2.0):
        _march(0.1, 0.1, value)
    for value in (np.nextafter(-1.0, -2.0), np.nextafter(2.0, 3.0)):
        with pytest.raises(NumericalError, match=r"leaves \[-1, 2\]"):
            _march(0.1, 0.1, value)


def test_a_non_finite_landing_time_is_a_value_error():
    # an infinite t_final is tested on the targets alone: a march to it
    # would never end
    for t_final, times in ((math.inf, ()), (0.1, [math.inf]), (math.nan, ()),
                           (0.1, [math.nan])):
        with pytest.raises(ValueError, match="finite"):
            landing_targets(0.0, t_final, times)
    for t_final, times in ((math.nan, ()), (0.1, [math.nan]), (0.1, [0.05, math.nan])):
        with pytest.raises(ValueError, match="finite"):
            _run_a(t_final=t_final, snapshot_times=times)
