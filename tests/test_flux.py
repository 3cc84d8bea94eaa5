"""Fractional-flow flux: cached constants, entropy helpers, Riemann profile."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mblab.flux import (
    FluxModel,
    classical_bl_profile,
    flux,
    flux_deriv,
    shock_speed,
)

M2 = FluxModel(2.0)


def test_cached_constants_m2():
    assert M2.alpha == pytest.approx(0.81649658092772603, rel=1e-14)
    assert M2.D == pytest.approx(1.1123724356957945, rel=1e-14)
    assert M2.C == 2.25
    assert flux(M2.alpha, M2) == pytest.approx(0.90824829046386302, rel=1e-14)


def test_flux_values_m2():
    assert flux(0.5, M2) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert flux(0.75, M2) == pytest.approx(0.81818181818181823, rel=1e-14)
    assert flux(0.98, M2) == pytest.approx(0.9991677070328755, rel=1e-14)
    assert flux(0.0, M2) == 0.0
    assert flux(1.0, M2) == 1.0


def test_flux_clamps_outside_unit_interval():
    assert flux(-0.3, M2) == 0.0
    assert flux(1.7, M2) == 1.0
    assert flux_deriv(-0.3, M2) == 0.0
    assert flux_deriv(1.7, M2) == 0.0


def test_flux_deriv_values_m2():
    assert flux_deriv(0.9, M2) == pytest.approx(0.5225722165771518, rel=1e-14)
    assert flux_deriv(0.6, M2) == pytest.approx(2.0761245674740478, rel=1e-14)
    # tangency: f'(alpha) equals the chord slope f(alpha)/alpha
    assert flux_deriv(M2.alpha, M2) == pytest.approx(M2.D, rel=1e-12)


def test_flux_array_shapes():
    u = np.linspace(-0.5, 1.5, 21)
    f = flux(u, M2)
    df = flux_deriv(u, M2)
    assert f.shape == u.shape and df.shape == u.shape
    assert isinstance(flux(0.4, M2), float)


@pytest.mark.parametrize("m", [0.3, 1.0, 2.0, 4.0, 7.5])
def test_scalar_and_array_evaluations_agree_bit_for_bit(m):
    model = FluxModel(m)
    u = np.random.default_rng(0).uniform(-0.2, 1.2, 20000)
    assert np.array_equal([flux(float(v), model) for v in u], flux(u, model))
    assert np.array_equal([flux_deriv(float(v), model) for v in u],
                          flux_deriv(u, model))


def _deriv_reference(u, model):
    """f' in the masked form it had before the clamp alone made it zero
    outside (0, 1)."""
    uc = np.minimum(np.maximum(u, 0.0), 1.0)
    d = 1.0 - uc
    den = uc * uc + model.M * (d * d)
    return np.where((u > 0.0) & (u < 1.0),
                    2.0 * model.M * uc * (1.0 - uc) / (den * den), 0.0)


@pytest.mark.parametrize("m", [0.3, 1.0, 2.0, 7.5])
@given(u=st.lists(st.floats(min_value=-0.5, max_value=1.5)
                  | st.sampled_from([-math.inf, math.inf]), min_size=1, max_size=64))
def test_flux_deriv_matches_the_masked_form_byte_for_byte(m, u):
    model = FluxModel(m)
    u = np.array(u)
    assert flux_deriv(u, model).tobytes() == _deriv_reference(u, model).tobytes()


def test_flux_deriv_of_nan_is_nan_as_the_flux_is():
    assert math.isnan(flux_deriv(math.nan, M2)) and math.isnan(flux(math.nan, M2))
    assert np.array_equal(flux_deriv(np.array([0.5, math.nan]), M2),
                          [flux_deriv(0.5, M2), math.nan], equal_nan=True)


def test_flux_deriv_matches_finite_difference():
    h = 1e-7
    for u in (0.1, 0.3, 0.5, M2.alpha, 0.9):
        fd = (flux(u + h, M2) - flux(u - h, M2)) / (2 * h)
        assert flux_deriv(u, M2) == pytest.approx(fd, abs=5e-7)


def test_shock_speed_m2():
    assert shock_speed(0.98, 0.0, M2) == pytest.approx(1.019558884727424, rel=1e-14)
    # chord through the origin at alpha equals the tangent slope
    assert shock_speed(M2.alpha, 0.0, M2) == pytest.approx(M2.D, rel=1e-14)


def test_shock_speed_degenerate_jump():
    with pytest.raises(ValueError):
        shock_speed(0.4, 0.4, M2)


def test_chord_slope_from_the_origin_peaks_at_alpha():
    # jumps (u_B, 0) satisfy Oleinik's chord condition exactly up to alpha:
    # f(u)/u rises on (0, alpha] and falls on [alpha, 1], peaking at D
    rising = np.linspace(0.0, M2.alpha, 1001)[1:]
    falling = np.linspace(M2.alpha, 1.0, 1001)
    assert np.all(np.diff(flux(rising, M2) / rising) > 0.0)
    assert np.all(np.diff(flux(falling, M2) / falling) < 0.0)
    assert flux(M2.alpha, M2) / M2.alpha == M2.D


def test_bad_viscosity_ratio():
    with pytest.raises(ValueError):
        FluxModel(0.0)
    with pytest.raises(ValueError):
        FluxModel(-1.0)


@given(st.floats(min_value=-2.0, max_value=3.0, allow_nan=False))
def test_flux_is_total_and_bounded(u):
    f = flux(u, M2)
    assert 0.0 <= f <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0))
def test_chord_bound(u):
    assert flux(u, M2) <= M2.D * u + 1e-12


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_flux_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert flux(lo, M2) <= flux(hi, M2) + 1e-15


@given(st.floats(min_value=0.1, max_value=20.0))
def test_derived_constants_consistent_for_any_m(m):
    model = FluxModel(m)
    assert model.alpha == pytest.approx(math.sqrt(m / (m + 1.0)), rel=1e-14)
    assert model.D == pytest.approx(flux(model.alpha, model) / model.alpha,
                                    rel=1e-14)
    assert model.C == pytest.approx((m + 1.0) ** 2 / (2.0 * m), rel=1e-14)
    # C really bounds |f'| on [0, 1]
    u = np.linspace(0.0, 1.0, 201)
    assert float(np.max(flux_deriv(u, model))) <= model.C * (1 + 1e-12)


def test_riemann_profile_below_alpha_is_single_shock():
    s = flux(0.5, M2) / 0.5
    xi = np.array([-1.0, 0.0, s - 1e-9, s + 1e-9, 2.0])
    out = classical_bl_profile(0.5, M2, xi)
    assert np.array_equal(out, [0.5, 0.5, 0.5, 0.0, 0.0])


def test_riemann_profile_of_the_zero_state_is_zero():
    out = classical_bl_profile(0.0, M2, [-1.0, 0.0, 0.5, 2.0])
    assert np.array_equal(out, np.zeros(4))


def test_riemann_profile_above_alpha_has_fan():
    u_B = 0.98
    head = flux_deriv(u_B, M2)
    tail = M2.D
    out = classical_bl_profile(u_B, M2, [-1.0, head / 2.0])
    assert np.array_equal(out, [u_B, u_B])
    assert classical_bl_profile(u_B, M2, [tail + 1e-9])[0] == 0.0
    # inside the fan u solves f'(u) = xi
    xi = 0.5 * (head + tail)
    u_fan = classical_bl_profile(u_B, M2, [xi])[0]
    assert M2.alpha < u_fan < u_B
    assert flux_deriv(u_fan, M2) == pytest.approx(xi, abs=1e-9)
    # fan tail joins the shock state alpha
    u_tail = classical_bl_profile(u_B, M2, [tail - 1e-7])[0]
    assert u_tail == pytest.approx(M2.alpha, abs=1e-5)
