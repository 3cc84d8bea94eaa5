"""Green's kernels, weighted-energy constants, and the lemma audit grid."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mblab import bounds, cli
from mblab.bounds import (
    AUDIT_ITEMS,
    BoundParams,
    _phi_pair,
    bound_constants,
    compare_domains,
    lemma_audit,
)
from mblab.errors import NumericalError
from mblab.experiments import desk_manifest
from mblab.flux import FluxModel

ALPHA = math.sqrt(2.0 / 3.0)

P_DESK = BoundParams(lam=0.5, C_u=ALPHA, L0=0.1, L=0.75,
                     g_sup=ALPHA, M=2.0, epsilon=0.01, tau=5.0)

S = 0.1 * math.sqrt(4.0)  # eps = 0.1, tau = 4


def _kernel_pair(x, xi, s: float, w) -> tuple:
    """e^{w/s} times the bracketed sums of G and K: 2 G / s and 2 K, at
    scalar or array xi and w.  Both are factored on e^{-|x-xi|/s}, with
    e^{-(x+xi)/s} = e^{-|x-xi|/s} e^{-2 min(x,xi)/s}, so that the sums that
    nearly cancel where min(x, xi) << s keep their relative precision."""
    e_diff = np.exp((w - np.abs(x - xi)) / s)
    g_sum = e_diff * np.expm1(-2.0 * np.minimum(x, xi) / s)
    return g_sum, g_sum + (1.0 + np.sign(x - xi)) * e_diff


def greens_halfline(x, xi, s):
    """G and K on the half line, from the package's kernel sums."""
    g_sum, k_sum = _kernel_pair(x, xi, s, 0.0)
    return {"G": 0.5 * s * g_sum, "K": 0.5 * k_sum}


def greens_finite(x, xi, L, s):
    """Reference G and K on [0, L], by images of the half-line kernel, with
    the factor e^{2L/s} cancelled so that every exponent is nonpositive."""
    denom = 1.0 - math.exp(-2.0 * L / s)
    e_sum = math.exp(-(x + xi) / s)
    e_diff = math.exp(-abs(x - xi) / s)
    e_sum_r = math.exp(-(2.0 * L - x - xi) / s)
    e_diff_r = math.exp(-(2.0 * L - abs(x - xi)) / s)
    sgn = np.sign(x - xi)
    g = 0.5 * s * (e_sum_r + e_sum - e_diff_r - e_diff) / denom
    k = -(e_sum_r - e_sum + sgn * e_diff_r - sgn * e_diff) / (2.0 * denom)
    return {"G": g, "K": k}


def test_halfline_kernel_symmetry():
    for x, xi in [(0.3, 0.15), (0.05, 1.2), (0.7, 0.7)]:
        a = greens_halfline(x, xi, S)
        b = greens_halfline(xi, x, S)
        assert a["G"] == pytest.approx(b["G"], rel=1e-13)


def test_finite_kernel_symmetry():
    for x, xi in [(0.3, 0.15), (0.05, 0.9), (0.5, 0.5)]:
        a = greens_finite(x, xi, 1.0, S)
        b = greens_finite(xi, x, 1.0, S)
        assert a["G"] == pytest.approx(b["G"], rel=1e-13)


def test_k_is_minus_xi_derivative_of_g():
    h = 1e-6 * S
    for x, xi in [(0.3, 0.15), (0.1, 0.45), (0.8, 0.2)]:
        gp = greens_halfline(x, xi + h, S)["G"]
        gm = greens_halfline(x, xi - h, S)["G"]
        assert greens_halfline(x, xi, S)["K"] == pytest.approx(
            -(gp - gm) / (2.0 * h), abs=1e-9)
        gp = greens_finite(x, xi + h, 1.0, S)["G"]
        gm = greens_finite(x, xi - h, 1.0, S)["G"]
        assert greens_finite(x, xi, 1.0, S)["K"] == pytest.approx(
            -(gp - gm) / (2.0 * h), abs=1e-9)


def test_finite_kernel_approaches_halfline_kernel():
    L = 80.0 * S
    for x, xi in [(0.1, 0.3), (0.5, 0.2)]:
        a = greens_finite(x, xi, L, S)
        b = greens_halfline(x, xi, S)
        assert abs(a["G"] - b["G"]) < 1e-15
        assert abs(a["K"] - b["K"]) < 1e-15


def test_k_kernel_is_bounded_by_one():
    rng = np.random.default_rng(11)
    for x, xi in rng.uniform(0.0, 2.0, size=(50, 2)):
        assert abs(greens_halfline(x, xi, S)["K"]) <= 1.0 + 1e-14


def test_kernel_domain_and_scale_errors():
    # s = eps sqrt(tau) and its s > 0 check live in BoundParams.scale, which
    # every kernel evaluation goes through
    flat = BoundParams(lam=0.5, C_u=ALPHA, L0=0.1, L=0.75, g_sup=ALPHA,
                       M=2.0, epsilon=0.01, tau=0.0)
    with pytest.raises(ValueError, match="dispersionless"):
        flat.scale
    for item in AUDIT_ITEMS:
        with pytest.raises(ValueError, match="dispersionless"):
            lemma_audit(item, flat, 0.05)
        with pytest.raises(ValueError):
            lemma_audit(item, P_DESK, -0.1)
    with pytest.raises(ValueError, match="dispersionless"):
        bound_constants(flat, 0.1)


def test_phi_basis_endpoint_values():
    assert _phi_pair(0.0, 1.0, S)[0] == 0.0
    assert _phi_pair(1.0, 1.0, S)[0] == 1.0
    # phi1(0) = 1 and phi1(L) = 0 show in the L4i lhs |phi1 - e^{-x/s}|
    p = dataclasses.replace(P_DESK, L=1.0, epsilon=0.1, tau=4.0)  # s = S
    assert lemma_audit("L4i", p, 0.0)["lhs"] == 0.0
    assert lemma_audit("L4i", p, 1.0)["lhs"] == pytest.approx(math.exp(-1.0 / S),
                                                              rel=1e-15)


def test_phi_basis_identity():
    # phi1(x) - exp(-x/s) = -exp(-L/s) * phi2(x), with phi1 as defined
    s = 0.5 * math.sqrt(0.25)
    L = 1.0
    for x in np.linspace(0.0, L, 41):
        phi1 = ((math.exp(-x / s) - math.exp((x - 2.0 * L) / s))
                / (1.0 - math.exp(-2.0 * L / s)))
        lhs = phi1 - math.exp(-x / s)
        rhs = -math.exp(-L / s) * _phi_pair(x, L, s)[0]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("ratio", [1e-4, 1e-8, 1e-12])
def test_phi_basis_keeps_its_digits_at_small_L_over_s(ratio):
    # phi2 = sinh(x/s) / sinh(L/s) and phi2' = cosh(x/s) / (s sinh(L/s)) at
    # 50 digits; a difference of two exponentials formed by subtraction
    # loses about -log10(L/s) digits
    import mpmath

    s = 0.3
    L = ratio * s
    with mpmath.workdps(50):
        Lm, sm = mpmath.mpf(L), mpmath.mpf(s)
        for x in (0.1 * L, 0.5 * L, 0.9 * L):
            xm = mpmath.mpf(x)
            sh = mpmath.sinh(Lm / sm)
            exact = (mpmath.sinh(xm / sm) / sh, mpmath.cosh(xm / sm) / (sm * sh))
            for got, ref in zip(_phi_pair(x, L, s), exact):
                assert got == pytest.approx(float(ref), rel=1e-15)


def test_bound_params_validation():
    kw = dict(C_u=ALPHA, L0=0.1, L=0.75, g_sup=ALPHA,
              M=2.0, epsilon=0.01, tau=5.0)
    with pytest.raises(ValueError):
        BoundParams(lam=0.0, **kw)
    with pytest.raises(ValueError):
        BoundParams(lam=1.0, **kw)
    with pytest.raises(ValueError):
        BoundParams(lam=0.5, C_u=ALPHA, L0=0.8, L=0.75, g_sup=ALPHA,
                    M=2.0, epsilon=0.01, tau=5.0)
    with pytest.raises(ValueError):
        BoundParams(lam=0.5, C_u=0.0, L0=0.1, L=0.75, g_sup=ALPHA,
                    M=2.0, epsilon=0.01, tau=5.0)
    for field, value in [("C_u", math.nan), ("g_sup", math.nan),
                         ("epsilon", math.nan), ("tau", math.inf)]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BoundParams(lam=0.5, **{**kw, field: value})
    with pytest.raises(ValueError, match="need L > L0"):
        BoundParams(lam=0.5, **{**kw, "L0": kw["L"]})
    BoundParams(lam=0.5, **{**kw, "g_sup": 0.0})  # no inflow at all is a bound


def test_bound_params_rejects_a_negative_inflow_bound():
    with pytest.raises(ValueError, match="g_sup must be nonnegative"):
        BoundParams(lam=0.5, C_u=ALPHA, L0=0.1, L=0.75, g_sup=-0.1,
                    M=2.0, epsilon=0.01, tau=5.0)


def test_bound_constants_at_time_zero():
    rep = bound_constants(P_DESK, 0.0)
    assert rep.E2 == 0.0
    assert rep.gamma1 == 0.0
    assert rep.gamma2 == 0.0
    assert rep.E1 == pytest.approx(P_DESK.g_sup + rep.a_tau, rel=1e-14)
    assert rep.bound > 0.0


@pytest.mark.parametrize("t", [1e-12, 1e-10, 1e-6, 0.05])
def test_gamma_constants_match_mpmath(t):
    # gamma1 = pref (g r + (a/b) (e^{b r} - 1)) and gamma2 = pref c (r/(b-1)
    # e^{(b-1) r} - (e^{(b-1) r} - 1)/(b-1)^2) at 60 digits, on the report's
    # own a, b and c; as r = t/(eps tau) -> 0 their differences cancel
    import mpmath

    rep = bound_constants(P_DESK, t)
    model = FluxModel(P_DESK.M)
    with mpmath.workdps(60):
        mp = mpmath.mpf
        a, b, c = mp(rep.a_tau), mp(rep.b_tau), mp(rep.c_tau)
        r = mp(t) / (mp(P_DESK.epsilon) * mp(P_DESK.tau))
        sqt = mpmath.sqrt(mp(P_DESK.tau))
        pref = (mpmath.exp(mp(model.C) * t / (mp(P_DESK.epsilon) * sqt))
                * (mp(model.C) * sqt + 1) * mpmath.sqrt(mp(P_DESK.L)))
        gamma1 = pref * (mp(P_DESK.g_sup) * r + a / b * (mpmath.exp(b * r) - 1))
        gamma2 = pref * c * (r / (b - 1) * mpmath.exp((b - 1) * r)
                             - (mpmath.exp((b - 1) * r) - 1) / (b - 1) ** 2)
    assert rep.gamma1 == pytest.approx(float(gamma1), rel=1e-12, abs=0.0)
    assert rep.gamma2 == pytest.approx(float(gamma2), rel=1e-12, abs=0.0)


def test_bound_grows_in_time():
    b1 = bound_constants(P_DESK, 0.05).bound
    b2 = bound_constants(P_DESK, 0.1).bound
    assert 0.0 < b1 < b2


def test_bound_constants_errors():
    with pytest.raises(ValueError):
        bound_constants(P_DESK, -0.1)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            bound_constants(P_DESK, t)
    p0 = BoundParams(lam=0.5, C_u=ALPHA, L0=0.1, L=0.75, g_sup=ALPHA,
                     M=2.0, epsilon=0.0, tau=5.0)
    with pytest.raises(ValueError):
        bound_constants(p0, 0.1)
    degen = BoundParams(lam=1e-8, C_u=ALPHA, L0=0.1, L=0.75, g_sup=ALPHA,
                        M=2.0, epsilon=1.0, tau=1e-30)
    with pytest.raises(ValueError, match="degenerate"):
        bound_constants(degen, 0.1)
    with pytest.raises(NumericalError, match="overflow"):
        bound_constants(P_DESK, 100.0)
    # s = eps sqrt(tau) = 1e-300 is positive, eps * tau underflows to 0
    tiny = dataclasses.replace(P_DESK, epsilon=1e-200, tau=1e-200)
    with pytest.raises(NumericalError, match=r"epsilon\*tau underflows to 0"):
        bound_constants(tiny, 0.1)
    # the desk manifest (eps = 0.005, L0 = 0): every exponential is finite at
    # t = 3, their products are not
    desk = BoundParams(lam=0.5, C_u=ALPHA, L0=0.0, L=0.75, g_sup=ALPHA,
                       M=2.0, epsilon=0.005, tau=5.0)
    with pytest.raises(NumericalError, match="gamma1.*not finite"):
        bound_constants(desk, 3.0)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(epsilon=_FINITE, tau=_FINITE, t=_FINITE, M=_FINITE, L0=_FINITE, L=_FINITE,
       lam=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(epsilon=1e-200, tau=1e-200, t=0.1, M=2.0, L0=0.1, L=0.75, lam=0.5)
def test_bound_constants_are_finite_or_a_documented_error(epsilon, tau, t, M, L0, L, lam):
    # every outcome is ten finite constants or an error cli.main maps to exit
    # code 2 (ValueError) or 3 (NumericalError, OverflowError)
    try:
        report = bound_constants(BoundParams(lam=lam, C_u=ALPHA, L0=L0, L=L, g_sup=ALPHA,
                                             M=M, epsilon=epsilon, tau=tau), t)
    except (ValueError, NumericalError, OverflowError):
        return
    values = dataclasses.astuple(report)
    assert len(values) == 10 and all(math.isfinite(v) for v in values)


def test_lemma_audit_errors():
    with pytest.raises(ValueError):
        lemma_audit("L9x", P_DESK, 0.1)
    with pytest.raises(ValueError):
        lemma_audit("L2i", P_DESK, -0.1)
    for item in ("L2i", "L3ii"):
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                lemma_audit(item, P_DESK, x)
    with pytest.raises(ValueError):
        lemma_audit("L4ii", P_DESK, P_DESK.L + 0.1)


def test_l4i_audit_refuses_a_point_past_its_precision_cap():
    # the points where an exact L4i comparison needs 10 000 digits or more
    # (60 + (L + x)/s): the closed form holds at each
    p = BoundParams(lam=0.5, C_u=ALPHA, L0=0.1, L=0.75, g_sup=ALPHA,
                    M=2.0, epsilon=0.75 / 9900, tau=1.0)
    assert lemma_audit("L4i", p, 0.0)["holds"]
    at_cap = dataclasses.replace(p, epsilon=2.0 ** -14, L=9940 * 2.0 ** -14)
    assert lemma_audit("L4i", at_cap, 0.0)["holds"]  # L/s = 9940: 10 000 digits
    assert lemma_audit("L4i", p, 0.75)["holds"]  # 19 860 digits
    assert lemma_audit("L4i", dataclasses.replace(p, epsilon=1e-320), 0.0)["holds"]


@pytest.mark.parametrize("item", ["L2i", "L3i", "L2ii", "L3ii"])
def test_lemma_audit_refuses_an_s_within_a_few_ulps_of_x(item):
    # s = 1e-17 spans 1.44 ulps of x = 0.05, and every item holds there
    p = dataclasses.replace(P_DESK, C_u=0.9, g_sup=0.9, epsilon=1e-17, tau=1.0)
    out = lemma_audit(item, p, 0.05)
    assert out["holds"]
    if item.endswith("ii"):
        # the lhs is of size s e^{-(1 - lam) x / s}, which underflows
        assert out["lhs"] == 0.0
    else:
        # saturated at the bound 2s/(1 - lam^2)
        assert out["lhs"] == pytest.approx(out["rhs"], rel=1e-13)


@pytest.mark.parametrize("ulps", [1e8, 1.1e8],
                         ids=["100000000.0-False", "110000000.0-True"])
def test_the_audit_resolves_s_past_1e8_ulps_of_x(ulps):
    # the saturated L2i integral comes out at its bound 2s/(1 - lam^2)
    x = 0.3
    p = dataclasses.replace(P_DESK, epsilon=ulps * math.ulp(x), tau=1.0)
    out = lemma_audit("L2i", p, x)
    assert out["holds"]
    assert out["lhs"] == pytest.approx(out["rhs"], rel=1e-13)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@example(item="L2i", lam=0.5, epsilon=1e-17, tau=1.0, x=0.05, L0=0.1, L=1.0)
@example(item="L2i", lam=0.5, epsilon=1e8 * math.ulp(0.3), tau=1.0, x=0.3, L0=0.1,
         L=1.0)
# both L4i sides are subnormal here, where their unscaled products put lhs
# above rhs
@example(item="L4i", lam=0.5, epsilon=0.0020491803278688526, tau=1.0,
         x=0.0030737704918032786, L0=0.1, L=0.75)
# (L + x)/s = 1.05e6, where an exact comparison would need a million digits
@example(item="L4i", lam=0.5, epsilon=1e-6, tau=1.0, x=0.05, L0=0.1, L=1.0)
@given(item=st.sampled_from(AUDIT_ITEMS), lam=st.floats(0.01, 0.99),
       epsilon=st.floats(-17.0, -1.0).map(lambda e: 10.0 ** e),
       tau=st.floats(0.01, 10.0), x=st.floats(0.0, 1.0),
       L0=st.floats(0.0, 1.0, exclude_max=True), L=st.just(1.0))
def test_every_kernel_audit_holds_or_its_bound_overflows(item, lam, epsilon, tau, x,
                                                         L0, L):
    p = BoundParams(lam=lam, C_u=ALPHA, L0=L0, L=L, g_sup=ALPHA, M=2.0,
                    epsilon=epsilon, tau=tau)
    try:
        out = lemma_audit(item, p, x)
    except NumericalError as exc:
        assert item.endswith("iii") and "audit bound overflows" in str(exc)
        return
    assert math.isfinite(out["lhs"]) and out["lhs"] >= 0.0 and out["holds"]
    if item in ("L2i", "L3i") and (1.0 - lam) * x > 40.0 * p.scale:
        # both integrals saturate at their bound 2s/(1 - lam^2) far from 0
        assert out["lhs"] == pytest.approx(out["rhs"], rel=1e-13)


def test_lemma_audit_spot_checks():
    for item in ("L2i", "L2ii", "L3ii", "L4i", "L4ii"):
        out = lemma_audit(item, P_DESK, 0.05)
        assert out["holds"], (item, out)
        assert out["lhs"] <= out["rhs"] * (1.0 + 1e-8)


# lemma_audit's lhs and rhs at P_DESK, one x per item, recorded from the
# kernels as written before they were merged into one family, when the
# audit integrated with scipy.integrate.quad (QUADPACK's qagp)
FROZEN_AUDIT = [
    ("L2i", 0.05, 0.04013462389760498, 0.05962847939999439),
    ("L2ii", 0.3, 0.00036625646832793527, 0.016452068759679597),
    ("L2iii", 0.02, 0.03309503495666508, 0.34164994259937514),
    ("L3i", 0.05, 0.049540986838653524, 0.05962847939999439),
    ("L3ii", 0.3, 0.0003935556136738834, 0.03881274853467749),
    ("L3iii", 0.08, 0.17366135685591622, 0.34164994259937514),
    ("L4i", 0.05, 6.803979870140214e-29, 6.803979870140214e-29),
    ("L4ii", 0.5, 1.3945692377873923e-05, 1.0),
    ("L4iii", 0.7, 4.779726141415824, 89.44271909999159),
]

# the lhs values above that the audit's closed form gives an ulp or two
# away; the other rows it gives exactly
REPINNED_LHS = {
    "L2i": 0.04013462389760497,
    "L2ii": 0.00036625646832793516,
    "L3ii": 0.00039355561367388327,
}
# and the rhs value that e^{-L/s} |phi2| in double precision gives 3.5e-15
# away from its exact rounding
REPINNED_RHS = {"L4i": 6.803979870140238e-29}


# the benchmark's audit grid: L = 0.75, eps = 0.01, tau in {0.2, 5}; its
# L4i items meet ten distinct (tau, x) points
GRID_TAUS = (0.2, 5.0)
GRID_L4I = [(tau, x) for tau in GRID_TAUS
            for x in (0.0, 0.05, 0.1, 0.2,
                      10.0 * dataclasses.replace(P_DESK, tau=tau).scale)]
FROZEN_L4I_X = next(row[1] for row in FROZEN_AUDIT if row[0] == "L4i")


def _l4i_in_mpmath(x, L, s):
    """The L4i comparison from the definitions of phi1 and phi2 in mpmath,
    at 60 + (L + x)/s digits: enough for the e^{-2L/s} by which
    phi1 - e^{-x/s} falls below e^{-x/s}."""
    import mpmath

    with mpmath.workdps(60 + int((L + x) / s)):
        xm, Lm, sm = mpmath.mpf(x), mpmath.mpf(L), mpmath.mpf(s)
        denom = 1 - mpmath.exp(-2 * Lm / sm)
        phi1 = (mpmath.exp(-xm / sm) - mpmath.exp((xm - 2 * Lm) / sm)) / denom
        phi2 = (mpmath.exp((xm - Lm) / sm) - mpmath.exp(-(xm + Lm) / sm)) / denom
        lhs = abs(phi1 - mpmath.exp(-xm / sm))
        rhs = mpmath.exp(-Lm / sm) * abs(phi2)
        return float(lhs), float(rhs), bool(lhs <= rhs * (1 + mpmath.mpf(bounds._SLACK)))


# the grid's points and FROZEN_AUDIT's L4i point, today one of them
@pytest.mark.parametrize("tau, x",
                         list(dict.fromkeys(GRID_L4I + [(P_DESK.tau, FROZEN_L4I_X)])))
def test_l4i_audit_matches_mpmath(tau, x):
    p = dataclasses.replace(P_DESK, tau=tau)
    out = lemma_audit("L4i", p, x)
    lhs, rhs, holds = _l4i_in_mpmath(x, p.L, p.scale)
    assert out["lhs"] == pytest.approx(lhs, rel=1e-13, abs=0.0)
    assert out["rhs"] == pytest.approx(rhs, rel=1e-13, abs=0.0)
    assert out["holds"] == holds


@pytest.mark.parametrize("item, x, lhs, rhs", FROZEN_AUDIT)
def test_lemma_audit_matches_frozen_values(item, x, lhs, rhs):
    out = lemma_audit(item, P_DESK, x)
    assert (out["lhs"], out["rhs"], out["holds"]) == \
        (REPINNED_LHS.get(item, lhs), REPINNED_RHS.get(item, rhs), True)
    assert out["lhs"] == pytest.approx(lhs, rel=1e-14)
    assert out["rhs"] == pytest.approx(rhs, rel=1e-14)


def _quadpack_lhs(item, p, x):
    """The lhs of an audit item by scipy.integrate.quad (QUADPACK's qagp):
    for L2/L3 the paper's kernels under the item's weight, integrated over
    [0, x + 40 s] or the box [0, L0]; for L4 phi2 = int_0^x phi2' (the L4i
    lhs is e^{-L/s} |phi2|, exactly) and phi2' = phi2'(0) + int_0^x phi2/s^2."""
    from scipy.integrate import quad

    s, lam = p.scale, p.lam
    if item.startswith("L4"):
        if item == "L4iii":
            return abs(_phi_pair(0.0, p.L, s)[1] + quad(
                lambda xi: _phi_pair(xi, p.L, s)[0] / s ** 2, 0.0, x,
                epsabs=1e-300, epsrel=1e-11)[0])
        phi2 = quad(lambda xi: _phi_pair(xi, p.L, s)[1], 0.0, x,
                    epsabs=1e-300, epsrel=1e-11)[0]
        return abs(phi2) * (math.exp(-p.L / s) if item == "L4i" else 1.0)
    weight, hi, height = {
        "i": (lambda xi: lam * (x - xi), x + 40.0 * s, 1.0),
        "ii": (lambda xi: lam * x - xi, x + 40.0 * s, 1.0),
        "iii": (lambda xi: lam * x, p.L0, p.C_u)}[item[2:]]
    which = 0 if item.startswith("L2") else 1
    points = [x] if 0.0 < x < hi else None
    return quad(lambda xi: height * abs(float(_kernel_pair(x, xi, s, weight(xi))[which])),
                0.0, hi, points=points, limit=500, epsabs=1e-300, epsrel=1e-11)[0]


def _assert_audit_agrees_with_quadpack(item, p, x):
    out = lemma_audit(item, p, x)
    ref = _quadpack_lhs(item, p, x)
    # abs: the reference takes 1e-300 as its absolute tolerance
    assert out["lhs"] == pytest.approx(ref, rel=1e-13, abs=1e-300)
    assert out["holds"] == (ref <= out["rhs"] * (1.0 + bounds._SLACK))


@pytest.mark.parametrize("item, x", [row[:2] for row in FROZEN_AUDIT])
def test_audit_quadrature_agrees_with_quadpack_at_frozen_points(item, x):
    _assert_audit_agrees_with_quadpack(item, P_DESK, x)


@settings(deadline=None, max_examples=60)
@given(item=st.sampled_from(AUDIT_ITEMS[:6]),
       x=st.floats(min_value=0.0, max_value=1.0),
       tau=st.floats(min_value=0.05, max_value=10.0))
def test_audit_quadrature_agrees_with_quadpack(item, x, tau):
    p = BoundParams(lam=0.5, C_u=ALPHA, L0=0.1, L=0.75, g_sup=ALPHA,
                    M=2.0, epsilon=0.01, tau=tau)
    _assert_audit_agrees_with_quadpack(item, p, x)


@pytest.mark.parametrize("ratio", [1e-4, 1e-8, 1e-12])
def test_the_audit_keeps_its_digits_at_small_x_and_L0_over_s(ratio):
    # the left G piece is a difference of two integrals of size x (or L0)
    # whose value is of size x^2/s
    s = P_DESK.scale
    for item in AUDIT_ITEMS[:6]:
        p = dataclasses.replace(P_DESK, L0=ratio * s) if item.endswith("iii") else P_DESK
        for x in (0.5 * ratio * s, 2.0 * ratio * s):
            _assert_audit_agrees_with_quadpack(item, p, x)


def test_box_audits_of_an_empty_box_are_zero(tmp_path, capsys):
    # the desk manifest has L0 = 0: the iii items integrate over [0, 0]
    m = desk_manifest()
    p = BoundParams(lam=0.5, C_u=m.u_B, L0=m.L0, L=m.L, g_sup=m.u_B,
                    M=m.M, epsilon=m.epsilon, tau=m.tau)
    for item in ("L2iii", "L3iii"):
        for x in (0.0, 0.05, 10.0 * p.scale):
            out = lemma_audit(item, p, x)
            assert (out["lhs"], out["holds"]) == (0.0, True)
    path = tmp_path / "desk.json"
    path.write_text(m.model_dump_json(by_alias=True))
    assert cli.main(["lemma-audit", "--manifest", str(path),
                     "--items", "L2iii,L3iii"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[-1] == "# all audits hold"
    assert all("lhs=0.000000e+00" in line for line in lines[:-1])


def test_lemma_audit_knows_all_items():
    assert len(AUDIT_ITEMS) == 9
    assert [row[0] for row in FROZEN_AUDIT] == list(AUDIT_ITEMS)
    for item in AUDIT_ITEMS:
        out = lemma_audit(item, P_DESK, 0.0)
        assert set(out) == {"lhs", "rhs", "holds"}


def test_compare_domains_validates_lengths():
    small = desk_manifest(tau=5.0, u_B=ALPHA, epsilon=0.01, dx=0.001,
                          L=0.3, t_final=0.05)
    profile = np.zeros(301)
    with pytest.raises(ValueError):
        compare_domains(small, profile, profile)
