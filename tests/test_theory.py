"""Green's kernels, weighted-energy constants, and the lemma audit grid."""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mblab import bounds, cli
from mblab.bounds import (
    AUDIT_ITEMS,
    BoundParams,
    _audit_quad,
    _gk21,
    _kernel_pair,
    _phi_pair,
    bound_constants,
    compare_domains,
    lemma_audit,
)
from mblab.errors import NumericalError
from mblab.experiments import desk_manifest

ALPHA = math.sqrt(2.0 / 3.0)

P_DESK = BoundParams(lam=0.5, C_u=ALPHA, L0=0.1, L=0.75,
                     g_sup=ALPHA, M=2.0, epsilon=0.01, tau=5.0)

S = 0.1 * math.sqrt(4.0)  # eps = 0.1, tau = 4


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
    left = _phi_pair(0.0, 1.0, S)
    right = _phi_pair(1.0, 1.0, S)
    assert left[:2] == (1.0, 0.0)
    assert right[:2] == (0.0, 1.0)


def test_phi_basis_identity():
    # phi1(x) - exp(-x/s) = -exp(-L/s) * phi2(x)
    s = 0.5 * math.sqrt(0.25)
    L = 1.0
    for x in np.linspace(0.0, L, 41):
        phi1, phi2, _ = _phi_pair(x, L, s)
        lhs = phi1 - math.exp(-x / s)
        rhs = -math.exp(-L / s) * phi2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("ratio", [1e-4, 1e-8, 1e-12])
def test_phi_basis_keeps_its_digits_at_small_L_over_s(ratio):
    # phi1 = sinh((L - x)/s) / sinh(L/s), phi2 = sinh(x/s) / sinh(L/s) and
    # phi2' = cosh(x/s) / (s sinh(L/s)) at 50 digits; a difference of two
    # exponentials formed by subtraction loses about -log10(L/s) digits
    import mpmath

    s = 0.3
    L = ratio * s
    with mpmath.workdps(50):
        Lm, sm = mpmath.mpf(L), mpmath.mpf(s)
        for x in (0.1 * L, 0.5 * L, 0.9 * L):
            xm = mpmath.mpf(x)
            sh = mpmath.sinh(Lm / sm)
            exact = (mpmath.sinh((Lm - xm) / sm) / sh, mpmath.sinh(xm / sm) / sh,
                     mpmath.cosh(xm / sm) / (sm * sh))
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
    # L4i works at 60 + (L + x)/s digits, at most 10 000 of them
    p = BoundParams(lam=0.5, C_u=ALPHA, L0=0.1, L=0.75, g_sup=ALPHA,
                    M=2.0, epsilon=0.75 / 9900, tau=1.0)
    assert lemma_audit("L4i", p, 0.0)["holds"]
    at_cap = dataclasses.replace(p, epsilon=2.0 ** -14, L=9940 * 2.0 ** -14)
    assert lemma_audit("L4i", at_cap, 0.0)["holds"]  # L/s = 9940: 10 000 digits
    with pytest.raises(NumericalError, match="L4i audit needs 19860 digits"):
        lemma_audit("L4i", p, 0.75)
    with pytest.raises(NumericalError, match="needs inf digits"):
        lemma_audit("L4i", dataclasses.replace(p, epsilon=1e-320), 0.0)


@pytest.mark.parametrize("item", ["L2i", "L3i", "L2ii", "L3ii"])
def test_lemma_audit_refuses_an_s_within_a_few_ulps_of_x(item):
    # s = 1e-17 spans 1.44 ulps of x = 0.05: the graded cuts x +- s 2^k
    # collapse, and L2i's quadrature once returned lhs 2.97e-17 > rhs 2.67e-17
    p = dataclasses.replace(P_DESK, C_u=0.9, g_sup=0.9, epsilon=1e-17, tau=1.0)
    with pytest.raises(NumericalError, match="spans only 1.44 ulps of x = 0.05"):
        lemma_audit(item, p, 0.05)


@pytest.mark.parametrize("ulps, resolved", [(1e8, False), (1.1e8, True)])
def test_the_audit_resolves_s_past_1e8_ulps_of_x(ulps, resolved):
    # at the cut, a node's rounding moves the kernels by the verdict's slack;
    # past it the saturated L2i integral 2s/(1 - lam^2) comes out within 1e-8
    x = 0.3
    p = dataclasses.replace(P_DESK, epsilon=ulps * math.ulp(x), tau=1.0)
    if not resolved:
        with pytest.raises(NumericalError, match="unresolvable"):
            lemma_audit("L2i", p, x)
        return
    out = lemma_audit("L2i", p, x)
    assert out["holds"]
    assert out["lhs"] == pytest.approx(out["rhs"], rel=1e-8)


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

# the lhs values above that the package's own Gauss-Kronrod quadrature
# gives a few ulp away; the other rows it gives exactly
REPINNED_LHS = {
    "L2i": 0.04013462389760497,
    "L2ii": 0.00036625646832793505,
    "L2iii": 0.03309503495666509,
    "L3i": 0.04954098683865352,
    "L3ii": 0.0003935556136738831,
}


# the benchmark's audit grid: L = 0.75, eps = 0.01, tau in {0.2, 5}; its
# L4i items meet ten distinct (tau, x) points
GRID_TAUS = (0.2, 5.0)
GRID_L4I = [(tau, x) for tau in GRID_TAUS
            for x in (0.0, 0.05, 0.1, 0.2,
                      10.0 * dataclasses.replace(P_DESK, tau=tau).scale)]
FROZEN_L4I_X = next(row[1] for row in FROZEN_AUDIT if row[0] == "L4i")


@pytest.mark.parametrize("digits", [60, 272, 2000])
def test_rational_exp_matches_mpmath(digits):
    import mpmath

    lib = bounds._rational_exp(digits)
    scales = [dataclasses.replace(P_DESK, tau=tau).scale for tau in GRID_TAUS]
    args = [0.0, -1e-30, -1.0, 1e-30, 1.0] + [-k * P_DESK.L / s for s in scales
                                               for k in (1, 2)]
    with mpmath.workdps(digits + 20):
        for arg in args:
            for got, ref in ((lib.exp(Fraction(arg)), mpmath.exp(arg)),
                             (lib.expm1(Fraction(arg)), mpmath.expm1(arg))):
                err = abs(mpmath.mpf(got.numerator) / got.denominator - ref)
                assert err <= mpmath.mpf(10) ** -digits * abs(ref), (arg, digits)


def _l4i_in_mpmath(x, L, s):
    """The L4i comparison through _phi_pair on mpf values, at the audit's
    60 + (L + x)/s digits."""
    import mpmath

    with mpmath.workdps(60 + int((L + x) / s)):
        xm, Lm, sm = mpmath.mpf(x), mpmath.mpf(L), mpmath.mpf(s)
        phi1, phi2, _ = _phi_pair(xm, Lm, sm, mpmath)
        lhs = abs(phi1 - mpmath.exp(-xm / sm))
        rhs = mpmath.exp(-Lm / sm) * abs(phi2)
        return float(lhs), float(rhs), bool(lhs <= rhs * (1 + mpmath.mpf(bounds._SLACK)))


# the grid's points and FROZEN_AUDIT's L4i point, today one of them
@pytest.mark.parametrize("tau, x",
                         list(dict.fromkeys(GRID_L4I + [(P_DESK.tau, FROZEN_L4I_X)])))
def test_l4i_audit_matches_mpmath_bit_for_bit(tau, x):
    p = dataclasses.replace(P_DESK, tau=tau)
    out = lemma_audit("L4i", p, x)
    got = (out["lhs"].hex(), out["rhs"].hex(), out["holds"])
    lhs, rhs, holds = _l4i_in_mpmath(x, p.L, p.scale)
    assert got == (lhs.hex(), rhs.hex(), holds)


@pytest.mark.parametrize("item, x, lhs, rhs", FROZEN_AUDIT)
def test_lemma_audit_matches_frozen_values(item, x, lhs, rhs):
    out = lemma_audit(item, P_DESK, x)
    assert (out["lhs"], out["rhs"], out["holds"]) == \
        (REPINNED_LHS.get(item, lhs), rhs, True)
    assert out["lhs"] == pytest.approx(lhs, rel=1e-14)


def _quadpack(integrand, lo, hi, x, s):
    """The audit integral as the audit took it from scipy.integrate.quad."""
    from scipy.integrate import quad
    points = [x] if lo < x < hi else None
    return quad(lambda xi: float(integrand(xi)), lo, hi, points=points,
                limit=500, epsabs=1e-300, epsrel=1e-11)[0]


def _assert_audit_agrees_with_quadpack(item, p, x):
    out = lemma_audit(item, p, x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_audit_quad", _quadpack)
        ref = lemma_audit(item, p, x)
    # abs: both quadratures take 1e-300 as their absolute tolerance
    assert out["lhs"] == pytest.approx(ref["lhs"], rel=1e-13, abs=1e-300)
    assert (out["rhs"], out["holds"]) == (ref["rhs"], ref["holds"])


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


def test_audit_quadrature_is_exact_on_degree_31_polynomials():
    poly = np.polynomial.Polynomial(np.random.default_rng(5).uniform(0, 1, 32))
    lo, hi = 0.1, 1.3
    exact = poly.integ()(hi) - poly.integ()(lo)
    one_panel, _ = _gk21(poly, np.array([lo]), np.array([hi]))
    assert one_panel[0] == pytest.approx(exact, rel=1e-14)
    assert _audit_quad(poly, lo, hi, 0.4, 0.2) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("lo, hi, x", [(0.0, 1.0, 0.0), (0.0, 0.3, 0.1),
                                       (0.05, 0.4, 0.6)])
def test_audit_quadrature_of_an_exponential(lo, hi, x):
    s = 0.02
    exact = s * (math.exp(-lo / s) - math.exp(-hi / s))
    got = _audit_quad(lambda xi: np.exp(-xi / s), lo, hi, x, s)
    assert got == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("integrand, message", [
    (lambda xi: np.where(xi > 0.5, np.nan, 1.0), "non-finite integrand"),
    (lambda xi: 1.0 / np.abs(xi - 0.3), "did not converge"),
    # a negative value: its error estimate exceeds 1e-9 of 1e-300
    (lambda xi: -np.ones_like(xi), "too loose"),
], ids=["nan", "not-integrable", "negative"])
def test_audit_quadrature_refuses(integrand, message):
    with pytest.raises(NumericalError, match=message):
        _audit_quad(integrand, 0.0, 1.0, 0.3, 0.05)


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
