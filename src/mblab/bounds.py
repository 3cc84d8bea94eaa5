"""Green's kernels, truncation-bound constants, and quadrature audits.

The half-line problem (I - s^2 D^2) acting on the dispersive part has the
kernel pair (s = eps sqrt(tau))

  G(x, xi) = (s/2) (e^{-(x+xi)/s} - e^{-|x-xi|/s})
  K(x, xi) = (1/2) (e^{-(x+xi)/s} + sgn(x-xi) e^{-|x-xi|/s})

with K = -dG/dxi, and the interval [0, L] has the boundary pair

  phi1(x) = (e^{-x/s} - e^{(x-2L)/s}) / (1 - e^{-2L/s})
  phi2(x) = (e^{(x-L)/s} - e^{-(x+L)/s}) / (1 - e^{-2L/s})

with phi1(0) = phi2(L) = 1 and phi1(L) = phi2(0) = 0.  Each is written
once: _kernel_pair gives the two bracketed sums of G and K, with any
weight e^{w/s} folded into the exponents before exponentiation so that
small s never overflows, and _phi_pair gives phi1, phi2 and phi2' in
double precision or, for the L4i audit, in exact rationals whose
exponentials _rational_exp forms to the audit's digits; only that audit
imports fractions, when it runs.  s and its s > 0 check live in
BoundParams.scale.  No finite-interval kernel is evaluated here.

bound_constants assembles the explicit constants of the truncation
estimate

  ||u_halfline - u_[0,L]||_{H^1} <= D1(t) e^{-lam L/s} + D2(t) e^{-lam (L-L0)/s}

and lemma_audit checks the nine supporting kernel/weight inequalities by
adaptive Gauss-Kronrod quadrature (_audit_quad), on arrays of panels.
compare_domains sets the measured difference of two given final profiles
beside the bound; the runs themselves belong to experiments.domain_study,
and this module imports nothing from experiments or cli.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import NumericalError
from .flux import FluxModel
from .operators import weighted_h1_norm

__all__ = [
    "BoundParams",
    "BoundReport",
    "bound_constants",
    "lemma_audit",
    "compare_domains",
    "AUDIT_ITEMS",
]

AUDIT_ITEMS = ("L2i", "L2ii", "L2iii", "L3i", "L3ii", "L3iii",
               "L4i", "L4ii", "L4iii")


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the truncation estimate.

    lam is the exponential weight rate in (0, 1); C_u and L0 describe the
    box initial state (height C_u on [0, L0]); g_sup bounds the inflow
    coefficient |c1|; M, epsilon, tau as in the flux/PDE models.
    """

    lam: float
    C_u: float
    L0: float
    L: float
    g_sup: float
    M: float
    epsilon: float
    tau: float

    def __post_init__(self):
        bad = [name for name, v in vars(self).items() if not math.isfinite(v)]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must lie in (0,1), got {self.lam}")
        if not self.L > self.L0 >= 0.0:
            raise ValueError("need L > L0 >= 0")
        if self.C_u <= 0.0:
            raise ValueError("C_u must be positive")
        if self.g_sup < 0.0:
            raise ValueError("g_sup must be nonnegative")

    @property
    def scale(self) -> float:
        """s = eps sqrt(tau); the kernels need s > 0."""
        s = self.epsilon * math.sqrt(self.tau)
        if s <= 0.0:
            raise ValueError("dispersionless kernel undefined (epsilon*sqrt(tau) = 0)")
        return s


@dataclass
class BoundReport:
    a_tau: float
    b_tau: float
    c_tau: float
    E1: float
    E2: float
    gamma1: float
    gamma2: float
    D1: float
    D2: float
    bound: float


def _kernel_pair(x, xi, s: float, w) -> tuple:
    """e^{w/s} times the bracketed sums of G and K: 2 G / s and 2 K, at
    scalar or array xi and w.  Both are factored on e^{-|x-xi|/s}, with
    e^{-(x+xi)/s} = e^{-|x-xi|/s} e^{-2 min(x,xi)/s}, so that the sums that
    nearly cancel where min(x, xi) << s keep their relative precision."""
    e_diff = np.exp((w - np.abs(x - xi)) / s)
    g_sum = e_diff * np.expm1(-2.0 * np.minimum(x, xi) / s)
    return g_sum, g_sum + (1.0 + np.sign(x - xi)) * e_diff


def _phi_pair(x, L, s, lib=math) -> tuple:
    """phi1, phi2 and phi2' at x in [0, L]; lib is math, or _rational_exp
    on Fraction arguments when the result is needed beyond double
    precision.  Each difference of two exponentials is one exponential
    times an expm1, so no digits cancel as L/s shrinks.  An L/s so small
    that expm1(-2L/s) is 0 is a NumericalError."""
    denom = lib.expm1(-2 * L / s)
    if not denom:
        raise NumericalError(f"phi basis undefined: expm1(-2L/s) is 0 "
                             f"at L/s = {float(L / s):.6g}")
    right = lib.exp((x - L) / s)
    phi1 = lib.exp(-x / s) * lib.expm1(-2 * (L - x) / s) / denom
    phi2 = right * lib.expm1(-2 * x / s) / denom
    return phi1, phi2, (right + lib.exp(-(x + L) / s)) / (s * -denom)


def bound_constants(p: BoundParams, t: float) -> BoundReport:
    """Evaluate every constant of the truncation estimate at time t.

    The constants grow with r = t / (epsilon tau): an epsilon * tau that
    underflows to 0, and a constant that overflows, are NumericalErrors."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and nonnegative")
    s = p.scale
    lam = p.lam
    model = FluxModel(p.M)
    d_chord = model.D
    c_growth = model.C
    sqt = math.sqrt(p.tau)
    e1m = math.e * (1.0 - lam)

    b_tau = (1.0 + d_chord * sqt) / (1.0 - lam ** 2)
    if abs(b_tau - 1.0) < 1e-14:
        raise ValueError("degenerate b_tau")
    a_tau = p.g_sup * (1.0 + d_chord * sqt * (e1m + 1.0)) / (2.0 * e1m)
    c_tau = p.C_u * (1.0 + d_chord * sqt)

    eps_tau = p.epsilon * p.tau
    if eps_tau == 0.0:  # s > 0, so both are positive: the product underflowed
        raise NumericalError(f"bound constants undefined: epsilon*tau underflows "
                             f"to 0 at epsilon = {p.epsilon!r}, tau = {p.tau!r}")
    r = t / eps_tau
    try:
        e_b = math.exp(b_tau * r)
        e_bm1 = math.exp((b_tau - 1.0) * r)
        growth = math.exp(c_growth * t / s)
    except OverflowError:
        raise NumericalError(f"bound constants overflow at t = {t:g}") from None
    E1 = p.g_sup + a_tau * e_b
    E2 = c_tau * r * e_bm1

    pref = growth * (c_growth * sqt + 1.0) * math.sqrt(p.L)
    gamma1 = pref * (p.g_sup * r + (a_tau / b_tau) * (e_b - 1.0))
    gamma2 = pref * c_tau * (r / (b_tau - 1.0) * e_bm1
                             - (e_bm1 - 1.0) / (b_tau - 1.0) ** 2)

    root5L = math.sqrt(5.0 * p.L)
    D1 = gamma1 + root5L * E1
    D2 = gamma2 + root5L * E2
    bound = D1 * math.exp(-lam * p.L / s) + D2 * math.exp(-lam * (p.L - p.L0) / s)
    # finite exponentials can still overflow in their products
    constants = dict(a_tau=a_tau, b_tau=b_tau, c_tau=c_tau, E1=E1, E2=E2,
                     gamma1=gamma1, gamma2=gamma2, D1=D1, D2=D2, bound=bound)
    bad = [name for name, value in constants.items() if not math.isfinite(value)]
    if bad:
        raise NumericalError(f"bound constants overflow at t = {t:g}: "
                             f"{', '.join(bad)} not finite")
    return BoundReport(**constants)


# --- lemma audits -----------------------------------------------------------

_SLACK = 1e-8


# QUADPACK's qk21 rule (Piessens et al., QUADPACK, Springer 1983): the 21
# Kronrod nodes on [-1, 1] with their weights, and the weights of the
# embedded 10-point Gauss rule, whose nodes are the odd-indexed ones
_GK_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_NODES = np.concatenate([_GK_NODES, -_GK_NODES[-2::-1]])
_K_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_K_WEIGHTS = np.concatenate([_K_WEIGHTS, _K_WEIGHTS[-2::-1]])
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _G_WEIGHTS[19:10:-2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
_ROUNDING = 50.0 * np.finfo(float).eps
_UNDERFLOW = np.finfo(float).tiny / _ROUNDING
_PANEL_LIMIT = 500
# the fewest ulps of x that s must span: a quadrature node rounds to the
# floats near x, which moves the kernels, whose scale is s, by up to a
# relative ulp(x)/s; at this cut that is the slack that decides a verdict
_MIN_ULPS = 1.0 / _SLACK


def _gk21(integrand, a: np.ndarray, b: np.ndarray) -> tuple:
    """qk21 on each panel [a, b]: the integral and QUADPACK's error
    estimate, with its resasc scaling and its 50 eps resabs rounding floor."""
    half = 0.5 * (b - a)
    f = integrand((0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES)
    if not np.isfinite(f).all():
        raise NumericalError("quadrature met a non-finite integrand value")
    res_k = f @ _K_WEIGHTS
    err = np.abs((res_k - f @ _G_WEIGHTS) * half)
    res_abs = np.abs(f) @ _K_WEIGHTS * half
    res_asc = np.abs(f - 0.5 * res_k[:, None]) @ _K_WEIGHTS * half
    err = np.where((res_asc != 0) & (err != 0),
                   res_asc * np.minimum(1.0, (200.0 * err / res_asc) ** 1.5), err)
    err = np.where(res_abs > _UNDERFLOW, np.maximum(_ROUNDING * res_abs, err), err)
    return res_k * half, err


def _audit_quad(integrand, lo: float, hi: float, x: float, s: float) -> float:
    """Integral of a vectorised integrand over [lo, hi] by adaptive qk21,
    tight enough for inequalities that are exact at saturation; refuses to
    return a value whose error estimate could flip the verdict.

    The first panels are graded by powers of two of s on either side of x,
    where the kernels have their kink or jump.  Each round bisects every
    panel whose error estimate exceeds an equal share of the tolerance, all
    in one integrand call, until the total estimate meets a relative 1e-11.
    An s of at most _MIN_ULPS ulps of x is a NumericalError: there the
    nodes near x cannot resolve the kernels, and no error estimate sees it.
    """
    if not s > _MIN_ULPS * math.ulp(x):
        raise NumericalError(
            f"audit point unresolvable: s = {s:.6g} spans only {s / math.ulp(x):.3g} "
            f"ulps of x = {x:g}, not more than {_MIN_ULPS:g}")
    cuts, step = {lo, hi, x}, s
    while step < max(x - lo, hi - x):
        cuts |= {x - step, x + step}
        step *= 2.0
    edges = np.array(sorted(c for c in cuts if lo <= c <= hi))
    a, b = edges[:-1], edges[1:]
    with np.errstate(all="ignore"):
        res, err = _gk21(integrand, a, b)
        while True:
            val, total = float(res.sum()), float(err.sum())
            tol = max(1e-300, 1e-11 * abs(val))
            if total <= tol:
                break
            if a.size > _PANEL_LIMIT:
                raise NumericalError(
                    f"quadrature did not converge (estimated error {total:.3g} "
                    f"on {a.size} panels)")
            split = err > tol / a.size
            keep = ~split
            mid = 0.5 * (a[split] + b[split])
            new_a, new_b = np.r_[a[split], mid], np.r_[mid, b[split]]
            new_res, new_err = _gk21(integrand, new_a, new_b)
            a, b = np.r_[a[keep], new_a], np.r_[b[keep], new_b]
            res, err = np.r_[res[keep], new_res], np.r_[err[keep], new_err]
    if total > max(val, 1e-300) * 1e-9:
        raise NumericalError(
            f"quadrature too loose: estimated error {total:.3g} on value {val:.6g}")
    return val


# the most decimal digits an L4i audit may work at; its cost grows about as
# the square of the digits (at 9960 digits a point takes 0.1 s at x = 0 and
# 0.4 s at x = 0.3), so a small s would otherwise run for hours
_MAX_DIGITS = 10_000

# _expm1_fixed sums its series below 2**-_HALVINGS; each halving trades a
# series term or so for one squaring, and the cost is flat from 8 to 28
_HALVINGS = 16


def _expm1_fixed(p: int, q: int, bits: int) -> tuple[int, int]:
    """(y, f) with y / 2**f = expm1(p/q) for a rational p/q >= 0, within
    a relative 2**-bits.  The Taylor series of expm1 sums at p/q halved h
    times, in integers scaled by 2**f, and h rounds of y -> y (y + 2) undo
    the halvings; each round at most doubles the relative error, which the
    h + log2(bits) + 8 guard bits absorb."""
    mag = p.bit_length() - q.bit_length()  # 2**(mag-1) < p/q < 2**(mag+1)
    h = max(0, mag + 1 + _HALVINGS)
    w = bits + h + bits.bit_length() + 8
    q <<= h
    f = w + h + 1 - mag  # the first term, p/q * 2**f, has more than w bits
    term = y = (p << f) // q
    k = 1
    while term:
        k += 1
        term = term * p // (q * k)
        y += term
    for _ in range(h):
        y = y * (y + (2 << f)) >> f
        cut = y.bit_length() - w
        if cut > f:
            cut = f
        if cut > 0:
            y >>= cut
            f -= cut
    return y, f


def _rational_exp(digits: int) -> SimpleNamespace:
    """A lib for _phi_pair on Fraction arguments: exp and expm1 as
    Fractions within a relative 10**-digits.  Both come from expm1 of the
    exponent's magnitude, formed once per magnitude: e^q = 1 + expm1(q) and
    e^-q = 1 / (1 + expm1(q)) for q >= 0, expm1(-q) = -expm1(q) / e^q."""
    from fractions import Fraction

    bits = math.ceil(digits * math.log2(10)) + 1
    formed = {}

    def expm1_abs(q):
        key = abs(q.numerator), q.denominator
        if key not in formed:
            formed[key] = _expm1_fixed(*key, bits)
        return formed[key]

    def exp(q):
        y, f = expm1_abs(q)
        one = 1 << f
        return Fraction(y + one, one) if q >= 0 else Fraction(one, y + one)

    def expm1(q):
        y, f = expm1_abs(q)
        return Fraction(y, 1 << f) if q >= 0 else Fraction(-y, y + (1 << f))

    return SimpleNamespace(exp=exp, expm1=expm1)


def _audit_phi_identity(x: float, L: float, s: float) -> tuple[float, float, bool]:
    """|phi1 - e^{-x/s}| vs e^{-L/s}|phi2|: both sides fall below double
    precision (the difference is of size e^{-(L+x)/s}), so the comparison is
    carried out in exact rationals, with every exponential taken to
    60 + (L + x)/s decimal digits; a point that needs more than _MAX_DIGITS
    is a NumericalError."""
    span = (L + x) / s
    if not 60 + span <= _MAX_DIGITS:
        raise NumericalError(f"L4i audit needs {60 + span:.0f} digits at "
                             f"(L + x)/s = {span:.6g}, more than {_MAX_DIGITS}")
    from fractions import Fraction

    lib = _rational_exp(60 + int(span))
    xq, Lq, sq = Fraction(x), Fraction(L), Fraction(s)
    phi1, phi2, _ = _phi_pair(xq, Lq, sq, lib)
    lhs = abs(phi1 - lib.exp(-xq / sq))
    rhs = lib.exp(-Lq / sq) * abs(phi2)
    return float(lhs), float(rhs), lhs <= rhs * (1 + Fraction(_SLACK))


def lemma_audit(lemma_id: str, p: BoundParams, x: float) -> dict:
    """Check one kernel/weight inequality at position x; lhs by quadrature
    (or closed form for the phi items), rhs from the stated bound."""
    if lemma_id not in AUDIT_ITEMS:
        raise ValueError(f"unknown audit item {lemma_id!r}")
    if not (math.isfinite(x) and x >= 0):
        raise ValueError("x must be finite and nonnegative")
    s = p.scale
    lam = p.lam

    if lemma_id.startswith("L4"):
        if x > p.L:
            raise ValueError("phi audits need x <= L")
        if lemma_id == "L4i":
            lhs, rhs, holds = _audit_phi_identity(x, p.L, s)
            return {"lhs": lhs, "rhs": rhs, "holds": holds}
        _, phi2, dphi2 = _phi_pair(x, p.L, s)
        if lemma_id == "L4ii":
            lhs, rhs = abs(phi2), 1.0
        else:  # L4iii
            lhs, rhs = abs(dphi2), 2.0 / s
        return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + _SLACK)}

    # L2 bounds the G sum, L3 the K sum, each under the weight e^{w(xi)/s}
    which = 0 if lemma_id.startswith("L2") else 1
    height = 1.0
    item = lemma_id[2:]
    if item == "i":
        weight = lambda xi: lam * (x - xi)
        hi = x + 40.0 * s
        rhs = 2.0 * s / (1.0 - lam ** 2)
    elif item == "ii":
        weight = lambda xi: lam * x - xi
        hi = x + 40.0 * s
        rhs = (s / (math.e * (1.0 - lam)) if lemma_id == "L2ii"
               else s + s / (math.e * (1.0 - lam)))
    else:  # iii: box initial state of height C_u on [0, L0]
        weight = lambda xi: lam * x
        height = p.C_u
        hi = p.L0
        try:
            rhs = 2.0 * p.C_u * s * math.exp(lam * p.L0 / s)
        except OverflowError:
            raise NumericalError(
                f"audit bound overflows at L0/s = {p.L0 / s:g}") from None
    integrand = lambda xi: height * np.abs(_kernel_pair(x, xi, s, weight(xi))[which])
    lhs = _audit_quad(integrand, 0.0, hi, x, s)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + _SLACK)}


def _truncation_params(manifest, lam: float = 0.5) -> BoundParams:
    """The bound's inputs for the run of manifest on [0, L]: a box of
    height u_B on [0, L0], weight rate lam."""
    return BoundParams(lam=lam, C_u=manifest.u_B, L0=manifest.L0, L=manifest.L,
                       g_sup=manifest.u_B, M=manifest.M, epsilon=manifest.epsilon,
                       tau=manifest.tau)


def compare_domains(small, u_small: np.ndarray, u_large: np.ndarray) -> dict:
    """Truncation comparison: the final profile u_small of the run of
    manifest small on [0, L], against u_large of the same setup on a longer
    domain, restricted to [0, L]; the difference norms next to the
    closed-form bound at small.t_final (weight rate lam = 1/2)."""
    if not u_large.size > u_small.size:
        raise ValueError("need u_large longer than u_small")
    p = _truncation_params(small)
    diff = u_large[:u_small.size] - u_small
    return {"h1_diff": weighted_h1_norm(diff, p.scale, small.dx),
            "sup_diff": float(np.max(np.abs(diff))),
            "bound": bound_constants(p, small.t_final).bound}
