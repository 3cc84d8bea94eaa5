"""Green's kernels, truncation-bound constants, and the lemma audits.

The half-line problem (I - s^2 D^2) acting on the dispersive part has the
kernel pair (s = eps sqrt(tau))

  G(x, xi) = (s/2) (e^{-(x+xi)/s} - e^{-|x-xi|/s})
  K(x, xi) = (1/2) (e^{-(x+xi)/s} + sgn(x-xi) e^{-|x-xi|/s})

with K = -dG/dxi, and the interval [0, L] has the boundary pair

  phi1(x) = (e^{-x/s} - e^{(x-2L)/s}) / (1 - e^{-2L/s})
  phi2(x) = (e^{(x-L)/s} - e^{-(x+L)/s}) / (1 - e^{-2L/s})

with phi1(0) = phi2(L) = 1 and phi1(L) = phi2(0) = 0.  _phi_pair gives
phi1, phi2 and phi2' in double precision or, for the L4i audit, in exact
rationals whose exponentials _rational_exp forms to the audit's digits;
only that audit imports fractions, when it runs.  s and its s > 0 check
live in BoundParams.scale.  No finite-interval kernel is evaluated here.

bound_constants assembles the explicit constants of the truncation
estimate

  ||u_halfline - u_[0,L]||_{H^1} <= D1(t) e^{-lam L/s} + D2(t) e^{-lam (L-L0)/s}

and lemma_audit checks the nine supporting kernel/weight inequalities.
Under the audits' weights e^{w/s}, with w linear in xi, |G| and |K| are
sums of at most two exponentials in xi on each side of x, so the L2/L3
integrals are taken in closed form, by _exp_integral; no quadrature is
involved.  compare_domains sets the measured difference of two given
final profiles beside the bound; the runs themselves belong to
experiments.domain_study, and this module imports nothing from
experiments or cli.
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


def _exp_integral(top: float, rate: float, length: float, s: float) -> float:
    """The integral of e^{(top - rate t)/s} over t in [0, length], for
    rate >= 0: an exponential anchored at its larger end, e^{top/s} times
    length expm1(z)/z with z = -rate length/s, written s (-expm1(z))/rate
    so that a length/s that overflows still gives s/rate.  Its exponent
    is never the difference of two large numbers."""
    z = -rate * length / s
    return math.exp(top / s) * (-math.expm1(z) * s / rate if z else length)


def lemma_audit(lemma_id: str, p: BoundParams, x: float) -> dict:
    """Check one kernel/weight inequality at position x; lhs in closed
    form (exact rationals for L4i), rhs from the stated bound.  A
    non-finite lhs is a NumericalError."""
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

    # L2 integrates |2G/s|, L3 |2K|, under the weight e^{w/s} with
    # w(xi) = w_x + w1 (xi - x), over [0, b] left of x and a length reach
    # right of it
    height = 1.0
    item = lemma_id[2:]
    if item == "i":  # w = lam (x - xi) on [0, x + 40 s]
        w_x, w1, b, reach = 0.0, -lam, x, 40.0 * s
        rhs = 2.0 * s / (1.0 - lam ** 2)
    elif item == "ii":  # w = lam x - xi on [0, x + 40 s]
        w_x, w1, b, reach = (lam - 1.0) * x, -1.0, x, 40.0 * s
        rhs = (s / (math.e * (1.0 - lam)) if lemma_id == "L2ii"
               else s + s / (math.e * (1.0 - lam)))
    else:  # iii: w = lam x on [0, L0], a box initial state of height C_u
        w_x, w1, b, reach, height = lam * x, 0.0, min(x, p.L0), p.L0 - x, p.C_u
        try:
            rhs = 2.0 * p.C_u * s * math.exp(lam * p.L0 / s)
        except OverflowError:
            raise NumericalError(
                f"audit bound overflows at L0/s = {p.L0 / s:g}") from None
    # left of x the kernels are near -+ image: e^{w/s} e^{-(x-xi)/s} is
    # largest at xi = b, e^{w/s} e^{-(x+xi)/s} at xi = 0
    near = _exp_integral(w_x - (1.0 + w1) * (x - b), 1.0 + w1, b, s)
    if lemma_id == "L2iii":  # w1 = 0: the image is near e^{-b/s}, and nothing cancels
        left = -near * math.expm1(-b / s)
    else:  # near - image loses digits only where x << s, and there the
        # right piece, of size x, outweighs it
        image = _exp_integral(w_x - (1.0 + w1) * x, 1.0 - w1, b, s)
        left = near - image if lemma_id.startswith("L2") else near + image
    # right of x both are e^{-(xi-x)/s} (1 - e^{-2x/s}), largest at xi = x
    right = (-math.expm1(-2.0 * x / s) * _exp_integral(w_x, 1.0 - w1, reach, s)
             if reach > 0.0 else 0.0)
    lhs = height * (left + right)
    if not math.isfinite(lhs):
        raise NumericalError(f"{lemma_id} audit lhs is not finite at x = {x:g}")
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
