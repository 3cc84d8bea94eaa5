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
double or in mpmath precision.  s and its s > 0 check live in
BoundParams.scale.  No finite-interval kernel is evaluated here.

bound_constants assembles the explicit constants of the truncation
estimate

  ||u_halfline - u_[0,L]||_{H^1} <= D1(t) e^{-lam L/s} + D2(t) e^{-lam (L-L0)/s}

and lemma_audit checks the nine supporting kernel/weight inequalities by
adaptive quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np
from scipy.integrate import quad

from .errors import NumericalError
from .flux import FluxModel
from .operators import Field, MBLParams, weighted_h1_norm

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
    measured: Optional[float] = None


def _kernel_pair(x: float, xi: float, s: float, w: float) -> tuple:
    """e^{w/s} times the bracketed sums of G and K: 2 G / s and 2 K."""
    e_sum = math.exp((w - (x + xi)) / s)
    e_diff = math.exp((w - abs(x - xi)) / s)
    sgn_diff = math.copysign(e_diff, x - xi) if x != xi else 0.0
    return e_sum - e_diff, e_sum + sgn_diff


def _phi_pair(x, L, s, exp=math.exp) -> tuple:
    """phi1, phi2 and phi2' at x in [0, L]; exp is math.exp, or mpmath.exp
    on mpf arguments when the result is needed beyond double precision."""
    denom = 1 - exp(-2 * L / s)
    phi1 = (exp(-x / s) - exp((x - 2 * L) / s)) / denom
    right, left = exp((x - L) / s), exp(-(x + L) / s)
    return phi1, (right - left) / denom, (right + left) / (s * denom)


def bound_constants(p: BoundParams, t: float) -> BoundReport:
    """Evaluate every constant of the truncation estimate at time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
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

    r = t / (p.epsilon * p.tau)
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
    return BoundReport(a_tau=a_tau, b_tau=b_tau, c_tau=c_tau, E1=E1, E2=E2,
                       gamma1=gamma1, gamma2=gamma2, D1=D1, D2=D2, bound=bound)


# --- lemma audits -----------------------------------------------------------

_SLACK = 1e-8


def _audit_quad(integrand, lo: float, hi: float, x: float) -> float:
    """Adaptive quadrature tight enough for inequalities that are exact at
    saturation; refuses to return a value whose error estimate could flip
    the verdict."""
    pts = [x] if lo < x < hi else None
    val, err, info, *msg = quad(integrand, lo, hi, points=pts, limit=500,
                                epsabs=1e-300, epsrel=1e-11, full_output=1)
    if msg:
        raise NumericalError(
            f"quadrature did not converge (estimated error {err:.3g}): {msg[0]}")
    if err > max(val, 1e-300) * 1e-9:
        raise NumericalError(
            f"quadrature too loose: estimated error {err:.3g} on value {val:.6g}")
    return val


def _audit_phi_identity(x: float, L: float, s: float) -> tuple[float, float, bool]:
    """|phi1 - e^{-x/s}| vs e^{-L/s}|phi2|: both sides fall below double
    precision (the difference is of size e^{-(L+x)/s}), so the comparison is
    carried out in high-precision arithmetic."""
    with mpmath.workdps(60 + int(1.0 * (L + x) / s)):
        xm, Lm, sm = mpmath.mpf(x), mpmath.mpf(L), mpmath.mpf(s)
        phi1, phi2, _ = _phi_pair(xm, Lm, sm, mpmath.exp)
        lhs = abs(phi1 - mpmath.exp(-xm / sm))
        rhs = mpmath.exp(-Lm / sm) * abs(phi2)
        holds = bool(lhs <= rhs * (1 + mpmath.mpf(_SLACK)))
        return float(lhs), float(rhs), holds


def lemma_audit(lemma_id: str, p: BoundParams, x: float) -> dict:
    """Check one kernel/weight inequality at position x; lhs by quadrature
    (or closed form for the phi items), rhs from the stated bound."""
    if lemma_id not in AUDIT_ITEMS:
        raise ValueError(f"unknown audit item {lemma_id!r}")
    if x < 0:
        raise ValueError("x must be nonnegative")
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
        rhs = 2.0 * p.C_u * s * math.exp(lam * p.L0 / s)
    integrand = lambda xi: height * abs(_kernel_pair(x, xi, s, weight(xi))[which])
    lhs = _audit_quad(integrand, 0.0, hi, x)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + _SLACK)}


def compare_domains(base, L_small: float, L_large: float, t: float) -> dict:
    """Truncation experiment: run the same setup on [0, L_small] and on
    [0, L_large], restrict the large run, and report difference norms next
    to the closed-form bound (weight rate fixed at lam = 1/2)."""
    from . import experiments

    if not L_large > L_small:
        raise ValueError("need L_large > L_small")
    small = base.derive(L=L_small, t_final=t, snapshot_times=[])
    large = base.derive(L=L_large, t_final=t, snapshot_times=[])
    u_small = experiments.run_cached(small)[-1]
    u_large = experiments.run_cached(large)[-1]
    n = u_small.values.size
    diff = u_large.values[:n] - u_small.values
    params = MBLParams(base.epsilon, base.tau)
    h1 = weighted_h1_norm(Field(diff, u_small.phase, t), params, base.dx)
    p = BoundParams(lam=0.5, C_u=base.u_B, L0=base.L0, L=L_small,
                    g_sup=base.u_B, M=base.M, epsilon=base.epsilon, tau=base.tau)
    return {"h1_diff": h1,
            "sup_diff": float(np.max(np.abs(diff))),
            "bound": bound_constants(p, t).bound}
