"""Fractional-flow flux for two-phase flow and its Riemann-problem helpers.

The flux is f(u) = u^2 / (u^2 + M(1-u)^2) with viscosity ratio M > 0,
extended to a total function by clamping: 0 below u=0, 1 above u=1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FluxModel",
    "flux",
    "flux_deriv",
    "flux_and_deriv",
    "shock_speed",
    "classical_bl_profile",
]


@dataclass(frozen=True)
class FluxModel:
    """Flux family member for a fixed viscosity ratio M.

    Cached constants:
      alpha -- the state where the chord from the origin is tangent,
               f'(alpha) = f(alpha)/alpha; equals sqrt(M/(M+1)).
      D     -- f(alpha)/alpha, the largest chord slope from the origin
               (so f(u) <= D*u on [0, 1]).
      C     -- (M+1)^2/(2M), an upper bound for |f'| on [0, 1].
    """

    M: float = 2.0
    alpha: float = field(init=False)
    D: float = field(init=False)
    C: float = field(init=False)

    def __post_init__(self):
        if not self.M > 0:
            raise ValueError(f"M must be positive, got {self.M}")
        a = float(np.sqrt(self.M / (self.M + 1.0)))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "D", float(flux(a, self)) / a)
        object.__setattr__(self, "C", (self.M + 1.0) ** 2 / (2.0 * self.M))


def _clamped(u: np.ndarray, M: float) -> tuple[np.ndarray, ...]:
    """u clipped to [0, 1], 1 - u and u^2 there, and the flux denominator
    u^2 + M (1-u)^2.

    Squares are products: a 0-d ** 2 goes through C pow, which can differ
    from an array's squaring in the last bit.  The in-place updates here and
    in _deriv spare temporaries and keep the rounding of the written formula.
    """
    uc = np.minimum(np.maximum(u, 0.0), 1.0)  # np.clip, without its dispatch cost
    d = 1.0 - uc
    sq = uc * uc
    den = d * d
    den *= M
    den += sq
    return uc, d, sq, den


def _deriv(uc: np.ndarray, d: np.ndarray, den: np.ndarray, M: float) -> np.ndarray:
    """df/du = 2 M uc (1-uc) / den^2 from the clamped parts; exactly zero
    outside (0, 1), where uc is 0 or 1 and f is flat."""
    out = uc * (2.0 * M)
    out *= d
    out /= den * den
    return out


def flux(u, model: FluxModel):
    """Clamped fractional-flow function; accepts scalars or arrays."""
    u = np.asarray(u, dtype=float)
    _, _, out, den = _clamped(u, model.M)
    out /= den
    if out.ndim == 0:
        return float(out)
    return out


def flux_deriv(u, model: FluxModel):
    """df/du; zero outside [0, 1] to match the clamped flux, NaN at NaN."""
    u = np.asarray(u, dtype=float)
    uc, d, _, den = _clamped(u, model.M)
    out = _deriv(uc, d, den, model.M)
    if out.ndim == 0:
        return float(out)
    return out


def flux_and_deriv(u: np.ndarray, model: FluxModel) -> tuple[np.ndarray, np.ndarray]:
    """flux(u) and flux_deriv(u) of an array, from one clip and one denominator."""
    uc, d, f, den = _clamped(u, model.M)
    df = _deriv(uc, d, den, model.M)
    f /= den
    return f, df


# states closer than this make no jump
_SAME_STATE = 1e-14


def shock_speed(u_l: float, u_r: float, model: FluxModel) -> float:
    """Rankine-Hugoniot speed of the jump between u_l and u_r."""
    if abs(u_l - u_r) < _SAME_STATE:
        raise ValueError("degenerate jump: states are equal")
    return (flux(u_l, model) - flux(u_r, model)) / (u_l - u_r)


def _invert_fprime(xi: float, lo: float, hi: float, model: FluxModel) -> float:
    """Solve f'(u) = xi for u in [lo, hi] where f' is strictly decreasing."""
    a, b = lo, hi
    fa = flux_deriv(a, model) - xi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a < 1e-12:
            return mid
        fm = flux_deriv(mid, model) - xi
        if (fa > 0) == (fm > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def classical_bl_profile(u_B: float, model: FluxModel, xi) -> np.ndarray:
    """Entropy solution of the Riemann problem (u_B, 0) in self-similar form.

    Evaluates u(xi) with xi = x/t.  For u_B <= alpha: a single shock moving
    at f(u_B)/u_B, or the zero state when u_B is within shock_speed's
    tolerance of 0.  For u_B > alpha: a u_B plateau, the rarefaction fan
    obtained by inverting f' on [alpha, u_B], then the shock alpha -> 0 at
    speed f(alpha)/alpha.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.zeros_like(xi)
    a = model.alpha
    if u_B <= a + 1e-12:
        if u_B >= _SAME_STATE:
            out[xi < shock_speed(u_B, 0.0, model)] = u_B
        return out
    head = flux_deriv(u_B, model)
    tail = model.D  # = f(alpha)/alpha = f'(alpha)
    out[xi <= head] = u_B
    fan = (xi > head) & (xi < tail)
    for i in np.nonzero(fan)[0]:
        out[i] = _invert_fprime(xi[i], a, u_B, model)
    return out
