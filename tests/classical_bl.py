"""The classical Buckley-Leverett theory that the tests check runs against:
the Rankine-Hugoniot speed and the entropy solution of the Riemann problem
(u_B, 0) of the clamped flux, without the eps-regularisation."""
from __future__ import annotations

import numpy as np

from mblab.flux import FluxModel, flux, flux_and_deriv

# states closer than this make no jump
_SAME_STATE = 1e-14


def fprime(u, model: FluxModel):
    """df/du of a scalar or an array, by flux_and_deriv in rows of its own;
    a float for a scalar."""
    u = np.asarray(u, dtype=float)
    _, df = flux_and_deriv(u, model, (np.empty_like(u), np.empty_like(u)),
                           (np.empty_like(u), np.empty_like(u), np.empty_like(u)))
    return float(df) if df.ndim == 0 else df


def shock_speed(u_l: float, u_r: float, model: FluxModel) -> float:
    """Rankine-Hugoniot speed of the jump between u_l and u_r."""
    if abs(u_l - u_r) < _SAME_STATE:
        raise ValueError("degenerate jump: states are equal")
    return (flux(u_l, model) - flux(u_r, model)) / (u_l - u_r)


def _invert_fprime(xi: float, lo: float, hi: float, model: FluxModel) -> float:
    """Solve f'(u) = xi for u in [lo, hi] where f' is strictly decreasing."""
    a, b = lo, hi
    fa = fprime(a, model) - xi
    while b - a >= 1e-12:
        mid = 0.5 * (a + b)
        fm = fprime(mid, model) - xi
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
    head = fprime(u_B, model)
    tail = model.D  # = f(alpha)/alpha = f'(alpha)
    out[xi <= head] = u_B
    fan = (xi > head) & (xi < tail)
    for i in np.nonzero(fan)[0]:
        out[i] = _invert_fprime(xi[i], a, u_B, model)
    return out
