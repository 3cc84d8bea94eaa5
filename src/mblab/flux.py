"""Fractional-flow flux for two-phase flow.

The flux is f(u) = u^2 / (u^2 + M(1-u)^2) with viscosity ratio M > 0,
extended to a total function by clamping: 0 below u=0, 1 above u=1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

__all__ = [
    "FluxModel",
    "flux",
    "flux_and_deriv",
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
        if self.M * self.M == 0:
            raise ValueError(f"M = {self.M!r} is too small: f' divides by "
                             "(u^2 + M (1-u)^2)^2, which is M^2 = 0 at u = 0")
        try:
            C = (self.M + 1.0) ** 2 / (2.0 * self.M)
        except OverflowError:
            raise NumericalError("C = (M + 1)^2 / (2 M) overflows the float "
                                 f"range at M = {self.M!r}") from None
        a = float(np.sqrt(self.M / (self.M + 1.0)))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "D", float(flux(a, self)) / a)
        object.__setattr__(self, "C", C)


# 0-d operands: a Python float costs each ufunc call a scalar conversion
_ZERO, _ONE = np.array(0.0), np.array(1.0)


def _clamped(u: np.ndarray, uc: np.ndarray, d: np.ndarray) -> np.ndarray:
    """u clipped to [0, 1] in uc, and 1 - u there in d."""
    np.maximum(u, _ZERO, out=uc)
    np.minimum(uc, _ONE, out=uc)  # np.clip, without its dispatch cost
    return np.subtract(_ONE, uc, out=d)


def _denominator(sq: np.ndarray, d: np.ndarray, M: float,
                 out: np.ndarray) -> np.ndarray:
    """The flux denominator u^2 + M (1-u)^2 from sq = u^2 and d = 1 - u of
    the clipped u, formed in out, which may be d.

    Squares are products: a 0-d ** 2 goes through C pow, which can differ
    from an array's squaring in the last bit.  The in-place updates here and
    in _deriv spare temporaries and keep the rounding of the written formula.
    """
    den = np.multiply(d, d, out=out)
    den *= M
    den += sq
    return den


def _deriv(uc: np.ndarray, d: np.ndarray, den: np.ndarray, M: float,
           out: np.ndarray) -> np.ndarray:
    """df/du = 2 M uc (1-uc) / den^2 from the clamped parts, formed in out,
    with den^2 formed in uc, which it overwrites; exactly zero outside
    (0, 1), where uc is 0 or 1 and f is flat, and NaN at NaN."""
    out = np.multiply(uc, 2.0 * M, out=out)
    out *= d
    out /= np.multiply(den, den, out=uc)
    return out


def flux(u, model: FluxModel, out: np.ndarray = None, work: np.ndarray = None):
    """Clamped fractional-flow function; accepts scalars or arrays.  An
    array's flux is formed in out, and its temporaries in out and work, when
    given (new arrays by default): with both, it allocates nothing."""
    u = np.asarray(u, dtype=float)
    sq = np.empty_like(u) if out is None else out
    den = np.empty_like(u) if work is None else work
    _clamped(u, sq, den)  # the clipped u in sq, then its square
    sq *= sq
    _denominator(sq, den, model.M, out=den)
    out = np.divide(sq, den, out=sq)
    if out.ndim == 0:
        return float(out)
    return out


def flux_and_deriv(u: np.ndarray, model: FluxModel, out: tuple,
                   work: tuple) -> tuple[np.ndarray, np.ndarray]:
    """flux(u) and df/du of an array (0-d too), from one clip and one
    denominator, formed in the pair out and with the temporaries in the
    three arrays of work, each shaped like u: it allocates nothing.  df/du
    is zero outside [0, 1], to match the clamped flux, and NaN at NaN."""
    f, df = out
    uc, d, den = work
    _clamped(u, uc, d)
    np.multiply(uc, uc, out=f)
    _denominator(f, d, model.M, out=den)
    _deriv(uc, d, den, model.M, out=df)
    f /= den
    return f, df
