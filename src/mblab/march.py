"""The run context and the snapshot-landing time loop shared by both
marching schemes."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import NumericalError
from .flux import FluxModel
from .operators import Field, GridSpec, MBLParams


@dataclass(frozen=True)
class RunContext:
    """The fixed data of one run: grid, model parameters, flux and the
    constant Dirichlet pair bc = (g, h).

    A NaN/Inf boundary value is a NumericalError, checked once here: inside
    a step, minmod and the clamped flux could turn it finite.
    """

    grid: GridSpec
    params: MBLParams
    model: FluxModel
    bc: tuple[float, float]

    def __post_init__(self):
        if not all(map(math.isfinite, self.bc)):
            raise NumericalError("boundary value is NaN/Inf")


def land_snapshots(advance: Callable[[float], float], read: Callable[[float], Field],
                   t0: float, t_final: float, snapshot_times: Sequence[float],
                   dt_nom: float) -> list[Field]:
    """Advance from t0 by dt_nom, shortening the last step before each
    requested time so that it is hit (to 1e-12); read(time) once there.

    advance(dt) moves the scheme on by dt and returns its new time.  A time
    left within 1e-12 short of dt_nom still takes a nominal step.  The
    result holds one read() per snapshot time plus the final state, last;
    read(time) builds a Field stamped with the requested time exactly, and
    the scheme's own clock, which sums the steps, is left as it is.
    """
    if t_final <= t0:
        raise ValueError("t_final must exceed the current time")
    times = sorted(set(float(s) for s in snapshot_times))
    if any(s <= t0 or s > t_final + 1e-12 for s in times):
        raise ValueError("snapshot times must lie in (t0, t_final]")
    targets = times if times and abs(times[-1] - t_final) < 1e-12 else times + [t_final]
    t = t0
    out: list[Field] = []
    for target in targets:
        while target - t > 1e-12:
            remaining = target - t
            t = advance(dt_nom if remaining >= dt_nom - 1e-12 else remaining)
        out.append(read(target))
    return out
