"""The run context and the snapshot-landing time loop shared by both
marching schemes."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .flux import FluxModel
from .operators import Field, GridSpec, MBLParams


@dataclass(frozen=True)
class RunContext:
    """The fixed data of one run: grid, model parameters, flux and the
    constant Dirichlet pair bc = (g, h).  A block of staggered runs that
    differ only in their inflow value carries one g per run, as an array.

    A NaN/Inf boundary value is a NumericalError, checked once here: inside
    a step, minmod and the clamped flux could turn it finite.
    """

    grid: GridSpec
    params: MBLParams
    model: FluxModel
    bc: tuple

    def __post_init__(self):
        if not all(np.isfinite(v).all() for v in self.bc):
            raise NumericalError("boundary value is NaN/Inf")


def landing_targets(t0: float, t_final: float,
                    snapshot_times: Sequence[float]) -> list[float]:
    """The times a run from t0 lands on: the sorted distinct snapshot times,
    then t_final unless the last of them is within 1e-12 of it."""
    if t_final <= t0:
        raise ValueError("t_final must exceed the current time")
    times = sorted(set(float(s) for s in snapshot_times))
    if any(s <= t0 or s > t_final + 1e-12 for s in times):
        raise ValueError("snapshot times must lie in (t0, t_final]")
    return times if times and abs(times[-1] - t_final) < 1e-12 else times + [t_final]


def land_snapshots(advance: Callable[[tuple, float], tuple],
                   read: Callable[[tuple, float], Field], state: tuple,
                   t_final: float, snapshot_times: Sequence[float],
                   dt_nom: float) -> list[Field]:
    """March state by nominal steps dt_nom and land on each requested time
    (to 1e-12) with one shorter step on a fork of the state.

    state is a tuple whose first item is the scheme's clock, which sums the
    steps; advance(state, dt) returns the state one step of dt on.  A time
    left within 1e-12 short of dt_nom still takes a nominal step.  The march
    goes on from the unforked state, so the field at time s is the final
    field of a run that ends at s, whatever else the run lands on.  The
    result holds one read(state, time) per snapshot time plus the final
    state, last; read builds a Field stamped with the requested time
    exactly.
    """
    out: list[Field] = []
    for target in landing_targets(state[0], t_final, snapshot_times):
        while target - state[0] >= dt_nom - 1e-12:
            state = advance(state, dt_nom)
        remaining = target - state[0]
        out.append(read(advance(state, remaining) if remaining > 1e-12 else state,
                        target))
    return out
