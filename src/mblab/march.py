"""The snapshot-landing time loop shared by both marching schemes."""
from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from .operators import Field


def land_snapshots(advance: Callable[[float], float], read: Callable[[], Field],
                   t0: float, t_final: float, snapshot_times: Sequence[float],
                   dt_nom: float) -> list[Field]:
    """Advance from t0 by dt_nom, shortening the last step before each
    requested time so that it is hit (to 1e-12); read() once there.

    advance(dt) moves the scheme on by dt and returns its new time.  A time
    left within 1e-12 short of dt_nom still takes a nominal step.  The
    result holds one read() per snapshot time plus the final state, last,
    each stamped with its requested time exactly; the scheme's own clock,
    which sums the steps, is left as it is.
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
        out.append(replace(read(), time=target))
    return out
