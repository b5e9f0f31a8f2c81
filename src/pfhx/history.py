"""Boundary-input sources, read as the inlet pairs of consecutive steps.

The solvers, the runs and the predictor read the inlet pair u(t) at
step-aligned times, step j at t0 + j dt.  An input source is one of
four things, and ``rows`` reads each:

- ``None``, the zero input;
- a ``SignalPair`` of two scalar signals, read a column at a time with
  one scalar call per step and no array made per step;
- any other callable t -> (u1, u2), called once per step;
- a step-indexed ``(N, 2)`` array with ``u[j] = u(j * dt)``, as a run
  records it in ``Trajectory.u``, read by index.  The read is exact: a
  time off the step grid, or outside the recorded span [0, (N - 1) dt],
  is an error that names the first such time.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .grid import aligned_steps


class SignalPair(NamedTuple):
    """Two scalar signals t -> u1(t) and t -> u2(t), one input source read a column at a time."""

    u1: Callable[[float], float]
    u2: Callable[[float], float]


def rows(source, j0: int, count: int, dt: float, t0: float = 0.0) -> np.ndarray:
    """The inlet pairs of steps j0 .. j0 + count - 1, read at t0 + j dt, as a new (count, 2) array.

    ``dt`` is the step; an array source records steps of ``dt`` from t = 0.
    """
    if source is None:
        return np.zeros((count, 2))
    times = [t0 + (j0 + i) * dt for i in range(count)]
    out = np.empty((count, 2))
    if isinstance(source, SignalPair):
        for column, scalar in zip(out.T, source):
            column[:] = [scalar(t) for t in times]
        return out
    if callable(source):
        for i, t in enumerate(times):
            out[i] = source(t)
        return out
    samples = np.asarray(source, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError(f"an input array must have shape (N, 2), got {samples.shape}")
    steps = []
    for t in times:
        j = aligned_steps(t, dt)
        if not 0 <= j < len(samples):
            raise ValueError(
                f"input missing at t={t!r}: the array records "
                f"[0, {(len(samples) - 1) * dt!r}] in steps of dt={dt!r}"
            )
        steps.append(j)
    return samples[steps]
