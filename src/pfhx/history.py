"""Boundary-input sources, read by time.

The solver oracles and the predictors read the inlet pair u(t) at
step-aligned times.  An input source is one of three things:

- ``None``, the zero input;
- a callable t -> (u1, u2), such as a ``SignalPair`` of two scalar
  signals, which the solver reads a column at a time;
- a step-indexed ``(N, 2)`` array with ``u[j] = u(j * dt)``, as a run
  records it in ``Trajectory.u``.

``as_trace`` turns each into a callable.  An array lookup is exact: a time
off the step grid, or outside the recorded span [0, (N - 1) dt], is an
error that names the time.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .grid import _ALIGN_RTOL


class SignalPair(NamedTuple):
    """Two scalar signals t -> u1(t) and t -> u2(t) as one input source t -> (u1, u2)."""

    u1: Callable[[float], float]
    u2: Callable[[float], float]

    def __call__(self, t: float) -> np.ndarray:
        return np.array([self.u1(t), self.u2(t)])


def as_trace(inputs, dt: float):
    """Normalize a boundary-input source to a callable t -> (u1, u2).

    ``dt`` is the step of a step-indexed array; the other sources ignore it.
    """
    if inputs is None:
        return lambda t: np.zeros(2)
    if callable(inputs):
        return inputs
    samples = np.asarray(inputs, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError(f"an input array must have shape (N, 2), got {samples.shape}")

    def at(t: float) -> np.ndarray:
        j = round(t / dt)
        if abs(j * dt - t) > _ALIGN_RTOL * max(1.0, abs(t)):
            raise ValueError(f"time {t!r} is not aligned to the step grid (dt={dt!r})")
        if not 0 <= j < len(samples):
            raise ValueError(
                f"input missing at t={t!r}: the array records "
                f"[0, {(len(samples) - 1) * dt!r}] in steps of dt={dt!r}"
            )
        return samples[j].copy()

    return at
