"""Ring buffer of step-aligned boundary samples over a sliding window.

A predictor needs the inputs applied over the last max(tau, l) time units
(the observer replays u(t - tau), the predictor propagates u(t - l)
forward).  ``InputHistory`` is the validated lookup of such samples by
time, used by ``observer.predict`` (through ``covers``) and by library
callers.  The runners in ``loop`` do not go through it: they already
record u and the exit values at every step and read the delayed samples
back by step index.  Samples live on the solver's step grid, so lookups
are exact; asking for a time that was never stored, or that has already
slid out of the window, is an error that names the offending time.
"""

from __future__ import annotations

import math

import numpy as np

_ALIGN_RTOL = 1e-9


class InputHistory:
    """Fixed-capacity ring buffer of (t, vector) samples at spacing dt.

    Samples must be appended contiguously (each new time is one step after
    the newest stored one).  Once the buffer is full the oldest sample is
    dropped, keeping at least ``window`` time units of history.
    """

    def __init__(self, dt: float, window: float, width: int = 2):
        if dt <= 0 or not math.isfinite(dt):
            raise ValueError(f"dt must be positive, got {dt}")
        if window <= 0 or not math.isfinite(window):
            raise ValueError(f"window must be positive, got {window}")
        self.dt = float(dt)
        self.window = float(window)
        self.capacity = int(math.ceil(round(window / dt, 9))) + 1
        self._data = np.zeros((self.capacity, width), dtype=float)
        self._base_step = 0  # absolute step index of the oldest sample
        self._count = 0

    def _step_index(self, t: float) -> int:
        j = int(round(t / self.dt))
        if abs(j * self.dt - t) > _ALIGN_RTOL * max(1.0, abs(t)):
            raise ValueError(f"time {t!r} is not aligned to the step grid (dt={self.dt!r})")
        return j

    def __len__(self) -> int:
        return self._count

    @property
    def oldest_t(self) -> float:
        if self._count == 0:
            raise ValueError("history is empty")
        return self._base_step * self.dt

    @property
    def newest_t(self) -> float:
        if self._count == 0:
            raise ValueError("history is empty")
        return (self._base_step + self._count - 1) * self.dt

    def append(self, t: float, value) -> None:
        j = self._step_index(t)
        if self._count and j != self._base_step + self._count:
            raise ValueError(
                f"samples must be appended contiguously: expected "
                f"t={(self._base_step + self._count) * self.dt!r}, got {t!r}"
            )
        if self._count == 0:
            self._base_step = j
        if self._count == self.capacity:
            self._base_step += 1
        else:
            self._count += 1
        self._data[(self._base_step + self._count - 1) % self.capacity] = value

    def at(self, t: float) -> np.ndarray:
        """Exact lookup of the sample stored at a step-aligned time."""
        j = self._step_index(t)
        if self._count == 0 or j < self._base_step or j >= self._base_step + self._count:
            stored = (
                f"[{self.oldest_t!r}, {self.newest_t!r}]" if self._count else "(empty)"
            )
            raise ValueError(f"no input stored for t={t!r}; stored window {stored}")
        return self._data[j % self.capacity].copy()

    def covers(self, t0: float, t1: float) -> list[float]:
        """Return the step-aligned times in [t0, t1] that are missing."""
        j0 = self._step_index(t0)
        j1 = self._step_index(t1)
        missing = []
        for j in range(j0, j1 + 1):
            if self._count == 0 or j < self._base_step or j >= self._base_step + self._count:
                missing.append(j * self.dt)
        return missing
