"""Spatial grid, sampled temperature fields, and norms.

A field is a plain ``(n_cells + 1, 2)`` float array sampled at the uniform
nodes ``x_i = i * dx``; column 0 holds theta1 and column 1 holds theta2.
Both transport speeds equal one, so the solver locks the time step to
``dt = dx`` and every delay or horizon is snapped to a whole number of
steps.  That makes characteristic updates and delayed lookups exact at the
nodes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .params import ConfigError

if TYPE_CHECKING:  # annotations only: numpy loads in the functions that build arrays
    import numpy as np

_ALIGN_RTOL = 1e-9


def _snap(duration: float, dt: float, minimum: float = -math.inf) -> tuple[int, float, bool]:
    """``Grid.snap_steps`` at a step dt > 0, with no least count unless ``minimum`` is given."""
    if not dt > 0:  # a step l / n_cells that underflows to 0 counts nothing
        raise ValueError(f"the step dt={dt!r} must be positive to count duration {duration!r}")
    count = duration / dt
    if not math.isfinite(count):
        raise ValueError(f"duration {duration!r} is not a finite number of steps of dt={dt!r}")
    steps = max(minimum, round(count))
    return steps, steps * dt, abs(steps * dt - duration) > _ALIGN_RTOL * max(1.0, abs(duration))


def aligned_steps(t: float, dt: float) -> int:
    """The whole number of steps of dt that a time t on the step grid is; any other t is refused."""
    steps, _, changed = _snap(t, dt)
    if changed:
        raise ValueError(f"time {t!r} is not aligned to the step grid (dt={dt!r})")
    return steps


# the fields as a plain named tuple named Grid, so that a wrong call's TypeError names Grid
class Grid(namedtuple("Grid", "n_cells l")):
    """Uniform grid on [0, l] with n_cells cells (n_cells + 1 nodes).

    An immutable named tuple, checked wherever one is made: a direct call,
    ``_replace``, ``_make``, ``copy`` and ``pickle`` refuse the same values.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.n_cells >= 1 and float(self.n_cells).is_integer()):
            raise ConfigError(f"grid.n_cells must be >= 1 and whole, got {self.n_cells}")
        if not math.isfinite(self.l) or self.l <= 0:
            raise ValueError(f"tube length l must be positive, got {self.l}")
        return self

    @classmethod
    def _make(cls, iterable) -> Grid:
        """Through ``__new__``, which a named tuple's ``_make`` and ``_replace`` skip otherwise."""
        return cls(*iterable)

    @property
    def dx(self) -> float:
        return self.l / self.n_cells

    @property
    def dt(self) -> float:
        """Solver time step; equal to dx (unit transport speed, CFL = 1)."""
        return self.dx

    @property
    def nodes(self) -> np.ndarray:
        import numpy as np

        return np.linspace(0.0, self.l, self.n_cells + 1)

    def snap_steps(
        self, duration: float, minimum: int = 0, dt: float | None = None
    ) -> tuple[int, float, bool]:
        """Round a duration to a whole number of steps of dt (default: the grid's step).

        Returns (step count, snapped duration, whether snapping changed it).
        """
        return _snap(duration, self.dt if dt is None else dt, minimum)

    def snap_tau(self, tau: float) -> tuple[int, float, bool]:
        """Snap a delay to the step grid; the delay is at least one step."""
        return self.snap_steps(tau, minimum=1)


def check_field(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Validate shape and finiteness of a field against its grid."""
    import numpy as np

    field = np.asarray(field, dtype=float)
    expected = (grid.n_cells + 1, 2)
    if field.shape != expected:
        raise ValueError(f"field shape {field.shape} does not match grid {expected}")
    if not np.all(np.isfinite(field)):
        raise ValueError("field contains non-finite entries")
    return field


def _l2(field: np.ndarray, dx: float) -> float:
    """Trapezoid approximation of the L2(0, l) norm of a field with node spacing dx."""
    import numpy as np

    return float(np.sqrt(np.trapezoid(field[:, 0] ** 2 + field[:, 1] ** 2, dx=dx)))

