"""Solution operators for the coupled transport system.

``step_exact`` advances one time step of size dt = dx by the method of
characteristics: the characteristic through (t + dt, x_i) passes through
(t, x_{i-1}), and along it the coupling ODE is solved exactly by the
closed-form matrix exponential.  The update is therefore exact at the
nodes, with no discretization error beyond floating-point rounding.

``step_upwind`` is an independent first-order scheme (upwind advection at
CFL <= 1, then exact coupling at each node, i.e. operator splitting) used
to cross-validate the exact solver.  At CFL = 1 the split update reduces
algebraically to the characteristic update.

Boundary convention: node 0 at time t carries u(t) exactly.  A mismatch
between the initial profile and u at the inflow corner is allowed; the
discontinuity just propagates along the characteristic x = t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import coupling_matrix
from .grid import Grid, _l2, check_field
from .params import Params


def as_trace(inputs):
    """Normalize a boundary-input source to a callable t -> (u1, u2).

    Accepts a callable, an object with an ``at`` method (``InputHistory``),
    or None for zero input.
    """
    if inputs is None:
        return lambda t: np.zeros(2)
    if hasattr(inputs, "at"):
        return inputs.at
    if callable(inputs):
        return inputs
    raise TypeError(f"cannot use {type(inputs).__name__} as a boundary trace")


@dataclass(frozen=True)
class SolverState:
    """Field at a single step-aligned time, with its grid and parameters."""

    t: float
    field: np.ndarray
    grid: Grid
    params: Params

    def __post_init__(self) -> None:
        check_field(self.field, self.grid)


@dataclass
class Trajectory:
    """Step-aligned time series recorded during a run.

    plant_l2 is the L2 norm of the evolved state (for error-system runs,
    the error state).  obs_err_l2 and pred_err_at_l are zero except in
    observer-predictor runs; u[0] is zero by convention since node 0 at
    t = 0 carries the initial profile, not a boundary input.  Snapshots of
    the full field are kept at a configurable stride.
    """

    t: np.ndarray
    plant_l2: np.ndarray
    obs_err_l2: np.ndarray
    pred_err_at_l: np.ndarray
    u: np.ndarray
    exit_values: np.ndarray
    snapshot_t: np.ndarray
    snapshots: np.ndarray
    dt: float

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.plant_l2))
            and np.all(np.isfinite(self.obs_err_l2))
            and np.all(np.isfinite(self.pred_err_at_l))
            and np.all(np.isfinite(self.u))
            and np.all(np.isfinite(self.exit_values))
        )


class Recorder:
    """Preallocated collector filling a Trajectory step by step.

    ``record`` fills the norm, input, exits and snapshots; a run with an
    observer writes ``obs_err_l2`` and ``pred_err_at_l`` itself.
    """

    def __init__(self, grid: Grid, n_steps: int, dt: float, snapshot_stride: float):
        if snapshot_stride <= 0:
            raise ValueError("snapshot stride must be positive")
        self.dt = dt
        self.dx = grid.dx
        total = n_steps + 1
        self.t = np.arange(total) * dt
        self.plant_l2 = np.zeros(total)
        self.obs_err_l2 = np.zeros(total)
        self.pred_err_at_l = np.zeros((total, 2))
        self.u = np.zeros((total, 2))
        self.exit_values = np.zeros((total, 2))
        horizon = n_steps * dt
        marks = int(np.floor(horizon / snapshot_stride + 1e-9))
        steps = {min(n_steps, int(round(q * snapshot_stride / dt))) for q in range(marks + 1)}
        steps.add(0)
        self._snap_steps = sorted(steps)
        self._snap_lookup = {j: idx for idx, j in enumerate(self._snap_steps)}
        self.snapshots = np.zeros((len(self._snap_steps), grid.n_cells + 1, 2))

    def record(self, j: int, field: np.ndarray, u):
        self.plant_l2[j] = _l2(field, self.dx)
        self.u[j] = u
        self.exit_values[j] = field[-1]
        idx = self._snap_lookup.get(j)
        if idx is not None:
            self.snapshots[idx] = field

    def finish(self) -> Trajectory:
        return Trajectory(
            t=self.t,
            plant_l2=self.plant_l2,
            obs_err_l2=self.obs_err_l2,
            pred_err_at_l=self.pred_err_at_l,
            u=self.u,
            exit_values=self.exit_values,
            snapshot_t=np.asarray(self._snap_steps) * self.dt,
            snapshots=self.snapshots,
            dt=self.dt,
        )


def _advance_exact(field: np.ndarray, step_matrix: np.ndarray, u_new) -> np.ndarray:
    out = np.empty_like(field)
    np.matmul(field[:-1], step_matrix.T, out=out[1:])
    out[0] = u_new
    return out


def _advance_upwind(
    field: np.ndarray, step_matrix: np.ndarray, cfl: float, u_new, out=None, adv=None
) -> np.ndarray:
    """One split upwind step of a field of shape (n_cells+1, ..., 2).

    The axes between the node and the stream axis stack independent runs
    that share the grid, CFL and coupling.  ``out`` and ``adv`` are
    optional C-contiguous buffers of the field's shape; ``out`` receives
    the new field, which is returned.  The mixing is one 2-D matmul over
    every (node, run) row.  Its right operand is a C-contiguous copy of
    ``step_matrix.T``: BLAS then skips its transposed path, which at these
    shapes is two to three times slower; the products are the same bits
    (tests/test_analysis.py compares against the transposed view).
    """
    if out is None:
        out = np.empty(field.shape)
    if adv is None:
        adv = np.empty(field.shape)
    np.multiply(field[1:], 1.0 - cfl, out=adv[1:])
    np.multiply(field[:-1], cfl, out=out[1:])
    np.add(adv[1:], out[1:], out=adv[1:])
    adv[0] = field[0]
    mix = np.ascontiguousarray(step_matrix.T)
    np.matmul(adv.reshape(-1, 2), mix, out=out.reshape(-1, 2))
    out[0] = u_new
    return out


def step_exact(state: SolverState, inputs) -> SolverState:
    """Advance one exact characteristic step of size dt = dx."""
    trace = as_trace(inputs)
    dt = state.grid.dt
    t_new = state.t + dt
    step_matrix = coupling_matrix(dt, state.params.h1, state.params.h2)
    field = _advance_exact(state.field, step_matrix, trace(t_new))
    return SolverState(t=t_new, field=field, grid=state.grid, params=state.params)


def step_upwind(state: SolverState, inputs, cfl: float) -> SolverState:
    """Advance one split upwind step of size dt = cfl * dx."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    trace = as_trace(inputs)
    dt = cfl * state.grid.dx
    t_new = state.t + dt
    step_matrix = coupling_matrix(dt, state.params.h1, state.params.h2)
    field = _advance_upwind(state.field, step_matrix, cfl, trace(t_new))
    return SolverState(t=t_new, field=field, grid=state.grid, params=state.params)


def solve_exact(
    theta0: np.ndarray,
    inputs,
    T: float,
    params: Params,
    grid: Grid,
    snapshot_stride: float = 0.1,
    t0: float = 0.0,
) -> Trajectory:
    """Run the exact solver from t0 to t0 + T and record the trajectory."""
    trace = as_trace(inputs)
    field = check_field(theta0, grid).copy()
    dt = grid.dt
    n_steps, _, _ = grid.snap_steps(T)
    step_matrix = coupling_matrix(dt, params.h1, params.h2)
    rec = Recorder(grid, n_steps, dt, snapshot_stride)
    rec.t = rec.t + t0
    rec.record(0, field, np.zeros(2))
    for j in range(1, n_steps + 1):
        u_new = np.asarray(trace(t0 + j * dt), dtype=float)
        field = _advance_exact(field, step_matrix, u_new)
        rec.record(j, field, u_new)
    return rec.finish()


def solve_upwind(
    theta0: np.ndarray,
    inputs,
    T: float,
    params: Params,
    grid: Grid,
    cfl: float = 1.0,
    snapshot_stride: float = 0.1,
    t0: float = 0.0,
) -> Trajectory:
    """Run the split upwind solver from t0 to t0 + T at the given CFL."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    trace = as_trace(inputs)
    field = check_field(theta0, grid).copy()
    dt = cfl * grid.dx
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"final time {T} is not a whole number of steps dt={dt}")
    step_matrix = coupling_matrix(dt, params.h1, params.h2)
    rec = Recorder(grid, n_steps, dt, snapshot_stride)
    rec.t = rec.t + t0
    rec.record(0, field, np.zeros(2))
    for j in range(1, n_steps + 1):
        u_new = np.asarray(trace(t0 + j * dt), dtype=float)
        field = _advance_upwind(field, step_matrix, cfl, u_new)
        rec.record(j, field, u_new)
    return rec.finish()


def closed_form_state(
    theta0: np.ndarray, inputs, t: float, params: Params, grid: Grid
) -> np.ndarray:
    """Evaluate the solution at time t directly from the closed form.

    theta(t, x) = exp(A1 t) theta0(x - t) where the characteristic reaches
    back to the initial data (x >= t), and exp(A1 x) u(t - x) where it
    reaches back to the boundary (x < t).  Used as an independent check of
    the stepped solver; both must agree to rounding.
    """
    trace = as_trace(inputs)
    theta0 = check_field(theta0, grid)
    j, t_snapped, changed = grid.snap_steps(t)
    if changed:
        raise ValueError(f"time {t} is not aligned to the step grid (dt={grid.dt})")
    n = grid.n_cells
    field = np.empty((n + 1, 2))
    prop_t = coupling_matrix(t_snapped, params.h1, params.h2)
    for i in range(n + 1):
        if i >= j:
            field[i] = prop_t @ theta0[i - j]
        else:
            field[i] = coupling_matrix(i * grid.dx, params.h1, params.h2) @ np.asarray(
                trace((j - i) * grid.dt), dtype=float
            )
    return field


def evaluate_output(trajectory: Trajectory, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Delayed exit measurements y(t) = (theta2(t - tau, l), theta1(t - tau, l)).

    Returns the step-aligned times t >= tau covered by the trajectory and
    the matching output pairs (note the swapped order: channel 1 observes
    stream 2 and vice versa).
    """
    m = int(round(tau / trajectory.dt))
    if m < 1 or abs(m * trajectory.dt - tau) > 1e-9 * max(1.0, tau):
        raise ValueError(f"tau={tau} is not a positive whole number of steps dt={trajectory.dt}")
    if m >= len(trajectory.t):
        return trajectory.t[:0], np.zeros((0, 2))
    times = trajectory.t[m:]
    y = trajectory.exit_values[:-m][:, ::-1].copy()
    return times, y


def output_at(trajectory: Trajectory, tau: float, t: float) -> np.ndarray:
    """Point lookup of the delayed output; undefined before t = tau."""
    if t < tau - 1e-9 * max(1.0, tau):
        raise ValueError(f"output undefined before t = tau ({tau}); got t={t}")
    times, y = evaluate_output(trajectory, tau)
    j = int(round((t - times[0]) / trajectory.dt))
    if j < 0 or j >= len(times) or abs(times[0] + j * trajectory.dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"trajectory does not cover the step-aligned time {t}")
    return y[j].copy()
