"""Solution operators for the coupled transport system.

``step_exact`` advances one time step of size dt = dx by the method of
characteristics: the characteristic through (t + dt, x_i) passes through
(t, x_{i-1}), and along it the coupling ODE is solved exactly by the
closed-form matrix exponential.  The update is therefore exact at the
nodes, with no discretization error beyond floating-point rounding.

``solve_upwind`` runs an independent first-order scheme (upwind advection
at CFL <= 1, then exact coupling at each node, i.e. operator splitting)
used to cross-validate the exact solver.  At CFL = 1 the split update
reduces algebraically to the characteristic update.

Every solver reads its boundary input through ``history.as_trace``: zero,
a callable, or a step-indexed array such as a recorded ``Trajectory.u``.

Boundary convention: node 0 at time t carries u(t) exactly.  A mismatch
between the initial profile and u at the inflow corner is allowed; the
discontinuity just propagates along the characteristic x = t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import coupling_matrix
from .grid import Grid, check_field
from .history import as_trace
from .params import Params


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


# A norm block holds about 256 KB of fields: it stays in cache while it fills.
_NORM_BLOCK_BYTES = 2**18


class _NormBlock:
    """Fields copied row by row into a cache-sized block, normed a block at a time.

    Row k of the block holds step ``start + k``; steps arrive in order.  When
    the block is full, and at ``flush``, one trapezoid over the whole block
    fills ``norms[start:start + used]``.  Each row's norm has the same bits
    as ``_l2`` on that field, which a fused weighted dot would not give.
    """

    def __init__(self, norms: np.ndarray, n_nodes: int, dx: float):
        rows = max(8, _NORM_BLOCK_BYTES // (16 * n_nodes))
        self.buf = np.empty((rows, n_nodes, 2))
        self.norms = norms
        self.dx = dx
        self.start = 0
        self.used = 0

    def row(self, j: int) -> np.ndarray:
        """The block row that step j is written into."""
        if self.used == len(self.buf):
            self.flush()
        if not self.used:
            self.start = j
        self.used += 1
        return self.buf[self.used - 1]

    def flush(self) -> None:
        if self.used:
            blk = self.buf[: self.used]
            self.norms[self.start:self.start + self.used] = np.sqrt(
                np.trapezoid(blk[..., 0] ** 2 + blk[..., 1] ** 2, dx=self.dx, axis=-1)
            )
            self.used = 0


class Recorder:
    """Preallocated collector filling a Trajectory step by step.

    ``record`` fills the input, exits and snapshots and copies the field
    into a norm block; a run with an observer writes ``pred_err_at_l`` and
    the early ``obs_err_l2`` entries itself and hands the later observer
    errors to ``record_obs_err``.  The norms are complete after ``finish``.
    Steps must be recorded in order.
    """

    def __init__(self, grid: Grid, n_steps: int, dt: float, snapshot_stride: float):
        if snapshot_stride <= 0:
            raise ValueError("snapshot stride must be positive")
        self.dt = dt
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
        self._plant_norms = _NormBlock(self.plant_l2, grid.n_cells + 1, grid.dx)
        self._obs_err_norms = _NormBlock(self.obs_err_l2, grid.n_cells + 1, grid.dx)

    def record(self, j: int, field: np.ndarray, u):
        self._plant_norms.row(j)[...] = field
        self.u[j] = u
        self.exit_values[j] = field[-1]
        idx = self._snap_lookup.get(j)
        if idx is not None:
            self.snapshots[idx] = field

    def record_obs_err(self, j: int, obs: np.ndarray, plant: np.ndarray):
        """Queue the norm of the observer error obs - plant as ``obs_err_l2[j]``."""
        np.subtract(obs, plant, out=self._obs_err_norms.row(j))

    def finish(self) -> Trajectory:
        self._plant_norms.flush()
        self._obs_err_norms.flush()
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


def _mix_operand(step_matrix: np.ndarray, rows: int) -> np.ndarray:
    """Right operand that maps each of ``rows`` node rows r to step_matrix @ r.

    A C-contiguous copy of ``step_matrix.T``: BLAS then skips its
    transposed path, which at these shapes is two to three times slower,
    and the products are the same bits.  A single row keeps the transposed
    view: numpy hands one row to BLAS gemv, where the two layouts round
    differently by a few ulp (tests/test_recorder.py and
    tests/test_analysis.py compare against the transposed view).
    """
    if rows == 1:
        return step_matrix.T
    return np.ascontiguousarray(step_matrix.T)


def _advance_exact(field: np.ndarray, step_matrix: np.ndarray, u_new) -> np.ndarray:
    out = np.empty_like(field)
    np.matmul(field[:-1], _mix_operand(step_matrix, len(field) - 1), out=out[1:])
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
    every (node, run) row, with the operand ``_mix_operand`` gives.
    """
    if out is None:
        out = np.empty(field.shape)
    if adv is None:
        adv = np.empty(field.shape)
    np.multiply(field[1:], 1.0 - cfl, out=adv[1:])
    np.multiply(field[:-1], cfl, out=out[1:])
    np.add(adv[1:], out[1:], out=adv[1:])
    adv[0] = field[0]
    rows = adv.reshape(-1, 2)
    np.matmul(rows, _mix_operand(step_matrix, len(rows)), out=out.reshape(-1, 2))
    out[0] = u_new
    return out


def step_exact(field: np.ndarray, t: float, inputs, params: Params, grid: Grid) -> np.ndarray:
    """Advance a field from time t by one exact characteristic step of size dt = dx.

    Returns the new field; its node 0 carries the input u(t + dt).
    """
    dt = grid.dt
    step_matrix = coupling_matrix(dt, params.h1, params.h2)
    return _advance_exact(check_field(field, grid), step_matrix, as_trace(inputs, dt)(t + dt))


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
    dt = grid.dt
    trace = as_trace(inputs, dt)
    field = check_field(theta0, grid).copy()
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
    dt = cfl * grid.dx
    trace = as_trace(inputs, dt)
    field = check_field(theta0, grid).copy()
    n_steps, _, changed = grid.snap_steps(T, dt=dt)
    if changed:
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
    trace = as_trace(inputs, grid.dt)
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
