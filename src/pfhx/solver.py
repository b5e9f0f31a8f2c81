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

import math
import os
from dataclasses import dataclass

import numpy as np

from .coupling import coupling_matrix, fast_exponent, finite_rates
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


# A block holds about 256 KB of plant fields: it stays in cache while it fills.
_NORM_BLOCK_BYTES = 2**18


def _physical_memory() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf


def _block_l2(theta1: np.ndarray, theta2: np.ndarray, dx: float, out: np.ndarray, work: np.ndarray):
    """Write the trapezoid L2 norm of each field of a block into ``out``.

    Field k has the streams ``theta1[k]`` and ``theta2[k]``, each over the
    nodes.  The arithmetic is ``_l2``'s, so each norm has the same bits,
    which a fused weighted dot would not give.  ``work`` holds two arrays
    of the streams' shape, which may be the streams themselves; reusing it
    keeps the heap from shrinking and regrowing, with its page faults, at
    every block.
    """
    s, t = work[0][: len(out)], work[1][: len(out)]
    np.square(theta1, out=s)
    np.square(theta2, out=t)
    np.add(s, t, out=s)
    t = t[:, :-1]
    np.add(s[:, 1:], s[:, :-1], out=t)  # np.trapezoid: (dx * (y[1:] + y[:-1]) / 2.0).sum()
    np.multiply(dx, t, out=t)
    np.divide(t, 2.0, out=t)
    np.sum(t, axis=-1, out=out)
    np.sqrt(out, out=out)


def _block_rows(n_nodes: int) -> int:
    return max(8, _NORM_BLOCK_BYTES // (16 * n_nodes))


def _snapshot_steps(n_steps: int, dt: float, snapshot_stride: float) -> np.ndarray:
    """The steps a run keeps a snapshot of: step 0, then the step nearest each stride mark."""
    if 2 * snapshot_stride < dt:  # a mark in every half step: every step, however many marks
        return np.arange(n_steps + 1)
    marks = int(np.floor(n_steps * dt / snapshot_stride + 1e-9))  # the marks after t = 0
    if snapshot_stride <= dt:  # marks at most a step apart reach every step to the last
        return np.arange(min(n_steps, round(marks * snapshot_stride / dt)) + 1)
    steps = np.round(np.arange(1, marks + 1) * snapshot_stride / dt)
    steps = np.append(0, np.minimum(n_steps, steps).astype(int))
    # non-decreasing: dropping repeats is np.unique, without the numpy.ma it imports
    return steps[np.append(True, steps[1:] != steps[:-1])]


class _Tube:
    """One field of a run held as its inlet history: the exact solver without stepping.

    Both speeds are one, so at step j node i carries exp(A1 s) o[j - i] with
    s = min(i, j) dt.  The origin o[k] is the inlet pair ``u[k]`` for k >= 1
    and the initial field's node -k for k <= 0.  exp(A1 s) keeps the mean
    w = b v1 + a v2 and scales the difference d = v1 - v2 by
    e^{-(h1 + h2) s}, with a = h1 / (h1 + h2) and b = h2 / (h1 + h2) (both
    1/2 when nothing mixes), so the node is (w + a e d, w - b e d).  The
    origins are kept as (w, d), ``w[k + n]`` and ``d[k + n]``.  Until the run
    feeds the inlet history, the exits of steps 0 .. n, which read the
    initial field only, are known.
    """

    # What an exact run allocates per step beyond a Recorder's columns: its
    # tubes' origins, the inlet histories and the norm sums' terms.
    BYTES_PER_STEP = 104.0

    def __init__(self, field0: np.ndarray, n_steps: int, params: Params, dx: float):
        self.n = n = len(field0) - 1
        self.dx, self.field0 = dx, field0
        h1, h2, rate = finite_rates(params.h1, params.h2)
        self.a, self.b = (h1 / rate, h2 / rate) if rate else (0.5, 0.5)
        # e at s = i dx
        self.decay = np.exp(-fast_exponent(params.h1, params.h2, dx * np.arange(n + 1)))
        self.w, self.d = np.empty(n_steps + n + 1), np.empty(n_steps + n + 1)
        self._origins(0, field0[::-1])

    def _origins(self, index: int, pairs: np.ndarray) -> None:
        v1, v2 = pairs[:, 0], pairs[:, 1]
        end = index + len(pairs)
        np.add(self.b * v1, self.a * v2, out=self.w[index:end])
        np.subtract(v1, v2, out=self.d[index:end])

    def feed(self, u: np.ndarray) -> None:
        """The inlet pair of every step, kept as ``u``; u[0] is not read (step 0 carries field0)."""
        self.u = u
        self._origins(self.n + 1, u[1:])

    def _values(self, k, e, out=None) -> np.ndarray:
        """The pairs that origins ``k`` (indices or a slice) become after the decays ``e``."""
        w, ed = self.w[k], e * self.d[k]
        if out is None:
            out = np.empty(ed.shape + (2,))
        np.add(w, self.a * ed, out=out[..., 0])
        np.subtract(w, self.b * ed, out=out[..., 1])
        return out

    def exits(self, j0: int, j1: int) -> np.ndarray:
        """The exit pairs of steps j0 .. j1 - 1, from the origins n steps earlier."""
        out = np.empty((max(0, j1 - j0), 2))
        head = min(max(j0, self.n), j1)  # the steps before it read the initial field only
        self._values(slice(head, j1), self.decay[-1], out[head - j0:])
        j = np.arange(j0, head)
        self._values(j, self.decay[j], out[:head - j0])
        if j0 == 0 < j1:
            out[0] = self.field0[-1]
        return out

    def fields(self, steps: np.ndarray) -> np.ndarray:
        """The fields at ``steps``, a gather of their origins a few snapshots at a time."""
        n = self.n
        out = np.empty((len(steps), n + 1, 2))
        nodes = np.arange(n + 1)
        chunk = max(1, 2**15 // (n + 1))
        for lo in range(0, len(steps), chunk):
            j = steps[lo:lo + chunk, None]
            out[lo:lo + chunk] = self._values(j - nodes + n, self.decay[np.minimum(nodes, j)])
        out[:, 0] = self.u[steps]  # node 0 carries the inlet pair itself
        if len(steps) and steps[0] == 0:
            out[0] = self.field0
        return out

    def norms(self, count: int) -> np.ndarray:
        """The trapezoid L2 norms of the fields of steps 0 .. count - 1.

        At a node |v|^2 = 2 w^2 + 2 (a - b) e w d + (a^2 + b^2) e^2 d^2, a
        form whose conditioning depends on h1 / h2 alone, so a sum of its
        terms never rounds below zero.  The nodes that read the inlet make
        three direct convolutions of w^2, w d and d^2 with the weighted
        kernels; in the first n steps the nodes i > j still carry the
        initial field, all with the decay of j steps, and add prefix sums.
        Direct, not by FFT, whose rounding would scale with the run's
        largest value rather than with each step's own.
        """
        n, dx, a, b = self.n, self.dx, self.a, self.b
        weight = np.full(n + 1, dx)
        weight[[0, -1]] = dx / 2

        def modes(e):
            return np.full_like(e, 2.0), 2 * (a - b) * e, (a * a + b * b) * (e * e)

        w, d = self.w[n:n + count], self.d[n:n + count]
        total = np.zeros(count)
        for (x, y), coef in zip(((w, w), (w, d), (d, d)), modes(self.decay)):
            total += np.convolve(x * y, weight * coef)[:count]
        head = min(n, count)
        w, d = self.w[n - 1::-1], self.d[n - 1::-1]  # the initial field's nodes 1 .. n
        rest = n - np.arange(head)  # the nodes of step j that still do, the last weighted 1/2
        for x, coef in zip((w * w, w * d, d * d), modes(self.decay[:head])):
            total[:head] += dx * coef * (np.cumsum(x)[rest - 1] - x[rest - 1] / 2)
        return np.sqrt(total)


class Recorder:
    """Preallocated collector filling a Trajectory a block of steps at a time.

    The step kernel writes each new field straight into a row of a
    cache-sized block: ``rows`` hands out the rows of steps j - 1 and j.
    A row has shape (n_cells + 1, 2).  When the block is full, and at
    ``finish``, it is read once to fill ``plant_l2``, ``exit_values`` and
    the snapshots due in it.  The block's last row carries over to the
    next block.  The run writes step 0's field into ``block[0]``, and ``u``
    itself.  Steps arrive in order.
    """

    def __init__(self, grid: Grid, n_steps: int, dt: float, snapshot_stride: float):
        if snapshot_stride <= 0:
            raise ValueError("snapshot stride must be positive")
        self.dt = dt
        self.dx = grid.dx
        total = n_steps + 1
        self.t = np.arange(total) * dt
        self.plant_l2 = np.zeros(total)
        self.u = np.zeros((total, 2))
        self.exit_values = np.zeros((total, 2))
        self._snap_steps = _snapshot_steps(n_steps, dt, snapshot_stride)
        self.snapshots = np.zeros((len(self._snap_steps), grid.n_cells + 1, 2))
        rows = _block_rows(grid.n_cells + 1)
        self.block = np.empty((rows, grid.n_cells + 1, 2))
        self._work = np.empty((2, rows, grid.n_cells + 1))
        self.start = 0  # the step in block row 0
        self.used = 1  # rows written, step 0's included
        self.fresh = 0  # the first row not yet read out

    @staticmethod
    def bytes_needed(n_nodes: int, n_steps: int, dt: float, snapshot_stride: float) -> float:
        """An upper bound on what a run records, from arithmetic alone.

        Its columns, its snapshots, and three blocks' worth of node rows.
        """
        snaps = math.floor(min(n_steps, n_steps * dt / snapshot_stride + 1e-9)) + 1
        per_step = 72.0  # t, both norms, and the pred_err_at_l, u and exit pairs
        return per_step * (n_steps + 1) + 16.0 * n_nodes * (snaps + 3 * _block_rows(n_nodes))

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the previous step and of the next step, which the kernel fills."""
        if self.used == len(self.block):
            self._read_block()
            self.block[0] = self.block[-1]
            self.start += self.used - 1
            self.used = self.fresh = 1
        self.used += 1
        return self.block[self.used - 2], self.block[self.used - 1]

    def _read_block(self) -> None:
        lo, hi = self.start + self.fresh, self.start + self.used
        blk = self.block[self.fresh:self.used]
        _block_l2(blk[..., 0], blk[..., 1], self.dx, self.plant_l2[lo:hi], self._work)
        self.exit_values[lo:hi] = blk[:, -1]
        a, b = np.searchsorted(self._snap_steps, (lo, hi))
        self.snapshots[a:b] = self.block[self._snap_steps[a:b] - self.start]
        self.fresh = self.used

    def finish(self) -> Trajectory:
        self._read_block()
        total = len(self.t)
        return Trajectory(
            t=self.t,
            plant_l2=self.plant_l2,
            obs_err_l2=np.zeros(total),
            pred_err_at_l=np.zeros((total, 2)),
            u=self.u,
            exit_values=self.exit_values,
            snapshot_t=self._snap_steps * self.dt,
            snapshots=self.snapshots,
            dt=self.dt,
        )


def _mix_operand(step_matrix: np.ndarray, rows: int) -> np.ndarray:
    """Right operand that maps each of ``rows`` node rows r to step_matrix @ r.

    A C-contiguous copy of ``step_matrix.T``: BLAS then skips its
    transposed path, which at these shapes is two to three times slower,
    and the products are the same bits.  A single row keeps the transposed
    view: numpy hands one row to BLAS gemv, where the two layouts round
    differently by a few ulp (tests/test_recorder.py compares against the
    transposed view).
    """
    if rows == 1:
        return step_matrix.T
    return np.ascontiguousarray(step_matrix.T)


def _advance_exact(field: np.ndarray, mix: np.ndarray, u_new, out=None) -> np.ndarray:
    """One exact characteristic step of a field of shape (n_cells+1, 2).

    Node i + 1 takes the step matrix applied to node i and node 0 takes
    ``u_new``; ``mix`` is ``_mix_operand(step_matrix, n_cells)``, made once
    per run.  At n_cells = 1 the node row is a stack of one, which numpy
    hands to gemv.  ``out``, a C-contiguous buffer of the field's shape,
    receives the new field, which is returned.
    """
    if out is None:
        out = np.empty(field.shape)
    if len(field) == 2:
        np.matmul(field[0].reshape(-1, 1, 2), mix, out=out[1].reshape(-1, 1, 2))
    else:
        np.matmul(field[:-1], mix, out=out[1:])
    out[0] = u_new
    return out


def _advance_upwind(field: np.ndarray, out: np.ndarray, adv: np.ndarray, mix: np.ndarray,
                    cfl: float) -> None:
    """One split upwind step from ``field`` into ``out``, with ``adv`` as scratch.

    The three are C-contiguous buffers of shape (n_cells+1, 2).  Every node
    of ``out`` but node 0, which the caller sets to the inflow, receives
    the new field.  ``mix`` is ``_mix_operand(step_matrix, n_cells + 1)``,
    made once per run.
    """
    np.multiply(field[1:], 1.0 - cfl, out=adv[1:])
    np.multiply(field[:-1], cfl, out=out[1:])
    np.add(adv[1:], out[1:], out=adv[1:])
    adv[0] = field[0]
    np.matmul(adv, mix, out=out)


def _march(rec: Recorder, params: Params, cfl: float | None, inflow) -> Trajectory:
    """The one loop that steps a Recorder, from its first row to its last.

    Each step advances the field by one exact step (``cfl`` None) or one
    split upwind step at ``cfl``, and sets its node 0 to ``inflow(j)``, the
    inflow pair at step j.  The kernels are looked up at each call, where
    the benchmark's tracer wraps them.
    """
    n = rec.block.shape[1] - 1
    mix = _mix_operand(coupling_matrix(rec.dt, params.h1, params.h2), n if cfl is None else n + 1)
    adv = np.empty(rec.block.shape[1:])
    for j in range(1, len(rec.t)):
        prev, row = rec.rows()
        rec.u[j] = u = inflow(j)
        if cfl is None:
            _advance_exact(prev, mix, u, row)
        else:
            _advance_upwind(prev, row, adv, mix, cfl)
            row[0] = u
    return rec.finish()


def step_exact(field: np.ndarray, t: float, inputs, params: Params, grid: Grid) -> np.ndarray:
    """Advance a field from time t by one exact characteristic step of size dt = dx.

    Returns the new field; its node 0 carries the input u(t + dt).
    """
    dt = grid.dt
    mix = _mix_operand(coupling_matrix(dt, params.h1, params.h2), grid.n_cells)
    return _advance_exact(check_field(field, grid), mix, as_trace(inputs, dt)(t + dt))


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
    n_steps = grid.snap_steps(T)[0]
    return _solve(check_field(theta0, grid), inputs, n_steps, params, grid, None, snapshot_stride,
                  t0)


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
    n_steps, _, changed = grid.snap_steps(T, dt=cfl * grid.dx)
    if changed:
        raise ValueError(f"final time {T} is not a whole number of steps dt={cfl * grid.dx}")
    return _solve(check_field(theta0, grid), inputs, n_steps, params, grid, cfl, snapshot_stride,
                  t0)


def _solve(theta0, inputs, n_steps, params, grid, cfl, snapshot_stride, t0) -> Trajectory:
    """A run step by step: theta0 at t0, then the inputs at each step's time.

    The exact solver at ``cfl`` None, else the upwind scheme, whose step is
    cfl * dx: the solver oracles, and the upwind open loop.
    """
    dt = grid.dt if cfl is None else cfl * grid.dx
    trace = as_trace(inputs, dt)
    rec = Recorder(grid, n_steps, dt, snapshot_stride)
    rec.t = rec.t + t0
    rec.block[0] = theta0
    return _march(rec, params, cfl, lambda j: trace(t0 + j * dt))


def closed_form_state(
    theta0: np.ndarray, inputs, t: float, params: Params, grid: Grid
) -> np.ndarray:
    """Evaluate the solution at time t directly from the closed form.

    theta(t, x) = exp(A1 t) theta0(x - t) where the characteristic reaches
    back to the initial data (x >= t), and exp(A1 x) u(t - x) where it
    reaches back to the boundary (x < t).  Used as an independent check of
    ``solve_exact``, both agreeing to rounding, and started at t - tau
    from the estimate, it is the predictor (``observer.predict``).
    """
    trace = as_trace(inputs, grid.dt)
    theta0 = check_field(theta0, grid)
    j, t_snapped, changed = grid.snap_steps(t)
    if changed:
        raise ValueError(f"time {t} is not aligned to the step grid (dt={grid.dt})")
    n = grid.n_cells
    k = min(j, n + 1)  # the nodes whose characteristic reaches back to the boundary
    field = np.empty((n + 1, 2))
    for i in range(k):
        field[i] = coupling_matrix(i * grid.dx, params.h1, params.h2) @ np.asarray(
            trace((j - i) * grid.dt), dtype=float
        )
    field[k:] = theta0[: n + 1 - k] @ coupling_matrix(t_snapped, params.h1, params.h2).T
    return field
