"""Solution operators for the coupled transport system.

The exact solution is held by ``_Tube``: both speeds are one, so each
node carries the closed form exp(A1 s) applied to the pair its
characteristic starts from, a node of the initial field or an inlet pair.
The characteristic through (t, x_i) reaches back to (t - x_i, 0) or to
(0, x_i - t), and along it the coupling ODE is solved exactly.  A tube fed
with its inlet pairs gives any step's exits, any snapshot and every
step's norm with no field advanced step by step, and with no
discretization error beyond floating-point rounding.  It is the exact
solver of every run (``loop._recur``), of ``solve_exact`` and of
``closed_form_state``, the field at one time, which is also the
predictor (``observer.predict``).

``solve_upwind`` runs an independent first-order scheme (upwind advection
at CFL <= 1, then exact coupling at each node, i.e. operator splitting)
used to cross-validate the exact solver.  At CFL = 1 the split update
reduces algebraically to the characteristic update.  It is the one
solver that steps: ``_solve`` reads every step's input before its loop,
holds two fields and writes each step's norm, exit pair and any due
snapshot straight into the run's columns.

Every solver reads its boundary input as the rows of its steps from
``history.rows``: zero, a pair of scalar signals, a callable, or a
step-indexed array such as a recorded ``Trajectory.u``.

Boundary convention: node 0 at time t carries u(t) exactly.  A mismatch
between the initial profile and u at the inflow corner is allowed; the
discontinuity just propagates along the characteristic x = t.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from .coupling import coupling_matrix, fast_exponent, finite_rates
from .grid import Grid, _l2, aligned_steps, check_field
from .history import rows
from .params import Params


class Trajectory(NamedTuple):
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

    def columns(self) -> list[np.ndarray]:
        """The per-step columns, as views, in the order norms.csv writes them."""
        return [self.t, self.plant_l2, self.obs_err_l2, *self.pred_err_at_l.T, *self.u.T,
                *self.exit_values.T]

    def is_finite(self) -> bool:
        return all(np.isfinite(column).all() for column in self.columns())


def _physical_memory() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf


def bytes_needed(n_nodes: int, n_steps: int, dt: float, snapshot_stride: float,
                 tubes: bool) -> float:
    """An upper bound on what a run allocates, from arithmetic alone.

    Its per-step columns, its snapshots, the upwind step's three rows and,
    for a run on the exact solver (``tubes``), what its tubes hold per step.
    """
    snaps = math.floor(min(n_steps, n_steps * dt / snapshot_stride + 1e-9)) + 1
    per_step = 72.0 + _Tube.BYTES_PER_STEP * tubes  # t, both norms, the three pair columns
    return per_step * (n_steps + 1) + 16.0 * n_nodes * (snaps + 3)


def _refuse_beyond_memory(run, grid, n_steps, dt, snapshot_stride, tubes, error=ValueError) -> None:
    """Refuse a recording beyond physical memory before allocating; ``run`` words the run."""
    need = bytes_needed(grid.n_cells + 1, n_steps, dt, snapshot_stride, tubes)
    memory = _physical_memory()
    if need > memory:
        raise error(f"{run} needs {need / 2**30:.3g} GiB to record, "
                    f"more than the physical memory ({memory / 2**30:.3g} GiB)")


def _run_steps(t: float, dt: float) -> int:
    """The steps of dt a library solver takes to reach a time t, which is >= 0 and on its grid."""
    if t < 0:
        raise ValueError(f"time {t!r} is negative: a solver runs forward from its start t0")
    return aligned_steps(t, dt)


def _checked_run(theta0, T, grid, dt, snapshot_stride, tubes) -> tuple[np.ndarray, int]:
    """A library run's checked initial field and its steps of dt to T, within physical memory."""
    if not snapshot_stride > 0:
        raise ValueError("snapshot stride must be positive")
    n_steps = _run_steps(T, dt)
    theta0 = check_field(theta0, grid)
    _refuse_beyond_memory(f"final time {T:g} at n_cells={grid.n_cells}", grid, n_steps, dt,
                          snapshot_stride, tubes)
    return theta0, n_steps


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

    # What an exact run allocates per step beyond its columns: its tubes'
    # origins, the inlet histories and the norm sums' terms.
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

    def _gather(self, j, i) -> np.ndarray:
        """Node i of step j (arrays that broadcast): origin j - i, decayed min(i, j) steps."""
        k, e = j - i + self.n, self.decay[np.minimum(i, j)]
        w, ed = self.w[k], e * self.d[k]
        out = np.empty(ed.shape + (2,))
        np.add(w, self.a * ed, out=out[..., 0])
        np.subtract(w, self.b * ed, out=out[..., 1])
        return out

    def exits(self, j0: int, j1: int) -> np.ndarray:
        """The exit pairs of steps j0 .. j1 - 1, node n of the gather ``fields`` makes."""
        out = self._gather(np.arange(j0, j1), self.n)
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
            out[lo:lo + chunk] = self._gather(steps[lo:lo + chunk, None], nodes)
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
        largest value rather than with each step's own.  A term that
        overflows makes inf - inf or inf * 0, a nan where |v|^2 is +inf: a
        step is nan only where a node it reads is, node 0 the inlet pair
        and node i the origin j - i, as a step-by-step norm is.
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
        norms = np.sqrt(total)
        lost = np.isnan(norms)
        if lost.any():  # nodes 1 .. n mix the origins j - n .. j - 1, node 0 is u[j] itself
            nan = np.isnan(self.w[:count + n]) | np.isnan(self.d[:count + n])
            reads = np.cumsum(np.append(0, nan))  # the nan origins before each index
            lost &= reads[n:n + count] == reads[:count]
            lost[1:] &= ~np.isnan(self.u[1:count]).any(axis=1)
            norms[lost] = np.inf
        return norms

    def trajectory(self, snapshot_stride: float, t0: float = 0.0) -> Trajectory:
        """The columns of the run the fed tube holds, from t0: its norms, exits and snapshots."""
        total, dt = len(self.u), self.dx
        steps = _snapshot_steps(total - 1, dt, snapshot_stride)
        return _plant_trajectory(dt, t0, self.norms(total), self.u, self.exits(0, total), steps,
                                 self.fields(steps))


def _plant_trajectory(dt, t0, plant_l2, u, exit_values, steps, snapshots) -> Trajectory:
    """A run's columns from t0, from its plant's and the ``steps`` its snapshots are of.

    The observer columns are zero; a run that has an observer fills them.
    """
    total = len(u)
    return Trajectory(t=np.arange(total) * dt + t0, plant_l2=plant_l2, obs_err_l2=np.zeros(total),
                      pred_err_at_l=np.zeros((total, 2)), u=u, exit_values=exit_values,
                      snapshot_t=steps * dt + t0, snapshots=snapshots, dt=dt)


def solve_exact(
    theta0: np.ndarray,
    inputs,
    T: float,
    params: Params,
    grid: Grid,
    snapshot_stride: float = 0.1,
    t0: float = 0.0,
) -> Trajectory:
    """Run the exact solver from t0 to t0 + T and record the trajectory.

    A tube fed with the inputs at t0 + j dt.  ``t`` and ``snapshot_t``
    count from t0, as in ``solve_upwind``.
    """
    theta0, n_steps = _checked_run(theta0, T, grid, grid.dt, snapshot_stride, True)
    tube = _Tube(theta0, n_steps, params, grid.dt)
    tube.feed(np.vstack((np.zeros(2), rows(inputs, 1, n_steps, grid.dt, t0))))
    return tube.trajectory(snapshot_stride, t0)


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
    """Run the split upwind solver from t0 to t0 + T at the given CFL.

    ``t`` and ``snapshot_t`` count from t0, as in ``solve_exact``.
    """
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    theta0, n_steps = _checked_run(theta0, T, grid, cfl * grid.dx, snapshot_stride, False)
    return _solve(theta0, inputs, n_steps, params, grid, cfl, snapshot_stride, t0)


def _solve(theta0, inputs, n_steps, params, grid, cfl, snapshot_stride, t0) -> Trajectory:
    """The split upwind scheme at ``cfl``: theta0 at t0, then the inputs of each step.

    The one loop that steps, for the upwind solver and the upwind open
    loop.  It reads the inputs of every step first, then holds two fields:
    each step mixes neighbouring nodes of ``field`` into ``adv``, then
    couples every node into ``spare`` by the step matrix's transpose, made
    once as a C-contiguous copy: BLAS then skips its transposed path, which
    at these shapes is two to three times slower, for the same bits.  The
    new field's norm, exit pair and any due snapshot go straight into the
    columns.
    """
    dt, dx, total = cfl * grid.dx, grid.dx, n_steps + 1
    u = np.vstack((np.zeros(2), rows(inputs, 1, n_steps, dt, t0)))
    plant_l2, exit_values = np.empty(total), np.empty((total, 2))
    steps = _snapshot_steps(n_steps, dt, snapshot_stride)
    snapshots = np.empty((len(steps),) + theta0.shape)
    due = dict(zip(steps.tolist(), range(len(steps))))  # step -> its snapshot
    mix = np.ascontiguousarray(coupling_matrix(dt, params.h1, params.h2).T)
    field, spare, adv = theta0.copy(), np.empty_like(theta0), np.empty_like(theta0)
    for j in range(total):
        if j:
            np.multiply(field[1:], 1.0 - cfl, out=adv[1:])
            np.multiply(field[:-1], cfl, out=spare[1:])
            np.add(adv[1:], spare[1:], out=adv[1:])
            adv[0] = field[0]
            np.matmul(adv, mix, out=spare)
            spare[0] = u[j]
            field, spare = spare, field
        plant_l2[j] = _l2(field, dx)
        exit_values[j] = field[-1]
        if j in due:
            snapshots[due[j]] = field
    return _plant_trajectory(dt, t0, plant_l2, u, exit_values, steps, snapshots)


def closed_form_state(
    theta0: np.ndarray, inputs, t: float, params: Params, grid: Grid, t0: float = 0.0
) -> np.ndarray:
    """The field a time t after theta0, which holds at t0, directly from the closed form.

    theta(t, x) = exp(A1 t) theta0(x - t) where the characteristic reaches
    back to the initial data (x >= t), and exp(A1 x) u(t0 + t - x) where it
    reaches back to the boundary (x < t): the tube's field at one step.
    The tube holds only the last n_cells + 1 inlet pairs, the ones the
    field still carries, so the input source is read at most n_cells + 1
    steps, however late t is.  Run for tau from the estimate at
    t0 = t - tau, it is the predictor (``observer.predict``).
    """
    theta0 = check_field(theta0, grid)
    j = _run_steps(t, grid.dt)
    gone = max(0, j - grid.n_cells - 1)  # the steps whose inlet pairs have left the tube
    tube = _Tube(theta0, j - gone, params, grid.dt)
    tube.feed(np.vstack((np.zeros(2), rows(inputs, gone + 1, j - gone, grid.dt, t0))))
    return tube.fields(np.array([j - gone]))[0]
