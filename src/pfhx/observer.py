"""Luenberger observer, delay-compensating predictor, and feedback law.

The observer is a copy of the plant running in its own time s = t - tau
(the latest instant whose exit measurements have already arrived).  Its
inflow nodes are corrected by the measurement mismatch, cross-wise because
each output channel observes the opposite stream:

    obs1(s, 0) = -k1 * [obs2(s, l) - y1(s + tau)] + u1(s)
    obs2(s, 0) = -k2 * [obs1(s, l) - y2(s + tau)] + u2(s)

Subtracting the plant shows the estimation error is autonomous: it obeys
the same transport dynamics with homogeneous cross-coupled boundary
conditions e1(s, 0) = -k1 e2(s, l), e2(s, 0) = -k2 e1(s, l).

The predictor bridges the delay gap: it solves the plant forward over
[t - tau, t] from the observer state, using the inputs applied in the
meantime.  Characteristics make that forward solve a closed form,

    pred(t, x) = exp(A1 tau) obs(t - tau, x - tau)   for x >= tau,
    pred(t, x) = exp(A1 x) u(t - x)                  for x < tau,

so one control step costs O(1) instead of a PDE re-solve.  For tau > l the
exit value at x = l falls in the second branch: it depends on stored
inputs only, and the prediction error at the exit vanishes identically.
The feedback then closes the loop on the predicted exit values:

    u1(t) = -k1 * pred2(t, l),   u2(t) = -k2 * pred1(t, l)   for t > tau,

and u = 0 while t <= tau (no measurement has arrived yet).
"""

from __future__ import annotations

import numpy as np

from .coupling import coupling_matrix
from .grid import _ALIGN_RTOL, Grid, check_field
from .history import as_trace
from .params import Params
from .solver import _advance_exact, _mix_operand, closed_form_state, step_exact


def _inject(field, k1, k2, y, u) -> None:
    """Observer kernel: the output injection at the inflow of a field just advanced."""
    field[0, 0] = -k1 * (field[-1, 1] - y[0]) + u[0]
    field[0, 1] = -k2 * (field[-1, 0] - y[1]) + u[1]


def observer_step(field: np.ndarray, y, u, params: Params, grid: Grid) -> np.ndarray:
    """Advance the observer field one step, from observer time s to s + dt.

    The observer runs in its own time s = t - tau.  ``y`` is the delayed
    measurement that becomes available at wall clock (s + dt) + tau, i.e.
    the plant exits at time s + dt in swapped order; ``u`` is the input
    u(s + dt).  Both are imposed pointwise at the step's target time,
    matching the plant solver's boundary convention (required for the error
    system to decouple exactly).  Returns the new field.
    """
    mix = _mix_operand(coupling_matrix(grid.dt, params.h1, params.h2), grid.n_cells)
    new = _advance_exact(check_field(field, grid), mix, 0.0)
    _inject(new, params.k1, params.k2, np.asarray(y, dtype=float), np.asarray(u, dtype=float))
    return new


def predict(
    obs_field: np.ndarray, inputs, t: float, params: Params, grid: Grid
) -> np.ndarray:
    """Closed-form prediction of the state at time t; returns the field.

    ``obs_field`` is the observer estimate at time t - tau and ``inputs``
    (see ``history.as_trace``) must cover [t - tau, t] at step resolution.
    It is the plant's closed form (``solver.closed_form_state``) run for
    tau from the estimate at t - tau: node i takes exp(A1 tau) applied to
    the estimate one delay upstream when x_i >= tau, and exp(A1 x_i)
    applied to the input u(t - x_i) when x_i < tau.  The predicted exit
    pair is the field's last row.
    """
    tau_used = grid.snap_tau(params.tau)[1]
    trace, start = as_trace(inputs, grid.dt), t - tau_used
    return closed_form_state(obs_field, lambda s: trace(start + s), tau_used, params, grid)


def _exit_propagator(m: int, n: int, tau_used: float, params: Params) -> np.ndarray:
    """exp(A1 l) when the delay exceeds the tube (m > n steps), else exp(A1 tau)."""
    return coupling_matrix(params.l if m > n else tau_used, params.h1, params.h2)


def _predict_exit(obs_field: np.ndarray, u_past, m: int, prop: np.ndarray) -> np.ndarray:
    """Predictor kernel: the exit pair from u(t - l) when m > n, else from the estimate.

    ``u_past`` is only read when the delay exceeds the tube; ``prop`` comes
    from ``_exit_propagator``.
    """
    n = len(obs_field) - 1
    if m > n:
        return prop @ u_past
    return prop @ obs_field[n - m]


def predict_exit(
    obs_field: np.ndarray, inputs, t: float, params: Params, grid: Grid
) -> np.ndarray:
    """Predicted exit pair (pred1, pred2)(t, l) without building the field.

    This is the only piece of the prediction the feedback law needs, and it
    never requires u(t) itself: for tau > l it propagates the stored input
    u(t - l), otherwise it propagates the observer estimate at x = l - tau.
    """
    m, tau_used, _ = grid.snap_tau(params.tau)
    n = grid.n_cells
    obs_field = check_field(obs_field, grid)
    u_past = np.asarray(as_trace(inputs, grid.dt)(t - params.l), dtype=float) if m > n else None
    return _predict_exit(obs_field, u_past, m, _exit_propagator(m, n, tau_used, params))


def predict_by_resolve(
    obs_field: np.ndarray, inputs, t: float, params: Params, grid: Grid
) -> np.ndarray:
    """Brute-force prediction: re-solve the plant over [t - tau, t]; returns the field.

    Mathematically identical to ``predict`` but costs O(tau/dt * n_cells)
    per call; kept as an independent oracle for testing, not used in the
    control loop.
    """
    m, tau_used, _ = grid.snap_tau(params.tau)
    field = obs_field
    for j in range(m):
        field = step_exact(field, t - tau_used + j * grid.dt, inputs, params, grid)
    return field


def control_law(exit_pair, params: Params, t: float, tau: float | None = None) -> np.ndarray:
    """Boundary feedback from the predicted exit pair (pred1, pred2)(t, l).

    Returns (0, 0) for t <= tau (measurements have not arrived yet) and
    (-k1 * pred2(t, l), -k2 * pred1(t, l)) afterwards.
    """
    tau = params.tau if tau is None else tau
    if t <= tau + _ALIGN_RTOL * max(1.0, tau):
        return np.zeros(2)
    return _cross_law(params.k1, params.k2, np.asarray(exit_pair, dtype=float))


def _cross_law(k1: float, k2: float, exit_pair) -> np.ndarray:
    """Feedback kernel: (-k1 * exit2, -k2 * exit1)."""
    return np.array([-k1 * exit_pair[1], -k2 * exit_pair[0]])
