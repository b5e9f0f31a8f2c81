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

from dataclasses import dataclass

import numpy as np

from .coupling import coupling_matrix
from .grid import Grid, check_field
from .params import Params
from .solver import SolverState, _mix_operand, as_trace, step_exact


@dataclass(frozen=True)
class ObserverState:
    """Observer field at observer time s (wall-clock t = s + tau)."""

    s: float
    field: np.ndarray
    grid: Grid
    params: Params

    def __post_init__(self) -> None:
        check_field(self.field, self.grid)


def _advance_observer(field, step_matrix, k1, k2, y, u) -> np.ndarray:
    """Observer kernel: one characteristic step, then the output injection at the inflow."""
    new = np.empty_like(field)
    np.matmul(field[:-1], _mix_operand(step_matrix, len(field) - 1), out=new[1:])
    new[0, 0] = -k1 * (new[-1, 1] - y[0]) + u[0]
    new[0, 1] = -k2 * (new[-1, 0] - y[1]) + u[1]
    return new


def observer_step(obs: ObserverState, y_pair, u_pair) -> ObserverState:
    """Advance the observer one step to s + dt.

    ``y_pair`` is the delayed measurement that becomes available at wall
    clock (s + dt) + tau, i.e. the plant exits at time s + dt in swapped
    order; ``u_pair`` is the input u(s + dt).  Both are imposed pointwise
    at the step's target time, matching the plant solver's boundary
    convention (required for the error system to decouple exactly).
    """
    grid, params = obs.grid, obs.params
    step_matrix = coupling_matrix(grid.dt, params.h1, params.h2)
    new = _advance_observer(
        obs.field, step_matrix, params.k1, params.k2,
        np.asarray(y_pair, dtype=float), np.asarray(u_pair, dtype=float),
    )
    return ObserverState(s=obs.s + grid.dt, field=new, grid=grid, params=params)


@dataclass(frozen=True)
class Prediction:
    """Estimate of the current (undelayed) state, formed at wall-clock t."""

    t: float
    field_at_t: np.ndarray
    boundary_value_at_l: np.ndarray


def _snap_tau(params: Params, grid: Grid) -> tuple[int, float]:
    m, tau_used, _ = grid.snap_tau(params.tau)
    return m, tau_used


def predict(
    obs_field: np.ndarray, inputs, t: float, params: Params, grid: Grid
) -> Prediction:
    """Closed-form prediction of the state at time t.

    ``obs_field`` is the observer estimate at time t - tau and ``inputs``
    must cover [t - tau, t] at step resolution (an ``InputHistory`` or a
    callable).  Node i takes exp(A1 tau) applied to the estimate one delay
    upstream when x_i >= tau, and exp(A1 x_i) applied to the stored input
    u(t - x_i) when x_i < tau.
    """
    obs_field = check_field(obs_field, grid)
    m, tau_used = _snap_tau(params, grid)
    n = grid.n_cells
    dt = grid.dt
    if hasattr(inputs, "covers"):
        missing = inputs.covers(max(0.0, t - tau_used), t)
        if missing:
            shown = ", ".join(f"{v:g}" for v in missing[:5])
            more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
            raise ValueError(f"input history does not cover [t-tau, t]; missing: {shown}{more}")
    trace = as_trace(inputs)

    field = np.empty((n + 1, 2))
    k = min(m, n + 1)  # nodes fed from stored inputs
    for i in range(k):
        field[i] = coupling_matrix(i * grid.dx, params.h1, params.h2) @ np.asarray(
            trace(t - i * dt), dtype=float
        )
    if m <= n:
        prop = coupling_matrix(tau_used, params.h1, params.h2)
        field[m:] = obs_field[: n + 1 - m] @ prop.T
    return Prediction(t=t, field_at_t=field, boundary_value_at_l=field[n].copy())


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
    m, tau_used = _snap_tau(params, grid)
    n = grid.n_cells
    obs_field = check_field(obs_field, grid)
    u_past = np.asarray(as_trace(inputs)(t - params.l), dtype=float) if m > n else None
    return _predict_exit(obs_field, u_past, m, _exit_propagator(m, n, tau_used, params))


def predict_by_resolve(
    obs_field: np.ndarray, inputs, t: float, params: Params, grid: Grid
) -> Prediction:
    """Prediction by brute force: re-solve the plant over [t - tau, t].

    Mathematically identical to ``predict`` but costs O(tau/dt * n_cells)
    per call; kept as an independent oracle for testing, not used in the
    control loop.
    """
    m, tau_used = _snap_tau(params, grid)
    state = SolverState(t=t - tau_used, field=check_field(obs_field, grid).copy(),
                        grid=grid, params=params)
    for _ in range(m):
        state = step_exact(state, inputs)
    return Prediction(t=t, field_at_t=state.field, boundary_value_at_l=state.field[-1].copy())


def control_law(pred, params: Params, t: float, tau: float | None = None) -> np.ndarray:
    """Boundary feedback from the predicted exit values.

    Returns (0, 0) for t <= tau (measurements have not arrived yet) and
    (-k1 * pred2(t, l), -k2 * pred1(t, l)) afterwards.  ``pred`` may be a
    Prediction or a bare exit pair.
    """
    tau = params.tau if tau is None else tau
    if t <= tau + 1e-9 * max(1.0, tau):
        return np.zeros(2)
    exit_pair = pred.boundary_value_at_l if isinstance(pred, Prediction) else np.asarray(pred, float)
    return _cross_law(params.k1, params.k2, exit_pair)


def _cross_law(k1: float, k2: float, exit_pair) -> np.ndarray:
    """Feedback kernel: (-k1 * exit2, -k2 * exit1)."""
    return np.array([-k1 * exit_pair[1], -k2 * exit_pair[0]])
