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

On the exact solver the whole loop, observer included, is one lag
difference equation in the inlet pair (``loop._recur_observer_predictor``).
This module holds the closed-form predictor ``predict``, which gives the
whole predicted field from the same tube the runs use (``solver._Tube``),
and the feedback kernel ``_cross_law`` that the recurrence applies.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .history import as_trace
from .params import Params
from .solver import closed_form_state


def predict(
    obs_field: np.ndarray, inputs, t: float, params: Params, grid: Grid
) -> np.ndarray:
    """Closed-form prediction of the state at time t; returns the field.

    ``obs_field`` is the observer estimate at time t - tau and ``inputs``
    (see ``history.as_trace``) must cover [t - tau, t] at step resolution.
    It is the plant's closed form (``solver.closed_form_state``, the tube's
    field at one step) run for tau from the estimate at t - tau: node i
    takes exp(A1 tau) applied to the estimate one delay upstream when
    x_i >= tau, and exp(A1 x_i) applied to the input u(t - x_i) when
    x_i < tau, which reads the inputs at no more than n_cells + 1 steps.
    The predicted exit pair is the field's last row.
    """
    tau_used = grid.snap_tau(params.tau)[1]
    trace, start = as_trace(inputs, grid.dt), t - tau_used
    return closed_form_state(obs_field, lambda s: trace(start + s), tau_used, params, grid)


def _cross_law(k1: float, k2: float, exit_pair) -> np.ndarray:
    """Feedback kernel: (-k1 * exit2, -k2 * exit1)."""
    return np.array([-k1 * exit_pair[1], -k2 * exit_pair[0]])
