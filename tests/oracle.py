"""The per-step reference that exact runs are checked against.

An exact-solver run is a boundary recurrence (``pfhx.loop._recur``).  Here
every field advances one exact characteristic step at a time, by
``field[:-1] @ exp(A1 dt).T``, each recorded field is normed by its own
``_l2`` call, the laws read the exits they need back from the recorded
columns, and the observer runs tau late against a deque of the last m + 1
plant fields: ``simulate`` for every exact law, ``solve`` for the solver
oracles and the upwind scheme.  From ``pfhx`` it takes only the run
set-up (``loop._prepare``), the step matrix, ``_l2`` and ``as_trace``;
tests/test_recurrence.py checks that it uses nothing of the recurrence or
of the tube, which is also ``solve_exact`` and ``closed_form_state``.

Two references of the exact solution at one time are here as well, each
independent of the tube: ``step_exact``, one exact step of a field, and
``closed_form_by_node``, the closed form with one exp(A1 s) per node.  So
are the per-step pieces of the observer-predictor loop, each tested on its
own (tests/test_observer.py): ``observer_step``, ``predict_exit``,
``control_law`` and the brute-force ``predict_by_resolve``.
"""

from collections import deque

import numpy as np

from pfhx import loop
from pfhx.coupling import coupling_matrix
from pfhx.grid import _ALIGN_RTOL, Grid, _l2, check_field
from pfhx.history import as_trace
from pfhx.params import Params
from pfhx.solver import Trajectory


class PerStepRecorder:
    """The run's columns, filled one step at a time: one ``_l2`` call per recorded field."""

    def __init__(self, grid, n_steps, dt, snapshot_stride, t0=0.0):
        if snapshot_stride <= 0:
            raise ValueError("snapshot stride must be positive")
        self.dt, self.t0 = dt, t0
        self.dx = grid.dx
        total = n_steps + 1
        self.t = np.arange(total) * dt + t0
        self.plant_l2 = np.zeros(total)
        self.obs_err_l2 = np.zeros(total)
        self.pred_err_at_l = np.zeros((total, 2))
        self.u = np.zeros((total, 2))
        self.exit_values = np.zeros((total, 2))
        marks = n_steps * dt / snapshot_stride
        if marks > 4 * (n_steps + 1):  # marks under a quarter step apart take every step
            steps = set(range(n_steps + 1))
        else:  # step 0, then the step nearest each mark
            marks = int(np.floor(marks + 1e-9))
            steps = {min(n_steps, int(round(q * snapshot_stride / dt))) for q in range(marks + 1)}
        self.snap_steps = sorted(steps)
        self._snap_lookup = {j: idx for idx, j in enumerate(self.snap_steps)}
        self.snapshots = np.zeros((len(self.snap_steps), grid.n_cells + 1, 2))

    def record(self, j, field, u):
        self.plant_l2[j] = _l2(field, self.dx)
        self.u[j] = u
        self.exit_values[j] = field[-1]
        idx = self._snap_lookup.get(j)
        if idx is not None:
            self.snapshots[idx] = field

    def finish(self):
        return Trajectory(
            t=self.t, plant_l2=self.plant_l2, obs_err_l2=self.obs_err_l2,
            pred_err_at_l=self.pred_err_at_l, u=self.u, exit_values=self.exit_values,
            snapshot_t=np.asarray(self.snap_steps) * self.dt + self.t0, snapshots=self.snapshots,
            dt=self.dt,
        )


def advance_exact(field, step_matrix, u_new):
    """One exact characteristic step: node i + 1 takes step_matrix @ node i, node 0 u_new."""
    out = np.empty_like(field)
    np.matmul(field[:-1], step_matrix.T, out=out[1:])
    out[0] = u_new
    return out


def advance_upwind(field, step_matrix, cfl, u_new):
    """One split upwind step: advection at ``cfl``, then the exact coupling at each node."""
    adv = field[1:] * (1.0 - cfl) + field[:-1] * cfl
    out = np.empty_like(field)
    np.matmul(np.vstack([field[:1], adv]), step_matrix.T, out=out)
    out[0] = u_new
    return out


def _advance_observer(field, step_matrix, k1, k2, y, u):
    new = advance_exact(field, step_matrix, 0.0)
    new[0, 0] = -k1 * (new[-1, 1] - y[0]) + u[0]
    new[0, 1] = -k2 * (new[-1, 0] - y[1]) + u[1]
    return new


def _cross(k1, k2, exit_pair):
    return np.array([-k1 * exit_pair[1], -k2 * exit_pair[0]])


# A law is called as law(scenario, run, rec) and returns the field to step,
# made from run.theta0 and run.observer0, and inflow(j, field): the pair to
# impose at x = 0 at step j, given the field with every interior node
# already advanced.


def _observer_predictor(scenario, run, rec):
    """The observer advanced at t, tau late, normed against the plant from a deque."""
    p, m, n = scenario.params, run.m, run.grid.n_cells
    k1, k2, dt, dx = p.k1, p.k2, run.dt, run.grid.dx
    step_matrix = coupling_matrix(dt, p.h1, p.h2)
    prop = coupling_matrix(p.l if m > n else run.tau_used, p.h1, p.h2)
    warm = run.warmup_u
    plants = deque([run.theta0], maxlen=m + 1)  # plants[0] is the plant from tau ago
    init_err = rec.obs_err_l2[0] = _l2(run.observer0 - run.theta0, dx)
    obs = run.observer0

    def inflow(j, field):
        nonlocal obs
        plants.append(field)
        if j > m:
            y = rec.exit_values[j - m][::-1]
            obs = _advance_observer(obs, step_matrix, k1, k2, y, rec.u[j - m])
            pred_exit = prop @ (rec.u[j - n] if m > n else obs[n - m])
            rec.pred_err_at_l[j] = pred_exit - field[-1]
            u_new = _cross(k1, k2, pred_exit)
        else:
            u_new = warm(j * dt)
        rec.obs_err_l2[j] = _l2(obs - plants[0], dx) if j >= m else init_err
        return u_new

    return run.theta0, inflow


def _static_feedback(scenario, run, rec):
    """Sano's u1 = 0, u2(t) = -k theta1(t - tau, l)."""
    k, m = scenario.sano_k, run.m

    def inflow(j, field):
        if j >= m:
            return np.array([0.0, -k * rec.exit_values[j - m, 0]])
        return np.zeros(2)

    return run.theta0, inflow


def _cross_feedback(scenario, run, rec):
    """The cross feedback on the current exits: the delay-free loop, or the error system."""
    k1, k2, dt, warm = scenario.params.k1, scenario.params.k2, run.dt, run.warmup_u
    wait = run.m if run.delayed else 0

    def inflow(j, field):
        if j > wait:
            return _cross(k1, k2, field[-1])
        return warm(j * dt)

    return (run.theta0 if run.delayed else run.observer0 - run.theta0), inflow


def _open_loop(scenario, run, rec):
    u, dt = run.u_open, run.dt
    return run.theta0, lambda j, field: u(j * dt)


# the name a run reports -> its law
_LAWS = {
    "observer_predictor": _observer_predictor,
    "sano_static": _static_feedback,
    "open_loop": _open_loop,
    "error_system": _cross_feedback,
    "delay_free": _cross_feedback,
}


def simulate(scenario, delay_free: bool = False) -> Trajectory:
    """An exact run stepped field by field: the scenario's law, or the delay-free loop.

    The run's set-up, its checks, snapped tau and T and its drawn profiles
    are ``loop._prepare``'s.  As in a run, numpy's overflow and invalid-value
    warnings are off: an unstable loop overflows to inf and then nan.
    """
    run = loop._prepare(scenario, delay_free)
    p = scenario.params
    rec = PerStepRecorder(run.grid, run.n_steps, run.dt, scenario.snapshot_stride)
    step_matrix = coupling_matrix(run.dt, p.h1, p.h2)
    with np.errstate(over="ignore", invalid="ignore"):
        field, inflow = _LAWS[run.controller](scenario, run, rec)
        rec.record(0, field, np.zeros(2))
        for j in range(1, run.n_steps + 1):
            field = advance_exact(field, step_matrix, 0.0)
            field[0] = u_new = inflow(j, field)
            rec.record(j, field, u_new)
    return rec.finish()


def solve(theta0, u_fn, n_steps, p, grid, dt, advance, snapshot_stride, t0=0.0) -> Trajectory:
    """A solver run stepped field by field: theta0 at t0, then u_fn at each step's time.

    ``advance(field, step_matrix, u_new)`` is one step of the scheme at ``dt``.
    """
    step_matrix = coupling_matrix(dt, p.h1, p.h2)
    rec = PerStepRecorder(grid, n_steps, dt, snapshot_stride, t0)
    field = theta0.copy()
    rec.record(0, field, np.zeros(2))
    for j in range(1, n_steps + 1):
        u_new = np.asarray(u_fn(t0 + j * dt), dtype=float)
        field = advance(field, step_matrix, u_new)
        rec.record(j, field, u_new)
    return rec.finish()


def step_exact(field: np.ndarray, t: float, inputs, params: Params, grid: Grid) -> np.ndarray:
    """Advance a field from time t by one exact characteristic step of size dt = dx.

    Returns the new field; its node 0 carries the input u(t + dt).
    """
    dt = grid.dt
    step_matrix = coupling_matrix(dt, params.h1, params.h2)
    return advance_exact(check_field(field, grid), step_matrix, as_trace(inputs, dt)(t + dt))


def closed_form_by_node(theta0: np.ndarray, inputs, t: float, params: Params,
                        grid: Grid) -> np.ndarray:
    """The field at step-aligned time t, node by node from one exp(A1 s) each.

    Node i takes exp(A1 x_i) u(t - x_i) where its characteristic reaches
    back to the boundary (x_i < t), and exp(A1 t) theta0(x_i - t) where it
    reaches back to the initial data.
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


def observer_step(field: np.ndarray, y, u, params: Params, grid: Grid) -> np.ndarray:
    """Advance the observer field one step, from its own time s = t - tau to s + dt.

    ``y`` is the measurement that arrives at wall clock s + dt + tau, the
    plant exits at s + dt in swapped order, and ``u`` the input u(s + dt);
    both are imposed at the step's target time, as the plant's inflow is.
    """
    step_matrix = coupling_matrix(grid.dt, params.h1, params.h2)
    return _advance_observer(check_field(field, grid), step_matrix, params.k1, params.k2,
                             np.asarray(y, dtype=float), np.asarray(u, dtype=float))


def predict_exit(obs_field: np.ndarray, inputs, t: float, params: Params, grid: Grid) -> np.ndarray:
    """Predicted exit pair (pred1, pred2)(t, l) without building the field.

    This is the only piece of the prediction the feedback law needs, and it
    never requires u(t) itself: for tau > l it propagates the stored input
    u(t - l) by exp(A1 l), otherwise it propagates the observer estimate at
    x = l - tau by exp(A1 tau).
    """
    m, tau_used, _ = grid.snap_tau(params.tau)
    n = grid.n_cells
    obs_field = check_field(obs_field, grid)
    if m > n:
        u_past = np.asarray(as_trace(inputs, grid.dt)(t - params.l), dtype=float)
        return coupling_matrix(params.l, params.h1, params.h2) @ u_past
    return coupling_matrix(tau_used, params.h1, params.h2) @ obs_field[n - m]


def predict_by_resolve(obs_field: np.ndarray, inputs, t: float, params: Params,
                       grid: Grid) -> np.ndarray:
    """Brute-force prediction: re-solve the plant over [t - tau, t]; returns the field.

    Mathematically identical to ``pfhx.predict`` but costs O(tau/dt * n_cells)
    per call.
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
    return _cross(params.k1, params.k2, np.asarray(exit_pair, dtype=float))
