"""Closed-loop, baseline, and open-loop run orchestration.

The observer-predictor loop uses information in this order at wall-clock
time t:

1. the delayed measurement y(t) arrives (the plant exits at s = t - tau),
2. the observer advances to its own time s using y(t) and the stored
   input u(s),
3. the predicted exit values at t follow in closed form (for tau > l
   from the stored input u(t - l) only),
4. the feedback u(t) = (-k1 * pred2, -k2 * pred1) is applied at the
   plant's inflow nodes.

Every quantity is evaluated at step-aligned times, and the control applied
at t uses only information available strictly before t plus the
measurement that arrives at t.  While t <= tau no measurement exists and
the input is an optional open-loop warm-up signal (zero by default).

The estimation error evolves autonomously (its boundary condition is the
homogeneous cross coupling), so the ``error_system`` controller simulates
it directly; it doubles as the decoupling oracle and as the empirical
probe of the decay rate of the delay-free feedback generator.

``run_scenario`` runs the boundary law its scenario's controller names,
and ``run_delay_free_feedback`` the delay-free reference loop.  (A
``Scenario`` and its run check live in ``params``, so that reading or
checking a config loads no engine; ``Scenario`` is re-exported here.)  A
scenario and every record a run returns are immutable named tuples, so
no run can change the scenario it was given; a run fills the arrays of
its ``Trajectory`` as it goes.  Both share one skeleton, ``_simulate``:
``_prepare`` makes the run check and sets the run up, its initial data
and input signals, once per run.  The laws are the open-loop
input signals, on either solver, and on the exact solver the
observer-predictor above, the static (Sano) feedback, and the cross
feedback on the current exits, which is both the delay-free reference
loop and, started from the initial estimation error without warm-up, the
error system.

Both speeds are one, so on the exact solver the exit at step j is
exp(A1 l) applied to the inlet pair of step j - n, and every law is a
linear difference equation in the inlet pair (Artstein, IEEE TAC 1982):
the cross feedback is u[j] = K exp(A1 l) u[j - n] with
K = -[[0, k1], [k2, 0]], and Sano's u2[j] = -k exp(A1 l)[0, 1] u2[j - m - n].
An exact run computes its inlet history by that recurrence, in blocks of
at least a few hundred steps where the lag is shorter (``_lagged``, by
powers of the lag map), and every column from the history and the
initial fields (``_recur``, ``solver._Tube``), with no field advanced
step by step; ``solver.solve_exact`` and ``closed_form_state`` read the
same tube.  The observer's error of observer time s is normed at step
s + m, when its measurement arrives.  The upwind solver runs the open loop
only, one field at a time (``solver._solve``).  tests/oracle.py advances
every exact law one step at a time, field by field: the recurrence's
oracle.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .analysis import DecayReport, fit_decay
from .coupling import coupling_matrix
from .grid import Grid, _l2
from .history import SignalPair, rows
from .params import ConditionReport, Params, Scenario, _run_check, _RunCheck, condition_report
from .profiles import input_function, profile_array
from .solver import Trajectory, _solve, _Tube


# numpy's floating-point warnings that a run turns off: its overflow shows in its values
_QUIET = {"over": "ignore", "invalid": "ignore"}


class RunSummary(NamedTuple):
    """Derived quantities and diagnostics of a run."""

    controller: str
    condition: ConditionReport
    plant_decay: DecayReport
    obs_err_decay: DecayReport | None
    tau_used: float
    tau_snapped: bool
    T_used: float
    finite: bool
    wall_time_s: float
    warnings: list[str]


class RunResult(NamedTuple):
    trajectory: Trajectory
    summary: RunSummary


def _resolve_field(grid: Grid, spec, rng: np.random.Generator | None) -> np.ndarray:
    if isinstance(spec, np.ndarray):  # checked by the run check
        return np.array(spec, dtype=float)
    return np.column_stack([profile_array(component, grid, rng) for component in spec])


def _input_pair(specs: tuple[str, str]) -> SignalPair:
    return SignalPair(input_function(specs[0]), input_function(specs[1]))


# A set-up run: the checked run (``params._run_check``), its initial data and inputs.
_Run = namedtuple("_Run", _RunCheck._fields + ("theta0", "observer0", "u_open", "warmup_u"))


def _prepare(scenario: Scenario, delay_free: bool = False) -> _Run:
    """Check the run (``params._run_check``), then set it up, which only a run does.

    The profiles are drawn, theta0 first, from a generator seeded by
    run.seed if one of them draws, and the input specs made signals.
    """
    run = _run_check(scenario, delay_free)
    rng = np.random.default_rng(scenario.seed) if run.draws else None
    with np.errstate(**_QUIET):  # a profile that overflows is a numerical failure of the run
        theta0 = _resolve_field(run.grid, scenario.theta0, rng)
        observer0 = _resolve_field(run.grid, scenario.observer0, rng)
    return _Run(*run, theta0, observer0, _input_pair(scenario.u_open),
                _input_pair(scenario.warmup_u))


def _safe_fit(t, values, window) -> DecayReport:
    try:
        return fit_decay(t, values, window=window)
    except ValueError:
        return DecayReport(
            gamma_hat=float("nan"),
            r_squared=float("nan"),
            window=window,
            floor_hit=False,
            extinct=False,
            n_used=0,
        )


def _fit_window(start: float, T_used: float, dt: float) -> tuple[float, float]:
    if start > T_used - 10 * dt:
        start = max(0.0, T_used / 2)
    return (start, T_used)


def _summarize(scenario: Scenario, traj: Trajectory, run: _Run, start: float) -> RunSummary:
    wall = time.perf_counter() - start
    p = scenario.params
    warnings = run.warnings
    window = _fit_window((run.tau_used if run.delayed else 0.0) + 2 * p.l, run.T_used, traj.dt)
    plant_decay = _safe_fit(traj.t, traj.plant_l2, window)
    obs_decay = (_safe_fit(traj.t, traj.obs_err_l2, window)
                 if run.controller == "observer_predictor" else None)
    if plant_decay.floor_hit:
        warnings = warnings + ["decay fit: samples below the numerical floor were excluded"]
    if plant_decay.extinct:
        warnings = warnings + ["finite-time extinction: state norm at or below floor on the whole fit window"]
    return RunSummary(
        controller=run.controller,
        condition=condition_report(p, k_sano=scenario.sano_k),
        plant_decay=plant_decay,
        obs_err_decay=obs_decay,
        tau_used=run.tau_used,
        tau_snapped=run.tau_snapped,
        T_used=run.T_used,
        finite=traj.is_finite(),
        wall_time_s=wall,
        warnings=warnings,
    )


# A recurrence is called as recurrence(scenario, run, tube) and feeds the
# plant's tube (``solver._Tube``, made from run.theta0) its inlet history.
# It returns the observer error's tube, if the law runs an observer, and the
# exit prediction error of every step, or None where it is zero.

_BLOCK_STEPS = 256  # the steps a block of ``_lagged`` spans at least, where the run has them


def _lagged(x: np.ndarray, start: int, lag: int, step: np.ndarray) -> None:
    """x[j] = step @ x[j - lag] for each row j from ``start`` on, in place.

    A block spans as many lags as make ``_BLOCK_STEPS`` steps, its p-th lag
    the (p + 1)-th power of ``step`` applied to the lag before the block,
    so a coarse grid makes a few rounds of numpy calls, not one per lag.
    Powers stop before the first that overflows: a block of an unstable
    loop may be a single lag, so no 0 * inf makes a nan that stepping
    would not.
    """
    powers = [step]
    while len(powers) * lag < min(_BLOCK_STEPS, len(x) - start):
        power = step @ powers[-1]
        if not np.all(np.isfinite(power)):
            break
        powers.append(power)
    powers, span = np.array(powers), len(powers) * lag
    for j0 in range(start, len(x), span):
        block = np.einsum("pab,rb->pra", powers, x[j0 - lag:j0]).reshape(span, -1)
        x[j0:j0 + span] = block[:len(x) - j0]


def _cross_law(p: Params, exits: np.ndarray) -> np.ndarray:
    """The feedback kernel on rows of exit pairs: u = K exit = (-k1 * exit2, -k2 * exit1)."""
    return -np.array([p.k1, p.k2]) * exits[:, ::-1]


def _cross_map(p: Params) -> np.ndarray:
    """The cross feedback across a tube: u[j] = K exp(A1 l) u[j - n], K = -[[0, k1], [k2, 0]]."""
    return -np.array([[0.0, p.k1], [p.k2, 0.0]]) @ coupling_matrix(p.l, p.h1, p.h2)


def _recur_cross(run: _Run, tube: _Tube, p: Params, wait: int) -> None:
    """The warm-up input to step ``wait``, then u[j] = K exit[j].

    The exits to step n read the initial field; from then on the loop is
    the cross feedback across the tube.
    """
    n, end = run.grid.n_cells, run.n_steps + 1
    u = np.zeros((end, 2))
    wait = min(wait, run.n_steps)
    u[1:wait + 1] = rows(run.warmup_u, 1, wait, run.dt)
    seed = min(max(wait + 1, n + 1), end)
    u[wait + 1:seed] = _cross_law(p, tube.exits(wait + 1, seed))
    _lagged(u, seed, n, _cross_map(p))
    tube.feed(u)


def _recur_observer_predictor(scenario, run, tube):
    """The error system, and the plant's inlet from the observer's exit.

    For tau > l the predicted exit exp(A1 l) u[j - n] is the plant's exit
    itself, so the loop is the cross feedback after the delay.  For
    tau <= l it is the exit of the observer, whose inlet is u + e with e
    the error system's inlet, so u[j] = K exp(A1 l) (u + e)[j - n] once
    that exit reads an inlet; before, it is the exit of observer0.  The
    prediction error is then the error system's exit.
    """
    p, m, n, end = scenario.params, run.m, run.grid.n_cells, run.n_steps + 1
    err = _Tube(run.observer0 - run.theta0, run.n_steps, p, run.dt)
    if m > n:
        _recur_cross(run, err, p, 0)
        _recur_cross(run, tube, p, m)
        return err, None
    ue = np.zeros((end, 4))  # the rows (u, e)
    u, e = ue[:, :2], ue[:, 2:]
    seed = min(n + 1, end)
    e[1:seed] = _cross_law(p, err.exits(1, seed))
    u[1:m + 1] = rows(run.warmup_u, 1, m, run.dt)
    observer = _Tube(run.observer0, 0, p, run.dt)
    u[m + 1:seed] = _cross_law(p, observer.exits(m + 1, seed))
    cross = _cross_map(p)
    _lagged(ue, seed, n, np.block([[cross, cross], [np.zeros((2, 2)), cross]]))
    tube.feed(u)
    err.feed(e)
    pred_err = np.zeros((end, 2))
    pred_err[m + 1:] = err.exits(m + 1, end)
    return err, pred_err


def _recur_static(scenario, run, tube):
    """u1 = 0 and u2[j] = -k exit1[j - m] from step m on: -k exp(A1 l)[0, 1] u2[j - m - n]."""
    p, k, m, end = scenario.params, scenario.sano_k, run.m, run.n_steps + 1
    lag = m + run.grid.n_cells
    u = np.zeros((end, 2))
    first, seed = min(max(m, 1), end), min(lag + 1, end)
    u[first:seed, 1] = -k * tube.exits(first - m, seed - m)[:, 0]
    _lagged(u[:, 1:], seed, lag, np.array([[-k * coupling_matrix(p.l, p.h1, p.h2)[0, 1]]]))
    tube.feed(u)
    return None, None


def _recur_feedback(scenario, run, tube):
    """The cross feedback on the current exits, u1 = -k1 theta2(t, l), u2 = -k2 theta1(t, l).

    In a delayed run it is the delay-free reference loop, which applies the
    warm-up input while t <= tau; otherwise it is the error system, which
    evolves observer0 - theta0 under the feedback from the first step.  Its
    plant_l2 column then holds the error norm and its u columns the
    boundary values the error system generates for itself; with zero gains
    the error flushes to exactly zero strictly after t = l.
    """
    _recur_cross(run, tube, scenario.params, run.m if run.delayed else 0)
    return None, None


def _recur_open_loop(scenario, run, tube):
    tube.feed(np.vstack((np.zeros(2), rows(run.u_open, 1, run.n_steps, run.dt))))
    return None, None


def _recur(scenario: Scenario, run: _Run) -> Trajectory:
    """The exact solver by boundary recurrence: the inlet history, then every column from it."""
    n_steps, dt = run.n_steps, run.dt
    field0 = run.observer0 - run.theta0 if run.controller == "error_system" else run.theta0
    tube = _Tube(field0, n_steps, scenario.params, dt)
    err, pred_err = _RECURRENCES[run.controller](scenario, run, tube)
    traj = tube.trajectory(scenario.snapshot_stride)
    if err is not None:  # the error of observer time s is normed at step s + m
        traj.obs_err_l2[run.m:] = err.norms(n_steps + 1 - run.m)
        traj.obs_err_l2[:run.m] = _l2(err.field0, run.grid.dx)  # the initial error, until then
    return traj if pred_err is None else traj._replace(pred_err_at_l=pred_err)


def _simulate(scenario: Scenario, delay_free: bool = False) -> RunResult:
    """The run skeleton every boundary law shares.

    On the exact solver the run is its boundary recurrence (``_recur``);
    the upwind solver steps the open loop.  The run goes with numpy's
    overflow and invalid-value warnings off: a run that overflows is
    reported by ``Trajectory.is_finite`` instead, and ``pfhx run`` names
    its first non-finite value.  ``_prepare`` draws the profiles the same
    way.
    """
    start = time.perf_counter()
    run = _prepare(scenario, delay_free)
    with np.errstate(**_QUIET):
        if scenario.solver == "upwind":
            traj = _solve(run.theta0, run.u_open, run.n_steps, scenario.params, run.grid,
                          scenario.cfl, scenario.snapshot_stride, 0.0)
        else:
            traj = _recur(scenario, run)
    return RunResult(trajectory=traj, summary=_summarize(scenario, traj, run, start))


# the name a run reports -> its boundary recurrence on the exact solver: each
# controller of ``params._CONTROLLERS``, and delay_free, the reference loop, a
# law to compare against, not a controller a scenario names.
_RECURRENCES = {
    "observer_predictor": _recur_observer_predictor,
    "sano_static": _recur_static,
    "open_loop": _recur_open_loop,
    "error_system": _recur_feedback,
    "delay_free": _recur_feedback,
}


def run_delay_free_feedback(scenario: Scenario) -> RunResult:
    """Cross feedback on the true exit values, no delay and no observer.

    This is the loop the observer-predictor scheme reproduces once its
    prediction error vanishes; it exists as a reference, not a realizable
    controller (for t > tau it reads the current exits directly), so it
    ignores ``scenario.controller`` and its summary reports ``delay_free``.
    """
    return _simulate(scenario, delay_free=True)


def run_scenario(scenario: Scenario) -> RunResult:
    """Run the boundary law the scenario's controller names.

    A scenario that fails a run check raises ConfigError, as in
    ``params.check_scenario``, before anything is set up.  The result holds
    every snapshot, which ``pfhx run`` writes once the run is over.
    """
    return _simulate(scenario)
