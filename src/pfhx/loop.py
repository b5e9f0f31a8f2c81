"""Closed-loop, baseline, and open-loop run orchestration.

A step of the observer-predictor loop, arriving at wall-clock time t:

1. read the delayed measurement y(t) (plant exits recorded tau ago),
2. advance the observer to its new time t - tau using y(t) and the stored
   input u(t - tau),
3. form the predicted exit values at t (closed form; for tau > l this uses
   only the stored input u(t - l)),
4. apply the feedback u(t) = (-k1 * pred2, -k2 * pred1),
5. advance the plant with u(t) at the inflow nodes.

Every quantity is evaluated at step-aligned times, and the control applied
at t uses only information available strictly before t plus the
measurement that arrives at t.  While t <= tau no measurement exists and
the input is an optional open-loop warm-up signal (zero by default).

The estimation error evolves autonomously (its boundary condition is the
homogeneous cross coupling), so ``run_error_system`` simulates it directly;
it doubles as the decoupling oracle and as the empirical probe of the
decay rate of the delay-free feedback generator.

Every stepped run shares one skeleton, ``_simulate``: it advances the
interior of the field by one exact step, asks a boundary law for the
inflow pair, and records.  The laws are the observer-predictor above, the
static (Sano) feedback, and the cross feedback on the current exits, which
is both the delay-free reference loop and, started from the initial
estimation error without warm-up, the error system.  Open-loop runs use
the solver oracles directly.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import deque
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .analysis import ConditionReport, DecayReport, condition_report, fit_decay
from .coupling import coupling_matrix
from .errors import ConfigError
from .grid import Grid, _l2, check_field
from .observer import _advance_observer, _cross_law, _exit_propagator, _predict_exit
from .params import Params, SanoReport, sano_window
from .profiles import input_function, profile_array
from .solver import Recorder, Trajectory, _advance_exact, solve_exact, solve_upwind


@dataclass
class Scenario:
    """Everything needed to reproduce one run.

    ``theta0`` and ``observer0`` are per-component profile specs (or ready
    ``(n_cells + 1, 2)`` arrays); ``u_open`` gives the open-loop input
    signals and ``warmup_u`` the optional input applied while t <= tau in
    controlled runs.  ``controller`` is one of ``observer_predictor``,
    ``sano_static`` (needs ``sano_k``), ``open_loop``, or ``error_system``.
    The defaults are the config file's defaults (docs/config.md).
    """

    params: Params
    n_cells: int
    T: float
    controller: str = "observer_predictor"
    theta0: object = ("zero", "zero")
    observer0: object = ("zero", "zero")
    sano_k: float | None = None
    u_open: tuple[str, str] = ("zero", "zero")
    warmup_u: tuple[str, str] = ("zero", "zero")
    solver: str = "exact"
    cfl: float = 0.5
    snapshot_stride: float = 0.1
    seed: int = 0


@dataclass
class RunSummary:
    """Derived quantities and diagnostics of a run."""

    controller: str
    condition: ConditionReport
    plant_decay: DecayReport
    obs_err_decay: DecayReport | None
    tau_requested: float
    tau_used: float
    tau_snapped: bool
    T_requested: float
    T_used: float
    sano: SanoReport | None
    finite: bool
    wall_time_s: float
    warnings: list[str] = dataclass_field(default_factory=list)


@dataclass
class RunResult:
    trajectory: Trajectory
    summary: RunSummary


def _resolve_field(grid: Grid, spec, rng: np.random.Generator) -> np.ndarray:
    if isinstance(spec, np.ndarray):
        return check_field(spec, grid).copy()
    return np.column_stack([profile_array(component, grid, rng) for component in spec])


def _input_pair(specs: tuple[str, str]):
    f1 = input_function(specs[0])
    f2 = input_function(specs[1])
    return lambda t: np.array([f1(t), f2(t)])


@dataclass
class _Run:
    """A scenario's grid with its delay and horizon snapped to whole steps."""

    grid: Grid
    m: int  # the delay in steps
    tau_used: float
    tau_snapped: bool
    n_steps: int
    T_used: float
    warnings: list[str]
    delayed: bool  # the law acts on delayed measurements: T > tau, fit from tau + 2l


def _prepare(scenario: Scenario, delayed: bool) -> _Run:
    """Snap tau and T; a delayed run must outlast its delay."""
    grid = Grid(scenario.n_cells, scenario.params.l)
    m, tau_used, tau_snapped = grid.snap_tau(scenario.params.tau)
    n_steps, T_used, T_snapped = grid.snap_steps(scenario.T)
    if delayed and n_steps <= m:
        raise ConfigError(
            f"run.T={scenario.T:g} must exceed the delay tau={tau_used:g} for controlled runs"
        )
    warnings = []
    if tau_snapped:
        warnings.append(
            f"tau snapped from {scenario.params.tau:g} to {tau_used:g} "
            f"({m} steps of dt={grid.dt:g})"
        )
    if T_snapped:
        warnings.append(f"T snapped from {scenario.T:g} to {T_used:g}")
    return _Run(grid, m, tau_used, tau_snapped, n_steps, T_used, warnings, delayed)


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


def _summarize(
    scenario: Scenario, traj: Trajectory, run: _Run, start: float, with_observer: bool = False
) -> RunSummary:
    wall = time.perf_counter() - start
    p = scenario.params
    warnings = run.warnings
    window = _fit_window((run.tau_used if run.delayed else 0.0) + 2 * p.l, run.T_used, traj.dt)
    plant_decay = _safe_fit(traj.t, traj.plant_l2, window)
    obs_decay = _safe_fit(traj.t, traj.obs_err_l2, window) if with_observer else None
    if plant_decay.floor_hit:
        warnings = warnings + ["decay fit: samples below the numerical floor were excluded"]
    if plant_decay.extinct:
        warnings = warnings + ["finite-time extinction: state norm at or below floor on the whole fit window"]
    sano = sano_window(p, scenario.sano_k) if scenario.sano_k is not None else None
    return RunSummary(
        controller=scenario.controller,
        condition=condition_report(p, k_sano=scenario.sano_k),
        plant_decay=plant_decay,
        obs_err_decay=obs_decay,
        tau_requested=p.tau,
        tau_used=run.tau_used,
        tau_snapped=run.tau_snapped,
        T_requested=scenario.T,
        T_used=run.T_used,
        sano=sano,
        finite=traj.is_finite(),
        wall_time_s=wall,
        warnings=warnings,
    )


# A boundary law is called as law(scenario, run, rec, theta0, observer0) and
# returns the field to evolve and inflow(jn, field): the pair to impose at
# x = 0 at step jn, given the field with its interior already advanced.


def _observer_predictor(scenario, run, rec, theta0, observer0):
    """Observer at t - tau, closed-form exit prediction, cross feedback on it.

    The recorder keeps u and the exits at every step index; the delayed
    samples are read back from it by index.  The law also records the
    observer error and the prediction error at the exit; from step m on the
    recorder norms the observer error in blocks.
    """
    p, m, n = scenario.params, run.m, run.grid.n_cells
    k1, k2, dt, dx = p.k1, p.k2, run.grid.dt, run.grid.dx
    step_matrix = coupling_matrix(dt, p.h1, p.h2)
    prop = _exit_propagator(m, n, run.tau_used, p)
    warm = _input_pair(scenario.warmup_u)
    plants = deque([theta0], maxlen=m + 1)  # plants[0] is the plant from tau ago
    init_err = rec.obs_err_l2[0] = _l2(observer0 - theta0, dx)
    obs = observer0

    def inflow(jn, field):
        nonlocal obs
        plants.append(field)  # its node 0 is set before a later step reads it
        if jn > m:
            y = rec.exit_values[jn - m][::-1]  # y(t) reveals the plant exits at s = t - tau
            obs = _advance_observer(obs, step_matrix, k1, k2, y, rec.u[jn - m])
            pred_exit = _predict_exit(obs, rec.u[jn - n] if m > n else None, m, prop)
            rec.pred_err_at_l[jn] = pred_exit - field[-1]
            u_new = _cross_law(k1, k2, pred_exit)
        else:
            u_new = warm(jn * dt)
        if jn >= m:
            rec.record_obs_err(jn, obs, plants[0])
        else:
            rec.obs_err_l2[jn] = init_err
        return u_new

    return theta0, inflow


def _static_feedback(scenario, run, rec, theta0, observer0):
    """Sano's static delayed output feedback u1 = 0, u2(t) = -k * theta1(t - tau, l)."""
    k, m = scenario.sano_k, run.m

    def inflow(jn, field):
        if jn >= m:
            return np.array([0.0, -k * rec.exit_values[jn - m, 0]])
        return np.zeros(2)

    return theta0, inflow


def _cross_feedback(scenario, run, rec, theta0, observer0):
    """Cross feedback on the current exits, u1 = -k1 theta2(t, l), u2 = -k2 theta1(t, l).

    In a delayed run it is the delay-free reference loop, which applies the
    warm-up input while t <= tau; otherwise it is the error system, which
    evolves observer0 - theta0 under the feedback from the first step.
    """
    k1, k2, dt = scenario.params.k1, scenario.params.k2, run.grid.dt
    wait = run.m if run.delayed else 0
    warm = _input_pair(scenario.warmup_u)

    def inflow(jn, field):
        if jn > wait:
            return _cross_law(k1, k2, field[-1])
        return warm(jn * dt)

    return (theta0 if run.delayed else observer0 - theta0), inflow


def _simulate(scenario: Scenario, law, delayed: bool = True, with_observer: bool = False) -> RunResult:
    """The run skeleton every boundary law shares."""
    start = time.perf_counter()
    p = scenario.params
    run = _prepare(scenario, delayed)
    rng = np.random.default_rng(scenario.seed)
    theta0 = _resolve_field(run.grid, scenario.theta0, rng)
    observer0 = _resolve_field(run.grid, scenario.observer0, rng)
    rec = Recorder(run.grid, run.n_steps, run.grid.dt, scenario.snapshot_stride)
    field, inflow = law(scenario, run, rec, theta0, observer0)
    rec.record(0, field, np.zeros(2))
    step_matrix = coupling_matrix(run.grid.dt, p.h1, p.h2)
    for jn in range(1, run.n_steps + 1):
        field = _advance_exact(field, step_matrix, 0.0)  # the law sets the inflow
        field[0] = u_new = inflow(jn, field)
        rec.record(jn, field, u_new)
    traj = rec.finish()
    return RunResult(trajectory=traj, summary=_summarize(scenario, traj, run, start, with_observer))


def run_closed_loop(scenario: Scenario) -> RunResult:
    """Full observer-predictor feedback run."""
    return _simulate(scenario, _observer_predictor, with_observer=True)


def run_sano_baseline(scenario: Scenario, k: float | None = None) -> RunResult:
    """Static delayed output feedback u1 = 0, u2(t) = -k * theta1(t - tau, l)."""
    k = _require_sano_k(scenario.sano_k if k is None else k)
    return _simulate(dataclasses.replace(scenario, sano_k=k), _static_feedback)


def run_error_system(scenario: Scenario) -> RunResult:
    """Autonomous estimation-error dynamics with homogeneous cross boundary.

    The initial error is observer0 - theta0, with random profiles drawn in
    the closed loop's order (theta0 first).  The trajectory's plant_l2
    column holds the error norm and the u columns the boundary values the
    error system generates for itself.  With zero gains the boundary is
    zero and the error flushes to exactly zero once the initial data has
    left the domain (strictly after t = l; at t = l the exit node still
    carries the inflow-corner value).
    """
    return _simulate(scenario, _cross_feedback, delayed=False)


def run_delay_free_feedback(scenario: Scenario) -> RunResult:
    """Cross feedback on the true exit values, no delay and no observer.

    This is the loop the observer-predictor scheme reproduces once its
    prediction error vanishes; it exists as a reference, not a realizable
    controller (for t > tau it reads the current exits directly).
    """
    return _simulate(scenario, _cross_feedback)


def run_open_loop(scenario: Scenario) -> RunResult:
    """Plant driven by the configured open-loop input signals."""
    start = time.perf_counter()
    p = scenario.params
    run = _prepare(scenario, False)
    theta0 = _resolve_field(run.grid, scenario.theta0, np.random.default_rng(scenario.seed))
    u_fn = _input_pair(scenario.u_open)
    if scenario.solver == "upwind":
        dt_up = scenario.cfl * run.grid.dx
        steps_up = max(1, int(round(run.T_used / dt_up)))
        T_up = steps_up * dt_up
        if abs(T_up - run.T_used) > 1e-9 * max(1.0, run.T_used):
            run.warnings.append(f"T snapped from {run.T_used:g} to {T_up:g} for cfl={scenario.cfl:g}")
        traj = solve_upwind(
            theta0, u_fn, T_up, p, run.grid, cfl=scenario.cfl,
            snapshot_stride=scenario.snapshot_stride,
        )
        run.T_used = T_up
    elif scenario.solver == "exact":
        traj = solve_exact(
            theta0, u_fn, run.T_used, p, run.grid, snapshot_stride=scenario.snapshot_stride
        )
    else:
        raise ConfigError(f"run.solver must be exact or upwind, got {scenario.solver!r}")
    return RunResult(trajectory=traj, summary=_summarize(scenario, traj, run, start))


# controller -> (runner, whether the run must outlast the delay)
_CONTROLLERS = {
    "observer_predictor": (run_closed_loop, True),
    "sano_static": (run_sano_baseline, True),
    "open_loop": (run_open_loop, False),
    "error_system": (run_error_system, False),
}


def _require_sano_k(k: float | None) -> float:
    if k is None:
        raise ConfigError("missing required key run.sano_k (needed by sano_static)")
    return k


def check_scenario(scenario: Scenario) -> list[str]:
    """Check what a run needs before it starts; return the tau/T snap warnings.

    Raises ConfigError naming the offending setting by its config key.
    """
    if scenario.n_cells < 1:
        raise ConfigError(f"grid.n_cells must be >= 1, got {scenario.n_cells}")
    if not math.isfinite(scenario.T) or scenario.T <= 0:
        raise ConfigError(f"run.T must be positive and finite, got {scenario.T}")
    if scenario.controller not in _CONTROLLERS:
        raise ConfigError(
            f"unknown controller {scenario.controller!r} "
            f"(expected one of {sorted(_CONTROLLERS)})"
        )
    if scenario.controller == "sano_static":
        _require_sano_k(scenario.sano_k)
    if scenario.solver not in ("exact", "upwind"):
        raise ConfigError(f"run.solver must be exact or upwind, got {scenario.solver!r}")
    if not 0.0 < scenario.cfl <= 1.0:
        raise ConfigError(f"run.cfl must lie in (0, 1], got {scenario.cfl}")
    if scenario.solver == "upwind" and scenario.controller != "open_loop":
        raise ConfigError("the upwind solver is available for open_loop runs only")
    if not scenario.snapshot_stride > 0:
        raise ConfigError(f"run.snapshot_stride must be positive, got {scenario.snapshot_stride}")
    return _prepare(scenario, _CONTROLLERS[scenario.controller][1]).warnings


def run_scenario(scenario: Scenario) -> RunResult:
    """Check a scenario, then dispatch it to the runner its controller names."""
    check_scenario(scenario)
    return _CONTROLLERS[scenario.controller][0](scenario)
