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
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .analysis import ConditionReport, DecayReport, condition_report, fit_decay
from .coupling import coupling_matrix
from .errors import ConfigError
from .grid import Grid, _l2, check_field
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
    cfl: float = 1.0
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
    spec1, spec2 = spec
    out = np.column_stack(
        [profile_array(spec1, grid, rng), profile_array(spec2, grid, rng)]
    )
    return out


def _input_pair(specs: tuple[str, str]):
    f1 = input_function(specs[0])
    f2 = input_function(specs[1])
    return lambda t: np.array([f1(t), f2(t)])


def _prepare(scenario: Scenario):
    grid = Grid(scenario.n_cells, scenario.params.l)
    m, tau_used, tau_snapped = grid.snap_tau(scenario.params.tau)
    n_steps, T_used, T_snapped = grid.snap_steps(scenario.T)
    warnings = []
    if tau_snapped:
        warnings.append(
            f"tau snapped from {scenario.params.tau:g} to {tau_used:g} "
            f"({m} steps of dt={grid.dt:g})"
        )
    if T_snapped:
        warnings.append(f"T snapped from {scenario.T:g} to {T_used:g}")
    rng = np.random.default_rng(scenario.seed)
    return grid, m, tau_used, tau_snapped, n_steps, T_used, warnings, rng


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
    scenario: Scenario,
    traj: Trajectory,
    tau_used: float,
    tau_snapped: bool,
    T_used: float,
    warnings: list[str],
    wall: float,
    fit_start: float,
    with_observer: bool,
    sano_k: float | None = None,
) -> RunSummary:
    """``sano_k`` is the static gain a baseline run used; default: the scenario's."""
    p = scenario.params
    sano_k = scenario.sano_k if sano_k is None else sano_k
    window = _fit_window(fit_start, T_used, traj.dt)
    plant_decay = _safe_fit(traj.t, traj.plant_l2, window)
    obs_decay = None
    if with_observer:
        obs_decay = _safe_fit(traj.t, traj.obs_err_l2, _fit_window(tau_used + 2 * p.l, T_used, traj.dt))
    if plant_decay.floor_hit:
        warnings = warnings + ["decay fit: samples below the numerical floor were excluded"]
    if plant_decay.extinct:
        warnings = warnings + ["finite-time extinction: state norm at or below floor on the whole fit window"]
    sano = sano_window(p, sano_k) if sano_k is not None else None
    return RunSummary(
        controller=scenario.controller,
        condition=condition_report(p, k_sano=sano_k),
        plant_decay=plant_decay,
        obs_err_decay=obs_decay,
        tau_requested=p.tau,
        tau_used=tau_used,
        tau_snapped=tau_snapped,
        T_requested=scenario.T,
        T_used=T_used,
        sano=sano,
        finite=traj.is_finite(),
        wall_time_s=wall,
        warnings=warnings,
    )


def run_closed_loop(scenario: Scenario) -> RunResult:
    """Full observer-predictor feedback run."""
    start = time.perf_counter()
    p = scenario.params
    grid, m, tau_used, tau_snapped, n_steps, T_used, warnings, rng = _prepare(scenario)
    if n_steps <= m:
        raise ConfigError(
            f"final time T={scenario.T:g} must exceed the delay tau={tau_used:g}"
        )
    n = grid.n_cells
    dt = grid.dt
    k1, k2 = p.k1, p.k2
    M = coupling_matrix(dt, p.h1, p.h2)
    prop_tau = coupling_matrix(tau_used, p.h1, p.h2)
    prop_l = coupling_matrix(p.l, p.h1, p.h2)

    plant = _resolve_field(grid, scenario.theta0, rng)
    obs = _resolve_field(grid, scenario.observer0, rng)
    warm = _input_pair(scenario.warmup_u)

    plant_hist: deque[np.ndarray] = deque([plant], maxlen=m + 1)

    # The recorder keeps u and the exits at every step index; the delayed
    # samples the loop needs are read back from it by index.
    rec = Recorder(grid, n_steps, dt, scenario.snapshot_stride)
    init_err = _l2(obs - plant, grid.dx)
    rec.record(0, plant, np.zeros(2), obs_err=init_err)

    for jn in range(1, n_steps + 1):
        pred_exit = None
        if jn > m:
            y = rec.exit_values[jn - m][::-1]  # y(t) reveals the plant exits at s = t - tau
            u_at_s = rec.u[jn - m]
            new_obs = np.empty_like(obs)
            np.matmul(obs[:-1], M.T, out=new_obs[1:])
            new_obs[0, 0] = -k1 * (new_obs[n, 1] - y[0]) + u_at_s[0]
            new_obs[0, 1] = -k2 * (new_obs[n, 0] - y[1]) + u_at_s[1]
            obs = new_obs
            if m > n:
                pred_exit = prop_l @ rec.u[jn - n]
            else:
                pred_exit = prop_tau @ obs[n - m]
            u_new = np.array([-k1 * pred_exit[1], -k2 * pred_exit[0]])
        else:
            u_new = warm(jn * dt)
        plant = _advance_exact(plant, M, u_new)
        plant_hist.append(plant)
        obs_err = _l2(obs - plant_hist[0], grid.dx) if jn >= m else init_err
        pred_err = pred_exit - plant[n] if pred_exit is not None else None
        rec.record(jn, plant, u_new, obs_err=obs_err, pred_err=pred_err)

    traj = rec.finish()
    wall = time.perf_counter() - start
    summary = _summarize(
        scenario, traj, tau_used, tau_snapped, T_used, warnings, wall,
        fit_start=tau_used + 2 * p.l, with_observer=True,
    )
    return RunResult(trajectory=traj, summary=summary)


def run_sano_baseline(scenario: Scenario, k: float | None = None) -> RunResult:
    """Static delayed output feedback u1 = 0, u2(t) = -k * theta1(t - tau, l)."""
    start = time.perf_counter()
    p = scenario.params
    k = scenario.sano_k if k is None else k
    if k is None:
        raise ConfigError("sano_static controller requires a gain (run.sano_k)")
    grid, m, tau_used, tau_snapped, n_steps, T_used, warnings, rng = _prepare(scenario)
    if n_steps <= m:
        raise ConfigError(
            f"final time T={scenario.T:g} must exceed the delay tau={tau_used:g}"
        )
    dt = grid.dt
    M = coupling_matrix(dt, p.h1, p.h2)
    plant = _resolve_field(grid, scenario.theta0, rng)
    rec = Recorder(grid, n_steps, dt, scenario.snapshot_stride)
    rec.record(0, plant, np.zeros(2))
    for jn in range(1, n_steps + 1):
        if jn >= m:
            u_new = np.array([0.0, -k * rec.exit_values[jn - m, 0]])
        else:
            u_new = np.zeros(2)
        plant = _advance_exact(plant, M, u_new)
        rec.record(jn, plant, u_new)
    traj = rec.finish()
    wall = time.perf_counter() - start
    summary = _summarize(
        scenario, traj, tau_used, tau_snapped, T_used, warnings, wall,
        fit_start=tau_used + 2 * p.l, with_observer=False, sano_k=k,
    )
    return RunResult(trajectory=traj, summary=summary)


def run_error_system(scenario: Scenario) -> RunResult:
    """Autonomous estimation-error dynamics with homogeneous cross boundary.

    The initial error is observer0 - theta0.  The trajectory's plant_l2
    column holds the error norm and the u columns the boundary values the
    error system generates for itself.  With zero gains the boundary is
    zero and the error flushes to exactly zero once the initial data has
    left the domain (strictly after t = l; at t = l the exit node still
    carries the inflow-corner value).
    """
    start = time.perf_counter()
    p = scenario.params
    grid, m, tau_used, tau_snapped, n_steps, T_used, warnings, rng = _prepare(scenario)
    n = grid.n_cells
    dt = grid.dt
    k1, k2 = p.k1, p.k2
    M = coupling_matrix(dt, p.h1, p.h2)
    err = _resolve_field(grid, scenario.observer0, rng) - _resolve_field(grid, scenario.theta0, rng)
    rec = Recorder(grid, n_steps, dt, scenario.snapshot_stride)
    rec.record(0, err, np.zeros(2))
    for jn in range(1, n_steps + 1):
        new = np.empty_like(err)
        np.matmul(err[:-1], M.T, out=new[1:])
        new[0, 0] = -k1 * new[n, 1]
        new[0, 1] = -k2 * new[n, 0]
        err = new
        rec.record(jn, err, err[0])
    traj = rec.finish()
    wall = time.perf_counter() - start
    summary = _summarize(
        scenario, traj, tau_used, tau_snapped, T_used, warnings, wall,
        fit_start=2 * p.l, with_observer=False,
    )
    return RunResult(trajectory=traj, summary=summary)


def run_delay_free_feedback(scenario: Scenario) -> RunResult:
    """Cross feedback on the true exit values, no delay and no observer.

    This is the loop the observer-predictor scheme reproduces once its
    prediction error vanishes; it exists as a reference, not a realizable
    controller (for t > tau it reads the current exits directly).
    """
    start = time.perf_counter()
    p = scenario.params
    grid, m, tau_used, tau_snapped, n_steps, T_used, warnings, rng = _prepare(scenario)
    if n_steps <= m:
        raise ConfigError(
            f"final time T={scenario.T:g} must exceed the delay tau={tau_used:g}"
        )
    n = grid.n_cells
    dt = grid.dt
    k1, k2 = p.k1, p.k2
    M = coupling_matrix(dt, p.h1, p.h2)
    plant = _resolve_field(grid, scenario.theta0, rng)
    warm = _input_pair(scenario.warmup_u)
    rec = Recorder(grid, n_steps, dt, scenario.snapshot_stride)
    rec.record(0, plant, np.zeros(2))
    for jn in range(1, n_steps + 1):
        t_new = jn * dt
        new = np.empty_like(plant)
        np.matmul(plant[:-1], M.T, out=new[1:])
        if jn > m:
            u_new = np.array([-k1 * new[n, 1], -k2 * new[n, 0]])
        else:
            u_new = warm(t_new)
        new[0] = u_new
        plant = new
        rec.record(jn, plant, u_new)
    traj = rec.finish()
    wall = time.perf_counter() - start
    summary = _summarize(
        scenario, traj, tau_used, tau_snapped, T_used, warnings, wall,
        fit_start=tau_used + 2 * p.l, with_observer=False,
    )
    return RunResult(trajectory=traj, summary=summary)


def run_open_loop(scenario: Scenario) -> RunResult:
    """Plant driven by the configured open-loop input signals."""
    start = time.perf_counter()
    p = scenario.params
    grid, m, tau_used, tau_snapped, n_steps, T_used, warnings, rng = _prepare(scenario)
    theta0 = _resolve_field(grid, scenario.theta0, rng)
    u_fn = _input_pair(scenario.u_open)
    if scenario.solver == "upwind":
        dt_up = scenario.cfl * grid.dx
        steps_up = max(1, int(round(T_used / dt_up)))
        T_up = steps_up * dt_up
        if abs(T_up - T_used) > 1e-9 * max(1.0, T_used):
            warnings = warnings + [f"T snapped from {T_used:g} to {T_up:g} for cfl={scenario.cfl:g}"]
        traj = solve_upwind(
            theta0, u_fn, T_up, p, grid, cfl=scenario.cfl,
            snapshot_stride=scenario.snapshot_stride,
        )
        T_used = T_up
    elif scenario.solver == "exact":
        traj = solve_exact(
            theta0, u_fn, T_used, p, grid, snapshot_stride=scenario.snapshot_stride
        )
    else:
        raise ConfigError(f"unknown solver {scenario.solver!r} (expected exact or upwind)")
    wall = time.perf_counter() - start
    summary = _summarize(
        scenario, traj, tau_used, tau_snapped, T_used, warnings, wall,
        fit_start=2 * p.l, with_observer=False,
    )
    return RunResult(trajectory=traj, summary=summary)


_RUNNERS = {
    "observer_predictor": run_closed_loop,
    "sano_static": run_sano_baseline,
    "open_loop": run_open_loop,
    "error_system": run_error_system,
}


def run_scenario(scenario: Scenario) -> RunResult:
    """Dispatch a scenario to the runner its controller names."""
    runner = _RUNNERS.get(scenario.controller)
    if runner is None:
        raise ConfigError(
            f"unknown controller {scenario.controller!r} "
            f"(expected one of {sorted(_RUNNERS)})"
        )
    if scenario.solver == "upwind" and scenario.controller != "open_loop":
        raise ConfigError("the upwind solver is available for open_loop runs only")
    return runner(scenario)
