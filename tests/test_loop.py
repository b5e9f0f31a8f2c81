import copy

import numpy as np
import pytest

import oracle
from conftest import field_from
from oracle import control_law, observer_step, predict_exit
from pfhx import (
    ConfigError,
    Grid,
    Params,
    Scenario,
    fit_decay,
    input_function,
    loop,
    profile_array,
    run_delay_free_feedback,
    run_scenario,
)
from pfhx.coupling import coupling_matrix
from pfhx.grid import _l2
from pfhx.history import rows
from pfhx.params import _CONTROLLERS, check_scenario


def scenario_with(tau=0.5, T=20.0, n=100, controller="observer_predictor", **kw):
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=tau, k1=0.5, k2=0.5)
    return Scenario(params=params, n_cells=n, T=T, controller=controller,
                    theta0=("step(0.5, 1.0, 0.0)", "zero"), **kw)


def run_as(controller, sc, **kw):
    """``sc`` run under another controller (and any other replaced fields)."""
    return run_scenario(sc._replace(controller=controller, **kw))



@pytest.mark.parametrize("tau", [0.5, 1.5])
@pytest.mark.parametrize("controller, applies", [
    ("observer_predictor", True), ("delay_free", True), ("sano_static", False),
    ("error_system", False)])
def test_warmup_input_applies_to_the_observer_predictor_and_delay_free_runs_only(controller,
                                                                                 applies, tau):
    def run(warmup_u):
        sc = scenario_with(tau=tau, T=4.0, n=20, sano_k=0.5, observer0=("sine(1, 1)", "zero"),
                           warmup_u=warmup_u)
        if controller == "delay_free":
            return run_delay_free_feedback(sc).trajectory
        return run_as(controller, sc).trajectory

    cold, hot = run(("zero", "zero")), run(("constant(7)", "constant(9)"))
    m = round(tau * 20)  # tau in steps
    if applies:
        assert np.array_equal(hot.u[1:m + 1], np.tile([7.0, 9.0], (m, 1)))
        assert not np.array_equal(hot.plant_l2, cold.plant_l2)
    else:
        if controller == "sano_static":  # its inlet stays zero until step m
            assert not hot.u[:m].any()
        for name in ("u", "plant_l2", "exit_values", "snapshots"):
            assert np.array_equal(getattr(hot, name), getattr(cold, name)), name


def test_zero_error_shortcut_matches_delay_free_feedback():
    grid = Grid(100, 1.0)
    theta0 = field_from(grid, lambda x: np.sin(np.pi * x), lambda x: x * (1 - x))
    sc = scenario_with(tau=0.5, T=10.0)
    sc = sc._replace(theta0=theta0)
    sc = sc._replace(observer0=theta0.copy())
    closed = run_scenario(sc)
    reference = run_delay_free_feedback(sc)
    t = closed.trajectory.t
    mask = t > 0.5
    np.testing.assert_allclose(
        closed.trajectory.u[mask], reference.trajectory.u[mask], rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        closed.trajectory.plant_l2, reference.trajectory.plant_l2, rtol=0, atol=1e-10
    )
    # with zero estimation error the applied input is the static feedback on
    # the true exits, every step
    u, exits = closed.trajectory.u[mask], closed.trajectory.exit_values[mask]
    assert np.abs(u[:, 0] + 0.5 * exits[:, 1]).max() <= 1e-12
    assert np.abs(u[:, 1] + 0.5 * exits[:, 0]).max() <= 1e-12


def test_closed_loop_observer_error_decouples():
    sc = scenario_with(tau=0.5, T=20.0)
    sc = sc._replace(observer0=("sine(1, 1)", "sine(1, 1)"))
    closed = run_scenario(sc)
    err = run_as("error_system", sc)
    m = round(0.5 / closed.trajectory.dt)
    closed_series = closed.trajectory.obs_err_l2[m:]
    standalone = err.trajectory.plant_l2[: len(closed_series)]
    assert np.abs(closed_series - standalone).max() <= 1e-10


def test_error_system_draws_random_profiles_in_closed_loop_order():
    # theta0 is drawn before observer0 in both runners, so the decoupling
    # oracle compares the same initial error
    sc = scenario_with(tau=0.5, T=20.0, n=50)
    sc = sc._replace(theta0=("random(1.0)", "random(1.0)"))
    sc = sc._replace(observer0=("random(0.5)", "sine(1, 1)"))
    sc = sc._replace(seed=3)
    closed = run_scenario(sc)
    err = run_as("error_system", sc)
    m = round(0.5 / closed.trajectory.dt)
    closed_series = closed.trajectory.obs_err_l2[m:]
    standalone = err.trajectory.plant_l2[: len(closed_series)]
    assert np.abs(closed_series - standalone).max() <= 1e-10


@pytest.mark.parametrize("theta0, observer0", [
    (("random(1.0)", "zero"), ("zero", "zero")),
    (("zero", "random(1.0)"), ("random(0.5)", "sine(1, 1)")),
    (("step(0.5, 1.0, 0.0)", "zero"), ("random(0.5)", "random(0.25)")),
    (("random(1.0)", "random(2.0)"), ("random(0.5)", "random(0.5)")),
    ("array", ("zero", "random(0.5)")),
])
def test_random_profiles_draw_as_from_an_eager_generator(theta0, observer0):
    # the generator is made only when a profile draws, but from the same seed and
    # in the same order: theta0 first, then the observer start
    grid = Grid(30, 1.0)
    sc = scenario_with(tau=0.5, T=4.0, n=30, seed=11)
    sc = sc._replace(theta0=field_from(grid, 0.5, -1.0) if theta0 == "array" else theta0)
    sc = sc._replace(observer0=observer0)
    run = loop._prepare(sc)
    rng = np.random.default_rng(11)
    expected = [spec if isinstance(spec, np.ndarray)
                else np.column_stack([profile_array(c, grid, rng) for c in spec])
                for spec in (sc.theta0, sc.observer0)]
    assert np.array_equal(run.theta0, expected[0])
    assert np.array_equal(run.observer0, expected[1])


def test_exact_compensation_boundary_identity():
    # tau > l: the realized boundary equals pure cross feedback regardless of
    # the observer initialization; warm-up input keeps the run non-trivial
    sc = scenario_with(tau=1.5, T=12.0)
    sc = sc._replace(observer0=("constant(2.0)", "sine(3, 2)"))
    sc = sc._replace(warmup_u=("sine(1, 4)", "constant(0.5)"))
    result = run_scenario(sc)
    traj = result.trajectory
    mask = traj.t > 1.5
    r1 = traj.u[mask, 0] + 0.5 * traj.exit_values[mask, 1]
    r2 = traj.u[mask, 1] + 0.5 * traj.exit_values[mask, 0]
    assert np.abs(r1).max() <= 1e-10
    assert np.abs(r2).max() <= 1e-10
    assert np.abs(traj.pred_err_at_l[mask]).max() <= 1e-12


def test_superposition_of_feedback_and_disturbance_response():
    # closed loop = (delay-free feedback from theta0) + (loop response to the
    # prediction-error disturbance from zero data)
    sc = scenario_with(tau=0.5, T=10.0)
    sc = sc._replace(observer0=("sine(1, 1)", "sine(1, 2)"))
    closed = run_scenario(sc)
    feedback = run_delay_free_feedback(sc)

    params = sc.params
    grid = Grid(sc.n_cells, params.l)
    m = round(0.5 / grid.dt)
    n = grid.n_cells
    step_matrix = coupling_matrix(grid.dt, params.h1, params.h2)
    disturbance = closed.trajectory.pred_err_at_l
    field = np.zeros((n + 1, 2))
    exits = [field[n].copy()]
    for jn in range(1, len(closed.trajectory.t)):
        new = np.empty_like(field)
        new[1:] = field[:-1] @ step_matrix.T
        if jn > m:
            new[0, 0] = -params.k1 * new[n, 1] - params.k1 * disturbance[jn, 1]
            new[0, 1] = -params.k2 * new[n, 0] - params.k2 * disturbance[jn, 0]
        else:
            new[0] = 0.0
        field = new
        exits.append(field[n].copy())
    combined = feedback.trajectory.exit_values + np.array(exits)
    assert np.abs(combined - closed.trajectory.exit_values).max() <= 1e-9


def test_tau_snap_reported():
    sc = scenario_with(tau=0.333, T=5.0, n=100)
    result = run_scenario(sc)
    assert result.summary.tau_snapped
    assert result.summary.tau_used == pytest.approx(0.33)
    assert any("snapped" in w for w in result.summary.warnings)


def test_T_not_exceeding_tau_is_config_error():
    sc = scenario_with(tau=1.5, T=1.0)
    with pytest.raises(ConfigError, match="must exceed"):
        run_scenario(sc)


def test_upwind_open_loop_snaps_T_once_to_its_own_step():
    # dt = cfl * dx = 0.03: T = 0.26 is 9 steps (0.27), not 10 steps of a
    # T first snapped to dx (0.3); check reports the snap the run makes
    sc = scenario_with(T=0.26, n=10, controller="open_loop", solver="upwind", cfl=0.3)
    assert check_scenario(sc) == ["T snapped from 0.26 to 0.27"]
    result = run_scenario(sc)
    assert len(result.trajectory.t) == 10
    assert result.summary.T_used == pytest.approx(0.27)
    assert result.summary.warnings.count("T snapped from 0.26 to 0.27") == 1
    assert check_scenario(sc._replace(T=1.0)) == ["T snapped from 1 to 0.99"]
    with pytest.raises(ConfigError, match="run.cfl"):  # the step is cfl * dx
        run_scenario(sc._replace(cfl=0.0))


def test_sano_baseline_inside_window_decays():
    sc = scenario_with(tau=1.5, T=30.0, controller="sano_static", sano_k=1.0)
    result = run_scenario(sc)
    assert result.summary.condition.sano is not None and result.summary.condition.sano.in_window
    assert result.summary.plant_decay.gamma_hat > 0
    # u1 stays identically zero for this controller
    assert np.all(result.trajectory.u[:, 0] == 0.0)


def test_sano_zero_gain_reports_finite_time_extinction():
    sc = scenario_with(tau=1.5, T=10.0, controller="sano_static", sano_k=0.0)
    result = run_scenario(sc)
    assert result.summary.plant_decay.extinct
    assert any("extinction" in w for w in result.summary.warnings)
    # the exit node holds the inflow-corner value until t = l exactly
    traj = result.trajectory
    late = traj.plant_l2[traj.t >= 1.0 + traj.dt]
    assert np.all(late == 0.0)


def test_sano_requires_gain():
    sc = scenario_with(controller="sano_static")
    with pytest.raises(ConfigError, match="sano_k"):
        run_scenario(sc)
    with pytest.raises(ConfigError, match="sano_k"):
        check_scenario(sc)


def test_error_system_zero_error_stays_zero():
    sc = scenario_with(tau=0.5, T=5.0, controller="error_system")
    sc = sc._replace(theta0=("sine(1, 1)", "zero"))
    sc = sc._replace(observer0=("sine(1, 1)", "zero"))
    result = run_scenario(sc)
    assert np.all(result.trajectory.plant_l2 == 0.0)


def test_error_system_reports_growth_without_asserting_sign():
    # far outside the gain conditions the fit is report-only
    params = Params(h1=1.0, h2=1.0, l=1.0, tau=0.5, k1=3.0, k2=3.0)
    sc = Scenario(params=params, n_cells=50, T=8.0, controller="error_system",
                  observer0=("sine(1, 1)", "zero"))
    result = run_scenario(sc)
    assert result.summary.finite
    assert np.isfinite(result.summary.plant_decay.gamma_hat)
    assert not result.summary.condition.gains.theorem_valid


def test_open_loop_upwind_choice():
    sc = scenario_with(tau=0.5, T=2.0, controller="open_loop", solver="upwind", cfl=0.5)
    sc = sc._replace(u_open=("constant(1.0)", "zero"))
    result = run_scenario(sc)
    assert result.summary.finite
    expected = coupling_matrix(1.0, 1.0, 2.0) @ np.array([1.0, 0.0])
    np.testing.assert_allclose(result.trajectory.exit_values[-1], expected, rtol=0, atol=5e-3)


def test_non_unit_length_and_asymmetric_rates():
    # geometry and rate asymmetry must not hide behind the usual l = 1
    params = Params(h1=0.6, h2=1.7, l=2.0, tau=2.5, k1=0.4, k2=0.9)
    sc = Scenario(params=params, n_cells=160, T=20.0,
                  theta0=("gaussian(1.0, 0.3, 1.0)", "sine(1, 2)"),
                  observer0=("constant(0.5)", "zero"),
                  warmup_u=("sine(1, 3)", "constant(0.2)"))
    result = run_scenario(sc)
    traj = result.trajectory
    mask = traj.t > 2.5
    assert np.abs(traj.pred_err_at_l[mask]).max() <= 1e-12
    assert np.abs(traj.u[mask, 0] + params.k1 * traj.exit_values[mask, 1]).max() <= 1e-12
    assert result.summary.plant_decay.gamma_hat > 0

    small_delay = Params(h1=0.6, h2=1.7, l=2.0, tau=0.75, k1=0.4, k2=0.9)
    sc2 = Scenario(params=small_delay, n_cells=160, T=16.0,
                   theta0=("step(1.2, 1.0, -0.5)", "zero"),
                   observer0=("sine(1, 1)", "sine(0.5, 3)"))
    closed = run_scenario(sc2)
    standalone = run_as("error_system", sc2)
    m = round(0.75 / closed.trajectory.dt)
    series = closed.trajectory.obs_err_l2[m:]
    assert np.abs(series - standalone.trajectory.plant_l2[: len(series)]).max() <= 1e-10


def test_invalid_gains_run_without_refusal():
    # no converse result exists, so violating gains are simulated and flagged
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=2.0, k2=2.0)
    sc = Scenario(params=params, n_cells=50, T=6.0, controller="observer_predictor",
                  theta0=("step(0.5, 1.0, 0.0)", "zero"), observer0=("sine(1, 1)", "zero"))
    result = run_scenario(sc)
    assert not result.summary.condition.gains.theorem_valid
    assert result.summary.finite


def test_dispatch_and_controller_validation():
    sc = scenario_with(tau=0.5, T=5.0)
    assert run_scenario(sc).summary.controller == "observer_predictor"
    sc = sc._replace(controller="nonsense")
    with pytest.raises(ConfigError, match="unknown controller"):
        run_scenario(sc)
    sc = sc._replace(controller="observer_predictor")
    sc = sc._replace(solver="upwind")
    with pytest.raises(ConfigError, match="open_loop runs only"):
        run_scenario(sc)


def test_every_controller_a_scenario_may_name_has_a_recurrence():
    # one table names the controllers; the loop adds only its delay-free reference
    assert set(loop._RECURRENCES) == set(_CONTROLLERS) | {"delay_free"}


# every law a scenario reaches: run_scenario under each controller, and the
# delay-free reference loop, with the name its summary reports
RUNNERS = {
    "closed_loop": (lambda sc: run_as("observer_predictor", sc), "observer_predictor"),
    "sano": (lambda sc: run_as("sano_static", sc, sano_k=1.0), "sano_static"),
    "error_system": (lambda sc: run_as("error_system", sc), "error_system"),
    "delay_free": (run_delay_free_feedback, "delay_free"),
    "open_loop": (lambda sc: run_as("open_loop", sc), "open_loop"),
}


@pytest.mark.parametrize("controller", ["observer_predictor", "open_loop"])
@pytest.mark.parametrize("solver", ["upwind", "bogus"])
@pytest.mark.parametrize("name", ["closed_loop", "sano", "error_system", "delay_free"])
def test_direct_runner_refuses_a_solver_the_cli_refuses(name, solver, controller):
    # the upwind step is cfl * dx, which only the open loop runs; the
    # delay-free loop ignores a scenario that names open_loop
    runner, _ = RUNNERS[name]
    sc = scenario_with(tau=0.5, T=4.0, n=20, controller=controller, solver=solver, cfl=0.5)
    with pytest.raises(ConfigError, match="run.solver"):
        runner(sc)


@pytest.mark.parametrize("setting, key", [
    ({"T": float("inf")}, "run.T"), ({"snapshot_stride": 0.0}, "run.snapshot_stride")])
@pytest.mark.parametrize("name", RUNNERS)
def test_direct_runner_refuses_a_run_setting_the_cli_refuses(name, setting, key):
    runner, _ = RUNNERS[name]
    sc = scenario_with(tau=0.5, T=4.0, n=20)
    with pytest.raises(ConfigError, match=key):
        runner(sc._replace(**setting))


@pytest.mark.parametrize("name", RUNNERS)
def test_summary_names_the_law_that_ran(name):
    runner, reported = RUNNERS[name]
    summary = runner(scenario_with(tau=0.5, T=4.0, n=20)).summary
    assert summary.controller == reported
    assert (summary.condition.sano is not None) == (reported == "sano_static")


def test_summary_reproducible_from_trajectory():
    sc = scenario_with(tau=0.5, T=20.0)
    sc = sc._replace(observer0=("sine(1, 1)", "sine(1, 1)"))
    result = run_scenario(sc)
    summary_fit = result.summary.plant_decay
    refit = fit_decay(result.trajectory.t, result.trajectory.plant_l2,
                      window=summary_fit.window)
    assert refit.gamma_hat == summary_fit.gamma_hat
    assert refit.r_squared == summary_fit.r_squared


def test_random_profiles_are_seed_deterministic():
    sc = scenario_with(tau=0.5, T=3.0)
    sc = sc._replace(theta0=("random(1.0)", "gaussian(0.5, 0.1, 2.0)"))
    sc = sc._replace(seed=11)
    first = run_scenario(sc)
    second = run_scenario(sc)
    np.testing.assert_array_equal(first.trajectory.plant_l2, second.trajectory.plant_l2)
    sc = sc._replace(seed=12)
    third = run_scenario(sc)
    assert first.trajectory.plant_l2[0] != third.trajectory.plant_l2[0]


@pytest.mark.parametrize(
    "runner, controller, kwargs",
    [
        (run_scenario, "observer_predictor", {}),
        (run_scenario, "sano_static", {"sano_k": 1.0}),
        (run_scenario, "error_system", {}),
        (run_delay_free_feedback, "observer_predictor", {}),
        (run_scenario, "open_loop", {}),
    ],
)
def test_runners_leave_scenario_unchanged(runner, controller, kwargs):
    grid = Grid(50, 1.0)
    sc = scenario_with(tau=0.5, T=4.0, n=50, controller=controller,
                       u_open=("sine(1, 2)", "zero"), warmup_u=("constant(0.5)", "zero"),
                       **kwargs)
    sc = sc._replace(theta0=field_from(grid, lambda x: np.sin(np.pi * x), 0.5))
    sc = sc._replace(observer0=field_from(grid, 0.0, lambda x: x * (1 - x)))
    before = {f: copy.deepcopy(getattr(sc, f)) for f in sc._fields}
    runner(sc)
    for name, value in before.items():
        now = getattr(sc, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(now, value), name
        else:
            assert now == value, name


def _advance(field, mix, u_new):
    """One exact characteristic step: node i + 1 takes node i times ``mix``, node 0 u_new.

    ``mix`` is a C-contiguous copy of the transposed step matrix (``_mix``);
    the oracle multiplies by the transposed view, for the same bits here.
    """
    out = np.empty_like(field)
    np.matmul(field[:-1], mix, out=out[1:])
    out[0] = u_new
    return out


def _mix(dt, p):
    return np.ascontiguousarray(coupling_matrix(dt, p.h1, p.h2).T)


def _index_scenario(tau: float, controller: str = "observer_predictor", **kw) -> Scenario:
    grid = Grid(50, 1.0)
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=tau, k1=0.5, k2=0.5)
    return Scenario(params=params, n_cells=50, T=6.0, controller=controller,
                    theta0=field_from(grid, lambda x: np.sin(np.pi * x), lambda x: x),
                    observer0=field_from(grid, lambda x: np.cos(3 * x), -0.25),
                    warmup_u=("sine(1, 4)", "constant(0.5)"), **kw)


def _reference_closed_loop(sc: Scenario) -> dict:
    """The observer-predictor loop built from the oracle's separately tested pieces."""
    p = sc.params
    grid = Grid(sc.n_cells, p.l)
    m, tau_used, _ = grid.snap_tau(p.tau)
    n_steps, _, _ = grid.snap_steps(sc.T)
    n, dt = grid.n_cells, grid.dt
    mix = _mix(dt, p)
    warm = [input_function(spec) for spec in sc.warmup_u]
    plant = sc.theta0.copy()
    obs = sc.observer0.copy()
    # the samples recorded so far, read back by time
    u_hist = np.zeros((n_steps + 1, 2))
    exit_hist = np.zeros((n_steps + 1, 2))
    exit_hist[0] = plant[n]
    plants = [plant]
    out = {"u": [np.zeros(2)], "exit_values": [plant[n]], "pred_err_at_l": [np.zeros(2)],
           "obs_err_l2": [_l2(obs - plant, grid.dx)]}
    for jn in range(1, n_steps + 1):
        t = jn * dt
        pred = None
        if jn > m:
            y = rows(exit_hist[:jn], jn - m, 1, dt)[0, ::-1]
            obs = observer_step(obs, y, rows(u_hist[:jn], jn - m, 1, dt)[0], p, grid)
            pred = predict_exit(obs, u_hist[:jn], t, p, grid)
            u = control_law(pred, p, t, tau=tau_used)
        else:
            u = np.array([warm[0](t), warm[1](t)])
        plant = _advance(plant, mix, u)
        plants.append(plant)
        u_hist[jn] = u
        exit_hist[jn] = plant[n]
        out["u"].append(u)
        out["exit_values"].append(plant[n])
        out["pred_err_at_l"].append(np.zeros(2) if pred is None else pred - plant[n])
        out["obs_err_l2"].append(
            _l2(obs - plants[jn - m], grid.dx) if jn >= m else out["obs_err_l2"][0]
        )
    return {name: np.array(values) for name, values in out.items()}


DELAY_EDGES = [0.02, 0.98, 1.0, 1.02, 1.5]  # dt, l - dt, l, l + dt, 1.5 l at n_cells = 50


@pytest.mark.parametrize("tau", DELAY_EDGES)
def test_closed_loop_matches_reference_loop_at_delay_edges(tau):
    sc = _index_scenario(tau)
    traj = oracle.simulate(sc)
    expected = _reference_closed_loop(sc)
    for name, values in expected.items():
        assert np.array_equal(getattr(traj, name), values), name
    assert traj.obs_err_l2[-1] != 0.0  # the observer error is still live at T


@pytest.mark.parametrize("tau", [0.02, 1.0])  # tau = dt reads step 0 at the first step
def test_sano_baseline_matches_reference_loop(tau):
    k = 0.8
    sc = _index_scenario(tau, controller="sano_static", sano_k=k)
    traj = oracle.simulate(sc)
    grid = Grid(sc.n_cells, sc.params.l)
    m, _, _ = grid.snap_tau(tau)
    n_steps, _, _ = grid.snap_steps(sc.T)
    n, dt = grid.n_cells, grid.dt
    mix = _mix(dt, sc.params)
    plant = sc.theta0.copy()
    exit_hist = np.zeros((n_steps + 1, 2))
    exit_hist[0] = plant[n]
    u_ref, exits_ref = [np.zeros(2)], [plant[n]]
    for jn in range(1, n_steps + 1):
        u = np.zeros(2)
        if jn >= m:
            u[1] = -k * rows(exit_hist[:jn], jn - m, 1, dt)[0, 0]
        plant = _advance(plant, mix, u)
        exit_hist[jn] = plant[n]
        u_ref.append(u)
        exits_ref.append(plant[n])
    assert np.array_equal(traj.u, np.array(u_ref))
    assert np.array_equal(traj.exit_values, np.array(exits_ref))


@pytest.mark.parametrize("tau", DELAY_EDGES)
def test_delay_free_feedback_matches_reference_loop(tau):
    sc = _index_scenario(tau)
    traj = oracle.simulate(sc, delay_free=True)
    p = sc.params
    grid = Grid(sc.n_cells, p.l)
    m, tau_used, _ = grid.snap_tau(tau)
    n_steps, _, _ = grid.snap_steps(sc.T)
    mix = _mix(grid.dt, p)
    warm = [input_function(spec) for spec in sc.warmup_u]
    plant = sc.theta0.copy()
    u_ref, exits_ref, norms_ref = [np.zeros(2)], [plant[-1]], [_l2(plant, grid.dx)]
    for jn in range(1, n_steps + 1):
        t = jn * grid.dt
        plant = _advance(plant, mix, np.zeros(2))
        if jn > m:
            plant[0] = control_law(plant[-1], p, t, tau=tau_used)  # the current exits
        else:
            plant[0] = [warm[0](t), warm[1](t)]
        u_ref.append(plant[0].copy())
        exits_ref.append(plant[-1])
        norms_ref.append(_l2(plant, grid.dx))
    assert np.array_equal(traj.u, np.array(u_ref))
    assert np.array_equal(traj.exit_values, np.array(exits_ref))
    assert np.array_equal(traj.plant_l2, np.array(norms_ref))


@pytest.mark.parametrize("tau", DELAY_EDGES)
def test_error_system_matches_reference_loop(tau):
    # the estimation error is the observer of a zero plant under zero input
    sc = _index_scenario(tau, controller="error_system")
    traj = oracle.simulate(sc)
    grid = Grid(sc.n_cells, sc.params.l)
    n_steps, _, _ = grid.snap_steps(sc.T)
    err = sc.observer0 - sc.theta0
    u_ref, exits_ref, norms_ref = [np.zeros(2)], [err[-1]], [_l2(err, grid.dx)]
    for _ in range(n_steps):
        err = observer_step(err, np.zeros(2), np.zeros(2), sc.params, grid)
        u_ref.append(err[0])
        exits_ref.append(err[-1])
        norms_ref.append(_l2(err, grid.dx))
    assert np.array_equal(traj.u, np.array(u_ref))
    assert np.array_equal(traj.exit_values, np.array(exits_ref))
    assert np.array_equal(traj.plant_l2, np.array(norms_ref))
    assert traj.plant_l2[-1] != 0.0  # the error is still live at T
