import numpy as np
import pytest

from conftest import random_field
from oracle import control_law, observer_step, predict_by_resolve, predict_exit, step_exact
from pfhx import Grid, Params, predict
from pfhx.coupling import coupling_matrix


def make_params(tau=0.5, k1=0.5, k2=0.5, h1=1.0, h2=2.0):
    return Params(h1=h1, h2=h2, l=1.0, tau=tau, k1=k1, k2=k2)


def simulate_plant(grid, params, theta0, u_fn, n_steps):
    """Plant rollout returning the field, exit pair, and input at every step."""
    fields = [theta0.copy()]
    for j in range(n_steps):
        fields.append(step_exact(fields[-1], j * grid.dt, u_fn, params, grid))
    exits = np.array([f[-1] for f in fields])
    inputs = np.array([u_fn(j * grid.dt) for j in range(n_steps + 1)])
    return fields, exits, inputs


def drive_observer(obs0, grid, params, exits, inputs, n_steps):
    """Feed the observer the plant's recorded measurements and inputs.

    The measurement injected at observer time s is the exit pair at s in
    swapped order (that is what arrives at wall clock s + tau).
    """
    trace = [obs0.copy()]
    for j in range(1, n_steps + 1):
        trace.append(observer_step(trace[-1], exits[j][::-1], inputs[j], params, grid))
    return trace


def test_observer_initialized_at_truth_tracks_plant():
    grid = Grid(80, 1.0)
    params = make_params()
    rng = np.random.default_rng(20)
    theta0 = random_field(grid, rng)
    u_fn = lambda t: np.array([np.sin(2 * t), np.cos(t)])
    n_steps = 240
    fields, exits, inputs = simulate_plant(grid, params, theta0, u_fn, n_steps)
    trace = drive_observer(theta0, grid, params, exits, inputs, n_steps)
    for j in (1, 50, 120, 240):
        np.testing.assert_allclose(trace[j], fields[j], rtol=0, atol=1e-12)


def test_zero_observer_stays_zero():
    grid = Grid(30, 1.0)
    params = make_params()
    obs = np.zeros((grid.n_cells + 1, 2))
    for _ in range(60):
        obs = observer_step(obs, np.zeros(2), np.zeros(2), params, grid)
    assert np.all(obs == 0.0)


def test_estimation_error_is_autonomous():
    # observer minus plant must match the standalone homogeneous error system
    grid = Grid(100, 1.0)
    params = make_params()
    rng = np.random.default_rng(21)
    theta0 = random_field(grid, rng)
    obs0 = random_field(grid, rng)
    u_fn = lambda t: np.array([np.sin(3 * t), 0.5])
    n_steps = 2000  # 20 time units
    fields, exits, inputs = simulate_plant(grid, params, theta0, u_fn, n_steps)
    trace = drive_observer(obs0, grid, params, exits, inputs, n_steps)

    err = obs0 - theta0
    step_matrix = coupling_matrix(grid.dt, params.h1, params.h2)
    n = grid.n_cells
    worst = 0.0
    for j in range(1, n_steps + 1):
        new = np.empty_like(err)
        new[1:] = err[:-1] @ step_matrix.T
        new[0, 0] = -params.k1 * new[n, 1]
        new[0, 1] = -params.k2 * new[n, 0]
        err = new
        worst = max(worst, np.abs((trace[j] - fields[j]) - err).max())
    assert worst <= 1e-10


@pytest.mark.parametrize("tau", [0.4, 1.3])
def test_predict_with_exact_estimate_recovers_truth(tau):
    grid = Grid(100, 1.0)
    params = make_params(tau=tau)
    rng = np.random.default_rng(22)
    theta0 = random_field(grid, rng)
    u_fn = lambda t: np.array([np.cos(t), np.sin(2 * t)])
    m = round(tau / grid.dt)
    horizon = m + 60
    fields, exits, inputs = simulate_plant(grid, params, theta0, u_fn, horizon)
    t_now = horizon * grid.dt
    pred = predict(fields[horizon - m], inputs, t_now, params, grid)
    np.testing.assert_allclose(pred, fields[horizon], rtol=0, atol=1e-12)
    np.testing.assert_allclose(pred[-1], exits[horizon], rtol=0, atol=1e-12)


def test_predicted_exit_ignores_estimate_when_tau_exceeds_l():
    grid = Grid(50, 1.0)
    params = make_params(tau=1.5)
    rng = np.random.default_rng(23)
    inputs = rng.standard_normal((200, 2))
    t_now = 199 * grid.dt
    exit_a = predict_exit(random_field(grid, rng), inputs, t_now, params, grid)
    exit_b = predict_exit(random_field(grid, rng), inputs, t_now, params, grid)
    np.testing.assert_array_equal(exit_a, exit_b)
    expected = coupling_matrix(params.l, params.h1, params.h2) @ inputs[199 - grid.n_cells]
    np.testing.assert_allclose(exit_a, expected, rtol=0, atol=0)


@pytest.mark.parametrize(
    "tau, h1, n_cells",
    [
        (0.2, 1.0, 100),
        (0.9, 1.0, 100),
        (1.3, 1.0, 100),
        (0.01, 1.0, 100),  # tau = dt
        (0.99, 1.0, 100),  # l - dt
        (1.0, 1.0, 100),  # l
        (1.01, 1.0, 100),  # l + dt
        (0.5, 0.0, 100),
        (1.3, 0.0, 100),
        (0.5, 1.0, 1),  # one cell: tau snaps to dt = l
        (2.0, 1.0, 1),
    ],
    ids=["0.2", "0.9", "1.3", "tau=dt", "tau=l-dt", "tau=l", "tau=l+dt",
         "h1=0", "h1=0-tau>l", "n_cells=1", "n_cells=1-tau>l"],
)
def test_predict_matches_brute_force_resolve(tau, h1, n_cells):
    grid = Grid(n_cells, 1.0)
    params = make_params(tau=tau, h1=h1)
    rng = np.random.default_rng(24)
    m, _, _ = grid.snap_tau(tau)
    for _ in range(4):
        obs_field = random_field(grid, rng)
        n_hist = m + 10
        inputs = rng.standard_normal((n_hist + 1, 2))
        t_now = n_hist * grid.dt
        fast = predict(obs_field, inputs, t_now, params, grid)
        slow = predict_by_resolve(obs_field, inputs, t_now, params, grid)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)


def test_predict_reports_missing_input_times():
    grid = Grid(10, 1.0)
    params = make_params(tau=0.5)
    inputs = np.zeros((3, 2))  # covers only t <= 0.2
    with pytest.raises(ValueError, match="missing"):
        predict(np.zeros((grid.n_cells + 1, 2)), inputs, 0.6, params, grid)


def test_prediction_error_propagates_estimate_error():
    # for tau <= l the exit prediction error is exp(A1 tau) applied to the
    # estimation error one delay upstream; cross-check against a zero-input
    # resolve of the gap system
    grid = Grid(100, 1.0)
    params = make_params(tau=0.5)
    rng = np.random.default_rng(25)
    theta = random_field(grid, rng)
    w = random_field(grid, rng, scale=0.1)
    m = round(params.tau / grid.dt)
    n = grid.n_cells

    inputs = rng.standard_normal((m + 1, 2))
    t_now = m * grid.dt

    pred_true = predict(theta, inputs, t_now, params, grid)
    pred_obs = predict(theta + w, inputs, t_now, params, grid)
    gap = pred_obs[-1] - pred_true[-1]

    direct = coupling_matrix(m * grid.dt, params.h1, params.h2) @ w[n - m]
    np.testing.assert_allclose(gap, direct, rtol=0, atol=1e-12)

    field = w.copy()
    for j in range(m):  # zero inflow: both predictors share u
        field = step_exact(field, j * grid.dt, None, params, grid)
    np.testing.assert_allclose(gap, field[n], rtol=0, atol=1e-10)


def test_control_law_zero_until_delay_elapses():
    params = make_params(tau=1.5)
    pred = np.array([3.0, 4.0])
    np.testing.assert_array_equal(control_law(pred, params, t=1.0), [0.0, 0.0])
    np.testing.assert_array_equal(control_law(pred, params, t=1.5), [0.0, 0.0])


def test_control_law_cross_gains():
    params = make_params(tau=0.5, k1=0.5, k2=0.25)
    u = control_law(np.array([2.0, -3.0]), params, t=1.0)
    np.testing.assert_allclose(u, [-0.5 * -3.0, -0.25 * 2.0])
    np.testing.assert_array_equal(control_law(np.zeros(2), params, t=1.0), [0.0, 0.0])
