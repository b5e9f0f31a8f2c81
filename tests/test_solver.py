import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from conftest import field_from, random_field
from oracle import closed_form_by_node, step_exact
from pfhx import (
    Grid,
    Params,
    closed_form_state,
    l2_norm,
    solve_exact,
    solve_upwind,
    zero_field,
)
from pfhx.solver import _Tube
from test_recurrence import VALUE_RTOL


def params_with(h1=1.0, h2=2.0, k1=0.5, k2=0.5, l=1.0, tau=0.5):
    return Params(h1=h1, h2=h2, l=l, tau=tau, k1=k1, k2=k2)


def test_zero_field_zero_input_stays_zero():
    grid = Grid(50, 1.0)
    traj = solve_exact(zero_field(grid), None, 2.0, params_with(), grid)
    assert np.all(traj.plant_l2 == 0.0)
    assert np.all(traj.exit_values == 0.0)


def test_equal_components_are_coupling_fixed_point():
    grid = Grid(40, 1.0)
    field = step_exact(field_from(grid, 3.0, 3.0), 0.0, None, params_with(), grid)
    # nodes fed from the interior keep the common value; node 0 takes u = 0
    np.testing.assert_allclose(field[1:], 3.0, rtol=0, atol=1e-13)
    assert field[0, 0] == 0.0 and field[0, 1] == 0.0


def test_characteristic_point_value_vs_ode_oracle():
    # theta0 = (1, 0), h1 = h2 = 1: the exit at t = 0.5 is exp(A1*0.5) @ (1, 0)
    grid = Grid(200, 1.0)
    params = params_with(h1=1.0, h2=1.0)
    theta0 = field_from(grid, 1.0, 0.0)
    traj = solve_exact(theta0, None, 0.5, params, grid)
    a1 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    sol = solve_ivp(lambda t, v: a1 @ v, (0.0, 0.5), np.array([1.0, 0.0]),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(traj.exit_values[-1], sol.y[:, -1], rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        traj.exit_values[-1],
        [(1 + np.exp(-1)) / 2, (1 - np.exp(-1)) / 2],
        rtol=0,
        atol=1e-12,
    )


def test_pure_advection_when_decoupled():
    grid = Grid(80, 1.0)
    params = params_with(h1=0.0, h2=0.0)
    theta0 = field_from(grid, lambda x: np.sin(2 * np.pi * x), lambda x: x**2)
    field = theta0
    steps = 30
    for j in range(steps):
        field = step_exact(field, j * grid.dt, None, params, grid)
    np.testing.assert_allclose(field[steps:], theta0[:-steps], rtol=0, atol=0)


def test_constant_input_steady_state():
    grid = Grid(100, 1.0)
    params = params_with(h1=1.0, h2=1.0)
    traj = solve_exact(zero_field(grid), lambda t: np.array([1.0, 0.0]), 3.0, params, grid)
    expected = [(1 + np.exp(-2)) / 2, (1 - np.exp(-2)) / 2]
    np.testing.assert_allclose(traj.exit_values[-1], expected, rtol=0, atol=1e-12)
    # input applied from t = dt reaches the exit at t = l + dt; steady after
    late = traj.exit_values[traj.t >= 1.0 + grid.dt]
    np.testing.assert_allclose(late, np.tile(expected, (len(late), 1)), rtol=0, atol=1e-12)


def test_finite_time_flush():
    grid = Grid(64, 1.0)
    rng = np.random.default_rng(7)
    traj = solve_exact(random_field(grid, rng), None, 2.5, params_with(), grid)
    # the last characteristic carrying initial data exits at t = l; strictly
    # after that the state is exactly zero
    assert np.all(traj.plant_l2[traj.t >= 1.0 + grid.dt] == 0.0)
    assert np.all(traj.exit_values[traj.t >= 1.0 + grid.dt] == 0.0)
    # data whose inflow corner is zero flushes by t = l already
    smooth = field_from(grid, lambda x: np.sin(np.pi * x), lambda x: np.sin(2 * np.pi * x))
    traj = solve_exact(smooth, None, 2.0, params_with(), grid)
    assert np.all(traj.plant_l2[traj.t >= 1.0] <= 1e-14)


def test_closed_form_agrees_with_stepping():
    grid = Grid(100, 1.0)
    params = params_with()
    rng = np.random.default_rng(8)
    theta0 = random_field(grid, rng)
    u = lambda t: np.array([np.sin(3.0 * t), np.cos(2.0 * t)])
    for t_query in (0.37, 1.0, 2.31):
        j, t_snapped, _ = grid.snap_steps(t_query)
        field = theta0
        for q in range(j):
            field = step_exact(field, q * grid.dt, u, params, grid)
        direct = closed_form_state(theta0, u, t_snapped, params, grid)
        np.testing.assert_allclose(field, direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize("h1, h2", [(1.0, 2.0), (0.0, 2.0), (0.0, 0.0)])
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
def test_closed_form_matches_per_node_closed_form(n_cells, h1, h2):
    # before, at and after the step n_cells at which the initial field has left the tube
    grid = Grid(n_cells, 1.0)
    params = params_with(h1=h1, h2=h2)
    theta0 = random_field(grid, np.random.default_rng(n_cells))
    u = lambda t: np.array([np.sin(3.0 * t), np.cos(2.0 * t)])
    for j in sorted({0, 1, n_cells - 1, n_cells, n_cells + 1, n_cells + 2, 3 * n_cells + 5}):
        ours = closed_form_state(theta0, u, j * grid.dt, params, grid)
        theirs = closed_form_by_node(theta0, u, j * grid.dt, params, grid)
        assert np.abs(ours - theirs).max() <= VALUE_RTOL * np.abs(theirs).max(), j


def test_closed_form_reads_only_the_inputs_the_field_carries():
    # t = 1000 l is 10^4 steps; the field at t carries the inputs of its last n_cells + 1
    grid = Grid(10, 1.0)
    params = params_with()
    times = []

    def u(t):
        times.append(t)
        return np.array([np.sin(t), np.cos(t)])

    theta0 = random_field(grid, np.random.default_rng(14))
    field = closed_form_state(theta0, u, 1000.0, params, grid)
    assert len(times) <= grid.n_cells + 1
    expected = closed_form_by_node(theta0, u, 1000.0, params, grid)
    assert np.abs(field - expected).max() <= VALUE_RTOL * np.abs(expected).max()


def test_linearity_of_solution_operator():
    grid = Grid(60, 1.0)
    params = params_with()
    rng = np.random.default_rng(9)
    theta0, phi0 = random_field(grid, rng), random_field(grid, rng)
    u = lambda t: np.array([np.sin(t), 0.2])
    v = lambda t: np.array([0.0, np.cos(2 * t)])
    a, b = 1.7, -0.6
    combo = solve_exact(
        a * theta0 + b * phi0,
        lambda t: a * u(t) + b * v(t),
        3.0,
        params,
        grid,
    )
    first = solve_exact(theta0, u, 3.0, params, grid)
    second = solve_exact(phi0, v, 3.0, params, grid)
    np.testing.assert_allclose(
        combo.exit_values,
        a * first.exit_values + b * second.exit_values,
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        combo.snapshots[-1],
        a * first.snapshots[-1] + b * second.snapshots[-1],
        rtol=0,
        atol=1e-12,
    )


def test_conservation_along_characteristics():
    grid = Grid(60, 1.0)
    params = params_with(h1=0.8, h2=1.9)
    rng = np.random.default_rng(10)
    fields = [random_field(grid, rng)]
    u = lambda t: np.array([np.sin(t), np.cos(t)])
    for j in range(40):
        fields.append(step_exact(fields[-1], j * grid.dt, u, params, grid))
    weights = np.array([params.h2, params.h1])
    worst = 0.0
    for start_node in range(0, 40, 7):
        for start_step in range(0, 15, 4):
            length = min(grid.n_cells - start_node, 40 - start_step)
            values = [
                weights @ fields[start_step + q][start_node + q]
                for q in range(length + 1)
            ]
            worst = max(worst, np.ptp(values))
    assert worst <= 1e-12


def test_hull_bounds_zero_input():
    grid = Grid(50, 1.0)
    params = params_with(h1=2.0, h2=0.7)
    rng = np.random.default_rng(11)
    theta0 = rng.uniform(-1.0, 1.0, size=(grid.n_cells + 1, 2))
    field = theta0
    for j in range(1, grid.n_cells + 1):
        field = step_exact(field, (j - 1) * grid.dt, None, params, grid)
        for i in range(j, grid.n_cells + 1):
            foot = theta0[i - j]
            lo, hi = foot.min(), foot.max()
            assert np.all(field[i] >= lo - 1e-12)
            assert np.all(field[i] <= hi + 1e-12)


def test_upwind_at_cfl_one_matches_exact():
    grid = Grid(200, 1.0)
    params = params_with()
    rng = np.random.default_rng(12)
    theta0 = random_field(grid, rng)
    u = lambda t: np.array([np.sin(t), 0.3 * np.cos(2 * t)])
    exact = solve_exact(theta0, u, 20.0, params, grid)
    upwind = solve_upwind(theta0, u, 20.0, params, grid, cfl=1.0)
    assert np.abs(upwind.exit_values - exact.exit_values).max() <= 1e-10
    np.testing.assert_allclose(upwind.snapshots[-1], exact.snapshots[-1], rtol=0, atol=1e-10)


def test_upwind_first_order_convergence():
    params = params_with()
    errors = []
    for n in (100, 200, 400):
        grid = Grid(n, 1.0)
        theta0 = field_from(
            grid,
            lambda x: np.sin(np.pi * x) ** 2,
            lambda x: 0.5 * np.sin(np.pi * x) ** 2,
        )
        exact = solve_exact(theta0, None, 0.5, params, grid)
        upwind = solve_upwind(theta0, None, 0.5, params, grid, cfl=0.5)
        diff = upwind.snapshots[-1] - exact.snapshots[-1]
        errors.append(l2_norm(diff, grid))
    rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(rates - 1.0) <= 0.2)


def test_upwind_cfl_validation():
    grid = Grid(10, 1.0)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="cfl"):
            solve_upwind(zero_field(grid), None, 1.0, params_with(), grid, cfl=bad)


def test_snapshot_stride_must_be_positive():
    grid = Grid(10, 1.0)
    for solve in (solve_exact, solve_upwind):
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="stride"):
                solve(zero_field(grid), None, 1.0, params_with(), grid, snapshot_stride=bad)


def test_time_shift_invariance():
    grid = Grid(40, 1.0)
    params = params_with()
    rng = np.random.default_rng(13)
    theta0 = random_field(grid, rng)
    base = solve_exact(theta0, None, 2.0, params, grid)
    shifted = solve_exact(theta0, None, 2.0, params, grid, t0=5.0)
    np.testing.assert_array_equal(shifted.t, base.t + 5.0)
    np.testing.assert_array_equal(shifted.exit_values, base.exit_values)
    np.testing.assert_array_equal(shifted.plant_l2, base.plant_l2)


def test_missing_boundary_value_names_time():
    grid = Grid(10, 1.0)
    inputs = np.zeros((4, 2))  # covers t <= 0.3
    with pytest.raises(ValueError, match="0.4"):
        step_exact(zero_field(grid), 0.3, inputs, params_with(), grid)


def test_tube_fast_mode_of_rates_whose_sum_overflows():
    # h1 + h2 = inf, yet (h1 + h2) i dx = 0.02 i: node i's difference mode decays by
    # e^(-0.02 i), the E = M00 - M10 of M = exp(A1 i dx), and A1 i dx is finite
    params, dx = params_with(h1=1e308, h2=1e308, l=4e-310, tau=2e-310), 1e-310
    tube = _Tube(np.zeros((5, 2)), 4, params, dx)
    a1 = np.array([[-1e308, 1e308], [1e308, -1e308]])
    expected = [m[0, 0] - m[1, 0] for m in (expm(a1 * (i * dx)) for i in range(5))]
    np.testing.assert_allclose(tube.decay, expected, rtol=1e-14, atol=0)
    assert tube.a == tube.b == 0.5
