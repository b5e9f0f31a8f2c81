import math
import os

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
    predict,
    solve_exact,
    solve_upwind,
)
from pfhx import solver
from pfhx.grid import _l2
from pfhx.history import SignalPair, rows
from pfhx.loop import _input_pair
from pfhx.solver import _physical_memory, _Tube
from test_recurrence import VALUE_RTOL


def params_with(h1=1.0, h2=2.0, k1=0.5, k2=0.5, l=1.0, tau=0.5):
    return Params(h1=h1, h2=h2, l=l, tau=tau, k1=k1, k2=k2)


def test_zero_field_zero_input_stays_zero():
    grid = Grid(50, 1.0)
    traj = solve_exact(np.zeros((grid.n_cells + 1, 2)), None, 2.0, params_with(), grid)
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
    traj = solve_exact(np.zeros((101, 2)), lambda t: np.array([1.0, 0.0]), 3.0, params, grid)
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
        errors.append(_l2(diff, grid.dx))
    rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(rates - 1.0) <= 0.2)


def test_upwind_cfl_validation():
    grid = Grid(10, 1.0)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="cfl"):
            solve_upwind(np.zeros((grid.n_cells + 1, 2)), None, 1.0, params_with(), grid, cfl=bad)


def test_snapshot_stride_must_be_positive():
    grid = Grid(10, 1.0)
    for solve in (solve_exact, solve_upwind):
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="stride"):
                solve(np.zeros((11, 2)), None, 1.0, params_with(), grid, snapshot_stride=bad)


def test_a_time_off_the_step_grid_is_refused():
    grid = Grid(10, 1.0)
    with pytest.raises(ValueError) as refused:
        solve_upwind(np.zeros((grid.n_cells + 1, 2)), None, 0.33, params_with(), grid, cfl=0.5)
    assert str(refused.value) == "time 0.33 is not aligned to the step grid (dt=0.05)"
    with pytest.raises(ValueError) as refused:
        closed_form_state(np.zeros((grid.n_cells + 1, 2)), None, 0.33, params_with(), grid)
    assert str(refused.value) == "time 0.33 is not aligned to the step grid (dt=0.1)"


@pytest.mark.parametrize("time, message", [
    (0.37, "time 0.37 is not aligned to the step grid (dt=0.1)"),
    (-1.0, "time -1.0 is negative: a solver runs forward from its start t0"),
], ids=["off-grid", "negative"])
@pytest.mark.parametrize("solve", [solve_exact, solve_upwind, closed_form_state],
                         ids=lambda solve: solve.__name__)
def test_a_solver_refuses_a_time_that_is_negative_or_off_the_grid(solve, time, message):
    grid = Grid(10, 1.0)
    with pytest.raises(ValueError) as refused:
        solve(np.zeros((grid.n_cells + 1, 2)), None, time, params_with(), grid)
    assert str(refused.value) == message
    if time > 0:  # the message an input array gives for the same time
        with pytest.raises(ValueError) as refused:
            rows(np.zeros((10, 2)), 0, 1, grid.dt, time)
        assert str(refused.value) == message


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
        step_exact(np.zeros((grid.n_cells + 1, 2)), 0.3, inputs, params_with(), grid)


def test_tube_fast_mode_of_rates_whose_sum_overflows():
    # h1 + h2 = inf, yet (h1 + h2) i dx = 0.02 i: node i's difference mode decays by
    # e^(-0.02 i), the E = M00 - M10 of M = exp(A1 i dx), and A1 i dx is finite
    params, dx = params_with(h1=1e308, h2=1e308, l=4e-310, tau=2e-310), 1e-310
    tube = _Tube(np.zeros((5, 2)), 4, params, dx)
    a1 = np.array([[-1e308, 1e308], [1e308, -1e308]])
    expected = [m[0, 0] - m[1, 0] for m in (expm(a1 * (i * dx)) for i in range(5))]
    np.testing.assert_allclose(tube.decay, expected, rtol=1e-14, atol=0)
    assert tube.a == tube.b == 0.5


@pytest.mark.parametrize("error", [ValueError, OSError])
def test_physical_memory_is_unbounded_where_sysconf_cannot_tell(monkeypatch, error):
    def sysconf(name):
        raise error(name)

    assert 0 < _physical_memory() < math.inf
    monkeypatch.setattr(os, "sysconf", sysconf)
    assert _physical_memory() == math.inf


@pytest.mark.parametrize("specs", [("zero", "zero"), ("constant(0.5)", "constant(-2)"),
                                   ("sine(1, 2)", "sine(-2, 4)"), ("sine(3, 1e308)", "zero")],
                         ids=["zero", "constant", "sine", "overflowing-phase"])
@pytest.mark.parametrize("j0, dt", [(1, 0.01), (7, 1 / 3)])
def test_a_signal_pair_fills_its_columns_with_the_per_step_bits(specs, j0, dt):
    # the columns, filled from the scalar signals, hold each step's array to the bit
    pair = _input_pair(specs)
    filled = rows(pair, j0, 500, dt)
    per_step = np.array([np.array([pair.u1((j0 + i) * dt), pair.u2((j0 + i) * dt)])
                         for i in range(len(filled))])
    assert np.array_equal(filled.view(np.int64), per_step.view(np.int64))
    assert np.array_equal(filled.view(np.int64),
                          np.array([rows(pair, j0 + i, 1, dt)[0]
                                    for i in range(len(filled))]).view(np.int64))


def test_an_array_input_fills_its_rows_by_step():
    recorded = np.random.default_rng(2).standard_normal((40, 2))
    assert np.array_equal(rows(recorded, 5, 30, 0.25), recorded[5:35])


def _three_forms(dt: float) -> dict:
    """One input as a ``SignalPair``, as a callable of the pair, and recorded at steps of dt.

    The steps are dyadic, so t0 + j dt is the double (t0 / dt + j) dt and a
    recording read by index holds the bits the signals give at that time.
    """
    pair = _input_pair(("sine(1, 2)", "sine(-2, 3)"))
    return {"pair": pair, "callable": lambda t: (pair.u1(t), pair.u2(t)),
            "array": rows(pair, 0, 200, dt)}


def _assert_same_bits(results: dict) -> None:
    """Each form's result, a field or a ``Trajectory``, holds the ``SignalPair``'s bits."""
    bits = {form: [np.asarray(part, dtype=float).view(np.int64).tolist()
                   for part in (result if isinstance(result, tuple) else (result,))]
            for form, result in results.items()}
    assert bits["callable"] == bits["pair"] and bits["array"] == bits["pair"]


@pytest.mark.parametrize("k", [0, 3], ids=["t0=0", "t0=3dt"])
@pytest.mark.parametrize("tau", [0.5, 1.5])
def test_every_solver_reads_each_source_form_to_the_same_bits(k, tau):
    grid = Grid(8, 1.0)  # dx = 1/8
    params = params_with(tau=tau)
    dt, up = grid.dt, 0.5 * grid.dx  # the exact solvers' step and the upwind's at CFL 1/2
    theta0 = random_field(grid, np.random.default_rng(31))
    exact, upwind = _three_forms(dt), _three_forms(up)
    _assert_same_bits({form: solve_exact(theta0, u, 2.0, params, grid, 0.25, t0=k * dt)
                       for form, u in exact.items()})
    _assert_same_bits({form: solve_upwind(theta0, u, 2.0, params, grid, 0.5, 0.25, t0=k * up)
                       for form, u in upwind.items()})
    for j in (0, 5, 9, 30):  # before, at and after the initial field has left the tube
        _assert_same_bits({form: closed_form_state(theta0, u, j * dt, params, grid, t0=k * dt)
                           for form, u in exact.items()})
    tau_used = grid.snap_tau(tau)[1]
    _assert_same_bits({form: predict(theta0, u, tau_used + k * dt, params, grid)
                       for form, u in exact.items()})


def test_each_solver_reads_a_callable_once_per_step_in_step_order(monkeypatch):
    grid = Grid(8, 1.0)
    params = params_with(tau=1.5)  # tau > l: the predicted field reads inputs only
    dt, n = grid.dt, grid.n_cells
    theta0 = random_field(grid, np.random.default_rng(32))
    reads = []

    def u(t):
        reads.append(t)
        return (np.sin(t), np.cos(t))

    solve_exact(theta0, u, 2.0, params, grid, t0=0.5)
    assert reads == [0.5 + j * dt for j in range(1, 17)]
    reads.clear()
    real_l2 = solver._l2
    monkeypatch.setattr(solver, "_l2", lambda field, dx: reads.append("norm") or real_l2(field, dx))
    solve_upwind(theta0, u, 2.0, params, grid, cfl=0.5, t0=0.5)
    # every input is read before the loop's first norm, one per step in order
    assert reads[:32] == [0.5 + j * (0.5 * grid.dx) for j in range(1, 33)]
    assert reads[32:] == ["norm"] * 33
    monkeypatch.undo()
    reads.clear()
    closed_form_state(theta0, u, 30 * dt, params, grid, t0=0.5)
    assert reads == [0.5 + j * dt for j in range(30 - n, 31)]  # the last n + 1 steps
    reads.clear()
    predict(theta0, u, 40 * dt, params, grid)
    assert len(reads) <= n + 1
    assert reads == [28 * dt + j * dt for j in range(12 - n, 13)]


def test_a_signal_pair_reads_each_scalar_once_per_step_in_step_order():
    grid = Grid(8, 1.0)
    reads = {"u1": [], "u2": []}

    def counting(name, value):
        return lambda t: reads[name].append(t) or value

    pair = SignalPair(counting("u1", 1.0), counting("u2", -1.0))
    traj = solve_exact(np.zeros((grid.n_cells + 1, 2)), pair, 1.0, params_with(), grid, t0=0.25)
    assert reads["u1"] == reads["u2"] == [0.25 + j * grid.dt for j in range(1, 9)]
    assert np.array_equal(traj.u[1:], np.tile([1.0, -1.0], (8, 1)))


@pytest.mark.parametrize("n_cells", [1, 2, 7])
@pytest.mark.parametrize("fed", [True, False], ids=["fed", "unfed"])
def test_tube_exits_are_the_last_node_of_its_fields(n_cells, fed):
    # one gather: the exits of an unfed tube (steps to n + 1, which read the
    # initial field only) and of a fed one are the fields' last node, bit for bit
    grid, params = Grid(n_cells, 1.0), params_with()
    rng = np.random.default_rng(n_cells)
    n_steps = 3 * n_cells + 4
    field0, u = rng.standard_normal((n_cells + 1, 2)), rng.standard_normal((n_steps + 1, 2))
    reference = _Tube(field0, n_steps, params, grid.dt)
    reference.feed(u)
    tube = _Tube(field0, n_steps, params, grid.dt)
    if fed:
        tube.feed(u)
    last = n_steps + 1 if fed else n_cells + 1
    for j0 in sorted({0, 1, n_cells - 1, n_cells, n_cells + 1}):
        for j1 in range(j0, last + 1):
            fields = reference.fields(np.arange(j0, j1))
            assert np.array_equal(tube.exits(j0, j1).view(np.int64),
                                  fields[:, -1].view(np.int64)), (j0, j1)


@pytest.mark.parametrize("duration", [1e308, math.inf, math.nan])
@pytest.mark.parametrize("entry", ["solve_exact", "solve_upwind", "closed_form_state", "rows"])
def test_a_step_count_that_is_not_finite_is_a_value_error(entry, duration):
    grid, params = Grid(1000, 1e-5), params_with(l=1e-5)
    field = np.zeros((grid.n_cells + 1, 2))
    calls = {
        "solve_exact": lambda: solve_exact(field, None, duration, params, grid),
        "solve_upwind": lambda: solve_upwind(field, None, duration, params, grid),
        "closed_form_state": lambda: closed_form_state(field, None, duration, params, grid),
        # a time of an array source counted in steps of dt
        "rows": lambda: rows(np.zeros((3, 2)), 0, 1, 1e-5, duration),
    }
    dt = 1e-5 if entry == "rows" else grid.dt
    with pytest.raises(ValueError) as refusal:
        calls[entry]()
    message = f"duration {duration!r} is not a finite number of steps of dt={dt!r}"
    assert str(refusal.value) == message


@pytest.mark.parametrize("entry", ["snap_steps", "solve_exact", "solve_upwind",
                                   "closed_form_state", "rows"])
def test_a_step_that_underflows_to_zero_is_a_value_error(entry):
    grid = Grid(10, 5e-324)  # dx = l / n_cells rounds to 0.0
    params, field = params_with(l=5e-324), np.zeros((11, 2))
    calls = {
        "snap_steps": lambda: grid.snap_steps(1.0),
        "solve_exact": lambda: solve_exact(field, None, 1.0, params, grid),
        "solve_upwind": lambda: solve_upwind(field, None, 1.0, params, grid),
        "closed_form_state": lambda: closed_form_state(field, None, 1.0, params, grid),
        "rows": lambda: rows(np.zeros((3, 2)), 0, 2, 0.0),
    }
    duration = 0.0 if entry == "rows" else 1.0
    with pytest.raises(ValueError) as refusal:
        calls[entry]()
    assert str(refusal.value) == f"the step dt=0.0 must be positive to count duration {duration!r}"


@pytest.mark.parametrize("solve", [solve_exact, solve_upwind])
def test_library_solvers_refuse_a_recording_beyond_physical_memory(monkeypatch, solve):
    # about 1 MiB of memory against a footprint of a few MiB: a solver that
    # did not refuse would only allocate those megabytes and return
    grid, params = Grid(10, 1.0), params_with()
    monkeypatch.setattr(solver, "_physical_memory", lambda: 2.0**20)
    assert solve(np.zeros((11, 2)), None, 100.0, params, grid).t[-1] == pytest.approx(100.0)
    refusal = (r"^final time 2000 at n_cells=10 needs 0\.00\d+ GiB to record, "
               r"more than the physical memory \(0\.000977 GiB\)$")
    with pytest.raises(ValueError, match=refusal):
        solve(np.zeros((grid.n_cells + 1, 2)), None, 2000.0, params, grid)
