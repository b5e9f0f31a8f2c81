"""Upwind runs against the per-step oracle.

The upwind scheme (``solve_upwind`` and the upwind open loop) is the one
solver that steps: ``solver._solve`` holds two fields, writes each new one
into the spare, and norms it, reads its exit pair and keeps any due
snapshot straight away.  Its step multiplies by a contiguous copy of the
transposed step matrix, made once per run.

The reference here is the oracle's per-step loop (``oracle.solve``):
a transposed-view kernel and one ``_l2`` call per field.  Both must give
the same bits, sign bits, inf and nan included, at cfl 0.5, 1.0 and 0.3.
Exact runs and ``solve_exact`` are a tube, checked against the oracle in
tests/test_recurrence.py.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracle import PerStepRecorder, advance_upwind, solve
from pfhx import Grid, Params, Scenario, loop, solver
from pfhx.loop import run_scenario
from pfhx.profiles import input_function
from pfhx.solver import Trajectory, solve_exact, solve_upwind
from test_recurrence import TAU_EDGES, _overflowing_inputs


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


CFLS = (0.5, 1.0, 0.3)


def _run_pairs(n_cells, n_steps, cfl, overflow_at=None):
    """Each upwind run with the same run through the per-step loop.

    The runs last 2 n_steps upwind steps at ``cfl``.  With ``overflow_at``
    the upwind solver's inflow overflows at that step of the run, and the
    upwind open loop, whose signals are config specs, takes the constant
    inflow (1e300, -1e300) throughout.
    """
    grid = Grid(n_cells, 1.0)
    p = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    up = cfl * grid.dx
    T = 2 * n_steps * up
    u_open = ("sine(1, 2)", "constant(0.5)")
    if overflow_at:
        u_open = ("constant(1e300)", "constant(-1e300)")
    sc = Scenario(params=p, n_cells=n_cells, T=T, controller="open_loop", solver="upwind", cfl=cfl,
                  theta0=("sine(1, 1)", "random(0.5)"), u_open=u_open, snapshot_stride=0.3, seed=3)
    ol_theta0 = loop._resolve_field(grid, sc.theta0, np.random.default_rng(sc.seed))
    theta0 = np.column_stack([np.sin(grid.nodes), -0.0 * grid.nodes])

    def inputs(dt):
        if overflow_at:
            return _overflowing_inputs(dt, overflow_at)
        f1, f2 = input_function("sine(1, 2)"), input_function("constant(1)")
        return lambda t: np.array([f1(t), f2(t)])

    upwind = lambda field, step_matrix, u_new: advance_upwind(field, step_matrix, cfl, u_new)
    return {
        "open_loop_upwind": (
            run_scenario(sc).trajectory,
            solve(ol_theta0, loop._input_pair(u_open), 2 * n_steps, p, grid, up, upwind, 0.3)),
        "solve_upwind": (
            solve_upwind(theta0, inputs(up), T, p, grid, cfl=cfl, snapshot_stride=0.3),
            solve(theta0, inputs(up), 2 * n_steps, p, grid, up, upwind, 0.3)),
    }


def _assert_matches_per_step_path(n_cells, n_steps, overflow_at=None):
    """The runs at each of ``CFLS``, bit for bit; returns the runs by cfl and runner."""
    runs = {}
    for cfl in CFLS:
        for runner, (traj, per_step) in _run_pairs(n_cells, n_steps, cfl, overflow_at).items():
            for f in dataclasses.fields(Trajectory):
                assert _same_bits(getattr(traj, f.name), getattr(per_step, f.name)), (
                    cfl, runner, f.name)
            runs[cfl, runner] = traj
    return runs


# run lengths against a unit of B steps: the runs record 2 n_steps + 1 rows
STEP_CASES = {
    "under_one_block": lambda B: B - 3,
    "whole_blocks": lambda B: 3 * B - 1,
    "ragged": lambda B: 2 * B + B // 2,
}


def _unit(n_cells, tau):
    """max(8, m + 4), m the steps of the delay tau: each delay edge gives other run lengths."""
    return max(8, max(1, round(tau * n_cells)) + 4)


@pytest.mark.parametrize("case", STEP_CASES)
@pytest.mark.parametrize("edge", TAU_EDGES)
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
def test_blocked_runs_match_per_step_path(n_cells, edge, case):
    tau = TAU_EDGES[edge](1.0 / n_cells)
    _assert_matches_per_step_path(n_cells, STEP_CASES[case](_unit(n_cells, tau)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("edge", TAU_EDGES)
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
def test_overflowing_runs_match_per_step_path(n_cells, edge):
    # the norms overflow to inf, and the fields then to nan, mid-run
    unit = _unit(n_cells, TAU_EDGES[edge](1.0 / n_cells))
    runs = _assert_matches_per_step_path(n_cells, 4 * (unit + n_cells) + 5, unit + n_cells)
    for cfl in CFLS:
        assert np.isinf(runs[cfl, "open_loop_upwind"].plant_l2[1:]).all()
        assert np.isinf(runs[cfl, "solve_upwind"].plant_l2).any()
        assert np.isnan(runs[cfl, "solve_upwind"].plant_l2).any()  # inf - inf, mixed
        assert np.isnan(runs[cfl, "solve_upwind"].exit_values).any()


@pytest.mark.parametrize("n_cells, case", [
    (1, "under_one_block"), (50, "whole_blocks"), (50, "ragged")])
def test_shipped_block_size_matches_per_step_path(n_cells, case):
    # long runs: 120 steps of one cell, and 1,924 and 1,604 steps of 50 cells
    n_steps = STEP_CASES[case](321) if n_cells > 1 else 60
    _assert_matches_per_step_path(n_cells, n_steps)


@pytest.mark.parametrize("n_cells, n_steps", [(10, 10), (7, 23), (200, 5000)])
@pytest.mark.parametrize("ratio", [0.3, 1.0, 1.5, 2.5])
def test_snapshot_steps_match_per_mark_set(n_cells, n_steps, ratio):
    # at a stride of at most dt every step to the last mark's is a snapshot
    grid = Grid(n_cells, 1.0)
    for dt in (grid.dt, 0.3 * grid.dt):
        for stride in (ratio * dt, np.nextafter(ratio * dt, 0), np.nextafter(ratio * dt, 1)):
            steps = solver._snapshot_steps(n_steps, dt, stride)
            assert steps.tolist() == PerStepRecorder(grid, n_steps, dt, stride).snap_steps


@pytest.mark.parametrize("n_steps", [1, 7, 100, 4001])
@pytest.mark.parametrize("ratio", [1 + 1e-12, 1.0000001, 1.25, 4 / 3, 1.5, 1.9999999, 2.5,
                                   math.pi, 7.01, 99.5, 5000.3])
def test_snapshot_steps_drop_repeats_as_np_unique(n_steps, ratio):
    # at a stride above the step the rounded marks are non-decreasing, so dropping
    # consecutive repeats must give np.unique's steps, dtype included
    for dt in (0.01, 0.3 / 7, 1 / 3):
        stride = ratio * dt
        marks = int(np.floor(n_steps * dt / stride + 1e-9))
        rounded = np.round(np.arange(1, marks + 1) * stride / dt)
        expected = np.unique(np.append(0, np.minimum(n_steps, rounded).astype(int)))
        steps = solver._snapshot_steps(n_steps, dt, stride)
        assert steps.dtype == expected.dtype
        assert np.array_equal(steps, expected)


def test_snapshot_stride_far_below_a_step_snaps_every_step():
    # a per-mark loop would take 1e12 iterations here
    p = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    sc = Scenario(params=p, n_cells=10, T=1.0, theta0=("sine(1, 1)", "random(0.5)"),
                  warmup_u=("sine(1, 4)", "constant(0.5)"), snapshot_stride=1e-12)
    solved = solve_exact(np.full((11, 2), 0.5), lambda t: np.array([np.sin(t), 1.0]), 1.0, p,
                         Grid(10, 1.0), snapshot_stride=1e-12)
    for traj in (run_scenario(sc).trajectory, solved):
        assert len(traj.t) == 11
        assert np.array_equal(traj.snapshot_t, traj.t)
        assert np.array_equal(traj.snapshots[:, -1], traj.exit_values)
        assert np.array_equal(traj.snapshots[1:, 0], traj.u[1:])


def test_infinite_snapshot_stride_keeps_the_initial_field_only():
    assert solver._snapshot_steps(10, 0.1, np.inf).tolist() == [0]


def test_closed_loop_holds_no_plant_history():
    # tau = 1.5 at n_cells = 1000 is m = 1500 steps: a deque of the last
    # m + 1 plant fields alone would take about 24 MB
    p = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5)
    sc = Scenario(params=p, n_cells=1000, T=6.0, theta0=("step(0.5, 1.0, 0.0)", "zero"),
                  observer0=("random(0.5)", "random(0.5)"), warmup_u=("sine(1, 4)", "constant(0.5)"))
    tracemalloc.start()
    try:
        result = run_scenario(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.summary.finite
    assert peak < 8 * 2**20
