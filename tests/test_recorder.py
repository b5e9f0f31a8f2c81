"""Block-stepped runs against the per-step loop.

The stepped solvers (``solve_exact``, ``solve_upwind`` and the upwind open
loop) write each new field straight into a row of the recorder's
cache-sized block, and the recorder reads a whole block at once for the
norms, exits and snapshots.  The exact-step kernels multiply by a
contiguous copy of the transposed step matrix, made once per run.

The reference here is the oracle's per-step loop (``oracle.solve``):
transposed-view kernels and one ``_l2`` call per field.  Both must give the
same bits, sign bits, inf and nan included.  That holds at n_cells = 1
too: there the single node row goes to BLAS gemv, where the contiguous
operand would round differently.  Exact runs are a boundary recurrence,
checked against the oracle in tests/test_recurrence.py.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracle import PerStepRecorder, advance_exact, advance_upwind, solve
from pfhx import Grid, Params, Scenario, loop, solver
from pfhx.coupling import coupling_matrix
from pfhx.grid import _l2
from pfhx.loop import run_scenario
from pfhx.profiles import input_function
from pfhx.solver import Recorder, Trajectory, _block_l2, solve_exact, solve_upwind
from test_recurrence import TAU_EDGES


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _block_rows(n_cells: int) -> int:
    return len(Recorder(Grid(n_cells, 1.0), 1, 1.0 / n_cells, 1.0).block)


def _overflowing_inputs(dt, start, t0=0.0):
    """Zero inflow, then (1e300, -1e300) at step ``start``, whose squares overflow, then
    (inf, -inf), which the coupling mixes into nan."""
    def u(t):
        j = round((t - t0) / dt) - start
        return np.array([1.0, -1.0]) * np.float64(1e300) ** (j + 1) if j >= 0 else np.zeros(2)
    return u


def _run_pairs(n_cells, n_steps, overflow_at=None):
    """Each block-stepped run with the same run through the per-step loop.

    The runs last n_steps exact steps, 2 n_steps upwind steps at cfl 0.5.
    With ``overflow_at`` the solver oracles' inflow overflows at that step
    of the run, and the upwind open loop, whose signals are config specs,
    takes the constant inflow (1e300, -1e300) throughout.
    """
    grid = Grid(n_cells, 1.0)
    p = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    T, up = n_steps * grid.dt, 0.5 * grid.dx
    u_open = ("sine(1, 2)", "constant(0.5)")
    if overflow_at:
        u_open = ("constant(1e300)", "constant(-1e300)")
    sc = Scenario(params=p, n_cells=n_cells, T=T, controller="open_loop", solver="upwind", cfl=0.5,
                  theta0=("sine(1, 1)", "random(0.5)"), u_open=u_open, snapshot_stride=0.3, seed=3)
    ol_theta0 = loop._resolve_field(grid, sc.theta0, np.random.default_rng(sc.seed))
    theta0 = np.column_stack([np.sin(grid.nodes), -0.0 * grid.nodes])

    def inputs(dt, t0=0.0):
        if overflow_at:
            return _overflowing_inputs(dt, overflow_at, t0)
        f1, f2 = input_function("sine(1, 2)"), input_function("constant(1)")
        return lambda t: np.array([f1(t), f2(t)])

    upwind = lambda field, step_matrix, u_new: advance_upwind(field, step_matrix, 0.5, u_new)
    return {
        "open_loop_upwind": (
            run_scenario(sc).trajectory,
            solve(ol_theta0, loop._input_pair(u_open), 2 * n_steps, p, grid, up, upwind, 0.3)),
        "solve_exact": (
            solve_exact(theta0, inputs(grid.dt, 0.5), T, p, grid, snapshot_stride=0.3, t0=0.5),
            solve(theta0, inputs(grid.dt, 0.5), n_steps, p, grid, grid.dt, advance_exact, 0.3,
                  t0=0.5)),
        "solve_upwind": (
            solve_upwind(theta0, inputs(up), T, p, grid, cfl=0.5, snapshot_stride=0.3),
            solve(theta0, inputs(up), 2 * n_steps, p, grid, up, upwind, 0.3)),
    }


def _assert_matches_per_step_path(n_cells, n_steps, overflow_at=None):
    blocked = {}
    for runner, (traj, per_step) in _run_pairs(n_cells, n_steps, overflow_at).items():
        for f in dataclasses.fields(Trajectory):
            assert _same_bits(getattr(traj, f.name), getattr(per_step, f.name)), (runner, f.name)
        blocked[runner] = traj
    return blocked


# the run lengths against a block of B rows: the plant records n_steps + 1 rows
STEP_CASES = {
    "under_one_block": lambda B: B - 3,
    "whole_blocks": lambda B: 3 * B - 1,
    "ragged": lambda B: 2 * B + B // 2,
}


def _small_blocks(monkeypatch, n_cells, tau):
    """Shrink the block to max(8, m + 4) rows, m the steps of the delay tau.

    So each delay edge gives the runs another block size, from 8 rows to 79.
    """
    m = max(1, round(tau * n_cells))
    rows = max(8, m + 4)
    monkeypatch.setattr(solver, "_NORM_BLOCK_BYTES", 16 * (n_cells + 1) * rows)
    assert _block_rows(n_cells) == rows
    return rows


@pytest.mark.parametrize("case", STEP_CASES)
@pytest.mark.parametrize("edge", TAU_EDGES)
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
def test_blocked_runs_match_per_step_path(monkeypatch, n_cells, edge, case):
    tau = TAU_EDGES[edge](1.0 / n_cells)
    rows = _small_blocks(monkeypatch, n_cells, tau)
    _assert_matches_per_step_path(n_cells, STEP_CASES[case](rows))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("edge", TAU_EDGES)
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
def test_overflowing_runs_match_per_step_path(monkeypatch, n_cells, edge):
    # the norms overflow to inf, and the fields then to nan, mid-run
    tau = TAU_EDGES[edge](1.0 / n_cells)
    rows = _small_blocks(monkeypatch, n_cells, tau)
    runs = _assert_matches_per_step_path(n_cells, 4 * (rows + n_cells) + 5, rows + n_cells)
    assert np.isinf(runs["open_loop_upwind"].plant_l2[1:]).all()
    for runner in ("solve_exact", "solve_upwind"):
        assert np.isinf(runs[runner].plant_l2).any() and np.isnan(runs[runner].exit_values).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_starts_inside_a_block(monkeypatch):
    rows = _small_blocks(monkeypatch, 7, 1.5)
    start = rows + rows // 2
    runs = _assert_matches_per_step_path(7, 4 * rows + 5, start)
    for runner in ("solve_exact", "solve_upwind"):
        first = int(np.argmax(~np.isfinite(runs[runner].plant_l2)))
        assert first == start and first % rows not in (0, rows - 1), runner
        assert np.isnan(runs[runner].plant_l2).any()  # inf - inf


@pytest.mark.parametrize("n_cells, case", [
    (1, "under_one_block"), (50, "whole_blocks"), (50, "ragged")])
def test_shipped_block_size_matches_per_step_path(n_cells, case):
    rows = _block_rows(n_cells)
    assert rows == max(8, 2**18 // (16 * (n_cells + 1)))
    n_steps = STEP_CASES[case](rows) if n_cells > 1 else 60  # 8192 rows at n_cells = 1
    _assert_matches_per_step_path(n_cells, n_steps)


@pytest.mark.parametrize("n_cells, n_steps", [(10, 10), (7, 23), (200, 5000)])
@pytest.mark.parametrize("ratio", [0.3, 1.0, 1.5, 2.5])
def test_snapshot_steps_match_per_mark_set(n_cells, n_steps, ratio):
    # at a stride of at most dt every step to the last mark's is a snapshot
    grid = Grid(n_cells, 1.0)
    for dt in (grid.dt, 0.3 * grid.dt):
        for stride in (ratio * dt, np.nextafter(ratio * dt, 0), np.nextafter(ratio * dt, 1)):
            steps = Recorder(grid, n_steps, dt, stride)._snap_steps
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
    stepped = solve_exact(np.full((11, 2), 0.5), lambda t: np.array([np.sin(t), 1.0]), 1.0, p,
                          Grid(10, 1.0), snapshot_stride=1e-12)
    for traj in (run_scenario(sc).trajectory, stepped):
        assert len(traj.t) == 11
        assert np.array_equal(traj.snapshot_t, traj.t)
        assert np.array_equal(traj.snapshots[:, -1], traj.exit_values)
        assert np.array_equal(traj.snapshots[1:, 0], traj.u[1:])


def test_infinite_snapshot_stride_keeps_the_initial_field_only():
    assert Recorder(Grid(10, 1.0), 10, 0.1, np.inf)._snap_steps.tolist() == [0]


def test_norm_block_is_about_256_kb():
    for n_cells in (1, 7, 200, 1000, 8191, 20000):
        rows = _block_rows(n_cells)
        assert rows >= 8
        assert rows == 8 or 2**18 - 16 * (n_cells + 1) < rows * 16 * (n_cells + 1) <= 2**18


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n_cells", [1, 2, 3, 100, 4000])
def test_block_norms_match_per_field_l2(n_cells):
    rng = np.random.default_rng(n_cells)
    fields = rng.standard_normal((40, n_cells + 1, 2)) * rng.uniform(0.1, 10, (40, 1, 1))
    fields[3, 0, 0] = np.inf
    fields[4, -1, 1] = np.nan
    fields[5] = -0.0
    fields[6, 0, 1] = 1e200  # the square overflows
    expected = np.array([_l2(f, 0.37) for f in fields])
    norms, work = np.zeros(len(fields)), np.empty((2, 50, n_cells + 1))
    _block_l2(fields[..., 0], fields[..., 1], 0.37, norms, work)
    assert _same_bits(norms, expected)


def test_single_row_keeps_transposed_view_bits():
    # one node row: BLAS gemv rounds the contiguous operand differently
    rng = np.random.default_rng(0)
    step_matrix = coupling_matrix(0.3, 1.0, 2.0)
    for rows in (1, 2, 3, 50, 1001):
        mix = solver._mix_operand(step_matrix, rows)
        for _ in range(200 if rows == 1 else 5):
            field = rng.standard_normal((rows + 1, 2))
            ref = advance_exact(field, step_matrix, (1.0, 2.0))
            assert _same_bits(solver._advance_exact(field, mix, (1.0, 2.0)), ref)


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
