"""Block-stepped runs against the per-step loop they replaced.

Every stepped run writes each new field straight into a row of the
recorder's cache-sized block, and the recorder reads a whole block at once
for the norms, exits and snapshots.  An observer-predictor row stacks the
plant and the observer at the same step: the observer runs in its own time
and its error is normed from that row, with no stored plant history.  The
exact-step kernels multiply by a contiguous copy of the transposed step
matrix, made once per run.

The reference here is a test-only copy of the per-step loop as it was
before: transposed-view kernels, one ``_l2`` call per field, and the
observer advanced tau late against a deque of the last m + 1 plant fields.
Both must give the same bits, sign bits, inf and nan included.  That holds
at n_cells = 1 too: there each field's single node row goes to BLAS gemv,
where the contiguous operand or a stacked dgemm would round differently.
Exact runs are a boundary recurrence (tests/test_recurrence.py), so the
stepped loop is reached here through ``loop._simulate(..., stepped=True)``.
"""

import dataclasses
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from pfhx import Grid, Params, Scenario, loop, solver
from pfhx.coupling import coupling_matrix
from pfhx.grid import _l2
from pfhx.loop import run_scenario
from pfhx.profiles import input_function
from pfhx.solver import Recorder, Trajectory, _block_l2, solve_exact, solve_upwind


class _PerStepRecorder:
    """The recorder as it was before blocking: one ``_l2`` call per recorded field."""

    def __init__(self, grid, n_steps, dt, snapshot_stride):
        if snapshot_stride <= 0:
            raise ValueError("snapshot stride must be positive")
        self.dt = dt
        self.dx = grid.dx
        total = n_steps + 1
        self.t = np.arange(total) * dt
        self.plant_l2 = np.zeros(total)
        self.obs_err_l2 = np.zeros(total)
        self.pred_err_at_l = np.zeros((total, 2))
        self.u = np.zeros((total, 2))
        self.exit_values = np.zeros((total, 2))
        horizon = n_steps * dt
        marks = int(np.floor(horizon / snapshot_stride + 1e-9))
        steps = {min(n_steps, int(round(q * snapshot_stride / dt))) for q in range(marks + 1)}
        steps.add(0)
        self._snap_steps = sorted(steps)
        self._snap_lookup = {j: idx for idx, j in enumerate(self._snap_steps)}
        self.snapshots = np.zeros((len(self._snap_steps), grid.n_cells + 1, 2))

    def record(self, j, field, u):
        self.plant_l2[j] = _l2(field, self.dx)
        self.u[j] = u
        self.exit_values[j] = field[-1]
        idx = self._snap_lookup.get(j)
        if idx is not None:
            self.snapshots[idx] = field

    def record_obs_err(self, j, obs, plant):
        self.obs_err_l2[j] = _l2(obs - plant, self.dx)

    def finish(self):
        return Trajectory(
            t=self.t, plant_l2=self.plant_l2, obs_err_l2=self.obs_err_l2,
            pred_err_at_l=self.pred_err_at_l, u=self.u, exit_values=self.exit_values,
            snapshot_t=np.asarray(self._snap_steps) * self.dt, snapshots=self.snapshots,
            dt=self.dt,
        )


def _transposed_advance_exact(field, step_matrix, u_new):
    out = np.empty_like(field)
    np.matmul(field[:-1], step_matrix.T, out=out[1:])
    out[0] = u_new
    return out


def _transposed_advance_observer(field, step_matrix, k1, k2, y, u):
    new = np.empty_like(field)
    np.matmul(field[:-1], step_matrix.T, out=new[1:])
    new[0, 0] = -k1 * (new[-1, 1] - y[0]) + u[0]
    new[0, 1] = -k2 * (new[-1, 0] - y[1]) + u[1]
    return new


def _transposed_advance_upwind(field, step_matrix, cfl, u_new):
    adv = field[1:] * (1.0 - cfl) + field[:-1] * cfl
    out = np.empty_like(field)
    np.matmul(np.vstack([field[:1], adv]), step_matrix.T, out=out)
    out[0] = u_new
    return out


def _cross(k1, k2, exit_pair):
    return np.array([-k1 * exit_pair[1], -k2 * exit_pair[0]])


def _deque_observer_predictor(scenario, run, rec, theta0, observer0):
    """The observer advanced at t, tau late, normed against the plant from a deque."""
    p, m, n = scenario.params, run.m, run.grid.n_cells
    k1, k2, dt, dx = p.k1, p.k2, run.grid.dt, run.grid.dx
    step_matrix = coupling_matrix(dt, p.h1, p.h2)
    prop = coupling_matrix(p.l if m > n else run.tau_used, p.h1, p.h2)
    warm = loop._input_pair(scenario.warmup_u)
    plants = deque([theta0], maxlen=m + 1)  # plants[0] is the plant from tau ago
    init_err = rec.obs_err_l2[0] = _l2(observer0 - theta0, dx)
    obs = observer0

    def inflow(jn, field):
        nonlocal obs
        plants.append(field)
        if jn > m:
            y = rec.exit_values[jn - m][::-1]
            obs = _transposed_advance_observer(obs, step_matrix, k1, k2, y, rec.u[jn - m])
            pred_exit = prop @ (rec.u[jn - n] if m > n else obs[n - m])
            rec.pred_err_at_l[jn] = pred_exit - field[-1]
            u_new = _cross(k1, k2, pred_exit)
        else:
            u_new = warm(jn * dt)
        if jn >= m:
            rec.record_obs_err(jn, obs, plants[0])
        else:
            rec.obs_err_l2[jn] = init_err
        return u_new

    return theta0, inflow


def _per_step_static_feedback(scenario, run, rec, theta0, observer0):
    k, m = scenario.sano_k, run.m

    def inflow(jn, field):
        if jn >= m:
            return np.array([0.0, -k * rec.exit_values[jn - m, 0]])
        return np.zeros(2)

    return theta0, inflow


def _per_step_cross_feedback(scenario, run, rec, theta0, observer0):
    k1, k2, dt = scenario.params.k1, scenario.params.k2, run.grid.dt
    wait = run.m if run.delayed else 0
    warm = loop._input_pair(scenario.warmup_u)

    def inflow(jn, field):
        if jn > wait:
            return _cross(k1, k2, field[-1])
        return warm(jn * dt)

    return (theta0 if run.delayed else observer0 - theta0), inflow


def _per_step_simulate(scenario, law):
    p = scenario.params
    run = loop._prepare(scenario)
    rec = _PerStepRecorder(run.grid, run.n_steps, run.grid.dt, scenario.snapshot_stride)
    field, inflow = law(scenario, run, rec, run.theta0, run.observer0)
    rec.record(0, field, np.zeros(2))
    step_matrix = coupling_matrix(run.grid.dt, p.h1, p.h2)
    for jn in range(1, run.n_steps + 1):
        field = _transposed_advance_exact(field, step_matrix, 0.0)
        field[0] = u_new = inflow(jn, field)
        rec.record(jn, field, u_new)
    return rec.finish()


def _per_step_solve(theta0, u_fn, n_steps, p, grid, dt, advance, snapshot_stride, t0=0.0):
    step_matrix = coupling_matrix(dt, p.h1, p.h2)
    rec = _PerStepRecorder(grid, n_steps, dt, snapshot_stride)
    rec.t = rec.t + t0
    field = theta0.copy()
    rec.record(0, field, np.zeros(2))
    for j in range(1, n_steps + 1):
        u_new = np.asarray(u_fn(t0 + j * dt), dtype=float)
        field = advance(field, step_matrix, u_new)
        rec.record(j, field, u_new)
    return rec.finish()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _block_rows(n_cells: int) -> int:
    return len(Recorder(Grid(n_cells, 1.0), 1, 1.0 / n_cells, 1.0).block)


def _scenario(n_cells, tau, n_steps, gain):
    grid = Grid(n_cells, 1.0)
    p = Params(h1=1.0, h2=2.0, l=1.0, tau=tau, k1=gain, k2=gain)
    return Scenario(params=p, n_cells=n_cells, T=n_steps * grid.dt,
                    theta0=("sine(1, 1)", "random(0.5)"), observer0=("zero", "constant(0.2)"),
                    warmup_u=("sine(1, 4)", "constant(0.5)"), snapshot_stride=0.3, seed=3)


def _oracle_inputs(grid):
    f1, f2 = input_function("sine(1, 2)"), input_function("constant(1)")
    u_fn = lambda t: np.array([f1(t), f2(t)])
    return np.column_stack([np.sin(grid.nodes), -0.0 * grid.nodes]), u_fn


def _open_loop(sc):
    return dataclasses.replace(sc, controller="open_loop", u_open=("sine(1, 2)", "constant(0.5)"))


def _sano(sc, gain):
    return dataclasses.replace(sc, controller="sano_static", sano_k=0.8 * gain)


def _error_system(sc):
    return dataclasses.replace(sc, controller="error_system")


def _stepped(sc, delay_free=False):
    """A run through the stepped loop, which exact runs keep as their oracle."""
    return loop._simulate(sc, delay_free=delay_free, stepped=True).trajectory


def _trajectories(n_cells, tau, n_steps, gain):
    """Every law through the stepped loop, and both solver oracles, on one scenario."""
    sc = _scenario(n_cells, tau, n_steps, gain)
    grid = Grid(n_cells, 1.0)
    theta0, u_fn = _oracle_inputs(grid)
    return {
        "open_loop_exact": _stepped(_open_loop(sc)),
        "open_loop_upwind": run_scenario(
            dataclasses.replace(_open_loop(sc), solver="upwind", cfl=0.5)).trajectory,
        "observer_predictor": _stepped(sc),
        "sano_static": _stepped(_sano(sc, gain)),
        "delay_free": _stepped(sc, delay_free=True),
        "error_system": _stepped(_error_system(sc)),
        "solve_exact": solve_exact(theta0, u_fn, sc.T, sc.params, grid, snapshot_stride=0.3, t0=0.5),
        "solve_upwind": solve_upwind(theta0, u_fn, sc.T, sc.params, grid, cfl=0.5, snapshot_stride=0.3),
    }


def _per_step_trajectories(n_cells, tau, n_steps, gain):
    """The same runs through the per-step reference loop."""
    sc = _scenario(n_cells, tau, n_steps, gain)
    grid = Grid(n_cells, 1.0)
    theta0, u_fn = _oracle_inputs(grid)
    upwind = lambda field, step_matrix, u_new: _transposed_advance_upwind(field, step_matrix, 0.5, u_new)
    ol = _open_loop(sc)
    ol_theta0 = loop._resolve_field(grid, ol.theta0, np.random.default_rng(ol.seed))
    ol_u = loop._input_pair(ol.u_open)
    return {
        "open_loop_exact": _per_step_solve(ol_theta0, ol_u, n_steps, sc.params, grid, grid.dt,
                                           _transposed_advance_exact, 0.3),
        "open_loop_upwind": _per_step_solve(ol_theta0, ol_u, 2 * n_steps, sc.params, grid,
                                            0.5 * grid.dx, upwind, 0.3),
        "observer_predictor": _per_step_simulate(sc, _deque_observer_predictor),
        "sano_static": _per_step_simulate(_sano(sc, gain), _per_step_static_feedback),
        "delay_free": _per_step_simulate(sc, _per_step_cross_feedback),
        "error_system": _per_step_simulate(_error_system(sc), _per_step_cross_feedback),
        "solve_exact": _per_step_solve(theta0, u_fn, n_steps, sc.params, grid, grid.dt,
                                       _transposed_advance_exact, 0.3, t0=0.5),
        "solve_upwind": _per_step_solve(theta0, u_fn, 2 * n_steps, sc.params, grid, 0.5 * grid.dx,
                                        upwind, 0.3),
    }


def _assert_matches_per_step_path(n_cells, tau, n_steps, gain):
    blocked = _trajectories(n_cells, tau, n_steps, gain)
    per_step = _per_step_trajectories(n_cells, tau, n_steps, gain)
    for runner, traj in blocked.items():
        for f in dataclasses.fields(Trajectory):
            assert _same_bits(getattr(traj, f.name), getattr(per_step[runner], f.name)), (
                runner, f.name)
    return blocked


# the run lengths against a block of B rows: the plant records n_steps + 1 rows
STEP_CASES = {
    "under_one_block": lambda B: B - 3,
    "whole_blocks": lambda B: 3 * B - 1,
    "ragged": lambda B: 2 * B + B // 2,
}
# tau at dt, l - dt, l, l + dt and 1.5 l (l = 1); l - dt is at least dt
TAU_EDGES = {
    "dt": lambda dt: dt,
    "l-dt": lambda dt: max(dt, 1.0 - dt),
    "l": lambda dt: 1.0,
    "l+dt": lambda dt: 1.0 + dt,
    "1.5l": lambda dt: 1.5,
}


def _small_blocks(monkeypatch, n_cells, tau):
    """Shrink the block so that a delayed run can start, fill and overflow it."""
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
    _assert_matches_per_step_path(n_cells, tau, STEP_CASES[case](rows), 0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("edge", TAU_EDGES)
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
def test_overflowing_runs_match_per_step_path(monkeypatch, n_cells, edge):
    # k1 = k2 = 1e150: the loop overflows to inf and then nan mid-run
    tau = TAU_EDGES[edge](1.0 / n_cells)
    rows = _small_blocks(monkeypatch, n_cells, tau)
    n_steps = 4 * (rows + n_cells) + 5  # several trips round the loop
    runs = _assert_matches_per_step_path(n_cells, tau, n_steps, 1e150)
    assert np.isinf(runs["observer_predictor"].plant_l2).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_starts_inside_a_block(monkeypatch):
    rows = _small_blocks(monkeypatch, 7, 1.5)
    runs = _assert_matches_per_step_path(7, 1.5, 4 * rows + 5, 1e150)
    for runner in ("observer_predictor", "delay_free", "error_system"):
        first = int(np.argmax(~np.isfinite(runs[runner].plant_l2)))
        assert first > 0 and first % rows not in (0, rows - 1), runner
    assert np.isnan(runs["observer_predictor"].obs_err_l2).any()  # inf - inf


@pytest.mark.parametrize("n_cells, case", [
    (1, "under_one_block"), (50, "whole_blocks"), (50, "ragged")])
def test_shipped_block_size_matches_per_step_path(n_cells, case):
    rows = _block_rows(n_cells)
    assert rows == max(8, 2**18 // (16 * (n_cells + 1)))
    n_steps = STEP_CASES[case](rows) if n_cells > 1 else 60  # 8192 rows at n_cells = 1
    _assert_matches_per_step_path(n_cells, 1.5, n_steps, 0.5)


@pytest.mark.parametrize("n_cells, n_steps", [(10, 10), (7, 23), (200, 5000)])
@pytest.mark.parametrize("ratio", [0.3, 1.0, 1.5, 2.5])
def test_snapshot_steps_match_per_mark_set(n_cells, n_steps, ratio):
    # at a stride of at most dt every step to the last mark's is a snapshot
    grid = Grid(n_cells, 1.0)
    for dt in (grid.dt, 0.3 * grid.dt):
        for stride in (ratio * dt, np.nextafter(ratio * dt, 0), np.nextafter(ratio * dt, 1)):
            steps = Recorder(grid, n_steps, dt, stride)._snap_steps
            assert steps.tolist() == _PerStepRecorder(grid, n_steps, dt, stride)._snap_steps


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
    sc = dataclasses.replace(_scenario(10, 0.5, 10, 0.5), snapshot_stride=1e-12)
    for traj in (run_scenario(sc).trajectory, _stepped(sc)):
        assert len(traj.t) == 11
        assert np.array_equal(traj.snapshot_t, traj.t)
        assert np.array_equal(traj.snapshots[:, -1], traj.exit_values)
        assert np.array_equal(traj.snapshots[1:, 0], traj.u[1:])


@pytest.mark.parametrize("n_cells, n_steps, stride",
                         [(1, 9000, 7.0), (7, 5000, 0.05), (50, 1000, 1e-9), (200, 1200, 0.37)])
def test_snapshot_callback_sees_each_snapshot_once_in_order(n_cells, n_steps, stride):
    # together the batches are the trajectory's snapshots: the stepped loop passes
    # each as its block is read out, an exact run all of them at once
    sc = dataclasses.replace(_scenario(n_cells, 0.5, n_steps, 0.5), snapshot_stride=stride)
    for stepped in (True, False):
        batches = []
        traj = loop._simulate(
            sc, on_snapshots=lambda t, fields: batches.append((t.copy(), fields.copy())),
            stepped=stepped,
        ).trajectory
        assert len(batches) > 1 if stepped else len(batches) == 1
        assert all(len(t) == len(fields) > 0 for t, fields in batches)
        assert _same_bits(np.concatenate([t for t, _ in batches]), traj.snapshot_t)
        assert _same_bits(np.concatenate([fields for _, fields in batches]), traj.snapshots)


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
    # the plant fields of a stacked block are a strided view
    stacked = np.stack([fields, fields[::-1]], axis=2)
    plant = stacked[:, :, 0]
    _block_l2(plant[..., 0], plant[..., 1], 0.37, norms, work)
    assert _same_bits(norms, expected)


def test_single_row_keeps_transposed_view_bits():
    # one node row: BLAS gemv rounds the contiguous operand differently
    rng = np.random.default_rng(0)
    step_matrix = coupling_matrix(0.3, 1.0, 2.0)
    for rows in (1, 2, 3, 50, 1001):
        mix = solver._mix_operand(step_matrix, rows)
        for _ in range(200 if rows == 1 else 5):
            field = rng.standard_normal((rows + 1, 2))
            ref = _transposed_advance_exact(field, step_matrix, (1.0, 2.0))
            assert _same_bits(solver._advance_exact(field, mix, (1.0, 2.0)), ref)


def test_stacked_step_keeps_each_fields_bits():
    # plant and observer in one call: a (2 n, 2) dgemm, or gemv per field at n = 1
    rng = np.random.default_rng(1)
    step_matrix = coupling_matrix(0.3, 1.0, 2.0)
    for rows in (1, 2, 3, 7, 50, 1001):
        mix = solver._mix_operand(step_matrix, rows)
        for _ in range(200 if rows == 1 else 5):
            stacked = rng.standard_normal((rows + 1, 2, 2))
            new = solver._advance_exact(stacked, mix, 0.0)
            for k in (0, 1):
                ref = _transposed_advance_exact(stacked[:, k], step_matrix, 0.0)
                assert _same_bits(new[:, k], ref)


def test_closed_loop_holds_no_plant_history():
    # tau = 1.5 at n_cells = 1000 is m = 1500 steps: a deque of the last
    # m + 1 plant fields alone would take about 24 MB
    p = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5)
    sc = Scenario(params=p, n_cells=1000, T=6.0, theta0=("step(0.5, 1.0, 0.0)", "zero"),
                  observer0=("random(0.5)", "random(0.5)"), warmup_u=("sine(1, 4)", "constant(0.5)"))
    for stepped in (True, False):
        tracemalloc.start()
        try:
            result = loop._simulate(sc, stepped=stepped)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.summary.finite
        assert peak < 8 * 2**20
