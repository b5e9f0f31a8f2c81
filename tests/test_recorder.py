"""Blocked norms and contiguous step operands against the per-step path.

The recorder copies each field into a cache-sized block and norms a whole
block with one trapezoid; the exact-step kernels multiply by a contiguous
copy of the transposed step matrix.  Both must give the same bits as the
per-step ``_l2`` and the transposed view, sign bits, inf and nan included.
That holds at n_cells = 1 too: there one node row goes to BLAS gemv, where
the contiguous operand would round differently, so the kernels keep the
transposed view for a single row.
"""

import dataclasses

import numpy as np
import pytest

from pfhx import Grid, Params, Scenario, loop, solver
from pfhx.coupling import coupling_matrix
from pfhx.grid import _l2
from pfhx.loop import run_closed_loop, run_delay_free_feedback, run_error_system, run_sano_baseline
from pfhx.profiles import input_function
from pfhx.solver import Trajectory, _NormBlock, solve_exact, solve_upwind


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


def _per_step_path(monkeypatch):
    monkeypatch.setattr(loop, "Recorder", _PerStepRecorder)
    monkeypatch.setattr(solver, "Recorder", _PerStepRecorder)
    monkeypatch.setattr(loop, "_advance_exact", _transposed_advance_exact)
    monkeypatch.setattr(solver, "_advance_exact", _transposed_advance_exact)
    monkeypatch.setattr(loop, "_advance_observer", _transposed_advance_observer)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _block_rows(n_cells: int) -> int:
    return len(_NormBlock(np.zeros(1), n_cells + 1, 1.0).buf)


def _trajectories(n_cells, tau, n_steps, gain):
    """Every stepped runner and both solver oracles on one scenario."""
    grid = Grid(n_cells, 1.0)
    p = Params(h1=1.0, h2=2.0, l=1.0, tau=tau, k1=gain, k2=gain)
    sc = Scenario(params=p, n_cells=n_cells, T=n_steps * grid.dt,
                  theta0=("sine(1, 1)", "random(0.5)"), observer0=("zero", "constant(0.2)"),
                  warmup_u=("sine(1, 4)", "constant(0.5)"), snapshot_stride=0.3, seed=3)
    f1, f2 = input_function("sine(1, 2)"), input_function("constant(1)")
    u_fn = lambda t: np.array([f1(t), f2(t)])
    theta0 = np.column_stack([np.sin(grid.nodes), -0.0 * grid.nodes])
    return {
        "observer_predictor": run_closed_loop(sc).trajectory,
        "sano_static": run_sano_baseline(sc, k=0.8 * gain).trajectory,
        "delay_free": run_delay_free_feedback(sc).trajectory,
        "error_system": run_error_system(sc).trajectory,
        "solve_exact": solve_exact(theta0, u_fn, sc.T, p, grid, snapshot_stride=0.3, t0=0.5),
        "solve_upwind": solve_upwind(theta0, u_fn, sc.T, p, grid, cfl=0.5, snapshot_stride=0.3),
    }


def _assert_matches_per_step_path(monkeypatch, n_cells, tau, n_steps, gain):
    blocked = _trajectories(n_cells, tau, n_steps, gain)
    with monkeypatch.context() as patch:
        _per_step_path(patch)
        per_step = _trajectories(n_cells, tau, n_steps, gain)
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
    _assert_matches_per_step_path(monkeypatch, n_cells, tau, STEP_CASES[case](rows), 0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("edge", TAU_EDGES)
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
def test_overflowing_runs_match_per_step_path(monkeypatch, n_cells, edge):
    # k1 = k2 = 1e150: the loop overflows to inf and then nan mid-run
    tau = TAU_EDGES[edge](1.0 / n_cells)
    rows = _small_blocks(monkeypatch, n_cells, tau)
    n_steps = 4 * (rows + n_cells) + 5  # several trips round the loop
    runs = _assert_matches_per_step_path(monkeypatch, n_cells, tau, n_steps, 1e150)
    assert np.isinf(runs["observer_predictor"].plant_l2).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_starts_inside_a_block(monkeypatch):
    rows = _small_blocks(monkeypatch, 7, 1.5)
    runs = _assert_matches_per_step_path(monkeypatch, 7, 1.5, 4 * rows + 5, 1e150)
    for runner in ("observer_predictor", "delay_free", "error_system"):
        first = int(np.argmax(~np.isfinite(runs[runner].plant_l2)))
        assert first > 0 and first % rows not in (0, rows - 1), runner
    assert np.isnan(runs["observer_predictor"].obs_err_l2).any()  # inf - inf


@pytest.mark.parametrize("n_cells, case", [
    (1, "under_one_block"), (50, "whole_blocks"), (50, "ragged")])
def test_shipped_block_size_matches_per_step_path(monkeypatch, n_cells, case):
    rows = _block_rows(n_cells)
    assert rows == max(8, 2**18 // (16 * (n_cells + 1)))
    n_steps = STEP_CASES[case](rows) if n_cells > 1 else 60  # 8192 rows at n_cells = 1
    _assert_matches_per_step_path(monkeypatch, n_cells, 1.5, n_steps, 0.5)


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
    norms = np.zeros(len(fields))
    block = _NormBlock(norms, n_cells + 1, 0.37)
    for j, f in enumerate(fields):
        block.row(j)[...] = f
    block.flush()
    expected = np.array([_l2(f, 0.37) for f in fields])
    assert _same_bits(norms, expected)


def test_single_row_keeps_transposed_view_bits():
    # one node row: BLAS gemv rounds the contiguous operand differently
    rng = np.random.default_rng(0)
    step_matrix = coupling_matrix(0.3, 1.0, 2.0)
    for rows in (1, 2, 3, 50, 1001):
        for _ in range(200 if rows == 1 else 5):
            field = rng.standard_normal((rows + 1, 2))
            ref = _transposed_advance_exact(field, step_matrix, (1.0, 2.0))
            assert _same_bits(solver._advance_exact(field, step_matrix, (1.0, 2.0)), ref)
