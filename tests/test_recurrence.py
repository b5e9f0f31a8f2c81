"""Exact runs by boundary recurrence against the per-step oracle.

An exact-solver run computes its inlet history by a lag-n recurrence and
every column from that history and the initial fields (``loop._recur``);
``oracle.simulate`` steps every field instead, one exact step at a time.
``solve_exact`` is the same tube fed with its inputs, checked here against
the oracle's per-step solve (``oracle.solve``) at the same bounds.
The two round differently, because exp(A1 dt) applied n times is not
exp(A1 l) and the norms are summed in another order, so they agree to
rounding, with these bounds:

- ``u``, ``exit_values``, ``pred_err_at_l`` and the snapshots within
  ``VALUE_RTOL`` of the run's largest value (u, exits, snapshots);
- ``plant_l2`` and ``obs_err_l2`` within ``NORM_RTOL`` of the run's
  largest norm, and each norm within ``POINT_RTOL`` of its stepped value
  wherever that is above ``FLOOR`` times the column's largest, below which
  the stepped norm is rounding noise of the larger values before it;
- the snapshot times and the first non-finite value are the same.

Rounding grows with n_cells in the stepped loop: at the benchmark's
n_cells = 1000 the worst is 2.2e-14 of the scale and 1.1e-13 pointwise.
On coarse grids a recurrence block spans several lags by powers of the lag
map (``loop._lagged``), checked here against one lag at a time.  The
oracle shares no arithmetic with the recurrence, which
``test_oracle_imports_nothing_of_the_recurrence`` checks.
"""

import ast
import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from pfhx import Grid, Params, Scenario, run_delay_free_feedback, run_scenario, solve_exact
from pfhx.cli import _first_non_finite
from pfhx.loop import _BLOCK_STEPS, _lagged
from pfhx.profiles import input_function

VALUE_RTOL = 1e-13
NORM_RTOL = 1e-13
POINT_RTOL = 1e-12
FLOOR = 1e-8

CONTROLLERS = ["observer_predictor", "sano_static", "error_system", "open_loop", "delay_free"]
# tau at dt, l - dt, l, l + dt and 1.5 l (l = 1); l - dt is at least dt
TAU_EDGES = {
    "dt": lambda dt: dt,
    "l-dt": lambda dt: max(dt, 1.0 - dt),
    "l": lambda dt: 1.0,
    "l+dt": lambda dt: 1.0 + dt,
    "1.5l": lambda dt: 1.5,
}


def _scenario(controller, n_cells, tau, T=6.0, h1=1.0, h2=2.0, gain=0.5, **kw):
    p = Params(h1=h1, h2=h2, l=1.0, tau=tau, k1=gain, k2=gain)
    kw = {"theta0": ("sine(1, 1)", "random(0.5)"), "observer0": ("zero", "constant(0.2)"),
          "warmup_u": ("sine(1, 4)", "constant(0.5)"), "snapshot_stride": 0.3, **kw}
    return Scenario(params=p, n_cells=n_cells, T=T, sano_k=0.8 * gain,
                    controller="observer_predictor" if controller == "delay_free" else controller,
                    u_open=("sine(1, 2)", "constant(0.5)"), seed=3, **kw)


def _both(sc, controller):
    """The run, and the oracle's trajectory of it."""
    delay_free = controller == "delay_free"
    run = run_delay_free_feedback if delay_free else run_scenario
    return run(sc), oracle.simulate(sc, delay_free=delay_free)


def _assert_agrees(sc, controller, pointwise=True):
    result, stepped = _both(sc, controller)
    return _assert_close(result.trajectory, stepped, pointwise)


def _assert_close(exact, stepped, pointwise=True):
    """A tube's trajectory against the oracle's stepped one, at the module's bounds."""
    assert np.array_equal(exact.t, stepped.t)
    assert np.array_equal(exact.snapshot_t, stepped.snapshot_t)
    scale = max(np.abs(c).max() for c in (stepped.u, stepped.exit_values, stepped.snapshots))
    for name in ("u", "exit_values", "pred_err_at_l", "snapshots"):
        gap = np.abs(getattr(exact, name) - getattr(stepped, name)).max()
        assert gap <= VALUE_RTOL * scale, (name, gap, scale)
    norm_scale = max(stepped.plant_l2.max(), stepped.obs_err_l2.max())
    for name in ("plant_l2", "obs_err_l2"):
        ours, theirs = getattr(exact, name), getattr(stepped, name)
        assert np.all(np.isfinite(ours)), name
        assert np.abs(ours - theirs).max() <= NORM_RTOL * norm_scale, name
        live = theirs > FLOOR * theirs.max()
        if pointwise and live.any():
            gap = (np.abs(ours - theirs)[live] / theirs[live]).max()
            assert gap <= POINT_RTOL, (name, gap)
    return exact


@pytest.mark.parametrize("edge", TAU_EDGES)
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
@pytest.mark.parametrize("controller", CONTROLLERS)
def test_recurrence_matches_stepped_oracle(controller, n_cells, edge):
    tau = TAU_EDGES[edge](1.0 / n_cells)
    _assert_agrees(_scenario(controller, n_cells, tau), controller)


@pytest.mark.parametrize("steps", [2, 49, 50, 51])
@pytest.mark.parametrize("controller", CONTROLLERS)
def test_recurrence_matches_stepped_oracle_on_short_runs(controller, steps):
    # runs shorter than a tube, n_cells = 50: initial data is never flushed
    sc = _scenario(controller, 50, 0.02, T=steps / 50, snapshot_stride=1e-9)
    _assert_agrees(sc, controller)


@pytest.mark.parametrize("tau", [0.5, 1.5])
@pytest.mark.parametrize("n_cells", [1, 3])
@pytest.mark.parametrize("controller", CONTROLLERS)
def test_recurrence_matches_stepped_oracle_on_long_coarse_runs(controller, n_cells, tau):
    # 900 steps: blocks of several lags, each a power of the lag map
    _assert_agrees(_scenario(controller, n_cells, tau, T=900 / n_cells), controller)


def _overflowing_inputs(dt, start, t0=0.0):
    """Zero inflow, then (1e300, -1e300) at step ``start``, whose squares overflow, then
    (inf, -inf), which the coupling mixes into nan."""
    def u(t):
        j = round((t - t0) / dt) - start
        return np.array([1.0, -1.0]) * np.float64(1e300) ** (j + 1) if j >= 0 else np.zeros(2)
    return u


def _solver_pair(n_cells, n_steps, inputs, t0):
    """``solve_exact`` from t0, and the oracle's per-step exact solve of the same data."""
    grid = Grid(n_cells, 1.0)
    p = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    theta0 = np.column_stack([np.sin(grid.nodes), -0.0 * grid.nodes])
    solved = solve_exact(theta0, inputs, n_steps * grid.dt, p, grid, snapshot_stride=0.3, t0=t0)
    stepped = oracle.solve(theta0, inputs, n_steps, p, grid, grid.dt, oracle.advance_exact, 0.3,
                           t0=t0)
    return solved, stepped


@pytest.mark.parametrize("n_steps", [1, 2, 6, 7, 8, 49, 50, 51, 300])
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
def test_solve_exact_matches_stepped_oracle(n_cells, n_steps):
    # runs shorter than the tube, as long as it, one step longer and many tubes long
    f1, f2 = input_function("sine(1, 2)"), input_function("constant(1)")
    _assert_close(*_solver_pair(n_cells, n_steps, lambda t: np.array([f1(t), f2(t)]), 0.5))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
def test_solve_exact_overflow_is_reported_at_the_same_first_value(n_cells):
    # the norms overflow at step n_cells + 3, and the fields then turn nan
    start = n_cells + 3
    grid = Grid(n_cells, 1.0)
    solved, stepped = _solver_pair(n_cells, 4 * n_cells + 20,
                                   _overflowing_inputs(grid.dt, start, 0.5), 0.5)
    assert not solved.is_finite() and not stepped.is_finite()
    assert np.isnan(solved.exit_values).any() and np.isnan(stepped.exit_values).any()
    first = _first_non_finite(SimpleNamespace(trajectory=solved))
    assert first == _first_non_finite(SimpleNamespace(trajectory=stepped))
    assert first.startswith(f"step {start} ")


def _nan_after_overflow(dt, start, t0):
    """``_overflowing_inputs``, with (nan, nan) in place of (inf, -inf)."""
    u = _overflowing_inputs(dt, start, t0)
    return lambda t: np.where(np.isinf(u(t)), np.nan, u(t))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("signal", [_overflowing_inputs, _nan_after_overflow], ids=["inf", "nan"])
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
def test_overflowing_norms_match_stepped_oracle_element_by_element(n_cells, signal):
    # the squares of (1e300, -1e300) overflow: the norm is +inf, as the stepped
    # one is, until node 0 carries a nan, or a node reads the nan that (inf, -inf)
    # mixes into
    start = n_cells + 3
    grid = Grid(n_cells, 1.0)
    solved, stepped = _solver_pair(n_cells, 4 * n_cells + 20, signal(grid.dt, start, 0.5), 0.5)
    for name in ("plant_l2", "obs_err_l2"):
        ours, theirs = getattr(solved, name), getattr(stepped, name)
        assert np.array_equal(np.isnan(ours), np.isnan(theirs)), name
        assert np.array_equal(np.isposinf(ours), np.isposinf(theirs)), name
        live = np.isfinite(theirs)
        assert np.all(np.isfinite(ours[live])), name
        gap = np.abs(ours[live] - theirs[live]).max()
        assert gap <= NORM_RTOL * theirs[live].max(), (name, gap)
    assert np.isposinf(solved.plant_l2[start])
    assert np.isnan(solved.plant_l2).any()


def _one_lag_at_a_time(x, start, lag, step):
    for j in range(start, len(x)):
        x[j] = step @ x[j - lag]


@pytest.mark.parametrize("lag", [1, 3, 7, 2 * _BLOCK_STEPS])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_lagged_blocks_match_one_lag_at_a_time(lag, dim):
    rng = np.random.default_rng(lag + dim)
    step = rng.uniform(-1, 1, (dim, dim))
    step *= 0.9 / np.abs(np.linalg.eigvals(step)).max()
    x = np.zeros((3 * _BLOCK_STEPS + lag + 5, dim))
    x[:lag] = rng.uniform(-1, 1, (lag, dim))
    ours, theirs = x.copy(), x.copy()
    _lagged(ours, lag, lag, step)
    _one_lag_at_a_time(theirs, lag, lag, step)
    assert np.abs(ours - theirs).max() <= 1e-13 * np.abs(theirs).max()


def test_lagged_uses_no_power_that_overflows():
    # 1e200 squared overflows, so every block is one lag, and the rows that
    # start at zero stay zero instead of becoming 0 * inf = nan
    x = np.zeros((40, 1))
    x[0] = 1.0
    ours, theirs = x.copy(), x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        _lagged(ours, 2, 2, np.array([[1e200]]))
        _one_lag_at_a_time(theirs, 2, 2, np.array([[1e200]]))
    assert np.array_equal(ours, theirs) and np.all(ours[1::2] == 0.0) and np.isinf(ours[4, 0])


@pytest.mark.parametrize("h1, h2", [(0.0, 2.0), (0.0, 0.0)], ids=["h1=0", "no exchange"])
@pytest.mark.parametrize("tau", [0.5, 1.5])
@pytest.mark.parametrize("n_cells", [1, 7])
@pytest.mark.parametrize("controller", CONTROLLERS)
def test_recurrence_matches_stepped_oracle_without_exchange(controller, n_cells, tau, h1, h2):
    _assert_agrees(_scenario(controller, n_cells, tau, h1=h1, h2=h2), controller)


@pytest.mark.parametrize("tau", [0.5, 1.5])
@pytest.mark.parametrize("controller", CONTROLLERS)
def test_difference_mode_data_stays_finite(controller, tau):
    # h2 theta1 + h1 theta2 = 0: the conserved mean is rounding noise, and the
    # difference decays by e^{-30} over the tube; a norm summed in the raw
    # (theta1, theta2) basis cancels there and can round below zero
    modes = {"theta0": ("sine(1, 1)", "sine(-2, 1)"),
             "warmup_u": ("sine(1, 4)", "sine(-2, 4)"),
             "observer0": ("zero", "zero")}
    sc = _scenario(controller, 200, tau, T=25.0, h1=10.0, h2=20.0, **modes)
    sc.params = dataclasses.replace(sc.params, k1=0.25, k2=1.0)
    exact = _assert_agrees(sc, controller, pointwise=False)
    assert exact.is_finite() and np.all(exact.plant_l2 >= 0.0)


@pytest.mark.parametrize("edge", TAU_EDGES)
@pytest.mark.parametrize("n_cells", [1, 2, 7, 50])
@pytest.mark.parametrize("controller", [c for c in CONTROLLERS if c != "open_loop"])
def test_overflow_is_reported_at_the_same_first_value(controller, n_cells, edge):
    # k1 = k2 = 1e150 (sano_k 8e149): the loop overflows to inf, then nan
    tau = TAU_EDGES[edge](1.0 / n_cells)
    sc = _scenario(controller, n_cells, tau, T=20.0, gain=1e150)
    exact, stepped = _both(sc, controller)
    assert not exact.summary.finite and not stepped.is_finite()
    assert _first_non_finite(exact) == _first_non_finite(SimpleNamespace(trajectory=stepped))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    controller=st.sampled_from(CONTROLLERS),
    h1=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    h2=st.floats(0.0, 20.0),
    l=st.floats(0.5, 2.0),
    n_cells=st.one_of(st.just(1), st.integers(1, 40)),
    # the delay in steps: a named edge, or any count up to twice the tube
    delay=st.one_of(st.sampled_from(["dt", "l-dt", "l", "l+dt"]), st.floats(0.0, 2.0)),
    k1=st.floats(-1.5, 1.5),
    k2=st.floats(-1.5, 1.5),
)
@example(controller="observer_predictor", h1=0.0, h2=2.0, l=1.0, n_cells=1, delay="dt", k1=0.5,
         k2=0.5)
@example(controller="observer_predictor", h1=1.0, h2=2.0, l=1.0, n_cells=7, delay="l-dt",
         k1=0.5, k2=0.5)
@example(controller="delay_free", h1=1.0, h2=2.0, l=1.5, n_cells=7, delay="l", k1=0.5, k2=0.5)
@example(controller="sano_static", h1=1.0, h2=2.0, l=1.0, n_cells=1, delay="l+dt", k1=0.9,
         k2=0.5)
def test_recurrence_matches_stepped_oracle_property(controller, h1, h2, l, n_cells, delay, k1,
                                                    k2):
    dt = l / n_cells
    named = {"dt": 1, "l-dt": max(1, n_cells - 1), "l": n_cells, "l+dt": n_cells + 1}
    steps = named[delay] if delay in named else max(1, round(delay * n_cells))
    p = Params(h1=h1, h2=h2, l=l, tau=steps * dt, k1=k1, k2=k2)
    sc = Scenario(params=p, n_cells=n_cells, T=steps * dt + 4 * l, sano_k=k1,
                  controller="observer_predictor" if controller == "delay_free" else controller,
                  theta0=("sine(1, 1)", "gaussian(0.3, 0.2, 1)"),
                  observer0=("random(0.5)", "zero"), warmup_u=("sine(1, 3)", "constant(0.5)"),
                  u_open=("sine(1, 2)", "constant(-0.5)"), snapshot_stride=0.25, seed=7)
    _assert_agrees(sc, controller)


# what the oracle may not use: the recurrence, the runs made by it, and the tube's other
# uses, the exact solver and the closed form (with the predictor) and their helpers
RECURRENCE_NAMES = {"_Tube", "_lagged", "_RECURRENCES", "_cross_map", "run_scenario", "_simulate",
                    "solve_exact", "closed_form_state", "predict", "trajectory", "feed_signal",
                    "_inputs", "_plant_trajectory",
                    "_solve", "solve_upwind"}  # the upwind loop, which the oracle checks too


def _recurrence_names(tree: ast.AST) -> set[str]:
    """The names of the recurrence that a module imports, reads as attributes or spells."""
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            seen.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            seen.add(node.value)
    return {name for name in seen if name in RECURRENCE_NAMES or name.startswith("_recur")}


def test_oracle_imports_nothing_of_the_recurrence():
    # the stepped kernel and loop._prepare's set-up are allowed
    source = (Path(__file__).parent / "oracle.py").read_text()
    assert _recurrence_names(ast.parse(source)) == set()
    for line in ("from pfhx.loop import _lagged", "from pfhx.solver import _Tube as T",
                 "loop._recur(sc, run)", "getattr(loop, '_RECURRENCES')",
                 "import pfhx.loop._cross_map", "from pfhx import solve_exact",
                 "pfhx.closed_form_state(f, u, t, p, g)", "from pfhx.observer import predict",
                 "tube.trajectory(0.1)", "tube.feed_signal(u)", "from pfhx.solver import _inputs",
                 "solver._solve(f, u, 9, p, g, 0.5, 0.1, 0.0)", "from pfhx import solve_upwind"):
        assert _recurrence_names(ast.parse(line)), line
