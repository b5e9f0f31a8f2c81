"""Exact runs by boundary recurrence against the stepped loop, their oracle.

An exact-solver run computes its inlet history by a lag-n recurrence and
every column from that history and the initial fields (``loop._recur``);
``loop._simulate(..., stepped=True)`` steps every field instead, as the
upwind solver still does.  The two round differently, because exp(A1 dt)
applied n times is not exp(A1 l) and the norms are summed in another
order, so they agree to rounding, with these bounds:

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
map (``loop._lagged``), checked here against one lag at a time.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfhx import Params, Scenario
from pfhx.cli import _first_non_finite
from pfhx.loop import _BLOCK_STEPS, _lagged, _simulate

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
    delay_free = controller == "delay_free"
    return (_simulate(sc, delay_free=delay_free),
            _simulate(sc, delay_free=delay_free, stepped=True))


def _assert_agrees(sc, controller, pointwise=True):
    exact, stepped = (r.trajectory for r in _both(sc, controller))
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
    assert not exact.summary.finite and not stepped.summary.finite
    assert _first_non_finite(exact) == _first_non_finite(stepped)


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
