"""Properties every run has, over drawn parameters.

The hull bound: exp(A1 s) is row stochastic with entries in [0, 1], so
along each characteristic the two temperatures are mixed convexly.  Every
node at step j carries a mix of one origin pair, a node of the initial
field or an inlet pair u[k] with k <= j; the upwind scheme also mixes
neighbouring nodes convexly.  So every snapshot and exit value of a run is
bounded by max(|theta0|, max |u| so far), up to a few ulps of rounding,
whatever the gains, inside the theorem's bounds or outside them.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfhx import Grid, Params, Scenario
from pfhx.loop import run_scenario
from pfhx.profiles import profile_array

ULPS = 4 * np.finfo(float).eps
# (theta0, u_open): mixed data, and data at the bound everywhere, where a
# mixing weight that is too large shows at once
DATA = {"mixed": (("sine(1, 1)", "gaussian(0.3, 0.2, 1.5)"), ("sine(2, 2)", "constant(0.5)")),
        "saturated": (("constant(1.5)", "constant(-1.5)"), ("constant(1.5)", "constant(1.5)"))}
# a drawn run -> (controller, solver)
RUNS = {"observer_predictor": ("observer_predictor", "exact"),
        "open_loop": ("open_loop", "exact"),
        "upwind open_loop": ("open_loop", "upwind")}


def _running_bound(theta0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """max(|theta0|, max |u[k]| over k <= j) for each step j."""
    return np.maximum(np.abs(theta0).max(), np.maximum.accumulate(np.abs(u).max(axis=1)))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    run=st.sampled_from(list(RUNS)),
    data=st.sampled_from(list(DATA)),
    h1=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    h2=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    l=st.floats(0.5, 2.0),
    n_cells=st.one_of(st.just(1), st.integers(1, 40)),
    # the delay in steps: dt, l, or any count up to twice the tube
    delay=st.one_of(st.sampled_from(["dt", "l"]), st.floats(0.0, 2.0)),
    k1=st.floats(-1.5, 1.5),
    k2=st.floats(-1.5, 1.5),
)
@example(run="observer_predictor", data="mixed", h1=1.0, h2=2.0, l=1.0, n_cells=20,
         delay="dt", k1=0.5, k2=0.5)
@example(run="observer_predictor", data="mixed", h1=1.0, h2=2.0, l=1.0, n_cells=20,
         delay="l", k1=0.5, k2=0.5)
@example(run="observer_predictor", data="mixed", h1=0.0, h2=2.0, l=1.0, n_cells=7,
         delay=1.5, k1=1.2, k2=-0.8)
@example(run="observer_predictor", data="saturated", h1=3.0, h2=0.0, l=1.0, n_cells=1,
         delay="dt", k1=0.5, k2=0.5)
@example(run="open_loop", data="saturated", h1=0.0, h2=0.0, l=1.0, n_cells=1, delay="l",
         k1=0.5, k2=0.5)
@example(run="open_loop", data="saturated", h1=1.0, h2=2.0, l=1.0, n_cells=1, delay="l",
         k1=0.5, k2=0.5)
@example(run="upwind open_loop", data="mixed", h1=0.0, h2=2.0, l=1.0, n_cells=1, delay="dt",
         k1=0.5, k2=0.5)
@example(run="upwind open_loop", data="saturated", h1=1.0, h2=2.0, l=1.0, n_cells=5,
         delay="dt", k1=0.5, k2=0.5)
def test_every_value_stays_in_the_hull_of_the_data_so_far(run, data, h1, h2, l, n_cells, delay,
                                                          k1, k2):
    dt = l / n_cells
    named = {"dt": 1, "l": n_cells}
    steps = named[delay] if delay in named else max(1, round(delay * n_cells))
    controller, solver = RUNS[run]
    theta0_specs, u_open = DATA[data]
    sc = Scenario(params=Params(h1=h1, h2=h2, l=l, tau=steps * dt, k1=k1, k2=k2),
                  n_cells=n_cells, T=steps * dt + 4 * l, controller=controller, theta0=theta0_specs,
                  observer0=("random(0.5)", "zero"), warmup_u=("sine(1, 3)", "constant(-0.7)"),
                  u_open=u_open, solver=solver,
                  snapshot_stride=0.25 * l, seed=7)
    traj = run_scenario(sc).trajectory
    theta0 = np.column_stack([profile_array(spec, Grid(n_cells, l)) for spec in theta0_specs])
    bound = _running_bound(theta0, traj.u) * (1 + ULPS)
    assert np.all(np.abs(traj.exit_values).max(axis=1) <= bound)
    snapshot_steps = np.rint(traj.snapshot_t / traj.dt).astype(int)
    assert np.all(np.abs(traj.snapshots).max(axis=(1, 2)) <= bound[snapshot_steps])
