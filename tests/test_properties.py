"""Properties every run has, over drawn parameters.

The hull bound: exp(A1 s) is row stochastic with entries in [0, 1], so
along each characteristic the two temperatures are mixed convexly.  Every
node at step j carries a mix of one origin pair, a node of the initial
field or an inlet pair u[k] with k <= j; the upwind scheme also mixes
neighbouring nodes convexly.  So every snapshot and exit value of a run is
bounded by max(|theta0|, max |u| so far), up to a few ulps of rounding,
whatever the gains, inside the theorem's bounds or outside them.

Linearity: every exact law is linear in the initial data and the input
signals, so a run is linear in array initial data (theta0, observer0)
under zero inputs, and scaling the initial data and the input signals'
amplitude by a scales u, the exits, the prediction errors and the
snapshots by a and the norms by |a|.  Both hold to the rounding bounds the
recurrence keeps against its oracle (tests/test_recurrence.py), checked
with no oracle at all.  The upwind open loop is linear in (theta0, u) as
well, to a rounding bound that grows with its step count.

Time-shift invariance: the plant's coefficients do not depend on time, so
a solve from t0 is the solve from 0 of the input shifted by t0, with its
times offset by t0.  Both solvers read the input at t0 + j dt either way,
so the two agree bit for bit.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfhx import Grid, Params, Scenario, run_delay_free_feedback, solve_exact, solve_upwind
from pfhx.loop import run_scenario
from pfhx.profiles import profile_array
from test_recorder import _same_bits
from test_recurrence import NORM_RTOL, VALUE_RTOL

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


# every exact law: the four controllers and the delay-free reference loop
EXACT = ["observer_predictor", "sano_static", "error_system", "open_loop", "delay_free"]
VALUES = ("u", "exit_values", "pred_err_at_l", "snapshots")
NORMS = ("plant_l2", "obs_err_l2")
# zero, or a magnitude in [1/16, 4]: a scale far below one takes the data to
# where its squares underflow in the norm, or coefficients to subnormals,
# whose relative precision is lost in any floating-point sum
COEF = st.one_of(st.just(0.0), st.floats(1 / 16, 4.0), st.floats(-4.0, -1 / 16))


def _exact_run(controller, p, n_cells, theta0, observer0, amplitude):
    """An exact run from array initial data, its input signals' amplitude scaled."""
    a = amplitude
    sc = Scenario(params=p, n_cells=n_cells, T=p.tau + 4 * p.l, sano_k=p.k1,
                  controller="observer_predictor" if controller == "delay_free" else controller,
                  theta0=theta0, observer0=observer0,
                  warmup_u=(f"sine({a!r}, 3)", f"constant({-0.7 * a!r})"),
                  u_open=(f"sine({2 * a!r}, 2)", f"constant({0.5 * a!r})"),
                  snapshot_stride=0.25 * p.l)
    runner = run_delay_free_feedback if controller == "delay_free" else run_scenario
    return runner(sc).trajectory


def _scale(traj) -> float:
    return max(np.abs(getattr(traj, name)).max() for name in ("u", "exit_values", "snapshots"))


def _norm_scale(traj) -> float:
    return max(traj.plant_l2.max(), traj.obs_err_l2.max())


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    controller=st.sampled_from(EXACT),
    h1=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    h2=st.floats(0.0, 20.0),
    l=st.floats(0.5, 2.0),
    n_cells=st.one_of(st.just(1), st.integers(1, 30)),
    # the delay in steps: a named edge, or any count up to twice the tube
    delay=st.one_of(st.sampled_from(["dt", "l-dt", "l", "l+dt"]), st.floats(0.0, 2.0)),
    k1=st.floats(-1.5, 1.5),
    k2=st.floats(-1.5, 1.5),
    c1=COEF,
    c2=COEF,
    a=COEF,
    seed=st.integers(0, 2**16),
)
@example(controller="observer_predictor", h1=1.0, h2=2.0, l=1.0, n_cells=7, delay="l-dt", k1=0.5,
         k2=0.5, c1=0.7, c2=-3.0, a=-2.5, seed=1)
@example(controller="observer_predictor", h1=1.0, h2=2.0, l=1.0, n_cells=1, delay="l+dt", k1=0.5,
         k2=0.5, c1=1.5, c2=2.0, a=0.3, seed=2)
@example(controller="sano_static", h1=0.0, h2=2.0, l=1.0, n_cells=5, delay="dt", k1=1.2, k2=0.5,
         c1=-1.0, c2=0.25, a=3.0, seed=3)
def test_exact_runs_are_linear_in_their_data(controller, h1, h2, l, n_cells, delay, k1, k2, c1, c2,
                                             a, seed):
    dt = l / n_cells
    named = {"dt": 1, "l-dt": max(1, n_cells - 1), "l": n_cells, "l+dt": n_cells + 1}
    steps = named[delay] if delay in named else max(1, round(delay * n_cells))
    p = Params(h1=h1, h2=h2, l=l, tau=steps * dt, k1=k1, k2=k2)
    rng = np.random.default_rng(seed)
    theta_a, obs_a, theta_b, obs_b = rng.standard_normal((4, n_cells + 1, 2))

    def run(theta0, observer0, amplitude=0.0):
        return _exact_run(controller, p, n_cells, theta0, observer0, amplitude)

    # superposition under zero inputs; the norms are not additive
    one, two = run(theta_a, obs_a), run(theta_b, obs_b)
    both = run(c1 * theta_a + c2 * theta_b, c1 * obs_a + c2 * obs_b)
    scale = abs(c1) * _scale(one) + abs(c2) * _scale(two)
    for name in VALUES:
        gap = np.abs(getattr(both, name) - (c1 * getattr(one, name) + c2 * getattr(two, name)))
        assert gap.max() <= VALUE_RTOL * scale, (name, gap.max(), scale)
    # homogeneity, the input signals scaled with the initial data
    base, scaled = run(theta_a, obs_a, 1.0), run(a * theta_a, a * obs_a, a)
    for name in VALUES:
        gap = np.abs(getattr(scaled, name) - a * getattr(base, name)).max()
        assert gap <= VALUE_RTOL * abs(a) * _scale(base), (name, gap)
    for name in NORMS:
        gap = np.abs(getattr(scaled, name) - abs(a) * getattr(base, name)).max()
        assert gap <= NORM_RTOL * abs(a) * _norm_scale(base), (name, gap)


# An upwind step rounds each value by at most 2 eps of the run's largest
# value, and it passes earlier errors on without growth (every step mixes
# convexly), so after N steps a run is within 2 N eps of its exact value.
# Superposition compares three runs, hence 4 eps a step.  A norm of an
# error field is at most sqrt(2 l) times its largest value, and the
# trapezoid sum adds about n_cells eps of the norm.
UPWIND_STEP_RTOL = 4 * np.finfo(float).eps
UPWIND_VALUES = ("u", "exit_values", "snapshots")


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    h1=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    h2=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    l=st.floats(0.5, 2.0),
    n_cells=st.one_of(st.just(1), st.integers(1, 30)),
    cfl=st.floats(0.05, 1.0),
    c1=COEF,
    c2=COEF,
    a=COEF,
    seed=st.integers(0, 2**16),
)
@example(h1=0.0, h2=2.0, l=1.0, n_cells=1, cfl=0.3, c1=0.7, c2=-3.0, a=-2.5, seed=1)
@example(h1=1.0, h2=0.0, l=1.0, n_cells=7, cfl=1.0, c1=1.5, c2=2.0, a=0.3, seed=2)
@example(h1=0.0, h2=0.0, l=1.0, n_cells=1, cfl=0.5, c1=-1.0, c2=0.25, a=3.0, seed=3)
def test_upwind_open_loop_is_linear_in_its_data(h1, h2, l, n_cells, cfl, c1, c2, a, seed):
    p = Params(h1=h1, h2=h2, l=l, tau=l)
    rng = np.random.default_rng(seed)
    theta_a, theta_b = rng.standard_normal((2, n_cells + 1, 2))
    (s_a, s_b), (b_a, b_b) = rng.standard_normal((2, 2)).tolist()

    def run(theta0, sine, constant):
        sc = Scenario(params=p, n_cells=n_cells, T=3 * l, controller="open_loop",
                      solver="upwind", cfl=cfl, theta0=theta0,
                      u_open=(f"sine({sine!r}, 2)", f"constant({constant!r})"),
                      snapshot_stride=0.25 * l)
        return run_scenario(sc).trajectory

    # superposition in (theta0, u): the inputs' amplitudes add
    one, two = run(theta_a, s_a, b_a), run(theta_b, s_b, b_b)
    both = run(c1 * theta_a + c2 * theta_b, c1 * s_a + c2 * s_b, c1 * b_a + c2 * b_b)
    steps = len(one.t)
    scale = abs(c1) * _scale(one) + abs(c2) * _scale(two)
    for name in UPWIND_VALUES:
        gap = np.abs(getattr(both, name) - (c1 * getattr(one, name) + c2 * getattr(two, name)))
        assert gap.max() <= UPWIND_STEP_RTOL * steps * scale, (name, gap.max(), scale)
    # homogeneity in the input amplitude, with the initial data scaled alike
    scaled = run(a * theta_a, a * s_a, a * b_a)
    for name in UPWIND_VALUES:
        gap = np.abs(getattr(scaled, name) - a * getattr(one, name)).max()
        assert gap <= UPWIND_STEP_RTOL * steps * abs(a) * _scale(one), (name, gap)
    gap = np.abs(scaled.plant_l2 - abs(a) * one.plant_l2).max()
    bound = UPWIND_STEP_RTOL * (steps + n_cells) * np.sqrt(2 * l) * abs(a) * _scale(one)
    assert gap <= bound, gap


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    h1=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    h2=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    l=st.floats(0.5, 2.0),
    n_cells=st.one_of(st.just(1), st.integers(1, 40)),
    steps=st.integers(1, 120),  # T in steps
    cfl=st.floats(0.05, 1.0),
    t0=st.floats(-100.0, 100.0),
)
@example(h1=1.0, h2=2.0, l=1.0, n_cells=1, steps=9, cfl=0.3, t0=5.0)
@example(h1=0.0, h2=0.0, l=1.0, n_cells=7, steps=30, cfl=1.0, t0=-2.5)
@example(h1=0.0, h2=0.0, l=1.0, n_cells=1, steps=1, cfl=0.5, t0=0.1)
def test_solvers_are_invariant_under_a_time_shift(h1, h2, l, n_cells, steps, cfl, t0):
    p = Params(h1=h1, h2=h2, l=l, tau=l)
    grid = Grid(n_cells, l)
    theta0 = np.column_stack([np.sin(3 * grid.nodes + 1), np.cos(grid.nodes) - 0.5])
    u = lambda t: np.array([np.sin(2 * t), np.cos(0.7 * t) ** 2])
    shifted = lambda s: u(t0 + s)
    runs = {
        "solve_exact": lambda inputs, start: solve_exact(
            theta0, inputs, steps * grid.dt, p, grid, snapshot_stride=0.25 * l, t0=start),
        "solve_upwind": lambda inputs, start: solve_upwind(
            theta0, inputs, steps * (cfl * grid.dx), p, grid, cfl=cfl, snapshot_stride=0.25 * l,
            t0=start),
    }
    for name, solve in runs.items():
        late, base = solve(u, t0), solve(shifted, 0.0)
        assert _same_bits(late.t, base.t + t0), name
        assert _same_bits(late.snapshot_t, base.snapshot_t + t0), name
        for column in dataclasses.fields(base):
            if column.name not in ("t", "snapshot_t"):
                assert _same_bits(getattr(late, column.name), getattr(base, column.name)), (
                    name, column.name)
