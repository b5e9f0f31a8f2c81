import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pfhx import (
    Grid,
    Params,
    compatibility_check,
    coupling_matrix,
    discrete_response,
    fit_decay,
    profile_array,
    solve_exact,
    transfer_function,
)
from pfhx.analysis import _mix
from pfhx.config import parse_config
from pfhx.loop import run_scenario

ROOT = Path(__file__).resolve().parents[1]


def make_params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5):
    return Params(h1=h1, h2=h2, l=l, tau=tau, k1=k1, k2=k2)


def test_transfer_at_zero_frozen_values():
    g = transfer_function(0.0, make_params(h1=1.0, h2=1.0))
    e = math.exp(-2.0)
    expected = np.array([[(1 - e) / 2, (e + 1) / 2], [(1 + e) / 2, (1 - e) / 2]])
    np.testing.assert_allclose(g, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        np.abs(g), [[0.4323323583816936, 0.5676676416183064],
                    [0.5676676416183064, 0.4323323583816936]], rtol=0, atol=1e-12
    )


def test_transfer_zero_rows_sum_to_one_randomized():
    rng = np.random.default_rng(30)
    for _ in range(50):
        params = make_params(h1=rng.uniform(0.05, 4), h2=rng.uniform(0.05, 4),
                             l=rng.uniform(0.2, 3))
        g = transfer_function(0.0, params)
        np.testing.assert_allclose(g.sum(axis=1).real, [1.0, 1.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(g.sum(axis=1).imag, [0.0, 0.0], rtol=0, atol=1e-12)


def test_transfer_high_frequency_rolloff():
    params = make_params()
    assert np.abs(transfer_function(40.0, params)).max() <= 1e-15
    # entries scale like exp(-Re(s) l) for large positive real part
    for s in (10.0, 20.0, 40.0):
        bound = (params.h1 + params.h2 + 1.0) * math.exp(-s * params.l)
        peak = np.abs(transfer_function(s, params)).max()
        assert peak <= bound
        assert peak >= math.exp(-s * params.l) / (params.h1 + params.h2 + 1.0)


def test_transfer_gain_that_overflows_is_infinite_not_an_error():
    # e^{-sl} = e^1000 overflows a double: G's entries are e^{-Re(s) l} G(i Im(s))
    params = make_params()
    g = transfer_function(-1000.0, params)
    assert np.all(g == np.inf) and not np.isnan(g).any()
    phase = transfer_function(1j, params)  # e^{-i l} times a positive matrix
    g = transfer_function(-1000.0 + 1j, params)
    assert not np.isnan(g).any()
    assert np.array_equal(np.sign(g.real), np.sign(phase.real)) and np.isinf(g.real).all()
    assert np.array_equal(np.sign(g.imag), np.sign(phase.imag)) and np.isinf(g.imag).all()
    # just past the overflow of e^{-sl}, G itself is still finite: e^{710} G(0)
    g = transfer_function(-710.0, params)
    expected = transfer_function(0.0, params).real * np.exp(355.0) * np.exp(355.0)
    np.testing.assert_allclose(g.real, expected, rtol=1e-12, atol=0)
    # an entry whose mode weight is zero stays zero: G22 = h1 (...) with h1 = 0
    g = transfer_function(-1000.0, make_params(h1=0.0))
    assert g[1, 1] == 0 and np.all(np.delete(g.ravel(), 3) == np.inf)


def test_transfer_matches_steady_state_simulation():
    # constant input (1, 0) with the exact solver: exits converge to column 1
    params = make_params()
    grid = Grid(100, 1.0)
    traj = solve_exact(np.zeros((101, 2)), lambda t: np.array([1.0, 0.0]), 3.0, params, grid)
    g0 = transfer_function(0.0, params).real
    # outputs are cross-measured: y = (theta2, theta1) at the exit
    np.testing.assert_allclose(traj.exit_values[-1][::-1], g0[:, 0], rtol=0, atol=1e-12)


def test_measured_response_close_to_formula():
    params = make_params()
    grid = Grid(200, 1.0)
    formula = transfer_function(1j * 1.0, params)
    measured = discrete_response([1.0], params, grid)[0]
    rel = np.linalg.norm(measured - formula) / np.linalg.norm(formula)
    assert rel < 0.02


def test_measured_response_error_halves_under_refinement():
    params = make_params()
    formula = transfer_function(1j * 1.0, params)
    errs = {}
    for n in (200, 800):
        measured = discrete_response([1.0], params, Grid(n, 1.0))[0]
        errs[n] = np.linalg.norm(measured - formula)
    assert errs[800] <= 0.5 * errs[200]


def test_measured_dc_gain_from_steady_state():
    params = make_params()
    measured = discrete_response([0.0], params, Grid(200, 1.0))[0]
    g0 = transfer_function(0.0, params)
    assert np.abs(measured - g0).max() < 1e-2


def test_measure_validation():
    params = make_params()
    grid = Grid(50, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        discrete_response([-1.0], params, grid)
    for cfl in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="cfl"):
            discrete_response([1.0], params, grid, cfl=cfl)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measure_rejects_non_finite_omega(bad):
    with pytest.raises(ValueError, match="omega must be finite"):
        discrete_response([1.0, bad], make_params(), Grid(10, 1.0))


@pytest.mark.parametrize("tiny", [1e-320, 1e-12])
def test_tiny_omega_gives_the_dc_gain(tiny):
    # a stepped measurement would need a horizon of 1e13 steps or more
    tracemalloc.start()
    try:
        gains = discrete_response([0.0, tiny], make_params(), Grid(10, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(gains))
    np.testing.assert_allclose(gains[1], gains[0], rtol=0, atol=1e-12)
    assert peak < 2**20


@pytest.mark.parametrize("cfl", [1e-300, 5e-324])
def test_tiny_cfl_gives_the_semi_discrete_response(cfl):
    # as cfl -> 0 the scheme tends to its method of lines, whose cell factor
    # is (I + dx (i omega I - A1))^-1; a tiny step must not cancel to it
    params, grid, omegas = make_params(), Grid(20, 1.0), [0.0, 1.0, 12.0]
    a1 = np.array([[-params.h1, params.h1], [params.h2, -params.h2]])
    for omega, gain in zip(omegas, discrete_response(omegas, params, grid, cfl=cfl)):
        cell = np.linalg.inv(np.eye(2) + grid.dx * (1j * omega * np.eye(2) - a1))
        expected = np.linalg.matrix_power(cell, grid.n_cells)[::-1]
        assert np.linalg.norm(gain - expected) <= 1e-12 * np.linalg.norm(expected), omega


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h1", [1e3, 1e4, 1.39e4, 1.5e4, 1e308])  # (h1 + h2) dt = 50 .. 5e306
def test_fast_mode_weight_past_the_exponent_range(h1):
    # e^{(h1 + h2) dt} overflows from about 709 on, and the fast mode's weight is
    # then taken in the log domain; on either side it is zero to rounding, so the
    # gain is the mean mode's alone, whose weight the unmixed response shows; from
    # about 355 on |w|^2 overflows in the log1p, which must raise no warning
    omegas, grid = [0.0, 1.0, 5.0], Grid(10, 1.0)
    unmixed = discrete_response(omegas, make_params(h1=0.0, h2=0.0), grid)[:, 0, 1]
    expected = np.array([_mix(a, 0j, h1, 2.0) for a in unmixed.tolist()])
    gains = discrete_response(omegas, make_params(h1=h1), grid)
    np.testing.assert_allclose(gains, expected, rtol=1e-15, atol=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h1, h2, l, n_cells", [
    (1e308, 1e308, 1.0, 20),  # h1 + h2 overflows
    (1.7e308, 5e307, 1.0, 10),  # an overflowing sum of unequal rates
    (1e300, 1e300, 1e10, 1),  # a finite sum whose step (h1 + h2) dt overflows
])
def test_rates_whose_sum_or_step_overflows_still_mix(h1, h2, l, n_cells):
    # the fast mode is gone, so G and the measured gain keep the mean mode alone,
    # weighted h2 : h1 as at any finite sum: |g_i1| = h2 / (h1 + h2), |g_i2| =
    # h1 / (h1 + h2), and 1/2 each at h1 = h2
    omegas, grid = [0.0, 0.5, 1.0, 2.0], Grid(n_cells, l)
    params = make_params(h1=h1, h2=h2, l=l)
    unmixed = discrete_response(omegas, make_params(h1=0.0, h2=0.0, l=l), grid)[:, 0, 1]
    gains = discrete_response(omegas, params, grid)
    assert np.all(np.isfinite(gains))
    expected = np.array([_mix(a, 0j, h1, h2) for a in unmixed.tolist()])
    np.testing.assert_allclose(gains, expected, rtol=1e-15, atol=0)
    weights = np.array([h2 / 2, h1 / 2]) / (h1 / 2 + h2 / 2)
    for omega in omegas:
        formula = transfer_function(1j * omega, params)
        np.testing.assert_allclose(np.abs(formula), [weights, weights], rtol=1e-15, atol=0)


@pytest.mark.parametrize("h", [8.9e307, 1e308])  # a finite sum, and one that overflows
def test_fast_mode_where_the_sum_overflows_but_its_product_does_not(h):
    # (h1 + h2) l = 0.0178 and 0.02: the fast mode's factor is near 1, not 0, and
    # A1 l and A1 dt are finite, so expm gives G(i omega) = e^{-i omega l} exp(A1 l)
    # with its rows swapped, and the scheme's T(z) = c (z I - (1 - c) M)^-1 M
    l, cfl = 1e-310, 0.5
    params, grid = make_params(h1=h, h2=h, l=l), Grid(1, l)
    a1 = np.array([[-h, h], [h, -h]])
    dt = cfl * grid.dx
    step = expm(a1 * dt)
    omegas = [0.0, 0.5, 2.0]
    for omega, gain in zip(omegas, discrete_response(omegas, params, grid, cfl=cfl)):
        formula = transfer_function(1j * omega, params)
        np.testing.assert_allclose(formula, np.exp(-1j * omega * l) * expm(a1 * l)[::-1],
                                   rtol=1e-14, atol=0)
        z = np.exp(1j * omega * dt)
        cell = cfl * np.linalg.solve(z * np.eye(2) - (1 - cfl) * step, step)
        np.testing.assert_allclose(gain, cell[::-1], rtol=1e-12, atol=0)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    h1=st.floats(0.0, 4.0),
    h2=st.floats(0.0, 4.0),
    l=st.floats(0.05, 2.0),
    n_cells=st.integers(1, 64),
    # the phase error of both sides grows like eps omega l: omega l stays below 16
    omega=st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
)
@example(h1=1.0, h2=2.0, l=1.0, n_cells=37, omega=7.0)
@example(h1=0.0, h2=0.0, l=1.0, n_cells=5, omega=0.5)
@example(h1=1.0, h2=2.0, l=1.0, n_cells=1, omega=3.0)
@example(h1=0.0, h2=0.0, l=2.0, n_cells=1, omega=0.0)
def test_exact_scheme_response_is_the_pure_delay(h1, h2, l, n_cells, omega):
    # at CFL 1 the upwind step is the exact shift: the gain is G(i omega) to rounding
    params = make_params(h1=h1, h2=h2, l=l)
    gain = discrete_response([omega], params, Grid(n_cells, l), cfl=1.0)[0]
    formula = transfer_function(1j * omega, params)
    np.testing.assert_allclose(gain, formula, rtol=0, atol=1e-14)


# The measurement as it was first written: one upwind run per omega and
# drive channel, each stepping with its own allocating copy of the split
# upwind update, recording the exit node and fitting a sinusoid to it after
# a transient of transient_factor * l.  Kept as the stepped oracle of
# discrete_response: once the transient has flushed, the fit reads the
# scheme's steady response.
def _reference_upwind_step(field, step_matrix, cfl, u_new):
    adv = np.empty_like(field)
    adv[1:] = (1.0 - cfl) * field[1:] + cfl * field[:-1]
    adv[0] = field[0]
    out = adv @ step_matrix.T
    out[0] = u_new
    return out


def _reference_exit_run(drive, T, params, grid, cfl):
    dt = cfl * grid.dx
    n_steps = int(round(T / dt))
    step_matrix = coupling_matrix(dt, params.h1, params.h2)
    field = np.zeros((grid.n_cells + 1, 2))
    exits = np.zeros((n_steps + 1, 2))
    for j in range(1, n_steps + 1):
        u_new = np.asarray(drive(0.0 + j * dt), dtype=float)
        field = _reference_upwind_step(field, step_matrix, cfl, u_new)
        exits[j] = field[-1]
    return np.arange(n_steps + 1) * dt + 0.0, exits


def _reference_measure(omega, params, grid, cycles, cfl, transient_factor=3.0):
    transient = transient_factor * params.l
    dt = cfl * grid.dx
    gain = np.zeros((2, 2), dtype=complex)
    if omega == 0.0:
        T = (transient_factor + 5.0) * params.l
        T = math.ceil(T / dt) * dt
        for chan in (0, 1):
            drive = np.zeros(2)
            drive[chan] = 1.0
            _, exit_values = _reference_exit_run(lambda t: drive, T, params, grid, cfl)
            gain[0, chan] = exit_values[-1][1]
            gain[1, chan] = exit_values[-1][0]
        return gain
    T = transient + cycles * 2 * math.pi / omega
    T = math.ceil(T / dt) * dt
    for chan in (0, 1):
        def drive(t, _chan=chan):
            u = np.zeros(2)
            u[_chan] = math.sin(omega * t)
            return u

        t, exit_values = _reference_exit_run(drive, T, params, grid, cfl)
        sel = t >= transient - 1e-9
        ts = t[sel]
        design = np.column_stack([np.sin(omega * ts), np.cos(omega * ts)])
        for row, col in ((0, 1), (1, 0)):
            coef, *_ = np.linalg.lstsq(design, exit_values[sel, col], rcond=None)
            gain[row, chan] = coef[0] + 1j * coef[1]
    return gain


def _assert_matches_oracle(omegas, params, grid, cycles, cfl, transient_factor=40.0):
    measured = discrete_response(omegas, params, grid, cfl=cfl)
    assert measured.shape == (len(omegas), 2, 2)
    for omega, gain in zip(omegas, measured):
        expected = _reference_measure(omega, params, grid, cycles, cfl, transient_factor)
        assert np.linalg.norm(gain - expected) <= 1e-12 * np.linalg.norm(expected), omega


@pytest.mark.parametrize("h1", [0.0, 1.0])
@pytest.mark.parametrize("cycles", [10, 13])
@pytest.mark.parametrize("cfl", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("n_cells", [1, 7, 50])
def test_stacked_measurement_matches_per_run_reference(n_cells, cfl, cycles, h1):
    # every omega in one call, unsorted, with a repeat and omega = 0, against
    # one stepped run per omega and channel whose transient is 40 l long
    params = make_params(h1=h1)
    grid = Grid(n_cells, 1.0)
    _assert_matches_oracle([6.0, 0.0, 3.0, 6.0, 12.0], params, grid, cycles, cfl)
    assert discrete_response([], params, grid).shape == (0, 2, 2)


def _omega_with_steps(steps, grid, cycles, cfl, transient=40.0):
    """An omega whose oracle horizon is ``steps`` steps: its end lies half a step before the last."""
    dt = cfl * grid.dx
    return cycles * 2 * math.pi / ((steps - 0.5) * dt - transient)


# where the stepped oracle's horizon ends against blocks of 64 steps: 12 whole
# blocks, then 63 (one step short of a 13th), 64, 65 or 68 steps into the next.
# The chunked stepped loop once split its runs at these seams; the exact
# response must agree with the fit whichever sample its window ends on.
CHUNK_SEAMS = {"one before": -1, "on a boundary": 0, "one after": 1, "mid-chunk": 4}


@pytest.mark.parametrize("seam", CHUNK_SEAMS)
@pytest.mark.parametrize("n_cells", [1, 2, 7])
def test_stacked_measurement_matches_reference_at_chunk_seams(n_cells, seam):
    grid, cfl, cycles = Grid(n_cells, 1.0), 0.5, 10
    short = _omega_with_steps(64 * 12 + CHUNK_SEAMS[seam], grid, cycles, cfl)
    _assert_matches_oracle([1.0, short], make_params(), grid, cycles, cfl)


@pytest.mark.parametrize("omega", [5.0, 0.0])
@pytest.mark.parametrize("n_cells", [1, 2])
def test_single_run_stack_matches_reference(n_cells, omega):
    _assert_matches_oracle([omega], make_params(), Grid(n_cells, 1.0), 10, 0.5)


def test_stock_transient_has_flushed_on_a_fine_grid():
    # the stepped measurement's own 3 l transient suffices at n_cells = 200
    _assert_matches_oracle([1.0], make_params(), Grid(200, 1.0), 10, 0.5, transient_factor=3.0)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    h1=st.floats(0.0, 4.0),
    h2=st.floats(0.0, 4.0),
    n_cells=st.integers(1, 12),
    # the stepped oracle takes 1/cfl times more steps; below 0.05 it is too slow
    cfl=st.floats(0.05, 1.0),
    omega=st.one_of(st.just(0.0), st.floats(1.0, 12.0)),
)
def test_discrete_response_matches_stepped_oracle(h1, h2, n_cells, cfl, omega):
    _assert_matches_oracle([omega], make_params(h1=h1, h2=h2), Grid(n_cells, 1.0), 10, cfl)


def test_fit_decay_exact_exponential():
    t = np.linspace(0.0, 10.0, 401)
    report = fit_decay(t, np.exp(-0.5 * t))
    assert report.gamma_hat == pytest.approx(0.5, abs=1e-6)
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not report.floor_hit and not report.extinct


def test_fit_decay_constant_series():
    t = np.linspace(0.0, 5.0, 100)
    report = fit_decay(t, np.full_like(t, 2.0))
    assert report.gamma_hat == pytest.approx(0.0, abs=1e-12)
    assert report.r_squared == 1.0


def test_fit_decay_extinct_series():
    t = np.linspace(0.0, 5.0, 100)
    values = np.zeros_like(t)
    values[0] = 1.0
    report = fit_decay(t, values, window=(1.0, 5.0))
    assert report.extinct and report.floor_hit
    assert report.gamma_hat == math.inf
    assert math.isnan(report.r_squared)


def test_fit_decay_floor_excludes_tail():
    t = np.linspace(0.0, 10.0, 1001)
    values = np.exp(-10.0 * t) + 1e-16
    report = fit_decay(t, values)
    assert report.floor_hit and not report.extinct
    assert report.gamma_hat == pytest.approx(10.0, rel=1e-3)


def test_fit_decay_scale_and_shift_equivariance():
    rng = np.random.default_rng(31)
    t = np.linspace(0.0, 8.0, 300)
    values = np.exp(-0.7 * t) * np.exp(0.05 * rng.standard_normal(t.shape))
    base = fit_decay(t, values)
    scaled = fit_decay(t, 13.5 * values)
    assert scaled.gamma_hat == pytest.approx(base.gamma_hat, rel=1e-12)
    shifted = fit_decay(t + 4.0, values, window=(4.0, 12.0))
    assert shifted.gamma_hat == pytest.approx(base.gamma_hat, rel=1e-12)


def test_fit_decay_needs_enough_samples():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="at least 10"):
        fit_decay(t, np.exp(-t))


def test_fit_decay_refuses_a_window_without_samples():
    t = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match=r"window \(2\.0, 3\.0\) contains no samples"):
        fit_decay(t, np.exp(-t), window=(2.0, 3.0))


@pytest.mark.parametrize("norms, message", [
    ([1.0, 0.5], "t and norms must be 1-D arrays of equal length"),
    ([1.0, 0.5, math.nan], "series contains non-finite values"),
], ids=["shape", "nan"])
def test_fit_decay_refuses_a_malformed_series(norms, message):
    with pytest.raises(ValueError) as refused:
        fit_decay([0.0, 1.0, 2.0], norms)
    assert str(refused.value) == message


def _lstsq_fit(t, values, window, floor_rel=1e-13):
    """fit_decay's line as numpy's least-squares solver fits it: (gamma_hat, r_squared)."""
    sel = (t >= window[0] - 1e-12) & (t <= window[1] + 1e-12)
    tw, vw = t[sel], values[sel]
    keep = vw > (floor_rel * values[0] if values[0] > 0 else 0.0)
    if not keep.any():
        return math.inf, math.nan
    y = np.log(vw[keep])
    design = np.column_stack([tw[keep], np.ones(keep.sum())])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals, centered = y - design @ coef, y - y.mean()
    return -coef[0], 1.0 - np.dot(residuals, residuals) / np.dot(centered, centered)


def _shipped_series():
    """Every norm series the shipped configs fit, with its window: runs and sweep rows."""
    for name in ("theorem_run", "tau_sweep", "sano_baseline"):
        cfg = parse_config((ROOT / "configs" / f"{name}.ini").read_text())
        axes = cfg.sweep_axes
        for combo in itertools.product(*axes.values()) if axes else [()]:
            result = run_scenario(cfg.to_scenario(**dict(zip(axes, combo))))
            traj, summary = result.trajectory, result.summary
            yield traj.t, traj.plant_l2, summary.plant_decay
            if summary.obs_err_decay is not None:
                yield traj.t, traj.obs_err_l2, summary.obs_err_decay


def test_fit_decay_matches_least_squares_on_the_shipped_windows():
    # the closed-form regression on centred sums calls no BLAS; it must fit as lstsq did
    t = np.linspace(0.0, 10.0, 1001)
    floor = (t, np.exp(-10.0 * t) + 1e-16, None)
    extinct = (t, np.where(t < 1.0, 1.0, 0.0), (2.0, 10.0))
    cases = [(t, v, fit_decay(t, v, window=w)) for t, v, w in (floor, extinct)]
    seen = {"floor": 0, "extinct": 0}
    for t, values, fit in [*cases, *_shipped_series()]:
        gamma, r_squared = _lstsq_fit(t, values, fit.window)
        seen["floor"] += fit.floor_hit and not fit.extinct
        seen["extinct"] += fit.extinct
        if fit.extinct:
            assert gamma == fit.gamma_hat == math.inf and math.isnan(fit.r_squared)
            continue
        assert fit.gamma_hat == pytest.approx(gamma, rel=1e-12, abs=0)
        assert fit.r_squared == pytest.approx(r_squared, rel=1e-12, abs=0)
    assert seen["floor"] >= 7 and seen["extinct"] >= 4  # the sano rows hit the floor


@pytest.mark.parametrize("tau", [0.25, 0.5, 1.0])
def test_tau_at_most_l_decays_from_an_incompatible_initial_error(tau):
    # theorem_run's step in theta1 against a zero observer: the initial error breaks
    # the boundary coupling (residual1 = 1) and jumps once, yet the loop decays
    text = (ROOT / "configs" / "theorem_run.ini").read_text()
    scenario = parse_config(text, overrides={"params.tau": str(tau)}).scenario
    grid = Grid(scenario.n_cells, scenario.params.l)
    error = np.column_stack([profile_array(observer, grid) - profile_array(plant, grid)
                             for observer, plant in zip(scenario.observer0, scenario.theta0)])
    report = compatibility_check(error, scenario.params, grid)
    assert not report.compatible and report.residual1 == 1.0 and report.jump_count == 1
    summary = run_scenario(scenario).summary
    assert summary.plant_decay.gamma_hat > 0.5 and not summary.plant_decay.extinct
    assert summary.regime == "tau<=l"  # its line: tests/test_params.py
