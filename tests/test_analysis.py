import math
import tracemalloc

import numpy as np
import pytest

from pfhx import (
    Grid,
    Params,
    condition_report,
    coupling_matrix,
    fit_decay,
    measure_frequency_response,
    measure_frequency_responses,
    solve_exact,
    transfer_function,
    zero_field,
)
from pfhx.analysis import render_condition


def make_params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5):
    return Params(h1=h1, h2=h2, l=l, tau=tau, k1=k1, k2=k2)


def test_transfer_at_zero_frozen_values():
    g = transfer_function(0.0, make_params(h1=1.0, h2=1.0)).matrix
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
        g = transfer_function(0.0, params).matrix
        np.testing.assert_allclose(g.sum(axis=1).real, [1.0, 1.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(g.sum(axis=1).imag, [0.0, 0.0], rtol=0, atol=1e-12)


def test_transfer_high_frequency_rolloff():
    params = make_params()
    assert np.abs(transfer_function(40.0, params).matrix).max() <= 1e-15
    # entries scale like exp(-Re(s) l) for large positive real part
    for s in (10.0, 20.0, 40.0):
        bound = (params.h1 + params.h2 + 1.0) * math.exp(-s * params.l)
        peak = np.abs(transfer_function(s, params).matrix).max()
        assert peak <= bound
        assert peak >= math.exp(-s * params.l) / (params.h1 + params.h2 + 1.0)


def test_transfer_matches_steady_state_simulation():
    # constant input (1, 0) with the exact solver: exits converge to column 1
    params = make_params()
    grid = Grid(100, 1.0)
    traj = solve_exact(zero_field(grid), lambda t: np.array([1.0, 0.0]), 3.0, params, grid)
    g0 = transfer_function(0.0, params).matrix.real
    # outputs are cross-measured: y = (theta2, theta1) at the exit
    np.testing.assert_allclose(traj.exit_values[-1][::-1], g0[:, 0], rtol=0, atol=1e-12)


def test_measured_response_close_to_formula():
    params = make_params()
    grid = Grid(200, 1.0)
    formula = transfer_function(1j * 1.0, params).matrix
    measured = measure_frequency_response(1.0, params, grid)
    rel = np.linalg.norm(measured - formula) / np.linalg.norm(formula)
    assert rel < 0.02


def test_measured_response_error_halves_under_refinement():
    params = make_params()
    formula = transfer_function(1j * 1.0, params).matrix
    errs = {}
    for n in (200, 800):
        measured = measure_frequency_response(1.0, params, Grid(n, 1.0))
        errs[n] = np.linalg.norm(measured - formula)
    assert errs[800] <= 0.5 * errs[200]


def test_measured_dc_gain_from_steady_state():
    params = make_params()
    measured = measure_frequency_response(0.0, params, Grid(200, 1.0))
    g0 = transfer_function(0.0, params).matrix
    assert np.abs(measured - g0).max() < 1e-2


def test_measure_validation():
    params = make_params()
    grid = Grid(50, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        measure_frequency_response(-1.0, params, grid)
    with pytest.raises(ValueError, match="cycles"):
        measure_frequency_response(1.0, params, grid, cycles=3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measure_rejects_non_finite_omega(bad):
    with pytest.raises(ValueError, match="omega must be finite"):
        measure_frequency_responses([1.0, bad], make_params(), Grid(10, 1.0))


@pytest.mark.parametrize("tiny", [1e-320, 1e-12])
def test_measure_refuses_tiny_omega_before_allocating(tiny):
    # 1e-320 gives an infinite horizon; 1e-12 would need 35.7 PiB of exit buffers
    dt = 0.5 * 0.1
    horizon = (3.0 + 10 * 2 * math.pi / tiny) / dt
    steps = "inf" if math.isinf(horizon) else str(math.ceil(horizon))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"omega={tiny!r} needs .*\b{steps} steps"):
            measure_frequency_responses([1.0, tiny], make_params(), Grid(10, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# The measurement as it was first written: one upwind run per omega and
# drive channel, each stepping with its own allocating copy of the split
# upwind update and recording the exit node.  Kept as the reference the
# stacked measurement must reproduce bit for bit.
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


@pytest.mark.parametrize("h1", [0.0, 1.0])
@pytest.mark.parametrize("cycles", [10, 13])
@pytest.mark.parametrize("cfl", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("n_cells", [1, 7, 50])
def test_stacked_measurement_matches_per_run_reference(n_cells, cfl, cycles, h1):
    # unsorted, with a repeat and omega = 0; horizons differ, so runs leave the stack in turn
    omegas = [6.0, 0.0, 3.0, 6.0, 12.0]
    params = make_params(h1=h1)
    grid = Grid(n_cells, 1.0)
    measured = measure_frequency_responses(omegas, params, grid, cycles=cycles, cfl=cfl)
    assert len(measured) == len(omegas)
    for omega, gain in zip(omegas, measured):
        expected = _reference_measure(omega, params, grid, cycles, cfl)
        assert np.array_equal(gain, expected), omega
    assert measure_frequency_responses([], params, grid) == []


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


def test_condition_report_regimes():
    report = condition_report(make_params(tau=1.5))
    assert report.gains.theorem_valid and report.regime.startswith("tau>l")
    report = condition_report(make_params(tau=0.5))
    assert report.regime.startswith("tau<=l")
    report = condition_report(make_params(tau=1.5), k_sano=1.0)
    assert report.sano is not None
    assert (report.sano.window_low, report.sano.window_high) == (1.0, 2.0)
    assert report.sano.in_window
    text = render_condition(report)
    assert "theorem_valid = true" in text and "tau inside: true" in text
