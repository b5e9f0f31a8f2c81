"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failure) and asserts the criterion at its stated
tolerance.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import field_from, random_field
from oracle import predict_by_resolve, step_exact
from pfhx import (
    Grid,
    Params,
    Scenario,
    compatibility_check,
    discrete_response,
    fit_decay,
    l2_norm,
    predict,
    run_scenario,
    solve_exact,
    solve_upwind,
    transfer_function,
)
from pfhx.cli import main
from pfhx.coupling import coupling_matrix

STEP_DATA = ("step(0.5, 1.0, 0.0)", "zero")


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def base_params(tau: float) -> Params:
    return Params(h1=1.0, h2=2.0, l=1.0, tau=tau, k1=0.5, k2=0.5)


def test_c01_exact_compensation_tau_gt_l():
    sc = Scenario(params=base_params(1.5), n_cells=200, T=25.0, theta0=STEP_DATA)
    result = run_scenario(sc)
    traj = result.trajectory
    mask = traj.t > 1.5
    worst_pred = float(np.abs(traj.pred_err_at_l[mask]).max())
    pred_ok = worst_pred <= 1e-12

    fit = fit_decay(traj.t, traj.plant_l2, window=(1.5 + 2.0, 20.0))
    window_mask = (traj.t >= 3.5) & (traj.t <= 20.0)
    # with zero input on [0, tau] and tau > l the plant flushes to exactly
    # zero before control starts: extinction, i.e. faster than exponential
    extinct_and_zero = fit.extinct and float(traj.plant_l2[window_mask].max()) == 0.0
    decay_ok = extinct_and_zero or (fit.gamma_hat > 0 and fit.r_squared >= 0.98)
    report(
        "C01 exact compensation (tau>l)",
        pred_ok and decay_ok,
        f"max|pred err at l|={worst_pred:.2e}, "
        + ("finite-time extinction" if extinct_and_zero
           else f"gamma={fit.gamma_hat:.3f}, r2={fit.r_squared:.4f}"),
    )


def test_c02_small_delay_regime_with_compatible_error():
    params = base_params(0.5)
    grid = Grid(200, 1.0)
    w = field_from(grid, lambda x: np.sin(np.pi * x), lambda x: np.sin(np.pi * x))
    compat = compatibility_check(w, params, grid)
    theta0 = field_from(grid, lambda x: np.where(x < 0.5, 1.0, 0.0), 0.0)
    sc = Scenario(params=params, n_cells=200, T=25.0, theta0=theta0, observer0=theta0 + w)
    result = run_scenario(sc)
    fit = fit_decay(result.trajectory.t, result.trajectory.plant_l2, window=(0.5 + 2.0, 20.0))
    ok = compat.compatible and fit.gamma_hat > 0 and fit.r_squared >= 0.98
    report(
        "C02 tau<=l regime",
        ok,
        f"compatible={compat.compatible}, gamma={fit.gamma_hat:.3f}, r2={fit.r_squared:.4f}",
    )


def test_c03_error_system_decay_and_flush():
    sc = Scenario(params=base_params(1.5), n_cells=200, T=20.0, controller="error_system",
                  observer0=("sine(1, 1)", "sine(1, 1)"))
    result = run_scenario(sc)
    fit = fit_decay(result.trajectory.t, result.trajectory.plant_l2, window=(2.0, 20.0))
    decay_ok = fit.gamma_hat > 0 and fit.r_squared >= 0.98

    zero_gain = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.0, k2=0.0)
    sc0 = Scenario(params=zero_gain, n_cells=200, T=5.0, controller="error_system",
                   observer0=("sine(1, 1)", "sine(1, 1)"))
    res0 = run_scenario(sc0)
    late = res0.trajectory.plant_l2[res0.trajectory.t >= 1.0]
    flush_ok = float(late.max()) <= 1e-14
    report(
        "C03 error-system decay / zero-gain flush",
        decay_ok and flush_ok,
        f"gamma={fit.gamma_hat:.3f}, r2={fit.r_squared:.4f}, max after flush={late.max():.1e}",
    )


def test_c04_decoupling_oracle():
    sc = Scenario(params=base_params(0.5), n_cells=200, T=20.0, theta0=STEP_DATA,
                  observer0=("sine(1, 1)", "sine(1, 2)"))
    closed = run_scenario(sc)
    sc_err = Scenario(params=sc.params, n_cells=200, T=20.0, controller="error_system",
                      theta0=STEP_DATA, observer0=("sine(1, 1)", "sine(1, 2)"))
    standalone = run_scenario(sc_err)
    m = round(0.5 / closed.trajectory.dt)
    closed_series = closed.trajectory.obs_err_l2[m:]
    reference = standalone.trajectory.plant_l2[: len(closed_series)]
    worst = float(np.abs(closed_series - reference).max())
    report("C04 decoupling oracle", worst <= 1e-10, f"sup diff={worst:.2e}")


def test_c05_predictor_closed_form_vs_brute_force():
    rng = np.random.default_rng(42)
    grid = Grid(100, 1.0)
    worst = 0.0
    cases = 0
    for tau in (0.2, 0.4, 0.9, 1.3):
        params = base_params(tau)
        m = round(tau / grid.dt)
        for _ in range(25):
            obs_field = random_field(grid, rng)
            n_hist = m + rng.integers(2, 30)
            inputs = rng.standard_normal((n_hist + 1, 2))
            t_now = n_hist * grid.dt
            fast = predict(obs_field, inputs, t_now, params, grid)
            slow = predict_by_resolve(obs_field, inputs, t_now, params, grid)
            worst = max(worst, float(np.abs(fast - slow).max()))
            cases += 1
    report("C05 predictor vs brute force", cases == 100 and worst <= 1e-12,
           f"{cases} cases, sup diff={worst:.2e}")


def test_c06_coupling_exponential_oracle():
    rng = np.random.default_rng(43)
    worst_ode = worst_rows = worst_semi = 0.0
    samples = [(0.0, 0.0, 1.0)] + [
        (rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 5.0))
        for _ in range(60)
    ]
    for h1, h2, s in samples:
        m = coupling_matrix(s, h1, h2)
        a1 = np.array([[-h1, h1], [h2, -h2]])
        cols = []
        for basis in np.eye(2):
            sol = solve_ivp(lambda t, v: a1 @ v, (0.0, s), basis,
                            method="DOP853", rtol=1e-12, atol=1e-14)
            cols.append(sol.y[:, -1])
        worst_ode = max(worst_ode, float(np.abs(m - np.column_stack(cols)).max()))
        worst_rows = max(worst_rows, float(np.abs(m.sum(axis=1) - 1.0).max()))
        t_other = rng.uniform(0.0, 5.0)
        semi = coupling_matrix(s, h1, h2) @ coupling_matrix(t_other, h1, h2)
        worst_semi = max(worst_semi, float(np.abs(semi - coupling_matrix(s + t_other, h1, h2)).max()))
    ok = worst_ode <= 1e-10 and worst_rows <= 1e-14 and worst_semi <= 1e-12
    report("C06 coupling matrix exponential", ok,
           f"ode={worst_ode:.2e}, rows={worst_rows:.2e}, semigroup={worst_semi:.2e}")


def test_c07_solver_cross_validation():
    params = base_params(1.5)
    grid = Grid(200, 1.0)
    rng = np.random.default_rng(44)
    theta0 = random_field(grid, rng)
    u = lambda t: np.array([np.sin(t), 0.3 * np.cos(2.0 * t)])
    exact = solve_exact(theta0, u, 20.0, params, grid)
    upwind = solve_upwind(theta0, u, 20.0, params, grid, cfl=1.0)
    cfl1_diff = float(np.abs(upwind.exit_values - exact.exit_values).max())

    errors = []
    for n in (100, 200, 400):
        g = Grid(n, 1.0)
        smooth = field_from(g, lambda x: np.sin(np.pi * x) ** 2,
                            lambda x: 0.5 * np.sin(np.pi * x) ** 2)
        ref = solve_exact(smooth, None, 0.5, params, g)
        approx = solve_upwind(smooth, None, 0.5, params, g, cfl=0.5)
        errors.append(l2_norm(approx.snapshots[-1] - ref.snapshots[-1], g))
    rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    ok = cfl1_diff <= 1e-10 and np.all(np.abs(rates - 1.0) <= 0.2)
    report("C07 solver cross-validation", ok,
           f"cfl=1 diff={cfl1_diff:.2e}, rates={np.round(rates, 3)}")


def test_c08_transfer_function_vs_measurement():
    params = base_params(1.5)
    grid = Grid(400, 1.0)
    omegas = (0.5, 1.0, 2.0)
    worst_rel = 0.0
    for omega, measured in zip(omegas, discrete_response(omegas, params, grid)):
        formula = transfer_function(1j * omega, params).matrix
        worst_rel = max(worst_rel, float(np.linalg.norm(measured - formula)
                                         / np.linalg.norm(formula)))
    rng = np.random.default_rng(45)
    worst_rows = 0.0
    for _ in range(30):
        p = Params(h1=rng.uniform(0.05, 4.0), h2=rng.uniform(0.05, 4.0),
                   l=rng.uniform(0.2, 3.0), tau=1.0)
        rows = transfer_function(0.0, p).matrix.sum(axis=1)
        worst_rows = max(worst_rows, float(np.abs(rows - 1.0).max()))
    rolloff = float(np.abs(transfer_function(40.0, params).matrix).max())
    ok = worst_rel < 0.02 and worst_rows <= 1e-12 and rolloff <= 1e-15
    report("C08 transfer function", ok,
           f"rel err={worst_rel:.4f}, G(0) rows={worst_rows:.2e}, |G(40)|={rolloff:.2e}")


def test_c09_sano_baseline_window():
    inside = Scenario(params=base_params(1.5), n_cells=200, T=40.0,
                      controller="sano_static", sano_k=1.0, theta0=STEP_DATA)
    res_in = run_scenario(inside)
    in_ok = (res_in.summary.sano.in_window
             and res_in.summary.plant_decay.gamma_hat > 0)

    outside = Scenario(params=base_params(3.0), n_cells=200, T=40.0,
                       controller="sano_static", sano_k=1.0, theta0=STEP_DATA)
    res_out = run_scenario(outside)
    # outside the window stability is an open question: report only
    out_ok = (not res_out.summary.sano.in_window) and res_out.summary.finite
    report("C09 static-feedback baseline", in_ok and out_ok,
           f"inside: gamma={res_in.summary.plant_decay.gamma_hat:.3f}; "
           f"outside: gamma={res_out.summary.plant_decay.gamma_hat:.3f} (report only)")


def test_c10_arbitrary_delay_headline_sweep(tmp_path):
    config = """\
[params]
h1 = 1.0
h2 = 2.0
l = 1.0
tau = 1.5
k1 = 0.5
k2 = 0.5

[grid]
n_cells = 200

[run]
T = 25.0
controller = observer_predictor

[initial]
theta1 = step(0.5, 1.0, 0.0)

[sweep]
tau = 0.25, 0.5, 1.0, 1.5, 2.0, 3.0
"""
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    rc = main(["sweep", "-c", str(cfg), "-o", str(out)])
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    gamma_col = header.index("gamma_hat")
    valid_col = header.index("theorem_valid")
    tau_col = header.index("tau")
    gammas = {}
    all_valid = True
    for line in lines[1:]:
        cells = line.split(",")
        gammas[float(cells[tau_col])] = float(cells[gamma_col])
        all_valid &= cells[valid_col] == "true"
    ok = (
        rc == 0
        and len(gammas) == 6
        and all(g > 0 for g in gammas.values())
        and all_valid
    )
    detail = ", ".join(f"tau={k:g}: {v:.3g}" for k, v in sorted(gammas.items()))
    report("C10 arbitrary-delay sweep", ok, detail)


def test_c11_conservation_and_hull_bounds():
    params = Params(h1=0.8, h2=1.9, l=1.0, tau=0.5)
    grid = Grid(100, 1.0)
    rng = np.random.default_rng(46)
    theta0 = rng.uniform(-1.0, 1.0, size=(grid.n_cells + 1, 2))
    fields = [theta0]
    u = lambda t: np.array([np.sin(t), np.cos(3.0 * t)])
    for j in range(80):
        fields.append(step_exact(fields[-1], j * grid.dt, u, params, grid))
    weights = np.array([params.h2, params.h1])
    worst_cons = 0.0
    for start_node in range(0, 80, 9):
        for start_step in range(0, 40, 7):
            length = min(grid.n_cells - start_node, 80 - start_step)
            values = [weights @ fields[start_step + q][start_node + q]
                      for q in range(length + 1)]
            worst_cons = max(worst_cons, float(np.ptp(values)))

    hull_ok = True
    field = theta0
    for j in range(1, grid.n_cells + 1):
        field = step_exact(field, (j - 1) * grid.dt, None, params, grid)
        for i in range(j, grid.n_cells + 1):
            foot = theta0[i - j]
            if not (np.all(field[i] >= foot.min() - 1e-12)
                    and np.all(field[i] <= foot.max() + 1e-12)):
                hull_ok = False
    report("C11 conservation and hull bounds", worst_cons <= 1e-12 and hull_ok,
           f"conservation drift={worst_cons:.2e}, hull={hull_ok}")


def test_c12_byte_identical_reruns(tmp_path):
    config = """\
[params]
h1 = 1.0
h2 = 2.0
l = 1.0
tau = 1.5
k1 = 0.5
k2 = 0.5

[grid]
n_cells = 100

[run]
T = 8.0
controller = observer_predictor
seed = 7

[initial]
theta1 = random(1.0)
theta2 = gaussian(0.3, 0.1, 1.0)
"""
    cfg = tmp_path / "det.ini"
    cfg.write_text(config)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = main(["run", "-c", str(cfg), "-o", str(out1)])
    rc2 = main(["run", "-c", str(cfg), "-o", str(out2)])
    same_norms = (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()
    same_snaps = (out1 / "snapshots.csv").read_bytes() == (out2 / "snapshots.csv").read_bytes()
    report("C12 deterministic CSV output", rc1 == 0 and rc2 == 0 and same_norms and same_snaps,
           f"norms identical={same_norms}, snapshots identical={same_snaps}")
