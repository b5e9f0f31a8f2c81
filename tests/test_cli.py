import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from pfhx import (
    ConfigError,
    Grid,
    Params,
    Scenario,
    discrete_response,
    loop,
    run_scenario,
    transfer_function,
)
from pfhx import cli, e16, solver
from pfhx.config import parse_config
from pfhx.loop import check_scenario
from pfhx.solver import bytes_needed
from pfhx.cli import _sweep_line, _sweep_worker, _write_norms, _write_snapshots, main

ROOT = Path(__file__).resolve().parents[1]

BASE = """\
[params]
h1 = 1.0
h2 = 2.0
l = 1.0
tau = 1.5
k1 = 0.5
k2 = 0.5

[grid]
n_cells = 50

[run]
T = 6.0
controller = observer_predictor
seed = 3

[initial]
theta1 = step(0.5, 1.0, 0.0)
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, lines[1:]


def test_run_writes_expected_files(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", "-c", cfg, "-o", str(out)]) == 0
    header, rows = read_csv(out / "norms.csv")
    assert header == ["t", "plant_l2", "obs_err_l2", "pred_err1_at_l", "pred_err2_at_l",
                      "u1", "u2", "theta1_at_l", "theta2_at_l"]
    assert len(rows) == 6 * 50 + 1
    header, srows = read_csv(out / "snapshots.csv")
    assert header == ["t", "x", "theta1", "theta2"]
    assert len(srows) % 51 == 0
    summary = (out / "summary.txt").read_text()
    assert "condition report" in summary and "plant decay" in summary


def test_zero_open_loop_all_zero_norms(tmp_path):
    text = BASE.replace("controller = observer_predictor", "controller = open_loop")
    text = text.replace("theta1 = step(0.5, 1.0, 0.0)", "theta1 = zero")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "-c", cfg, "-o", str(out)]) == 0
    _, rows = read_csv(out / "norms.csv")
    for row in rows:
        values = [float(v) for v in row.split(",")]
        assert all(v == 0.0 for v in values[1:])


def test_run_is_byte_deterministic(tmp_path):
    text = BASE.replace("theta1 = step(0.5, 1.0, 0.0)", "theta1 = random(1.0)")
    cfg = write_config(tmp_path, text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "-c", cfg, "-o", str(out1)]) == 0
    assert main(["run", "-c", cfg, "-o", str(out2)]) == 0
    assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()
    assert (out1 / "snapshots.csv").read_bytes() == (out2 / "snapshots.csv").read_bytes()


def test_flag_overrides_file_value(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", "-c", cfg, "-o", str(out), "--tau", "0.4", "--T", "4.0"]) == 0
    summary = (out / "summary.txt").read_text()
    assert "tau: requested 0.4" in summary
    assert "T: requested 4, used 4" in summary


def test_flag_values_are_parsed_as_file_values(tmp_path, capsys):
    # an integer key takes 20.0 from a flag as from the file, and a bad
    # number is a configuration error naming the key, not an argparse error
    cfg = write_config(tmp_path, BASE)
    from_file = write_config(tmp_path, BASE.replace("n_cells = 50", "n_cells = 20.0"), "f.ini")
    reports = []
    for argv in (["-c", cfg, "--n-cells", "20.0", "--seed", "3.0"], ["-c", from_file],
                 ["-c", cfg, "--n-cells", "20"]):
        assert main(["check", *argv]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    assert main(["check", "-c", cfg, "--tau", "abc"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: non-numeric value 'abc' for key params.tau\n")
    assert main(["check", "-c", cfg, "--n-cells", "20.5"]) == 2
    assert "non-integer value '20.5' for key grid.n_cells" in capsys.readouterr().err


def test_config_error_exit_codes(tmp_path, capsys):
    missing = BASE.replace("tau = 1.5\n", "")
    cfg = write_config(tmp_path, missing)
    assert main(["run", "-c", cfg]) == 2
    assert "params.tau" in capsys.readouterr().err

    bad_controller = BASE.replace("controller = observer_predictor",
                                  "controller = sano_static")
    cfg = write_config(tmp_path, bad_controller, "sano.ini")
    assert main(["run", "-c", cfg]) == 2
    assert "sano_k" in capsys.readouterr().err

    assert main(["run", "-c", str(tmp_path / "absent.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_snap_warning_on_stderr(tmp_path, capsys):
    text = BASE.replace("tau = 1.5", "tau = 0.333")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "-c", cfg, "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "snapped" in err
    assert "snapped" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("controller", ["error_system", "open_loop"])
def test_T_below_half_a_step_is_config_error(tmp_path, capsys, controller):
    # T = 0.01 snaps to zero steps of dt = 0.1
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    argv = ["-c", cfg, "--controller", controller, "--T", "0.01", "--n-cells", "10"]
    assert main(["check", *argv]) == 2
    assert main(["run", *argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("run.T=0.01 must cover at least half a step (dt=0.1)") == 2
    assert not out.exists()
    # the library refuses it as well
    scenario = Scenario(params=Params(h1=1.0, h2=2.0, l=1.0, tau=1.5), n_cells=10, T=0.01,
                        controller=controller)
    with pytest.raises(ConfigError, match="run.T=0.01 must cover"):
        run_scenario(scenario)


@pytest.mark.parametrize("value", ["inf", "1e400"])
@pytest.mark.parametrize("key", ["grid.n_cells", "run.seed", "sweep.workers", "freqresp.cycles"])
def test_infinite_integer_value_is_config_error(tmp_path, capsys, key, value):
    section, name = key.split(".")
    in_base = {"grid": "n_cells = 50", "run": "seed = 3"}
    if section in in_base:
        text = BASE.replace(in_base[section], f"{name} = {value}")
    else:
        text = BASE + f"\n[{section}]\n{name} = {value}\n"
    cfg = write_config(tmp_path, text)
    assert main(["check", "-c", cfg]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_sweep_warns_once_per_snapped_tau(tmp_path, capsys):
    # dt = 0.02: 0.333 runs as 0.34 and 0.777 as 0.78, but the CSV keeps the requested values
    text = BASE + "\n[sweep]\ntau = 0.333, 0.5, 0.777\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "-c", cfg, "-o", str(out), "--workers", "1"]) == 0
    err = capsys.readouterr().err
    assert err.count("tau snapped") == 2
    assert "tau snapped from 0.333 to 0.34" in err
    assert "tau snapped from 0.777 to 0.78" in err
    _, rows = read_csv(out / "sweep.csv")
    assert [row.split(",")[4] for row in rows] == [format(v, ".16e") for v in (0.333, 0.5, 0.777)]


def test_numerical_failure_exit_code(tmp_path, capsys):
    # gains far beyond any stability condition overflow the error feedback
    text = BASE.replace("k1 = 0.5", "k1 = 1e8").replace("k2 = 0.5", "k2 = 1e8")
    text = text.replace("T = 6.0", "T = 80.0")
    text = text.replace("controller = observer_predictor", "controller = error_system")
    text += "\nobserver1 = sine(1, 1)\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = main(["run", "-c", cfg, "-o", str(out)])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


def test_numerical_failure_names_the_first_non_finite_step(tmp_path, capsys):
    text = BASE.replace("k1 = 0.5", "k1 = 1e150").replace("k2 = 0.5", "k2 = 1e150")
    cfg = write_config(tmp_path, text + "warmup_u1 = sine(1, 4)\n")
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["run", "-c", cfg, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    header, rows = read_csv(out / "norms.csv")
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    j = int(np.argmax(~np.isfinite(table).all(axis=1)))
    column = header[int(np.argmax(~np.isfinite(table[j])))]
    assert 0 < j < len(rows) - 1
    assert f"numerical failure: first non-finite value at step {j} (t={table[j, 0]:g}) in {column}" in err


def test_recording_beyond_physical_memory_is_config_error(tmp_path, capsys):
    # refused by arithmetic, before allocating: at T = 1e15 and n_cells = 10
    # the per-step columns alone would take 720 PB
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5)
    scenario = Scenario(params=params, n_cells=10, T=1e15)
    cfg = write_config(tmp_path, BASE)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"run\.T=1e\+15 at grid\.n_cells=10 and "
                                              r"run\.snapshot_stride=0\.1 needs .* GiB"):
            check_scenario(scenario)
        assert main(["check", "-c", cfg, "--T", "1e15", "--n-cells", "10"]) == 2
        assert main(["run", "-c", cfg, "-o", str(tmp_path / "out"), "--T", "1e15",
                     "--n-cells", "10"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.count("physical memory") == 2 and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert peak < 2**20


def test_runner_checks_recording_size_before_allocating(monkeypatch):
    # 101 nodes over 10,000 steps record about 3.2 MiB: more than 1 MiB of memory
    monkeypatch.setattr(solver, "_physical_memory", lambda: 2**20)
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    scenario = Scenario(params=params, n_cells=100, T=100.0)
    with pytest.raises(ConfigError, match="run.snapshot_stride") as refused:
        run_scenario(scenario)
    assert "physical memory" in str(refused.value)
    monkeypatch.setattr(solver, "_physical_memory", lambda: 2**22)
    assert run_scenario(scenario).summary.finite


def test_io_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, BASE)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert main(["run", "-c", cfg, "-o", str(blocker)]) == 4


@pytest.mark.parametrize("name", ["norms.csv", "snapshots.csv", "summary.txt"])
def test_unwritable_output_fails_before_the_run(tmp_path, capsys, monkeypatch, name):
    ran = []
    monkeypatch.setattr(loop, "_simulate", lambda *args: ran.append(args))
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main(["run", "-c", cfg, "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and str(out / name) in err
    assert ran == []


def _cli(*args):
    """``python -m pfhx.cli ARGS`` from the repository root, as a subprocess."""
    paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-m", "pfhx.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_runs_the_cli():
    done = _cli("check", "-c", "configs/theorem_run.ini")
    assert done.returncode == 0 and done.stderr == ""
    assert "theorem_valid = true" in done.stdout


def test_overflowing_run_prints_one_line(tmp_path):
    done = _cli("run", "-c", "configs/theorem_run.ini", "-o", str(tmp_path), "--n-cells", "20",
                "--T", "4", "--k1", "1e150", "--k2", "1e150")
    assert done.returncode == 3
    assert done.stderr == (
        "numerical failure: first non-finite value at step 51 (t=2.55) in plant_l2\n")


def test_rates_whose_sum_overflows_mix_and_decay_at_the_analytic_rate(tmp_path):
    # h1 = h2 = 1e308: h1 + h2 overflows, yet E(l) mixes to [[.5, .5], [.5, .5]],
    # so K E(l) has rho = k / 2 + k / 2 = 1/2 and gamma = -ln(rho) / l = ln 2
    args = ["run", "-c", "configs/theorem_run.ini", "--h1", "1e308", "--h2", "1e308",
            "--n-cells", "20"]
    done = _cli(*args, "-o", str(tmp_path / "short"), "--T", "4")
    assert done.returncode == 0
    summary = (tmp_path / "short" / "summary.txt").read_text()
    assert "extinct=false" in summary and "extinct=true" not in summary
    assert _cli(*args, "-o", str(tmp_path / "long"), "--T", "25").returncode == 0
    plant = (tmp_path / "long" / "summary.txt").read_text().split("plant decay: ")[1]
    gamma = float(plant.split("gamma_hat=")[1].split(",")[0])
    assert "extinct=false" in plant and abs(gamma - math.log(2.0)) < 1e-3


def test_run_where_the_sum_overflows_but_its_product_does_not(tmp_path):
    # h1 = h2 = 1e308 at l = 1e-310: (h1 + h2) l = 0.02, so one cell's exit is
    # M = exp(A1 l), not the full mix, applied to the origin it reads: node 0 of
    # the initial field at step 1, the inlet pair of step j - 1 after that
    text = BASE.replace("step(0.5, 1.0, 0.0)", "constant(1)\nu1 = constant(2)\nu2 = constant(-1)")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "-c", cfg, "-o", str(out), "--controller", "open_loop", "--n-cells", "1",
                 "--h1", "1e308", "--h2", "1e308", "--l", "1e-310", "--tau", "2e-310",
                 "--T", "4e-310"]) == 0
    rows = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1)
    u, exits = rows[:, 5:7], rows[:, 7:9]
    m = expm(np.array([[-1e308, 1e308], [1e308, -1e308]]) * 1e-310)
    origins = np.vstack([[1.0, 0.0], u[1:-1]])
    assert len(exits) == 5 and np.all(u[1:] == [2.0, -1.0])
    np.testing.assert_allclose(exits[1:], origins @ m.T, rtol=1e-14, atol=0)


def test_freqresp_at_rates_whose_sum_overflows_is_finite(tmp_path):
    # formula gains of |g_ij| = 1/2, measured gains and rel_err all finite
    done = _cli("freqresp", "-c", "configs/freqresp.ini", "--h1", "1e308", "--h2", "1e308",
                "--n-cells", "20", "-o", str(tmp_path))
    assert done.returncode == 0
    rows = np.loadtxt(tmp_path / "freqresp.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.all(np.isfinite(rows))
    formula = rows[:, 1:17].reshape(-1, 4, 2, 2)[:, :, 0]  # (re, im) of each g_ij's formula
    np.testing.assert_allclose(np.hypot(*np.moveaxis(formula, -1, 0)), 0.5, rtol=1e-15)


def test_overflowing_runner_raises_no_numpy_warning():
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=1e150, k2=1e150)
    scenario = Scenario(params=params, n_cells=20, T=4.0, warmup_u=("sine(1, 4)", "zero"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not run_scenario(scenario).summary.finite


# the upwind open loop still steps
UPWIND = ["--controller", "open_loop", "--solver", "upwind"]

WRITER_CASES = {
    "one cell": {"grid.n_cells": 1},
    "two cells": {"grid.n_cells": 2},
    "tau > l": {},
    "tau < l": {"params.tau": 0.5},
    "tau = l": {"params.tau": 1.0},
    "stride below dt": {"run.snapshot_stride": 1e-9},
    "open loop": {"run.controller": "open_loop"},
    "sano": {"run.controller": "sano_static", "run.sano_k": 1.5},
    "overflow": {"params.k1": 1e150, "params.k2": 1e150},
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_run_writes_what_the_writers_make_of_its_result(tmp_path, case):
    # the run's CSVs are the writers' bytes for the same scenario
    text = BASE + "warmup_u1 = sine(1, 4)\n"
    cfg = write_config(tmp_path, text)
    overrides = WRITER_CASES[case]
    flag = {key: flags[-1] for flags, key, *_ in cli._FLAGS}
    argv = [item for key, value in overrides.items() for item in (flag[key], str(value))]
    out = tmp_path / "out"
    assert main(["run", "-c", cfg, "-o", str(out), *argv]) == (3 if case == "overflow" else 0)
    scenario = parse_config(text, overrides=overrides).scenario
    result = run_scenario(scenario)
    _write_norms(tmp_path / "norms.csv", result)
    _write_snapshots(tmp_path / "snapshots.csv", result, Grid(scenario.n_cells, 1.0))
    for name in ("norms.csv", "snapshots.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_snapshot_writer_memory_is_bounded_by_its_chunks(tmp_path):
    # three snapshots of 40001 nodes, 240k values: the writer holds x's
    # records and a piece at a time; a block per whole snapshot peaks near 17 MB
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5)
    dx = 1.0 / 40000
    scenario = Scenario(params=params, n_cells=40000, T=2 * dx, snapshot_stride=dx,
                        controller="open_loop", theta0=("sine(1, 1)", "zero"))
    result = run_scenario(scenario)
    assert result.trajectory.snapshots.shape == (3, 40001, 2)
    tracemalloc.start()
    try:
        _write_snapshots(tmp_path / "snapshots.csv", result, Grid(40000, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "snapshots.csv").read_bytes().count(b"\n") == 1 + 3 * 40001
    assert peak < 6e6


@pytest.mark.parametrize("args", [["--snapshot-stride", "0.1"],
                                  UPWIND + ["--snapshot-stride", "1e-9", "--T", "60"]],
                         ids=["exact", "upwind"])
def test_failing_writer_is_an_io_error_and_leaves_no_process(tmp_path, capsys, monkeypatch, args):
    # snapshots.csv fails after norms.csv is written, and no process is left behind
    real = e16._csv

    def full_disk(*groups):  # snapshots.csv's groups span the nodes and fail; norms.csv's pass
        if groups[-1].shape[1] > 1:
            raise OSError(28, "No space left on device")
        return real(*groups)

    monkeypatch.setattr(e16, "_csv", full_disk)
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", "-c", cfg, "-o", str(out), *args]) == 4
    assert capsys.readouterr().err == "I/O error: [Errno 28] No space left on device\n"
    assert (out / "norms.csv").stat().st_size > 0
    assert (out / "summary.txt").stat().st_size == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_cartesian_order_and_content(tmp_path):
    text = BASE + "\n[sweep]\nk1 = 0.2, 0.4\ntau = 0.5, 1.5\nworkers = 1\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "-c", cfg, "-o", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header[0] == "index" and "gamma_hat" in header and "theorem_valid" in header
    assert len(rows) == 4
    k1_col, tau_col = header.index("k1"), header.index("tau")
    seen = [(float(r.split(",")[k1_col]), float(r.split(",")[tau_col])) for r in rows]
    assert seen == [(0.2, 0.5), (0.2, 1.5), (0.4, 0.5), (0.4, 1.5)]


def test_sweep_annotates_sano_window_membership(tmp_path):
    text = BASE.replace("controller = observer_predictor",
                        "controller = sano_static\nsano_k = 1.0")
    text += "\n[sweep]\ntau = 1.5, 3.0\nworkers = 1\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "-c", cfg, "-o", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    col = header.index("sano_in_window")
    assert [r.split(",")[col] for r in rows] == ["true", "false"]


def test_sweep_without_axes_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["sweep", "-c", cfg]) == 2
    assert "at least one" in capsys.readouterr().err


def test_sweep_parallel_matches_serial(tmp_path):
    text = BASE + "\n[sweep]\ntau = 0.5, 1.0, 1.5\n"
    cfg = write_config(tmp_path, text)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(["sweep", "-c", cfg, "-o", str(out1), "--workers", "1"]) == 0
    assert main(["sweep", "-c", cfg, "-o", str(out2), "--workers", "3"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_freqresp_writes_formula_and_measurement(tmp_path):
    text = BASE + "\n[freqresp]\nomega = 1.0\ncycles = 10\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["freqresp", "-c", cfg, "-o", str(out)]) == 0
    header, rows = read_csv(out / "freqresp.csv")
    assert "g11_formula_re" in header and "g22_measured_im" in header
    assert len(rows) == 1
    rel_err = float(rows[0].split(",")[header.index("rel_err")])
    assert rel_err < 0.05  # coarse grid (n=50), still close


@pytest.mark.parametrize("overrides", [
    {},
    {"grid.n_cells": "1", "freqresp.omega": "0, 1"},
    {"freqresp.cfl": "1.0", "freqresp.omega": "0, 3, 1e-12"},
    {"params.h1": "0", "params.h2": "0"},
    {"params.h1": "1e308", "params.h2": "1e308"},
    {"params.l": "1e308", "freqresp.omega": "0.5, 1, 2, 1e308"},
], ids=["shipped", "one-cell", "cfl-1", "no-exchange", "rates-overflow", "phases-overflow"])
def test_freqresp_rows_are_the_library_gains(tmp_path, overrides):
    # the CLI computes each omega in scalar arithmetic; every row must be the
    # public arrays' bits, with rel_err their Frobenius ratio
    path = ROOT / "configs" / "freqresp.ini"
    flag = {key: flags[-1] for flags, key, *_ in cli._FLAGS}
    argv = [f"{flag[key]}={value}" for key, value in overrides.items()]
    assert main(["freqresp", "-c", str(path), "-o", str(tmp_path), *argv]) == 0
    cfg = parse_config(path.read_text(), overrides=overrides)
    params, grid = cfg.scenario.params, Grid(cfg.scenario.n_cells, cfg.scenario.params.l)
    measured = discrete_response(cfg.freq_omegas, params, grid, cfl=cfg.freq_cfl)
    header, rows = read_csv(tmp_path / "freqresp.csv")
    assert len(rows) == len(cfg.freq_omegas) == len(measured)
    for row, omega, gain in zip(rows, cfg.freq_omegas, measured):
        formula = transfer_function(1j * omega, params)
        # in header order: for each g_ij, formula re, im, then measured re, im
        entries = np.stack([formula, gain], axis=-1).view(float).ravel().tolist()
        rel_err = (math.hypot(*(gain - formula).view(float).ravel().tolist())
                   / math.hypot(*formula.view(float).ravel().tolist()))
        assert row == ",".join("%.16e" % value for value in [omega, *entries, rel_err])


def test_cfl_flag_sets_the_freqresp_cfl(tmp_path, capsys):
    text = BASE + "\n[freqresp]\nomega = 1.0, 2.0\n"
    cfg = write_config(tmp_path, text)
    keyed = write_config(tmp_path, text + "cfl = 1.0\n", name="keyed.ini")
    runs = {"flag": (cfg, "--cfl", "1.0"), "key": (keyed,), "default": (cfg,)}
    written = {}
    for name, (path, *flag) in runs.items():
        out = tmp_path / name
        assert main(["freqresp", "-c", path, "-o", str(out), "--n-cells", "20", *flag]) == 0
        written[name] = (out / "freqresp.csv").read_bytes()
    assert written["flag"] == written["key"]
    assert written["flag"] != written["default"]
    capsys.readouterr()
    assert main(["freqresp", "-c", cfg, "-o", str(tmp_path / "bad"), "--cfl", "7"]) == 2
    assert "freqresp.cfl" in capsys.readouterr().err
    # elsewhere it sets run.cfl, the upwind open loop's step: T = 0.26 is 9 steps of 0.03
    upwind = ["--controller", "open_loop", "--solver", "upwind", "--T", "0.26", "--n-cells", "10"]
    assert main(["check", "-c", cfg, *upwind, "--cfl", "0.3"]) == 0
    assert "T snapped from 0.26 to 0.27" in capsys.readouterr().err


def test_freqresp_does_not_warn_of_the_run_snaps(tmp_path, capsys):
    # n_cells = 7 snaps the run's tau = 1.5, which freqresp does not use
    cfg = ROOT / "configs" / "freqresp.ini"
    assert check_scenario(parse_config(cfg.read_text(), overrides={"grid.n_cells": 7}).scenario)
    argv = ["freqresp", "-c", str(cfg), "-o", str(tmp_path), "--n-cells", "7", "--omega", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["tau_sweep.ini", "sano_baseline.ini"])
def test_sweep_rows_keep_no_snapshots_and_the_same_bytes(tmp_path, monkeypatch, name):
    cfg = ROOT / "configs" / name
    stride = parse_config(cfg.read_text()).scenario.snapshot_stride
    argv = ["sweep", "-c", str(cfg), "--n-cells", "20", "--workers", "1", "-o"]
    run = loop.run_scenario  # cli imports it from loop when a row runs
    kept = []

    def counting(scenario):
        result = run(scenario)
        kept.append((scenario.snapshot_stride, len(result.trajectory.snapshot_t)))
        return result

    monkeypatch.setattr(loop, "run_scenario", counting)
    assert main([*argv, str(tmp_path / "rows")]) == 0
    assert kept == [(math.inf, 1)] * 6
    monkeypatch.setattr(loop, "run_scenario",
                        lambda scenario: run(scenario._replace(snapshot_stride=stride)))
    assert main([*argv, str(tmp_path / "strided")]) == 0
    assert (tmp_path / "rows" / "sweep.csv").read_bytes() == (
        tmp_path / "strided" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_omega_is_config_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path, BASE + "\n[freqresp]\nomega = 1.0\n")
    out = tmp_path / "out"
    assert main(["freqresp", "-c", cfg, "-o", str(out), f"--omega={value}"]) == 2
    err = capsys.readouterr().err
    assert "freqresp.omega" in err and "Traceback" not in err
    assert not (out / "freqresp.csv").exists()


def _freqresp_gains(path):
    header, rows = read_csv(path)
    columns = [header.index(f"g{ij}_measured_{part}") for ij in ("11", "12", "21", "22")
               for part in ("re", "im")]
    return np.array([[float(row.split(",")[c]) for c in columns] for row in rows])


@pytest.mark.parametrize("value", ["1e-320", "1e-12"])
def test_tiny_omega_writes_the_dc_gain(tmp_path, capsys, value):
    # a stepped measurement needed 1e13 steps or more here, and was refused
    cfg = write_config(tmp_path, BASE + "\n[freqresp]\nomega = 1.0\n")
    out = tmp_path / "out"
    argv = ["freqresp", "-c", cfg, "-o", str(out), f"--omega=0,{value}", "--n-cells", "10"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == ""
    dc, tiny = _freqresp_gains(out / "freqresp.csv")
    assert np.all(np.isfinite(tiny))
    np.testing.assert_allclose(tiny, dc, rtol=0, atol=1e-12)
    assert peak < 2**20


def test_freqresp_cycles_is_deprecated(tmp_path, capsys):
    written = {}
    for name, extra in (("without", ""), ("with", "cycles = 13\n")):
        cfg = write_config(tmp_path, BASE + "\n[freqresp]\nomega = 0, 1.0\n" + extra, f"{name}.ini")
        assert main(["freqresp", "-c", cfg, "-o", str(tmp_path / name)]) == 0
        written[name] = (tmp_path / name / "freqresp.csv").read_bytes()
        assert capsys.readouterr().err.count("freqresp.cycles") == (1 if extra else 0)
    argv = ["freqresp", "-c", cfg, "-o", str(tmp_path / "flag"), "--cycles", "20"]
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        "warning: freqresp.cycles no longer affects the exact response and will be removed\n")
    assert written["with"] == written["without"] == (tmp_path / "flag" / "freqresp.csv").read_bytes()


def test_freqresp_ignores_the_initial_specs_that_run_refuses(tmp_path, capsys):
    # the [initial] profiles and inputs describe a run, which freqresp never makes
    text = (ROOT / "configs" / "freqresp.ini").read_text()
    plain = write_config(tmp_path, text, "plain.ini")
    vortex = write_config(tmp_path, text + "\n[initial]\ntheta1 = vortex(3)\n", "vortex.ini")
    for name, cfg in (("plain", plain), ("vortex", vortex)):
        assert main(["freqresp", "-c", cfg, "-o", str(tmp_path / name), "--n-cells", "20"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "vortex" / "freqresp.csv").read_bytes() == (
        tmp_path / "plain" / "freqresp.csv").read_bytes()
    # run checks the specs before it opens its outputs
    out = tmp_path / "run"
    out.mkdir()
    (out / "norms.csv").write_text("kept\n")
    assert main(["run", "-c", vortex, "-o", str(out), "--n-cells", "20", "--T", "4"]) == 2
    assert capsys.readouterr().err == "configuration error: unknown profile 'vortex' in 'vortex(3)'\n"
    assert (out / "norms.csv").read_text() == "kept\n"
    assert sorted(out.iterdir()) == [out / "norms.csv"]


@pytest.mark.parametrize("argv, checks", [
    (["run", "-c", "configs/theorem_run.ini"], 2),  # cmd_run's check, then the run's own
    (["sweep", "-c", "configs/tau_sweep.ini", "--workers", "1"], 12),  # the same for 6 rows
], ids=["run", "sweep"])
def test_each_run_is_checked_once_before_it_starts(tmp_path, monkeypatch, argv, checks):
    prepared = []
    prepare = loop._prepare

    def counting(*args, **kwargs):
        prepared.append(args[0])
        return prepare(*args, **kwargs)

    monkeypatch.setattr(loop, "_prepare", counting)
    monkeypatch.chdir(ROOT)
    assert main([*argv, "-o", str(tmp_path), "--n-cells", "20", "--T", "4"]) == 0
    assert len(prepared) == checks


def test_freqresp_makes_no_run_check(tmp_path, capsys):
    # the [run] keys would need 2.3 TB to record a run that freqresp never makes
    argv = ["freqresp", "-c", str(ROOT / "configs" / "freqresp.ini"), "-o", str(tmp_path),
            "--T", "1e9", "--n-cells", "10", "--omega", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert main(["check", *argv[1:3], "--T", "1e9", "--n-cells", "10"]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert main(argv[:5] + ["--n-cells", "0"]) == 2
    assert "grid.n_cells must be >= 1" in capsys.readouterr().err


def test_sweep_checks_its_rows_as_they_run(tmp_path, monkeypatch, capsys):
    # a row keeps no snapshots, so a memory that fits its recording but not
    # the base stride's snapshots still runs the sweep
    text = BASE.replace("seed = 3", "seed = 3\nsnapshot_stride = 1e-9") + "\n[sweep]\ntau = 1.5, 2.0\n"
    cfg = write_config(tmp_path, text)
    dt = 1.0 / 50
    row, base = (bytes_needed(51, 300, dt, stride, True) for stride in (math.inf, 1e-9))
    monkeypatch.setattr(solver, "_physical_memory", lambda: (row + base) / 2)
    argv = ["-c", cfg, "-o", str(tmp_path / "sweep"), "--workers", "1"]
    assert main(["sweep", *argv]) == 0
    _, rows = read_csv(tmp_path / "sweep" / "sweep.csv")
    assert len(rows) == 2
    assert main(["run", *argv[:2], "-o", str(tmp_path / "run")]) == 2
    assert "physical memory" in capsys.readouterr().err
    monkeypatch.setattr(solver, "_physical_memory", lambda: row / 2)
    assert main(["sweep", *argv]) == 2
    err = capsys.readouterr().err  # the rows' memory does not depend on tau
    assert err.startswith("configuration error: run.T=6 ") and "physical memory" in err


@pytest.mark.parametrize("flags, message", [
    (["--n-cells", "0"], "grid.n_cells must be >= 1 and whole, got 0"),
    (["--solver", "bogus"], "run.solver must be exact or upwind, got 'bogus'"),
    (["--T", "1"], "every swept tau must give a valid run; tau=1: run.T=1 must exceed the delay"),
    (["--T", "1", "--n-cells", "0"], "grid.n_cells must be >= 1 and whole, got 0"),
])
def test_sweep_row_errors_name_tau_only_when_tau_is_the_cause(tmp_path, capsys, flags, message):
    argv = ["sweep", "-c", str(ROOT / "configs" / "tau_sweep.ini"), "-o", str(tmp_path), *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {message}")
    assert not (tmp_path / "sweep.csv").exists()


def test_check_prints_condition_report(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["check", "-c", cfg, "--sano-k", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "theorem_valid = true" in out
    assert "tau inside: true" in out


def test_check_refuses_a_sweep_row_that_sweep_refuses(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "\n[sweep]\nh1 = 1.0, -1.0\n")
    for command in ("check", "sweep"):
        assert main([command, "-c", cfg, "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: params.h1 must be nonnegative, got -1.0\n")
    assert not (tmp_path / "out").exists()


def test_a_non_finite_sweep_row_exits_3_after_writing_sweep_csv(tmp_path, capsys):
    text = BASE.replace("n_cells = 50", "n_cells = 20") + "\n[sweep]\nk1 = 0.5, 1e150\nk2 = 1e150\n"
    out = tmp_path / "out"
    assert main(["sweep", "-c", write_config(tmp_path, text), "-o", str(out), "--workers", "1"]) == 3
    assert capsys.readouterr().err == "numerical failure: at least one sweep row is non-finite\n"
    _, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2


def test_delay_free_is_not_a_controller_a_scenario_names(tmp_path, capsys):
    message = ("unknown controller 'delay_free' (expected one of "
               "['error_system', 'observer_predictor', 'open_loop', 'sano_static'])")
    scenario = parse_config(BASE).scenario
    with pytest.raises(ConfigError) as refused:
        run_scenario(scenario._replace(controller="delay_free"))
    assert str(refused.value) == message
    argv = ["run", "-c", write_config(tmp_path, BASE), "-o", str(tmp_path / "out")]
    assert main([*argv, "--controller", "delay_free"]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


# Per-value writers as the CSV format was first defined: every number goes
# through format(x, '.16e') and every row through ",".join.  Kept here as
# the reference the batched writers must reproduce byte for byte.
def _reference_fmt(value):
    return format(float(value), ".16e")


def _reference_write(path, lines):
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def reference_write_norms(path, result):
    traj = result.trajectory
    lines = ["t,plant_l2,obs_err_l2,pred_err1_at_l,pred_err2_at_l,u1,u2,theta1_at_l,theta2_at_l"]
    for j in range(len(traj.t)):
        values = (traj.t[j], traj.plant_l2[j], traj.obs_err_l2[j],
                  traj.pred_err_at_l[j, 0], traj.pred_err_at_l[j, 1],
                  traj.u[j, 0], traj.u[j, 1], traj.exit_values[j, 0], traj.exit_values[j, 1])
        lines.append(",".join(_reference_fmt(v) for v in values))
    _reference_write(path, lines)


def reference_write_snapshots(path, result, grid):
    traj = result.trajectory
    lines = ["t,x,theta1,theta2"]
    for t, snap in zip(traj.snapshot_t, traj.snapshots):
        for i, x in enumerate(grid.nodes):
            lines.append(",".join(_reference_fmt(v) for v in (t, x, snap[i, 0], snap[i, 1])))
    _reference_write(path, lines)


def reference_sweep_line(index, scenario, summary):
    p, decay = scenario.params, summary.plant_decay
    sano = summary.condition.sano if scenario.controller == "sano_static" else None
    return ",".join(
        [
            str(index),
            *(_reference_fmt(value) for value in (p.h1, p.h2, p.l, p.tau, p.k1, p.k2)),
            str(scenario.n_cells),
            _reference_fmt(scenario.T),
            scenario.controller,
            "" if scenario.sano_k is None else _reference_fmt(scenario.sano_k),
            "true" if summary.condition.gains.theorem_valid else "false",
            "" if sano is None else ("true" if sano.in_window else "false"),
            _reference_fmt(decay.gamma_hat),
            _reference_fmt(decay.r_squared),
            "true" if decay.floor_hit else "false",
            "true" if decay.extinct else "false",
        ]
    )


SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]


def test_sweep_line_matches_per_value_reference():
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    base = Scenario(params=params, n_cells=20, T=4.0, theta0=("sine(1, 1)", "zero"))
    sano = base._replace(controller="sano_static", sano_k=0.8)
    rows = [(scenario, run_scenario(scenario).summary) for scenario in (base, sano)]
    for index, (scenario, summary) in enumerate(rows):
        assert _sweep_worker((index, scenario)) == (_sweep_line(index, scenario, summary), True)
    (_, summary), (_, sano_summary) = rows
    assert base.sano_k is None and sano_summary.condition.sano is not None
    decay = summary.plant_decay._replace(gamma_hat=np.inf, r_squared=np.nan)
    special = (
        base._replace(params=params._replace(h1=-0.0, k2=5e-324),
                      T=1.7976931348623157e308),
        summary._replace(plant_decay=decay),
    )
    extinct = sano_summary._replace(plant_decay=decay._replace(extinct=True))
    for value in SPECIALS:  # Params takes a finite positive tau only; Scenario checks nothing
        tau = value if 0 < value < np.inf else params.tau
        scenario = sano._replace(params=params._replace(tau=tau), T=value, sano_k=value)
        rows.append((scenario, extinct))
    rows.append(special)
    for index, (scenario, summary) in enumerate(rows):
        assert _sweep_line(index, scenario, summary) == reference_sweep_line(index, scenario,
                                                                             summary)
    assert _sweep_line(9, *special).split(",")[10:16] == [
        "", "true", "", "inf", "nan", "false"]
    assert ",-0.0000000000000000e+00," in _sweep_line(9, *special)


@pytest.mark.parametrize(
    "n_cells, T, stride",
    [
        (1, 6.0, 0.1),  # a single cell: two nodes, dt = 1
        (50, 6.0, 0.07),  # snapshot stride does not divide T
        (400, 11.0, 0.5),  # more norms rows than one write block
        (50, 6.0, 7.0),  # a stride beyond T: one snapshot, its t formatted once
    ],
)
def test_writers_match_per_value_reference(tmp_path, n_cells, T, stride):
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5)
    scenario = Scenario(params=params, n_cells=n_cells, T=T, snapshot_stride=stride,
                        theta0=("step(0.5, 1.0, 0.0)", "sine(1, 1)"),
                        observer0=("random(0.5)", "zero"), warmup_u=("sine(1, 4)", "zero"))
    result = run_scenario(scenario)
    traj = result.trajectory
    # every third value of every written array becomes a special double
    for array in (traj.t, traj.plant_l2, traj.obs_err_l2, traj.pred_err_at_l, traj.u,
                  traj.exit_values, traj.snapshot_t, traj.snapshots):
        flat = array.reshape(-1)
        flat[::3] = np.resize(SPECIALS, flat[::3].size)
    grid = Grid(n_cells, params.l)

    _write_norms(tmp_path / "norms.csv", result)
    reference_write_norms(tmp_path / "norms_ref.csv", result)
    assert (tmp_path / "norms.csv").read_bytes() == (tmp_path / "norms_ref.csv").read_bytes()

    _write_snapshots(tmp_path / "snapshots.csv", result, grid)
    reference_write_snapshots(tmp_path / "snapshots_ref.csv", result, grid)
    written = (tmp_path / "snapshots.csv").read_bytes()
    assert written == (tmp_path / "snapshots_ref.csv").read_bytes()
    for token in (b"nan", b"inf", b"-inf", b"-0.0000000000000000e+00", b"4.9406564584124654e-324"):
        assert token in written
