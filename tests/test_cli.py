import dataclasses
import tracemalloc

import numpy as np
import pytest

from pfhx import Grid, Params, Scenario, run_scenario
from pfhx.cli import _sweep_line, _sweep_worker, _write_norms, _write_snapshots, main

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


def test_io_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, BASE)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert main(["run", "-c", cfg, "-o", str(blocker)]) == 4


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_omega_is_config_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path, BASE + "\n[freqresp]\nomega = 1.0\n")
    out = tmp_path / "out"
    assert main(["freqresp", "-c", cfg, "-o", str(out), f"--omega={value}"]) == 2
    err = capsys.readouterr().err
    assert "freqresp.omega" in err and "Traceback" not in err
    assert not (out / "freqresp.csv").exists()


@pytest.mark.parametrize("value", ["1e-320", "1e-12"])
def test_tiny_omega_is_config_error(tmp_path, capsys, value):
    # refused before the exit buffers are allocated (35.7 PiB at 1e-12)
    cfg = write_config(tmp_path, BASE + "\n[freqresp]\nomega = 1.0\n")
    out = tmp_path / "out"
    argv = ["freqresp", "-c", cfg, "-o", str(out), f"--omega={value}", "--n-cells", "10"]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "freqresp.omega" in err and f"omega={value}" in err and " steps " in err
    assert "Traceback" not in err
    assert not (out / "freqresp.csv").exists()
    assert peak < 2**20


def test_check_prints_condition_report(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["check", "-c", cfg, "--sano-k", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "theorem_valid = true" in out
    assert "tau inside: true" in out


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


def reference_sweep_line(index, row):
    return ",".join(
        [
            str(index),
            _reference_fmt(row["h1"]),
            _reference_fmt(row["h2"]),
            _reference_fmt(row["l"]),
            _reference_fmt(row["tau"]),
            _reference_fmt(row["k1"]),
            _reference_fmt(row["k2"]),
            str(row["n_cells"]),
            _reference_fmt(row["T"]),
            row["controller"],
            "" if row["sano_k"] is None else _reference_fmt(row["sano_k"]),
            "true" if row["theorem_valid"] else "false",
            "" if row["sano_in_window"] is None else ("true" if row["sano_in_window"] else "false"),
            _reference_fmt(row["gamma_hat"]),
            _reference_fmt(row["r_squared"]),
            "true" if row["floor_hit"] else "false",
            "true" if row["extinct"] else "false",
        ]
    )


SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]


def test_sweep_line_matches_per_value_reference():
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    base = Scenario(params=params, n_cells=20, T=4.0, theta0=("sine(1, 1)", "zero"))
    rows = [
        _sweep_worker((0, base))[1],
        _sweep_worker((1, dataclasses.replace(base, controller="sano_static", sano_k=0.8)))[1],
    ]
    special = dict(rows[0], gamma_hat=np.inf, r_squared=np.nan, h1=-0.0, k2=5e-324,
                   T=1.7976931348623157e308, sano_k=None, sano_in_window=None)
    assert rows[0]["sano_k"] is None and rows[1]["sano_in_window"] is not None
    for value in SPECIALS:
        rows.append(dict(special, tau=value, sano_k=value, sano_in_window=False, extinct=True))
    rows.append(special)
    for index, row in enumerate(rows):
        assert _sweep_line(index, row) == reference_sweep_line(index, row)
    assert _sweep_line(9, special).split(",")[10:16] == [
        "", "true", "", "inf", "nan", "false"]
    assert ",-0.0000000000000000e+00," in _sweep_line(9, special)


@pytest.mark.parametrize(
    "n_cells, T, stride",
    [
        (1, 6.0, 0.1),  # a single cell: two nodes, dt = 1
        (50, 6.0, 0.07),  # snapshot stride does not divide T
        (400, 11.0, 0.5),  # more norms rows than one write block
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
