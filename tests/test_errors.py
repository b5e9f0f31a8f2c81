"""The error rule: each setting is refused once, by its consumer, as a ConfigError naming it."""

import copy
import math
import pickle
import re
import warnings
from pathlib import Path

import pytest

from pfhx import (
    ConfigError,
    Grid,
    Params,
    Scenario,
    check_scenario,
    discrete_response,
    input_function,
    profile_array,
    run_scenario,
    sano_window,
)
from pfhx.cli import main

ROOT = Path(__file__).resolve().parents[1]
THEOREM = str(ROOT / "configs" / "theorem_run.ini")
FREQRESP = str(ROOT / "configs" / "freqresp.ini")

RUN_FLAGS = ["--h1", "--h2", "--l", "--tau", "--k1", "--k2", "--T", "--cfl",
             "--snapshot-stride", "--sano-k", "--n-cells", "--seed"]
# 1e308 and 1e-320 make step counts, snapshot marks and exchange weights overflow
VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-300", "-0.5", "2.5", "1e308", "1e-320"]
# name -> (the command line before the flag under test, the flags it takes)
COMMANDS = {
    "check": (["check", "-c", THEOREM], RUN_FLAGS),
    "run": (["run", "-c", THEOREM, "--n-cells", "10", "--T", "4"], RUN_FLAGS),
    "run_sano": (["run", "-c", THEOREM, "--n-cells", "10", "--T", "4",
                  "--controller", "sano_static", "--sano-k", "1"], RUN_FLAGS),
    "freqresp": (["freqresp", "-c", FREQRESP], RUN_FLAGS + ["--omega", "--cycles"]),
}


def _exits_cleanly(argv, out, capfd) -> tuple[int, str]:
    """Run the CLI; a refusal must be an exit code, never a traceback, and write nothing."""
    rc = main([*argv[:1], "-o", str(out), *argv[1:]])
    err = capfd.readouterr().err
    assert rc in (0, 2, 3), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    if rc == 2:
        assert not out.exists() or not any(out.iterdir()), (argv, err)
    return rc, err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in COMMANDS.items() for flag in flags])
def test_every_numeric_flag_value_exits_cleanly(tmp_path, capfd, command, flag):
    # the --flag=value form lets -inf reach the parser; the flag under test comes last, so it wins
    argv, _ = COMMANDS[command]
    for value in VALUES:
        _exits_cleanly([*argv, f"{flag}={value}"], tmp_path / value, capfd)


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("build, message", [
    (lambda grid: profile_array("1bad", grid), "cannot parse profile spec '1bad'"),
    (lambda grid: profile_array("sine(1, x)", grid), "non-numeric argument 'x' in 'sine(1, x)'"),
    (lambda grid: profile_array("sine(1)", grid), "'sine(1)' takes 2 argument(s), got 1"),
    (lambda grid: profile_array("gaussian(0.5, 0, 1)", grid),
     "gaussian width must be positive in 'gaussian(0.5, 0, 1)'"),
    (lambda grid: profile_array("random(1)", grid), "'random(1)' needs a seeded generator"),
    (lambda grid: input_function("step(0.5, 1, 0)"),
     "unknown input signal 'step' in 'step(0.5, 1, 0)'"),
], ids=["unparseable", "non-numeric", "count", "width", "generator", "signal"])
def test_a_profile_spec_is_refused_by_its_exact_message(build, message):
    with pytest.raises(ConfigError) as refused:
        build(Grid(10, 1.0))
    assert str(refused.value) == message


@pytest.mark.parametrize("build, key", [
    (lambda: Params(h1=1.0, h2=2.0, l=1.0, tau=0.0), "params.tau must be positive"),
    (lambda: Params(h1=1.0, h2=-2.0, l=1.0, tau=1.0), "params.h2 must be nonnegative"),
    (lambda: Params(h1=1.0, h2=2.0, l=1.0, tau=1.0, k1=math.inf), "params.k1 must be finite"),
    (lambda: Grid(0, 1.0), "grid.n_cells"),
    (lambda: Grid(2.5, 1.0), "grid.n_cells"),
    (lambda: Grid(math.nan, 1.0), "grid.n_cells"),
    (lambda: discrete_response([math.nan], Params(1.0, 2.0, 1.0, 1.0), Grid(10, 1.0)),
     "freqresp.omega"),
    (lambda: discrete_response([1.0], Params(1.0, 2.0, 1.0, 1.0), Grid(10, 1.0), cfl=2.0),
     "freqresp.cfl"),
], ids=["tau", "h2", "k1", "n_cells=0", "n_cells=2.5", "n_cells=nan", "omega", "cfl"])
def test_the_consumer_refuses_a_setting_by_its_key(build, key):
    with pytest.raises(ConfigError, match=key):
        build()


# Each way to make a checked record, from a valid one and the values wanted.  copy
# and pickle re-make a record from its values, so they start from an unchecked one.
_MAKERS = {
    "call": lambda valid, values: type(valid)(*values),
    "_make": lambda valid, values: type(valid)._make(values),
    "_replace": lambda valid, values: valid._replace(**dict(zip(valid._fields, values))),
    "copy": lambda valid, values: copy.copy(tuple.__new__(type(valid), values)),
    "deepcopy": lambda valid, values: copy.deepcopy(tuple.__new__(type(valid), values)),
    "pickle": lambda valid, values: pickle.loads(pickle.dumps(tuple.__new__(type(valid), values))),
}


@pytest.mark.parametrize("maker", _MAKERS)
@pytest.mark.parametrize("valid, bad, message", [
    (Params(1.0, 2.0, 1.0, 1.5, 0.5, 0.5), {"h1": -1.0}, "params.h1 must be nonnegative, got -1.0"),
    (Params(1.0, 2.0, 1.0, 1.5, 0.5, 0.5), {"tau": 0.0}, "params.tau must be positive, got 0.0"),
    (Params(1.0, 2.0, 1.0, 1.5, 0.5, 0.5), {"k2": math.nan}, "params.k2 must be finite, got nan"),
    (Grid(10, 1.0), {"n_cells": 0}, "grid.n_cells must be >= 1 and whole, got 0"),
    (Grid(10, 1.0), {"n_cells": 2.5}, "grid.n_cells must be >= 1 and whole, got 2.5"),
    (Grid(10, 1.0), {"l": -1.0}, "tube length l must be positive, got -1.0"),
], ids=["h1", "tau", "k2", "n_cells=0", "n_cells=2.5", "l"])
def test_every_way_to_make_a_record_refuses_what_its_constructor_refuses(valid, bad, message,
                                                                         maker):
    make = _MAKERS[maker]
    again = make(valid, tuple(valid))
    assert again == valid and type(again) is type(valid)
    values = tuple(bad.get(name, value) for name, value in zip(valid._fields, valid))
    with pytest.raises(ValueError) as direct:
        type(valid)(*values)
    with pytest.raises(ValueError) as refused:
        make(valid, values)
    assert type(refused.value) is type(direct.value)
    assert str(refused.value) == str(direct.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: Params(1.0), "Params.__new__() missing 3 required positional arguments: "
                          "'h2', 'l', and 'tau'"),
    (lambda: Params(1.0, 2.0, 1.0, 1.5, h9=0.5), "Params.__new__() got an unexpected keyword "
                                                 "argument 'h9'"),
    (lambda: Grid(), "Grid.__new__() missing 2 required positional arguments: 'n_cells' and 'l'"),
    (lambda: Grid(10, 1.0, 2.0), "Grid.__new__() takes 3 positional arguments but 4 were given"),
], ids=["params-missing", "params-unknown", "grid-missing", "grid-extra"])
def test_a_wrong_call_names_the_public_record(make, message):
    with pytest.raises(TypeError) as refused:
        make()
    assert str(refused.value) == message


def _scenario(**kwargs) -> Scenario:
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5)
    return Scenario(params=params, n_cells=10, T=4.0, **kwargs)


@pytest.mark.parametrize("setting, key", [
    ({"seed": -1}, "run.seed"),
    ({"controller": "sano_static", "sano_k": math.nan}, "run.sano_k"),
    ({"sano_k": math.inf}, "run.sano_k"),
])
def test_a_run_setting_numpy_or_the_window_would_trip_on_is_refused(setting, key):
    with pytest.raises(ConfigError, match=key):
        check_scenario(_scenario(**setting))


@pytest.mark.parametrize("field, spec", [
    ("theta0", ("zero",) * 3), ("theta0", ("zero", 0.0)), ("observer0", ("zero",)),
    ("observer0", "zero"), ("u_open", ("zero",)), ("u_open", "ab"), ("warmup_u", ("zero",)),
])
def test_specs_that_are_not_a_pair_are_refused_by_their_field(field, spec):
    # an argument's shape, so a plain ValueError; an initial field may be an array instead
    tail = " or a field array" if field.endswith("0") else ""
    for call in (check_scenario, run_scenario):
        with pytest.raises(ValueError) as refused:
            call(_scenario(**{field: spec}))
        assert type(refused.value) is ValueError
        assert str(refused.value) == (f"scenario.{field} must be a pair of spec strings{tail}, "
                                      f"got {spec!r}")


def test_a_sano_gain_that_squares_to_zero_has_an_open_window(tmp_path, capfd):
    report = sano_window(Params(h1=1.0, h2=2.0, l=1.0, tau=1.5), 1e-300)
    assert report.window_high == math.inf and report.gain_ok and report.in_window
    argv = ["run", "-c", THEOREM, "--n-cells", "20", "--T", "4", "--sano-k", "1e-300"]
    assert _exits_cleanly(argv, tmp_path, capfd)[0] == 0
    assert "static-feedback window for k=1e-300: (1, inf)" in (tmp_path / "summary.txt").read_text()


@pytest.mark.parametrize("key, spec, bad", [
    ("warmup_u1", "sine(1, inf)", "inf"), ("theta1", "constant(nan)", "nan"),
    ("observer2", "gaussian(0.5, 0.1, -inf)", "-inf")])
def test_a_non_finite_spec_argument_is_refused_by_name(tmp_path, capfd, key, spec, bad):
    config = tmp_path / "bad.ini"
    config.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {spec}", Path(THEOREM).read_text()))
    argv = ["run", "-c", str(config), "--n-cells", "10", "--T", "4"]
    rc, err = _exits_cleanly(argv, tmp_path / "out", capfd)
    assert rc == 2 and f"non-finite argument {bad!r} in {spec!r}" in err


def test_a_sine_input_whose_phase_overflows_is_nan():
    sine = input_function("sine(1.5, 1e308)")
    assert math.isnan(sine(2.0))
    for t in (0.0, 1e-3, 0.7, 1.0):  # a finite phase keeps its bits
        assert sine(t) == 1.5 * math.sin(1e308 * t)


def test_an_open_loop_input_that_overflows_is_a_numerical_failure(tmp_path, capfd):
    # dt = 0.1: the phase 1e308 * t is finite until t = 1.8
    config = tmp_path / "open.ini"
    config.write_text(Path(FREQRESP).read_text() + "\n[initial]\nu1 = sine(1, 1e308)\n")
    argv = ["run", "-c", str(config), "--n-cells", "10", "--T", "4"]
    rc, err = _exits_cleanly(argv, tmp_path / "out", capfd)
    assert rc == 3 and "first non-finite value at step 18 (t=1.8)" in err


def test_an_overflowing_initial_error_raises_no_numpy_warning():
    scenario = _scenario(theta0=("constant(1e308)", "zero"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not run_scenario(scenario).summary.finite


@pytest.mark.parametrize("command, code", [("run", 3), ("check", 0)])
def test_a_profile_that_overflows_raises_no_numpy_warning(tmp_path, capfd, command, code):
    # sin(1e308 pi x / l) is nan at every node: run fails at step 0, check evaluates it alike
    config = tmp_path / "sine.ini"
    config.write_text(re.sub(r"(?m)^theta1 = .*$", "theta1 = sine(1, 1e308)",
                             Path(THEOREM).read_text()))
    argv = [command, "-c", str(config), "--n-cells", "10", "--T", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = _exits_cleanly(argv, tmp_path / "out", capfd)
    assert rc == code
    assert err == ("numerical failure: first non-finite value at step 0 (t=0) in plant_l2\n"
                   if command == "run" else "")


@pytest.mark.parametrize("command", ["run", "check"])
def test_commands_that_make_runs_ignore_the_freqresp_section(tmp_path, capfd, command):
    config = tmp_path / "freq.ini"
    config.write_text(Path(THEOREM).read_text() + "\n[freqresp]\nomega = nan\ncfl = 7\n")
    argv = [command, "-c", str(config), "--n-cells", "10", "--T", "4"]
    assert _exits_cleanly(argv, tmp_path / "out", capfd)[0] == 0


@pytest.mark.parametrize("flag, key", [
    ("--tau=1e308", "params.tau"), ("--T=1e308", "run.T"), ("--l=1e-320", "params.l")])
def test_a_step_count_that_is_not_finite_is_refused_by_name(tmp_path, capfd, flag, key):
    argv = ["run", "-c", THEOREM, "--n-cells", "10", "--T", "4", flag]
    rc, err = _exits_cleanly(argv, tmp_path / "out", capfd)
    assert rc == 2 and key in err and "to count" in err


@pytest.mark.parametrize("flags, key, unit", [
    (["--l=5e-324"], "params.tau=1.5", "params.l / grid.n_cells"),
    (["--controller", "open_loop", "--solver", "upwind", "--cfl=5e-324"], "run.T=4",
     "params.l / grid.n_cells * run.cfl")])
def test_a_step_that_underflows_to_zero_is_refused_by_name(tmp_path, capfd, flags, key, unit):
    # l / n_cells, or cfl * dx, rounds to 0.0: nothing can be counted in its steps
    for command in ("run", "check"):
        argv = [command, "-c", THEOREM, "--n-cells", "10", "--T", "4", *flags]
        rc, err = _exits_cleanly(argv, tmp_path / "out", capfd)
        assert rc == 2 and err == (f"configuration error: {key} cannot be counted in steps of "
                                   f"dt = {unit}, which underflows to 0\n")


def test_a_stride_too_small_to_count_its_marks_snapshots_every_step(tmp_path, capfd):
    # T / stride overflows; a stride at or below the step keeps every step (docs/config.md)
    argv = ["run", "-c", THEOREM, "--n-cells", "10", "--T", "4", "--snapshot-stride=1e-320"]
    assert _exits_cleanly(argv, tmp_path, capfd)[0] == 0
    times = [line.split(",")[0] for line in (tmp_path / "snapshots.csv").read_text().splitlines()]
    assert len(set(times[1:])) == 41


@pytest.mark.parametrize("flag", ["--h1=1e308", "--h2=1e308", "--l=1e308"])
def test_freqresp_past_the_exponent_range_writes_its_table(tmp_path, capfd, flag):
    # the fast mode's weight e^{(h1 + h2) dt} overflows; a phase omega l that
    # overflows leaves the formula without a value, as a sine input's
    rc, _ = _exits_cleanly(["freqresp", "-c", FREQRESP, flag], tmp_path, capfd)
    rows = (tmp_path / "freqresp.csv").read_text().splitlines()[1:]
    assert rc == 0 and len(rows) == 3
    if flag != "--l=1e308":
        measured = [float(v) for row in rows for v in row.split(",")[3:17:4]]
        assert all(math.isfinite(v) for v in measured)
