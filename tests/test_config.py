import configparser

import pytest

from pfhx import ConfigError, Params, Scenario
from pfhx.cli import main
from pfhx.config import parse_config
from pfhx.params import check_scenario

MINIMAL = """\
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
T = 10.0
controller = observer_predictor
"""


def test_minimal_config_gets_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.scenario.solver == "exact"
    assert cfg.scenario.cfl == 0.5
    assert cfg.scenario.snapshot_stride == 0.1
    assert cfg.scenario.seed == 0
    assert cfg.scenario.theta0 == ("zero", "zero") and cfg.scenario.observer0 == ("zero", "zero")
    assert cfg.out_dir == "out"
    assert cfg.sweep_axes == {}
    assert cfg.freq_omegas == [0.5, 1.0, 2.0]
    assert check_scenario(cfg.scenario) == []


def test_library_scenario_shares_config_defaults():
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5)
    library = Scenario(params=params, n_cells=100, T=10.0, controller="observer_predictor")
    assert parse_config(MINIMAL).scenario == library


def test_unknown_key_rejected_by_name():
    broken = MINIMAL.replace("h1 = 1.0", "h1 = 1.0\nhh1 = 3")
    with pytest.raises(ConfigError, match="params.hh1"):
        parse_config(broken)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"\[extras\]"):
        parse_config(MINIMAL + "\n[extras]\nfoo = 1\n")


def test_missing_required_key_named():
    broken = MINIMAL.replace("tau = 1.5\n", "")
    with pytest.raises(ConfigError, match="params.tau"):
        parse_config(broken)


def test_non_numeric_value_named():
    broken = MINIMAL.replace("tau = 1.5", "tau = fast")
    with pytest.raises(ConfigError, match="params.tau"):
        parse_config(broken)


def test_tau_snap_warning():
    snapped = MINIMAL.replace("tau = 1.5", "tau = 0.333")
    warnings = check_scenario(parse_config(snapped).scenario)
    assert any("snapped" in w and "0.33" in w for w in warnings)


def test_sano_requires_gain_key():
    broken = MINIMAL.replace("controller = observer_predictor", "controller = sano_static")
    with pytest.raises(ConfigError, match="run.sano_k"):
        check_scenario(parse_config(broken).scenario)
    ok = broken + "sano_k = 1.0\n"
    assert parse_config(ok).scenario.sano_k == 1.0


def test_T_must_exceed_tau_for_controlled_runs():
    broken = MINIMAL.replace("T = 10.0", "T = 1.0")
    cfg = parse_config(broken)  # the file is valid; the run it describes is not
    with pytest.raises(ConfigError, match="must exceed"):
        check_scenario(cfg.scenario)
    # an open-loop run with the same horizon is fine
    open_loop = broken.replace("controller = observer_predictor", "controller = open_loop")
    assert check_scenario(parse_config(open_loop).scenario) == []


def test_upwind_restricted_to_open_loop():
    broken = MINIMAL + "solver = upwind\n"
    with pytest.raises(ConfigError, match="open_loop"):
        check_scenario(parse_config(broken).scenario)


def test_unknown_controller_rejected():
    broken = MINIMAL.replace("controller = observer_predictor", "controller = magic")
    with pytest.raises(ConfigError, match="magic"):
        check_scenario(parse_config(broken).scenario)


def test_bad_profile_spec_rejected():
    broken = MINIMAL + "\n[initial]\ntheta1 = vortex(3)\n"
    with pytest.raises(ConfigError, match="vortex"):
        check_scenario(parse_config(broken).scenario)


def test_sweep_axes_keep_declaration_order():
    text = MINIMAL + "\n[sweep]\nk1 = 0.1, 0.2\ntau = 0.5, 1.5\n"
    cfg = parse_config(text)
    assert list(cfg.sweep_axes) == ["k1", "tau"]
    assert cfg.sweep_axes["tau"] == [0.5, 1.5]


def test_sweep_tau_values_validated_against_T(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(MINIMAL + "\n[sweep]\ntau = 0.5, 20.0\n")
    out = tmp_path / "out"
    for command in ("sweep", "check"):
        assert main([command, "-c", str(path), "-o", str(out)]) == 2
        assert "every swept tau must give a valid run; tau=20: " in capsys.readouterr().err
    assert not out.exists()


def test_overrides_beat_file_values():
    cfg = parse_config(MINIMAL, overrides={"params.tau": 0.5, "run.seed": 7})
    assert cfg.scenario.params.tau == 0.5 and cfg.scenario.seed == 7
    with pytest.raises(ConfigError, match="unknown override"):
        parse_config(MINIMAL, overrides={"params.bogus": 1})


def test_config_refusals_and_an_empty_axis():
    with pytest.raises(ConfigError) as refused:
        parse_config(MINIMAL + "\n[sweep]\nworkers = -1\n")
    assert str(refused.value) == "sweep.workers must be >= 0, got -1"
    unparsed = "h1 = 1.0\n" + MINIMAL  # a key before any section header
    with pytest.raises(configparser.Error) as cause:
        configparser.ConfigParser(interpolation=None).read_string(unparsed)
    with pytest.raises(ConfigError) as refused:
        parse_config(unparsed)
    assert "\n" in str(cause.value)  # configparser's message spans lines; the refusal is one
    assert str(refused.value) == f"cannot parse config: {' '.join(str(cause.value).split())}"
    assert parse_config(MINIMAL + "\n[sweep]\ntau =\nk1 = 0.5\n").sweep_axes == {"k1": [0.5]}


def test_scenario_assembly():
    cfg = parse_config(MINIMAL)
    scenario = cfg.to_scenario()
    assert scenario.controller == "observer_predictor"
    assert scenario.params.tau == 1.5
    swept = cfg.to_scenario(tau=0.5)
    assert swept.params.tau == 0.5
