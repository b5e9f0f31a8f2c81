import math
from pathlib import Path

import numpy as np
import pytest

from pfhx import Params, Scenario, condition_report, run_scenario, sano_window, validate_gains
from pfhx.cli import main, render_condition
from pfhx.config import parse_config
from pfhx.params import _run_check

THEOREM = Path(__file__).resolve().parents[1] / "configs" / "theorem_run.ini"


def test_rejects_bad_values():
    with pytest.raises(ValueError, match="l must be positive"):
        Params(h1=1.0, h2=1.0, l=0.0, tau=1.0)
    with pytest.raises(ValueError, match="tau must be positive"):
        Params(h1=1.0, h2=1.0, l=1.0, tau=-0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        Params(h1=-1.0, h2=1.0, l=1.0, tau=1.0)
    with pytest.raises(ValueError, match="finite"):
        Params(h1=1.0, h2=float("nan"), l=1.0, tau=1.0)


def test_zero_rates_accepted_by_numerics():
    params = Params(h1=0.0, h2=0.0, l=1.0, tau=1.0)
    report = validate_gains(params)
    assert not report.applicable and not report.theorem_valid


def test_valid_gain_example():
    report = validate_gains(Params(h1=1.0, h2=2.0, l=1.0, tau=1.0, k1=0.5, k2=1.0))
    # k1^2 = 0.25 < 0.5 and k2^2 = 1.0 < 2.0
    assert report.theorem_valid and report.k1_ok and report.k2_ok
    assert report.k1_upper == pytest.approx(math.sqrt(0.5))
    assert report.k2_upper == pytest.approx(math.sqrt(2.0))


def test_invalid_gain_example():
    report = validate_gains(Params(h1=1.0, h2=2.0, l=1.0, tau=1.0, k1=1.0, k2=0.5))
    assert not report.theorem_valid and not report.k1_ok and report.k2_ok
    assert report.k1_margin < 0


def test_zero_gain_fails_strict_positivity():
    report = validate_gains(Params(h1=1.0, h2=2.0, l=1.0, tau=1.0, k1=0.0, k2=0.5))
    assert not report.theorem_valid and not report.k1_ok and report.k1_margin > 0  # 0 < k1 fails


def test_gain_validity_monotone_toward_zero():
    # shrinking a valid positive gain never invalidates it
    rng = np.random.default_rng(6)
    for _ in range(200):
        h1, h2 = rng.uniform(0.1, 4.0, size=2)
        k1 = rng.uniform(1e-6, math.sqrt(h1 / h2) * 0.999)
        k2 = rng.uniform(1e-6, math.sqrt(h2 / h1) * 0.999)
        assert validate_gains(Params(h1=h1, h2=h2, l=1.0, tau=1.0, k1=k1, k2=k2)).theorem_valid
        shrunk = Params(h1=h1, h2=h2, l=1.0, tau=1.0, k1=k1 * rng.uniform(0.01, 1.0),
                        k2=k2 * rng.uniform(0.01, 1.0))
        assert validate_gains(shrunk).theorem_valid


def test_sano_window_example():
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5)
    report = sano_window(params, k=1.0)
    assert report.window_low == pytest.approx(1.0)
    assert report.window_high == pytest.approx(2.0)
    assert report.gain_ok and report.in_window


def test_sano_window_outside():
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=3.0)
    report = sano_window(params, k=1.0)
    assert not report.in_window


def test_sano_zero_gain_has_unbounded_window():
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5)
    report = sano_window(params, k=0.0)
    assert report.window_high == math.inf


def test_sano_not_applicable_without_exchange():
    report = sano_window(Params(h1=0.0, h2=2.0, l=1.0, tau=1.5), k=1.0)
    assert not report.applicable


def test_condition_report_regimes():
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5)
    run = _run_check(Scenario(params, n_cells=10, T=4.0))
    report = condition_report(params)
    assert report.gains.theorem_valid and run.regime == "tau>l"
    assert _run_check(Scenario(params._replace(tau=0.5), n_cells=10, T=4.0)).regime == "tau<=l"
    report = condition_report(params, k_sano=1.0)
    assert report.sano is not None
    assert (report.sano.window_low, report.sano.window_high) == (1.0, 2.0)
    assert report.sano.in_window
    text = render_condition(report, params, run)
    assert "theorem_valid = true" in text and "tau inside: true" in text


# tau at l - dt/3, l, l + dt/3 and l + dt: it snaps to n_cells steps but at l + dt, to one more
@pytest.mark.parametrize("thirds", [-1, 0, 1, 3])
@pytest.mark.parametrize("l, n_cells", [(1.0, 10), (0.7, 35)])
def test_the_reported_regime_is_the_runs(tmp_path, capsys, l, n_cells, thirds):
    tau = l + thirds * (l / n_cells) / 3
    overrides = {"params.l": repr(l), "grid.n_cells": str(n_cells), "params.tau": repr(tau),
                 "run.T": "3"}
    flags = [part for key, value in overrides.items()
             for part in ("--" + key.split(".")[1].replace("_", "-"), value)]
    scenario = parse_config(THEOREM.read_text(), overrides=overrides).scenario
    m = n_cells + (thirds == 3)
    regime = "tau>l" if m > n_cells else "tau<=l"
    needs = ("exact delay compensation, any initial value" if regime == "tau>l"
             else "compensation up to the observer error at the exit, any initial value")
    line = f"  delay regime: {regime} ({needs}) (tau={m * (l / n_cells):g}, l={l:g})"
    assert main(["check", "-c", str(THEOREM), *flags]) == 0
    assert line in capsys.readouterr().out.splitlines()
    assert main(["run", "-c", str(THEOREM), "-o", str(tmp_path), *flags]) == 0
    assert line in (tmp_path / "summary.txt").read_text().splitlines()
    result = run_scenario(scenario)
    assert _run_check(scenario).m == m and result.summary.regime == regime
    assert (not result.trajectory.pred_err_at_l.any()) == (regime == "tau>l")
