import math

import numpy as np
import pytest

from pfhx import Params, sano_window, validate_gains


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
