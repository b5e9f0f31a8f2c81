import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from pfhx.coupling import coupling_matrix


def ode_oracle(h1: float, h2: float, s: float) -> np.ndarray:
    """Independent route to exp(A1 s): high-order integration of dv/ds = A1 v."""
    a1 = np.array([[-h1, h1], [h2, -h2]])
    cols = []
    for basis in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        sol = solve_ivp(
            lambda t, v: a1 @ v, (0.0, s), basis,
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        cols.append(sol.y[:, -1])
    return np.column_stack(cols)


def test_identity_at_zero():
    for h1, h2 in [(1.0, 1.0), (0.3, 2.7), (5.0, 0.0)]:
        assert np.array_equal(coupling_matrix(0.0, h1, h2), np.eye(2))


def test_half_life_value():
    # h1 = h2 = 1 and s = ln(2)/2 make the decaying mode exactly 1/2
    m = coupling_matrix(math.log(2.0) / 2.0, 1.0, 1.0)
    expected = np.array([[0.75, 0.25], [0.25, 0.75]])
    np.testing.assert_allclose(m, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m, ode_oracle(1.0, 1.0, math.log(2.0) / 2.0), rtol=0, atol=1e-10)


def test_long_time_limit():
    m = coupling_matrix(50.0, 1.0, 2.0)
    expected = np.array([[2.0 / 3.0, 1.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]])
    np.testing.assert_allclose(m, expected, rtol=0, atol=1e-14)


def test_zero_rates_give_identity():
    for s in (0.0, 0.7, 42.0):
        assert np.array_equal(coupling_matrix(s, 0.0, 0.0), np.eye(2))


def test_negative_time_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        coupling_matrix(-0.1, 1.0, 1.0)


def test_rows_sum_to_one_randomized():
    rng = np.random.default_rng(1)
    for _ in range(200):
        h1, h2 = rng.uniform(0.0, 5.0, size=2)
        s = rng.uniform(0.0, 10.0)
        m = coupling_matrix(s, h1, h2)
        np.testing.assert_allclose(m.sum(axis=1), [1.0, 1.0], rtol=0, atol=1e-14)


def test_entries_within_unit_interval_randomized():
    rng = np.random.default_rng(2)
    for _ in range(200):
        h1, h2 = rng.uniform(0.0, 5.0, size=2)
        s = rng.uniform(0.0, 10.0)
        m = coupling_matrix(s, h1, h2)
        assert np.all(m >= -1e-15) and np.all(m <= 1.0 + 1e-15)


def test_semigroup_property_randomized():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h1, h2 = rng.uniform(0.0, 3.0, size=2)
        s, t = rng.uniform(0.0, 10.0, size=2)
        lhs = coupling_matrix(s, h1, h2) @ coupling_matrix(t, h1, h2)
        rhs = coupling_matrix(s + t, h1, h2)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_weighted_sum_is_invariant():
    # h2*v1 + h1*v2 is conserved: (h2, h1) is a left eigenvector for eigenvalue 1
    rng = np.random.default_rng(4)
    for _ in range(100):
        h1, h2 = rng.uniform(0.0, 4.0, size=2)
        s = rng.uniform(0.0, 8.0)
        m = coupling_matrix(s, h1, h2)
        weights = np.array([h2, h1])
        np.testing.assert_allclose(weights @ m, weights, rtol=0, atol=1e-14)


def test_matches_ode_oracle_randomized():
    rng = np.random.default_rng(5)
    for _ in range(40):
        h1, h2 = rng.uniform(0.0, 3.0, size=2)
        s = rng.uniform(0.0, 5.0)
        np.testing.assert_allclose(
            coupling_matrix(s, h1, h2), ode_oracle(h1, h2, s), rtol=0, atol=1e-10
        )


def test_rates_whose_sum_overflows_still_mix():
    # h1 + h2 = inf: the weights come from h1/2 and h2/2, not from inf/inf or h/inf = 0
    assert np.array_equal(coupling_matrix(0.1, 1e308, 1e308), np.full((2, 2), 0.5))
    assert np.array_equal(coupling_matrix(0.0, 1e308, 1e308), np.eye(2))
    assert np.array_equal(coupling_matrix(0.1, 1.5 * 2.0**1023, 0.5 * 2.0**1023),
                          [[0.25, 0.75], [0.25, 0.75]])
    # a finite sum keeps its bits
    assert np.array_equal(coupling_matrix(0.1, 8e307, 8e307), np.full((2, 2), 0.5))


def test_fast_mode_of_rates_whose_sum_overflows():
    # h1 + h2 = inf, yet (h1 + h2) s = 0.02: E = e^-0.02, not 0, and A1 s is finite
    a1_s = np.array([[-1e308, 1e308], [1e308, -1e308]]) * 1e-310
    np.testing.assert_allclose(coupling_matrix(1e-310, 1e308, 1e308), expm(a1_s),
                               rtol=1e-14, atol=0)
