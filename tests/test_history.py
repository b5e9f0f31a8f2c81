import numpy as np
import pytest

from pfhx.history import rows


def _ramp():
    return np.column_stack([np.arange(30.0), -np.arange(30.0)])  # u[j] = u(j * 0.01)


def test_exact_lookup_at_aligned_times():
    samples = _ramp()
    np.testing.assert_array_equal(rows(samples, 0, 1, 0.01, 0.17), [[17.0, -17.0]])
    np.testing.assert_array_equal(rows(samples, 0, 1, 0.01, 0.29), [[29.0, -29.0]])
    np.testing.assert_array_equal(rows(samples, 0, 1, 0.01), [[0.0, 0.0]])
    np.testing.assert_array_equal(rows(samples, 5, 20, 0.01), samples[5:25])
    rows(samples, 17, 1, 0.01)[0, 0] = 99.0  # a read hands out a copy
    assert samples[17, 0] == 17.0


def test_lookup_names_the_missing_time():
    samples = _ramp()
    with pytest.raises(ValueError, match=r"missing at t=-0\.01\b"):
        rows(samples, 0, 1, 0.01, -0.01)  # no wrap to the last sample
    with pytest.raises(ValueError, match=r"missing at t=0\.3\b"):
        rows(samples, 0, 1, 0.01, 0.3)  # one step past the end
    with pytest.raises(ValueError, match=r"missing at t=0\.3\b"):
        rows(samples, 0, 3, 0.01, 0.29)  # the first of the steps past the end


def test_misaligned_time_rejected():
    samples = _ramp()
    with pytest.raises(ValueError, match=r"time 0\.005 is not aligned"):
        rows(samples, 0, 1, 0.01, 0.005)
    with pytest.raises(ValueError, match=r"time 0\.305 is not aligned"):
        rows(samples, 0, 2, 0.01, 0.305)  # off the grid and past the end: alignment is checked first


def test_input_array_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        rows(np.zeros((3, 3)), 0, 1, 0.01)
    with pytest.raises(ValueError, match="shape"):
        rows(np.zeros((3, 3)), 0, 0, 0.01)  # even where no step is read


def test_zero_and_callable_sources_read_each_step():
    np.testing.assert_array_equal(rows(None, 3, 4, 0.01), np.zeros((4, 2)))
    times = []

    def u(t):
        times.append(t)
        return (t, -t)

    np.testing.assert_array_equal(rows(u, 3, 4, 0.5, 1.0), [[2.5, -2.5], [3.0, -3.0],
                                                            [3.5, -3.5], [4.0, -4.0]])
    assert times == [2.5, 3.0, 3.5, 4.0]
