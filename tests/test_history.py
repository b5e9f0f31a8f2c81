import numpy as np
import pytest

from pfhx.history import as_trace


def _ramp_trace():
    samples = np.column_stack([np.arange(30.0), -np.arange(30.0)])  # u[j] = u(j * 0.01)
    return samples, as_trace(samples, 0.01)


def test_exact_lookup_at_aligned_times():
    samples, trace = _ramp_trace()
    np.testing.assert_array_equal(trace(0.17), [17.0, -17.0])
    np.testing.assert_array_equal(trace(0.29), [29.0, -29.0])
    np.testing.assert_array_equal(trace(0.0), [0.0, 0.0])
    trace(0.17)[0] = 99.0  # a lookup hands out a copy
    assert samples[17, 0] == 17.0


def test_lookup_names_the_missing_time():
    _, trace = _ramp_trace()
    with pytest.raises(ValueError, match=r"missing at t=-0\.01\b"):
        trace(-0.01)  # no wrap to the last sample
    with pytest.raises(ValueError, match=r"missing at t=0\.3\b"):
        trace(0.3)  # one step past the end


def test_misaligned_time_rejected():
    _, trace = _ramp_trace()
    with pytest.raises(ValueError, match=r"time 0\.005 is not aligned"):
        trace(0.005)


def test_input_array_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        as_trace(np.zeros((3, 3)), 0.01)
