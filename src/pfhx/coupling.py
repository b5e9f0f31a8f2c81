"""Closed-form exponential of the 2x2 heat-exchange coupling matrix.

Along a characteristic x - t = const both transport terms drop out and the
temperature pair obeys dv/ds = A1 v with

    A1 = [[-h1,  h1],
          [ h2, -h2]].

A1 has eigenvalues 0 and -(h1 + h2), so with E = exp(-(h1 + h2) s)

    exp(A1 s) = 1/(h1+h2) * [[h2 + h1 E,  h1 (1 - E)],
                             [h2 (1 - E), h1 + h2 E]].

The matrix is row stochastic for s >= 0: each row sums to one and all
entries lie in [0, 1], so applying it is a convex mixing of the two
temperatures.  The weighted sum h2*v1 + h1*v2 is conserved exactly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: numpy loads in the function that builds the matrix
    import numpy as np


def finite_rates(h1: float, h2: float) -> tuple[float, float, float]:
    """(h1, h2, h1 + h2), all halved when the sum overflows.

    The mixing weights h1 / (h1 + h2) and h2 / (h1 + h2) do not change, and
    a sum that overflows would make them zero.  A finite sum is kept as it is.
    """
    rate = h1 + h2
    if math.isfinite(rate):
        return h1, h2, rate
    return h1 / 2, h2 / 2, h1 / 2 + h2 / 2


def fast_exponent(h1: float, h2: float, s):
    """(h1 + h2) s, the exponent of the fast mode's factor E = exp(-(h1 + h2) s).

    When the sum overflows, the product is formed as 2 ((h1/2 + h2/2) s),
    which is finite wherever the product is.  A finite sum is used as it is.
    """
    rate = h1 + h2
    if math.isfinite(rate):
        return rate * s
    return 2 * (finite_rates(h1, h2)[2] * s)


def coupling_matrix(s: float, h1: float, h2: float) -> np.ndarray:
    """Return exp(A1 s) as a 2x2 array.  Requires s >= 0 and h1, h2 >= 0."""
    import numpy as np

    if not s >= 0.0:
        raise ValueError(f"elapsed characteristic time must be nonnegative, got {s}")
    if h1 + h2 == 0.0:
        return np.eye(2)
    decay = math.exp(-fast_exponent(h1, h2, s)) if s else 1.0
    h1, h2, rate = finite_rates(h1, h2)
    return np.array(
        [
            [(h2 + h1 * decay) / rate, h1 * (1.0 - decay) / rate],
            [h2 * (1.0 - decay) / rate, (h1 + h2 * decay) / rate],
        ]
    )
