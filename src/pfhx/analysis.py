"""Transfer function, the upwind scheme's frequency response, and decay fitting.

With zero delay the map from the inlet inputs to the (cross-measured)
exit outputs is a pure transport delay combined with the heat-exchange
mixing; its transfer matrix is

    G(s) = 1/(h1+h2) * [[h2 e^{-sl} - h2 e^{-(h1+h2+s)l},  h2 e^{-(h1+h2+s)l} + h1 e^{-sl}],
                        [h2 e^{-sl} + h1 e^{-(h1+h2+s)l}, -h1 e^{-(h1+h2+s)l} + h1 e^{-sl}]]

which is exp(A1 l) with swapped rows times e^{-sl}.  Rows of G(0) sum to
one (a constant inlet passes through unchanged in steady state) and every
entry rolls off like e^{-Re(s) l} for large positive real part.

``discrete_response`` gives the gain that a measurement of the upwind
scheme would read: the steady response of its linear, time-invariant step
to a sinusoidal inlet, solved exactly in the z-domain instead of run step
by step until the transient flushes.  It deliberately models the dissipative upwind
scheme at CFL < 1: the characteristic solver reproduces G to rounding and
would make the comparison a tautology, while the upwind route has an honest
O(dx) discretization error that must shrink under grid refinement.

Both gains are computed one frequency at a time with ``cmath`` and
``math``, as 2x2 nested tuples (``_transfer``, ``_upwind_gain``), which
``pfhx freqresp`` formats as they are.  ``transfer_function`` and
``discrete_response`` wrap them in arrays, and import numpy to do so, as
``fit_decay`` does; importing this module loads no numpy.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, NamedTuple

from .coupling import fast_exponent, finite_rates
from .grid import Grid
from .params import ConfigError, Params

if TYPE_CHECKING:  # annotations only: numpy loads in the functions that build arrays
    import numpy as np

# A 2x2 gain as nested tuples, row by row: ((g11, g12), (g21, g22)).
Gain = tuple[tuple[complex, complex], tuple[complex, complex]]


def _mix(a: complex, b: complex, h1: float, h2: float) -> Gain:
    """exp(A1 l) with its rows swapped and its two modes weighted by ``a`` and ``b``.

    A1 has the eigenvalue 0 with eigenvector (1, 1) and -(h1 + h2) with
    (h1, -h2); exp(A1 l) weights them by 1 and e^{-(h1+h2) l}.  With
    h1 = h2 = 0 both eigenvalues are 0 and ``a`` weighs both.  A sum
    h1 + h2 that overflows mixes by the same weights h1/2 over (h1 + h2)/2.
    """
    h1, h2, rate = finite_rates(h1, h2)
    if rate == 0.0:
        return ((0j, a), (a, 0j))
    return (((h2 * a - h2 * b) / rate, (h2 * b + h1 * a) / rate),
            ((h2 * a + h1 * b) / rate, (-h1 * b + h1 * a) / rate))


def _transfer_weights(s: complex, params: Params) -> tuple[complex, complex]:
    """G(s)'s mode weights e^{-sl} and e^{-(h1+h2+s)l}."""
    h1, h2, l = params.h1, params.h2, params.l
    try:
        a = cmath.exp(-s * l)
        if math.isfinite(h1 + h2):
            b = cmath.exp(-(h1 + h2 + s) * l)
        else:  # the sum overflows, and (h1 + h2) l may not
            b = cmath.exp(-fast_exponent(h1, h2, l) - s * l)
    except ValueError:  # a phase Im(s) l that overflows has no value, as a sine input's
        a = b = complex(math.nan, math.nan)
    return a, b


def _times_exp(x: float, r: float) -> float:
    """x e^r: +-inf where that overflows, and x itself where x is 0 or not finite."""
    if x == 0.0 or not math.isfinite(x):
        return x
    try:
        return math.copysign(math.exp(r + math.log(abs(x))), x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _transfer(s: complex, params: Params) -> Gain:
    """The delay-free transfer matrix G(s)."""
    try:
        return _mix(*_transfer_weights(s, params), params.h1, params.h2)
    except OverflowError:  # e^{-sl} overflows: G(s) is e^{-Re(s) l} G(i Im(s)), entry by entry
        r = -s.real * params.l
        return tuple(tuple(complex(_times_exp(g.real, r), _times_exp(g.imag, r)) for g in row)
                     for row in _transfer(complex(0.0, s.imag), params))


def transfer_function(s: complex, params: Params) -> np.ndarray:
    """The delay-free transfer matrix G(s), a (2, 2) complex array."""
    import numpy as np

    return np.array(_transfer(s, params), dtype=complex)


def _log1p(w: complex) -> complex:
    """log(1 + w) for complex w, accurate for small |w|; a |w|^2 that overflows gives inf."""
    re, im = w.real, w.imag
    return complex(0.5 * math.log1p(re * (2.0 + re) + im * im), math.atan2(im, 1.0 + re))


def _checked_omegas(omegas, cfl: float) -> list[float]:
    """The omegas as floats, once each omega and the CFL are valid."""
    omegas = [float(omega) for omega in omegas]
    for omega in omegas:
        if not (math.isfinite(omega) and omega >= 0):
            raise ConfigError(f"freqresp.omega must be finite and nonnegative, got {omega}")
    if not 0.0 < cfl <= 1.0:
        raise ConfigError(f"freqresp.cfl must lie in (0, 1], got {cfl}")
    return omegas


def _upwind_weights(omega: float, params: Params, grid: Grid,
                    cfl: float) -> tuple[complex, complex]:
    """The scheme's two mode weights at a checked omega: (1 + w)^-n_cells for each mu."""
    h1, h2, dx = params.h1, params.h2, grid.dx
    dt = cfl * dx
    half = omega * dt / 2
    try:  # (z - 1) / dt = i omega sinc(omega dt / 2) e^{i omega dt / 2}, which cancels nothing
        advance = 1j * omega * (math.sin(half) / half if half else 1.0) * cmath.exp(1j * half)
    except ValueError:  # a phase omega dt that overflows has no value, as in G
        return complex(math.nan, math.nan), complex(math.nan, math.nan)
    slow = _log1p(dx * advance)  # mu = 1
    decay = fast_exponent(h1, h2, dt)
    if math.isinf(decay):  # (h1 + h2) dt overflows: mu = 0 and w is infinite
        fast = math.inf
    else:
        mixed = -math.expm1(-decay) / decay if decay else 1.0  # (1 - mu) / ((h1 + h2) dt)
        # w mu = (z - mu) / c = dx ((z - 1) / dt + (1 - mu) / dt)
        if math.isfinite(h1 + h2):
            w_mu = dx * (advance + (h1 + h2) * mixed)
        else:  # (1 - mu) / dt may overflow where dx (1 - mu) / dt does not
            w_mu = dx * advance + fast_exponent(h1, h2, dx) * mixed
        try:
            fast = _log1p(w_mu * math.exp(decay))
        except OverflowError:  # e^decay overflows: log1p(w) is log(w) to rounding
            fast = cmath.log(w_mu) + decay
    return cmath.exp(-grid.n_cells * slow), cmath.exp(-grid.n_cells * fast)


def _upwind_gain(omega: float, params: Params, grid: Grid, cfl: float) -> Gain:
    """The upwind scheme's exact steady gain at one checked omega (see ``discrete_response``)."""
    return _mix(*_upwind_weights(omega, params, grid, cfl), params.h1, params.h2)


def discrete_response(omegas, params: Params, grid: Grid, cfl: float = 0.5) -> np.ndarray:
    """The upwind scheme's exact steady gain at each omega, as a (k, 2, 2) array.

    The split upwind step at CFL c is linear and time-invariant: node i
    takes M ((1 - c) theta_i + c theta_{i-1}) with M = exp(A1 dt), dt = c dx.
    Driven by z^j at node 0, with z = e^{i omega dt}, its steady state is
    z^j T(z)^i at node i, where T(z) = c (z I - (1 - c) M)^{-1} M, so the
    exit gain is T(z)^n_cells with its rows swapped, because output row i
    observes the opposite stream.  This is what fitting sinusoids to the
    exit values of a run gives once the transient has flushed, and it keeps
    the scheme's O(dx) error against G(i omega).  omega = 0 is z = 1.

    T(z) shares M's eigenvectors, which are A1's: an eigenvalue mu of M
    gives 1 / (1 + w) with w = (z - mu) / (c mu).  So the gain is G(i omega)
    with the mode weights e^{-i omega l} and e^{-(h1+h2+i omega) l} replaced
    by (1 + w)^-n_cells, taken as exp(-n_cells log1p(w)): the rounding then
    does not grow with n_cells, and a tiny omega or CFL cancels nothing.
    Each omega's gain is computed on its own, in scalar arithmetic.
    """
    import numpy as np

    gains = [_upwind_gain(omega, params, grid, cfl) for omega in _checked_omegas(omegas, cfl)]
    return np.array(gains, dtype=complex).reshape(len(gains), 2, 2)


class DecayReport(NamedTuple):
    """Log-linear decay fit of a norm series.

    ``gamma_hat`` is minus the fitted slope of log(norm) against time.  A
    series that sits at or below the numerical floor on the whole window is
    reported as extinct with gamma_hat = +inf (decay faster than any
    exponential, e.g. finite-time flush); r_squared is NaN in that case.
    """

    gamma_hat: float
    r_squared: float
    window: tuple[float, float]
    floor_hit: bool
    extinct: bool
    n_used: int


_FLOOR_REL = 1e-13  # the numerical floor of a norm series, relative to its initial value


def fit_decay(t, norms, window: tuple[float, float] | None = None) -> DecayReport:
    """Least-squares line on (t, log norm) over a window.

    Samples below ``_FLOOR_REL`` times the series' initial value (where
    rounding and finite-time flush effects dominate) are excluded and
    flagged via ``floor_hit``.  Requires at least 10 usable samples unless
    the whole window is below the floor, which yields the extinct report.
    """
    import numpy as np

    t = np.asarray(t, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if t.shape != norms.shape or t.ndim != 1:
        raise ValueError("t and norms must be 1-D arrays of equal length")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(norms))):
        raise ValueError("series contains non-finite values")
    if window is None:
        window = (float(t[0]), float(t[-1]))
    t0, t1 = window
    sel = (t >= t0 - 1e-12) & (t <= t1 + 1e-12)
    if not sel.any():
        raise ValueError(f"window {window} contains no samples")
    tw = t[sel]
    vw = norms[sel]
    floor = _FLOOR_REL * norms[0] if norms[0] > 0 else 0.0
    keep = vw > floor
    floor_hit = bool((~keep).any())
    tw = tw[keep]
    vw = vw[keep]
    if len(tw) == 0:
        return DecayReport(
            gamma_hat=math.inf,
            r_squared=float("nan"),
            window=window,
            floor_hit=floor_hit,
            extinct=True,
            n_used=0,
        )
    if len(tw) < 10:
        raise ValueError(
            f"need at least 10 samples above the floor in the window, got {len(tw)}"
        )
    # the two-parameter regression in closed form on centred sums: a few
    # element-wise passes in place of lstsq's LAPACK call
    centered_t = tw - tw.mean()
    centered = np.log(vw)
    centered -= centered.mean()
    slope = np.sum(centered_t * centered) / np.sum(centered_t * centered_t)
    residuals = centered - slope * centered_t
    ss_res = float(np.sum(residuals * residuals))
    ss_tot = float(np.sum(centered * centered))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayReport(
        gamma_hat=float(-slope),
        r_squared=r_squared,
        window=window,
        floor_hit=floor_hit,
        extinct=False,
        n_used=int(len(tw)),
    )

