"""Transfer function, frequency-response measurement, and decay fitting.

With zero delay the map from the inlet inputs to the (cross-measured)
exit outputs is a pure transport delay combined with the heat-exchange
mixing; its transfer matrix is

    G(s) = 1/(h1+h2) * [[h2 e^{-sl} - h2 e^{-(h1+h2+s)l},  h2 e^{-(h1+h2+s)l} + h1 e^{-sl}],
                        [h2 e^{-sl} + h1 e^{-(h1+h2+s)l}, -h1 e^{-(h1+h2+s)l} + h1 e^{-sl}]]

which is exp(A1 l) with swapped rows times e^{-sl}.  Rows of G(0) sum to
one (a constant inlet passes through unchanged in steady state) and every
entry rolls off like e^{-Re(s) l} for large positive real part.

``measure_frequency_responses`` estimates G(i omega) empirically by driving
one inlet with a sinusoid and fitting the exit oscillations after the
transient has flushed; every frequency and both inlets run as columns of
one stacked simulation.  It deliberately runs the dissipative upwind scheme
at CFL < 1: the characteristic solver reproduces G to rounding and would
make the measurement a tautology, while the upwind route has an honest
O(dx) discretization error that must shrink under grid refinement.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass

import numpy as np

from .coupling import coupling_matrix
from .grid import Grid
from .params import GainReport, Params, SanoReport, sano_window, validate_gains
from .solver import _advance_upwind


@dataclass(frozen=True)
class TransferEval:
    """G evaluated at one complex frequency."""

    s: complex
    matrix: np.ndarray


def transfer_function(s: complex, params: Params) -> TransferEval:
    """Evaluate the delay-free transfer matrix G(s)."""
    h1, h2, l = params.h1, params.h2, params.l
    rate = h1 + h2
    if rate == 0.0:
        a = cmath.exp(-s * l)
        return TransferEval(s=s, matrix=np.array([[0.0, a], [a, 0.0]], dtype=complex))
    a = cmath.exp(-s * l)
    b = cmath.exp(-(rate + s) * l)
    matrix = (
        np.array(
            [
                [h2 * a - h2 * b, h2 * b + h1 * a],
                [h2 * a + h1 * b, -h1 * b + h1 * a],
            ],
            dtype=complex,
        )
        / rate
    )
    return TransferEval(s=s, matrix=matrix)


def _physical_memory() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf


def measure_frequency_responses(
    omegas,
    params: Params,
    grid: Grid,
    cycles: int = 10,
    cfl: float = 0.5,
    transient_factor: float = 3.0,
) -> list[np.ndarray]:
    """Measure the 2x2 gain at each frequency in one stacked simulation.

    Every distinct omega gives two runs, one per inlet channel, driven by
    sin(omega t) with the other channel zero.  All runs are columns of one
    field advanced by a single upwind loop that records only the exit
    node.  A run's horizon is the transient t < transient_factor * l plus
    ``cycles`` periods, rounded up to the step grid; runs are stacked
    longest first and leave the stack when their horizon ends.  Amplitude
    and phase of both exit values come from a least-squares sinusoid fit
    after the transient.  omega = 0 drives a constant input and reads the
    steady state at its final step.  Needs cycles >= 10 for a
    well-conditioned fit.  Returns one gain per entry of ``omegas``, in
    order.  Raises ValueError, before allocating, for an omega so small
    that its horizon is not finite or the exit buffers would not fit in
    physical memory.
    """
    omegas = [float(omega) for omega in omegas]
    for omega in omegas:
        if not (math.isfinite(omega) and omega >= 0):
            raise ValueError(f"omega must be finite and nonnegative, got {omega}")
    if cycles < 10:
        raise ValueError(f"need at least 10 cycles after the transient, got {cycles}")
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    transient = transient_factor * params.l
    dt = cfl * grid.dx

    def horizon_steps(omega: float) -> int:
        if omega == 0.0:
            T = (transient_factor + 5.0) * params.l
        else:
            T = transient + cycles * 2 * math.pi / omega
        if not math.isfinite(T / dt):
            raise ValueError(f"omega={omega!r} needs a horizon of inf steps of dt={dt:g}")
        return math.ceil(T / dt)

    steps = {omega: horizon_steps(omega) for omega in omegas}
    exit_bytes = sum(32 * (n + 1) for n in steps.values())  # (n+1, 2, 2) doubles each
    memory = _physical_memory()
    if exit_bytes > memory:
        omega = max(steps, key=steps.get)
        raise ValueError(
            f"omega={omega!r} needs {steps[omega]} steps of dt={dt:g}: the exit buffers "
            f"would take {exit_bytes / 2**30:.3g} GiB, more than the physical memory "
            f"({memory / 2**30:.3g} GiB)"
        )
    distinct = sorted(steps, key=steps.get, reverse=True)
    live = len(distinct)
    # axes: node or step, omega, drive channel, stream
    field = np.zeros((grid.n_cells + 1, live, 2, 2))
    exits = [np.zeros((steps[omega] + 1, 2, 2)) for omega in distinct]
    out, adv = np.empty_like(field), np.empty_like(field)
    inflow = np.zeros((live, 2, 2))
    step_matrix = coupling_matrix(dt, params.h1, params.h2)
    for j in range(1, max(steps.values(), default=0) + 1):
        if steps[distinct[live - 1]] < j:  # the shortest live runs have ended
            live = sum(steps[omega] >= j for omega in distinct)
            field = field[:, :live].copy()
            out, adv = np.empty_like(field), np.empty_like(field)
        t = j * dt
        for k, omega in enumerate(distinct[:live]):  # drive channel c feeds stream c
            inflow[k, 0, 0] = inflow[k, 1, 1] = math.sin(omega * t) if omega else 1.0
        field, out = _advance_upwind(field, step_matrix, cfl, inflow[:live], out, adv), field
        for k in range(live):
            exits[k][j] = field[-1, k]

    gains = {}
    for omega, exit_values in zip(distinct, exits):
        n = steps[omega]
        gain = np.zeros((2, 2), dtype=complex)
        # output row i observes the opposite stream
        if omega == 0.0:
            gain[0], gain[1] = exit_values[n, :, 1], exit_values[n, :, 0]
        else:
            t = np.arange(n + 1) * dt
            sel = t >= transient - 1e-9
            ts = t[sel]
            design = np.column_stack([np.sin(omega * ts), np.cos(omega * ts)])
            for chan in (0, 1):
                for row, col in ((0, 1), (1, 0)):
                    coef, *_ = np.linalg.lstsq(design, exit_values[sel, chan, col], rcond=None)
                    gain[row, chan] = coef[0] + 1j * coef[1]
        gains[omega] = gain
    return [gains[omega].copy() for omega in omegas]


def measure_frequency_response(
    omega: float,
    params: Params,
    grid: Grid,
    cycles: int = 10,
    cfl: float = 0.5,
    transient_factor: float = 3.0,
) -> np.ndarray:
    """Measure the 2x2 gain at one frequency; see ``measure_frequency_responses``."""
    return measure_frequency_responses([omega], params, grid, cycles, cfl, transient_factor)[0]


@dataclass(frozen=True)
class DecayReport:
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


def fit_decay(
    t,
    norms,
    window: tuple[float, float] | None = None,
    floor_rel: float = 1e-13,
) -> DecayReport:
    """Least-squares line on (t, log norm) over a window.

    Samples below ``floor_rel`` times the series' initial value (where
    rounding and finite-time flush effects dominate) are excluded and
    flagged via ``floor_hit``.  Requires at least 10 usable samples unless
    the whole window is below the floor, which yields the extinct report.
    """
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
    floor = floor_rel * norms[0] if norms[0] > 0 else 0.0
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
    y = np.log(vw)
    design = np.column_stack([tw, np.ones_like(tw)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    ss_res = float(np.dot(residuals, residuals))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayReport(
        gamma_hat=float(-coef[0]),
        r_squared=r_squared,
        window=window,
        floor_hit=floor_hit,
        extinct=False,
        n_used=int(len(tw)),
    )


@dataclass(frozen=True)
class ConditionReport:
    """Gain inequalities, delay regime, and optional static-feedback window."""

    gains: GainReport
    tau: float
    l: float
    regime: str
    sano: SanoReport | None


def condition_report(params: Params, k_sano: float | None = None) -> ConditionReport:
    """Evaluate all stability-related conditions for a parameter set."""
    regime = (
        "tau>l (exact delay compensation, any initial value)"
        if params.tau > params.l
        else "tau<=l (requires a compatible initial observer error)"
    )
    return ConditionReport(
        gains=validate_gains(params),
        tau=params.tau,
        l=params.l,
        regime=regime,
        sano=sano_window(params, k_sano) if k_sano is not None else None,
    )


def render_condition(report: ConditionReport) -> str:
    """Plain-text rendering used by the CLI and run summaries."""
    g = report.gains
    lines = ["condition report:"]
    if not g.applicable:
        lines.append("  gain inequalities: not applicable (requires h1 > 0 and h2 > 0)")
    else:
        lines.append(
            f"  theorem_valid = {str(g.theorem_valid).lower()}"
            f"  [0 < k1 < {g.k1_upper:.6g}: {str(g.k1_ok).lower()}"
            f" (margin {g.k1_margin:.6g}),"
            f" 0 < k2 < {g.k2_upper:.6g}: {str(g.k2_ok).lower()}"
            f" (margin {g.k2_margin:.6g})]"
        )
    lines.append(f"  delay regime: {report.regime} (tau={report.tau:g}, l={report.l:g})")
    if report.sano is not None:
        s = report.sano
        if not s.applicable:
            lines.append("  static-feedback window: not applicable (requires h1, h2 > 0)")
        else:
            lines.append(
                f"  static-feedback window for k={s.k:g}: "
                f"({s.window_low:g}, {s.window_high:g}), gain_ok={str(s.gain_ok).lower()}, "
                f"tau inside: {str(s.in_window).lower()}"
            )
    return "\n".join(lines)
