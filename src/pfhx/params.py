"""Physical and control parameters, the scenario of one run, its run check,
and the paper's conditions on them.

The run check (``check_scenario``) makes every refusal a run makes before
it starts, from arithmetic and the specs' text alone.  The conditions are
the gain bounds of the delay-free cross feedback (``validate_gains``), the
static-feedback delay window (``sano_window``), the compatibility of an
initial observer error (``compatibility_check``), and the report that
gathers the first two with the delay regime (``condition_report``).
``cli`` renders that report as text.  numpy loads only in
``compatibility_check`` and in the check of a field given as an array.
Every record here is an immutable named tuple.

The one error rule: a setting is refused once, by the code that consumes
it.  The refusal is a ``ConfigError``, which is a ``ValueError``, and its
message names the config key (``params.tau``, ``grid.n_cells``, ...) or the
profile spec.  Arguments that are not settings, a field's shape say, raise
plain ``ValueError``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # annotations only: numpy loads in compatibility_check
    import numpy as np

    from .grid import Grid


class ConfigError(ValueError):
    """A refused setting: bad key, missing or inadmissible value, inconsistent run."""


# the fields as a plain named tuple named Params, so that a wrong call's TypeError names Params
class Params(namedtuple("Params", "h1 h2 l tau k1 k2", defaults=(0.0, 0.0))):
    """Configuration of the exchanger and its controller.

    h1, h2 : heat exchange rates between the streams (1/time).  The model
        requires them positive; the numerics also accept zero, which
        decouples the streams into plain advection (useful as an oracle).
    l : tube length.
    tau : measurement delay of the exit observations.
    k1, k2 : boundary feedback gains.

    Every value must be finite, h1 and h2 nonnegative, and l and tau
    positive, however a ``Params`` is made: a call, ``_replace``, ``_make``,
    ``copy`` or ``pickle`` (how a sweep worker receives its scenario).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ConfigError(f"params.{name} must be finite, got {value!r}")
            if value < 0 and name in ("h1", "h2"):
                raise ConfigError(f"params.{name} must be nonnegative, got {value!r}")
            if value <= 0 and name in ("l", "tau"):
                raise ConfigError(f"params.{name} must be positive, got {value!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> Params:
        """Through ``__new__``, which a named tuple's ``_make`` and ``_replace`` skip otherwise."""
        return cls(*iterable)


class Scenario(NamedTuple):
    """Everything needed to reproduce one run.

    ``theta0`` and ``observer0`` are per-component profile specs (or ready
    ``(n_cells + 1, 2)`` arrays); ``u_open`` gives the open-loop input
    signals and ``warmup_u`` the optional input applied while t <= tau by
    ``observer_predictor`` and the delay-free reference loop
    (``sano_static`` and ``error_system`` ignore it).  ``controller`` is
    one of ``observer_predictor``, ``sano_static`` (needs ``sano_k``),
    ``open_loop``, or ``error_system``.
    The defaults are the config file's defaults (docs/config.md).  A
    scenario is immutable: ``scenario._replace(T=...)`` is a changed copy.
    """

    params: Params
    n_cells: int
    T: float
    controller: str = "observer_predictor"
    theta0: object = ("zero", "zero")
    observer0: object = ("zero", "zero")
    sano_k: float | None = None
    u_open: tuple[str, str] = ("zero", "zero")
    warmup_u: tuple[str, str] = ("zero", "zero")
    solver: str = "exact"
    cfl: float = 0.5
    snapshot_stride: float = 0.1
    seed: int = 0


# the controllers a scenario may name -> whether the run must outlast the delay
# (``loop._RECURRENCES`` maps each, and the delay-free reference loop, to its law)
_CONTROLLERS = {"observer_predictor": True, "sano_static": True, "open_loop": False,
                "error_system": False}


# A checked run: its law, the name its summary reports; whether the law acts on delayed
# measurements (T > tau, fit from tau + 2l); its grid; tau in steps m, as used and whether
# it snapped; the step dt (cfl * dx on the upwind solver); T in steps and as used; the snap
# warnings; and whether a profile draws from the generator that run.seed seeds.
_RunCheck = namedtuple("_RunCheck", "controller delayed grid m tau_used tau_snapped dt n_steps "
                                    "T_used warnings draws")


def _run_check(scenario: Scenario, delay_free: bool = False) -> _RunCheck:
    """Check every run setting; snap tau to dt = dx and T to the run's own step.

    The law is the one scenario.controller names, or with ``delay_free``
    the reference loop.  The step is cfl * dx on the upwind solver, which
    only the open loop runs.  T must be finite and cover at least half a
    step, a delayed run must outlast its delay, and the recording must fit
    in physical memory.  Then the specs are read, not evaluated: theta0's
    first (an array by ``grid.check_field``), observer0's, the inputs'.
    """
    from .grid import Grid, _refuse_beyond_memory, _snap, _ZeroStep, check_field
    from .profiles import _parse

    controller = "delay_free" if delay_free else scenario.controller
    if controller not in _CONTROLLERS and not delay_free:
        raise ConfigError(f"unknown controller {controller!r} "
                          f"(expected one of {sorted(_CONTROLLERS)})")
    tau, T, delayed = scenario.params.tau, scenario.T, delay_free or _CONTROLLERS[controller]
    if controller == "sano_static" and scenario.sano_k is None:
        raise ConfigError("missing required key run.sano_k (needed by sano_static)")
    if scenario.sano_k is not None and not math.isfinite(scenario.sano_k):
        raise ConfigError(f"run.sano_k must be finite, got {scenario.sano_k}")
    grid = Grid(scenario.n_cells, scenario.params.l)
    if not math.isfinite(T) or T <= 0:
        raise ConfigError(f"run.T must be positive and finite, got {T}")
    if scenario.solver not in ("exact", "upwind"):
        raise ConfigError(f"run.solver must be exact or upwind, got {scenario.solver!r}")
    upwind = scenario.solver == "upwind"
    if upwind and controller != "open_loop":
        raise ConfigError("run.solver=upwind is available for open_loop runs only")
    if not scenario.snapshot_stride > 0:
        raise ConfigError(f"run.snapshot_stride must be positive, got {scenario.snapshot_stride}")
    if not 0.0 < scenario.cfl <= 1.0:
        raise ConfigError(f"run.cfl must lie in (0, 1], got {scenario.cfl}")
    if scenario.seed < 0:
        raise ConfigError(f"run.seed must be >= 0, got {scenario.seed}")
    dt = scenario.cfl * grid.dx if upwind else grid.dt
    cell = "params.l / grid.n_cells"
    counts = []
    for key, value, of, unit, least in (("params.tau", tau, grid.dt, cell, 1),
                                        ("run.T", T, dt, cell + " * run.cfl" * upwind, 0)):
        try:
            counts.append(_snap(value, of, least))
        except _ZeroStep:
            raise ConfigError(f"{key}={value:g} cannot be counted in steps of dt = {unit}, "
                              "which underflows to 0") from None
        except ValueError:
            raise ConfigError(f"{key}={value:g} is too many steps of dt = {unit} = {of:g} "
                              "to count") from None
    (m, tau_used, tau_snapped), (n_steps, T_used, T_snapped) = counts
    if n_steps == 0:
        raise ConfigError(f"run.T={T:g} must cover at least half a step (dt={dt:g})")
    if delayed and n_steps <= m:
        raise ConfigError(f"run.T={T:g} must exceed the delay tau={tau_used:g} for controlled runs")
    _refuse_beyond_memory(f"run.T={T:g} at grid.n_cells={scenario.n_cells} and "
                          f"run.snapshot_stride={scenario.snapshot_stride:g}", grid, n_steps, dt,
                          scenario.snapshot_stride, not upwind, ConfigError)
    warnings = ([f"tau snapped from {tau:g} to {tau_used:g} ({m} steps of dt={grid.dt:g})"]
                * tau_snapped + [f"T snapped from {T:g} to {T_used:g}"] * T_snapped)
    numpy = sys.modules.get("numpy")  # a field is an array only where numpy is loaded
    names = []
    for spec in (scenario.theta0, scenario.observer0):
        if numpy is not None and isinstance(spec, numpy.ndarray):
            check_field(spec, grid)
        else:
            names += [_parse(component)[0] for component in spec]
    for spec in (*scenario.u_open, *scenario.warmup_u):
        _parse(spec, "input signal")
    return _RunCheck(controller, delayed, grid, m, tau_used, tau_snapped, dt, n_steps, T_used,
                    warnings, "random" in names)


def check_scenario(scenario: Scenario) -> list[str]:
    """Make every check a run makes before it starts; return the tau/T snap warnings.

    Raises ConfigError naming the offending setting by its config key.
    """
    return _run_check(scenario).warnings


class GainReport(NamedTuple):
    """Result of checking the strict gain inequalities.

    The delay-free cross feedback u1 = -k1*theta2(t,l), u2 = -k2*theta1(t,l)
    is exponentially stable when 0 < k1 < sqrt(h1/h2) and
    0 < k2 < sqrt(h2/h1).  ``theorem_valid`` is the conjunction; the margins
    are the distances to the upper bounds (negative when violated).
    """

    applicable: bool
    theorem_valid: bool
    k1_upper: float
    k2_upper: float
    k1_margin: float
    k2_margin: float
    k1_ok: bool
    k2_ok: bool


def validate_gains(params: Params) -> GainReport:
    """Check 0 < k1 < sqrt(h1/h2) and 0 < k2 < sqrt(h2/h1).

    The ratio tests need h1, h2 > 0; otherwise the report is flagged not
    applicable and ``theorem_valid`` is False.
    """
    if params.h1 <= 0 or params.h2 <= 0:
        nan = float("nan")
        return GainReport(
            applicable=False,
            theorem_valid=False,
            k1_upper=nan,
            k2_upper=nan,
            k1_margin=nan,
            k2_margin=nan,
            k1_ok=False,
            k2_ok=False,
        )
    k1_upper = math.sqrt(params.h1 / params.h2)
    k2_upper = math.sqrt(params.h2 / params.h1)
    k1_ok = 0 < params.k1 < k1_upper
    k2_ok = 0 < params.k2 < k2_upper
    return GainReport(
        applicable=True,
        theorem_valid=k1_ok and k2_ok,
        k1_upper=k1_upper,
        k2_upper=k2_upper,
        k1_margin=k1_upper - params.k1,
        k2_margin=k2_upper - params.k2,
        k1_ok=k1_ok,
        k2_ok=k2_ok,
    )


class SanoReport(NamedTuple):
    """Delay window for the static output feedback u1 = 0, u2 = -k*y2.

    The literature's sufficient condition for that controller to stabilize
    the plant is k^2 < h2/h1 and h1*l < tau < h2*l/k^2.  It is sufficient,
    not necessary: runs decay outside it too (on h1 = 1, h2 = 2, l = 1, at
    tau = 0.5 with k = 1, 2 and 3), so membership is reported without any
    claim about a run outside the window.
    """

    applicable: bool
    k: float
    gain_ok: bool
    window_low: float
    window_high: float
    in_window: bool


def sano_window(params: Params, k: float) -> SanoReport:
    """Evaluate the static-feedback delay window h1*l < tau < h2*l/k^2.

    The window, with k^2 < h2/h1, is the literature's sufficient condition
    for stability (``SanoReport``), not a necessary one.
    """
    if params.h1 <= 0 or params.h2 <= 0:
        return SanoReport(
            applicable=False,
            k=k,
            gain_ok=False,
            window_low=float("nan"),
            window_high=float("nan"),
            in_window=False,
        )
    low = params.h1 * params.l
    high = math.inf if k * k == 0 else params.h2 * params.l / (k * k)  # |k| < 1e-162 squares to 0
    gain_ok = k * k < params.h2 / params.h1
    return SanoReport(
        applicable=True,
        k=k,
        gain_ok=gain_ok,
        window_low=low,
        window_high=high,
        in_window=gain_ok and low < params.tau < high,
    )


class CompatibilityReport(NamedTuple):
    """Boundary residuals and smoothness diagnostics of an error profile."""

    compatible: bool
    residual1: float
    residual2: float
    boundary_ok: bool
    max_slope: float
    jump_count: int
    jump_threshold: float


def compatibility_check(w: np.ndarray, params: Params, grid: Grid) -> CompatibilityReport:
    """Check whether an initial observer-error profile is admissible.

    The boundary part mirrors the closed-loop boundary coupling: the profile
    must satisfy w1(0) + k1*w2(l) = 0 and w2(0) + k2*w1(l) = 0 up to 1e-9.
    The smoothness part is a discrete proxy for one weak derivative: the
    profile must not contain step discontinuities, detected as node-to-node
    increments far larger than the typical increment.  The threshold is
    ten times dx * median(|slope|), with a small absolute guard so that
    jumps on otherwise flat profiles are still caught.
    """
    import numpy as np

    from .grid import check_field

    w = check_field(w, grid)
    grid.snap_steps(grid.l)  # the tube in steps: a step that underflows to 0 is refused
    n = grid.n_cells
    residual1 = float(abs(w[0, 0] + params.k1 * w[n, 1]))
    residual2 = float(abs(w[0, 1] + params.k2 * w[n, 0]))
    boundary_ok = residual1 <= 1e-9 and residual2 <= 1e-9

    diffs = np.abs(np.diff(w, axis=0))
    with np.errstate(over="ignore"):  # a slope beyond the largest double is inf
        slopes = diffs / grid.dx
    max_slope = float(slopes.max()) if slopes.size else 0.0
    guard = 1e-8 * max(1.0, float(np.abs(w).max()))
    threshold = max(10.0 * float(np.median(diffs)), guard)  # dx times the median slope
    jump_count = int(np.count_nonzero(diffs > threshold))

    return CompatibilityReport(
        compatible=boundary_ok and jump_count == 0,
        residual1=residual1,
        residual2=residual2,
        boundary_ok=boundary_ok,
        max_slope=max_slope,
        jump_count=jump_count,
        jump_threshold=threshold,
    )


class ConditionReport(NamedTuple):
    """Gain inequalities, delay regime ``"tau>l"`` or ``"tau<=l"``, and optional Sano window."""

    gains: GainReport
    regime: str
    sano: SanoReport | None


def condition_report(params: Params, k_sano: float | None = None) -> ConditionReport:
    """Evaluate all stability-related conditions for a parameter set."""
    return ConditionReport(
        gains=validate_gains(params),
        regime="tau>l" if params.tau > params.l else "tau<=l",
        sano=sano_window(params, k_sano) if k_sano is not None else None,
    )
