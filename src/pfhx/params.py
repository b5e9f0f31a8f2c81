"""Physical and control parameters, with gain and delay-window checks, and the
scenario of one run."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Params:
    """Configuration of the exchanger and its controller.

    h1, h2 : heat exchange rates between the streams (1/time).  The model
        requires them positive; the numerics also accept zero, which
        decouples the streams into plain advection (useful as an oracle).
    l : tube length.
    tau : measurement delay of the exit observations.
    k1, k2 : boundary feedback gains.
    """

    h1: float
    h2: float
    l: float
    tau: float
    k1: float = 0.0
    k2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("h1", "h2", "l", "tau", "k1", "k2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"params.{name} must be finite, got {value!r}")
            if value < 0 and name in ("h1", "h2"):
                raise ConfigError(f"params.{name} must be nonnegative, got {value!r}")
            if value <= 0 and name in ("l", "tau"):
                raise ConfigError(f"params.{name} must be positive, got {value!r}")


@dataclass
class Scenario:
    """Everything needed to reproduce one run.

    ``theta0`` and ``observer0`` are per-component profile specs (or ready
    ``(n_cells + 1, 2)`` arrays); ``u_open`` gives the open-loop input
    signals and ``warmup_u`` the optional input applied while t <= tau in
    controlled runs.  ``controller`` is one of ``observer_predictor``,
    ``sano_static`` (needs ``sano_k``), ``open_loop``, or ``error_system``.
    The defaults are the config file's defaults (docs/config.md).
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


@dataclass(frozen=True)
class GainReport:
    """Result of checking the strict gain inequalities.

    The delay-free cross feedback u1 = -k1*theta2(t,l), u2 = -k2*theta1(t,l)
    is exponentially stable when 0 < k1 < sqrt(h1/h2) and
    0 < k2 < sqrt(h2/h1).  ``theorem_valid`` is the conjunction; the margins
    are the distances to the upper bounds (negative when violated).
    """

    applicable: bool
    theorem_valid: bool
    k1_positive: bool
    k2_positive: bool
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
            k1_positive=params.k1 > 0,
            k2_positive=params.k2 > 0,
            k1_upper=nan,
            k2_upper=nan,
            k1_margin=nan,
            k2_margin=nan,
            k1_ok=False,
            k2_ok=False,
        )
    k1_upper = math.sqrt(params.h1 / params.h2)
    k2_upper = math.sqrt(params.h2 / params.h1)
    k1_positive = params.k1 > 0
    k2_positive = params.k2 > 0
    k1_ok = k1_positive and params.k1 < k1_upper
    k2_ok = k2_positive and params.k2 < k2_upper
    return GainReport(
        applicable=True,
        theorem_valid=k1_ok and k2_ok,
        k1_positive=k1_positive,
        k2_positive=k2_positive,
        k1_upper=k1_upper,
        k2_upper=k2_upper,
        k1_margin=k1_upper - params.k1,
        k2_margin=k2_upper - params.k2,
        k1_ok=k1_ok,
        k2_ok=k2_ok,
    )


@dataclass(frozen=True)
class SanoReport:
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
