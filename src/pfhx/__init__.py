"""Simulation and control toolkit for a parallel-flow heat exchanger.

The plant is a pair of co-flowing streams on ``x in [0, l]``, both moving
with unit speed and exchanging heat at rates ``h1`` and ``h2``:

    dt theta1 = -dx theta1 + h1 (theta2 - theta1)
    dt theta2 = -dx theta2 + h2 (theta1 - theta2)

Inlet temperatures ``theta1(t, 0) = u1(t)`` and ``theta2(t, 0) = u2(t)``
are the controls; the exit temperatures are measured cross-wise and only
become available after a known delay ``tau``:

    y1(t) = theta2(t - tau, l),   y2(t) = theta1(t - tau, l).

The package provides an exact method-of-characteristics solver (plus an
independent upwind scheme for cross-validation), a Luenberger observer
with delayed output injection, a prediction step that compensates the
delay in closed form, boundary feedback built from the predicted state,
and analysis tools (transfer function, the upwind scheme's exact
frequency response, decay-rate fitting).  A CLI drives single runs,
parameter sweeps, and frequency-response comparisons with deterministic
CSV output.

``import pfhx`` loads none of its submodules: each public name is imported
from its home module the first time it is used.
"""

import importlib
import os

# One OpenBLAS thread unless the user sets another count.  pfhx's BLAS calls
# multiply by the 2x2 and 4x4 coupling and lag maps: on grids of a few
# thousand cells that work stays below OpenBLAS's threading threshold, and
# sweep workers are separate processes, so a thread pool would only spin.
# numpy reads the variable when it is first imported, so this comes before
# any submodule imports it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each public name's home submodule, imported on the name's first use (PEP 562).
_HOMES = {
    "params": ("GainReport", "Params", "SanoReport", "Scenario", "sano_window", "validate_gains"),
    "coupling": ("coupling_matrix",),
    "grid": ("CompatibilityReport", "Grid", "compatibility_check", "l2_norm", "make_field",
             "zero_field"),
    "profiles": ("input_function", "profile_array"),
    "solver": ("Trajectory", "closed_form_state", "solve_exact", "solve_upwind"),
    "observer": ("predict",),
    "loop": ("RunResult", "RunSummary", "check_scenario", "run_delay_free_feedback",
             "run_scenario"),
    "analysis": ("ConditionReport", "DecayReport", "TransferEval", "condition_report",
                 "discrete_response", "fit_decay", "transfer_function"),
    "errors": ("ConfigError",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
