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
"""

import os

# One OpenBLAS thread unless the user sets another count.  pfhx's BLAS calls
# multiply by the 2x2 and 4x4 coupling and lag maps: on grids of a few
# thousand cells that work stays below OpenBLAS's threading threshold, and
# the snapshot writer and sweep workers are forked processes, so a thread
# pool would only spin.  numpy reads the variable when it is first imported,
# so this comes before any submodule imports it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .params import Params, GainReport, SanoReport, validate_gains, sano_window
from .coupling import coupling_matrix
from .grid import (
    Grid,
    CompatibilityReport,
    compatibility_check,
    l2_norm,
    make_field,
    zero_field,
)
from .profiles import input_function, profile_array
from .solver import (
    Trajectory,
    closed_form_state,
    solve_exact,
    solve_upwind,
    step_exact,
)
from .observer import (
    control_law,
    observer_step,
    predict,
    predict_by_resolve,
    predict_exit,
)
from .loop import (
    RunResult,
    RunSummary,
    Scenario,
    check_scenario,
    run_delay_free_feedback,
    run_scenario,
)
from .analysis import (
    ConditionReport,
    DecayReport,
    TransferEval,
    condition_report,
    discrete_response,
    fit_decay,
    transfer_function,
)
from .errors import ConfigError

__version__ = "0.1.0"

__all__ = [
    "CompatibilityReport",
    "ConditionReport",
    "ConfigError",
    "DecayReport",
    "GainReport",
    "Grid",
    "Params",
    "RunResult",
    "RunSummary",
    "SanoReport",
    "Scenario",
    "Trajectory",
    "TransferEval",
    "check_scenario",
    "closed_form_state",
    "compatibility_check",
    "condition_report",
    "control_law",
    "coupling_matrix",
    "discrete_response",
    "fit_decay",
    "input_function",
    "l2_norm",
    "make_field",
    "observer_step",
    "predict",
    "predict_by_resolve",
    "predict_exit",
    "profile_array",
    "run_delay_free_feedback",
    "run_scenario",
    "sano_window",
    "solve_exact",
    "solve_upwind",
    "step_exact",
    "transfer_function",
    "validate_gains",
    "zero_field",
]
