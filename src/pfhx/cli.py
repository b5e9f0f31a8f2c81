"""Command-line interface: run, sweep, freqresp, and check subcommands.

All numeric CSV output uses scientific notation with 17 significant
digits (lossless for doubles), comma separation, '.' decimals, and LF
line endings, so identical configurations produce byte-identical files.
Each number is exactly what ``'%.16e' % x`` makes of it.  The numpy
kernel of ``e16`` formats the run CSVs a few thousand values at a time,
and its one row assembler, ``e16._csv``, writes both norms.csv and
snapshots.csv; sweep.csv and freqresp.csv rows are each one ``%`` operation.
Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-finite values), 4 output I/O failure.

A command loads only what it runs: the engine (``loop`` and the solver,
profiles and history it imports) is imported by the code that checks or
runs a scenario, and numpy by the engine or by the writer that builds an
array, so ``freqresp``, whose gains are scalar, loads neither.  ``main``
also has ``gc.freeze`` run at exit, so that finalization does not collect
the about 22k objects numpy and pfhx leave tracked; every output is
closed by its ``with`` block before ``main`` returns.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import itertools
import math
import os
import sys
import time
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING

from .analysis import _checked_omegas, _transfer, _upwind_gain
from .config import Config, parse_config
from .grid import Grid
from .params import ConfigError, condition_report

if TYPE_CHECKING:  # annotations only: the engine and numpy load in the code that runs them
    import numpy as np

    from .loop import RunResult, RunSummary
    from .params import ConditionReport, Params, Scenario


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _write_lines(path: Path, lines: Iterable) -> None:
    """Write each item followed by a newline: text in UTF-8, or the bytes of a buffer.

    An item may span several lines.
    """
    with open(path, "wb") as handle:
        for line in lines:
            handle.write(line.encode() if isinstance(line, str) else line)
            handle.write(b"\n")


# the names of ``Trajectory.columns``, in its order
_NORMS_HEADER = "t,plant_l2,obs_err_l2,pred_err1_at_l,pred_err2_at_l,u1,u2,theta1_at_l,theta2_at_l"


def _constant(column: np.ndarray) -> bool:
    """Whether every value has the first's bits: -0.0 and 0.0 are written differently."""
    bits = column.view("<i8")
    return bool((bits == bits[0]).all())


def _write_norms(path: Path, result: RunResult) -> None:
    """Runs of constant columns (the prediction error at tau > l) as groups formatted once."""
    import numpy as np

    from .e16 import _csv

    groups = [np.column_stack(list(run))[:1 if constant else None, None]
              for constant, run in itertools.groupby(result.trajectory.columns(), _constant)]
    _write_lines(path, itertools.chain([_NORMS_HEADER], _csv(*groups)))


def _first_non_finite(result: RunResult) -> str:
    """Where the first non-finite value of norms.csv is: its step, time and column."""
    import numpy as np

    columns = result.trajectory.columns()
    bad = np.column_stack([~np.isfinite(c) for c in columns])
    j = int(np.argmax(bad.any(axis=1)))
    return f"step {j} (t={columns[0][j]:g}) in {_NORMS_HEADER.split(',')[int(np.argmax(bad[j]))]}"


def _write_snapshots(path: Path, result: RunResult, grid: Grid) -> None:
    """A row per snapshot and node: t repeats down a snapshot's rows, x down every snapshot."""
    from .e16 import _csv

    traj = result.trajectory
    rows = _csv(traj.snapshot_t[:, None, None], grid.nodes[None, :, None], traj.snapshots)
    _write_lines(path, itertools.chain(["t,x,theta1,theta2"], rows))


def _decay_text(label: str, decay) -> str:
    return (
        f"{label}: gamma_hat={decay.gamma_hat:.6g}, r_squared={decay.r_squared:.6g}, "
        f"window=[{decay.window[0]:g}, {decay.window[1]:g}], "
        f"floor_hit={_bool(decay.floor_hit)}, extinct={_bool(decay.extinct)}, "
        f"samples={decay.n_used}"
    )


def render_condition(report: ConditionReport, params: Params) -> str:
    """The condition report as text, for ``check`` and for summary.txt."""
    g = report.gains
    lines = ["condition report:"]
    if not g.applicable:
        lines.append("  gain inequalities: not applicable (requires h1 > 0 and h2 > 0)")
    else:
        lines.append(
            f"  theorem_valid = {_bool(g.theorem_valid)}"
            f"  [0 < k1 < {g.k1_upper:.6g}: {_bool(g.k1_ok)}"
            f" (margin {g.k1_margin:.6g}),"
            f" 0 < k2 < {g.k2_upper:.6g}: {_bool(g.k2_ok)}"
            f" (margin {g.k2_margin:.6g})]"
        )
    needs = ("exact delay compensation, any initial value" if report.regime == "tau>l"
             else "compensation up to the observer error at the exit, any initial value")
    lines.append(f"  delay regime: {report.regime} ({needs}) (tau={params.tau:g}, l={params.l:g})")
    if report.sano is not None:
        s = report.sano
        if not s.applicable:
            lines.append("  static-feedback window: not applicable (requires h1, h2 > 0)")
        else:
            lines.append(
                f"  static-feedback window for k={s.k:g}: "
                f"({s.window_low:g}, {s.window_high:g}), gain_ok={_bool(s.gain_ok)}, "
                f"tau inside: {_bool(s.in_window)}"
            )
    return "\n".join(lines)


def _write_summary(path: Path, scenario: Scenario, result: RunResult) -> None:
    s = result.summary
    lines = [
        "run summary",
        f"controller: {s.controller}",
        f"T: requested {scenario.T:g}, used {s.T_used:g}",
        f"tau: requested {scenario.params.tau:g}, used {s.tau_used:g}"
        + (" (snapped)" if s.tau_snapped else ""),
        render_condition(s.condition, scenario.params),
        _decay_text("plant decay", s.plant_decay),
    ]
    if s.obs_err_decay is not None:
        lines.append(_decay_text("observer-error decay", s.obs_err_decay))
    if s.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in s.warnings)
    lines.append(f"finite: {_bool(s.finite)}")
    lines.append(f"wall time: {s.wall_time_s:.3f} s")
    _write_lines(path, lines)


def _emit_warnings(warnings: list[str]) -> None:
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)


def _refusal(make, axis_values: dict) -> str | None:
    """Why ``make(**axis_values)``'s scenario fails the run checks, or None if it passes."""
    from .loop import check_scenario

    try:
        check_scenario(make(**axis_values))
    except ConfigError as exc:
        return str(exc)
    return None


def _checked(make, axis_values: dict, warnings: list[str]) -> Scenario:
    """``make(**axis_values)``'s scenario once it passes the run checks.

    Warnings not yet in ``warnings`` are appended to it.  A failed check
    that a swept tau causes names that tau; one that the same row at the
    base scenario's tau fails alike is reported as it is.
    """
    from .loop import check_scenario

    try:
        scenario = make(**axis_values)
        found = check_scenario(scenario)
    except ConfigError as exc:
        others = {key: value for key, value in axis_values.items() if key != "tau"}
        if "tau" not in axis_values or _refusal(make, others) == str(exc):
            raise
        raise ConfigError(
            f"every swept tau must give a valid run; tau={axis_values['tau']:g}: {exc}"
        ) from None
    warnings += [w for w in found if w not in warnings]
    return scenario


def cmd_run(cfg: Config) -> int:
    """One run, then its three outputs, all in this process."""
    from .loop import check_scenario, run_scenario

    scenario = cfg.scenario
    check_scenario(scenario)  # a configuration error leaves the outputs alone
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    norms, snapshots, summary = (outdir / f for f in ("norms.csv", "snapshots.csv", "summary.txt"))
    for path in (norms, snapshots, summary):
        open(path, "w").close()  # an unwritable output fails before the run
    result = run_scenario(scenario)
    _write_norms(norms, result)
    _write_snapshots(snapshots, result, Grid(scenario.n_cells, scenario.params.l))
    _write_summary(summary, scenario, result)
    _emit_warnings(result.summary.warnings)  # the run's own tau/T snapping included
    if not result.summary.finite:
        print(f"numerical failure: first non-finite value at {_first_non_finite(result)}",
              file=sys.stderr)
        return 3
    return 0


_SWEEP_HEADER = (
    "index,h1,h2,l,tau,k1,k2,n_cells,T,controller,sano_k,theorem_valid,"
    "sano_in_window,gamma_hat,r_squared,floor_hit,extinct"
)


def _sweep_line(index: int, scenario: Scenario, summary: RunSummary) -> str:
    """Row ``index`` of sweep.csv from a single ``%`` operation; floats as ``%.16e``."""
    p, decay, sano_k = scenario.params, summary.plant_decay, scenario.sano_k
    sano = summary.condition.sano if scenario.controller == "sano_static" else None
    template = (
        "%s" + ",%.16e" * 6 + ",%s,%.16e,%s," + ("" if sano_k is None else "%.16e")
        + ",%s,%s,%.16e,%.16e,%s,%s"
    )
    values = (
        index, p.h1, p.h2, p.l, p.tau, p.k1, p.k2, scenario.n_cells, scenario.T,
        scenario.controller, *(() if sano_k is None else (sano_k,)),
        _bool(summary.condition.gains.theorem_valid), "" if sano is None else _bool(sano.in_window),
        decay.gamma_hat, decay.r_squared, _bool(decay.floor_hit), _bool(decay.extinct),
    )
    return template % values


def _sweep_worker(payload: tuple[int, Scenario]) -> tuple[str, bool]:
    """Run one sweep row: its sweep.csv line, and whether the run stayed finite."""
    from .loop import run_scenario

    index, scenario = payload
    summary = run_scenario(scenario).summary
    return _sweep_line(index, scenario, summary), summary.finite


# concurrent.futures.ProcessPoolExecutor, imported by the first sweep on a pool:
# run, freqresp, check and a one-worker sweep never load concurrent.futures
# and the logging it imports.
# It stays a module attribute, which benchmarks/tracer.py replaces with a timed pool.
ProcessPoolExecutor = None


def _sweep_rows(cfg: Config, warnings: list[str]) -> list[Scenario]:
    """Every sweep row's scenario in declaration order, each once it passes the run checks.

    With no axis the one row is the base scenario.  Warnings not yet in
    ``warnings`` are appended to it.
    """
    names = list(cfg.sweep_axes)
    return [_checked(cfg.sweep_row, dict(zip(names, combo)), warnings)
            for combo in itertools.product(*cfg.sweep_axes.values())]


def cmd_sweep(cfg: Config) -> int:
    """Every row is checked before the pool starts; the rows run in declaration order."""
    global ProcessPoolExecutor
    warnings: list[str] = []
    payloads = list(enumerate(_sweep_rows(cfg, warnings)))
    if not cfg.sweep_axes:  # its one row, the base scenario, is checked first
        raise ConfigError("sweep requires at least one non-empty axis in [sweep]")

    workers = cfg.workers if cfg.workers > 0 else (os.cpu_count() or 1)
    workers = min(workers, len(payloads))
    if workers <= 1:
        rows = [_sweep_worker(payload) for payload in payloads]
    else:
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, payloads))  # in the order of payloads
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_lines(outdir / "sweep.csv", [_SWEEP_HEADER, *(line for line, _ in rows)])
    _emit_warnings(warnings)
    if not all(finite for _, finite in rows):
        print("numerical failure: at least one sweep row is non-finite", file=sys.stderr)
        return 3
    return 0


_FREQRESP_ROW = ",".join(["%.16e"] * 18)


def _frobenius(entries: list[complex]) -> float:
    """The Frobenius norm of a matrix given by its entries."""
    return math.hypot(*(part for z in entries for part in (z.real, z.imag)))


def cmd_freqresp(cfg: Config) -> int:
    """G(i omega) against the upwind scheme's gain, one omega at a time in scalar arithmetic."""
    params = cfg.scenario.params
    grid = Grid(cfg.scenario.n_cells, params.l)
    header = ",".join(["omega", *(f"g{i}{j}_{kind}_{part}" for i in (1, 2) for j in (1, 2)
                                   for kind in ("formula", "measured") for part in ("re", "im")),
                       "rel_err"])
    start = time.perf_counter()
    rows = [header]
    for omega in _checked_omegas(cfg.freq_omegas, cfg.freq_cfl):
        formula = _transfer(1j * omega, params)
        measured = _upwind_gain(omega, params, grid, cfg.freq_cfl)
        # in header order: for each g_ij, formula re, im, then measured re, im
        pairs = [(f, m) for f_row, m_row in zip(formula, measured) for f, m in zip(f_row, m_row)]
        entries = [part for f, m in pairs for part in (f.real, f.imag, m.real, m.imag)]
        rel_err = _frobenius([m - f for f, m in pairs]) / _frobenius([f for f, _ in pairs])
        rows.append(_FREQRESP_ROW % (omega, *entries, rel_err))
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_lines(outdir / "freqresp.csv", rows)
    if cfg.freq_cycles is not None:
        _emit_warnings(["freqresp.cycles no longer affects the exact response and will be removed"])
    print(f"freqresp: {len(cfg.freq_omegas)} frequencies in {time.perf_counter() - start:.3f} s")
    return 0


def cmd_check(cfg: Config) -> int:
    """The condition report, once the base scenario and every sweep row pass the run checks.

    The base scenario is checked as ``run`` makes it, and the rows as
    ``sweep`` makes them, so ``check`` refuses what either command refuses.
    """
    from .loop import check_scenario

    warnings = check_scenario(cfg.scenario)
    _sweep_rows(cfg, warnings)
    params = cfg.scenario.params
    print(render_condition(condition_report(params, k_sano=cfg.scenario.sano_k), params))
    _emit_warnings(warnings)
    return 0


_ALL = ("run", "sweep", "freqresp", "check")
# Every flag that overrides a config key: (flags, key, subcommands, help).  The key is
# the flag's argparse dest, and its value the text typed, parsed as the file's value
# is; --cfl sets the step of the subcommand's own scheme.
_FLAGS = [
    (("-o", "--out"), "output.dir", _ALL, "output directory (overrides output.dir)"),
    *((("--" + name,), "params." + name, _ALL, None)
      for name in ("h1", "h2", "l", "tau", "k1", "k2")),
    (("--T",), "run.T", _ALL, None),
    (("--cfl",), "run.cfl", ("run", "sweep", "check"), None),
    (("--cfl",), "freqresp.cfl", ("freqresp",), None),
    (("--snapshot-stride",), "run.snapshot_stride", _ALL, None),
    (("--sano-k",), "run.sano_k", _ALL, None),
    (("--n-cells",), "grid.n_cells", _ALL, None),
    (("--seed",), "run.seed", _ALL, None),
    (("--controller",), "run.controller", _ALL, None),
    (("--solver",), "run.solver", _ALL, None),
    (("--workers",), "sweep.workers", ("sweep",), "worker processes (0 = all cores)"),
    (("--omega",), "freqresp.omega", ("freqresp",), "comma-separated frequencies"),
    (("--cycles",), "freqresp.cycles", ("freqresp",), None),
]


# subcommand -> (handler, help)
_COMMANDS = {
    "run": (cmd_run, "single simulation run"),
    "sweep": (cmd_sweep, "Cartesian parameter sweep"),
    "freqresp": (cmd_freqresp, "formula vs measured frequency response"),
    "check": (cmd_check, "condition report only, no simulation"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfhx",
        description="Delay-compensated boundary control of a parallel-flow heat exchanger",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("-c", "--config", required=True, help="path to INI config file")
        for flags, key, commands, flag_help in _FLAGS:
            if command in commands:
                metavar = flags[-1].lstrip("-").replace("-", "_").upper()
                cmd.add_argument(*flags, dest=key, metavar=metavar, help=flag_help)
    return parser


def main(argv=None) -> int:
    atexit.unregister(gc.freeze)  # registered once per process, however often main runs
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if "." in key and value is not None}
    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        return _COMMANDS[args.command][0](parse_config(text, overrides=overrides))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
