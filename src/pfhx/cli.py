"""Command-line interface: run, sweep, freqresp, and check subcommands.

All numeric CSV output uses scientific notation with 17 significant
digits (lossless for doubles), comma separation, '.' decimals, and LF
line endings, so identical configurations produce byte-identical files.
Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-finite values), 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import multiprocessing
import os
import sys
import time
import warnings
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import condition_report, discrete_response, render_condition, transfer_function
from .config import Config, parse_config
from .errors import ConfigError
from .grid import Grid
from .loop import RunResult, Scenario, check_scenario, run_scenario

_NORMS_BLOCK_ROWS = 4096


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _put_lines(handle, lines: Iterable[str]) -> None:
    """Write each item followed by a newline; an item may span several lines."""
    for line in lines:
        handle.write(line)
        handle.write("\n")


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with open(path, "w", newline="\n") as handle:
        _put_lines(handle, lines)


def _format_rows(block: np.ndarray) -> str:
    """CSV text of a 2-D block, every value as ``format(x, '.16e')`` spells it.

    One ``%`` operation formats the whole block: ``'%.16e' % x`` and
    ``format(x, '.16e')`` agree for every double, non-finite ones included.
    """
    rows, cols = block.shape
    row = ",".join(["%.16e"] * cols)
    return "\n".join([row] * rows) % tuple(block.ravel().tolist())


_NORMS_HEADER = "t,plant_l2,obs_err_l2,pred_err1_at_l,pred_err2_at_l,u1,u2,theta1_at_l,theta2_at_l"


def _norms_columns(traj) -> list[np.ndarray]:
    """The norms.csv columns, in header order, as views of the trajectory."""
    return [traj.t, traj.plant_l2, traj.obs_err_l2, *traj.pred_err_at_l.T, *traj.u.T,
            *traj.exit_values.T]


def _write_norms(path: Path, result: RunResult) -> None:
    columns = _norms_columns(result.trajectory)
    blocks = (
        _format_rows(np.column_stack([c[start:start + _NORMS_BLOCK_ROWS] for c in columns]))
        for start in range(0, len(columns[0]), _NORMS_BLOCK_ROWS)
    )
    _write_lines(path, itertools.chain([_NORMS_HEADER], blocks))


def _first_non_finite(result: RunResult) -> str:
    """Where the first non-finite value of norms.csv is: its step, time and column."""
    columns = _norms_columns(result.trajectory)
    bad = np.column_stack([~np.isfinite(c) for c in columns])
    j = int(np.argmax(bad.any(axis=1)))
    return f"step {j} (t={columns[0][j]:g}) in {_NORMS_HEADER.split(',')[int(np.argmax(bad[j]))]}"


def _snapshot_block(t: float, snap: np.ndarray, node_tails: list[str]) -> str:
    t_str = "%.16e" % t
    return (t_str + ("\n" + t_str).join(node_tails)) % tuple(snap.ravel().tolist())


def _snapshot_text(grid: Grid, batches) -> Iterable[str]:
    """snapshots.csv as text items: the header, then one block per snapshot.

    ``batches`` yields ``(times, fields)`` pairs, the snapshots in order.
    """
    # x is formatted once per run and t once per snapshot; only theta is per row
    node_tails = ["," + "%.16e" % x + ",%.16e,%.16e" for x in grid.nodes]
    yield "t,x,theta1,theta2"
    for times, fields in batches:
        for t, snap in zip(times, fields):
            yield _snapshot_block(t, snap, node_tails)


def _write_snapshots(path: Path, result: RunResult, grid: Grid) -> None:
    traj = result.trajectory
    _write_lines(path, _snapshot_text(grid, [(traj.snapshot_t, traj.snapshots)]))


def _writer_process(path: Path, grid: Grid, conn, run_end) -> None:
    """The writer process: snapshots.csv from the batches ``conn`` receives.

    What stops it, interrupts included, goes back over ``conn`` for the run
    to raise.  It closes its copy of the run's end first, so that a run that
    dies ends its input.
    """
    run_end.close()
    try:
        with open(path, "w", newline="\n") as handle:
            _put_lines(handle, _snapshot_text(grid, iter(conn.recv, None)))
    except BaseException as exc:
        try:
            conn.send(exc)
        except OSError:  # the run is gone: there is no one to tell
            pass
        except Exception:  # it will not pickle
            conn.send(RuntimeError(f"snapshot writer failed: {exc!r}"))


class _SnapshotWriter:
    """snapshots.csv, written by a forked process while the run steps.

    ``send`` is a ``Recorder``'s ``on_snapshots``: it passes each batch over
    a pipe, whose blocking bounds what is in flight.  The writer formats
    them as ``_write_snapshots`` does and never calls BLAS, whose threads a
    forked process lacks.  ``join`` ends the input, waits for the writer and
    raises what stopped it; the writer then has at most a pipe's worth of
    snapshots left to format.
    """

    def __init__(self, path: Path, grid: Grid):
        self.conn, writer_end = multiprocessing.Pipe()
        self.process = multiprocessing.get_context("fork").Process(
            target=_writer_process, args=(path, grid, writer_end, self.conn))
        with warnings.catch_warnings():
            # Python 3.12 warns on forking a process with threads; the writer needs none
            warnings.simplefilter("ignore", DeprecationWarning)
            self.process.start()
        writer_end.close()

    def send(self, times: np.ndarray, fields: np.ndarray) -> None:
        try:
            self.conn.send((times, fields))
        except OSError:  # the writer stopped: raise what stopped it
            self.join()
            raise

    def join(self) -> None:
        if self.process is None:
            return
        process, self.process = self.process, None
        with contextlib.suppress(OSError):  # a writer that stopped reads no more
            self.conn.send(None)
        try:
            error = self.conn.recv()
        except (EOFError, OSError):  # nothing to report, or killed mid-run
            error = None
        self.conn.close()
        process.join()
        if error is not None:
            raise error
        if process.exitcode:
            raise OSError(f"snapshot writer ended with exit code {process.exitcode}")


def _decay_text(label: str, decay) -> str:
    return (
        f"{label}: gamma_hat={decay.gamma_hat:.6g}, r_squared={decay.r_squared:.6g}, "
        f"window=[{decay.window[0]:g}, {decay.window[1]:g}], "
        f"floor_hit={_bool(decay.floor_hit)}, extinct={_bool(decay.extinct)}, "
        f"samples={decay.n_used}"
    )


def _write_summary(path: Path, result: RunResult, warnings: list[str]) -> None:
    s = result.summary
    lines = [
        "run summary",
        f"controller: {s.controller}",
        f"T: requested {s.T_requested:g}, used {s.T_used:g}",
        f"tau: requested {s.tau_requested:g}, used {s.tau_used:g}"
        + (" (snapped)" if s.tau_snapped else ""),
        render_condition(s.condition),
        _decay_text("plant decay", s.plant_decay),
    ]
    if s.obs_err_decay is not None:
        lines.append(_decay_text("observer-error decay", s.obs_err_decay))
    if warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in warnings)
    lines.append(f"finite: {_bool(s.finite)}")
    lines.append(f"wall time: {s.wall_time_s:.3f} s")
    _write_lines(path, lines)


def _emit_warnings(warnings: list[str]) -> None:
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)


def _checked(make, axis_values: dict, warnings: list[str]) -> Scenario:
    """``make(**axis_values)``'s scenario once it passes the run checks.

    Warnings not yet in ``warnings`` are appended to it.  A failed check at
    a swept tau names that tau.
    """
    try:
        scenario = make(**axis_values)
        found = check_scenario(scenario)
    except ConfigError as exc:
        if "tau" not in axis_values:
            raise
        raise ConfigError(
            f"every swept tau must give a valid run; tau={axis_values['tau']:g}: {exc}"
        ) from None
    warnings += [w for w in found if w not in warnings]
    return scenario


def cmd_run(cfg: Config) -> int:
    """One run; where it can fork, a second process writes snapshots.csv as it steps."""
    scenario = cfg.scenario
    check_scenario(scenario)  # a configuration error leaves the outputs alone
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = Grid(scenario.n_cells, scenario.params.l)
    norms, snapshots, summary = (outdir / f for f in ("norms.csv", "snapshots.csv", "summary.txt"))
    for path in (norms, snapshots, summary):
        open(path, "w").close()  # an unwritable output fails before the run
    writer = _SnapshotWriter(snapshots, grid) if hasattr(os, "fork") else None
    try:
        result = run_scenario(scenario, on_snapshots=None if writer is None else writer.send)
        run_warnings = result.summary.warnings  # the run's own tau/T snapping included
        _write_norms(norms, result)
        if writer is None:
            _write_snapshots(snapshots, result, grid)
        _write_summary(summary, result, run_warnings)
    finally:
        if writer is not None:
            writer.join()
    _emit_warnings(run_warnings)
    if not result.summary.finite:
        print(f"numerical failure: first non-finite value at {_first_non_finite(result)}",
              file=sys.stderr)
        return 3
    return 0


def _sweep_worker(payload: tuple[int, Scenario]) -> tuple[int, dict]:
    index, scenario = payload
    result = run_scenario(scenario)
    s = result.summary
    p = scenario.params
    sano = s.sano if scenario.controller == "sano_static" else None
    return index, {
        "h1": p.h1,
        "h2": p.h2,
        "l": p.l,
        "tau": p.tau,
        "k1": p.k1,
        "k2": p.k2,
        "n_cells": scenario.n_cells,
        "T": scenario.T,
        "controller": scenario.controller,
        "sano_k": scenario.sano_k,
        "theorem_valid": s.condition.gains.theorem_valid,
        "sano_in_window": None if sano is None else sano.in_window,
        "gamma_hat": s.plant_decay.gamma_hat,
        "r_squared": s.plant_decay.r_squared,
        "floor_hit": s.plant_decay.floor_hit,
        "extinct": s.plant_decay.extinct,
        "finite": s.finite,
    }


def _sweep_line(index: int, row: dict) -> str:
    """One sweep.csv row from a single ``%`` operation; floats as ``%.16e``."""
    sano_k, in_window = row["sano_k"], row["sano_in_window"]
    template = (
        "%s" + ",%.16e" * 6 + ",%s,%.16e,%s," + ("" if sano_k is None else "%.16e")
        + ",%s,%s,%.16e,%.16e,%s,%s"
    )
    values = (
        index, row["h1"], row["h2"], row["l"], row["tau"], row["k1"], row["k2"],
        row["n_cells"], row["T"], row["controller"],
        *(() if sano_k is None else (sano_k,)),
        _bool(row["theorem_valid"]), "" if in_window is None else _bool(in_window),
        row["gamma_hat"], row["r_squared"], _bool(row["floor_hit"]), _bool(row["extinct"]),
    )
    return template % values


def cmd_sweep(cfg: Config) -> int:
    """Every row is checked before the pool starts; the rows run in declaration order."""
    names, warnings = list(cfg.sweep_axes), []
    payloads = [
        (index, _checked(cfg.sweep_row, dict(zip(names, combo)), warnings))
        for index, combo in enumerate(itertools.product(*cfg.sweep_axes.values()))
    ]
    if not cfg.sweep_axes:  # its one row, the base scenario, is checked first
        raise ConfigError("sweep requires at least one non-empty axis in [sweep]")

    workers = cfg.workers if cfg.workers > 0 else (os.cpu_count() or 1)
    workers = min(workers, len(payloads))
    if workers <= 1:
        results = [_sweep_worker(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    results.sort(key=lambda item: item[0])

    header = (
        "index,h1,h2,l,tau,k1,k2,n_cells,T,controller,sano_k,theorem_valid,"
        "sano_in_window,gamma_hat,r_squared,floor_hit,extinct"
    )
    lines = [header] + [_sweep_line(index, row) for index, row in results]
    all_finite = all(row["finite"] for _, row in results)
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_lines(outdir / "sweep.csv", lines)
    _emit_warnings(warnings)
    if not all_finite:
        print("numerical failure: at least one sweep row is non-finite", file=sys.stderr)
        return 3
    return 0


def cmd_freqresp(cfg: Config) -> int:
    params = cfg.scenario.params
    grid = Grid(cfg.scenario.n_cells, params.l)
    header = ",".join(["omega", *(f"g{i}{j}_{kind}_{part}" for i in (1, 2) for j in (1, 2)
                                   for kind in ("formula", "measured") for part in ("re", "im")),
                       "rel_err"])
    start = time.perf_counter()
    gains = discrete_response(cfg.freq_omegas, params, grid, cfl=cfg.freq_cfl)
    rows = []
    for omega, measured in zip(cfg.freq_omegas, gains):
        formula = transfer_function(1j * omega, params).matrix
        rel_err = np.linalg.norm(measured - formula) / np.linalg.norm(formula)
        # in header order: for each g_ij, formula re, im, then measured re, im
        entries = np.stack([formula, measured], axis=-1).view(float)
        rows.append([omega, *entries.ravel(), rel_err])
    lines = [header] + ([_format_rows(np.array(rows))] if rows else [])
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_lines(outdir / "freqresp.csv", lines)
    if cfg.freq_cycles is not None:
        _emit_warnings(["freqresp.cycles no longer affects the exact response and will be removed"])
    print(f"freqresp: {len(cfg.freq_omegas)} frequencies in {time.perf_counter() - start:.3f} s")
    return 0


def cmd_check(cfg: Config) -> int:
    """The condition report, once the base scenario and every swept tau pass the run checks."""
    warnings: list[str] = []
    for axis_values in [{}, *({"tau": tau} for tau in cfg.sweep_axes.get("tau", []))]:
        _checked(cfg.to_scenario, axis_values, warnings)
    report = condition_report(cfg.scenario.params, k_sano=cfg.scenario.sano_k)
    print(render_condition(report))
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
