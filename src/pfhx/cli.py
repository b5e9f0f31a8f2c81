"""Command-line interface: run, sweep, freqresp, and check subcommands.

All numeric CSV output uses scientific notation with 17 significant
digits (lossless for doubles), comma separation, '.' decimals, and LF
line endings, so identical configurations produce byte-identical files.
Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-finite values), 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import (
    condition_report,
    measure_frequency_responses,
    render_condition,
    transfer_function,
)
from .config import Config, parse_config
from .errors import ConfigError
from .grid import Grid
from .loop import RunResult, Scenario, run_scenario

_FLAG_MAP = {
    "h1": "params.h1",
    "h2": "params.h2",
    "l": "params.l",
    "tau": "params.tau",
    "k1": "params.k1",
    "k2": "params.k2",
    "T": "run.T",
    "n_cells": "grid.n_cells",
    "controller": "run.controller",
    "sano_k": "run.sano_k",
    "seed": "run.seed",
    "solver": "run.solver",
    "cfl": "run.cfl",
    "snapshot_stride": "run.snapshot_stride",
    "out": "output.dir",
    "workers": "sweep.workers",
    "omega": "freqresp.omega",
    "cycles": "freqresp.cycles",
}

_NORMS_BLOCK_ROWS = 4096


def _fmt(value: float) -> str:
    return format(float(value), ".16e")


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each item followed by a newline; an item may span several lines."""
    with open(path, "w", newline="\n") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")


def _format_rows(block: np.ndarray) -> str:
    """CSV text of a 2-D block, every value as ``_fmt`` spells it.

    One ``%`` operation formats the whole block: ``'%.16e' % x`` and
    ``format(x, '.16e')`` agree for every double, non-finite ones included.
    """
    rows, cols = block.shape
    row = ",".join(["%.16e"] * cols)
    return "\n".join([row] * rows) % tuple(block.ravel().tolist())


def _write_norms(path: Path, result: RunResult) -> None:
    traj = result.trajectory
    table = np.column_stack(
        [traj.t, traj.plant_l2, traj.obs_err_l2, traj.pred_err_at_l, traj.u, traj.exit_values]
    )
    header = "t,plant_l2,obs_err_l2,pred_err1_at_l,pred_err2_at_l,u1,u2,theta1_at_l,theta2_at_l"
    blocks = (
        _format_rows(table[start:start + _NORMS_BLOCK_ROWS])
        for start in range(0, len(table), _NORMS_BLOCK_ROWS)
    )
    _write_lines(path, itertools.chain([header], blocks))


def _snapshot_block(t: float, snap: np.ndarray, node_tails: list[str]) -> str:
    t_str = _fmt(t)
    return (t_str + ("\n" + t_str).join(node_tails)) % tuple(snap.ravel().tolist())


def _write_snapshots(path: Path, result: RunResult, grid: Grid) -> None:
    traj = result.trajectory
    # x is formatted once per run and t once per snapshot; only theta is per row
    node_tails = ["," + _fmt(x) + ",%.16e,%.16e" for x in grid.nodes]
    blocks = (
        _snapshot_block(t, snap, node_tails)
        for t, snap in zip(traj.snapshot_t, traj.snapshots)
    )
    _write_lines(path, itertools.chain(["t,x,theta1,theta2"], blocks))


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


def cmd_run(cfg: Config) -> int:
    scenario = cfg.scenario
    result = run_scenario(scenario)
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = Grid(scenario.n_cells, scenario.params.l)
    warnings = result.summary.warnings  # the run's own tau/T snapping included
    _write_norms(outdir / "norms.csv", result)
    _write_snapshots(outdir / "snapshots.csv", result, grid)
    _write_summary(outdir / "summary.txt", result, warnings)
    _emit_warnings(warnings)
    if not result.summary.finite:
        print("numerical failure: trajectory contains non-finite values", file=sys.stderr)
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
    """One sweep.csv row from a single ``%`` operation; floats as ``_fmt`` spells them."""
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
    if not cfg.sweep_axes:
        raise ConfigError("sweep requires at least one non-empty axis in [sweep]")
    axes = list(cfg.sweep_axes.items())  # declaration order
    names = [name for name, _ in axes]
    combos = list(itertools.product(*(values for _, values in axes)))
    payloads = []
    for index, combo in enumerate(combos):
        overrides = dict(zip(names, combo))
        payloads.append((index, cfg.to_scenario(**overrides)))

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
    _emit_warnings(cfg.warnings)
    if not all_finite:
        print("numerical failure: at least one sweep row is non-finite", file=sys.stderr)
        return 3
    return 0


def cmd_freqresp(cfg: Config) -> int:
    params = cfg.scenario.params
    grid = Grid(cfg.scenario.n_cells, params.l)
    header = ["omega"]
    for i in (1, 2):
        for j in (1, 2):
            header += [
                f"g{i}{j}_formula_re",
                f"g{i}{j}_formula_im",
                f"g{i}{j}_measured_re",
                f"g{i}{j}_measured_im",
            ]
    header.append("rel_err")
    lines = [",".join(header)]
    start = time.perf_counter()
    try:
        gains = measure_frequency_responses(
            cfg.freq_omegas, params, grid, cycles=cfg.freq_cycles, cfl=cfg.freq_cfl
        )
    except ValueError as exc:  # the config checks leave only a too-long horizon
        raise ConfigError(f"freqresp.omega is too small: {exc}") from None
    for omega, measured in zip(cfg.freq_omegas, gains):
        formula = transfer_function(1j * omega, params).matrix
        rel_err = float(np.linalg.norm(measured - formula) / np.linalg.norm(formula))
        row = [_fmt(omega)]
        for i in range(2):
            for j in range(2):
                row += [
                    _fmt(formula[i, j].real),
                    _fmt(formula[i, j].imag),
                    _fmt(measured[i, j].real),
                    _fmt(measured[i, j].imag),
                ]
        row.append(_fmt(rel_err))
        lines.append(",".join(row))
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_lines(outdir / "freqresp.csv", lines)
    _emit_warnings(cfg.warnings)
    print(f"freqresp: {len(cfg.freq_omegas)} frequencies in {time.perf_counter() - start:.3f} s")
    return 0


def cmd_check(cfg: Config) -> int:
    report = condition_report(cfg.scenario.params, k_sano=cfg.scenario.sano_k)
    print(render_condition(report))
    _emit_warnings(cfg.warnings)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", required=True, help="path to INI config file")
    common.add_argument("-o", "--out", help="output directory (overrides output.dir)")
    for flag in ("h1", "h2", "l", "tau", "k1", "k2", "T", "cfl", "snapshot-stride", "sano-k"):
        common.add_argument(f"--{flag}", type=float, dest=flag.replace("-", "_"))
    common.add_argument("--n-cells", type=int, dest="n_cells")
    common.add_argument("--seed", type=int)
    common.add_argument("--controller")
    common.add_argument("--solver")

    parser = argparse.ArgumentParser(
        prog="pfhx",
        description="Delay-compensated boundary control of a parallel-flow heat exchanger",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="single simulation run")
    sweep = sub.add_parser("sweep", parents=[common], help="Cartesian parameter sweep")
    sweep.add_argument("--workers", type=int, help="worker processes (0 = all cores)")
    freq = sub.add_parser("freqresp", parents=[common], help="formula vs measured frequency response")
    freq.add_argument("--omega", help="comma-separated frequencies")
    freq.add_argument("--cycles", type=int)
    sub.add_parser("check", parents=[common], help="condition report only, no simulation")
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict[str, object]:
    overrides: dict[str, object] = {}
    for attr, dotted in _FLAG_MAP.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[dotted] = value
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        cfg = parse_config(text, overrides=_collect_overrides(args))
        handler = {
            "run": cmd_run,
            "sweep": cmd_sweep,
            "freqresp": cmd_freqresp,
            "check": cmd_check,
        }[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
