"""Command-line interface: run, sweep, freqresp, and check subcommands.

All numeric CSV output uses scientific notation with 17 significant
digits (lossless for doubles), comma separation, '.' decimals, and LF
line endings, so identical configurations produce byte-identical files.
Each number is exactly what ``'%.16e' % x`` makes of it.  A numpy kernel
(``_e16``) formats the run CSVs and freqresp.csv a few thousand values at
a time; a value it cannot settle, a near tie or one outside [1e-280,
1e300], inf and nan among them, is formatted by ``'%.16e' % x`` itself.
Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-finite values), 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
import threading
import time
import warnings
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .analysis import condition_report, discrete_response, render_condition, transfer_function
from .config import Config, parse_config
from .errors import ConfigError
from .grid import Grid
from .loop import RunResult, Scenario, check_scenario, run_scenario

# The kernel formats at most this many values at a time, so that its
# temporaries stay near 2 MB whatever the size of the run.
_CHUNK_VALUES = 2**14
_SLOTS = 25  # a record: the longest '%.16e' text, '-1.2345678901234567e-308', then a separator
# The decimal exponents p = floor(log10 |x|) of |x| in [1e-280, 1e300], the
# kernel's fast path, with one to spare at each end for a mend or a carry.
_P = (-282, 302)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _put_lines(handle, lines: Iterable) -> None:
    """Write each item followed by a newline: text in UTF-8, or the bytes of a buffer.

    An item may span several lines.
    """
    for line in lines:
        handle.write(line.encode() if isinstance(line, str) else line)
        handle.write(b"\n")


def _write_lines(path: Path, lines: Iterable) -> None:
    with open(path, "wb") as handle:
        _put_lines(handle, lines)


@functools.cache
def _e16_tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables, built on first use.

    10^(16 - p) for each p in ``_P`` as the unevaluated sum hi + lo of two
    doubles, with hi's Veltkamp split hi_hi + hi_lo; both parts come from
    Python int true division, which rounds correctly.  Then the ASCII of
    0000 .. 9999 as little-endian uint32, and for each p in ``_P`` its
    exponent field: 'e', sign, hundreds (0 when there are none), tens, ones.
    """
    hi, lo = [], []
    ten = 10 ** (_P[1] - 16)
    for _ in range(16, _P[1]):  # 10^-j = hi + lo with hi = m 2^-s exactly
        h = 1 / ten
        mantissa, exp = math.frexp(h)
        s = 53 - exp
        hi.append(h)
        lo.append(math.ldexp(((1 << s) - int(mantissa * 2**53) * ten) / ten, -s))
        ten //= 10
    for _ in range(_P[0], 17):
        h = float(ten)
        hi.append(h)
        lo.append(float(ten - int(h)))
        ten *= 10
    hi, lo = np.array(hi[::-1]), np.array(lo[::-1])  # indexed by p - _P[0]
    cut = 134217729.0 * hi  # 2^27 + 1
    hi_hi = cut - (cut - hi)
    d = np.arange(10000, dtype=np.uint16)
    digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], 1).astype(np.uint8) + 48
    p = np.arange(_P[0], _P[1] + 1)
    a = np.abs(p)
    fields = np.stack([np.full_like(p, ord("e")), np.where(p < 0, ord("-"), ord("+")),
                       np.where(a >= 100, 48 + a // 100, 0), 48 + a // 10 % 10, 48 + a % 10], 1)
    return hi, hi_hi, hi - hi_hi, lo, digits.view("<u4").ravel(), fields.astype(np.uint8)


def _scaled(a: np.ndarray, p: np.ndarray, tables) -> tuple[np.ndarray, ...]:
    """n = round(y) as int64, whether y < 10^16, and y - n, for y = a 10^(16 - p).

    y is held as ph + t: ph = fl(a hi), and t its error (Dekker's
    two-product) plus a lo.  ph is an integer wherever y >= 2^53.
    """
    hi, hi_hi, hi_lo, lo = (table[p - _P[0]] for table in tables[:4])
    ph = a * hi
    cut = 134217729.0 * a
    a_hi = cut - (cut - a)
    a_lo = a - a_hi
    t = (((a_hi * hi_hi - ph) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    whole = np.floor(t + 0.5)
    return ph.astype(np.int64) + whole.astype(np.int64), (ph - 1e16) + t < 0, t - whole


def _e16_chunk(x: np.ndarray, out: np.ndarray) -> int:
    """Write ``'%.16e' % v`` of each v of ``x`` into the first 24 slots of ``out``'s rows.

    The text is left-aligned and zero-padded.  The 17 digits are the integer
    n = round(y), y = |v| 10^(16 - p) with p = floor(log10 |v|); y is known
    to within 1e-14, so n is exact unless y's fraction lies within 1e-9 of
    one half.  log10 can miss p by one next to a power of ten: that shows as
    y < 10^16 or n > 10^17 and is mended once, and n = 10^17 carries to
    p + 1.  Within 0.05 of y = 10^16 both p and p - 1 spell the digits
    1.0000000000000000 at exponent p, so no guard is needed there.  An
    element that this cannot settle, a near or exact tie, or one whose |v|
    lies outside [1e-280, 1e300] (zero excepted), inf and nan among them,
    is formatted by ``'%.16e' % v`` itself.  Returns how many were.
    """
    tables = _e16_tables()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-280) & (a <= 1e300)
    a = np.where(fast, a, 1.0)
    p = np.floor(np.log10(a)).astype(np.int64)
    n, low, offset = _scaled(a, p, tables)
    wrong = np.flatnonzero(low | (n > 10**17))
    if len(wrong):
        p[wrong] += np.where(low[wrong], -1, 1)
        n[wrong], low[wrong], offset[wrong] = _scaled(a[wrong], p[wrong], tables)
    tie = np.abs(offset) > 0.5 - 1e-9
    fallback = np.flatnonzero(~zero & (~fast | tie | low | (n > 10**17)))
    carry = n == 10**17
    n[carry] = 10**16
    p += carry
    n[zero] = 0
    p[zero] = 0
    lead = n // 10**16
    rest = n - lead * 10**16
    upper = (rest // 10**8).astype(np.uint32)
    lower = (rest - upper.astype(np.int64) * 10**8).astype(np.uint32)
    digits = tables[4]
    groups = np.empty((len(x), 4), np.uint32)
    groups[:, 0] = digits[upper // 10000]
    groups[:, 1] = digits[upper % 10000]
    groups[:, 2] = digits[lower // 10000]
    groups[:, 3] = digits[lower % 10000]
    out[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    out[:, 1] = lead + 48
    out[:, 2] = ord(".")
    out[:, 3:19] = groups.view(np.uint8)
    out[:, 19:24] = tables[5][p - _P[0]]
    for i, value in zip(fallback, x[fallback].tolist()):
        text = ("%.16e" % value).encode()
        out[i, :24] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return len(fallback)


def _e16(values: np.ndarray, separators: bytes) -> np.ndarray:
    """Each value as a record: ``'%.16e' % v``, zero-padded to 24 bytes, then a separator.

    The separators follow in turn, value after value, so ``b",\n"`` makes
    rows of two; the records' shape is (number of values, ``_SLOTS``).
    """
    x = np.ascontiguousarray(values, dtype=float).reshape(-1)
    out = np.empty((len(x), _SLOTS), np.uint8)
    for lo in range(0, len(x), _CHUNK_VALUES):
        _e16_chunk(x[lo:lo + _CHUNK_VALUES], out[lo:lo + _CHUNK_VALUES])
    out.reshape(-1, len(separators), _SLOTS)[:, :, -1] = np.frombuffer(separators, np.uint8)
    return out


def _joined(records: np.ndarray) -> np.ndarray:
    """The records' text as one byte array, without their padding and last separator."""
    flat = records.reshape(-1)
    flat[-1] = 0
    return flat[flat != 0]


def _format_rows(block: np.ndarray) -> Iterator[np.ndarray]:
    """CSV text of a 2-D block, every value as ``'%.16e' % x`` spells it.

    The text comes in pieces of whole rows, each without its last newline.
    """
    rows, cols = block.shape
    step = max(1, _CHUNK_VALUES // cols)
    separators = b"," * (cols - 1) + b"\n"
    for lo in range(0, rows, step):
        yield _joined(_e16(block[lo:lo + step], separators))


_NORMS_HEADER = "t,plant_l2,obs_err_l2,pred_err1_at_l,pred_err2_at_l,u1,u2,theta1_at_l,theta2_at_l"


def _norms_columns(traj) -> list[np.ndarray]:
    """The norms.csv columns, in header order, as views of the trajectory."""
    return [traj.t, traj.plant_l2, traj.obs_err_l2, *traj.pred_err_at_l.T, *traj.u.T,
            *traj.exit_values.T]


def _write_norms(path: Path, result: RunResult) -> None:
    block = np.column_stack(_norms_columns(result.trajectory))
    _write_lines(path, itertools.chain([_NORMS_HEADER], _format_rows(block)))


def _first_non_finite(result: RunResult) -> str:
    """Where the first non-finite value of norms.csv is: its step, time and column."""
    columns = _norms_columns(result.trajectory)
    bad = np.column_stack([~np.isfinite(c) for c in columns])
    j = int(np.argmax(bad.any(axis=1)))
    return f"step {j} (t={columns[0][j]:g}) in {_NORMS_HEADER.split(',')[int(np.argmax(bad[j]))]}"


def _snapshot_rows(times: np.ndarray, fields: np.ndarray, x_records: np.ndarray
                   ) -> Iterator[np.ndarray]:
    """The snapshots.csv rows of one batch of snapshots, in pieces.

    ``x_records`` are the nodes' records; t is formatted once per snapshot
    and repeated down its rows, like x.
    """
    nodes = len(x_records)
    t_records = _e16(times, b",")
    theta = fields.reshape(-1, 2)
    step = max(1, _CHUNK_VALUES // 2)
    for lo in range(0, len(theta), step):
        rows = np.arange(lo, min(lo + step, len(theta)))
        block = np.empty((len(rows), 4, _SLOTS), np.uint8)
        block[:, 0] = t_records[rows // nodes]
        block[:, 1] = x_records[rows % nodes]
        block[:, 2:] = _e16(theta[lo:lo + step], b",\n").reshape(-1, 2, _SLOTS)
        yield _joined(block)


def _snapshot_text(grid: Grid, batches) -> Iterable:
    """snapshots.csv as items for ``_put_lines``: the header, then pieces of rows.

    ``batches`` yields ``(times, fields)`` pairs, the snapshots in order.
    """
    x_records = _e16(grid.nodes, b",")  # x is formatted once per run
    yield "t,x,theta1,theta2"
    for times, fields in batches:
        yield from _snapshot_rows(times, fields, x_records)


def _write_snapshots(path: Path, result: RunResult, grid: Grid) -> None:
    traj = result.trajectory
    _write_lines(path, _snapshot_text(grid, [(traj.snapshot_t, traj.snapshots)]))


def _received(conn, grid: Grid):
    """The batches a ``_SnapshotWriter`` sends: the times, then the fields' bytes."""
    while (times := conn.recv()) is not None:
        yield times, np.frombuffer(conn.recv_bytes()).reshape(len(times), grid.n_cells + 1, 2)


def _writer_process(path: Path, grid: Grid, conn, run_end) -> None:
    """The writer process: snapshots.csv from the batches ``conn`` receives.

    What stops it, interrupts included, goes back over ``conn`` for the run
    to raise.  It closes its copy of the run's end first, so that a run that
    dies ends its input.
    """
    run_end.close()
    try:
        _write_lines(path, _snapshot_text(grid, _received(conn, grid)))
    except BaseException as exc:
        try:
            conn.send(exc)
        except OSError:  # the run is gone: there is no one to tell
            pass
        except Exception:  # it will not pickle
            conn.send(RuntimeError(f"snapshot writer failed: {exc!r}"))


class _SnapshotWriter:
    """snapshots.csv, written by a forked process while the run goes on.

    ``send`` is a run's ``on_snapshots``: a thread passes its batch over a
    pipe, in pieces of at most ``PIECE_BYTES`` of fields sent as their bytes,
    so the writer holds one piece at a time and the run goes on meanwhile.
    A batch waits for the one before it to be sent.  An exact run sends
    every snapshot at once, so the writer formats them while the run formats
    norms.csv; the upwind loop sends them a block at a time as it steps.
    The fields must stay unchanged until they are sent.  The writer formats
    them as ``_write_snapshots`` does and calls no BLAS routine.  ``join``
    ends the input, waits for the writer and raises what stopped it.
    """

    PIECE_BYTES = 2**20

    def __init__(self, path: Path, grid: Grid):
        import multiprocessing  # here, so that freqresp and check never load it

        self.conn, writer_end = multiprocessing.Pipe()
        self.process = multiprocessing.get_context("fork").Process(
            target=_writer_process, args=(path, grid, writer_end, self.conn))
        with warnings.catch_warnings():
            # Python 3.12 warns on forking a process with threads; the writer needs none
            warnings.simplefilter("ignore", DeprecationWarning)
            self.process.start()
        writer_end.close()
        self.rows = max(1, self.PIECE_BYTES // (16 * (grid.n_cells + 1)))  # snapshots a piece
        self.sender, self.broken = None, False

    def _send(self, times: np.ndarray, fields: np.ndarray) -> None:
        try:
            for lo in range(0, len(times), self.rows):
                self.conn.send(times[lo:lo + self.rows])
                self.conn.send_bytes(np.ascontiguousarray(fields[lo:lo + self.rows]))
        except OSError:  # the writer stopped; join raises what stopped it
            self.broken = True

    def _sent(self) -> None:
        """Wait until the batch in flight is sent."""
        if self.sender is not None:
            self.sender.join()
            self.sender = None

    def send(self, times: np.ndarray, fields: np.ndarray) -> None:
        self._sent()
        if self.broken:
            self.join()
            raise OSError("the snapshot writer stopped")
        self.sender = threading.Thread(target=self._send, args=(times, fields), daemon=True)
        self.sender.start()

    def join(self) -> None:
        if self.process is None:
            return
        self._sent()
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


def _refusal(make, axis_values: dict) -> str | None:
    """Why ``make(**axis_values)``'s scenario fails the run checks, or None if it passes."""
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
    """One run; where it can fork, a second process writes snapshots.csv alongside it."""
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


# concurrent.futures.ProcessPoolExecutor, imported by the first sweep on a pool:
# run, freqresp, check and a one-worker sweep never load concurrent.futures
# and the logging it imports.
# It stays a module attribute, which benchmarks/tracer.py replaces with a timed pool.
ProcessPoolExecutor = None


def cmd_sweep(cfg: Config) -> int:
    """Every row is checked before the pool starts; the rows run in declaration order."""
    global ProcessPoolExecutor
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
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
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
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_lines(outdir / "freqresp.csv",
                 itertools.chain([header], _format_rows(np.array(rows)) if rows else []))
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
