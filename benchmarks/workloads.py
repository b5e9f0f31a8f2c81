"""Workloads of the pfhx benchmark and the gates that check their outputs.

A workload is a fixed list of ``pfhx`` CLI invocations on the configs
under ``data/``; one repetition runs each invocation once, in a fresh
process.  The gates count operations and failed operations:

* ``theorem_run``: one operation per invocation of ``pfhx run``;
* ``sweeps``: one operation per sweep row;
* ``freqresp``: one operation per frequency.

An operation fails on a nonzero exit code, missing or malformed output, or
a failed check.  The checks use tolerances rather than byte digests, so a
change that only moves rounding still passes.  Digests of the seed-
independent CSVs are compared with the stored seed references, for
information only.
"""

from __future__ import annotations

import cmath
import configparser
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

#: n_cells each workload runs at unless a smaller size is asked for.
DEFAULT_CELLS = {"theorem_run": 1000, "sweeps": 200, "freqresp": 400}

_FLAGS = {"grid.n_cells": "--n-cells", "run.seed": "--seed", "sweep.workers": "--workers"}

GAMMA_ATOL = 1e-3  # fitted vs analytic decay rate on theorem_run
PRED_ERR_MAX = 1e-12  # exit prediction error for t > tau when tau > l
REFERENCE_RTOL = 1e-9  # sweep gamma_hat and measured gains vs the seed reference
REL_ERR_SLACK = 1.01  # freqresp rel_err may not exceed the seed value by more


@dataclass(frozen=True)
class Invocation:
    """One ``pfhx`` CLI call; ``overrides`` are dotted config keys passed as flags."""

    command: str
    config: str
    overrides: dict
    label: str

    def argv(self, outdir: Path) -> list[str]:
        args = [self.command, "-c", str(DATA / self.config), "-o", str(outdir / self.label)]
        for key, value in self.overrides.items():
            args += [_FLAGS[key], str(value)]
        return args


@dataclass
class GateResult:
    """Operations attempted and failed, with a message per failure."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digests_checked: int = 0
    digests_matched: int = 0

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(message)

    def add(self, other: "GateResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        self.digests_checked += other.digests_checked
        self.digests_matched += other.digests_matched


@dataclass(frozen=True)
class Workload:
    name: str
    n_cells: int
    invocations: tuple

    def check(self, outdir: Path, returncodes: list[int]) -> GateResult:
        """Gate the outputs one repetition left under ``outdir``."""
        result = GateResult()
        gate = _GATES[self.name]
        for inv, rc in zip(self.invocations, returncodes):
            gate(inv, outdir / inv.label, rc, self.n_cells, result)
        return result


def make_workload(name: str, seed: int, n_cells: int | None = None) -> Workload:
    """Build a workload; the seed goes to every invocation as ``--seed``."""
    if name not in DEFAULT_CELLS:
        raise ValueError(f"unknown workload {name!r} (expected one of {sorted(DEFAULT_CELLS)})")
    n = n_cells or DEFAULT_CELLS[name]
    common = {"grid.n_cells": n, "run.seed": seed}
    pool = {**common, "sweep.workers": 2}
    invocations = {
        "theorem_run": (Invocation("run", "theorem_run.ini", common, "run"),),
        "sweeps": (
            Invocation("sweep", "tau_sweep.ini", pool, "tau_sweep"),
            Invocation("sweep", "sano_baseline.ini", pool, "sano_baseline"),
        ),
        "freqresp": (Invocation("freqresp", "freqresp.ini", common, "freqresp"),),
    }[name]
    return Workload(name=name, n_cells=n, invocations=invocations)


@cache
def reference() -> dict:
    return json.loads((DATA / "reference.json").read_text())


def read_config(name: str) -> dict:
    """The numbers a gate needs from one of the benchmark's configs."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string((DATA / name).read_text())
    values = {key: float(parser["params"][key]) for key in ("h1", "h2", "l", "tau", "k1", "k2")}
    values["T"] = float(parser["run"]["T"])
    values["snapshot_stride"] = float(parser["run"].get("snapshot_stride", "0.1"))
    sweep = parser["sweep"]["tau"] if parser.has_option("sweep", "tau") else ""
    values["sweep_tau"] = [float(v) for v in sweep.replace(",", " ").split()]
    return values


def coupling(s: float, h1: float, h2: float) -> tuple:
    """exp(A1 s) for A1 = [[-h1, h1], [h2, -h2]], as nested tuples."""
    rate = h1 + h2
    if rate == 0.0:
        return ((1.0, 0.0), (0.0, 1.0))
    e = math.exp(-rate * s)
    return (
        ((h2 + h1 * e) / rate, h1 * (1.0 - e) / rate),
        (h2 * (1.0 - e) / rate, (h1 + h2 * e) / rate),
    )


def analytic_decay_rate(p: dict) -> float:
    """-ln rho(F) / l with F = -[[0, k1], [k2, 0]] exp(A1 l), the rate for tau > l."""
    (e00, e01), (e10, e11) = coupling(p["l"], p["h1"], p["h2"])
    f00, f01 = -p["k1"] * e10, -p["k1"] * e11
    f10, f11 = -p["k2"] * e00, -p["k2"] * e01
    trace = f00 + f11
    disc = cmath.sqrt(trace * trace - 4.0 * (f00 * f11 - f01 * f10))
    rho = max(abs((trace + disc) / 2), abs((trace - disc) / 2))
    return -math.log(rho) / p["l"]


def snapshot_count(n_steps: int, dt: float, stride: float) -> int:
    """Snapshot times a run records: every stride, plus t = 0, without repeats."""
    marks = int(math.floor(n_steps * dt / stride + 1e-9))
    return len({0} | {min(n_steps, int(round(q * stride / dt))) for q in range(marks + 1)})


def _digest(result: GateResult, workload: str, n_cells: int, key: str, data: bytes) -> None:
    expected = reference()["digests"].get(workload, {}).get(str(n_cells), {}).get(key)
    if expected is None:
        return
    result.digests_checked += 1
    result.digests_matched += hashlib.sha256(data).hexdigest() == expected


def _gate_run(inv: Invocation, out: Path, rc: int, n_cells: int, result: GateResult) -> None:
    result.attempted += 1
    if rc != 0:
        result.fail(f"{inv.label}: pfhx run exited with code {rc}")
        return
    try:
        summary = (out / "summary.txt").read_text()
        norms = (out / "norms.csv").read_text().split("\n")
        snapshots = (out / "snapshots.csv").read_bytes()
    except (OSError, UnicodeDecodeError) as exc:
        result.fail(f"{inv.label}: unreadable output: {exc}")
        return
    p = read_config(inv.config)
    dt = p["l"] / n_cells
    n_steps = int(round(p["T"] / dt))
    m = max(1, int(round(p["tau"] / dt)))
    problems = []
    if "finite: true" not in summary.splitlines():
        problems.append("summary does not report finite: true")
    gamma = _summary_gamma(summary)
    analytic = analytic_decay_rate(p)
    if gamma is None or not abs(gamma - analytic) <= GAMMA_ATOL:
        problems.append(f"plant gamma_hat {gamma} is not within {GAMMA_ATOL} of {analytic:.6f}")
    rows = norms[1:-1] if norms[-1] == "" else norms[1:]
    if len(rows) != n_steps + 1:
        problems.append(f"norms.csv has {len(rows)} rows, expected {n_steps + 1}")
    worst = 0.0
    try:
        for j, line in enumerate(rows):
            values = [float(v) for v in line.split(",")]
            if len(values) != 9 or not all(math.isfinite(v) for v in values):
                raise ValueError(f"row {j} is malformed or not finite")
            if j > m:
                worst = max(worst, abs(values[3]), abs(values[4]))
    except ValueError as exc:
        problems.append(f"norms.csv: {exc}")
    if not worst <= PRED_ERR_MAX:
        problems.append(f"max |pred_err| at the exit for t > tau is {worst:.3g} > {PRED_ERR_MAX}")
    expected_snaps = snapshot_count(n_steps, dt, p["snapshot_stride"]) * (n_cells + 1)
    snap_rows = snapshots.count(b"\n") - 1
    if snap_rows != expected_snaps:
        problems.append(f"snapshots.csv has {snap_rows} rows, expected {expected_snaps}")
    if problems:
        result.fail(f"{inv.label}: " + "; ".join(problems))
    _digest(result, "theorem_run", n_cells, f"{inv.label}/snapshots.csv", snapshots)


def _summary_gamma(summary: str) -> float | None:
    for line in summary.splitlines():
        if line.startswith("plant decay: gamma_hat="):
            try:
                return float(line.split("=", 1)[1].split(",", 1)[0])
            except ValueError:
                return None
    return None


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REFERENCE_RTOL * abs(ref)


def _gate_sweep(inv: Invocation, out: Path, rc: int, n_cells: int, result: GateResult) -> None:
    p = read_config(inv.config)
    taus = p["sweep_tau"]
    result.attempted += len(taus)
    if rc != 0:
        result.fail(f"{inv.label}: pfhx sweep exited with code {rc}", len(taus))
        return
    try:
        data = (out / "sweep.csv").read_bytes()
        rows = {row["index"]: row for row in csv.DictReader(data.decode().splitlines())}
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        result.fail(f"{inv.label}: unreadable sweep.csv: {exc}", len(taus))
        return
    ref = reference()["sweeps"][str(n_cells)][inv.label]
    for index, tau in enumerate(taus):
        row = rows.get(str(index))
        problem = "missing row" if row is None else _sweep_row_problem(row, tau, p["l"], ref[index])
        if problem:
            result.fail(f"{inv.label} row {index}: {problem}")
    _digest(result, "sweeps", n_cells, f"{inv.label}/sweep.csv", data)


def _sweep_row_problem(row: dict, tau: float, l: float, ref_gamma: float | None) -> str | None:
    try:
        numbers = {k: float(row[k]) for k in ("h1", "h2", "l", "tau", "k1", "k2", "T", "gamma_hat")}
        r_squared = float(row["r_squared"])
    except (KeyError, TypeError, ValueError):
        return "malformed numbers"
    if not all(math.isfinite(v) for k, v in numbers.items() if k != "gamma_hat"):
        return "non-finite parameters"
    if abs(numbers["tau"] - tau) > 1e-12 * tau:
        return f"tau {numbers['tau']} != {tau}"
    gamma = numbers["gamma_hat"]
    if row.get("controller") == "observer_predictor" and tau > l:
        if row.get("extinct") != "true" or gamma != math.inf:
            return f"tau > l must be extinct, got extinct={row.get('extinct')} gamma_hat={gamma}"
        return None
    if row.get("extinct") != "false" or not (math.isfinite(gamma) and math.isfinite(r_squared)):
        return f"expected a finite decay fit, got gamma_hat={gamma} r_squared={r_squared}"
    if ref_gamma is None or not _close(gamma, ref_gamma):
        return f"gamma_hat {gamma!r} differs from the reference {ref_gamma!r}"
    return None


def _gate_freqresp(inv: Invocation, out: Path, rc: int, n_cells: int, result: GateResult) -> None:
    ref = reference()["freqresp"][str(n_cells)]
    result.attempted += len(ref)
    if rc != 0:
        result.fail(f"{inv.label}: pfhx freqresp exited with code {rc}", len(ref))
        return
    try:
        data = (out / "freqresp.csv").read_bytes()
        rows = list(csv.DictReader(data.decode().splitlines()))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        result.fail(f"{inv.label}: unreadable freqresp.csv: {exc}", len(ref))
        return
    for i, expected in enumerate(ref):
        problem = "missing row" if i >= len(rows) else _freq_row_problem(rows[i], expected)
        if problem:
            result.fail(f"{inv.label} omega={expected['omega']}: {problem}")
    _digest(result, "freqresp", n_cells, f"{inv.label}/freqresp.csv", data)


def _freq_row_problem(row: dict, expected: dict) -> str | None:
    try:
        omega = float(row["omega"])
        measured = [
            complex(float(row[f"g{ij}_measured_re"]), float(row[f"g{ij}_measured_im"]))
            for ij in ("11", "12", "21", "22")
        ]
        formula = [float(row[f"g{ij}_formula_{part}"]) for ij in ("11", "12", "21", "22") for part in ("re", "im")]
        rel_err = float(row["rel_err"])
    except (KeyError, TypeError, ValueError):
        return "malformed numbers"
    if omega != expected["omega"]:
        return f"omega {omega} != {expected['omega']}"
    if not all(math.isfinite(v) for v in formula):
        return "non-finite formula gains"
    for got, (re, im) in zip(measured, expected["measured"]):
        ref = complex(re, im)
        if not abs(got - ref) <= REFERENCE_RTOL * abs(ref):
            return f"measured gain {got} differs from the reference {ref}"
    if not rel_err <= expected["rel_err"] * REL_ERR_SLACK:
        return f"rel_err {rel_err:.6g} exceeds {REL_ERR_SLACK} x the seed value {expected['rel_err']:.6g}"
    return None


_GATES = {"theorem_run": _gate_run, "sweeps": _gate_sweep, "freqresp": _gate_freqresp}
