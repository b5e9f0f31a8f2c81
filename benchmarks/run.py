"""Benchmark of the pfhx command-line tool.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs ``src/pfhx`` from that checkout
and needs nothing beyond the standard library and pfhx's own dependencies.
The workloads (see ``workloads.py``) are closed loops of one client: each
repetition runs the workload's ``pfhx`` invocations one after another, each
in a fresh child process, and the next repetition starts when the last one
ends.  At most two processes compute at a time (a sweep's two pool workers).

The first repetition warms the file cache and is discarded.  Then, with
``--trace 0``, it repeats the workload untraced until ``--seconds`` have
passed (at least ``MIN_REPS`` times), runs about ``SETUP_PROBES`` set-up
probes spread between the repetitions, and reports per workload:

    wall_s       wall time of one repetition, spawn to exit
    setup_s      import pfhx + parse_config + to_scenario for every scenario
    cpu_s        user + system CPU of the children and their pool workers
    peak_rss_mb  maximum RSS of the children and their pool workers

With ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of ``tracer.LAYER_UNITS``: medians over the traced
repetitions, whose exact counts must repeat, plus the tracing overhead.

Every output is gated (``workloads.py``); ``failed_ops_ratio`` is failed over
attempted operations.  A table goes to stdout, the full record with
provenance to ``.bench_out/BENCH_<workload>_<e2e|trace>_seed<N>.json``, and
the last line of stdout is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9
MIN_REPS = 2
CHILD_TIMEOUT_S = 150
TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    rss_mb: float
    gate: workloads.GateResult
    layers: dict = field(default_factory=dict)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args: list[str], log: Path) -> Child:
    """Run child.py with ``args`` and wait for it and its process group."""
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT,
            env=env,
            stdout=out,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def run_rep(workload: workloads.Workload, repdir: Path, traced: bool) -> Rep:
    """One repetition: every invocation once, then the gates."""
    repdir.mkdir(parents=True)
    children, agg = [], None
    for inv in workload.invocations:
        argv = inv.argv(repdir)
        log = repdir / f"{inv.label}.log"
        if not traced:
            children.append(run_child(["run", *argv], log))
            continue
        out_json = repdir / f"{inv.label}.trace.json"
        trace_dir = repdir / f"{inv.label}.trace"
        trace_dir.mkdir()
        children.append(run_child(["trace", str(out_json), str(trace_dir), *argv], log))
        if out_json.is_file():
            part = json.loads(out_json.read_text())["trace"]
            if agg is None:
                agg = part
            else:
                tracer.merge(agg, part)
    gate = workload.check(repdir, [c.rc for c in children])
    for child, inv in zip(children, workload.invocations):
        if child.rc != 0:
            tail = (repdir / f"{inv.label}.log").read_text(errors="replace")[-400:]
            gate.failures.append(f"{inv.label} log: {tail.strip()}")
    shutil.rmtree(repdir)
    return Rep(
        wall_s=sum(c.wall_s for c in children),
        cpu_s=sum(c.cpu_s for c in children),
        rss_mb=max(c.rss_mb for c in children),
        gate=gate,
        layers={} if agg is None else tracer.layer_metrics(agg),
    )


def setup_probe(workload: workloads.Workload, tmp: Path, index: int) -> float | None:
    """Time one set-up in a fresh process; None if it failed."""
    spec = tmp / f"setup-{index}.spec.json"
    out = tmp / f"setup-{index}.json"
    spec.write_text(
        json.dumps(
            [{"config": str(workloads.DATA / inv.config), "overrides": inv.overrides} for inv in workload.invocations]
        )
    )
    child = run_child(["setup", str(spec), str(out)], tmp / f"setup-{index}.log")
    if child.rc != 0 or not out.is_file():
        return None
    data = json.loads(out.read_text())
    expected = sum(len(workloads.read_config(inv.config)["sweep_tau"]) or 1 for inv in workload.invocations)
    return data["setup_s"] if data["scenarios"] == expected else None


def summarize(values: list[float], unit: str) -> dict:
    """Median, quartiles, tail percentile (if the sample allows one) and count."""
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n >= 2 else (ordered[0],) * 3
    tail = None
    if n >= 2 * TAIL_SAMPLES:  # only percentiles at or above the median
        k = n - TAIL_SAMPLES - 1
        tail = {"percentile": 100.0 * (k + 1) / n, "value": ordered[k]}
    return {
        "value": statistics.median(ordered),
        "unit": unit,
        "n": n,
        "q1": q1,
        "q3": q3,
        "tail": tail,
        "samples": values,
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, n_cells: int | None = None) -> dict:
    """Measure one workload and return the full result record."""
    workload = workloads.make_workload(name, seed, n_cells)
    OUT.mkdir(exist_ok=True)
    load_before, steal_before = os.getloadavg(), _steal_s()
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    ops = workloads.GateResult()
    problems: list[str] = []
    plain: list[Rep] = []
    traced: list[Rep] = []
    setup: list[float] = []

    def rep(is_traced: bool) -> Rep:
        result = run_rep(workload, tmp / f"rep-{len(plain) + len(traced) + 1}", is_traced)
        ops.add(result.gate)
        return result

    try:
        warmup = run_rep(workload, tmp / "warmup", False)
        ops.add(warmup.gate)
        # Set-up probes are spread over the run, a few after each repetition,
        # so that they sample the same load as the repetitions do.
        expected_reps = max(MIN_REPS, math.ceil(seconds / warmup.wall_s))
        probes_per_rep = 0 if trace else math.ceil(SETUP_PROBES / expected_reps)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(traced if trace else plain) < MIN_REPS:
            plain.append(rep(False))
            if trace:
                traced.append(rep(True))
            for _ in range(probes_per_rep):
                value = setup_probe(workload, tmp, len(setup) + len(problems))
                if value is None:
                    problems.append("a set-up probe failed")
                else:
                    setup.append(value)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if trace:
        metrics = {}
        for metric, unit in tracer.LAYER_UNITS.items():
            if metric != "trace.overhead_ratio":
                metrics[metric] = summarize([r.layers.get(metric, 0.0) for r in traced], unit)
        overhead = statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain) - 1.0
        metrics["trace.overhead_ratio"] = summarize([overhead], "ratio")
        for metric in tracer.EXACT_COUNTS:
            seen = {r.layers.get(metric) for r in traced}
            if len(seen) != 1:
                problems.append(f"{metric} differs between traced repetitions: {sorted(map(str, seen))}")
    else:
        samples = {
            "wall_s": [r.wall_s for r in plain],
            "setup_s": setup or [0.0],
            "cpu_s": [r.cpu_s for r in plain],
            "peak_rss_mb": [r.rss_mb for r in plain],
        }
        metrics = {name: summarize(samples[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return {
        "workload": name,
        "n_cells": workload.n_cells,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": ops.failed == 0 and not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failed_ops_ratio": ops.failed / ops.attempted if ops.attempted else 1.0,
        "failures": (ops.failures + problems)[:20],
        "digests": {"checked": ops.digests_checked, "matched": ops.digests_matched},
        "repetitions": {"warmup": 1, "untraced": len(plain), "traced": len(traced)},
        "metrics": metrics,
        "provenance": provenance(load_before, os.getloadavg(), steal_before, _steal_s()),
    }


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read_text(index / "level"), _read_text(index / "size")
        if level and size and int(level) >= best[0]:
            best = (int(level), f"L{int(level)} {size.strip()}")
    return best[1]


def _git_commit() -> str:
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read_text(ROOT / ".git" / ref)
    if direct:
        return direct.strip()
    for line in (_read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def _steal_s() -> float | None:
    """CPU time the hypervisor took from this machine since boot, if reported."""
    fields = (_read_text(Path("/proc/stat")) or "").split("\n", 1)[0].split()
    if len(fields) > 8 and fields[0] == "cpu":
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return None


def provenance(load_before, load_after, steal_before, steal_after) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "git_commit": _git_commit(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        # Time the host ran other guests on this machine's CPUs during the run;
        # it slows the workloads without showing in the load average.
        "host_steal_s": None if steal_before is None or steal_after is None else steal_after - steal_before,
    }


def summary_line(result: dict) -> str:
    """The last stdout line: correctness, operation counts and metric medians."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
        }
    )


def render(result: dict, path: Path) -> str:
    """Human-readable table of every metric with its unit and sample count."""
    lines = [
        f"pfhx benchmark: workload={result['workload']} n_cells={result['n_cells']} "
        f"seed={result['seed']} seconds={result['seconds']} trace={int(result['trace'])}",
        f"{'metric':<24}{'unit':>7}{'median':>14}{'q1':>14}{'q3':>14}{'tail':>22}{'n':>5}",
    ]
    for name, m in result["metrics"].items():
        tail = f"p{m['tail']['percentile']:.0f}={m['tail']['value']:.6g}" if m["tail"] else "n/a (n<20)"
        lines.append(
            f"{name:<24}{m['unit']:>7}{m['value']:>14.6g}{m['q1']:>14.6g}{m['q3']:>14.6g}{tail:>22}{m['n']:>5}"
        )
    lines.append(
        f"{'failed_ops_ratio':<24}{'ratio':>7}{result['failed_ops_ratio']:>14.6g}"
        f"   ({result['failed']} of {result['attempted']} operations failed)"
    )
    lines.append(
        f"CSV digests equal to the seed reference: {result['digests']['matched']}"
        f"/{result['digests']['checked']} (information only)"
    )
    steal = result["provenance"]["host_steal_s"]
    lines.append(f"host steal time during the run: {'n/a' if steal is None else f'{steal:.2f} s'}")
    lines.extend(f"FAILED: {message}" for message in result["failures"])
    lines.append(f"result: {path}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DEFAULT_CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pfhx" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'pfhx'} not found; run from a pfhx checkout", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    mode = "trace" if args.trace else "e2e"
    path = OUT / f"BENCH_{args.workload}_{mode}_seed{args.seed}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(render(result, path.relative_to(ROOT)))
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
