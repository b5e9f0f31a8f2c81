"""Call-boundary tracer for the pfhx benchmark, installed from outside.

``install`` wraps the entry points of each ``pfhx`` module at every
binding a caller uses: ``loop`` imports ``_l2``, ``_advance_exact`` and
``fit_decay`` by name and ``solver`` imports ``_l2``, so patching
``pfhx.grid._l2`` alone would record nothing in the loop.  Each wrapper
records a span (calls, inclusive time, and the time covered by the spans
nested directly inside it, which gives self time).  Spans are aggregated
per name in memory.

Sweep workers are separate processes.  ``pfhx.cli._sweep_worker`` is
replaced by ``sweep_worker``, which in a worker resets the inherited
tracer, runs the task and writes the worker's aggregate to the trace
directory; ``collect`` merges those files into the parent's aggregate.
``pfhx.cli.ProcessPoolExecutor`` is replaced by ``TimedPool`` to time the
pool's lifetime.

Nothing here imports ``pfhx`` until ``install`` runs, so the benchmark
harness can import ``layer_metrics`` without it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

_clock = time.perf_counter

TRACE_DIR_ENV = "PFHX_BENCH_TRACE_DIR"
OWNER_PID_ENV = "PFHX_BENCH_TRACE_OWNER"
STEP_BIN_S = 1e-7  # resolution of the step-interval histogram

# Per-layer metrics: name -> unit.  Names are the module whose boundary
# the number is taken at.
LAYER_UNITS = {
    "config.parse_s": "s",
    "profiles.calls": "count",
    "coupling.calls": "count",
    "grid.l2_calls": "count",
    "grid.l2_s": "s",
    "grid.l2_useful_ratio": "ratio",
    "history.at_calls": "count",
    "history.append_calls": "count",
    "history.s": "s",
    "solver.advance_calls": "count",
    "solver.advance_s": "s",
    "solver.record_s": "s",
    "solver.upwind_s": "s",
    "solver.cell_steps": "count",
    "observer.calls": "count",
    "observer.s": "s",
    "loop.run_s": "s",
    "loop.self_s": "s",
    "loop.step_us_p50": "us",
    "loop.step_us_p99": "us",
    "analysis.fit_calls": "count",
    "analysis.fit_s": "s",
    "analysis.freqresp_s": "s",
    "cli.norms_csv_s": "s",
    "cli.snapshots_csv_s": "s",
    "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "cli.sweep_worker_s": "s",
    "cli.sweep_worker_max_s": "s",
    "cli.pool_busy_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Counts that must repeat exactly between traced repetitions.
EXACT_COUNTS = (
    "solver.advance_calls",
    "solver.cell_steps",
    "grid.l2_calls",
    "history.at_calls",
    "history.append_calls",
    "profiles.calls",
    "coupling.calls",
    "observer.calls",
    "analysis.fit_calls",
)


class Tracer:
    """Span aggregates and counters of one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.stack: list[list] = []  # open spans, each [child_s]
        self.counts: Counter = Counter()
        self.step_hist: Counter = Counter()  # advance-to-advance interval bins
        self.last_advance: float | None = None
        self.norms_written = False
        self.tasks: list[tuple[float, float]] = []  # sweep tasks run here
        self.pools: list[tuple[int, float, float]] = []  # (workers, start, end)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.step_hist.clear()
        self.last_advance = None
        self.norms_written = False
        self.tasks.clear()
        self.pools.clear()

    def wrap(self, name, fn, on_call=None, on_return=None):
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[0]
            if on_return is not None:
                on_return(args, kwargs, result, start)
            return result

        return traced

    def snapshot(self) -> dict:
        """This process's aggregate, as JSON-ready data."""
        l2_calls = self.spans.get("grid.l2", [0])[0]
        # A run writes every norm it computes to norms.csv; elsewhere only
        # the samples inside a decay-fit window are used.
        useful = l2_calls if self.norms_written else min(self.counts["fit_samples"], l2_calls)
        return {
            "spans": self.spans,
            "counts": dict(self.counts, l2_useful=useful),
            "step_hist": {str(k): v for k, v in self.step_hist.items()},
            "tasks": self.tasks,
            "pools": self.pools,
        }


_active: Tracer | None = None
_real: dict = {}


def _rebind(fn, replacement) -> None:
    """Replace ``fn`` in every loaded pfhx module that binds it by name."""
    for name, module in list(sys.modules.items()):
        if name == "pfhx" or name.startswith("pfhx."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap the pfhx entry points once per process and return the tracer."""
    global _active
    if _active is not None:
        return _active
    import pfhx.analysis
    import pfhx.cli
    import pfhx.config
    import pfhx.coupling
    import pfhx.grid
    import pfhx.history
    import pfhx.loop
    import pfhx.observer
    import pfhx.profiles
    import pfhx.solver

    tr = Tracer()

    def count_advance(args, kwargs, result, start):
        tr.counts["cell_steps"] += args[0].shape[0]
        if tr.last_advance is not None:
            tr.step_hist[int(round((start - tr.last_advance) / STEP_BIN_S))] += 1
        tr.last_advance = start

    def count_upwind(args, kwargs, result, start):
        tr.counts["cell_steps"] += (len(result.t) - 1) * args[0].shape[0]

    def new_run(args, kwargs):
        tr.last_advance = None

    def count_fit(args, kwargs):
        t = args[0]
        window = kwargs.get("window", args[2] if len(args) > 2 else None)
        if window is None:
            tr.counts["fit_samples"] += len(t)
        else:
            tr.counts["fit_samples"] += int(((t >= window[0] - 1e-12) & (t <= window[1] + 1e-12)).sum())

    def norms_written(args, kwargs):
        tr.norms_written = True

    def count_bytes(args, kwargs, result, start):
        tr.counts["bytes_written"] += os.path.getsize(args[0])

    # An entry point that a later version of pfhx no longer has is skipped,
    # so its layer reads zero instead of the traced run failing.
    functions = [
        ("config.parse", pfhx.config, "parse_config", {}),
        ("profiles", pfhx.profiles, "profile_array", {}),
        ("profiles", pfhx.profiles, "input_function", {}),
        ("coupling", pfhx.coupling, "coupling_matrix", {}),
        ("grid.l2", pfhx.grid, "_l2", {}),
        ("solver.advance", pfhx.solver, "_advance_exact", {"on_return": count_advance}),
        ("solver.upwind", pfhx.solver, "solve_upwind", {"on_return": count_upwind}),
        ("observer", pfhx.observer, "observer_step", {}),
        ("observer", pfhx.observer, "predict", {}),
        ("observer", pfhx.observer, "predict_exit", {}),
        ("observer", pfhx.observer, "control_law", {}),
        ("loop.run", pfhx.loop, "run_scenario", {"on_call": new_run}),
        ("analysis.fit", pfhx.analysis, "fit_decay", {"on_call": count_fit}),
        ("analysis.freqresp", pfhx.analysis, "measure_frequency_response", {}),
        ("cli.norms_csv", pfhx.cli, "_write_norms", {"on_call": norms_written}),
        ("cli.snapshots_csv", pfhx.cli, "_write_snapshots", {}),
        ("cli.write", pfhx.cli, "_write_lines", {"on_return": count_bytes}),
    ]
    for name, module, attr, hooks in functions:
        fn = getattr(module, attr, None)
        if fn is not None:
            _rebind(fn, tr.wrap(name, fn, **hooks))
    methods = [
        ("config.parse", getattr(pfhx.config, "Config", None), "to_scenario"),
        ("history.at", getattr(pfhx.history, "InputHistory", None), "at"),
        ("history.append", getattr(pfhx.history, "InputHistory", None), "append"),
        ("solver.record", getattr(pfhx.solver, "Recorder", None), "record"),
    ]
    for name, cls, attr in methods:
        if hasattr(cls, attr):
            setattr(cls, attr, tr.wrap(name, getattr(cls, attr)))
    if hasattr(pfhx.cli, "_sweep_worker"):
        _real["sweep_worker"] = pfhx.cli._sweep_worker
        pfhx.cli._sweep_worker = sweep_worker
        pfhx.cli.ProcessPoolExecutor = TimedPool
    _active = tr
    return tr


def sweep_worker(payload):
    """Traced stand-in for ``pfhx.cli._sweep_worker``; picklable by name."""
    tr = install()
    in_worker = str(os.getpid()) != os.environ.get(OWNER_PID_ENV)
    if in_worker:
        tr.reset()  # a forked worker inherits the parent's aggregate
    start = _clock()
    result = _real["sweep_worker"](payload)
    tr.tasks.append((start, _clock()))
    if in_worker:
        path = Path(os.environ[TRACE_DIR_ENV]) / f"worker-{os.getpid()}-{payload[0]}.json"
        path.write_text(json.dumps(tr.snapshot()))
    return result


class TimedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that records its worker count and lifetime."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        self._bench_workers = max_workers
        self._bench_start = _clock()

    def __exit__(self, *exc):
        try:
            return super().__exit__(*exc)
        finally:
            _active.pools.append((self._bench_workers, self._bench_start, _clock()))


def collect(tr: Tracer, trace_dir: Path) -> dict:
    """Merge the worker files under ``trace_dir`` into this process's aggregate."""
    merged = tr.snapshot()
    for path in sorted(trace_dir.glob("worker-*.json")):
        merge(merged, json.loads(path.read_text()))
    return merged


def merge(into: dict, other: dict) -> None:
    for name, (calls, total, child) in other["spans"].items():
        rec = into["spans"].setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += total
        rec[2] += child
    for key, source in (("counts", other["counts"]), ("step_hist", other["step_hist"])):
        target = into[key]
        for k, v in source.items():
            target[k] = target.get(k, 0) + v
    into["tasks"] = list(into["tasks"]) + list(other["tasks"])
    into["pools"] = list(into["pools"]) + list(other["pools"])


def _hist_percentile(hist: dict, q: float) -> float:
    """The q-quantile of a {bin: count} histogram, in seconds."""
    total = sum(hist.values())
    if total == 0:
        return 0.0
    rank = q * (total - 1)
    seen = 0
    for key in sorted(hist, key=int):
        seen += hist[key]
        if seen > rank:
            return int(key) * STEP_BIN_S
    return int(max(hist, key=int)) * STEP_BIN_S


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, except trace.overhead_ratio."""
    spans, counts = agg["spans"], agg["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def child(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    # Writer time: the CSV writer spans plus _write_lines calls not nested in them.
    write_s = total("cli.norms_csv") + total("cli.snapshots_csv") + total("cli.write")
    write_s -= child("cli.norms_csv") + child("cli.snapshots_csv")
    bytes_written = counts.get("bytes_written", 0)
    task_s = [end - start for start, end in agg["tasks"]]
    pool_capacity = sum(workers * (end - start) for workers, start, end in agg["pools"])
    l2_calls = calls("grid.l2")
    return {
        "config.parse_s": total("config.parse"),
        "profiles.calls": calls("profiles"),
        "coupling.calls": calls("coupling"),
        "grid.l2_calls": l2_calls,
        "grid.l2_s": total("grid.l2"),
        "grid.l2_useful_ratio": counts.get("l2_useful", 0) / l2_calls if l2_calls else 0.0,
        "history.at_calls": calls("history.at"),
        "history.append_calls": calls("history.append"),
        "history.s": total("history.at") + total("history.append"),
        "solver.advance_calls": calls("solver.advance"),
        "solver.advance_s": total("solver.advance"),
        "solver.record_s": total("solver.record") - child("solver.record"),
        "solver.upwind_s": total("solver.upwind"),
        "solver.cell_steps": counts.get("cell_steps", 0),
        "observer.calls": calls("observer"),
        "observer.s": total("observer"),
        "loop.run_s": total("loop.run"),
        "loop.self_s": total("loop.run") - child("loop.run"),
        "loop.step_us_p50": _hist_percentile(agg["step_hist"], 0.50) * 1e6,
        "loop.step_us_p99": _hist_percentile(agg["step_hist"], 0.99) * 1e6,
        "analysis.fit_calls": calls("analysis.fit"),
        "analysis.fit_s": total("analysis.fit"),
        "analysis.freqresp_s": total("analysis.freqresp"),
        "cli.norms_csv_s": total("cli.norms_csv"),
        "cli.snapshots_csv_s": total("cli.snapshots_csv"),
        "cli.bytes_written": bytes_written,
        "cli.write_mb_per_s": bytes_written / 1e6 / write_s if write_s > 0 else 0.0,
        "cli.sweep_worker_s": sum(task_s),
        "cli.sweep_worker_max_s": max(task_s, default=0.0),
        "cli.pool_busy_ratio": sum(task_s) / pool_capacity if pool_capacity > 0 else 0.0,
    }
