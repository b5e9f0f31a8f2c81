"""Whether two pfhx trees write the same outputs, from the standard library alone.

    python tools/same_outputs.py --base DIR [--change DIR] [--moved CASE/ARTIFACT ...]

It runs one fixed suite of ``pfhx`` invocations (``SUITE``) in each tree,
``python -m pfhx.cli`` with ``PYTHONPATH=<tree>/src``.  ``--change`` is this
tree by default, and ``--base`` is typically a ``git archive`` of its parent.
Each tree's ``configs/`` and ``benchmarks/data/`` are copied into a temporary
directory that the commands run in, so both trees see the same paths, and
the configs the suite needs of its own (``WRITTEN``) are written there from
the tree's ``configs/theorem_run.ini``.

An invocation's artifacts are every file it writes, its stdout, its stderr
and its exit code.  CSVs are compared byte for byte, ``summary.txt`` without
its wall-time line, and stdout with freqresp's timing masked.  For each
artifact it prints ``identical`` or the first line that differs, then a
summary line.  It exits 1 when a CSV or an exit code differs, or exists in
one tree only; a difference in text alone is reported and does not fail.

A change that moves outputs on purpose names each moved artifact with
``--moved CASE/ARTIFACT`` (as printed, e.g. ``run_theorem_run/norms.csv``).
A declared artifact that does not differ fails the comparison too, so a
declaration lasts only as long as the change that needs it.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TIMING = re.compile(rb"^(freqresp: \d+ frequencies in )[0-9.]+( s)$", re.M)
_WALL = re.compile(rb"^wall time: [0-9.]+ s\n", re.M)

_SMALL = ("--n-cells", "20", "--T", "4")
_CONFIGS = {prefix + name: f"{home}/{name}.ini"
            for home, prefix in (("configs", ""), ("benchmarks/data", "bench_"))
            for name in ("theorem_run", "tau_sweep", "sano_baseline", "freqresp")}
_T, _F, _B = (_CONFIGS[name] for name in ("theorem_run", "freqresp", "bench_theorem_run"))

# written/<name>.ini -> its text made from configs/theorem_run.ini's
WRITTEN = {
    "sine_1e308": lambda text: re.sub(r"(?m)^theta1 = .*$", "theta1 = sine(1, 1e308)", text),
    "h1_sweep": lambda text: text + "\n[sweep]\nh1 = 1.0, -1.0\n",
}

# case name -> pfhx arguments, without the output directory
SUITE: dict[str, tuple[str, ...]] = {
    **{f"{command}_{name}": (command, "-c", cfg)
       for name, cfg in _CONFIGS.items() for command in ("run", "check")},
    "check_sano_k": ("check", "-c", _T, "--sano-k", "1"),
    **{f"sweep_{name}": ("sweep", "-c", cfg, "--workers", "1")
       for name, cfg in _CONFIGS.items() if "sweep" in name or "sano" in name},
    "sweep_tau_sweep_2_workers": ("sweep", "-c", _CONFIGS["tau_sweep"], "--workers", "2"),
    "freqresp": ("freqresp", "-c", _F),
    "freqresp_bench": ("freqresp", "-c", _CONFIGS["bench_freqresp"]),
    "run_1000_cells": ("run", "-c", _T, "--n-cells", "1000"),
    "run_5000_cells": ("run", "-c", _T, "--n-cells", "5000", "--T", "3"),
    "run_1_cell": ("run", "-c", _T, "--n-cells", "1", "--T", "4"),
    **{f"run_tau_0.5_{n}_cells": ("run", "-c", _T, "--tau", "0.5", "--n-cells", n, "--T", "4")
       for n in ("1", "2", "200")},
    "run_overflow": ("run", "-c", _T, "--k1", "1e150", "--k2", "1e150", *_SMALL),
    "run_overflow_T10": ("run", "-c", _T, "--k1", "1e150", "--k2", "1e150", "--n-cells", "20",
                         "--T", "10"),
    **{f"run_upwind_cfl_{cfl}": ("run", "-c", _F, "--solver", "upwind", "--cfl", cfl, *_SMALL)
       for cfl in ("0.3", "1.0")},
    "run_upwind_1_cell": ("run", "-c", _F, "--solver", "upwind", "--cfl", "0.3",
                          "--n-cells", "1", "--T", "4"),
    "run_open_loop_1_cell": ("run", "-c", _F, "--n-cells", "1", "--T", "4"),
    **{f"run_sano_{n}_cells": ("run", "-c", _T, "--controller", "sano_static", "--sano-k", "1",
                               "--n-cells", n, "--T", "4") for n in ("1", "50")},
    "run_error_system": ("run", "-c", _T, "--controller", "error_system", *_SMALL),
    "run_stride_1e-320": ("run", "-c", _T, "--n-cells", "10", "--T", "4",
                          "--snapshot-stride=1e-320"),
    "run_rates_1e308": ("run", "-c", _T, "--h1", "1e308", "--h2", "1e308", *_SMALL),
    **{f"run_seed_{seed}": ("run", "-c", _B, "--n-cells", "50", "--T", "4", "--seed", seed)
       for seed in ("3", "4")},
    "run_controller_bogus": ("run", "-c", _T, "--controller", "bogus"),
    "run_tau_1e308": ("run", "-c", _T, "--n-cells", "10", "--T", "4", "--tau=1e308"),
    "check_T_1e9": ("check", "-c", _T, "--T", "1e9", "--n-cells", "10"),
    # the recurrence's edges: tau one step either side of l
    **{f"run_tau_l{side}dt": ("run", "-c", _T, "--n-cells", "10", "--T", "4", "--tau", tau)
       for side, tau in (("-", "0.9"), ("+", "1.1"))},
    "run_l_underflow": ("run", "-c", _T, "--n-cells", "10", "--T", "4", "--l=5e-324"),
    "run_cfl_underflow": ("run", "-c", _F, "--solver", "upwind", "--cfl=5e-324", "--n-cells",
                          "10", "--T", "4"),
    # the delay regime decided on step counts: tau = 1.04 snaps to l on 10 cells
    **{f"{command}_regime_{name}": (command, "-c", _T, *flags)
       for command in ("run", "check")
       for name, flags in (("tau_1.04", ("--n-cells", "10", "--tau", "1.04")),
                           ("l_0.7", ("--l", "0.7", "--n-cells", "35", "--tau", "0.7")))},
    # a profile that overflows at step 0, which only run evaluates; a swept h1 both refuse
    "run_sine_1e308": ("run", "-c", "written/sine_1e308.ini", "--n-cells", "10", "--T", "4"),
    "check_sine_1e308": ("check", "-c", "written/sine_1e308.ini"),
    **{f"{command}_h1_sweep": (command, "-c", "written/h1_sweep.ini")
       for command in ("check", "sweep")},
}


def _write(tree: Path, work: Path) -> None:
    """``WRITTEN``'s configs, made from the tree's configs/theorem_run.ini, in work/written."""
    text = (tree / "configs" / "theorem_run.ini").read_text()
    (work / "written").mkdir()
    for name, edit in WRITTEN.items():
        (work / "written" / f"{name}.ini").write_text(edit(text))


def _run(tree: Path, work: Path, cases: dict) -> dict:
    """Each case run in ``work``, a copy of the tree's configs and ``WRITTEN``'s: its artifacts."""
    for data in ("configs", "benchmarks/data"):
        if (tree / data).is_dir():
            shutil.copytree(tree / data, work / data)
    _write(tree, work)
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    found = {}
    for case, args in cases.items():
        out = Path("out", case)
        done = subprocess.run([sys.executable, "-m", "pfhx.cli", *args, "-o", str(out)],
                              cwd=work, env=env, capture_output=True)
        found[f"{case}/exit"] = str(done.returncode).encode()
        found[f"{case}/stdout"] = _TIMING.sub(rb"\1<time>\2", done.stdout)
        found[f"{case}/stderr"] = done.stderr
        for path in sorted((work / out).glob("*")):
            data = path.read_bytes()
            if path.name == "summary.txt":
                data = _WALL.sub(b"", data)
            found[f"{case}/{path.name}"] = data
    return found


def _first_difference(base: bytes, change: bytes) -> str:
    base_lines, change_lines = base.splitlines(), change.splitlines()
    for number, (old, new) in enumerate(zip(base_lines, change_lines), 1):
        if old != new:
            return f"line {number}: {old[:80]!r} -> {new[:80]!r}"
    if len(base_lines) == len(change_lines):
        return "the same lines, with different line endings"
    shorter = min(len(base_lines), len(change_lines))
    return f"line {shorter + 1}: {len(base_lines)} lines -> {len(change_lines)} lines"


def compare(base: Path, change: Path, cases: dict = SUITE, moved=()) -> tuple[list[str], bool]:
    """The report lines, one per artifact and a summary, and whether the trees agree."""
    with tempfile.TemporaryDirectory() as tmp:
        old, new = (_run(tree, Path(tmp, side), cases)
                    for tree, side in ((base, "base"), (change, "change")))
    lines, failed, differ = [], [], 0
    for name in sorted(old.keys() | new.keys()):
        binding = name.endswith((".csv", "/exit"))
        if name not in old or name not in new:
            verdict = "only in " + ("change" if name in new else "base")
        elif old[name] == new[name]:
            verdict = "identical"
        else:
            verdict = _first_difference(old[name], new[name])
        moves = verdict != "identical"
        differ += moves
        if moves and binding and name not in moved or name in moved and not moves:
            failed.append(name)
        verdict += " (declared moved)" if name in moved else ""
        lines.append(f"{name}: {verdict}")
    unknown = sorted(set(moved) - old.keys() - new.keys())
    lines += [f"{name}: declared moved, but no such artifact" for name in unknown]
    lines.append(f"{len(cases)} invocations, {len(old | new)} artifacts: "
                 f"{len(old | new) - differ} identical, {differ} differ; "
                 + (f"{len(failed) + len(unknown)} CSV or exit-code verdicts fail"
                    if failed or unknown else "every CSV and exit code as declared"))
    return lines, not failed and not unknown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="the tree to compare against")
    parser.add_argument("--change", default=ROOT, type=Path, help="the tree to check (this one)")
    parser.add_argument("--moved", action="append", default=[], metavar="CASE/ARTIFACT",
                        help="a CSV or exit code that this change moves on purpose")
    args = parser.parse_args(argv)
    lines, same = compare(args.base, args.change, moved=args.moved)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
