"""What a pfhx process loads at start-up, checked in fresh subprocesses.

A short run or sweep is mostly process start-up, so every command leaves
out what it never uses: ``numpy.ma`` (which ``np.unique`` imports),
``numpy.random`` unless a profile draws from it, and ``multiprocessing``
unless a sweep starts its pool.
``import pfhx`` also limits OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` is already set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WATCHED = ("numpy.ma", "numpy.random", "multiprocessing")
# the command in a fresh interpreter, then which of WATCHED it loaded, as JSON
LOADED = (
    "import json, sys\n"
    "from pfhx.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    f"print(json.dumps({{'rc': rc, **{{m: m in sys.modules for m in {WATCHED!r}}}}}))\n"
)


def python(code: str, *args: str, **env: str) -> str:
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(PYTHONPATH=str(ROOT / "src"), **env)
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=environ,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def loaded(*args: str) -> dict:
    return json.loads(python(LOADED, *args))


@pytest.mark.parametrize("args", [
    ("run", "-c", "configs/theorem_run.ini", "--n-cells", "20", "--T", "4"),
    ("sweep", "-c", "configs/tau_sweep.ini", "--n-cells", "20", "--T", "4", "--workers", "1"),
], ids=["run", "sweep"])
def test_run_and_sweep_leave_out_numpy_ma_and_numpy_random(args, tmp_path):
    found = loaded(*args, "-o", str(tmp_path))
    assert found["rc"] == 0
    assert not found["numpy.ma"] and not found["numpy.random"] and not found["multiprocessing"]


@pytest.mark.parametrize("args", [
    ("freqresp", "-c", "configs/freqresp.ini", "--n-cells", "20"),
    ("check", "-c", "configs/theorem_run.ini"),
], ids=["freqresp", "check"])
def test_freqresp_and_check_leave_out_multiprocessing(args, tmp_path):
    found = loaded(*args, "-o", str(tmp_path))
    assert found == {"rc": 0, **{module: False for module in WATCHED}}


def test_import_pfhx_sets_one_blas_thread_unless_set():
    code = "import os, pfhx; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert python(code) == "1"
    assert python(code, OPENBLAS_NUM_THREADS="3") == "3"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_pfhx_starts_no_blas_thread():
    code = "import os, pfhx; print(len(os.listdir('/proc/self/task')))"
    assert python(code) == "1"
