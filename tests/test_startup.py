"""What a pfhx process loads at start-up, checked in fresh subprocesses.

A short run or sweep is mostly process start-up, so every command leaves
out what it never uses: ``numpy.ma`` (which ``np.unique`` imports),
``numpy.random`` unless a profile draws from it, ``multiprocessing``
unless a sweep starts its pool, ``dataclasses`` always, since every
pfhx record is a named tuple and no pfhx module imports it, and
``pfhx.observer`` always, since no run calls its predictor.  The engine
(``loop``, ``solver`` and ``history``), numpy and ``inspect``, which
numpy imports, load only in a command that runs a scenario, so
``freqresp``, ``check`` and a bare ``import pfhx.cli`` never load them;
``profiles``, whose spec reader the run check uses, loads in a command
that checks a scenario.  A sweep loads the engine before its pool starts,
so that forked workers inherit it, and ``import pfhx`` loads no submodule
until one of its names is used.
``import pfhx`` also limits OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` is already set.  ``dir(pfhx)`` is also called in
this process, where ``tools/linecov.py`` sees ``pfhx.__dir__`` run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LEAN = ("numpy.ma", "numpy.random", "multiprocessing", "dataclasses", "pfhx.observer")
# the engine, and numpy and the inspect it imports, which load with it
ENGINE = ("pfhx.loop", "pfhx.solver", "pfhx.history", "numpy", "inspect")
SPECS = ("pfhx.profiles",)  # the spec reader, which a command that checks a scenario loads
WATCHED = LEAN + ENGINE + SPECS
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
    assert found == {"rc": 0, **{module: module in ENGINE + SPECS for module in WATCHED}}


@pytest.mark.parametrize("args, specs", [
    (("freqresp", "-c", "configs/freqresp.ini", "--n-cells", "20"), False),
    (("check", "-c", "configs/theorem_run.ini"), True),
], ids=["freqresp", "check"])
def test_freqresp_and_check_leave_out_multiprocessing(args, specs, tmp_path):
    # and the engine with numpy: check's run check is arithmetic and the specs' text
    found = loaded(*args, "-o", str(tmp_path))
    assert found == {"rc": 0, **{module: specs and module in SPECS for module in WATCHED}}


def test_import_pfhx_cli_loads_no_engine():
    code = f"import json, sys, pfhx.cli; print(json.dumps([m in sys.modules for m in {WATCHED!r}]))"
    assert not any(json.loads(python(code)))


def test_no_pfhx_module_imports_dataclasses():
    # the tests above watch a few commands; this covers every module, whatever
    # path imports it, where numpy's inspect would hide dataclasses' main cost
    importers = []
    for path in sorted((ROOT / "src" / "pfhx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_freqresp_runs_where_numpy_cannot_be_imported(tmp_path):
    # a None entry in sys.modules makes every ``import numpy`` raise ImportError
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from pfhx.cli import main\n"
        "print(main(sys.argv[1:]))\n"
    )
    assert python(code, "freqresp", "-c", "configs/freqresp.ini", "-o", str(tmp_path)) == "0"
    assert len((tmp_path / "freqresp.csv").read_text().splitlines()) == 1 + 3
    # check on every shipped config, printing what it prints with numpy
    checks = (
        "import contextlib, io, json, sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['numpy'] = None\n"
        "from pfhx.cli import main\n"
        "printed = []\n"
        "for config in sys.argv[2:]:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        printed.append([main(['check', '-c', config]), out.getvalue()])\n"
        "print(json.dumps(printed))\n"
    )
    configs = sorted(str(path) for path in (ROOT / "configs").glob("*.ini"))
    blocked = json.loads(python(checks, "blocked", *configs))
    assert len(blocked) == 4 and blocked == json.loads(python(checks, "loaded", *configs))
    assert all(rc == 0 and out.startswith("condition report:\n") for rc, out in blocked)


def test_a_sweep_loads_the_engine_before_its_pool_starts(tmp_path):
    # forked workers inherit what the parent loaded; the stub pool maps in this process
    code = (
        "import json, sys\n"
        "from pfhx import cli\n"
        "seen = []\n"
        "class Pool:\n"
        "    def __init__(self, max_workers):\n"
        "        seen.append([m in sys.modules for m in ('numpy', 'pfhx.loop')])\n"
        "    def __enter__(self): return self\n"
        "    def __exit__(self, *exc): return False\n"
        "    def map(self, fn, payloads): return map(fn, payloads)\n"
        "cli.ProcessPoolExecutor = Pool\n"
        "print(json.dumps([cli.main(sys.argv[1:]), seen]))\n"
    )
    rc, seen = json.loads(python(code, "sweep", "-c", "configs/tau_sweep.ini", "--n-cells", "20",
                                 "--T", "4", "--workers", "2", "-o", str(tmp_path)))
    assert rc == 0 and seen == [[True, True]]
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 6


def test_import_pfhx_loads_a_submodule_only_when_a_name_is_used():
    code = (
        "import json, sys, pfhx\n"
        "def submodules(): return sorted(m for m in sys.modules if m.startswith('pfhx.'))\n"
        "before, listed = submodules(), set(pfhx.__all__) <= set(dir(pfhx))\n"
        "pfhx.Grid\n"
        "print(json.dumps([before, listed, submodules()]))"
    )
    before, listed, after = json.loads(python(code))
    assert before == [] and listed
    assert after == ["pfhx.grid", "pfhx.params"]


def test_dir_lists_the_29_public_names():
    import pfhx

    assert len(pfhx.__all__) == 29 and set(pfhx.__all__) <= set(dir(pfhx))


def test_every_public_name_is_its_home_modules_object():
    code = (
        "import json, sys, pfhx\n"
        "names = {n: getattr(pfhx, n) for n in pfhx.__all__}\n"
        "print(json.dumps({n: [v.__module__, getattr(sys.modules[v.__module__], n) is v]\n"
        "                  for n, v in names.items()}))"
    )
    homes = json.loads(python(code))
    assert all(same for _, same in homes.values()), homes
    assert homes["Scenario"][0] == homes["ConfigError"][0] == "pfhx.params"
    assert homes["run_scenario"][0] == "pfhx.loop"


def test_import_pfhx_sets_one_blas_thread_unless_set():
    code = "import os, pfhx; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert python(code) == "1"
    assert python(code, OPENBLAS_NUM_THREADS="3") == "3"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_pfhx_starts_no_blas_thread():
    code = "import os, pfhx; print(len(os.listdir('/proc/self/task')))"
    assert python(code) == "1"
