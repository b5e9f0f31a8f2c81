"""No command-line input ends in a traceback.

Each example calls ``cli.main`` in-process on ``run``, ``check``, ``sweep``
(one worker) or ``freqresp``, on a tiny grid and horizon, with one to three
flags set to extreme values.  Every call must return 0, 2, 3 or 4 and raise
nothing; a configuration error is exactly one ``configuration error:`` line
on stderr; and no numpy ``RuntimeWarning`` is emitted.  Physical memory is
patched down to a few MiB, so a run that a missing refusal let through
allocates megabytes at most.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfhx import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {name: (ROOT / "configs" / f"{name}.ini").read_text()
           for name in ("theorem_run", "tau_sweep", "sano_baseline", "freqresp")}
# a profile whose values overflow: every node of theta1 is nan
CONFIGS["overflowing_profile"] = CONFIGS["theorem_run"].replace(
    "theta1 = step(0.5, 1.0, 0.0)", "theta1 = sine(1, 1e308)")
BASE = {"run": [], "check": [], "sweep": ["--workers", "1"], "freqresp": []}
NUMERIC = ["--h1", "--h2", "--l", "--tau", "--k1", "--k2", "--T", "--cfl", "--snapshot-stride",
           "--sano-k", "--n-cells", "--seed"]
FREQRESP_ONLY = ["--omega", "--cycles"]
EXTREME = ["0", "-1", "5e-324", "1e-320", "1e12", "1e150", "1e308", "inf", "-inf", "nan"]
# non-integer and huge counts for the flags that take whole numbers
COUNTS = ["2.5", "1e400", "9007199254740993", "1e20"]
CHOICES = {"--controller": ["observer_predictor", "sano_static", "open_loop", "error_system",
                            "delay_free"],
           "--solver": ["exact", "upwind"]}
MEMORY = 4 * 2.0**20  # bytes


@st.composite
def invocations(draw):
    """(command, config name, flags): one to three (flag, value) pairs."""
    command = draw(st.sampled_from(sorted(BASE)))
    config = draw(st.sampled_from(sorted(CONFIGS)))
    numeric = NUMERIC + FREQRESP_ONLY * (command == "freqresp")

    def values(flag):
        counts = COUNTS if flag in ("--n-cells", "--seed") else []
        return st.sampled_from(CHOICES.get(flag, EXTREME + counts))

    flag = st.sampled_from(numeric + sorted(CHOICES)).flatmap(
        lambda name: st.tuples(st.just(name), values(name)))
    return command, config, tuple(draw(st.lists(flag, min_size=1, max_size=3)))


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(invocations())
@example(("run", "theorem_run", (("--l", "5e-324"),)))
@example(("run", "freqresp", (("--controller", "open_loop"), ("--solver", "upwind"),
                              ("--cfl", "5e-324"))))
@example(("run", "overflowing_profile", (("--seed", "0"),)))
@example(("check", "overflowing_profile", (("--seed", "0"),)))
def test_no_cli_input_ends_in_a_traceback(invocation):
    command, config, flags = invocation
    with tempfile.TemporaryDirectory() as scratch, contextlib.ExitStack() as stack:
        path = Path(scratch) / "cfg.ini"
        path.write_text(CONFIGS[config])
        argv = [command, "-c", str(path), "-o", str(Path(scratch) / "out"),
                "--n-cells", "4", "--T", "4", *BASE[command],
                *(f"{name}={value}" for name, value in flags)]  # the last of a flag wins
        for module in ("pfhx.loop", "pfhx.solver"):
            stack.enter_context(mock.patch(f"{module}._physical_memory", lambda: MEMORY))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    assert rc in (0, 2, 3, 4), (argv, rc, err.getvalue())
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: "), (argv, lines)
    numpy_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numpy_warnings, (argv, [str(w.message) for w in numpy_warnings])
