"""No command-line input ends in a traceback.

Each example calls ``cli.main`` in-process on ``run``, ``check``, ``sweep``
(one worker) or ``freqresp``, on a tiny grid and horizon, with one to three
flags set to extreme values.  The config is a shipped one, or one with a
mutation: a section header dropped, duplicated or renamed, a value blanked
or garbled, a bad profile spec, a ``%`` interpolation or a ``[DEFAULT]``
section.  Every call must return 0, 2, 3 or 4 and raise
nothing; a configuration error is exactly one ``configuration error:`` line
on stderr, and ``check`` on the same file and flags as a ``run`` that exits
2 exits 2 with the same line; and no numpy ``RuntimeWarning`` is emitted.  Physical memory is
patched down to a few MiB, so a run that a missing refusal let through
allocates megabytes at most.
"""

import contextlib
import io
import re
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
HEADER = re.compile(r"^\[.*\]$")
GARBLE = st.text(alphabet="[]=%#;:(),. \tae01-", max_size=6)
BAD_SPECS = ["", "sine(", "sine(1)", "step(1, 2, 3, 4)", "zero(1)", "vortex(3)", "constant(x)",
             "gaussian(0, 0, 1)", "random(1", "sine(1, 2))", "%(h1)s", "constant(1e400)"]
INITIAL = ["theta1", "theta2", "observer1", "observer2", "u1", "u2", "warmup_u1", "warmup_u2"]
MUTATIONS = ["drop header", "duplicate header", "rename header", "blank value",
             "garbled value", "bad profile", "interpolation", "default section"]


def mutate(draw, text):
    """The text of a config with one mutation applied."""
    lines = text.splitlines()
    headers = [i for i, line in enumerate(lines) if HEADER.match(line)]
    values = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]
    kind = draw(st.sampled_from(MUTATIONS))
    if kind.endswith("header"):
        i = draw(st.sampled_from(headers))
        if kind == "drop header":
            del lines[i]
        elif kind == "duplicate header":
            lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
        else:
            lines[i] = f"[{draw(GARBLE)}]"
    elif kind == "default section":
        entry = f"{draw(st.sampled_from(['T', 'tau', 'seed', 'theta1', 'x']))} = {draw(GARBLE)}"
        lines[draw(st.integers(0, len(lines))):0] = ["[DEFAULT]", entry]
    elif kind == "bad profile":
        key, spec = draw(st.sampled_from(INITIAL)), draw(st.sampled_from(BAD_SPECS))
        at = [i for i, line in enumerate(lines) if line.partition("=")[0].strip() == key]
        if at:
            lines[at[0]] = f"{key} = {spec}"
        else:
            if "[initial]" not in lines:  # the freqresp config has none
                lines.append("[initial]")
            lines.insert(lines.index("[initial]") + 1, f"{key} = {spec}")
    else:
        i = draw(st.sampled_from(values))
        key, _, value = lines[i].partition("=")
        if kind == "blank value":
            value = ""
        elif kind == "garbled value":
            value = draw(GARBLE)
        else:  # interpolation
            value = value.strip() + draw(st.sampled_from(["%", "%(h1)s", "%%"]))
        lines[i] = f"{key}= {value}"
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    """(command, config text, flags): one to three (flag, value) pairs."""
    command = draw(st.sampled_from(sorted(BASE)))
    config = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    if draw(st.booleans()):
        config = mutate(draw, config)
    numeric = NUMERIC + FREQRESP_ONLY * (command == "freqresp")

    def values(flag):
        counts = COUNTS if flag in ("--n-cells", "--seed") else []
        return st.sampled_from(CHOICES.get(flag, EXTREME + counts))

    flag = st.sampled_from(numeric + sorted(CHOICES)).flatmap(
        lambda name: st.tuples(st.just(name), values(name)))
    return command, config, tuple(draw(st.lists(flag, min_size=1, max_size=3)))


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(invocations())
@example(("run", CONFIGS["theorem_run"], (("--l", "5e-324"),)))
@example(("run", CONFIGS["freqresp"], (("--controller", "open_loop"), ("--solver", "upwind"),
                                       ("--cfl", "5e-324"))))
@example(("run", CONFIGS["overflowing_profile"], (("--seed", "0"),)))
@example(("check", CONFIGS["overflowing_profile"], (("--seed", "0"),)))
@example(("run", CONFIGS["theorem_run"].replace("warmup_u1 = sine(1, 4)", "warmup_u1 = sine(1)"),
          (("--seed", "0"),)))  # an input spec, which only a run evaluates, refused by check too
def test_no_cli_input_ends_in_a_traceback(invocation):
    command, config, flags = invocation
    with tempfile.TemporaryDirectory() as scratch, contextlib.ExitStack() as stack:
        path = Path(scratch) / "cfg.ini"
        path.write_text(config)
        argv = [command, "-c", str(path), "-o", str(Path(scratch) / "out"),
                "--n-cells", "4", "--T", "4", *BASE[command],
                *(f"{name}={value}" for name, value in flags)]  # the last of a flag wins
        stack.enter_context(mock.patch("pfhx.grid._physical_memory", lambda: MEMORY))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if command == "run" and rc == 2:  # check refuses what run refuses, in the same line
            checked = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(checked):
                assert cli.main(["check", *argv[1:]]) == 2, argv
            assert checked.getvalue() == err.getvalue(), argv
    assert rc in (0, 2, 3, 4), (argv, rc, err.getvalue())
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: "), (argv, lines)
    numpy_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numpy_warnings, (argv, [str(w.message) for w in numpy_warnings])
