"""tools/same_outputs.py on two tiny trees: one identical, one with a one-byte CSV change."""

import importlib.util
import shutil
from pathlib import Path

from pfhx.cli import main
from pfhx.config import parse_config

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

CASES = {"run": ("run", "-c", "configs/theorem_run.ini", "--n-cells", "4", "--T", "2")}


def _tree(path: Path, moved: bool = False) -> Path:
    """A copy of src/ and one config; if ``moved``, norms.csv's header starts with T, not t."""
    shutil.copytree(ROOT / "src", path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (path / "configs").mkdir()
    shutil.copy(ROOT / "configs" / "theorem_run.ini", path / "configs")
    if moved:
        cli = path / "src" / "pfhx" / "cli.py"
        text = cli.read_text()
        assert '_NORMS_HEADER = "t,plant_l2,' in text
        cli.write_text(text.replace('_NORMS_HEADER = "t,', '_NORMS_HEADER = "T,'))
    return path


def test_the_tool_finds_identical_trees_identical_and_names_a_moved_csv(tmp_path):
    base, same = _tree(tmp_path / "base"), _tree(tmp_path / "same")
    moved = _tree(tmp_path / "moved", moved=True)
    lines, agree = same_outputs.compare(base, same, CASES)
    assert agree and lines[-1].startswith("1 invocations, 6 artifacts: 6 identical, 0 differ")
    assert sorted(lines[:-1]) == [f"run/{name}: identical" for name in
                                  ("exit", "norms.csv", "snapshots.csv", "stderr", "stdout",
                                   "summary.txt")]
    lines, agree = same_outputs.compare(base, moved, CASES)
    assert not agree and "5 identical, 1 differ" in lines[-1]
    assert [line for line in lines if "identical" not in line][0].startswith(
        "run/norms.csv: line 1: b't,plant_l2,")
    # a declared move passes, and a declaration that moves nothing fails
    assert same_outputs.compare(base, moved, CASES, moved=["run/norms.csv"])[1]
    assert not same_outputs.compare(base, same, CASES, moved=["run/norms.csv"])[1]


def test_the_written_configs_give_the_outcomes_their_cases_pin(tmp_path, capsys):
    # what each tree's run of the WRITTEN cases must show: the overflowing profile is found by
    # run alone (exit 3) and check is silent; a swept h1 = -1 is refused by check and sweep alike
    same_outputs._write(ROOT, tmp_path)
    swept = parse_config((tmp_path / "written" / "h1_sweep.ini").read_text())
    assert swept.sweep_axes == {"h1": [1.0, -1.0]}
    expected = {"run_sine_1e308": (3, "numerical failure: first non-finite value at step 0"),
                "check_sine_1e308": (0, ""),
                "check_h1_sweep": (2, "configuration error: params.h1 must be nonnegative"),
                "sweep_h1_sweep": (2, "configuration error: params.h1 must be nonnegative")}
    for case, (code, err) in expected.items():
        command, flag, path, *rest = same_outputs.SUITE[case]
        out = tmp_path / case
        assert main([command, flag, str(tmp_path / path), *rest, "-o", str(out)]) == code
        found = capsys.readouterr().err
        assert found.startswith(err) if err else found == "", (case, found)
    assert not (tmp_path / "sweep_h1_sweep" / "sweep.csv").exists()
