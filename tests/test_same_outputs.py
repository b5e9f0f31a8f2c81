"""tools/same_outputs.py on two tiny trees: one identical, one with a one-byte CSV change."""

import importlib.util
import shutil
from pathlib import Path

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
