"""tools/mutate.py refuses a stale catalogue: a snippet it cannot apply is an error, never a pass.
Each mutant's run names every test file once, its own module's first.

These tests read a temporary tree and the names of the test files, never
the package's sources, so they pass in every mutant's copy as well.
"""

import importlib.util
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parent.parent / "tools" / "mutate.py"
)
mutate = importlib.util.module_from_spec(_SPEC)
sys.modules["mutate"] = mutate  # dataclasses looks the module up as it runs
_SPEC.loader.exec_module(mutate)


def test_stale_reports_every_unusable_snippet(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\ny = 2\n", encoding="utf-8")
    mutants = [
        mutate.Mutant("usable", "a.py", "x = 1", "x = 0", ""),
        mutate.Mutant("missing-file", "b.py", "x = 1", "x = 0", ""),
        mutate.Mutant("found-twice", "a.py", "y = 2", "y = 3", ""),
        mutate.Mutant("found-nowhere", "a.py", "z = 3", "z = 4", ""),
        mutate.Mutant("no-change", "a.py", "x = 1", "x = 1", ""),
    ]
    assert mutate.stale(tmp_path, mutants) == [
        "mutant missing-file: missing file in b.py",
        "mutant found-twice: snippet found 2 times in a.py",
        "mutant found-nowhere: snippet found 0 times in a.py",
        "mutant no-change: the replacement changes nothing",
    ]


def test_each_mutant_runs_its_own_module_tests_first():
    root = Path(__file__).resolve().parent.parent
    everything = sorted(f"tests/{path.name}" for path in (root / "tests").glob("test_*.py"))
    assert mutate.tier1_files(root) == everything
    for mutant in mutate.CATALOGUE:
        own = f"tests/test_{Path(mutant.file).stem}.py"
        assert own in everything, mutant.name
        # each file exactly once: its own module's first, the rest in name order
        assert mutate.tier1_files(root, mutant) == [own, *(f for f in everything if f != own)]
