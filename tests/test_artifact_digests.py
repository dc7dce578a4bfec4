"""tools/artifact_digests.py: one digest line per run, the same on a rerun, and how two checkouts differ."""
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


def test_the_digest_tool_prints_one_stable_digest_per_run():
    names = ["paper/export-sequence-x", "paper/export-sequence-y"]
    runs = [
        subprocess.run([sys.executable, str(TOOL), "--only", *names], capture_output=True, text=True, check=True)
        for _ in range(2)
    ]
    lines = runs[0].stdout.splitlines()
    assert [line.split("  ")[1] for line in lines] == names
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert runs[1].stdout == runs[0].stdout
    assert lines[0].split()[0] != lines[1].split()[0]  # the X and Y tables differ in row 34


def test_the_numbers_mode_runs_both_roots_and_says_how_they_differ():
    root = str(TOOL.parents[1])
    name = "paper/export-sequence-x"
    done = subprocess.run([sys.executable, str(TOOL), "--numbers", root, "--only", name],
                          capture_output=True, text=True, check=True)
    assert done.stdout == f"{name}  identical\n"


def test_differences_give_the_largest_numeric_change_and_any_other():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parent = {"<exit>": b"0", "a.csv": b"x,1.5\ny,2e-3\n", "b.json": b'{"k": 1}', "c.txt": b"same", "gone": b""}
    change = {"<exit>": b"0", "a.csv": b"x,1.5000000000000002\ny,0.002\n", "b.json": b'{"j": 1}',
              "c.txt": b"same", "new": b"1"}
    assert tool.differences(parent, change) == {
        "a.csv": "max |diff| 2.22e-16",
        "b.json": "text differs: '{\"k\": 1}' -> '{\"j\": 1}'",
        "gone": "only in the parent",
        "new": "only in the change",
    }
