"""tools/artifact_digests.py: one digest line per run, the same on a rerun."""
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
