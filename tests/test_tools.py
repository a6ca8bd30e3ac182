"""Smoke tests of the scripts under tools/: each runs and reports what it claims."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_search_finds_a_tree_identical_to_itself():
    """tools/ab_search.py with this src as both trees runs the nine search-floor
    searches of workload seed 1 in both copies and finds every result identical."""
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_search.py"), src, src, "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert "9 searches, workload seeds 1," in done.stdout
    assert "results: 9 identical, 0 differ" in done.stdout
    assert "differs:" not in done.stdout


def test_step_split_prints_each_part_of_a_step():
    """tools/step_split.py on this src and workload seed 1 finds every wrapped
    run's result equal to the unwrapped run's and prints one line for each
    part of a step, then the total."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_split.py"), str(ROOT / "src"), "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("9 searches, workload seeds 1,")
    assert [line.split()[0] for line in lines[2:8]] == ["rows", "plain", "qp", "bfgs", "rest", "total"]
    assert lines[8].startswith("steps ")
