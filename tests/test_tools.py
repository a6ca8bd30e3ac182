"""Smoke tests of the scripts under tools/: each runs and reports what it claims."""

import importlib.util
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, kinds, count", [("cli-mix", ("build", "verify", "scan", "compare"), 25), ("search-floor", ("search",), 9)]
)
def test_ab_finds_a_tree_identical_to_itself(workload, kinds, count):
    """tools/ab.py with this src as both trees runs the own commands of workload
    seed 1 in both copies and finds every output identical. It prints, per command
    kind, the count and the per-command ratios' median between their quartiles,
    then the workload seed's ratio."""
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), src, src, workload, "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    total = count * len(kinds)
    assert f"{total} {workload} commands, workload seeds 1," in done.stdout
    assert f"outputs: {total} identical, 0 differ" in done.stdout
    assert "differs:" not in done.stdout
    for kind in kinds:
        spread = re.search(rf"^{kind}: {count} commands, total ratio new/old \S+, median ratio (\S+), quartiles (\S+) (\S+)$", done.stdout, re.MULTILINE)
        median, low, high = map(float, spread.groups())
        assert low <= median <= high
    assert re.search(r"^per workload seed: 1 \d\.\d{4}$", done.stdout, re.MULTILINE)


def test_step_split_prints_each_part_of_a_step():
    """tools/step_split.py on this src and workload seed 1 finds every wrapped
    run's result equal to the unwrapped run's and prints one line for each
    part of a step, the trials cut short at the line search's bound among them,
    then the total, then the QPs by shape: pairs, support size in and out,
    count, share and microseconds per call, at most ten shapes and one line for
    the others, the counts adding up to the steps."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_split.py"), str(ROOT / "src"), "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("9 searches, workload seeds 1,")
    assert [line.split()[0] for line in lines[2:8]] == ["plain", "bounded", "qp", "bfgs", "rest", "total"]
    assert float(lines[3].split()[1]) > 0.0
    assert lines[8].startswith("steps ")
    assert lines[9].split() == ["shape", "pairs", "in", "out", "QPs", "share", "us/call"]
    shapes = [line.split() for line in lines[10:]]
    assert 1 <= len(shapes) <= 11 and all(row[0] == "shape" for row in shapes)
    assert all(len(row) == 7 and row[1] in ("2", "4", "6", "8") for row in shapes[:10])
    assert len(shapes) < 11 or shapes[10][1] == "other"
    assert sum(int(row[-3]) for row in shapes) == int(lines[8].split()[1].rstrip(","))


def test_compare_outputs_finds_a_tree_identical_to_itself():
    """tools/compare_outputs.py with this src as both trees runs the workloads'
    commands, its 37 fixed commands and the criterion-5 searches, and finds
    every output byte-identical, with no search, no verify, no compare and no scan differing.
    Its last line gives both trees' src/obsclone/*.py line count, as `wc -l` counts it."""
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), src, src],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert "740 of 740 outputs byte-identical, 0 differ" in done.stdout
    assert "searches: 0 differ, 0 changed exit code or converged;" in done.stdout
    assert "verifies: 0 differ, 0 changed exit code or passed; largest defect change relative to its generator's norm 0\n" in done.stdout
    assert "compares: 0 differ, 0 changed exit code; largest relative change 0; keys moved: none\n" in done.stdout
    assert "scans: 0 differ, 0 changed exit code; largest relative change of a dm1, dm2 or product cell 0\n" in done.stdout
    assert "differs" not in done.stdout
    lines = sum(len(path.read_text().splitlines()) for path in (ROOT / "src" / "obsclone").glob("*.py"))
    assert done.stdout.endswith(f"src lines: {lines} -> {lines}\n")


def test_compare_outputs_sums_up_a_moved_scan():
    """A scan whose product cell moved reports that relative change with its exit code unchanged;
    one that stopped printing its table, or whose rows moved, reports an infinite change."""
    spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    header = "theta,di1,di2,dm1,dm2,product,bound\n"
    old = [["scan"], 0, header + "0.5,0,1,0.25,4,2,1\n", "", None]
    moved = [["scan"], 0, header + "0.5,0,1,0.25,4,2.5,1\n", "", None]
    assert tool.scan_change(old, moved) == ("exit code unchanged, largest relative change of a dm1, dm2 or product cell 0.25", False, 0.25)
    refused = [["scan"], 2, "", "error: measured product violates the joint-measurement bound\n", None]
    note, code_moved, shift = tool.scan_change(old, refused)
    assert note.startswith("exit code 0 -> 2,") and code_moved and shift == math.inf
    shifted = [["scan"], 0, header + "0.6,0,1,0.25,4,2,1\n", "", None]
    assert tool.scan_change(old, shifted)[2] == math.inf
    written = [["scan"], 0, "", "", (header + "0.5,0,1,0.25,4,2,1\n").encode().hex()]
    assert tool.scan_change(old, written)[2] == 0.0
