"""Tests of the benchmark itself: metric coverage, checks that catch tampering, repeatable counts.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import loop
import workloads
from conftest import BENCH

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return [bench("cli-mix", 3, 1, 1) for _ in range(2)]


def _assert_complete(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])


def test_smoke_run_emits_every_end_to_end_metric():
    details, result = bench("cli-mix", 3, 1, 0)
    _assert_complete(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert details["samples"] >= 1 and 0 < details["tail_percentile"] <= 100
    env = details["environment"]
    assert {"nproc", "python", "numpy", "scipy", "threads"} <= set(env)
    assert set(env["threads"].values()) == {"1"}


def test_smoke_run_emits_every_per_layer_metric(traced_runs):
    _, result = traced_runs[0]
    _assert_complete(result, SPEC["per_layer"])


def test_per_layer_counts_repeat_for_the_same_seed(traced_runs):
    (_, first), (_, second) = traced_runs
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "1/cmd", "bytes", "share")]
    counts.remove("trace.overhead_share")
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["machines.lift.calls"]["value"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_inputs_depend_only_on_the_seed(tmp_path):
    def argv(seed, sub):
        plan = workloads.plan("search-floor", seed, tmp_path / sub)
        return [[a.replace(str(tmp_path / sub), "") for a in c.argv] for step in plan.steps for c in step]

    assert argv(5, "a") == argv(5, "b")
    assert argv(5, "a") != argv(6, "c")
    assert (tmp_path / "a" / "floor2.class.json").read_text() == (tmp_path / "b" / "floor2.class.json").read_text()


def test_tail_is_the_highest_rank_with_ten_samples_beyond():
    assert loop.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert loop.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3.0, 3)


@pytest.fixture(scope="module")
def mix(tmp_path_factory):
    """One cli-mix group (build, verify, scan, compare) and a tiny sigma1/sigma2 floor search."""
    workdir = tmp_path_factory.mktemp("mix")
    plan = workloads.plan("cli-mix", 9, workdir)
    cmds = list(plan.steps[0])
    floor = workloads._search(
        workdir, "tiny", "two-param-noncommuting", workloads.XNC_GENERATORS, 0, 1, 200, xnc=True
    )
    return cmds + [floor]


def run_all(session, cmds):
    for cmd in cmds:
        session.run(cmd)


def _session(main):
    from obsclone.cli import main as cli_main

    return loop.Session(lambda argv: main(cli_main, argv))


def test_honest_outputs_pass(mix):
    session = _session(lambda real, argv: real(argv))
    run_all(session, mix + mix)
    assert session.failures == [] and session.attempted == 2 * len(mix)


@pytest.mark.parametrize("kind", ["build", "verify", "scan", "compare", "search"])
def test_a_flipped_exit_code_is_a_failure(mix, kind):
    session = _session(lambda real, argv: 1 - real(argv) if argv[0] == kind else real(argv))
    run_all(session, mix)
    assert len(session.failures) == 1 and "exit code" in session.failures[0]


def test_output_that_changes_between_repeats_is_a_failure(mix):
    calls = []

    def drifting(real, argv):
        code = real(argv)
        calls.append(argv[0])
        if argv[0] == "compare" and calls.count("compare") == 2:
            path = argv[argv.index("--out") + 1]
            with open(path, "a") as fh:
                fh.write(" ")
        return code

    session = _session(drifting)
    run_all(session, mix + mix)
    assert len(session.failures) == 1 and "differs" in session.failures[0]


def test_a_crashing_command_is_a_failure_not_a_crash(mix):
    def crash(real, argv):
        raise TypeError("boom")

    session = _session(crash)
    run_all(session, mix[:1])
    assert session.attempted == 1 and "raised" in session.failures[0]


def _floor_output(mix, best_defect):
    cmd = mix[-1]
    from obsclone.cli import main

    assert main(list(cmd.argv)) == 1
    doc = json.loads(cmd.out.read_text())
    doc["best_defect"] = best_defect
    return cmd, json.dumps(doc).encode()


def test_an_inconsistent_floor_is_a_failure(mix):
    cmd, data = _floor_output(mix, 0.5)
    assert "disagrees" in workloads.check(cmd, 1, data)


def test_a_sigma_pair_floor_below_its_closed_form_is_a_failure(mix, monkeypatch):
    below = workloads.XNC_FLOOR - 1e-9
    cmd, data = _floor_output(mix, below)
    monkeypatch.setattr(workloads, "cloning_defect", lambda point, cls, mode: below)
    assert "below sqrt(2) - 1" in workloads.check(cmd, 1, data)


def test_a_floor_within_rounding_of_the_closed_form_passes(mix, monkeypatch):
    at = workloads.XNC_FLOOR - 5e-13
    cmd, data = _floor_output(mix, at)
    monkeypatch.setattr(workloads, "cloning_defect", lambda point, cls, mode: at)
    assert workloads.check(cmd, 1, data) is None


def test_a_tampered_scan_row_is_a_failure(mix):
    cmd = mix[2]
    from obsclone.cli import main

    assert main(list(cmd.argv)) == 0
    text = cmd.out.read_text().split("\n")
    cells = text[5].split(",")
    cells[5] = repr(float(np.nextafter(float(cells[5]), np.inf)))
    text[5] = ",".join(cells)
    assert "differs" in workloads.check(cmd, 0, "\n".join(text).encode())
