"""Seeded command streams for the benchmark's workloads, and the checks on their outputs.

Every input is drawn from the workload seed: class documents are written
as plain JSON, and command-line arguments carry floats in their shortest
round-trip form, so the program under test sees only generated inputs.
Each command gets its own seed for `search`, drawn from the same stream.

The checks judge an output only by what a user could rely on: exit codes,
verdicts that re-verify, closed forms where one is known. None of them
compares against a frozen number that a better program could beat.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from obsclone.classes import class_from_dict
from obsclone.jointmeas import uncertainty_product
from obsclone.linalg import QubitState
from obsclone.machines import machine_from_dict, t_machine
from obsclone.search import SearchSpacePoint, cloning_defect

WORKLOADS = ("search-floor", "cli-mix")
CLI_KINDS = ("build", "verify", "scan", "compare")
FAMILIES = ("cnot", "one-param", "commuting", "t", "phase-covariant")

# Exact-cloning floor of the sigma1/sigma2 pair in closed form: the best
# exact machine shrinks both copies by 1/sqrt(2).
XNC_FLOOR = math.sqrt(2.0) - 1.0
SEARCH_TOL = 1e-6
VERIFY_TOL = 1e-10
SCAN_STEPS = 50
# The CLI's default scan range, 0.1 to pi/2 - 0.1.
SCAN_THETAS = np.linspace(0.1, np.pi / 2 - 0.1, SCAN_STEPS)
# Angles of the approximate families stay this far from 0 and pi/2, where a gain diverges.
THETA_MARGIN = 0.15

XNC_GENERATORS = [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
PAULI_BASIS = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]

# Pool sizes: each timed run cycles its pool, so repeats occur within a run
# and are checked for byte-identical output.
FLOOR_POOL = 9
MIX_POOL_GROUPS = 25
# cli-mix groups that follow each search in search-floor. They take about a
# tenth of its time. With one group, its per-kind medians rest on about 17
# samples, and over five seeds on 2 cores the spread of scan_p50_ms was 0.12,
# against 0.06 with three groups.
COMPANION_GROUPS = 3


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    out: Path
    expect: dict


@dataclass
class Plan:
    """Everything one run executes, generated before any timing starts.

    A step is `own` commands of the workload followed by companion
    commands. search-floor follows each search with COMPANION_GROUPS
    cli-mix groups, so that every workload samples every command kind
    across its whole run; a cli-mix step is one group.
    """

    steps: list[tuple[Command, ...]]
    own: int
    warmup: list[Command]
    # Commands per traced run for each whole multiple of trace_period seconds.
    trace_unit: int
    trace_period: int

    def trace_commands(self, seconds: int) -> list[Command]:
        """Fixed list of the workload's own commands: a function of seconds only, so counts repeat."""
        n = self.trace_unit * max(1, seconds // self.trace_period)
        own = [cmd for step in self.steps for cmd in step[: self.own]]
        return [own[i % len(own)] for i in range(n)]


def _num(x: float) -> str:
    return repr(float(x))


def _csv(values) -> str:
    return ",".join(_num(v) for v in values)


def _observable(rng, min_axis: float) -> list[float]:
    """Uniform coefficients in [-1, 1] with a Bloch part longer than min_axis."""
    while True:
        c = rng.uniform(-1.0, 1.0, 4)
        if np.linalg.norm(c[1:]) > min_axis:
            return [float(v) for v in c]


def _commuting_pair(rng) -> tuple[list[float], float, float]:
    """Observable a and partner weights (b0, b3) whose span is two-dimensional.

    The partner b0*I + b3*axis(a) is independent of a unless (b0, b3) is
    proportional to (a0, |bloch a|); draws near that line are redrawn.
    """
    while True:
        a = _observable(rng, 0.1)
        r = float(np.linalg.norm(a[1:]))
        b0 = float(rng.uniform(0.3, 1.5))
        b3 = float(rng.uniform(-1.5, -0.3))
        if abs(a[0] * b3 - b0 * r) >= 0.1 * math.hypot(a[0], r) * math.hypot(b0, b3):
            return a, b0, b3


def _noncommuting_pair(rng) -> list[list[float]]:
    """Two observables whose Bloch axes are at least 30 degrees from parallel."""
    while True:
        a = _observable(rng, 0.3)
        b = _observable(rng, 0.3)
        ua = np.array(a[1:]) / np.linalg.norm(a[1:])
        ub = np.array(b[1:]) / np.linalg.norm(b[1:])
        if np.linalg.norm(np.cross(ua, ub)) >= 0.5:
            return [a, b]


def _bloch(rng, radius: float) -> list[float]:
    v = rng.normal(size=3)
    v *= radius * rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(v)
    return [float(x) for x in v]


def _search(workdir, name, kind, gens, seed, restarts, max_evals, xnc=False):
    """`search` in exact mode on a class no exact machine clones; exit 1 expected."""
    doc = {"kind": kind, "generators": gens}
    cls_path = workdir / f"{name}.class.json"
    cls_path.write_text(json.dumps(doc))
    out = workdir / f"{name}.out.json"
    argv = (
        "search", str(cls_path), "--mode", "exact",
        "--restarts", str(restarts), "--max-evals", str(max_evals),
        "--seed", str(seed), f"--tol={_num(SEARCH_TOL)}", "--out", str(out),
    )
    expect = {"class": doc, "xnc": xnc}
    return Command("search", argv, out, expect)


def _search_seed(rng) -> int:
    return int(rng.integers(2**31))


def _floor_pool(workdir, rng) -> list[Command]:
    """Classes no exact machine clones: sigma1/sigma2, the Pauli basis, random noncommuting pairs."""
    cmds = []
    for i in range(FLOOR_POOL):
        name = f"floor{i}"
        slot = i % 3
        if slot == 0:
            gens, kind = XNC_GENERATORS, "two-param-noncommuting"
        elif slot == 1:
            gens, kind = PAULI_BASIS, "general"
        else:
            gens, kind = _noncommuting_pair(rng), "two-param-noncommuting"
        cmds.append(
            _search(workdir, name, kind, gens, _search_seed(rng), 1, 1000, xnc=slot == 0)
        )
    return cmds


def _build_args(family, rng) -> tuple[list[str], dict]:
    if family == "cnot":
        return [], {}
    if family == "one-param":
        obs = _observable(rng, 0.1)
        return [f"--obs={_csv(obs)}"], {"obs": obs}
    if family == "commuting":
        obs, b0, b3 = _commuting_pair(rng)
        return [f"--obs={_csv(obs)}", f"--b0={_num(b0)}", f"--b3={_num(b3)}"], {"obs": obs}
    theta = float(rng.uniform(THETA_MARGIN, math.pi / 2 - THETA_MARGIN))
    return [f"--theta={_num(theta)}"], {"theta": theta}


def _mix_groups(workdir, rng, groups: int, prefix: str) -> list[Command]:
    """Groups of build, verify of the built document, scan and compare.

    Group g builds family g mod 5, so every family is built and verified
    equally often; scan and compare take their own seeded states.
    """
    cmds = []
    for g in range(groups):
        family = FAMILIES[g % len(FAMILIES)]
        name = f"{prefix}{g}"
        machine = workdir / f"{name}.machine.json"
        args, expect = _build_args(family, rng)
        expect["family"] = family
        cmds.append(Command("build", ("build", family, *args, "--out", str(machine)), machine, expect))
        report = workdir / f"{name}.verify.json"
        cmds.append(Command("verify", ("verify", str(machine), "--out", str(report)), report, {}))
        state = _bloch(rng, 0.95)
        scan = workdir / f"{name}.scan.csv"
        argv = ("scan", f"--state={_csv(state)}", "--steps", str(SCAN_STEPS), "--out", str(scan))
        cmds.append(Command("scan", argv, scan, {"state": state}))
        state = _bloch(rng, 0.95)
        compare = workdir / f"{name}.compare.json"
        argv = ("compare", f"--state={_csv(state)}", "--out", str(compare))
        cmds.append(Command("compare", argv, compare, {"state": state}))
    return cmds


def _warmup(workdir) -> list[Command]:
    """One command of every kind, on inputs outside the measured streams."""
    rng = np.random.default_rng(0)
    cmds = _mix_groups(workdir, rng, 1, "warm")
    cmds.append(_search(workdir, "warm", "two-param-noncommuting", XNC_GENERATORS, 0, 1, 50))
    return cmds


def plan(workload: str, seed: int, workdir: Path) -> Plan:
    """Write the seeded inputs of one run under workdir and return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    warmup = _warmup(workdir)
    if workload == "cli-mix":
        cmds = _mix_groups(workdir, rng, MIX_POOL_GROUPS, "mix")
        steps = [tuple(cmds[i : i + 4]) for i in range(0, len(cmds), 4)]
        return Plan(steps, 4, warmup, trace_unit=4 * 60, trace_period=10)
    pool = _floor_pool(workdir, rng)
    per_step = 4 * COMPANION_GROUPS
    companions = _mix_groups(workdir, rng, COMPANION_GROUPS * len(pool), "step")
    steps = [(cmd, *companions[per_step * i : per_step * (i + 1)]) for i, cmd in enumerate(pool)]
    return Plan(steps, 1, warmup, trace_unit=3, trace_period=15)


# --- output checks -------------------------------------------------------


def check(cmd: Command, code, data: bytes) -> str | None:
    """Reason the output of cmd is wrong, or None when it passes."""
    try:
        return _CHECKS[cmd.kind](cmd, code, data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _exit(code, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def _check_search(cmd, code, data):
    bad = _exit(code, 1)
    if bad:
        return bad
    doc = json.loads(data)
    if doc["converged"] is not False:
        return f"converged is {doc['converged']!r}, expected false"
    cls = class_from_dict(cmd.expect["class"])
    point = SearchSpacePoint.from_dict(doc["best_point"])
    best = float(doc["best_defect"])
    recomputed = cloning_defect(point, cls, "exact")
    if abs(recomputed - best) > 1e-9:
        return f"best_defect {best!r} disagrees with its point's defect {recomputed!r}"
    if cmd.expect["xnc"] and best < XNC_FLOOR - 1e-12:
        return f"sigma1/sigma2 defect {best!r} is below sqrt(2) - 1"
    return None


def _check_build(cmd, code, data):
    bad = _exit(code, 0)
    if bad:
        return bad
    doc = json.loads(data)
    m = machine_from_dict(doc)
    e = cmd.expect
    if "obs" in e and doc["class"]["generators"][0] != e["obs"]:
        return "first generator differs from the requested observable"
    if "theta" in e:
        want = (1.0 / math.cos(e["theta"]), 1.0 / math.sin(e["theta"]))
        if not np.allclose(m.gains, want, rtol=1e-12, atol=0.0):
            return f"gains {m.gains} differ from (1/cos, 1/sin) of theta"
    return None


def _check_verify(cmd, code, data):
    bad = _exit(code, 0)
    if bad:
        return bad
    doc = json.loads(data)
    if doc["passed"] is not True or not doc["max_defect"] < VERIFY_TOL:
        return f"verify did not pass (max_defect {doc['max_defect']!r})"
    return None


def _check_scan(cmd, code, data):
    bad = _exit(code, 0)
    if bad:
        return bad
    lines = data.decode().split("\n")
    if lines[0] != "theta,di1,di2,dm1,dm2,product,bound" or lines[-1] != "":
        return "scan output is not a header plus LF-terminated rows"
    rows = lines[1:-1]
    if len(rows) != SCAN_STEPS:
        return f"{len(rows)} scan rows, expected {SCAN_STEPS}"
    state = QubitState(np.array(cmd.expect["state"]))
    for theta, row in zip(SCAN_THETAS, rows):
        values = [float(v) for v in row.split(",")]
        if abs(values[0] - theta) > 1e-12:
            return f"scan row at theta={values[0]!r}, expected {theta!r}"
        r = uncertainty_product(t_machine(values[0]), state)
        want = (values[0], r.delta_i1, r.delta_i2, r.delta_m1, r.delta_m2, r.product, r.lower_bound)
        if row != ",".join(format(v, ".17g") for v in want):
            return f"scan row at theta={values[0]!r} differs from the library's report"
        if values[5] < values[6] - 1e-10:
            return f"scan product {values[5]!r} below its bound {values[6]!r}"
    return None


def _check_compare(cmd, code, data):
    bad = _exit(code, 0)
    if bad:
        return bad
    doc = json.loads(data)
    s1, s2, _ = cmd.expect["state"]
    want = (2.25 - s1 * s1) * (2.25 - s2 * s2)
    if abs(doc["universal_product"] - want) > 1e-12:
        return f"universal_product {doc['universal_product']!r}, expected {want!r}"
    return None


_CHECKS = {
    "search": _check_search,
    "build": _check_build,
    "verify": _check_verify,
    "scan": _check_scan,
    "compare": _check_compare,
}
