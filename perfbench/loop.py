"""Closed-loop runner: one client, one command at a time, each output checked.

Commands run in-process through the CLI's `main(argv)`. Only the call is
timed; deleting the stale output file before it and checking the output
after it are the client's own time and are excluded.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

from hostspeed import SpeedLog
from spans import LAYERS, Tracer
from workloads import CLI_KINDS, XNC_FLOOR, Command, Plan, check

TAIL_BEYOND = 10


class Session:
    """Runs commands, checks each output once and holds repeats to the first output's bytes."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[tuple, tuple] = {}  # argv -> (exit code, bytes, failure reason)

    def run(self, cmd: Command, tracer: Tracer | None = None) -> float:
        """Run and check cmd; return its seconds. With a tracer, spans are recorded during the call only."""
        cmd.out.unlink(missing_ok=True)
        error = None
        main = self.main if tracer is None else tracer.wrap("cli", "main", self.main)
        with contextlib.nullcontext() if tracer is None else tracer.installed():
            t0 = time.perf_counter()
            try:
                code = main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crashing command is a failed command, not a crashed run
                code, error = None, f"raised {exc!r}"
            dt = time.perf_counter() - t0
        self.attempted += 1
        data = cmd.out.read_bytes() if cmd.out.exists() else b""
        first = self.outputs.get(cmd.argv)
        if first is None:
            reason = error or check(cmd, code, data)
            self.outputs[cmd.argv] = (code, data, reason)
        elif (code, data) != first[:2]:
            reason = "output differs from an earlier run of the same command"
        else:
            reason = first[2]
        if reason:
            self.failures.append(f"{' '.join(cmd.argv[:2])}: {reason}")
        return dt

    def run_scaled(self, cmd: Command, speed: SpeedLog, tracer: Tracer | None = None) -> tuple[float, float]:
        """Run cmd after timing the host reference if due; return its unscaled seconds and midpoint."""
        speed.sample_if_due()
        t = time.perf_counter()
        dt = self.run(cmd, tracer)
        return dt, t + dt / 2

    def run_for(self, plan: Plan, seconds: float, speed: SpeedLog) -> list[tuple[str, float, bool, float]]:
        """Cycle the plan's steps until seconds have passed; at least one step runs.

        Returns, per command, its kind, its seconds, whether it is one of
        the workload's own commands, and the midpoint of its run. The
        reference is timed once more at the end, so the last commands have
        one after them.
        """
        out = []
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            for j, cmd in enumerate(plan.steps[i % len(plan.steps)]):
                dt, mid = self.run_scaled(cmd, speed)
                out.append((cmd.kind, dt, j < plan.own, mid))
            i += 1
        speed.sample()
        return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value and percentile of the highest rank with TAIL_BEYOND samples above it, and the sample count.

    With fewer than TAIL_BEYOND + 1 samples no rank qualifies; the minimum is reported.
    """
    ordered = sorted(latencies)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def end_to_end(plan: Plan, session: Session, seconds: int) -> tuple[dict, dict]:
    """Untraced run of the workload's steps for `seconds`, latencies scaled to the nominal host.

    The tail goes to the details with the unscaled figures: it is set by
    the host's short stalls, which the reference cannot follow.
    """
    speed = SpeedLog()
    timed = session.run_for(plan, seconds, speed)
    scaled = [(kind, dt * speed.scale(t), own) for kind, dt, own, t in timed]
    own = [dt for _, dt, is_own in scaled if is_own]
    raw = [dt for _, dt, is_own, _ in timed if is_own]
    tail_s, tail_pct, n = tail(own)
    metrics = {
        "cmds_per_s": (n / sum(own), "1/s"),
        "cmd_p50_ms": (1e3 * statistics.median(own), "ms"),
    }
    details = {
        "cmd_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_pct,
        "samples": n,
        "unscaled": {
            "cmds_per_s": n / sum(raw),
            "cmd_p50_ms": 1e3 * statistics.median(raw),
            "cmd_tail_ms": 1e3 * tail(raw)[0],
        },
        "reference_s": {"median": statistics.median(speed.refs), "min": min(speed.refs), "max": max(speed.refs)},
    }
    for kind in CLI_KINDS:
        metrics[f"{kind}_p50_ms"] = (1e3 * statistics.median(dt for k, dt, _ in scaled if k == kind), "ms")
        samples = [dt for k, dt, _, _ in timed if k == kind]
        details[f"{kind}_samples"] = len(samples)
        details["unscaled"][f"{kind}_p50_ms"] = 1e3 * statistics.median(samples)
    return metrics, details


def per_layer(plan: Plan, session: Session, seconds: int) -> tuple[dict, dict]:
    """The traced run's fixed command list, each command once untraced and once traced.

    The two runs of a command are adjacent, and their order alternates from
    one command to the next so that neither side always runs first. The
    second run's output must be byte-identical to the first's. Span times
    are scaled to the nominal host by the median scale over the traced runs.
    """
    cmds = plan.trace_commands(seconds)
    tracer = Tracer()
    speed = SpeedLog()
    runs = {False: [], True: []}
    for i, cmd in enumerate(cmds):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            runs[with_trace].append(session.run_scaled(cmd, speed, tracer if with_trace else None))
    speed.sample()
    plain, traced = (sum(dt * speed.scale(t) for dt, t in runs[side]) for side in (False, True))
    k = statistics.median(speed.scale(t) for _, t in runs[True])

    n = len(cmds)
    # Outputs that failed their check count in `failed` and are left out here.
    passed = [
        (c, json.loads(session.outputs[c.argv][1]))
        for c in cmds
        if c.kind == "search" and not session.outputs[c.argv][2]
    ]
    searches = [doc for _, doc in passed]
    xnc = [doc["best_defect"] - XNC_FLOOR for c, doc in passed if c.expect["xnc"]]

    def us_per_call(layer, *names):
        calls, secs = tracer.total(layer, *names)
        return 1e6 * k * secs / calls if calls else 0.0

    def calls_per_cmd(layer, *names):
        return tracer.total(layer, *names)[0] / n

    search_s = tracer.total("search", "search_machine")[1]
    objective_s = tracer.total("search", "objective")[1]
    metrics = {
        "search.evals_per_cmd": (sum(r["evaluations"] for r in searches) / len(searches) if searches else 0.0, "count"),
        "search.objective_us_per_eval": (us_per_call("search", "objective"), "us"),
        "search.optimizer_overhead_share": (1.0 - objective_s / search_s if search_s else 0.0, "share"),
        "search.xnc_floor_gap": (min(xnc) if xnc else 0.0, "1"),
        "machines.verify_us": (us_per_call("machines", "verify_exact", "verify_approximate"), "us"),
        "machines.verify.calls": (calls_per_cmd("machines", "verify_exact", "verify_approximate"), "1/cmd"),
        "machines.lift_us": (us_per_call("machines", "heisenberg_lift"), "us"),
        "machines.lift.calls": (calls_per_cmd("machines", "heisenberg_lift"), "1/cmd"),
        "machines.build_us": (
            us_per_call(
                "machines", "cnot_machine", "one_param_machine", "commuting_machine",
                "t_machine", "phase_covariant_machine",
            ),
            "us",
        ),
        "machines.io_us": (us_per_call("machines", "machine_to_dict", "machine_from_dict"), "us"),
        "machines.output_state_us": (us_per_call("machines", "output_state"), "us"),
        "jointmeas.uncertainty_us": (us_per_call("jointmeas", "uncertainty_product"), "us"),
        "jointmeas.uncertainty.calls": (calls_per_cmd("jointmeas", "uncertainty_product"), "1/cmd"),
        "classes.from_dict_us": (us_per_call("classes", "class_from_dict"), "us"),
        "pauli.decompose_us": (us_per_call("pauli", "decompose"), "us"),
        "pauli.decompose.calls": (calls_per_cmd("pauli", "decompose"), "1/cmd"),
        "linalg.pauli_rotation.calls": (calls_per_cmd("linalg", "pauli_rotation"), "1/cmd"),
        "linalg.partial_trace_us": (us_per_call("linalg", "partial_trace"), "us"),
        "cli.out_bytes_per_cmd": (sum(len(session.outputs[c.argv][1]) for c in cmds) / n, "bytes"),
        "trace.overhead_share": (traced / plain - 1.0, "share"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_cmd"] = (1e3 * k * tracer.self_seconds(layer) / n, "ms")
    details = {
        "traced_commands": n,
        "untraced_s": plain,
        "traced_s": traced,
        "span_scale": k,
        "spans": tracer.summary(),
    }
    return metrics, details
