"""obsclone benchmark: seeded CLI workloads in a closed loop, with a per-layer traced mode.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process, one thread: BLAS and OpenMP pools are pinned to
one thread before numpy loads. The package is imported from `src/` of the
same tree, never from an installed copy. With `--trace 0` the run reports
the end-to-end metrics; with `--trace 1` it reports the per-layer ones.
The last line of standard output is the JSON result; the line before it
records the environment and details such as the tail percentile and the
sample count. The exit code is 0 whenever a result was printed, and
`correct` is false when any command failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Fresh interpreters whose set-up is timed per run: this process and SETUP_SAMPLES - 1 probes.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, workdir: Path):
    """Import the CLI, write the seeded inputs and run one untimed command of each kind.

    Returns (import seconds, inputs seconds, host scale, plan). The host
    scale converts this process's times to the nominal host (see
    hostspeed); its reference is timed between and after the two timed
    parts. Call this before anything in the process imports numpy or the
    package, or the import is not timed.
    """
    t0 = time.perf_counter()
    import obsclone.cli

    import workloads

    t1 = time.perf_counter()
    import hostspeed

    refs = [hostspeed.reference() for _ in range(2)]
    t2 = time.perf_counter()
    plan = workloads.plan(workload, seed, workdir)
    for cmd in plan.warmup:
        obsclone.cli.main(list(cmd.argv))
    t3 = time.perf_counter()
    refs += [hostspeed.reference() for _ in range(3)]
    return t1 - t0, t3 - t2, hostspeed.REF_NOMINAL_S / statistics.median(refs), plan


def _probe(workload: str, seed: int, workdir: Path) -> tuple[float, float, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}:\n{proc.stderr}")
    sample = json.loads(proc.stdout.splitlines()[-1])
    return sample["import_s"], sample["inputs_s"], sample["scale"]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def measure(args, workdir: Path) -> tuple[dict, dict]:
    samples = [_probe(args.workload, args.seed, workdir / f"probe{i}") for i in range(SETUP_SAMPLES - 1)]
    *sample, plan = setup(args.workload, args.seed, workdir / "run")
    samples.append(tuple(sample))

    import obsclone.cli

    import loop

    session = loop.Session(obsclone.cli.main)
    if args.trace:
        metrics, details = loop.per_layer(plan, session, args.seconds)
        metrics["setup.import_s"] = (statistics.median(a * k for a, _, k in samples), "s")
        metrics["setup.inputs_s"] = (statistics.median(b * k for _, b, k in samples), "s")
    else:
        metrics, details = loop.end_to_end(plan, session, args.seconds)
        metrics["setup_s"] = (statistics.median((a + b) * k for a, b, k in samples), "s")
    details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        setup_samples=[{"import_s": a, "inputs_s": b, "scale": k} for a, b, k in samples],
        failures=session.failures[:20],
        environment=environment(),
    )
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["search-floor", "cli-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "obsclone" / "cli.py").is_file():
        sys.stderr.write(f"error: no obsclone sources under {SRC}\n")
        return 2
    for key in THREAD_ENV:
        os.environ[key] = "1"
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result, details = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
