"""In-process A/B timing of a benchmark workload's commands between two source trees.

Usage, from the root of the repository:

    python3 tools/ab.py OLD_SRC NEW_SRC WORKLOAD [SEEDS]

OLD_SRC and NEW_SRC are the `src/` directories of two checkouts, for
example a clone of the parent commit and this tree. WORKLOAD is one of
perfbench's workloads, cli-mix or search-floor. SEEDS are workload seeds,
as a list (1,2,5), a range (1-10) or both (1-3,7); the default is 1-10.
The `obsclone` package of each tree is copied into a temporary directory
under its own name, obsclone_old and obsclone_new (its imports are
relative), and both copies are imported into this one interpreter. For
each seed, perfbench/workloads.py's `plan()`, read with NEW_SRC's
package, writes the workload's inputs once per tree, each in its own
directory, so a tree's `verify` reads the document its own `build` wrote.
The warm-up commands run once per tree untimed; then each step's own
commands (`step[:plan.own]`: every cli-mix command, the search of each
search-floor step) run through each copy's `obsclone.cli.main`.

Each command runs ROUNDS times per tree, the two trees alternating and
taking turns to go first, and its --out file is removed before every
call, outside the timed span, as perfbench's runner does; per command and
tree the fastest run counts. A command whose exit code or output bytes
differ between the trees is named as it runs, with its two exit codes
(tools/compare_outputs.py says how an output moved). Then come, per
command kind, the count, the ratio new/old of the sums of per-command
minima and the median and the quartiles of the per-command ratios; each
workload seed's ratio of sums; and the count of outputs identical and
differing. Separate processes of one pair of trees can differ by
several percent on a shared host, where this interleaved comparison
repeats within about a percent; the quartiles and the seeds' ratios show
the spread. A tree timed against itself has read up to ~3% apart over
three seeds, so a claim of a few percent needs ten seeds or more.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5
TREES = ("old", "new")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def planned(workload: str, seed: int, workdir: Path):
    """(warm-up commands, own commands of every step) of one workload seed, its inputs written under workdir.

    perfbench/workloads.py is read with the `obsclone` package on sys.path."""
    from workloads import plan

    p = plan(workload, seed, workdir)
    return p.warmup, [cmd for step in p.steps for cmd in step[: p.own]]


def run(main, cmd) -> tuple[int, object, bytes]:
    """Remove cmd's output, then time one call of main on its argv: (ns, exit code, output bytes)."""
    cmd.out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        code = main(list(cmd.argv))
        ns = time.perf_counter_ns() - start
    return ns, code, cmd.out.read_bytes() if cmd.out.exists() else b""


def load_mains(sources, tmp: Path) -> list:
    """Copy each tree's obsclone package under tmp as obsclone_<name> and import it; return each copy's cli.main."""
    sys.path.insert(0, str(tmp))
    mains = []
    for src, name in zip(sources, TREES):
        package = f"obsclone_{name}"
        shutil.copytree(Path(src) / "obsclone", tmp / package, ignore=shutil.ignore_patterns("__pycache__"))
        mains.append(importlib.import_module(f"{package}.cli").main)
    return mains


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        sys.stderr.write(__doc__)
        return 2
    sys.path[:0] = [str(Path(argv[1]).resolve()), str(ROOT / "perfbench")]
    workload = argv[2]
    seeds = parse_seeds(argv[3] if len(argv) == 4 else "1-10")
    spent, by_seed, differ = {}, {}, 0
    with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
        mains = load_mains(argv[:2], Path(tmp))
        for seed in seeds:
            plans = [planned(workload, seed, Path(tmp) / f"{seed}-{tree}") for tree in TREES]
            for t in (0, 1):
                for cmd in plans[t][0]:
                    run(mains[t], cmd)
            for cmds in zip(plans[0][1], plans[1][1]):
                best, outputs = [None, None], [None, None]
                for r in range(ROUNDS):
                    for t in (0, 1) if r % 2 == 0 else (1, 0):
                        ns, *outputs[t] = run(mains[t], cmds[t])
                        best[t] = ns if best[t] is None else min(best[t], ns)
                spent.setdefault(cmds[0].kind, []).append(best)
                by_seed.setdefault(seed, []).append(best)
                if outputs[0] != outputs[1]:
                    differ += 1
                    print(f"differs: seed {seed} {' '.join(cmds[0].argv[:2])} ({cmds[0].out.name}):"
                          f" exit code {outputs[0][0]} -> {outputs[1][0]}")
    count = sum(map(len, spent.values()))
    print(f"{count} {workload} commands, workload seeds {','.join(map(str, seeds))}, {ROUNDS} rounds per tree")
    for kind, pairs in spent.items():
        old, new = (sum(column) for column in zip(*pairs))
        low, median, high = statistics.quantiles([b / a for a, b in pairs], n=4, method="inclusive")
        print(f"{kind}: {len(pairs)} commands, total ratio new/old {new / old:.4f},"
              f" median ratio {median:.4f}, quartiles {low:.4f} {high:.4f}")
    ratios = {seed: sum(b for _, b in pairs) / sum(a for a, _ in pairs) for seed, pairs in by_seed.items()}
    print("per workload seed: " + ", ".join(f"{seed} {ratio:.4f}" for seed, ratio in ratios.items()))
    print(f"outputs: {count - differ} identical, {differ} differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
