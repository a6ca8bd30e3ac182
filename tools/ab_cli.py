"""In-process A/B timing of the cli-mix commands between two source trees.

Usage, from the root of the repository:

    python3 tools/ab_cli.py OLD_SRC NEW_SRC [SEEDS]

OLD_SRC and NEW_SRC are the `src/` directories of two checkouts, for
example a clone of the parent commit and this tree. SEEDS are workload
seeds, as step_split.py reads them; the default is 1-10. Each tree's
`obsclone` package is copied and imported into this one interpreter, as
ab_search.py does. For each seed, perfbench/workloads.py's `plan()`, read
with NEW_SRC's package, writes the cli-mix inputs once per tree, each in
its own directory, so a tree's `verify` reads the document its own `build`
wrote. The warm-up commands run once per tree untimed; then every pool
command runs through each copy's `obsclone.cli.main`.

Each command runs ROUNDS times per tree, the two trees alternating and
taking turns to go first, and its --out file is removed before every call,
outside the timed span, as perfbench's runner does; per command and tree
the fastest run counts. The output gives, for each command kind (build,
verify, scan, compare), the median and the quartiles of the per-command
ratios new/old, and names every command whose exit code or output bytes
differ between the trees.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5


def run(main, cmd) -> tuple[int, object, bytes]:
    """Remove cmd's output, then time one call of main on its argv: (ns, exit code, output bytes)."""
    cmd.out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        code = main(list(cmd.argv))
        ns = time.perf_counter_ns() - start
    return ns, code, cmd.out.read_bytes() if cmd.out.exists() else b""


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    sys.path[:0] = [str(Path(argv[1]).resolve()), str(ROOT / "perfbench"), str(ROOT / "tools")]
    from ab_search import load_trees
    from step_split import parse_seeds
    from workloads import CLI_KINDS, plan

    seeds = parse_seeds(argv[2] if len(argv) == 3 else "1-10")
    ratios = {kind: [] for kind in CLI_KINDS}
    commands = differ = 0
    with tempfile.TemporaryDirectory(prefix="ab_cli_") as tmp:
        mains = [cli.main for (cli,) in load_trees(argv[:2], Path(tmp), "cli")]
        for seed in seeds:
            plans = [plan("cli-mix", seed, Path(tmp) / f"{seed}-{tree}") for tree in range(2)]
            for t in (0, 1):
                for cmd in plans[t].warmup:
                    run(mains[t], cmd)
            pools = [[cmd for step in p.steps for cmd in step] for p in plans]
            for cmds in zip(*pools):
                best, outputs = [None, None], [None, None]
                for r in range(ROUNDS):
                    for t in (0, 1) if r % 2 == 0 else (1, 0):
                        ns, *outputs[t] = run(mains[t], cmds[t])
                        best[t] = ns if best[t] is None else min(best[t], ns)
                ratios[cmds[0].kind].append(best[1] / best[0])
                commands += 1
                if outputs[0] != outputs[1]:
                    differ += 1
                    (old_code, old_bytes), (new_code, new_bytes) = outputs
                    same = "same" if old_bytes == new_bytes else "different"
                    print(f"differs: seed {seed} {' '.join(cmds[0].argv[:2])} ({cmds[0].out.name}):"
                          f" exit code {old_code} -> {new_code}, {same} output bytes")
    print(f"{commands} cli-mix commands, workload seeds {','.join(map(str, seeds))}, {ROUNDS} rounds per tree")
    for kind, values in ratios.items():
        low, median, high = statistics.quantiles(values, n=4, method="inclusive")
        print(f"{kind}: {len(values)} commands, median ratio new/old {median:.4f}, quartiles {low:.4f} {high:.4f}")
    print(f"outputs: {commands - differ} identical, {differ} differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
