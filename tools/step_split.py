"""Per-step cost split of the SQP descent over the search-floor searches.

Usage, from the root of the repository:

    python3 tools/step_split.py SRC [SEEDS]

SRC is the `src/` directory of a checkout, for example this tree's or a
clone of the parent commit. SEEDS are workload seeds, as a list (1,2,5),
a range (1-10) or both (1-3,7); the default is 1-10. For each seed the
search-floor pool that perfbench/workloads.py's `plan()` draws is run
in-process, as the `search` command would run it, through
`obsclone.search.search_machine`.

Each search runs once as it is, then PASSES times with the objective
callable, `optimize._simplex_qp`, `optimize._bfgs_update` and
`optimize.minimize` wrapped in timers from outside; every wrapped run
must return the unwrapped run's result, field for field, or the tool
exits 1. Per search the pass with the least descent time counts. The
table gives, per SQP step (one QP), the calls and microseconds of the
rows calls fun(x, rows), the plain calls fun(x), the QP, the BFGS update
and the rest of the descent, which is minimize's time less the four
timed parts; the timers' own cost (a few tenths of a microsecond per
call) falls partly in each part and partly in the rest. The last lines
give the steps, the evaluations and the descent time in total.
"""

from __future__ import annotations

import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = 3
PARTS = ("rows", "plain", "qp", "bfgs")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def searches(seeds):
    """(label, class, mode, config) of every search-floor pool search of the given workload seeds."""
    from obsclone.classes import class_from_dict
    from obsclone.cli import build_parser
    from obsclone.search import SearchConfig
    from workloads import plan

    with tempfile.TemporaryDirectory(prefix="step_split_") as tmp:
        for seed in seeds:
            for step in plan("search-floor", seed, Path(tmp) / str(seed)).steps:
                cmd = step[0]
                args = build_parser().parse_args(cmd.argv)
                config = SearchConfig(args.restarts, args.max_evals, args.seed, args.tol)
                yield f"seed {seed} {cmd.out.name}", class_from_dict(cmd.expect["class"]), args.mode, config


def timed_run(cls, mode, config):
    """One search with the descent's parts wrapped in timers: (result, {part: [calls, ns]}, descent ns)."""
    from obsclone import optimize, search

    clock = time.perf_counter_ns
    stats = {part: [0, 0] for part in PARTS}
    descent = [0]
    originals = search._objective, optimize._simplex_qp, optimize._bfgs_update, optimize.minimize

    def wrap(part, f):
        record = stats[part]

        def timed(*args):
            t = clock()
            value = f(*args)
            record[1] += clock() - t
            record[0] += 1
            return value

        return timed

    def objective(c, mode):
        fun = originals[0](c, mode)
        rows_call, plain_call = wrap("rows", fun), wrap("plain", fun)
        return lambda x, rows=None: plain_call(x) if rows is None else rows_call(x, rows)

    def minimize(*args):
        t = clock()
        value = originals[3](*args)
        descent[0] += clock() - t
        return value

    search._objective, optimize._simplex_qp = objective, wrap("qp", originals[1])
    optimize._bfgs_update, optimize.minimize = wrap("bfgs", originals[2]), minimize
    try:
        result = search.search_machine(cls, mode, config)
    finally:
        search._objective, optimize._simplex_qp, optimize._bfgs_update, optimize.minimize = originals
    return result, stats, descent[0]


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(ROOT / "perfbench")]
    from obsclone.search import result_to_dict, search_machine

    seeds = parse_seeds(argv[1] if len(argv) == 2 else "1-10")
    total, descent, evaluations, count = Counter(), 0, 0, 0
    for label, cls, mode, config in searches(seeds):
        want = result_to_dict(search_machine(cls, mode, config))
        best = None
        for _ in range(PASSES):
            result, stats, ns = timed_run(cls, mode, config)
            if result_to_dict(result) != want:
                sys.stderr.write(f"{label}: the wrapped run's result differs from the unwrapped run's\n")
                return 1
            if best is None or ns < best[1]:
                best = stats, ns
        stats, ns = best
        for part, (calls, spent) in stats.items():
            total[part + " calls"] += calls
            total[part] += spent
        descent += ns
        evaluations += want["evaluations"]
        count += 1
    steps = total["qp calls"]
    rest = descent - sum(total[part] for part in PARTS)
    print(f"{count} searches, workload seeds {','.join(map(str, seeds))}, source {argv[0]}")
    print(f"{'part':<6} {'calls/step':>10} {'us/step':>8} {'us/call':>8}")
    for part in PARTS:
        calls = total[part + " calls"]
        print(f"{part:<6} {calls / steps:>10.2f} {total[part] / steps / 1e3:>8.1f} {total[part] / max(calls, 1) / 1e3:>8.1f}")
    print(f"{'rest':<6} {'':>10} {rest / steps / 1e3:>8.1f}")
    print(f"{'total':<6} {'':>10} {descent / steps / 1e3:>8.1f}")
    print(f"steps {steps}, evaluations {evaluations}, descent {descent / 1e6:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
