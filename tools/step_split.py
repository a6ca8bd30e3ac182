"""Per-step cost split of the SQP descent over the search-floor searches.

Usage, from the root of the repository:

    python3 tools/step_split.py SRC [SEEDS]

SRC is the `src/` directory of a checkout, for example this tree's or a
clone of the parent commit, whose objective fun(x, above=None) returns
(value, (phis, grads)), or (above, None) for a trial it cuts short; a tree
with an older objective, one that returns a rows function or takes
fun(x, rows), is timed with the step_split.py of its own commit. SEEDS are
workload seeds, as a list
(1,2,5), a range (1-10) or both (1-3,7); the default is 1-10. For each
seed the searches of the search-floor steps, as tools/ab.py plans them,
run in-process through `obsclone.cli.main`.

Each search runs once as it is, then PASSES times with the objective
callable, `optimize._simplex_qp`, `optimize._bfgs_update` and
`optimize.minimize` wrapped in timers from outside; every wrapped run must
give the unwrapped run's exit code and output bytes, or the tool exits 1.
Per search the pass with the least descent time counts. The table gives,
per SQP step (one QP), the calls and microseconds of the plain calls,
which score a point in full and return its rows, gradients included (the
start's fun(x) and each line-search trial fun(x, above) that is not cut
short), the bounded calls, trials that stop at the first pair putting the
defect at or above `above` and return no rows, the QP, the BFGS update
and the rest of the descent, which is minimize's time less the four timed
parts; the timers' own cost (a few tenths of a microsecond per call)
falls partly in each part and partly in the rest. Then come the steps,
the evaluations and the descent time in
total, and the QPs by shape: the pairs, the support's size on entry and
on return (the QP edits it in place), the count and share of such QPs and
their microseconds per call, for the SHAPES most common shapes and then
the others together. The benchmark's tracer does not see inside
`optimize.py`, so these lines show which QPs a change to the QP speeds up.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from ab import parse_seeds, planned, run

ROOT = Path(__file__).resolve().parent.parent
PASSES = 3
PARTS = ("plain", "bounded", "qp", "bfgs")
SHAPES = 10


def timed_run(cmd):
    """One search command with the descent's parts wrapped in timers:
    ((exit code, output bytes), {part: [calls, ns]}, descent ns, shapes), shapes the QPs' {(pairs, support size in, out): [calls, ns]}."""
    from obsclone import cli, optimize, search

    clock = time.perf_counter_ns
    stats = {part: [0, 0] for part in PARTS}
    descent, shapes = [0], {}
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
        scored = originals[0](c, mode)

        def fun(x, above=None):
            t = clock()
            value, rows = scored(x, above)
            record = stats["plain" if rows is not None else "bounded"]
            record[1] += clock() - t
            record[0] += 1
            return value, rows

        return fun

    def qp(m, gap, support):
        size, t = len(support), clock()
        value = originals[1](m, gap, support)
        ns = clock() - t
        for record in stats["qp"], shapes.setdefault((len(gap), size, len(support)), [0, 0]):
            record[0] += 1
            record[1] += ns
        return value

    def minimize(*args):
        t = clock()
        value = originals[3](*args)
        descent[0] += clock() - t
        return value

    search._objective, optimize._simplex_qp = objective, qp
    optimize._bfgs_update, optimize.minimize = wrap("bfgs", originals[2]), minimize
    try:
        _, *output = run(cli.main, cmd)
    finally:
        search._objective, optimize._simplex_qp, optimize._bfgs_update, optimize.minimize = originals
    return output, stats, descent[0], shapes


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(ROOT / "perfbench")]
    from obsclone import cli

    seeds = parse_seeds(argv[1] if len(argv) == 2 else "1-10")
    total, descent, evaluations, count, shapes = Counter(), 0, 0, 0, {}
    with tempfile.TemporaryDirectory(prefix="step_split_") as tmp:
        for cmd in [cmd for seed in seeds for cmd in planned("search-floor", seed, Path(tmp) / str(seed))[1]]:
            _, *want = run(cli.main, cmd)
            best = None
            for _ in range(PASSES):
                output, stats, ns, qps = timed_run(cmd)
                if output != want:
                    sys.stderr.write(f"seed {cmd.out.parent.name} {cmd.out.name}: the wrapped run's output differs from the unwrapped run's\n")
                    return 1
                if best is None or ns < best[1]:
                    best = stats, ns, qps
            stats, ns, qps = best
            for part, (calls, spent) in stats.items():
                total[part + " calls"] += calls
                total[part] += spent
            for shape, (calls, spent) in qps.items():
                record = shapes.setdefault(shape, [0, 0])
                record[0] += calls
                record[1] += spent
            descent += ns
            evaluations += json.loads(want[1])["evaluations"]
            count += 1
    steps = total["qp calls"]
    rest = descent - sum(total[part] for part in PARTS)
    print(f"{count} searches, workload seeds {','.join(map(str, seeds))}, source {argv[0]}")
    print(f"{'part':<7} {'calls/step':>10} {'us/step':>8} {'us/call':>8}")
    for part in PARTS:
        calls = total[part + " calls"]
        print(f"{part:<7} {calls / steps:>10.2f} {total[part] / steps / 1e3:>8.1f} {total[part] / max(calls, 1) / 1e3:>8.1f}")
    print(f"{'rest':<7} {'':>10} {rest / steps / 1e3:>8.1f}")
    print(f"{'total':<7} {'':>10} {descent / steps / 1e3:>8.1f}")
    print(f"steps {steps}, evaluations {evaluations}, descent {descent / 1e6:.1f} ms")
    print(f"{'shape':<6} {'pairs':>5} {'in':>3} {'out':>3} {'QPs':>6} {'share':>6} {'us/call':>8}")
    ranked = sorted(shapes.items(), key=lambda item: -item[1][0])
    rest = [sum(record[i] for _, record in ranked[SHAPES:]) for i in (0, 1)]
    rows = [(f"{pairs:>5} {size:>3} {left:>3}", record) for (pairs, size, left), record in ranked[:SHAPES]]
    for label, (calls, spent) in rows + ([(f"{'other':>13}", rest)] if rest[0] else []):
        print(f"{'shape':<6} {label} {calls:>6} {calls / steps:>6.1%} {spent / calls / 1e3:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
