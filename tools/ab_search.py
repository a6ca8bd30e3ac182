"""In-process A/B timing of the search-floor searches between two source trees.

Usage, from the root of the repository:

    python3 tools/ab_search.py OLD_SRC NEW_SRC [SEEDS]

OLD_SRC and NEW_SRC are the `src/` directories of two checkouts, for
example a clone of the parent commit and this tree. SEEDS are workload
seeds, as step_split.py reads them; the default is 1-10. The `obsclone`
package of each tree is copied into a temporary directory under its own
name, obsclone_old and obsclone_new (its imports are relative), and both
copies are imported into this one interpreter. The search-floor pool
that perfbench/workloads.py's `plan()` draws for each seed, read with
NEW_SRC's package, is run through each copy's `search_machine`.

Each search runs ROUNDS times per tree, the two trees alternating and
taking turns to go first; per search and tree the fastest run counts.
Separate processes of the same pair of trees can differ by several
percent on a shared host, while this interleaved comparison repeats
within a fraction of a percent. The output gives the two sums of
per-search minima, their ratio new/old, the median and the quartiles of
the per-search ratios, the ratio of each workload seed's sums, and names
every search whose result (`result_to_dict`) differs between the trees.
The quartiles and the seeds' ratios show the spread: a tree timed against
itself has read up to ~3% apart over three seeds, so a claim of a few
percent needs ten seeds or more.
"""

from __future__ import annotations

import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5
TREES = ("old", "new")


def load_trees(sources, tmp: Path, *modules: str) -> list:
    """Copy each tree's obsclone package under tmp as obsclone_<name> and import it; return, per tree, the named modules of its copy."""
    sys.path.insert(0, str(tmp))
    trees = []
    for src, name in zip(sources, TREES):
        package = f"obsclone_{name}"
        shutil.copytree(Path(src) / "obsclone", tmp / package, ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(tuple(importlib.import_module(f"{package}.{module}") for module in modules))
    return trees


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    sys.path[:0] = [str(Path(argv[1]).resolve()), str(ROOT / "perfbench"), str(ROOT / "tools")]
    from step_split import parse_seeds, searches

    seeds = parse_seeds(argv[2] if len(argv) == 3 else "1-10")
    clock = time.perf_counter_ns
    spent, differ, labels = [[], []], [], []
    with tempfile.TemporaryDirectory(prefix="ab_search_") as tmp:
        trees = load_trees(argv[:2], Path(tmp), "classes", "search")
        for label, doc, mode, args in searches(seeds):
            runs = [(search.search_machine, classes.class_from_dict(doc), search.SearchConfig(*args)) for classes, search in trees]
            best, results = [None, None], [None, None]
            for r in range(ROUNDS):
                for t in (0, 1) if r % 2 == 0 else (1, 0):
                    run, cls, config = runs[t]
                    start = clock()
                    results[t] = run(cls, mode, config)
                    ns = clock() - start
                    best[t] = ns if best[t] is None else min(best[t], ns)
            for t in (0, 1):
                spent[t].append(best[t])
            labels.append(label)
            old, new = (search.result_to_dict(result) for (_, search), result in zip(trees, results))
            if old != new:
                differ.append(label)
                print(
                    f"differs: {label}: best_defect {old['best_defect']!r} -> {new['best_defect']!r},"
                    f" evaluations {old['evaluations']} -> {new['evaluations']}"
                )
    old_total, new_total = (sum(s) for s in spent)
    ratios = [b / a for a, b in zip(*spent)]
    low, median, high = statistics.quantiles(ratios, n=4, method="inclusive")
    by_seed = {}
    for label, a, b in zip(labels, *spent):
        # A label is "seed <workload seed> <search>", from step_split.searches.
        sums = by_seed.setdefault(label.split()[1], [0, 0])
        sums[0] += a
        sums[1] += b
    print(f"{len(ratios)} searches, workload seeds {','.join(map(str, seeds))}, {ROUNDS} rounds per tree")
    print(f"sums of per-search minima: old {old_total / 1e6:.1f} ms ({argv[0]}), new {new_total / 1e6:.1f} ms ({argv[1]})")
    print(f"total ratio new/old {new_total / old_total:.4f}, median per-search ratio {median:.4f}, quartiles {low:.4f} {high:.4f}")
    print("per workload seed: " + ", ".join(f"{seed} {b / a:.4f}" for seed, (a, b) in by_seed.items()))
    print(f"results: {len(ratios) - len(differ)} identical, {len(differ)} differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
