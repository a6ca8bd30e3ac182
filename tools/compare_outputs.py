"""Byte-identity check of the CLI's outputs between two source trees.

Usage, from the root of the repository:

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src/` directories of two checkouts, for
example a clone of the parent commit and this tree. Each one runs in its
own interpreter, with PYTHONDONTWRITEBYTECODE=1 and one BLAS thread. It
plans both benchmark workloads at seeds 0-2 with `plan()` from this
repository's perfbench/workloads.py and runs every warm-up and pool
command in plan order through `obsclone.cli.main`, each (workload, seed)
in a fresh work directory. No output file is removed while a run lasts,
because `verify` reads the document that `build` wrote. It then runs 39
fixed commands that the workloads miss (`fixed_commands`): a scan of three
blocks through singular angles, an all-singular scan, build then verify
for one-param and commuting classes scaled by 2**600 and 2**-600, a
verify at --tol 1e-30, verifies of two machine documents whose unitary is
not unitary (2·I, and one entry of 1e308), of CNOT on the class of
1e12 I + sigma1, which loses sigma1, and at --tol 1e-6 of a sigma1 cloner
on span{sigma1, sigma1 + 1e-8 sigma2}, which loses sigma2, a scan at
theta = 1e308, `compare` and `scan` at pure, maximally mixed and
just-past-the-sphere states, and eleven single-angle scans within 1e-4 of
a singular angle at the state on the measured axis, where the noise report cancels (ROADMAP item 19), and
a compare at a pure state 1.5e-6 rad off (1, 0, 0), refused for the
same reason, a short search of span{sigma3, 1e-9 sigma1} and a search of
span{sigma1, sigma1 + 1e-8 sigma2}, which no exact machine clones. Last it
runs the 22 exact searches of acceptance criterion 5 (restarts 50, seed 0,
on the classes of `criterion_5_classes` in tests/support.py, which
tests/test_acceptance.py iterates too) and records each result as the JSON
the `search` command prints.

Per command, the exit code, stdout, stderr and the bytes of its --out
file are compared; the work directory is masked in argv and in the two
streams. The outputs that differ are printed, and the exit code is 1 if
any does, 0 if none does. Each differing search (a `search` command or a
criterion-5 record) also says whether its exit code and `converged` are
unchanged and whether `best_defect` went down. Each differing `verify`
says whether its exit code and `passed` are unchanged, and gives its largest
change of a defect relative to the Frobenius norm of that generator's traceless
part (the payload's defects are per generator), read off the machine
document that this script wrote or that the tree's last `build` to that
path wrote. Each
differing `compare` says whether its exit code is unchanged, names the payload
keys that moved (dotted, so `universal_report.product`) and gives the largest
relative change among them. Each differing `scan` says whether its exit code is
unchanged and gives the largest relative change among its rows' dm1, dm2 and
product cells; a table that cannot be read, or whose rows or angles moved,
counts as an infinite change. The last lines count the differing outputs per
command kind and sum up the differing searches: how many changed exit code or
`converged`, how many `best_defect`s went down, stayed or went up, and their
summed `evaluations`, old -> new. The line after sums up the differing
verifies: how many changed exit code or `passed`, and their largest relative
defect change; the line after that does the same for the differing compares, with
how many of them moved each key, and the next for the differing scans. So a change
that should move only search floors, or verify defects, compare reports or scan
rows at rounding level, and no verdict,
can be read off at a glance, and so can a speed-up that came from spending
fewer evaluations. The last line gives the code size of each tree, the summed
lines of its obsclone/*.py as `wc -l` counts them: `src lines: OLD -> NEW`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-mix", "search-floor")
SEEDS = (0, 1, 2)
MASK = "<work>"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def collect(src: str, workdir: str, result: str) -> None:
    """Run every planned command and criterion-5 search against the package in src; write one record each to result."""
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import obsclone.classes
    import obsclone.cli
    import obsclone.search
    from support import criterion_5_classes
    from workloads import plan

    def mask(text: str) -> str:
        return text.replace(workdir, MASK)

    def record(argv: list[str], target: Path | None) -> list:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = obsclone.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is an output to compare, not a crashed check
                code = f"raised {exc!r}"
        data = target.read_bytes().hex() if target is not None and target.exists() else None
        return [[mask(a) for a in argv], code, mask(out.getvalue()), mask(err.getvalue()), data]

    records = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            run_dir = Path(workdir) / f"{workload}-{seed}"
            p = plan(workload, seed, run_dir)
            for cmd in p.warmup + [cmd for step in p.steps for cmd in step]:
                records.append(record(list(cmd.argv), cmd.out))
    fixed_dir = Path(workdir) / "fixed"
    fixed_dir.mkdir(parents=True)
    for argv, target in fixed_commands(fixed_dir):
        records.append(record(argv, target))
    config = obsclone.search.SearchConfig(restarts=50, seed=0)
    for label, kind, gens in criterion_5_classes():
        try:
            found = obsclone.search.search_machine(obsclone.classes.ObservableClass(kind, gens), "exact", config)
            code, out = int(not found.converged), obsclone.cli.dumps(obsclone.search.result_to_dict(found))
        except Exception as exc:  # as above
            code, out = f"raised {exc!r}", ""
        records.append([["criterion-5", label], code, out, "", None])
    Path(result).write_text(json.dumps(records))


def fixed_commands(run_dir: Path):
    """(argv, --out path or None) of the commands run after the workloads, in order.

    The workloads' scans are one block of non-singular angles, and their classes
    have unit-sized coefficients. These cover a scan of three blocks with singular
    angles at 0, pi/2 and pi (pi alone in the last block), an all-singular scan,
    build then verify for one-param and commuting classes scaled by 2**600 and
    2**-600, and a verify whose tolerance no defect meets. Then the unitarity
    rule's error text: verifies of two documents, written here (written_documents), whose
    unitary is 2·I or the identity with one entry of 1e308; a verify of CNOT on 1e12 I + sigma1,
    whose identity part must not hide the sigma1 it loses; a verify at --tol 1e-6 of a sigma1
    cloner on span{sigma1, sigma1 + 1e-8 sigma2}, the sigma1/sigma2 plane, whose sigma2 it loses
    though neither generator loses more than 1e-8 of its norm; and a scan at the extreme angle 1e308.
    The workloads draw every noise state inside radius 0.95, so then come compares and
    scans at pure states, where an intrinsic variance of 0 clips the balancing angle, at
    the maximally mixed state, and at a state 9e-13 past the sphere, read onto it. Then
    come single-angle scans 1.01e-6 to 8.5e-5 from a singular angle, above 0 at (1, 0, 0)
    and below pi/2 at (0, -1, 0), where a variance cancels and a valid row can be refused
    as below the bound; the last one, with its angle as written, is refused so. Then a
    compare at a pure state 1.5e-6 rad off (1, 0, 0), whose balancing angle of about 1.2e-3
    gives a gain of about 830, and which is refused so too. Last, a search of one restart and
    1000 evaluations of span{sigma3, 1e-9 sigma1}, whose small noncommuting generator must keep
    it from converging, and a search of five restarts of span{sigma1, sigma1 + 1e-8 sigma2},
    whose nearly parallel generators must not.
    """
    yield ["scan", "--theta-min", "0", "--theta-max", repr(math.pi), "--steps", "513"], None
    yield ["scan", "--theta-min", "0", "--theta-max", "0", "--steps", "3"], None
    for family in ("one-param", "commuting"):
        for k in (600, -600):
            machine = run_dir / f"{family}{k}.json"
            obs = ",".join(repr(math.ldexp(v, k)) for v in (0.1, 0.7, -0.4, 0.5))
            extra = [f"--b0={math.ldexp(0.3, k)!r}", f"--b3={math.ldexp(-1.1, k)!r}"] if family == "commuting" else []
            yield ["build", family, f"--obs={obs}", *extra, "--out", str(machine)], machine
            yield ["verify", str(machine)], None
    machine = run_dir / "one-param.json"
    yield ["build", "one-param", "--obs=0.1,0.7,-0.4,0.5", "--out", str(machine)], machine
    yield ["verify", str(machine), "--tol", "1e-30"], None
    for name, doc in written_documents().items():
        machine = run_dir / name
        machine.write_text(json.dumps(doc))
        yield ["verify", str(machine), *(["--tol", "1e-6"] if doc["class"] is NEAR_PARALLEL else [])], None
    yield ["scan", "--theta-min", "1e308", "--theta-max", "1e308", "--steps", "3"], None
    for state in ("1,0,0", "0,-1,0", "0,0,-1", "0,0,0", "0.6,0.8,0", "1.0000000000009,0,0"):
        yield ["compare", f"--state={state}"], None
    for state in ("0,1,0", "1.0000000000009,0,0"):
        yield ["scan", f"--state={state}", "--steps", "3"], None
    for state, end, sign in (("1,0,0", 0.0, 1.0), ("0,-1,0", math.pi / 2, -1.0)):
        for offset in (1.01e-6, 3e-6, 1e-5, 3e-5, 8.5e-5):
            theta = repr(end + sign * offset)
            yield ["scan", f"--state={state}", f"--theta-min={theta}", f"--theta-max={theta}", "--steps", "1"], None
    theta = "1.5707113155272596"
    yield ["scan", "--state=0,-1,0", f"--theta-min={theta}", f"--theta-max={theta}", "--steps", "1"], None
    yield ["compare", "--state=0.9999999999989421,1.4545454545439158e-06,0.0"], None
    pair = run_dir / "sigma3-and-small-sigma1.class.json"
    pair.write_text(json.dumps({"kind": "two-param-noncommuting", "generators": [[0.0, 0.0, 0.0, 1.0], [0.0, 1e-9, 0.0, 0.0]]}))
    yield ["search", str(pair), "--restarts", "1", "--max-evals", "1000"], None
    near = run_dir / "near-parallel.class.json"
    near.write_text(json.dumps(NEAR_PARALLEL))
    yield ["search", str(near), "--restarts", "5"], None


# span{sigma1, sigma1 + 1e-8 sigma2}: nearly parallel generators of the sigma1/sigma2 plane.
NEAR_PARALLEL = {"kind": "two-param-noncommuting", "generators": [[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1e-8, 0.0]]}


def written_documents() -> dict:
    """The machine documents that fixed_commands writes, by file name: two whose unitary is not
    unitary (2·I, and the identity with one entry of 1e308), both on sigma3, CNOT on 1e12 I + sigma1,
    and the sigma1 cloner (H (x) H) CNOT (H (x) I) on NEAR_PARALLEL."""
    eye = [[float(i == j) for j in range(4)] for i in range(4)]
    huge = [row[:] for row in eye]
    huge[0][3] = 1e308
    h = math.sqrt(0.5)
    sigma1_cloner = [[h, h, 0.0, 0.0], [0.0, 0.0, h, -h], [0.0, 0.0, h, h], [h, -h, 0.0, 0.0]]
    sigma3 = {"kind": "one-param", "generators": [[0.0, 0.0, 0.0, 1.0]]}
    machines = (
        ("twice-identity", [[2.0 * v for v in row] for row in eye], sigma3),
        ("huge-entry", huge, sigma3),
        ("cnot-heavy-sigma1", [eye[0], eye[1], eye[3], eye[2]], {"kind": "one-param", "generators": [[1e12, 1.0, 0.0, 0.0]]}),
        ("sigma1-cloner-near-parallel", sigma1_cloner, NEAR_PARALLEL),
    )
    return {
        f"{name}.json": {"unitary": [[[v, 0.0] for v in row] for row in u], "probe_bloch": [0.0, 0.0, 1.0], "class": cls}
        for name, u, cls in machines
    }


def run_tree(src: str, base: Path, name: str) -> subprocess.Popen:
    workdir = base / name
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{k: "1" for k in THREAD_ENV})
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(Path(__file__).resolve()), "--collect", src, str(workdir), str(base / f"{name}.json")]
    return subprocess.Popen(argv, env=env)


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--collect":
        collect(*argv[1:])
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        base = Path(tmp)
        procs = [run_tree(src, base, name) for src, name in zip(argv, ("old", "new"))]
        if any([p.wait() != 0 for p in procs]):
            sys.stderr.write("a tree's run failed before its outputs were recorded\n")
            return 2
        old, new = (json.loads((base / f"{name}.json").read_text()) for name in ("old", "new"))
    if [r[0] for r in old] != [r[0] for r in new]:
        sys.stderr.write("the two trees planned different commands\n")
        return 2
    fields = ("exit code", "stdout", "stderr", "--out bytes")
    total, differ, moves, compare_keys = Counter(), Counter(), Counter(), Counter()
    verdicts = verify_verdicts = compare_codes = scan_codes = 0
    evaluations = [0, 0]
    verify_shift = compare_shift = scan_shift = 0.0
    # Each machine document by its masked path, as hex: those written here, then each build's --out file.
    documents = {f"{MASK}/fixed/{name}": json.dumps(doc).encode().hex() for name, doc in written_documents().items()}
    for a, b in zip(old, new):
        kind = a[0][0]
        total[kind] += 1
        if "--out" in a[0] and a[4] is not None:
            documents[a[0][a[0].index("--out") + 1]] = a[4]
        changed = [f for f, x, y in zip(fields, a[1:], b[1:]) if x != y]
        if changed:
            differ[kind] += 1
            line = f"differs ({', '.join(changed)}): {' '.join(a[0])}"
            if kind in ("search", "criterion-5"):
                note, verdict_moved, move, spent = search_change(a, b)
                verdicts += verdict_moved
                moves[move] += 1
                evaluations = [e + n for e, n in zip(evaluations, spent)]
                line += f" [{note}]"
            elif kind == "verify":
                note, verdict_moved, shift = verify_change(a, b, documents.get(a[0][1]))
                verify_verdicts += verdict_moved
                verify_shift = max(verify_shift, shift)
                line += f" [{note}]"
            elif kind == "compare":
                note, code_moved, keys, shift = compare_change(a, b)
                compare_codes += code_moved
                compare_keys.update(keys)
                compare_shift = max(compare_shift, shift)
                line += f" [{note}]"
            elif kind == "scan":
                note, code_moved, shift = scan_change(a, b)
                scan_codes += code_moved
                scan_shift = max(scan_shift, shift)
                line += f" [{note}]"
            print(line)
    count = sum(differ.values())
    print(f"{len(old) - count} of {len(old)} outputs byte-identical, {count} differ")
    print("differ per kind: " + ", ".join(f"{kind} {differ[kind]} of {n}" for kind, n in total.items()))
    print(
        f"searches: {sum(moves.values())} differ, {verdicts} changed exit code or converged;"
        f" best_defect down {moves['down']}, unchanged {moves['unchanged']}, up {moves['up']},"
        f" unreadable {moves['unreadable']}; evaluations {evaluations[0]} -> {evaluations[1]}"
    )
    print(
        f"verifies: {differ['verify']} differ, {verify_verdicts} changed exit code or passed;"
        f" largest defect change relative to its generator's norm {verify_shift:.3g}"
    )
    print(
        f"compares: {differ['compare']} differ, {compare_codes} changed exit code;"
        f" largest relative change {compare_shift:.3g}; keys moved: "
        + (", ".join(f"{key} {n}" for key, n in sorted(compare_keys.items())) or "none")
    )
    print(
        f"scans: {differ['scan']} differ, {scan_codes} changed exit code;"
        f" largest relative change of a dm1, dm2 or product cell {scan_shift:.3g}"
    )
    print("src lines: " + " -> ".join(str(source_lines(src)) for src in argv))
    return 1 if count else 0


def source_lines(src: str) -> int:
    """The lines of src/obsclone/*.py, counted as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in Path(src).glob("obsclone/*.py"))


def search_change(a: list, b: list) -> tuple[str, bool, str, tuple[int, int]]:
    """How a search record changed: a note, whether its exit code or converged flag moved, how its best_defect moved.

    The fourth item is its (old, new) evaluations. A payload that cannot be read counts as a moved
    verdict, with best_defect "unreadable" and (0, 0) evaluations.
    """
    docs = [payload(r) for r in (a, b)]
    notes = ["exit code " + ("unchanged" if a[1] == b[1] else f"{a[1]} -> {b[1]}")]
    if None in docs:
        return ", ".join(notes + ["payload unreadable"]), True, "unreadable", (0, 0)
    was, now = docs
    same = was["converged"] == now["converged"]
    notes.append("converged " + ("unchanged" if same else "changed"))
    f0, f1 = was["best_defect"], now["best_defect"]
    move = "down" if f1 < f0 else "unchanged" if f1 == f0 else "up"
    notes.append(f"best_defect {move} {f0!r} -> {f1!r}")
    return ", ".join(notes), a[1] != b[1] or not same, move, (was["evaluations"], now["evaluations"])


def verify_change(a: list, b: list, document: str | None) -> tuple[str, bool, float]:
    """How a verify record changed: a note, whether its exit code or passed flag moved, and its largest defect change.

    The change of each defect is divided by the Frobenius norm sqrt(2) |a| of its generator's traceless
    part a, as verify divides it, read off the hex bytes of the machine document; for a generator with
    no traceless part any change is infinite. A payload or document that cannot be read counts as a
    moved verdict with an infinite change.
    """
    docs = [payload(r) for r in (a, b)]
    notes = ["exit code " + ("unchanged" if a[1] == b[1] else f"{a[1]} -> {b[1]}")]
    try:
        gens = json.loads(bytes.fromhex(document))["class"]["generators"]
        was, now = (d["per_generator_defects"] for d in docs)
        norms = [math.sqrt(2.0) * math.hypot(*g[1:]) for g in gens]
        shift = max(
            abs(x - y) / norm if norm else 0.0 if x == y else math.inf
            for norm, old, new in zip(norms, was, now, strict=True)
            for x, y in zip(old, new, strict=True)
        )
    except (TypeError, ValueError, KeyError):
        return ", ".join(notes + ["payload or machine document unreadable"]), True, math.inf
    same = docs[0]["passed"] == docs[1]["passed"]
    notes += ["passed " + ("unchanged" if same else "changed"), f"largest relative defect change {shift:.3g}"]
    return ", ".join(notes), a[1] != b[1] or not same, shift


def compare_change(a: list, b: list) -> tuple[str, bool, list[str], float]:
    """How a compare record changed: a note, whether its exit code moved, the payload keys that moved, their largest change.

    A key's change is |new - old| / |old|. A payload that cannot be read, a key present in one
    tree only, or a value that is not a number moves with an infinite change.
    """
    docs = [payload(r) for r in (a, b)]
    notes = ["exit code " + ("unchanged" if a[1] == b[1] else f"{a[1]} -> {b[1]}")]
    if None in docs:
        return ", ".join(notes + ["payload unreadable"]), a[1] != b[1], ["<unreadable>"], math.inf
    was, now = (leaves(d) for d in docs)
    moved = sorted(key for key in was.keys() | now.keys() if was.get(key) != now.get(key))
    shift = 0.0
    for key in moved:
        x, y = was.get(key), now.get(key)
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        shift = max(shift, abs(y - x) / abs(x) if numbers and x else math.inf)
    notes += [f"moved {', '.join(moved) or 'nothing'}", f"largest relative change {shift:.3g}"]
    return ", ".join(notes), a[1] != b[1], moved, shift


def scan_change(a: list, b: list) -> tuple[str, bool, float]:
    """How a scan record changed: a note, whether its exit code moved, and the largest change of a dm1, dm2 or product cell.

    A cell's change is |new - old| / |old|. A table that cannot be read in either tree, or whose
    rows differ in number or in their angles, moves with an infinite change.
    """
    tables = [scan_rows(r) for r in (a, b)]
    notes = ["exit code " + ("unchanged" if a[1] == b[1] else f"{a[1]} -> {b[1]}")]
    was, now = tables
    if None in tables or [row[0] for row in was] != [row[0] for row in now]:
        shift = math.inf
    else:
        cells = [(x, y) for old, new in zip(was, now) for x, y in zip(old[1:], new[1:]) if x != y]
        shift = max((abs(y - x) / abs(x) if x else math.inf for x, y in cells), default=0.0)
    notes.append(f"largest relative change of a dm1, dm2 or product cell {shift:.3g}")
    return ", ".join(notes), a[1] != b[1], shift


def scan_rows(record: list) -> list[list[float]] | None:
    """The theta, dm1, dm2 and product cells of each row of a scan record's CSV, or None if it has no table."""
    lines = output_text(record).splitlines()
    if not lines or lines[0] != "theta,di1,di2,dm1,dm2,product,bound":
        return None
    try:
        return [[float(cell) for i, cell in enumerate(line.split(",")) if i in (0, 3, 4, 5)] for line in lines[1:]]
    except ValueError:
        return None


def leaves(doc, prefix: str = "") -> dict:
    """The leaves of a JSON document by dotted path, list entries by their index."""
    if not isinstance(doc, (dict, list)):
        return {prefix: doc}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    out = {}
    for key, value in items:
        out.update(leaves(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def output_text(record: list) -> str:
    """What a record's command wrote to its --out file, or else printed."""
    return bytes.fromhex(record[4]).decode() if record[4] is not None else record[2]


def payload(record: list) -> dict | None:
    """The JSON a search, verify or compare record wrote to its --out file, or else printed."""
    try:
        return json.loads(output_text(record))
    except ValueError:
        return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
