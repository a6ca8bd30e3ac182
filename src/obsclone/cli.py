"""Command-line front end: build, verify, scan, search, compare.

Exit codes follow one triad everywhere: 0 when the requested check
passed or the computation completed, 1 when a verification or search
came back negative, 2 for input or usage errors. All floats are printed
with 17 significant digits so output re-parses to the exact binary64
values; CSV rows use LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .classes import class_from_dict
from .jointmeas import (
    REFERENCE_UNIVERSAL_PRODUCT,
    UNIVERSAL_SHRINK,
    uncertainty_product,
    uncertainty_products,
    uncertainty_to_dict,
    universal_clone_product,
)
from .linalg import UNITARY_TOL, QubitState, is_unitary
from .machines import (
    KET0,
    SIGMA_XY,
    VERIFY_TOL,
    cnot_machine,
    commuting_machine,
    machine_from_dict,
    machine_to_dict,
    one_param_machine,
    phase_covariant_machine,
    report_to_dict,
    t_machine,
    t_machines,
    verify_approximate,
    verify_exact,
)
from .pauli import Observable
from .search import MODES, SearchConfig, result_to_dict, search_machine

# Largest scan grid: its CSV text is held in memory until it is written.
MAX_SCAN_STEPS = 100_000
# Scan rows are computed this many at a time, which keeps the kernel's
# temporaries (about 2 kB a row) small for any grid up to MAX_SCAN_STEPS.
SCAN_BLOCK = 256


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite float")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Minimal JSON emitter with reproducible 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(text: str, out: str | None) -> None:
    try:
        if out is None:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
        else:
            with open(out, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {'standard output' if out is None else out}: {exc}") from exc


def _parse_floats(text: str, n: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated reals, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _load_json(path: str) -> dict:
    import json

    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def cmd_build(args) -> int:
    if args.family == "cnot":
        machine = cnot_machine()
    elif args.family == "one-param":
        machine = one_param_machine(Observable(_parse_floats(args.obs, 4, "--obs")))
    elif args.family == "commuting":
        machine = commuting_machine(Observable(_parse_floats(args.obs, 4, "--obs")), args.b0, args.b3)
    elif args.family == "t":
        machine = t_machine(args.theta)
    else:
        machine = phase_covariant_machine(args.theta)
    _write(dumps(machine_to_dict(machine)), args.out)
    return 0


def cmd_verify(args) -> int:
    if not np.isfinite(args.tol) or args.tol <= 0:
        raise ValueError("--tol must be a positive finite real")
    machine = machine_from_dict(_load_json(args.machine))
    if machine.gains is None:
        report = verify_exact(machine, tol=args.tol)
    else:
        report = verify_approximate(machine, tol=args.tol)
    _write(dumps(report_to_dict(report)), args.out)
    return 0 if report.passed else 1


def cmd_scan(args) -> int:
    state = QubitState(_parse_floats(args.state, 3, "--state"))
    if not 1 <= args.steps <= MAX_SCAN_STEPS:
        raise ValueError(f"--steps must be between 1 and {MAX_SCAN_STEPS}")
    # NaN or infinite bounds, or a span past the float range, make the difference non-finite.
    if not np.isfinite(args.theta_max - args.theta_min):
        raise ValueError("--theta-min and --theta-max must be finite and span a finite theta range")
    if args.theta_max < args.theta_min:
        raise ValueError("--theta-max must not be below --theta-min")
    thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    lines, warnings = ["theta,di1,di2,dm1,dm2,product,bound"], []
    for start in range(0, args.steps, SCAN_BLOCK):
        block = thetas[start : start + SCAN_BLOCK]
        u, gains, singular = t_machines(block)
        # The generator checks the block once a row is drawn. Warnings wait until the output is
        # written, so a scan that fails prints its one error line alone.
        rows = _scan_rows(block[~singular], u[~singular], gains[~singular], state)
        for theta, skip in zip(block.tolist(), singular.tolist()):
            if skip:
                warnings.append(f"warning: skipping singular angle theta={_fmt(theta)}\n")
            else:
                lines.append(next(rows))
    _write("\n".join(lines) + "\n", args.out)
    sys.stderr.write("".join(warnings))
    return 0


def _scan_rows(thetas, u, gains, state):
    """CSV rows of the t-machines at thetas, after one unitarity check and one report check for them all."""
    if not is_unitary(u).all():
        raise ValueError(f"machine unitary must be unitary to {UNITARY_TOL:g}")
    report = uncertainty_products(u, gains, KET0, SIGMA_XY, state)
    # The intrinsic variances and the bound depend on the state alone.
    di = f"{_fmt(report.delta_i1)},{_fmt(report.delta_i2)}"
    bound = _fmt(report.lower_bound)
    columns = (thetas, report.delta_m1, report.delta_m2, report.product)
    for theta, dm1, dm2, product in zip(*(c.tolist() for c in columns)):
        yield f"{_fmt(theta)},{di},{_fmt(dm1)},{_fmt(dm2)},{_fmt(product)},{bound}"


def cmd_search(args) -> int:
    cls = class_from_dict(_load_json(args.klass))
    config = SearchConfig(restarts=args.restarts, max_evals=args.max_evals, seed=args.seed, tol=args.tol)
    result = search_machine(cls, args.mode, config)
    _write(dumps(result_to_dict(result)), args.out)
    return 0 if result.converged else 1


def cmd_compare(args) -> int:
    state = QubitState(_parse_floats(args.state, 3, "--state"))
    universal = universal_clone_product(state)
    # Evaluate the tailored machine at its own balancing angle, kept away
    # from the singular endpoints where a gain diverges.
    theta = float(np.clip(universal.optimal_theta, 1e-3, np.pi / 2 - 1e-3))
    machine = t_machine(theta)
    tailored = uncertainty_product(machine, state)
    phase_cov = uncertainty_product(phase_covariant_machine(theta), state)
    payload = {
        "state": [float(v) for v in state.bloch],
        "optimal_theta": theta,
        "observable_product": tailored.product,
        "phase_covariant_product": phase_cov.product,
        "universal_product": universal.product,
        "observable_shrink_factor": [1.0 / g for g in machine.gains],
        "universal_shrink_factor": UNIVERSAL_SHRINK,
        "paper_reference_value": REFERENCE_UNIVERSAL_PRODUCT,
        "observable_report": uncertainty_to_dict(tailored),
        "universal_report": uncertainty_to_dict(universal),
    }
    _write(dumps(payload), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsclone",
        description="Build, verify, and search cloning machines for qubit observable classes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None, help="write output here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", parents=[common], help="construct a machine and emit its JSON")
    p_build.add_argument(
        "family", choices=["cnot", "one-param", "commuting", "t", "phase-covariant"]
    )
    p_build.add_argument("--obs", default="0,0,0,1", help="observable as a0,a1,a2,a3")
    p_build.add_argument("--b0", type=float, default=1.0, help="identity part of the commuting partner")
    p_build.add_argument("--b3", type=float, default=1.0, help="axis part of the commuting partner")
    p_build.add_argument("--theta", type=float, default=np.pi / 4, help="interaction angle")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", parents=[common], help="verify a machine JSON document")
    p_verify.add_argument("machine", help="path to a machine JSON file")
    p_verify.add_argument("--tol", type=float, default=VERIFY_TOL)
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", parents=[common], help="CSV scan of joint-measurement noise over theta")
    p_scan.add_argument("--state", default="0,0,1", help="input Bloch vector s1,s2,s3")
    p_scan.add_argument("--theta-min", type=float, default=0.1)
    p_scan.add_argument("--theta-max", type=float, default=float(np.pi / 2) - 0.1)
    p_scan.add_argument("--steps", type=int, default=50)
    p_scan.set_defaults(func=cmd_scan)

    p_search = sub.add_parser("search", parents=[common], help="search for a machine cloning a class")
    p_search.add_argument("klass", metavar="class", help="path to a class JSON file")
    defaults = SearchConfig()
    p_search.add_argument("--mode", choices=MODES, default=MODES[0])
    p_search.add_argument("--restarts", type=int, default=defaults.restarts)
    p_search.add_argument("--max-evals", type=int, default=defaults.max_evals)
    p_search.add_argument("--seed", type=int, default=defaults.seed)
    p_search.add_argument("--tol", type=float, default=defaults.tol)
    p_search.set_defaults(func=cmd_search)

    p_compare = sub.add_parser(
        "compare", parents=[common], help="tailored vs universal joint-measurement noise"
    )
    p_compare.add_argument("--state", default="0,0,1", help="input Bloch vector s1,s2,s3")
    p_compare.set_defaults(func=cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call; parse_args fills a fresh namespace every time."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # _write has reported the failed write; drop what stays buffered so exit does not retry it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
