"""End-to-end tests for the command-line interface."""

import contextlib
import errno
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obsclone.cli import MAX_SCAN_STEPS, SCAN_BLOCK, _fmt, build_parser, dumps, main
from obsclone.jointmeas import uncertainty_product
from obsclone.linalg import QubitState
from obsclone.machines import (
    VERIFY_TOL,
    SingularAngleError,
    cnot_machine,
    machine_from_dict,
    machine_to_dict,
    t_machine,
    verify_approximate,
    verify_exact,
)
from obsclone.classes import class_from_dict, class_to_dict
from obsclone.pauli import Observable
from obsclone.search import MODES, SearchConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFloatFormatting:
    @pytest.mark.parametrize("x", [1 / 3, np.sqrt(2.0), -1e-17, 0.1 + 0.2, 4.0, 0.0])
    def test_fmt_round_trips_binary64(self, x):
        assert float(_fmt(x)) == x

    def test_fmt_rejects_non_finite(self):
        for kind in (float, np.float64, np.float32):
            for x in ("nan", "inf", "-inf"):
                with pytest.raises(ValueError, match="non-finite"):
                    _fmt(kind(x))

    def test_dumps_basic_values(self):
        assert dumps(None) == "null"
        assert dumps(True) == "true"
        assert dumps([1, 2.5]) == "[1, 2.5]"
        assert dumps({"a": "q\"uote"}) == '{"a": "q\\"uote"}'

    def test_dumps_output_is_valid_json(self):
        payload = {"x": [1.0, None, False], "y": {"z": 1 / 3}}
        parsed = json.loads(dumps(payload))
        assert parsed["y"]["z"] == 1 / 3

    def test_dumps_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps(object())


class TestBuild:
    @pytest.mark.parametrize(
        "family", ["cnot", "one-param", "commuting", "t", "phase-covariant"]
    )
    def test_every_family_emits_a_loadable_machine(self, capsys, family):
        code, out, _ = run_cli(capsys, "build", family)
        assert code == 0
        machine = machine_from_dict(json.loads(out))
        assert machine.unitary.shape == (4, 4)

    def test_one_param_with_custom_observable(self, capsys):
        code, out, _ = run_cli(capsys, "build", "one-param", "--obs", "0.2,0.3,-0.5,0.7")
        assert code == 0
        machine = machine_from_dict(json.loads(out))
        gen = machine.observables.generators[0]
        assert np.allclose(gen.coeffs, [0.2, 0.3, -0.5, 0.7])

    def test_t_family_records_reciprocal_gains(self, capsys):
        code, out, _ = run_cli(capsys, "build", "t", "--theta", "0.6")
        assert code == 0
        gains = json.loads(out)["gains"]
        assert gains[0] == pytest.approx(1.0 / np.cos(0.6))
        assert gains[1] == pytest.approx(1.0 / np.sin(0.6))

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "machine.json"
        code, _, _ = run_cli(capsys, "build", "cnot", "--out", str(path))
        assert code == 0
        _, out, _ = run_cli(capsys, "build", "cnot")
        assert path.read_text() == out.rstrip("\n")

    def test_bad_observable_string_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "build", "one-param", "--obs", "1,2,3")
        assert code == 2
        assert "error:" in err

    def test_singular_angle_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "build", "t", "--theta", "0")
        assert code == 2
        assert "singular" in err

    def test_unknown_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", "mystery"])
        assert excinfo.value.code == 2


class TestVerify:
    @pytest.mark.parametrize(
        "family", ["cnot", "one-param", "commuting", "t", "phase-covariant"]
    )
    def test_every_default_build_verifies(self, capsys, tmp_path, family):
        path = tmp_path / "m.json"
        assert run_cli(capsys, "build", family, "--out", str(path))[0] == 0
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_built_machine_verifies(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run_cli(capsys, "build", "commuting", "--obs", "0,0.6,0,0.8", "--out", str(path))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_defect"] < 1e-10

    def test_gains_trigger_the_rescaled_check(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run_cli(capsys, "build", "t", "--theta", "0.9", "--out", str(path))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["gains_used"][0] == pytest.approx(1.0 / np.cos(0.9))

    def test_wrong_class_fails_with_exit_1(self, capsys, tmp_path):
        doc = machine_to_dict(cnot_machine())
        doc["class"]["generators"] = [[0.0, 1.0, 0.0, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_identity_unitary_fails_on_the_second_branch(self, capsys, tmp_path):
        doc = machine_to_dict(cnot_machine())
        ident = [[[1.0, 0.0] if r == c else [0.0, 0.0] for c in range(4)] for r in range(4)]
        doc["unitary"] = ident
        path = tmp_path / "ident.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_tolerance_tighter_than_float_precision_fails(self, capsys, tmp_path):
        # The controlled-flip unitary has integer entries and a defect of
        # exactly zero, so even absurd tolerances pass there; a generic
        # rotated machine keeps a rounding-level floor instead.
        path = tmp_path / "m.json"
        run_cli(capsys, "build", "one-param", "--obs", "0.1,0.4,-0.3,0.5", "--out", str(path))
        code, out, _ = run_cli(capsys, "verify", str(path), "--tol", "1e-30")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["max_defect"] < 1e-10

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tmp_path, tol):
        code, out, err = run_cli(capsys, "verify", str(tmp_path / "never-read.json"), f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err == "error: --tol must be a positive finite real\n"

    def test_default_tolerance_comes_from_the_machines_module(self):
        args = build_parser().parse_args(["verify", "machine.json"])
        assert args.tol == VERIFY_TOL
        for verify in (verify_exact, verify_approximate):
            assert inspect.signature(verify).parameters["tol"].default == VERIFY_TOL

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "field, value",
        [("gains", 5), ("gains", [1]), ("gains", ["a", 1]), ("gains", [1e308, 1e308]), ("probe_bloch", "x")],
    )
    def test_malformed_machine_document_exits_2(self, capsys, tmp_path, field, value):
        doc = machine_to_dict(cnot_machine())
        doc[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("entry", [[1, 2, 3], ["a", 0], [0, None], 7, [10**400, 0]])
    def test_malformed_unitary_entry_is_named(self, capsys, tmp_path, entry):
        doc = machine_to_dict(cnot_machine())
        doc["unitary"][1][2] = entry
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: unitary[1][2]")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_unitary_entry_is_refused_without_warnings(self, capsys, tmp_path):
        doc = machine_to_dict(t_machine(0.7))
        doc["unitary"][0][0] = [1e308, 0.0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    # Entries near 1e308 overflow numpy intermediates; only the exit code matters here.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_mutated_documents_keep_the_exit_code_contract(self, tmp_path_factory, data):
        """Exit 0, 1 or 2 on any document; 1 only for a document that loaded."""
        doc = data.draw(st.sampled_from([cnot_machine(), t_machine(0.7)]).map(machine_to_dict))
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(doc, data)
        text = json.dumps(doc)
        try:
            machine_from_dict(json.loads(text))
            loaded = True
        except ValueError:
            loaded = False
        path = tmp_path_factory.mktemp("fuzz") / "machine.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
        assert code in (0, 1, 2)
        if not loaded:
            assert code == 2
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every position in a decoded JSON document, the root included."""
    yield prefix
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for k in keys:
        yield from _paths(node[k], prefix + (k,))


def _mutate(doc, data):
    """One drawn edit of doc: drop a key or entry, retype a value, set it to
    a non-finite or out-of-range number, or grow or shrink a list."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["drop", "retype", "extreme", "resize"]))
    if not path:
        return data.draw(JSON_VALUES)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "extreme":
        parent[key] = data.draw(st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, 10**400]))
    elif op == "resize" and isinstance(parent[key], list):
        if parent[key] and data.draw(st.booleans()):
            parent[key].pop()
        else:
            parent[key].append(data.draw(JSON_VALUES))
    else:
        parent[key] = data.draw(JSON_VALUES)
    return doc


class TestScan:
    def test_csv_shape_and_header(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--steps", "7")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "theta,di1,di2,dm1,dm2,product,bound"
        assert len(lines) == 8
        assert err == ""

    def test_rows_reparse_and_respect_the_bound(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--state", "0.3,0.1,0.5", "--steps", "12")
        assert code == 0
        for line in out.rstrip("\n").split("\n")[1:]:
            vals = [float(tok) for tok in line.split(",")]
            assert len(vals) == 7
            product, bound = vals[5], vals[6]
            assert product >= bound - 1e-10

    def test_singular_angles_are_skipped_with_a_warning(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--theta-min", "0", "--theta-max", str(np.pi / 2), "--steps", "3"
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 2
        assert err.count("warning: skipping singular angle") == 2

    def test_singular_angles_are_not_reported_when_the_output_cannot_be_written(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--theta-min", "0", "--theta-max", str(np.pi / 2), "--steps", "3", f"--out={UNWRITABLE_OUT[0]}"
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {UNWRITABLE_OUT[0]}: ") and err.count("\n") == 1

    def test_uses_lf_line_endings(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "scan", "--steps", "4", "--out", str(path))
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.count(b"\n") == 5

    def test_single_step_scans_the_lower_endpoint(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--theta-min", "0.4", "--theta-max", "1.2", "--steps", "1"
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == pytest.approx(0.4, abs=1e-15)

    def test_pole_state_minimum_sits_at_four(self, capsys):
        # Symmetric grid with an odd step count so the balanced angle pi/4
        # is itself a grid point; off-grid minima sit O(spacing^2) higher.
        lo, hi = np.pi / 4 - 0.5, np.pi / 4 + 0.5
        code, out, _ = run_cli(
            capsys,
            "scan", "--state", "0,0,1",
            "--theta-min", repr(lo), "--theta-max", repr(hi), "--steps", "101",
        )
        assert code == 0
        products = [float(line.split(",")[5]) for line in out.rstrip("\n").split("\n")[1:]]
        assert len(products) == 101
        assert min(products) == pytest.approx(4.0, abs=1e-6)

    def test_scan_validation_errors_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--steps", "0")
        assert code == 2
        code, _, _ = run_cli(capsys, "scan", "--theta-min", "1.0", "--theta-max", "0.5")
        assert code == 2
        code, _, _ = run_cli(capsys, "scan", "--state", "2,0,0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--steps", str(10**12)], "--steps"),
            (["--theta-min=-1e308", "--theta-max=1e308"], "theta"),
            (["--theta-min=nan"], "theta"),
            (["--theta-max=inf"], "theta"),
        ],
        ids=["huge-steps", "overflowing-span", "nan-min", "inf-max"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_oversized_or_non_finite_grids_are_refused_up_front(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "scan", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err


def _scan_reference(state, lo, hi, steps):
    """Expected CSV and warnings of a scan, one uncertainty_product(t_machine(theta)) per row."""
    lines, warnings = ["theta,di1,di2,dm1,dm2,product,bound"], []
    for theta in np.linspace(lo, hi, steps):
        try:
            r = uncertainty_product(t_machine(theta), QubitState(np.array(state)))
        except SingularAngleError:
            warnings.append(f"warning: skipping singular angle theta={format(theta, '.17g')}\n")
            continue
        row = (theta, r.delta_i1, r.delta_i2, r.delta_m1, r.delta_m2, r.product, r.lower_bound)
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n", "".join(warnings)


ANGLES = [0.0, np.pi / 2, -np.pi / 2, np.pi, 1e-7, 0.1]


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_scan_rows_equal_the_single_machine_reports(data):
    """Every CSV row equals uncertainty_product(t_machine(theta), state) at 17
    digits, and the warnings name the skipped singular rows in order, also on
    grids with singular endpoints and step counts across a block boundary."""
    state = data.draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    assume(np.linalg.norm(state) <= 1.0)
    bound = st.one_of(st.sampled_from(ANGLES), st.floats(-4.0, 4.0))
    lo, hi = sorted((data.draw(bound), data.draw(bound)))
    steps = data.draw(
        st.one_of(st.integers(1, 9), st.integers(SCAN_BLOCK - 2, SCAN_BLOCK + 2), st.integers(2 * SCAN_BLOCK - 1, 2 * SCAN_BLOCK + 1))
    )
    argv = ["scan", f"--state={','.join(map(repr, state))}", f"--theta-min={lo!r}", f"--theta-max={hi!r}", f"--steps={steps}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    assert (out.getvalue(), err.getvalue()) == _scan_reference(state, lo, hi, steps)


def test_scan_warnings_keep_grid_order_across_blocks(capsys):
    """A grid through 0, pi/2 and pi in its first, second and third block warns in grid order."""
    steps = 2 * SCAN_BLOCK + 1
    code, out, err = run_cli(capsys, "scan", "--theta-min", "0", "--theta-max", repr(np.pi), "--steps", str(steps))
    assert code == 0
    assert (out, err) == _scan_reference((0.0, 0.0, 1.0), 0.0, np.pi, steps)
    assert err.count("warning:") == 3


def _fresh_parser_run(argv):
    """Output and exit code of argv parsed by a parser built for this call alone."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        args = build_parser().parse_args(argv)
        code = args.func(args)
    return code, out.getvalue()


def test_one_parser_serves_every_call_without_carrying_options_over(tmp_path):
    """Alternating commands with and without --out through main give the outputs
    of a parser built afresh for each command."""
    cls = tmp_path / "xnc.json"
    cls.write_text(json.dumps({"kind": "two-param-noncommuting", "generators": [[0, 1, 0, 0], [0, 0, 1, 0]]}))
    machine = tmp_path / "m.json"
    commands = [
        ["build", "t", "--theta=0.7", "--out", str(machine)],
        ["verify", str(machine)],
        ["build", "commuting", "--obs=0.1,0.2,-0.3,0.4", "--b0=0.5"],
        ["scan", "--state=0.2,-0.1,0.3", "--steps=5", "--out", str(tmp_path / "scan.csv")],
        ["scan"],
        ["verify", str(machine), "--tol=1e-3", "--out", str(tmp_path / "v.json")],
        ["search", str(cls), "--restarts=1", "--max-evals=200", "--seed=4", "--out", str(tmp_path / "s.json")],
        ["search", str(cls), "--restarts=2", "--max-evals=100"],
        ["compare", "--state=0.1,0.5,0.2", "--out", str(tmp_path / "c.json")],
        ["compare"],
        ["build", "t"],
        ["build", "phase-covariant", "--out", str(tmp_path / "p.json")],
    ]
    for argv in commands:
        target = Path(argv[-1]) if "--out" in argv else None
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        got = (code, out.getvalue(), target.read_text() if target else None)
        if target:
            target.unlink()
        want = _fresh_parser_run(argv)
        assert got == (*want, target.read_text() if target else None), argv


class TestSearch:
    def test_clonable_class_exits_0(self, capsys, tmp_path):
        from obsclone.classes import canonicalize

        cls = canonicalize([Observable(np.array([0.0, 0.0, 0.0, 1.0]))])
        path = tmp_path / "cls.json"
        path.write_text(json.dumps(class_to_dict(cls)))
        code, out, _ = run_cli(capsys, "search", str(path), "--restarts", "5", "--seed", "3")
        assert code == 0
        result = json.loads(out)
        assert result["converged"] is True
        assert result["best_defect"] < 1e-6

    def test_unclonable_class_exits_1(self, capsys, tmp_path):
        doc = {"kind": "two-param-noncommuting", "generators": [[0, 1, 0, 0], [0, 0, 1, 0]]}
        path = tmp_path / "xnc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "search", str(path), "--restarts", "1", "--max-evals", "400"
        )
        assert code == 1
        assert json.loads(out)["converged"] is False

    def test_repeated_seeds_give_byte_identical_payloads(self, capsys, tmp_path):
        doc = {"kind": "two-param-noncommuting", "generators": [[0, 1, 0, 0], [0, 0, 1, 0]]}
        path = tmp_path / "xnc.json"
        path.write_text(json.dumps(doc))
        args = ("search", str(path), "--restarts", "2", "--max-evals", "300", "--seed", "9")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second

    def test_defaults_and_modes_come_from_the_search_module(self):
        args = build_parser().parse_args(["search", "cls.json"])
        assert SearchConfig(args.restarts, args.max_evals, args.seed, args.tol) == SearchConfig()
        assert args.mode == MODES[0]

    def test_negative_seed_is_refused_by_name(self, capsys, tmp_path):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"kind": "one-param", "generators": [[0, 0, 0, 1]]}))
        code, out, err = run_cli(capsys, "search", str(path), "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be an integer of at least 0\n"

    def test_malformed_class_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"kind": "one-param"}))
        code, _, err = run_cli(capsys, "search", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "generators, scale", [([[0, 1e200, 0, 0]], 1e200), ([[0, 1e-300, 0, 0], [0, 0, 1e300, 0]], 1e300)]
    )
    def test_classes_with_extreme_coefficients_are_searched(self, capsys, tmp_path, generators, scale):
        kind = "one-param" if len(generators) == 1 else "two-param-noncommuting"
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"kind": kind, "generators": generators}))
        code, out, _ = run_cli(capsys, "search", str(path), "--restarts", "3", "--max-evals", "1000")
        assert code in (0, 1)
        result = json.loads(out)
        assert result["converged"] is (code == 0)
        assert 0.0 <= result["best_defect"] < 1e-6 * scale

    @pytest.mark.parametrize("mode", ["exact", "approximate"])
    def test_large_identity_part_does_not_block_the_search(self, capsys, tmp_path, mode):
        """The objective lifts only the traceless part, so only that part is range-checked."""
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"kind": "one-param", "generators": [[1e306, 1, 0, 0]]}))
        code, out, _ = run_cli(capsys, "search", str(path), "--mode", mode, "--restarts", "3", "--max-evals", "1000")
        assert code in (0, 1)
        result = json.loads(out)
        assert result["converged"] is (code == 0)
        assert 0.0 <= result["best_defect"] < 1e-3

    def test_class_whose_residuals_leave_the_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"kind": "one-param", "generators": [[0, 1e308, 1e308, 0]]}))
        code, out, err = run_cli(capsys, "search", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: generators[0] in exact mode: a copying residual could exceed the float range\n"

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_mutated_class_documents_keep_the_exit_code_contract(self, tmp_path_factory, data):
        """Exit 0, 1 or 2 for any class document and argument values; 0 and 1 only
        with the payload of a search that ran."""
        doc = json.loads(json.dumps(data.draw(st.sampled_from(SEARCH_CLASSES))))
        for _ in range(data.draw(st.integers(0, 3))):
            doc = _mutate(doc, data)
        options = {
            "--mode": data.draw(st.sampled_from(["exact", "approximate"])),
            "--restarts": data.draw(st.sampled_from([1, 1, 2, 0, -1])),
            "--max-evals": data.draw(st.sampled_from([50, 50, 1, 13, 0, -3])),
            "--seed": data.draw(st.sampled_from([0, 7, 2**64, -1])),
            "--tol": data.draw(st.sampled_from([1e-6, 1.0, 1e308, 1e-300, 0.0, -1.0, float("nan"), float("inf")])),
        }
        text = json.dumps(doc)
        try:
            class_from_dict(json.loads(text))
            SearchConfig(options["--restarts"], options["--max-evals"], options["--seed"], options["--tol"])
            valid = True
        except ValueError:
            valid = False
        path = tmp_path_factory.mktemp("fuzz") / "class.json"
        path.write_text(text)
        argv = ["search", str(path)] + [str(v) for item in options.items() for v in item]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if not valid:
            assert code == 2
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1
        else:
            result = json.loads(out.getvalue())
            assert result["converged"] is (code == 0)
            assert result["evaluations"] >= 1


SEARCH_CLASSES = [
    {"kind": "one-param", "generators": [[0.0, 0.0, 0.0, 1.0]]},
    {"kind": "two-param-noncommuting", "generators": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]},
    {"kind": "general", "generators": np.eye(4).tolist()},
]


@pytest.mark.parametrize("command", ["verify", "search"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, command):
    """Nesting past the JSON decoder's recursion limit is invalid input, not a failed check."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1


class FullStream(io.StringIO):
    """A buffered stream on a full device: writes fill the buffer, and flushing it fails."""

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("argv", [["build", "t"], ["scan", "--steps", "3"], ["compare"]], ids=lambda a: a[0])
def test_unwritable_stdout_exits_2(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(FullStream()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (2, "error: cannot write standard output: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("argv", [["build", "t"], ["scan", "--steps", "3"], ["compare"]], ids=lambda a: a[0])
def test_full_standard_output_exits_2_from_the_shell(argv):
    """Block-buffered output to a full device exits 2 with one error line, not at interpreter shutdown."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "obsclone.cli", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env
        )
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write standard output: [Errno 28] No space left on device\n")


# --out targets that cannot be written: a file under a missing directory, and a directory.
UNWRITABLE_OUT = [str(Path(__file__).parent / "no-such-directory" / "out.txt"), str(Path(__file__).parent)]

@pytest.mark.parametrize("target", [*UNWRITABLE_OUT, ""])
def test_unwritable_out_names_its_path(capsys, target):
    """The error names the --out path that was given, even an empty one, never standard output."""
    code, out, err = run_cli(capsys, "build", "t", f"--out={target}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: [Errno ") and err.count("\n") == 1


# Values at and past the edges of what each option accepts.
EDGE_REALS = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-320, 0.0, np.pi / 2, 0.7, -0.4]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.data())
@settings(max_examples=200, deadline=None)
def test_build_scan_and_compare_keep_the_exit_code_contract(data):
    """Exit 0 or 2 on any numbers and --out target, with no RuntimeWarning; 2 with
    no output and one error line. A one-param build succeeds on every finite
    observable with a nonzero Bloch part whose size keeps residuals in the float
    range, when its output can be written."""

    def real():
        return repr(data.draw(st.sampled_from(EDGE_REALS)))

    def reals(n):
        return [real() for _ in range(data.draw(st.sampled_from([n, n, n, n - 1, n + 1])))]

    command = data.draw(st.sampled_from(["build", "scan", "compare"]))
    if command == "build":
        family = data.draw(st.sampled_from(["one-param", "commuting", "t", "phase-covariant"]))
        obs = reals(4)
        argv = ["build", family, f"--obs={','.join(obs)}", f"--b0={real()}", f"--b3={real()}", f"--theta={real()}"]
    elif command == "scan":
        steps = data.draw(st.sampled_from([1, 2, 3, 0, -1, MAX_SCAN_STEPS + 1, 10**12]))
        argv = ["scan", f"--state={','.join(reals(3))}", f"--theta-min={real()}", f"--theta-max={real()}", f"--steps={steps}"]
    else:
        argv = ["compare", f"--state={','.join(reals(3))}"]
    target = data.draw(st.sampled_from([None, None, *UNWRITABLE_OUT]))
    if target is not None:
        argv.append(f"--out={target}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        # A scan holds its singular-angle warnings until its output is written.
        *warned, last = err.getvalue().splitlines()
        assert last.startswith("error:")
        assert not warned
    if argv[1] == "one-param":
        values = [float(v) for v in obs]
        valid = len(values) == 4 and all(abs(v) <= 1e300 for v in values) and any(values[1:])
        assert code == (0 if valid and target is None else 2)


def run_python(code, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)


def test_importing_the_cli_loads_no_scipy():
    proc = run_python("import sys, obsclone.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# perfbench/spans.py patches every layer module by name, and perfbench/workloads.py
# binds these names; a rename or a dropped import would otherwise only show there.
BENCHMARK_LAYERS = ("cli", "search", "machines", "jointmeas", "classes", "pauli", "linalg")
BENCHMARK_NAMES = (
    "machines.heisenberg_lift",
    "search.optimize.minimize",
    "search.SearchSpacePoint.from_dict",
    "search.cloning_defect",
    "machines.machine_from_dict",
    "machines.t_machine",
    "jointmeas.uncertainty_product",
    "classes.class_from_dict",
)


def test_importing_the_cli_loads_every_name_the_benchmark_binds():
    code = (
        "import functools, sys, obsclone.cli\n"
        "layers, names = sys.argv[1].split(','), sys.argv[2].split(',')\n"
        "print(sorted(l for l in layers if 'obsclone.' + l not in sys.modules))\n"
        "for name in names:\n"
        "    layer, *attrs = name.split('.')\n"
        "    functools.reduce(getattr, attrs, sys.modules['obsclone.' + layer])\n"
    )
    proc = run_python(code, ",".join(BENCHMARK_LAYERS), ",".join(BENCHMARK_NAMES))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCompare:
    def test_reports_both_machines(self, capsys):
        code, out, _ = run_cli(capsys, "compare")
        assert code == 0
        data = json.loads(out)
        assert data["state"] == [0.0, 0.0, 1.0]
        assert data["observable_product"] == pytest.approx(4.0, abs=1e-10)
        assert data["universal_product"] == pytest.approx(81.0 / 16.0, abs=1e-12)
        assert data["observable_shrink_factor"] == pytest.approx([1.0 / np.sqrt(2.0)] * 2)
        assert data["universal_shrink_factor"] == pytest.approx(2.0 / 3.0)
        assert data["paper_reference_value"] == 4.5
        assert data["universal_product"] > data["observable_product"]

    def test_shrink_factors_are_the_tailored_machines_branch_shrinks(self, capsys):
        """Off the sigma3 axis the balancing angle leaves pi/4, and the shrinks (cos theta, sin theta) follow it."""
        code, out, _ = run_cli(capsys, "compare", "--state", "0.8,0,0.3")
        assert code == 0
        data = json.loads(out)
        theta = data["optimal_theta"]
        assert data["observable_shrink_factor"] == pytest.approx([np.cos(theta), np.sin(theta)], rel=1e-15)
        assert data["observable_shrink_factor"] == pytest.approx([0.790569, 0.612372], abs=1e-6)

    def test_phase_covariant_route_agrees_with_the_tailored_one(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--state", "0.2,0.1,0.6")
        assert code == 0
        data = json.loads(out)
        assert data["phase_covariant_product"] == pytest.approx(
            data["observable_product"], abs=1e-10
        )

    def test_bad_state_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--state", "1,1,1")
        assert code == 2
        assert "error:" in err
