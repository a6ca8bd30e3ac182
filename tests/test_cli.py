"""End-to-end tests for the command-line interface."""

import json

import numpy as np
import pytest

from obsclone.cli import _fmt, dumps, main
from obsclone.machines import machine_from_dict, machine_to_dict, cnot_machine
from obsclone.classes import class_to_dict
from obsclone.pauli import Observable


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFloatFormatting:
    @pytest.mark.parametrize("x", [1 / 3, np.sqrt(2.0), -1e-17, 0.1 + 0.2, 4.0, 0.0])
    def test_fmt_round_trips_binary64(self, x):
        assert float(_fmt(x)) == x

    def test_fmt_rejects_non_finite(self):
        with pytest.raises(ValueError):
            _fmt(np.nan)
        with pytest.raises(ValueError):
            _fmt(np.inf)

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
        [("gains", 5), ("gains", [1]), ("gains", ["a", 1]), ("probe_bloch", "x")],
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

    def test_malformed_class_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"kind": "one-param"}))
        code, _, err = run_cli(capsys, "search", str(path))
        assert code == 2
        assert "error:" in err


class TestCompare:
    def test_reports_both_machines(self, capsys):
        code, out, _ = run_cli(capsys, "compare")
        assert code == 0
        data = json.loads(out)
        assert data["state"] == [0.0, 0.0, 1.0]
        assert data["observable_product"] == pytest.approx(4.0, abs=1e-10)
        assert data["universal_product"] == pytest.approx(81.0 / 16.0, abs=1e-12)
        assert data["observable_shrink_factor"] == pytest.approx(1.0 / np.sqrt(2.0))
        assert data["universal_shrink_factor"] == pytest.approx(2.0 / 3.0)
        assert data["paper_reference_value"] == 4.5
        assert data["universal_product"] > data["observable_product"]

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
