"""Command-line interface: exit codes, report shape, reproducibility."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from rlw import BuiltinFamily, QMODZ, RecordingData
from rlw.cli import main
from rlw.validate import validate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def write_corrupt_table(path):
    recorder = RecordingData(BuiltinFamily("M", 2, 1.0))
    validate(recorder, [QMODZ.element(Fraction("1/5")), QMODZ.element(Fraction("2/5"))])
    table = recorder.export_table().to_dict()
    for entry in table["sixj"]:
        if entry["re"]:
            entry["re"] = 1.0
    path.write_text(json.dumps(table))


class TestGroundDim:
    def test_theta(self, capsys):
        code, report, _ = run(
            capsys, "ground-dim", "--family", "P:3:2",
            "--surface", "torus:theta", "--holonomy", "1/5,2/5",
        )
        assert code == 0
        assert report["ground_dim"] == 9
        assert report["hilbert_dim"] == 54
        assert report["idempotency_residual"] <= 1e-12

    def test_grid_falls_back_to_strict(self, capsys):
        code, report, _ = run(
            capsys, "ground-dim", "--family", "P:2:1",
            "--surface", "torus:grid:2", "--holonomy", "1/7,2/7",
        )
        assert code == 0
        assert report["ground_dim"] == 4
        assert report["strict_fusion"] is True
        assert any("strict" in note for note in report["notes"])

    def test_singular_holonomy_exits_one(self, capsys):
        code, report, err = run(
            capsys, "ground-dim", "--family", "P:2:1",
            "--surface", "torus:theta", "--holonomy", "1/2,2/5",
        )
        assert code == 1
        assert "edge" in report["error"]
        assert "1/2" in report["error"]

    def test_projector_formed_once(self, capsys, monkeypatch):
        from rlw.operators import StringNetModel

        calls = []
        original = StringNetModel.ground_projector

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(StringNetModel, "ground_projector", counted)
        code, report, _ = run(
            capsys, "ground-dim", "--family", "P:2:1",
            "--surface", "torus:theta", "--holonomy", "1/5,2/5",
        )
        assert code == 0 and report["ground_dim"] == 4
        assert len(calls) == 1

    def test_bad_surface_exits_two(self, capsys):
        code, _, _ = run(
            capsys, "ground-dim", "--family", "P:2:1",
            "--surface", "torus:wedge", "--holonomy", "1/5,2/5",
        )
        assert code == 2


class TestValidate:
    def test_family_passes(self, capsys):
        code, report, _ = run(
            capsys, "validate", "--family", "P:3:2", "--degrees", "1/5,2/5,1/7",
        )
        assert code == 0
        assert report["passed"] is True
        assert len(report["checks"]) == 10
        assert report["max_residual"] <= 1e-12

    def test_corrupt_table_exits_one(self, capsys, tmp_path):
        table = tmp_path / "bad.json"
        write_corrupt_table(table)
        code, report, err = run(
            capsys, "validate", "--data", str(table), "--degrees", "1/5,2/5",
        )
        assert code == 1
        pentagon = next(c for c in report["checks"] if c["name"] == "pentagon")
        assert not pentagon["passed"]
        assert pentagon["witness"] is not None
        assert "pentagon" in err and "FAIL" in err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, report, _ = run(
            capsys, "validate", "--data", str(broken), "--degrees", "1/5",
        )
        assert code == 2
        assert report is None

    def test_family_config_file(self, capsys, tmp_path):
        config = tmp_path / "family.json"
        config.write_text(json.dumps({"family": "P", "N": 2, "c": 1.0}))
        code, report, _ = run(
            capsys, "validate", "--data", str(config), "--degrees", "1/5,2/5",
        )
        assert code == 0
        assert report["passed"] is True


class TestSpectrum:
    def test_theta_multiplicities(self, capsys):
        code, report, _ = run(
            capsys, "spectrum", "--family", "P:2:1",
            "--surface", "torus:theta", "--holonomy", "1/5,2/5",
        )
        assert code == 0
        assert report["spectrum"] == {"0": 4, "2": 8, "3": 8}
        assert report["ground_dim"] == 4
        assert report["gap"] >= 1
        assert report["rounding_residual"] <= 1e-7
        assert sum(report["spectrum"].values()) == report["hilbert_dim"]


class TestCheck:
    def test_theta_suite_passes(self, capsys):
        code, report, _ = run(
            capsys, "check", "--family", "M:2:1",
            "--surface", "torus:theta", "--holonomy", "1/5,2/5",
        )
        assert code == 0
        assert report["passed"] is True
        names = {row["name"] for row in report["rows"]}
        assert {
            "projector_idempotency",
            "plaquette_commutation",
            "vertex_commutation",
            "adjoint_degree_flip",
            "degree_composition",
            "probe_independence",
            "pseudo_hermiticity",
            "symmetric_pairing",
            "gauge_invariance",
            "triangulation_invariance",
        } <= names
        residuals = [r["residual"] for r in report["rows"] if "residual" in r]
        assert max(residuals) <= 1e-9

    def test_genus_skips_triangulation_row(self, capsys):
        code, report, _ = run(
            capsys, "check", "--family", "P:2:1", "--strict-fusion",
            "--surface", "genus:2", "--holonomy", "1/5,2/5,1/7,3/7",
        )
        assert code == 0
        names = {row["name"] for row in report["rows"]}
        assert "triangulation_invariance" not in names
        assert any("torus" in note for note in report["notes"])


class TestPlumbing:
    def test_reports_are_reproducible(self, capsys):
        args = (
            "check", "--family", "F:2:1:2",
            "--surface", "torus:theta", "--holonomy", "1/5,2/5", "--seed", "3",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert json.dumps(first) == json.dumps(second)

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, report, _ = run(
            capsys, "ground-dim", "--family", "P:2:1",
            "--surface", "torus:theta", "--holonomy", "1/5,2/5",
            "--out", str(out),
        )
        assert code == 0
        assert report is None  # nothing on stdout
        assert json.loads(out.read_text())["ground_dim"] == 4

    def test_config_embedded(self, capsys):
        _, report, _ = run(
            capsys, "spectrum", "--family", "P:2:1",
            "--surface", "torus:theta", "--holonomy", "1/5,2/5", "--tol", "1e-8",
        )
        assert report["version"]
        assert report["config"]["family"] == "P:2:1"
        assert report["config"]["tol"] == 1e-8
        assert report["config"]["holonomy"] == ["1/5", "2/5"]

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["ground-dim", "--family", "P:2:1", "--surface", "torus:theta"])
        assert info.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "rlw.cli", "ground-dim",
                "--family", "P:2:1", "--surface", "torus:theta",
                "--holonomy", "1/5,2/5",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ground_dim"] == 4
        assert "ground dimension" in proc.stderr
