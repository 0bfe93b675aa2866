"""Command-line interface: exit codes, report shape, reproducibility."""

import argparse
import dataclasses
import gc
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rlw
from rlw import BuiltinFamily, QMODZ, RecordingData, build_torus, coloring_from_holonomy
from rlw.cli import RunConfig, _parser, main
from rlw.errors import MissingDataError
from rlw.operators import StringNetModel
from rlw.states import LinearOperator, StateSpace
from rlw.surface import gauge_shift
from rlw.axioms import validate
from multiplicity import dense_operator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def _child_path():
    """PYTHONPATH for a child that imports the rlw under test, installed or not."""
    return os.pathsep.join(
        filter(None, [str(Path(rlw.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    )


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

    @pytest.mark.parametrize(
        "surface, holonomy, ground, hilbert",
        [
            ("torus:grid:2", "1/7,2/7", 4, 104_992),
            ("genus:2", "1/7,2/7,3/7,1/11", 16, 5_840),
            ("genus:3", "1/7,2/7,3/7,1/11,2/11,3/11", 64, 1_889_600),
            ("torus:grid:3", "1/7,2/7", 4, 198_359_290_880),
        ],
        ids=["grid2", "genus2", "genus3", "grid3"],
    )
    def test_inclusive_dim_counted(self, capsys, surface, holonomy, ground, hilbert):
        # the ground projector is formed on the fused rows only; the
        # inclusive space, over the cap here but on genus:2, is counted
        code, report, _ = run(
            capsys, "ground-dim", "--family", "P:2:1",
            "--surface", surface, "--holonomy", holonomy,
        )
        assert code == 0
        assert report["ground_dim"] == ground
        assert report["hilbert_dim"] == hilbert
        assert report["strict_fusion"] is False
        assert report["notes"] == []

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

    @pytest.mark.parametrize(
        "form, surface, holonomy",
        [
            ("torus:theta", "torus:theta", "1/5,2/5"),
            ("torus:grid:N", "torus:grid:2", "1/7,2/7"),
            ("genus:G", "genus:2", "1/5,2/5,1/7,3/7"),
        ],
        ids=["theta", "grid", "genus"],
    )
    def test_surface_forms_in_help_run(self, capsys, form, surface, holonomy):
        with pytest.raises(SystemExit):
            main(["ground-dim", "--help"])
        assert form in " ".join(capsys.readouterr().out.split())
        code, report, _ = run(
            capsys, "ground-dim", "--family", "P:2:1", "--strict-fusion",
            "--surface", surface, "--holonomy", holonomy,
        )
        assert code == 0
        assert report["ground_dim"] == 2 ** len(holonomy.split(","))  # N^(2g)

    @pytest.mark.parametrize("command", ["ground-dim", "spectrum"])
    def test_genus_one_is_theta(self, capsys, command):
        bodies = []
        for surface in ("genus:1", "torus:theta"):
            code, report, _ = run(
                capsys, command, "--family", "M:3:2",
                "--surface", surface, "--holonomy", "1/5,2/5",
            )
            assert code == 0
            assert report.pop("config")["surface"] == surface
            bodies.append(report)
        assert bodies[0] == bodies[1]

    def test_file_surface_is_not_a_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["ground-dim", "--help"])
        assert "file:" not in capsys.readouterr().out
        code, report, err = run(
            capsys, "ground-dim", "--family", "P:2:1",
            "--surface", "file:x", "--holonomy", "1/5,2/5",
        )
        assert code == 2
        assert "bad surface spec" in report["error"] and "bad surface spec" in err


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

    def test_out_of_range_index_exits_two(self, capsys, tmp_path):
        recorder = RecordingData(BuiltinFamily("P", 2, 1.0))
        validate(recorder, [QMODZ.element(Fraction("1/5")), QMODZ.element(Fraction("2/5"))])
        table = recorder.export_table().to_dict()
        table["sixj"][0]["a"] = [1, 1, 1, 2]  # above the largest delta, 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(table))
        code, report, err = run(
            capsys, "validate", "--data", str(path), "--degrees", "1/5,2/5",
        )
        assert code == 2
        assert report is None
        assert "sixj row" in err and "outside 1..1" in err

    @pytest.mark.parametrize("fault", ["float delta", "repeated row"])
    def test_coerced_or_repeated_row_exits_two(self, capsys, tmp_path, fault):
        recorder = RecordingData(BuiltinFamily("P", 2, 1.0))
        validate(recorder, [QMODZ.element(Fraction("1/5")), QMODZ.element(Fraction("2/5"))])
        table = recorder.export_table().to_dict()
        if fault == "float delta":
            table["delta"][0]["value"] = 1.5
        else:
            table["sixj"].append(dict(table["sixj"][0], re=0.5))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(table))
        code, report, err = run(
            capsys, "validate", "--data", str(path), "--degrees", "1/5,2/5",
        )
        assert code == 2
        assert report is None
        message = "is not an integer" if fault == "float delta" else "repeats an earlier entry"
        assert message in err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, report, _ = run(
            capsys, "validate", "--data", str(broken), "--degrees", "1/5",
        )
        assert code == 2
        assert report is None

    @pytest.mark.parametrize("cap", ["0", "-3", "1.5"])
    def test_max_tuples_below_one_exits_two(self, capsys, cap):
        with pytest.raises(SystemExit) as info:
            main(["validate", "--family", "P:2:1", "--degrees", "1/5,2/5", "--max-tuples", cap])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert (
            f"argument --max-tuples: max tuples must be an integer >= 1, got '{cap}'"
            in captured.err
        )

    def test_family_config_file(self, capsys, tmp_path):
        config = tmp_path / "family.json"
        config.write_text(json.dumps({"family": "P", "N": 2, "c": 1.0}))
        code, report, _ = run(
            capsys, "validate", "--data", str(config), "--degrees", "1/5,2/5",
        )
        assert code == 0
        assert report["passed"] is True


def theta_recording(spec, path, strict=False):
    """The table a theta `ground-dim` at holonomy 1/5,2/5 was served."""
    recorder = RecordingData(rlw.parse_family_spec(spec))
    coloring = coloring_from_holonomy(
        build_torus("theta"), (QMODZ.element(Fraction("1/5")), QMODZ.element(Fraction("2/5")))
    )
    StringNetModel(recorder, coloring, strict=strict).ground_dim()  # probe 1/4
    table = recorder.export_table().to_dict()
    path.write_text(json.dumps(table))
    return table


THETA = ("--surface", "torus:theta", "--holonomy", "1/5,2/5")


class TestAbsentSixjBlocks:
    # by orthogonality a 6j block at degrees meeting the constraint is
    # never all zero, so its absence from a table is missing data

    def test_unrecorded_probe_exits_two_naming_block(self, capsys, tmp_path):
        # the table holds the labels of 1/20 but no block of its walk
        path = tmp_path / "p32.json"
        theta_recording("P:3:2", path)
        code, report, err = run(
            capsys, "ground-dim", "--data", str(path), *THETA, "--probe", "1/20"
        )
        message = "6j block at degrees (1/4,19/20,1/5,2/5,3/5,7/20) is not in the table"
        assert code == 2
        assert report["error"] == message
        assert message in err

    def test_recorded_probe_replays(self, capsys, tmp_path):
        path = tmp_path / "p32.json"
        theta_recording("P:3:2", path)
        code, report, _ = run(
            capsys, "ground-dim", "--data", str(path), *THETA, "--probe", "1/4"
        )
        assert code == 0
        assert report["ground_dim"] == 9

    def test_default_probe_is_the_recorded_one(self, capsys, tmp_path):
        # the strict recording walked at probe 1/4; its stored 6j blocks hold
        # 1/4 and 3/4 on the probe axis, and those degrees are offered first
        path = tmp_path / "p21.json"
        theta_recording("P:2:1", path, strict=True)
        table = rlw.load_data(str(path))
        assert [str(g) for g in itertools.islice(table.probe_degrees(), 2)] == ["1/4", "3/4"]
        code, report, _ = run(capsys, "ground-dim", "--data", str(path), *THETA)
        assert code == 0
        assert report["ground_dim"] == 4

    def test_check_skips_probe_the_table_lacks(self, capsys, tmp_path):
        # the candidates are the recording's 1/4 and 3/4, then 1/20, whose
        # walk the recording never stored: independence compares the first
        # two, and every composition pair is singular or lacks data
        path = tmp_path / "p21.json"
        theta_recording("P:2:1", path)
        code, report, _ = run(
            capsys, "check", "--data", str(path), *THETA, "--probe", "1/4"
        )
        assert code == 0
        assert report["ground_dim"] == 4
        rows = {row["name"]: row for row in report["rows"]}
        assert rows["probe_independence"]["passed"]
        assert rows["gauge_invariance"] == {"name": "gauge_invariance", "passed": True, "shifts": 5}
        assert "no probe pair admits the composition test; skipped" in report["notes"]

    def test_stored_zero_block_ends_the_walk(self, capsys, tmp_path):
        # a block stored as zeros is data, not a gap: the walk's frontier
        # empties and the ground space is 0
        path = tmp_path / "p32.json"
        table = theta_recording("P:3:2", path)
        degree = {row["id"]: row["degree"] for row in table["labels"]}
        first = [degree[i] for i in table["sixj"][0]["j"]]
        for row in table["sixj"]:
            if [degree[i] for i in row["j"]] == first:
                row["re"] = row["im"] = 0.0
        path.write_text(json.dumps(table))
        code, report, _ = run(
            capsys, "ground-dim", "--data", str(path), *THETA, "--probe", "1/4"
        )
        assert code == 0
        assert report["ground_dim"] == 0


class TestArguments:
    @pytest.mark.parametrize("command", ["ground-dim", "spectrum", "check"])
    def test_probe_off_the_rule_builds_nothing(self, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("a state space was built")

        monkeypatch.setattr(StateSpace, "__init__", refuse)
        code, report, err = run(
            capsys, command, "--family", "P:2:1", *THETA, "--probe", "3/5"
        )
        message = "probe 3/5 shifts edge 1 of degree 2/5 to the singular degree 0"
        assert code == 1
        assert report["error"] == message
        assert f"error: {message}" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("ground-dim", "--surface", "torus:theta", "--holonomy", "1/x,2/5"),
             "--holonomy 1/x"),
            (("validate", "--degrees", "1/5,abc"), "--degrees abc"),
            (("spectrum", *THETA, "--probe", "abc"), "--probe abc"),
            (("check", "--surface", "torus:theta", "--holonomy", "1/0,2/5"),
             "--holonomy 1/0"),
        ],
    )
    def test_degree_errors_name_their_option(self, capsys, argv, option):
        code, report, err = run(capsys, *argv, "--family", "P:2:1")
        assert code == 2
        assert report["error"].startswith(f"{option}: ")
        assert f"error: {report['error']}" in err


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

    def test_over_cap_exits_one_naming_flags(self, capsys):
        # 104,992 inclusive states: no silent switch to the 32 strict ones
        code, report, err = run(
            capsys, "spectrum", "--family", "P:2:1",
            "--surface", "torus:grid:2", "--holonomy", "1/7,2/7",
        )
        assert code == 1
        assert "spectrum" not in report
        for flag in ("--dim-cap", "--strict-fusion"):
            assert flag in report["error"] and flag in err


    def test_no_dense_hamiltonian(self, capsys, monkeypatch):
        # the eigenvalues read H one invariant block at a time
        def dense(self):
            raise AssertionError(f"dense read of {self!r}")

        monkeypatch.setattr(LinearOperator, "matrix", property(dense))
        code, report, _ = run(
            capsys, "spectrum", "--family", "M:3:2", "--strict-fusion",
            "--surface", "torus:grid:2", "--holonomy", "1/7,2/7",
        )
        assert code == 0
        assert report["spectrum"] == {"0": 9, "2": 108, "3": 72, "4": 54}

    def test_off_block_entry_fails(self, capsys, monkeypatch):
        # one Hamiltonian entry joining the first states of two invariant
        # blocks: the per-block eigenvalues would leave it out
        original = StringNetModel.hamiltonian
        planted = {}

        def hamiltonian(self):
            op = original(self)
            first, second = (int(part[0]) for part in self._invariant_blocks()[:2])
            planted["at"] = (second, first)
            rows, cols, vals = (
                np.append(op.rows, second), np.append(op.cols, first), np.append(op.vals, 0.5)
            )
            return LinearOperator(op.src, op.dst, rows, cols, vals)

        monkeypatch.setattr(StringNetModel, "hamiltonian", hamiltonian)
        code, report, err = run(capsys, "spectrum", "--family", "M:3:2", *THETA)
        message = "Hamiltonian entry ({}, {}) lies outside the invariant blocks"
        assert code == 1
        assert "spectrum" not in report
        assert report["error"] == message.format(*planted["at"])
        assert report["error"] in err

    def test_rounding_residual_fails(self, capsys, monkeypatch):
        # every eigenvalue moved a quarter off its integer
        original = StringNetModel.hamiltonian

        def hamiltonian(self):
            op = original(self)
            diag = np.arange(op.src.dim)
            rows, cols = np.append(op.rows, diag), np.append(op.cols, diag)
            vals = np.append(op.vals, np.full(op.src.dim, 0.25))
            return LinearOperator(op.src, op.dst, rows, cols, vals)

        monkeypatch.setattr(StringNetModel, "hamiltonian", hamiltonian)
        code, report, err = run(capsys, "spectrum", "--family", "M:3:2", *THETA)
        assert code == 1
        assert "spectrum" not in report
        assert report["error"] == "eigenvalue rounding residual 2.500e-01 exceeds tolerance"
        assert report["error"] in err

    @pytest.mark.parametrize("family", ["P:3:2", "M:3:2"])
    def test_inclusive_matches_dense_eigvals(self, capsys, family):
        # 54 inclusive states in two invariant blocks, against the
        # eigenvalues of the dense full H
        code, report, _ = run(capsys, "spectrum", "--family", family, *THETA)
        model = StringNetModel(
            rlw.parse_family_spec(family),
            coloring_from_holonomy(
                build_torus("theta"), tuple(QMODZ.element(Fraction(x)) for x in ("1/5", "2/5"))
            ),
        )
        assert len(model._invariant_blocks()) == 2
        eigenvalues = np.linalg.eigvals(model.hamiltonian().matrix)
        energies, counts = np.unique(np.round(eigenvalues.real).astype(int), return_counts=True)
        assert code == 0
        assert report["spectrum"] == {str(e): int(n) for e, n in zip(energies, counts)}
        assert report["hilbert_dim"] == 54
        dense = max(abs(v - round(v.real)) for v in eigenvalues)
        assert max(report["rounding_residual"], dense) <= 1e-12


    def test_empty_fused_space(self, capsys, tmp_path):
        # a table without delta rows fuses no state: the spectrum is empty,
        # as ground-dim on the same arguments reports dimension 0
        recorder = RecordingData(BuiltinFamily("P", 2, 1.0))
        coloring = coloring_from_holonomy(
            build_torus("theta"), tuple(QMODZ.element(Fraction(x)) for x in ("1/5", "2/5"))
        )
        probe = QMODZ.element(Fraction("1/4"))
        StringNetModel(recorder, coloring, strict=True, probe=probe).ground_dim()
        table = recorder.export_table().to_dict()
        table["delta"] = []
        path = tmp_path / "no_delta.json"
        path.write_text(json.dumps(table))
        argv = ("--data", str(path), *THETA, "--strict-fusion", "--probe", "1/4")
        code, report, _ = run(capsys, "spectrum", *argv)
        assert code == 0
        assert report["hilbert_dim"] == 0
        assert report["spectrum"] == {}
        assert report["ground_dim"] == 0
        assert report["rounding_residual"] == 0.0
        assert report["gap"] is None
        code, report, _ = run(capsys, "ground-dim", *argv)
        assert code == 0 and report["ground_dim"] == 0


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

    def test_vertex_commutation_fails_on_planted_fault(self, capsys, monkeypatch):
        # one entry from a state unfused at vertex 0 to one fused there (and
        # unfused at the last vertex, so the ground projector drops that row)
        original = StringNetModel.plaquette_B

        def planted(self, p, g=None):
            op = original(self, p, g)
            fused = op.src.slot_array >= 1
            rows = np.flatnonzero(fused[:, 0] & ~fused[:, -1])
            cols = np.flatnonzero(~fused[:, 0])
            if not (len(rows) and len(cols)):  # strict companion spaces
                return op
            matrix = op.matrix.copy()
            matrix[rows[0], cols[0]] += 0.5
            return dense_operator(op.src, op.dst, matrix)

        monkeypatch.setattr(StringNetModel, "plaquette_B", planted)
        code, report, _ = run(
            capsys, "check", "--family", "M:2:1",
            "--surface", "torus:theta", "--holonomy", "1/5,2/5",
        )
        model = StringNetModel(
            BuiltinFamily("M", 2, 1.0),
            coloring_from_holonomy(
                build_torus("theta"), tuple(QMODZ.element(Fraction(x)) for x in ("1/5", "2/5"))
            ),
        )
        dense = max(
            np.linalg.norm((b @ d - d @ b).matrix)
            for b in (model.plaquette_B(p) for p in model.graph.plaquettes)
            for d in (model.vertex_Q(v) for v in range(model.graph.num_vertices))
        )
        row = next(r for r in report["rows"] if r["name"] == "vertex_commutation")
        assert code == 1 and report["passed"] is False
        assert row["passed"] is False
        assert row["residual"] == dense == 0.5

    def test_product_rows_fail_on_planted_fault(self, capsys, monkeypatch):
        # B_0 gains 0.5 x y^T, where every other B_p kills x and y^T B_1 = 0:
        # a product of all the commuting B_p is unchanged, so the ground
        # dimension stands, but B_0 is no projector and no longer commutes
        # with B_2 and B_3
        original = StringNetModel.plaquette_B

        def planted(self, p, g=None):
            op = original(self, p, g)
            plaquettes = self.graph.plaquettes
            if len(plaquettes) < 2 or self._plaquette(p).index != 0:
                return op
            others = [original(self, other, g).matrix for other in plaquettes[1:]]
            ident = np.eye(op.src.dim)
            x = ident[:, 0]
            for b in others:
                x = x - b @ x
            y = ident[0] - ident[0] @ others[0]
            return dense_operator(op.src, op.dst, op.matrix + 0.5 * np.outer(x, y))

        monkeypatch.setattr(StringNetModel, "plaquette_B", planted)
        code, report, _ = run(
            capsys, "check", "--family", "P:2:1", "--strict-fusion",
            "--surface", "torus:grid:2", "--holonomy", "1/7,2/7",
        )
        coloring = coloring_from_holonomy(
            build_torus("grid", 2), tuple(QMODZ.element(Fraction(x)) for x in ("1/7", "2/7"))
        )
        model = StringNetModel(BuiltinFamily("P", 2, 1.0), coloring, strict=True)
        bs = [model.plaquette_B(p).matrix for p in model.graph.plaquettes]
        dense = {
            "projector_idempotency": max(np.linalg.norm(b @ b - b) for b in bs),
            "plaquette_commutation": max(
                np.linalg.norm(a @ b - b @ a) for i, a in enumerate(bs) for b in bs[i + 1 :]
            ),
        }
        assert code == 1 and report["passed"] is False
        assert report["ground_dim"] == 4
        for row in report["rows"]:
            if row["name"] in dense:
                assert row["passed"] is False
                assert dense[row["name"]] > 0.01
                assert row["residual"] == pytest.approx(dense[row["name"]], rel=1e-12)

    @staticmethod
    def plant_composition(monkeypatch, blocked):
        """Make the degree-composition attempts (g1, g2) that `blocked`
        accepts raise MissingDataError; return the attempts made.

        An attempt is the call B^(g1+g2) right after B^g2 and B^g1 on the
        coloring shifted by -g2, all on one model."""
        original = StringNetModel.plaquette_Bg
        calls, attempts = [], []

        def planted(self, p, g, coloring=None):
            calls.append((self, g, coloring))
            if coloring is None and len(calls) >= 3:
                (m2, g2, c2), (m1, g1, c1) = calls[-3:-1]
                if m2 is m1 is self and c2 is None and c1 is not None and g == g1 + g2:
                    assert c1.values == gauge_shift(self.coloring, self._plaquette(p), -g2).values
                    attempts.append((g1, g2))
                    if blocked(g1, g2):
                        raise MissingDataError(f"planted gap at {g1}, {g2}")
            return original(self, p, g, coloring)

        monkeypatch.setattr(StringNetModel, "plaquette_Bg", planted)
        return attempts

    def test_degree_composition_takes_first_working_pair(self, capsys, monkeypatch):
        # the candidates are 1/4, 3/4, 1/7, 2/7; the pairs (1/4, 1/4) and
        # (1/4, 3/4) hit a singular degree, and (1/4, 1/7) is planted missing
        c0, c2, c3 = (QMODZ.element(Fraction(x)) for x in ("1/4", "1/7", "2/7"))
        attempts = self.plant_composition(monkeypatch, lambda g1, g2: (g1, g2) == (c0, c2))
        code, report, _ = run(capsys, "check", "--family", "M:2:1", *THETA)
        assert code == 0
        assert attempts[-2:] == [(c0, c2), (c0, c3)]
        assert all(g1 == c0 for g1, _ in attempts)  # row-major: g2 varies fastest
        model = StringNetModel(
            BuiltinFamily("M", 2, 1.0),
            coloring_from_holonomy(
                build_torus("theta"), tuple(QMODZ.element(Fraction(x)) for x in ("1/5", "2/5"))
            ),
        )
        p = model.graph.plaquettes[0]
        first = model.plaquette_Bg(p, c0, gauge_shift(model.coloring, p, -c3))
        want = (first @ model.plaquette_Bg(p, c3) - model.plaquette_Bg(p, c0 + c3)).norm()
        row = next(r for r in report["rows"] if r["name"] == "degree_composition")
        assert row == {"name": "degree_composition", "residual": want, "passed": True}

    def test_degree_composition_skipped_when_every_pair_fails(self, capsys, monkeypatch):
        attempts = self.plant_composition(monkeypatch, lambda g1, g2: True)
        code, report, _ = run(capsys, "check", "--family", "M:2:1", *THETA)
        last = QMODZ.element(Fraction("2/7"))
        assert code == 0 and attempts[-1] == (last, last)  # every pair was tried
        assert "degree_composition" not in {row["name"] for row in report["rows"]}
        assert "no probe pair admits the composition test; skipped" in report["notes"]

    def test_genus_skips_triangulation_row(self, capsys):
        code, report, _ = run(
            capsys, "check", "--family", "P:2:1", "--strict-fusion",
            "--surface", "genus:2", "--holonomy", "1/5,2/5,1/7,3/7",
        )
        assert code == 0
        names = {row["name"] for row in report["rows"]}
        assert "triangulation_invariance" not in names
        assert any("torus" in note for note in report["notes"])


    def test_probe_falls_back_to_the_models_own(self, capsys):
        # none of the first eight probe degrees keeps every shifted edge
        # degree generic; the model's probe 3/7 does, and drives the gauge shifts
        code, report, _ = run(
            capsys, "check", "--family", "P:2:1", "--strict-fusion", "--surface", "genus:3",
            "--holonomy", "5/14,11/14,3/10,1/15,20/21,1/12",
        )
        assert code == 0 and report["passed"] is True
        names = {row["name"] for row in report["rows"]}
        assert not names & {"degree_composition", "probe_independence"}
        assert "no probe pair admits the composition test; skipped" in report["notes"]
        assert "fewer than two probe candidates; independence skipped" in report["notes"]
        gauge = next(row for row in report["rows"] if row["name"] == "gauge_invariance")
        assert gauge["shifts"] == 5

    def test_inadmissible_companion_skips_triangulation_row(self, capsys):
        # holonomy 1/7,1/42 puts the singular degree 5/6 on an edge of the
        # companion theta graph, not on the 2x2 grid itself
        argv = ("--family", "P:2:1", "--strict-fusion", "--surface", "torus:grid:2",
                "--holonomy", "1/7,1/42")
        code, report, _ = run(capsys, "check", *argv)
        assert code == 0 and report["passed"] is True
        names = [row["name"] for row in report["rows"]]
        assert names == [
            "projector_idempotency",
            "plaquette_commutation",
            "vertex_commutation",
            "adjoint_degree_flip",
            "degree_composition",
            "probe_independence",
            "pseudo_hermiticity",
            "symmetric_pairing",
            "gauge_invariance",
        ]
        note = "companion coloring is inadmissible or lacks data; triangulation skipped"
        assert note in report["notes"]
        code, ground, _ = run(capsys, "ground-dim", *argv)
        assert code == 0 and ground["ground_dim"] == report["ground_dim"]

    def test_companion_over_cap_skips_triangulation_row(self, capsys):
        # the strict theta space has 4 states, its grid:2 companion 32
        argv = ("--family", "P:2:1", "--strict-fusion", *THETA, "--dim-cap", "20")
        code, report, _ = run(capsys, "check", *argv)
        assert code == 0 and report["passed"] is True
        assert "triangulation_invariance" not in {row["name"] for row in report["rows"]}
        assert report["notes"] == [
            "companion torus:grid:2 exceeds --dim-cap 20; triangulation skipped"
        ]
        code, ground, _ = run(capsys, "ground-dim", *argv)
        assert code == 0 and ground["ground_dim"] == report["ground_dim"]

    def test_other_colorings_get_strict_models(self, capsys, monkeypatch):
        # the gauge and triangulation rows build one strict model per
        # coloring they compare, and no inclusive model besides the base
        original = StringNetModel.__init__
        built = []

        def record(self, data, coloring, strict=False, **kwargs):
            built.append((coloring.values, strict))
            original(self, data, coloring, strict=strict, **kwargs)

        monkeypatch.setattr(StringNetModel, "__init__", record)
        code, report, _ = run(capsys, "check", "--family", "M:2:1", *THETA)
        assert code == 0
        (base, inclusive), *others = built
        assert not inclusive and all(strict for _, strict in others)
        gauge = next(row for row in report["rows"] if row["name"] == "gauge_invariance")
        # the base's fused twin, each gauge shift, the companion torus
        assert len(others) == 1 + gauge["shifts"] + 1


def strict_json(text):
    """Parse `text` as RFC 8259 JSON: NaN and the infinities are errors."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "--family", "P:3:2", "--degrees", "1/5,2/5"),
            ("ground-dim", "--family", "P:3:2", *THETA),
            ("spectrum", "--family", "P:3:2", *THETA),
            ("check", "--family", "P:3:2", *THETA),
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_command(self, capsys, argv):
        code = main(list(argv))
        report = strict_json(capsys.readouterr().out)
        assert code == 0
        assert report["command"] == argv[0]

    def test_non_finite_residual_is_null(self, capsys, tmp_path):
        # d = 0 makes orthogonality divide by zero: its residual is infinite
        degrees = [QMODZ.element(Fraction(v)) for v in ("1/5", "2/5", "1/7")]
        recorder = RecordingData(BuiltinFamily("P", 3, 2.0))
        validate(recorder, degrees)
        table = recorder.export_table().to_dict()
        next(row for row in table["labels"] if row["id"] == "0@1/5")["d"] = 0.0
        path = tmp_path / "zero_d.json"
        path.write_text(json.dumps(table))
        with np.errstate(divide="ignore"):
            code = main(["validate", "--data", str(path), "--degrees", "1/5,2/5,1/7"])
        report = strict_json(capsys.readouterr().out)
        assert code == 1
        assert report["passed"] is False and report["max_residual"] is None
        ortho = next(c for c in report["checks"] if c["name"] == "orthogonality")
        assert ortho["passed"] is False and ortho["residual"] is None

    def test_nan_check_residual_fails_as_null(self, capsys, monkeypatch):
        # a NaN after a finite value used to lose to it in `max`, and pass
        original = LinearOperator.norm
        calls = []

        def norm(self):
            calls.append(self)
            return math.nan if len(calls) == 2 else original(self)

        monkeypatch.setattr(LinearOperator, "norm", norm)
        code = main([
            "check", "--family", "P:2:1", "--surface", "torus:grid:2",
            "--holonomy", "1/7,2/7", "--strict-fusion",
        ])
        captured = capsys.readouterr()
        report = strict_json(captured.out)
        row = next(r for r in report["rows"] if r["name"] == "projector_idempotency")
        assert code == 1 and report["passed"] is False
        assert row == {"name": "projector_idempotency", "residual": None, "passed": False}
        assert "projector_idempotency        FAIL  residual inf" in captured.err


class TestPlumbing:
    def test_reports_are_reproducible(self, capsys):
        args = (
            "check", "--family", "F:2:1:2",
            "--surface", "torus:theta", "--holonomy", "1/5,2/5", "--seed", "3",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert json.dumps(first) == json.dumps(second)
        assert first["config"]["seed"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "--family", "P:2:1", "--degrees", "1/5,2/5"),
            ("ground-dim", "--family", "P:2:1", "--surface", "torus:theta",
             "--holonomy", "1/5,2/5"),
            ("spectrum", "--family", "P:2:1", "--surface", "torus:theta",
             "--holonomy", "1/5,2/5"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_only_on_check(self, argv):
        # only check has randomized rows; elsewhere a seed would do nothing
        with pytest.raises(SystemExit) as info:
            main(list(argv) + ["--seed", "3"])
        assert info.value.code == 2

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

    def test_out_unwritable_exits_two_before_work(self, capsys, monkeypatch, tmp_path):
        def built(self, *args, **kwargs):
            raise AssertionError("model built")

        monkeypatch.setattr(StringNetModel, "__init__", built)
        out = tmp_path / "missing" / "report.json"
        code, report, err = run(
            capsys, "ground-dim", "--family", "P:2:1", *THETA, "--out", str(out),
        )
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and str(out) in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("cap", ["0", "-4"])
    @pytest.mark.parametrize("command", ["ground-dim", "spectrum", "check"])
    def test_dim_cap_below_one_exits_two(self, capsys, command, cap):
        with pytest.raises(SystemExit) as info:
            main([command, "--family", "P:2:1", *THETA, "--dim-cap", cap])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert f"argument --dim-cap: dim cap must be an integer >= 1, got '{cap}'" in captured.err

    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_seed_not_a_natural_number_exits_two_before_work(self, capsys, monkeypatch, seed):
        def built(self, *args, **kwargs):
            raise AssertionError("model built")

        monkeypatch.setattr(StringNetModel, "__init__", built)
        with pytest.raises(SystemExit) as info:
            main(["check", "--family", "P:2:1", *THETA, "--seed", seed])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert f"argument --seed: seed must be an integer >= 0, got '{seed}'" in captured.err

    def test_options_are_run_config_fields(self):
        # `_resolve` fills RunConfig by option dest, so a renamed flag or
        # field must show up here rather than as a silently dropped value
        commands = next(
            a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        dests = {
            action.dest
            for sub in commands.choices.values()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert dests == {f.name for f in dataclasses.fields(RunConfig)} - {"command"}

    @pytest.mark.parametrize(
        "source, field",
        [
            (("--family", "P:2:nan"), "parameter c"),
            (("--family", "P:2:inf"), "parameter c"),
            (("--family", "F:2:1:nan"), "gamma0"),
            ({"family": "P", "N": 2.5, "c": 1}, "size N"),
            ({"family": "P", "N": True, "c": 1}, "size N"),
            ({"family": "P", "N": 2, "c": "2"}, "parameter c"),
            ({"family": "F", "N": 2, "c": 1, "gamma0": "2"}, "gamma0"),
            ({"family": "P", "N": 2, "c": True}, "parameter c"),
        ],
        ids=["nan-c", "inf-c", "nan-gamma0", "float-N", "bool-N", "string-c",
             "string-gamma0", "bool-c"],
    )
    @pytest.mark.parametrize(
        "command",
        [("validate", "--degrees", "1/5,2/5"), ("ground-dim", *THETA)],
        ids=lambda command: command[0],
    )
    def test_bad_family_parameter_exits_two(self, capsys, tmp_path, command, source, field):
        # a NaN c used to fail six axioms with inf residuals, an infinite one
        # to call eta singular, and a float N to run as its integer part
        if isinstance(source, dict):
            path = tmp_path / "family.json"
            path.write_text(json.dumps(source))
            source = ("--data", str(path))
        code, report, err = run(capsys, command[0], *source, *command[1:])
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("to_file", [False, True])
    def test_memory_error_exits_one(self, capsys, monkeypatch, tmp_path, to_file):
        # numpy refuses a 1.42 PiB array at once, without allocating it
        def ground_projector(self):
            return np.zeros((10**7, 10**7), complex)

        monkeypatch.setattr(StringNetModel, "ground_projector", ground_projector)
        out = tmp_path / "report.json"
        code = main(["ground-dim", "--family", "P:2:1", *THETA, *(["--out", str(out)] * to_file)])
        captured = capsys.readouterr()
        report = json.loads(out.read_text() if to_file else captured.out)
        assert code == 1
        assert report["error"].startswith("Unable to allocate")
        assert "ground_dim" not in report
        assert captured.err.startswith("error: Unable to allocate")

    def test_config_embedded(self, capsys):
        _, report, _ = run(
            capsys, "spectrum", "--family", "P:2:1",
            "--surface", "torus:theta", "--holonomy", "1/5,2/5", "--tol", "1e-8",
        )
        assert report["version"]
        assert report["config"]["family"] == "P:2:1"
        assert report["config"]["tol"] == 1e-8
        assert report["config"]["holonomy"] == ["1/5", "2/5"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "--family", "P:2:1", "--degrees", "1/5,2/5"),
            ("ground-dim", "--family", "P:2:1", *THETA),
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_not_finite_or_negative_exits_two(self, capsys, argv, tol):
        # a NaN or infinite tolerance would pass every finite residual
        with pytest.raises(SystemExit) as info:
            main([*argv, "--tol", tol])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert f"argument --tol: tolerance must be a finite number >= 0, got '{tol}'" in captured.err

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["ground-dim", "--family", "P:2:1", "--surface", "torus:theta"])
        assert info.value.code == 2

    def test_module_entry_point(self, capsys, tmp_path):
        # the process entry prints what in-process `main` prints, and its
        # collector freeze stays out of `main`
        child_env = {**os.environ, "PYTHONPATH": _child_path()}
        out = tmp_path / "report.json"
        for argv in (
            ["validate", "--family", "P:2:1", "--degrees", "1/5,2/5"],
            ["ground-dim", "--family", "P:2:1", *THETA],
            ["spectrum", "--family", "M:2:1", *THETA],
            ["ground-dim", "--family", "P:2:1", *THETA, "--out", str(out)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "rlw.cli", *argv], capture_output=True, env=child_env,
            )
            written = out.read_bytes() if "--out" in argv else None
            frozen = gc.get_freeze_count()
            code = main(argv)
            assert gc.get_freeze_count() == frozen
            assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out.encode())
            if written is not None:
                assert written == out.read_bytes()
        assert json.loads(written)["ground_dim"] == 4
        assert "ground dimension" in proc.stderr.decode()

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (("validate", "--family", "P:2:1", "--degrees", "1/5,2/5"), {"rlw.axioms"}),
            (("ground-dim", "--family", "P:2:1", *THETA), {"rlw.operators"}),
            (("ground-dim", "--data", "{table}", *THETA), {"rlw.operators", "rlw.tables"}),
            (("check", "--family", "P:2:1", *THETA), {"rlw.axioms", "rlw.operators"}),
            (("spectrum", "--family", "P:2:1", *THETA), {"rlw.operators"}),
        ],
        ids=["validate", "ground-dim", "ground-dim-table", "check", "spectrum"],
    )
    def test_timer_sees_only_the_command(self, tmp_path, argv, modules):
        # each command's modules load before `main` starts its timer, so the
        # elapsed time a report gives (and the launch cost outside it) does
        # not depend on what an earlier command in the process imported
        table = tmp_path / "p21.json"
        if "{table}" in argv:
            theta_recording("P:2:1", table)
        script = (
            "import contextlib, io, json, sys\n"
            "import rlw.cli as cli\n"
            "inside = []\n"
            "def watch(command):\n"
            "    def timed(config, data):\n"
            "        before = set(sys.modules)\n"
            "        try:\n"
            "            return command(config, data)\n"
            "        finally:\n"
            "            inside.extend(m for m in set(sys.modules) - before if m.startswith('rlw.'))\n"
            "    return timed\n"
            "cli._COMMANDS = {n: (watch(c), m) for n, (c, m) in cli._COMMANDS.items()}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "loaded = [m for m in sys.modules if m.startswith('rlw.')]\n"
            "print(json.dumps([code, sorted(inside), loaded]))\n"
        )
        args = [a.format(table=table) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": _child_path()},
        )
        assert proc.returncode == 0, proc.stderr
        code, inside, loaded = json.loads(proc.stdout)
        assert code == 0
        assert inside == []
        wanted = {"rlw.axioms", "rlw.operators", "rlw.tables"}
        assert wanted & set(loaded) == modules

    def test_import_leaves_scipy_out(self):
        # importing scipy costs every launch about 0.3 s; `import rlw` loads
        # no submodule, and a launch compiles its modules from source when no
        # bytecode is cached, so `rlw.cli` leaves out the validator, the table
        # providers and the surface commands' operators and states
        script = (
            "import json, sys\n"
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('rlw.'))\n"
            "import rlw\n"
            "bare = loaded()\n"
            "import rlw.data\n"
            "data = loaded()\n"
            "import rlw.cli\n"
            "cli = loaded()\n"
            "from rlw.data import TableData, RecordingData\n"
            "import rlw.tables\n"
            "same = (TableData, RecordingData) == (rlw.tables.TableData, rlw.tables.RecordingData)\n"
            "print(json.dumps([bare, data, cli, same, 'scipy' in sys.modules]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": _child_path()},
        )
        assert proc.returncode == 0, proc.stderr
        bare, data, cli, same, scipy = json.loads(proc.stdout)
        assert bare == [] and not scipy
        assert "rlw.data" in data and "rlw.tables" not in data
        assert "rlw.cli" in cli
        assert not {"rlw.axioms", "rlw.tables", "rlw.operators", "rlw.states"} & set(cli)
        assert same
        assert rlw.TableData is rlw.data.TableData and rlw.RecordingData is rlw.data.RecordingData
        with pytest.raises(AttributeError):
            getattr(rlw.data, "no_such_name")
        namespace = {}
        exec("from rlw import *", namespace)
        assert all(namespace[name] is getattr(rlw, name) for name in rlw.__all__)
        with pytest.raises(AttributeError):
            getattr(rlw, "no_such_name")

