"""Axiom validator: self-oracle families, corruption detection, reports."""

import copy
import json
from fractions import Fraction

import pytest

from rlw import BuiltinFamily, QMODZ, RecordingData, TableData
from rlw.errors import DomainError
from rlw.group import GroupSignature, SingularSet, _Factor
from rlw.validate import validate
from multiplicity import ForcedMultiplicity

CHECK_ORDER = [
    "dual_involution",
    "scalar_reality_duality",
    "delta_symmetry",
    "b_recursion",
    "gamma_beta_normalization",
    "sixj_support",
    "tetrahedral_symmetry",
    "pentagon",
    "orthogonality",
    "conjugation",
]


def q(value):
    return QMODZ.element(Fraction(value))


def samples(*values):
    return [q(v) for v in values]


FAMILIES = {
    "P21": BuiltinFamily("P", 2, 1.0),
    "M21": BuiltinFamily("M", 2, 1.0),
    "F212": BuiltinFamily("F", 2, 1.0, 2.0),
}


def recorded_table(family, degrees):
    recorder = RecordingData(family)
    validate(recorder, degrees)
    return recorder.export_table().to_dict()


class TestSelfOracle:
    @pytest.mark.parametrize(
        "family",
        [
            BuiltinFamily("P", 2, 1.0),
            BuiltinFamily("P", 3, 2.0),
            BuiltinFamily("M", 2, 1.0),
            BuiltinFamily("F", 2, 1.0, 2.0),
        ],
        ids=["P21", "P32", "M21", "F212"],
    )
    def test_families_pass_exactly(self, family):
        report = validate(family, samples("1/5", "2/5"))
        assert report.passed
        assert report.max_residual == 0.0
        assert [c.name for c in report.checks] == CHECK_ORDER

    def test_closure_under_negation(self):
        report = validate(BuiltinFamily("P", 2, 1.0), samples("1/5", "2/5"))
        assert {str(g) for g in report.degrees} == {"1/5", "4/5", "2/5", "3/5"}

    def test_every_check_exercised(self):
        report = validate(BuiltinFamily("P", 2, 1.0), samples("1/5", "2/5"))
        assert all(c.checked > 0 for c in report.checks)

    def test_tuple_counts(self):
        # interning must neither drop nor duplicate a tuple
        report = validate(BuiltinFamily("P", 3, 2.0), samples("1/7", "2/5", "1/13"))
        checked = [c.checked for c in report.checks]
        assert checked == [18, 18, 216, 30, 30, 150, 300, 726, 150, 150]
        assert sum(checked) == 1788


class ForcedWithPlantedSlot(ForcedMultiplicity):
    """Forced multiplicity with one nonzero 6j entry planted at a
    branching coordinate of one block, outside the delta support."""

    def __init__(self, base, degrees, entry):
        super().__init__(base)
        self.degrees = tuple(degrees)
        self.entry = entry

    def sixj_block(self, degs):
        block = super().sixj_block(degs)
        if tuple(degs) == self.degrees:
            block[self.entry] = 0.5
        return block


class TestMultiplicity:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_forced_multiplicity_passes_exactly(self, name):
        # every check on size-2 branching axes
        report = validate(ForcedMultiplicity(FAMILIES[name]), samples("1/5", "2/5"))
        assert report.passed
        assert report.max_residual == 0.0
        assert [c.name for c in report.checks] == CHECK_ORDER
        assert all(c.checked > 0 for c in report.checks)

    def test_slot_two_entry_fails_support(self):
        # the first sextuple walked over the closure {1/5, 2/5, 3/5, 4/5}
        degrees = samples("1/5", "1/5", "2/5", "1/5", "3/5", "2/5")
        entry = (1, 1, 0, 1, 1, 0) + (0, 1, 0, 0)  # branching index a2 = 2
        data = ForcedWithPlantedSlot(FAMILIES["P21"], degrees, entry)
        report = validate(data, samples("1/5", "2/5"))
        support = next(c for c in report.checks if c.name == "sixj_support")
        assert not support.passed
        assert support.residual == 0.5
        assert support.witness == {
            "degrees": [str(g) for g in degrees],
            "entry": list(entry),
        }


class TestCorruption:
    def test_pentagon_rejects_positive_sixj(self):
        # with d = -1 the pentagon forces a negative 6j value
        table = recorded_table(BuiltinFamily("M", 2, 1.0), samples("1/5", "2/5"))
        for entry in table["sixj"]:
            if entry["re"]:
                entry["re"] = 1.0
        report = validate(TableData.from_dict(table), samples("1/5", "2/5"))
        pentagon = next(c for c in report.checks if c.name == "pentagon")
        assert not pentagon.passed
        assert pentagon.witness is not None
        assert "degrees" in pentagon.witness
        # witness degrees name the closure or sums of its elements
        closure = report.degrees
        names = {str(g) for g in closure} | {str(g + h) for g in closure for h in closure}
        assert pentagon.witness["degrees"]
        assert set(pentagon.witness["degrees"]) <= names

    def test_dihedral_violation_detected(self):
        table = recorded_table(BuiltinFamily("P", 3, 2.0), samples("1/5", "2/5"))
        entry = next(e for e in table["delta"] if e["value"] == 1)
        entry["value"] = 0
        report = validate(TableData.from_dict(table), samples("1/5", "2/5"))
        symmetry = next(c for c in report.checks if c.name == "delta_symmetry")
        assert not symmetry.passed
        assert symmetry.witness["law"] in ("cyclic", "dual reversal")

    def test_single_sixj_entry_flagged(self):
        table = recorded_table(BuiltinFamily("P", 3, 2.0), samples("1/5", "2/5"))
        table["sixj"][0]["re"] = 1.0
        report = validate(TableData.from_dict(table), samples("1/5", "2/5"))
        failed = {c.name for c in report.checks if not c.passed}
        assert "pentagon" in failed


class TestIncompleteness:
    def test_missing_degrees_noted_not_failed(self):
        table = recorded_table(BuiltinFamily("P", 3, 2.0), samples("1/5", "2/5"))
        report = validate(
            TableData.from_dict(table), samples("1/5", "2/5", "1/7")
        )
        assert report.passed
        noted = [c for c in report.checks if c.notes]
        assert noted
        assert any("1/7" in note for c in noted for note in c.notes)


class TestPreconditions:
    def test_singular_sample_rejected(self):
        with pytest.raises(DomainError):
            validate(BuiltinFamily("P", 2, 1.0), samples("1/2"))

    def test_empty_samples_rejected(self):
        with pytest.raises(DomainError):
            validate(BuiltinFamily("P", 2, 1.0), [])

    def test_singular_set_must_be_small(self):
        signature = GroupSignature([_Factor("Zmod", 6)])
        table = TableData(signature, SingularSet.torsion_dividing(2), [], {}, {}, {})
        with pytest.raises(DomainError):
            validate(table, [signature.element(Fraction(1))])


class TestReport:
    def test_deterministic(self):
        fam = BuiltinFamily("F", 2, 1.0, 2.0)
        first = validate(fam, samples("1/5", "2/5")).to_dict()
        second = validate(fam, samples("1/5", "2/5")).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_json_serializable(self):
        report = validate(BuiltinFamily("P", 2, 1.0), samples("1/5", "2/5"))
        text = json.dumps(report.to_dict())
        parsed = json.loads(text)
        assert parsed["passed"] is True
        assert len(parsed["checks"]) == 10

    def test_tuple_cap_strides(self):
        fam = BuiltinFamily("P", 2, 1.0)
        full = validate(fam, samples("1/5", "2/5"))
        capped = validate(fam, samples("1/5", "2/5"), max_tuples=50)
        pent_full = next(c for c in full.checks if c.name == "pentagon")
        pent_capped = next(c for c in capped.checks if c.name == "pentagon")
        assert 0 < pent_capped.checked < pent_full.checked
        assert capped.passed
