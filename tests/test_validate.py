"""Axiom validator: self-oracle families, corruption detection, reports."""

import copy
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from rlw import BuiltinFamily, QMODZ, RecordingData, TableData
from rlw.errors import DomainError
from rlw.group import GroupSignature, SingularSet, _Factor
from rlw.axioms import _Runner, _Slice, _check_pentagon, validate
from multiplicity import DoubledMultiplicity, ForcedMultiplicity
from reference_checks import closure, dense_pentagon, reference_report

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


class NaNSixj(BuiltinFamily):
    """A builtin family whose 6j block at one degree sextuple holds a NaN
    at its first nonzero entry."""

    def __init__(self, degrees):
        super().__init__("P", 2, 1.0)
        self.degrees = tuple(degrees)

    def sixj_block(self, degs):
        block = super().sixj_block(degs)
        if tuple(degs) == self.degrees:
            block = block.copy()
            block[tuple(np.argwhere(block)[0])] = np.nan
        return block


class TestNonFinite:
    def test_nan_sixj_fails_the_pentagon(self):
        # the first sextuple the pentagon reads over {1/5, 2/5, 3/5, 4/5}
        data = NaNSixj(samples("1/5", "1/5", "2/5", "1/5", "3/5", "2/5"))
        report = validate(data, samples("1/5", "2/5"))
        pentagon = next(c for c in report.checks if c.name == "pentagon")
        assert not pentagon.passed
        assert pentagon.residual == math.inf
        assert pentagon.witness["degrees"] == ["1/5"] * 4
        assert not report.passed

    def test_non_finite_residual_written_as_null(self):
        data = NaNSixj(samples("1/5", "1/5", "2/5", "1/5", "3/5", "2/5"))
        report = validate(data, samples("1/5", "2/5")).to_dict()
        json.dumps(report, allow_nan=False)  # strict JSON: no Infinity, no NaN
        pentagon = next(c for c in report["checks"] if c["name"] == "pentagon")
        assert pentagon["residual"] is None and not pentagon["passed"]
        assert report["max_residual"] is None and not report["passed"]

    def test_nan_residual_is_a_failure(self):
        run = _Runner("check", 1e-9)
        run.record(float("nan"), lambda: {"at": 1})
        run.record(0.0, lambda: {"at": 2})
        result = run.result()
        assert not result.passed
        assert result.residual == math.inf
        assert result.witness == {"at": 1}
        assert result.checked == 2


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

    def test_missing_notes_and_counts_pinned(self):
        # a stride over a closure whose 1/7 and 6/7 the table lacks
        table = recorded_table(BuiltinFamily("P", 3, 2.0), samples("1/5", "2/5"))
        report = validate(
            TableData.from_dict(table), samples("1/5", "2/5", "1/7"), max_tuples=50
        )
        up, down = "degree 1/7 not tabulated", "degree 6/7 not tabulated"
        pinned = [
            ("dual_involution", 12, [up, down], 2),
            ("scalar_reality_duality", 12, [up, down], 2),
            ("delta_symmetry", 19, [down, up], 31),
            (
                "b_recursion", 12,
                [f"degree {g} not tabulated" for g in ("12/35", "2/35", "2/7", "19/35")],
                18,
            ),
            ("gamma_beta_normalization", 12, [up, down], 18),
            ("sixj_support", 3, [down, up], 19),
            ("tetrahedral_symmetry", 6, [down, up], 19),
            ("pentagon", 4, [up, down], 19),
            ("orthogonality", 3, [down, up], 19),
            ("conjugation", 3, [down, up], 19),
        ]
        assert [c.to_dict() for c in report.checks] == [
            {
                "name": name,
                "passed": True,
                "residual": 0.0,
                "checked": checked,
                "witness": None,
                "notes": notes + [f"{skipped} tuple(s) skipped for missing table entries"],
            }
            for name, checked, notes, skipped in pinned
        ]


# -- golden failure reports: one corruption per check, its whole result -------


class SkewedDual(BuiltinFamily):
    """P(3,2) whose dual maps (g, a) to (-g, a+1): not an involution."""

    def __init__(self):
        super().__init__("P", 3, 2.0)

    def dual(self, label):
        return self.labels(-label.degree)[(self._apart(label) + 1) % self.N]


class DualOfOwnDegree(BuiltinFamily):
    """P(3,2) whose dual of a label is the label itself, of degree g, not -g."""

    def __init__(self):
        super().__init__("P", 3, 2.0)

    def dual(self, label):
        return label


def edited_table(edit):
    """A recorded P(3,2) table at 1/5, 2/5 after `edit` changes its rows."""

    def make():
        table = recorded_table(BuiltinFamily("P", 3, 2.0), samples("1/5", "2/5"))
        edit(table)
        return TableData.from_dict(table)

    return make


def set_label(field, value):
    def edit(table):
        next(row for row in table["labels"] if row["id"] == "1@1/5")[field] = value

    return edit


def drop_first_delta(table):
    next(row for row in table["delta"] if row["value"] == 1)["value"] = 0


def plant_off_support(table):
    labels = ["0@1/5", "0@1/5", "0@2/5", "0@1/5", "0@3/5", "1@2/5"]
    table["sixj"].append({"j": labels, "a": [1, 1, 1, 1], "re": 0.5, "im": 0.0})


SEXTUPLE = ["1/5", "1/5", "2/5", "1/5", "3/5", "2/5"]
GOLDEN = [
    (SkewedDual, {
        "name": "dual_involution", "passed": False, "residual": 1.0, "checked": 12,
        "witness": {"degree": "1/5", "label": "0@1/5"}, "notes": [],
    }),
    (edited_table(set_label("d", 3.0)), {
        "name": "scalar_reality_duality", "passed": False, "residual": 1.0, "checked": 12,
        "witness": {"degree": "1/5", "scalar": "d", "label": "1@1/5"}, "notes": [],
    }),
    (edited_table(drop_first_delta), {
        "name": "delta_symmetry", "passed": False, "residual": 1.0, "checked": 76,
        "witness": {"degrees": ["1/5", "1/5", "3/5"], "law": "cyclic", "entry": [0, 0, 0]},
        "notes": [],
    }),
    (edited_table(set_label("b", 0.5)), {
        "name": "b_recursion", "passed": False, "residual": 0.16666666666666669,
        "checked": 12, "witness": {"degrees": ["2/5", "4/5"], "label": "1@1/5"}, "notes": [],
    }),
    (edited_table(lambda table: table["gamma"][3].update(value=2.0)), {
        "name": "gamma_beta_normalization", "passed": False, "residual": 1.0, "checked": 12,
        "witness": {"degrees": ["1/5", "1/5", "3/5"], "entry": [0, 1, 2, 0]}, "notes": [],
    }),
    (edited_table(plant_off_support), {
        "name": "sixj_support", "passed": False, "residual": 0.5, "checked": 24,
        "witness": {"degrees": SEXTUPLE, "entry": [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]},
        "notes": [],
    }),
    (edited_table(lambda table: table["sixj"][3].update(im=0.25)), {
        "name": "tetrahedral_symmetry", "passed": False, "residual": 0.25, "checked": 48,
        "witness": {
            "degrees": ["1/5", "1/5", "2/5", "2/5", "4/5", "3/5"],
            "law": "rotation",
            "entry": [0, 0, 0, 1, 1, 1, 0, 0, 0, 0],
        },
        "notes": [],
    }),
    (edited_table(set_label("d", 3.0)), {
        "name": "pentagon", "passed": False, "residual": 0.125, "checked": 24,
        "witness": {
            "degrees": ["1/5", "2/5", "4/5", "2/5"],
            "entry": [0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        },
        "notes": [],
    }),
    (edited_table(set_label("d", 3.0)), {
        "name": "orthogonality", "passed": False, "residual": 0.4166666666666667,
        "checked": 24,
        "witness": {"degrees": ["2/5", "4/5", "2/5"], "entry": [0, 1, 1, 0, 1, 1, 0, 0, 0, 0]},
        "notes": [],
    }),
    (edited_table(set_label("beta", 2.0)), {
        "name": "conjugation", "passed": False, "residual": 3.5, "checked": 24,
        "witness": {"degrees": SEXTUPLE, "entry": [1, 1, 2, 1, 0, 2, 0, 0, 0, 0]},
        "notes": [],
    }),
]


class TestFailureReports:
    @pytest.mark.parametrize(
        "make, expected", GOLDEN, ids=[expected["name"] for _, expected in GOLDEN]
    )
    def test_whole_result(self, make, expected):
        report = validate(make(), samples("1/5", "2/5"))
        assert not report.passed
        assert report.checks[CHECK_ORDER.index(expected["name"])].to_dict() == expected

    def test_every_check_has_one(self):
        assert [expected["name"] for _, expected in GOLDEN] == CHECK_ORDER

    def test_dual_of_another_degree(self):
        # dual_involution names the label; the checks that read the dual
        # permutation cannot index such a dual and skip with a note
        report = validate(DualOfOwnDegree(), samples("1/5", "2/5"))
        checks = {c.name: c.to_dict() for c in report.checks}
        assert checks["dual_involution"] == {
            "name": "dual_involution", "passed": False, "residual": 1.0, "checked": 12,
            "witness": {"degree": "1/5", "label": "0@1/5"}, "notes": [],
        }
        scalars = checks["scalar_reality_duality"]
        assert scalars["checked"] == 0
        assert scalars["notes"][0] == "dual label '0@1/5' not found at degree 4/5"
        assert scalars["notes"][-1] == "4 tuple(s) skipped for missing table entries"
        assert checks["pentagon"]["checked"] == 24  # reads no dual


class TestPreconditions:
    def test_singular_sample_rejected(self):
        with pytest.raises(DomainError):
            validate(BuiltinFamily("P", 2, 1.0), samples("1/2"))

    def test_empty_samples_rejected(self):
        with pytest.raises(DomainError):
            validate(BuiltinFamily("P", 2, 1.0), [])

    def test_max_tuples_below_one_rejected(self):
        with pytest.raises(DomainError, match="^max_tuples must be at least 1, got 0$"):
            validate(BuiltinFamily("P", 2, 1.0), samples("1/5"), max_tuples=0)

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

    def test_module_is_not_shadowed(self):
        import rlw
        import rlw.axioms as ax

        assert hasattr(ax, "_CHECKS") and hasattr(ax, "_run")
        assert rlw.validate is ax.validate


# -- the dense pentagon oracle ---------------------------------------------------


def pentagons(data, values, max_tuples=4096):
    """The sparse and the dense pentagon over the closure of the samples,
    each through its own `_Slice` of `data.blocks`."""
    return [
        check(_Slice(data, closure(samples(*values)), max_tuples), 1e-9).to_dict()
        for check in (_check_pentagon, dense_pentagon)
    ]


AXIOM_STYLE = ("1/7", "2/5", "1/13")  # three prime denominators, as bench draws
ORACLE_FAMILIES = {**FAMILIES, "P32": BuiltinFamily("P", 3, 2.0)}


class TestPentagonOracle:
    @pytest.mark.parametrize(
        "values", [("1/5", "2/5"), AXIOM_STYLE], ids=["5", "7-5-13"]
    )
    @pytest.mark.parametrize("name", ORACLE_FAMILIES)
    def test_builtin_matches_dense(self, name, values):
        sparse, dense = pentagons(ORACLE_FAMILIES[name], values)
        assert sparse == dense
        assert sparse["passed"] and sparse["checked"] > 0

    @pytest.mark.parametrize("name", FAMILIES)
    def test_forced_multiplicity_matches_dense(self, name):
        sparse, dense = pentagons(ForcedMultiplicity(FAMILIES[name]), ("1/5", "2/5"))
        assert sparse == dense

    def test_stride_and_missing_degrees_match_dense(self):
        table = TableData.from_dict(
            recorded_table(BuiltinFamily("P", 3, 2.0), samples("1/5", "2/5"))
        )
        for values, cap in ((("1/5", "2/5"), 50), (("1/5", "2/5", "1/7"), 4096)):
            sparse, dense = pentagons(table, values, cap)
            assert sparse == dense
        assert sparse["notes"]

    def test_perturbed_table_matches_dense(self):
        table = recorded_table(BuiltinFamily("P", 3, 2.0), samples("1/5", "2/5"))
        table["sixj"][5]["re"] *= 1.1  # not a dyadic change: rounding shows
        table["sixj"][7]["im"] = 0.3
        sparse, dense = pentagons(TableData.from_dict(table), ("1/5", "2/5"))
        assert sparse == dense
        assert not sparse["passed"]

    def test_off_support_entry_matches_dense(self):
        # stored entries count wherever they sit: blocks are read unmasked
        table = recorded_table(FAMILIES["P21"], samples("1/5", "2/5"))
        labels = ["0@1/5", "0@1/5", "0@2/5", "0@1/5", "0@3/5", "1@2/5"]
        table["sixj"].append({"j": labels, "a": [1, 1, 1, 1], "re": 0.5, "im": 0.0})
        sparse, dense = pentagons(TableData.from_dict(table), ("1/5", "2/5"))
        assert sparse == dense
        assert sparse["residual"] == 0.5

    def test_real_multiplicity_matches_dense(self):
        # several terms per output entry: summation order may differ
        sparse, dense = pentagons(DoubledMultiplicity(FAMILIES["P21"]), ("1/5", "2/5"))
        assert not dense["passed"]
        assert sparse["residual"] == pytest.approx(dense["residual"], rel=1e-12)
        assert sparse["witness"]["degrees"] == dense["witness"]["degrees"]
        assert sparse["checked"] == dense["checked"]


# -- the memoizing driver against the tuple-by-tuple evaluators ------------------


def perturbed_table():
    """A recorded P(3,2) table whose every 6j entry is moved by its own
    amount, so that no two 6j blocks are equal."""
    table = recorded_table(BuiltinFamily("P", 3, 2.0), samples("1/5", "2/5"))
    for k, row in enumerate(table["sixj"]):
        row["re"] += 1e-3 * (k + 1)
    return TableData.from_dict(table)


# (data factory, sample degrees, max_tuples); tables are built in the test
ORACLE_CASES = [
    *(
        pytest.param(lambda name=name: ORACLE_FAMILIES[name], values, 4096,
                     id=f"{name}-{key}")
        for name in ORACLE_FAMILIES
        for key, values in (("5", ("1/5", "2/5")), ("7-5-13", AXIOM_STYLE))
    ),
    *(
        pytest.param(lambda name=name: ForcedMultiplicity(FAMILIES[name]),
                     ("1/5", "2/5"), 4096, id=f"forced-{name}")
        for name in FAMILIES
    ),
    pytest.param(edited_table(lambda table: None), ("1/5", "2/5"), 4096, id="table"),
    pytest.param(perturbed_table, ("1/5", "2/5"), 4096, id="table-no-repeats"),
    pytest.param(SkewedDual, ("1/5", "2/5"), 4096, id="skewed-dual"),
    pytest.param(DualOfOwnDegree, ("1/5", "2/5"), 4096, id="dual-own-degree"),
    # one scalar off: equal 6j blocks read with unequal scalar operands
    pytest.param(edited_table(set_label("d", 3.0)), ("1/5", "2/5"), 4096, id="table-d"),
    pytest.param(edited_table(set_label("beta", 2.0)), ("1/5", "2/5"), 4096,
                 id="table-beta"),
    pytest.param(edited_table(lambda table: None), ("1/5", "2/5", "1/7"), 50,
                 id="table-missing-stride"),
]


class TestMemoizingDriver:
    @pytest.mark.parametrize("make, values, cap", ORACLE_CASES)
    def test_report_matches_per_tuple_evaluators(self, make, values, cap):
        data = make()
        report = validate(data, samples(*values), max_tuples=cap)
        assert [c.to_dict() for c in report.checks] == reference_report(
            data, samples(*values), max_tuples=cap
        )

    def test_sextuple_laws_run_once(self, monkeypatch):
        # with builtin data every sextuple reads the same interned operands
        module = sys.modules["rlw.axioms"]
        run, evaluated = module._run, {}

        def counting(name, tol, items, operands, law, witness):
            def counted(*ops):
                evaluated[name] = evaluated.get(name, 0) + 1
                return law(*ops)

            return run(name, tol, items, operands, counted, witness)

        monkeypatch.setattr(module, "_run", counting)
        report = validate(ORACLE_FAMILIES["P32"], samples(*AXIOM_STYLE))
        checked = {c.name: c.checked for c in report.checks}
        for name in ("sixj_support", "tetrahedral_symmetry", "orthogonality", "conjugation"):
            assert checked[name] >= 150
            assert evaluated[name] == 1
        assert sum(evaluated.values()) < sum(checked.values()) / 100
