"""State-space enumeration, eta weights, and indefinite adjoints."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from rlw import (
    BuiltinFamily,
    DataFormatError,
    DimensionCapError,
    MissingDataError,
    QMODZ,
    RecordingData,
    TableData,
    build_genus,
    build_torus,
    coloring_from_holonomy,
)
from rlw import states
from rlw.states import LinearOperator, StateSpace
from test_operators import ForcedMultiplicity


def q(value):
    return QMODZ.element(Fraction(value))


@pytest.fixture
def theta_coloring():
    return coloring_from_holonomy(build_torus("theta"), (q("1/5"), q("2/5")))


def inward_labels(data, coloring, labeling):
    """Per vertex, the labels carried toward it in rotation order from
    its least dart; the label of an edge is read along its even dart."""
    labs = [data.labels(g)[x] for g, x in zip(coloring.values, labeling)]
    graph = coloring.graph
    return [
        [
            data.dual(labs[h // 2]) if h % 2 == 0 else labs[h // 2]
            for h in graph.canonical_vertex_triple(v)
        ]
        for v in range(graph.num_vertices)
    ]


def reference_space(data, coloring, strict=False):
    """Brute-force enumeration with pointwise delta, dual and gamma:
    (label_array, slot_array, eta), labelings and then slots in
    lexicographic order, eta = (prod over edges of d/beta) / (prod over
    vertices of gamma at the slot), multiplied in edge and vertex order."""
    nv = coloring.graph.num_vertices
    counts = [len(data.labels(g)) for g in coloring.values]
    labels, slots, eta = [], [], []
    for labeling in itertools.product(*map(range, counts)):
        inward = inward_labels(data, coloring, labeling)
        deltas = [data.delta(*triple) for triple in inward]
        if strict and min(deltas) < 1:
            continue
        weight = 1.0
        for g, x in zip(coloring.values, labeling):
            lab = data.labels(g)[x]
            weight *= lab.d / lab.beta
        ranges = [range(1 if strict else 0, d + 1) for d in deltas]
        for slot in itertools.product(*ranges):
            fused = 1.0
            for triple, n in zip(inward, slot):
                if n:
                    fused *= data.gamma(*triple, n)
            labels.append(labeling)
            slots.append(slot)
            eta.append(weight / fused)
    return (
        np.array(labels, dtype=np.intp).reshape(-1, len(counts)),
        np.array(slots, dtype=np.intp).reshape(-1, nv),
        np.array(eta, dtype=float),
    )


def _recorded_f212_table(coloring):
    rec = RecordingData(BuiltinFamily("F", 2, 1.0, 2.0))
    StateSpace(rec, coloring)
    return rec.export_table().to_dict()


def _oracle_cases():
    theta = coloring_from_holonomy(build_torus("theta"), (q("1/5"), q("2/5")))
    grid = coloring_from_holonomy(build_torus("grid", 2), (q("1/7"), q("2/7")))
    genus = coloring_from_holonomy(
        build_genus(2), (q("1/5"), q("2/5"), q("1/7"), q("3/7"))
    )
    families = {
        "P21": BuiltinFamily("P", 2, 1.0),
        "P32": BuiltinFamily("P", 3, 2.0),
        "M21": BuiltinFamily("M", 2, 1.0),
        "F212": BuiltinFamily("F", 2, 1.0, 2.0),
    }
    cases = {
        f"theta-{name}-{mode}": (fam, theta, mode == "strict")
        for name, fam in families.items()
        for mode in ("inclusive", "strict")
    }
    cases["grid2-P21-strict"] = (families["P21"], grid, True)
    cases["grid2-F212-strict"] = (families["F212"], grid, True)
    cases["genus2-P21-inclusive"] = (families["P21"], genus, False)
    cases["forced-P32-inclusive"] = (ForcedMultiplicity(families["P32"]), theta, False)
    table = TableData.from_dict(_recorded_f212_table(theta))
    cases["table-F212-inclusive"] = (table, theta, False)
    return cases


ORACLE_CASES = _oracle_cases()


class TestEnumeration:
    def test_theta_dimensions(self, theta_coloring):
        # 8 labelings; 4 admissible ones carry 2 slots per vertex
        assert StateSpace(BuiltinFamily("P", 2, 1.0), theta_coloring).dim == 20
        assert StateSpace(BuiltinFamily("P", 3, 2.0), theta_coloring).dim == 54

    def test_theta_strict(self, theta_coloring):
        space = StateSpace(BuiltinFamily("P", 2, 1.0), theta_coloring, strict=True)
        assert space.dim == 4
        assert (space.slot_array == 1).all()
        assert all(
            space.data.delta(*triple) == 1
            for row in space.label_array
            for triple in inward_labels(space.data, theta_coloring, row)
        )

    def test_grid_strict_dimensions(self):
        col = coloring_from_holonomy(build_torus("grid", 2), (q("1/7"), q("2/7")))
        assert StateSpace(BuiltinFamily("P", 2, 1.0), col, strict=True).dim == 32
        assert StateSpace(BuiltinFamily("P", 3, 2.0), col, strict=True).dim == 243

    def test_dim_cap(self):
        col = coloring_from_holonomy(build_torus("grid", 2), (q("1/7"), q("2/7")))
        with pytest.raises(DimensionCapError):
            StateSpace(BuiltinFamily("P", 2, 1.0), col)
        with pytest.raises(DimensionCapError):
            StateSpace(BuiltinFamily("P", 2, 1.0), col, strict=True, dim_cap=31)
        # 3^17 strict states: fails without building the whole frontier
        big = coloring_from_holonomy(build_torus("grid", 4), (q("1/7"), q("2/7")))
        with pytest.raises(DimensionCapError, match="more than 8192 states"):
            StateSpace(BuiltinFamily("P", 3, 1.0), big, strict=True)

    def test_basis_order_deterministic(self, theta_coloring):
        a = StateSpace(BuiltinFamily("P", 2, 1.0), theta_coloring)
        b = StateSpace(BuiltinFamily("P", 2, 1.0), theta_coloring)
        assert np.array_equal(a.label_array, b.label_array)
        assert np.array_equal(a.slot_array, b.slot_array)
        assert a.rows(a.label_array[7:8], a.slot_array[7:8]).tolist() == [7]

    def test_rows(self, theta_coloring):
        space = StateSpace(BuiltinFamily("P", 2, 1.0), theta_coloring, strict=True)
        everything = space.rows(space.label_array, space.slot_array)
        assert np.array_equal(everything, np.arange(space.dim))
        # an inadmissible labeling, an out-of-range slot and label
        labels = space.label_array[[0, 0, 0]]
        slots = space.slot_array[[0, 0, 0]]
        labels[0, 0] = 1 - labels[0, 0]
        slots[1, 0] = 2
        labels[2, 2] = 5
        assert space.rows(labels, slots).tolist() == [-1, -1, -1]

    def test_slot_zero_present_inclusive(self, theta_coloring):
        space = StateSpace(BuiltinFamily("P", 2, 1.0), theta_coloring)
        slots = set(map(tuple, space.slot_array.tolist()))
        assert (0, 0) in slots and (1, 1) in slots

    def test_labels_and_darts(self, theta_coloring):
        # label_array[:, e] indexes labels(Phi(e)), the label read along
        # the even dart of e; the oracle below reads the odd dart as its dual
        fam = BuiltinFamily("P", 2, 1.0)
        space = StateSpace(fam, theta_coloring)
        lab = fam.labels(theta_coloring.values[1])[space.label_array[-1, 1]]
        assert lab.degree == q("2/5")
        for e, g in enumerate(theta_coloring.values):
            assert set(space.label_array[:, e]) == set(range(len(fam.labels(g))))

    def test_strict_needs_multiplicity_one(self, theta_coloring):
        class Fat(BuiltinFamily):
            @property
            def mult_bound(self):
                return 2

        with pytest.raises(DataFormatError):
            StateSpace(Fat("P", 2, 1.0), theta_coloring, strict=True)


class TestOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES, ids=ORACLE_CASES)
    def test_matches_pointwise_enumeration(self, case):
        data, coloring, strict = ORACLE_CASES[case]
        space = StateSpace(data, coloring, strict=strict)
        labels, slots, eta = reference_space(data, coloring, strict)
        assert space.dim == len(eta) > 0
        assert np.array_equal(space.label_array, labels)
        assert np.array_equal(space.slot_array, slots)
        assert np.array_equal(space.eta, eta)

    def test_chunked_growth_keeps_order(self, monkeypatch):
        data, coloring, strict = ORACLE_CASES["genus2-P21-inclusive"]
        whole = StateSpace(data, coloring, strict=strict)
        monkeypatch.setattr(states, "_CHUNK", 5)
        chunked = StateSpace(data, coloring, strict=strict)
        assert np.array_equal(chunked.label_array, whole.label_array)
        assert np.array_equal(chunked.slot_array, whole.slot_array)
        assert np.array_equal(chunked.eta, whole.eta)

    def test_missing_gamma_row_is_reported(self, theta_coloring):
        table = _recorded_f212_table(theta_coloring)
        del table["gamma"][0]
        with pytest.raises(MissingDataError):
            StateSpace(TableData.from_dict(table), theta_coloring)


class TestEta:
    def test_family_f_values(self, theta_coloring):
        # d/beta = 2^(2/3) per edge, gamma = 2 per fused vertex
        space = StateSpace(BuiltinFamily("F", 2, 1.0, 2.0), theta_coloring)
        assert sorted(set(np.round(space.eta, 12))) == [1.0, 2.0, 4.0]

    def test_family_p_trivial(self, theta_coloring):
        space = StateSpace(BuiltinFamily("P", 2, 1.0), theta_coloring)
        assert np.allclose(space.eta, 1.0)

    def test_family_m_signs(self, theta_coloring):
        # d = -1 on every edge, so eta = (-1)^3 on all 20 states
        space = StateSpace(BuiltinFamily("M", 2, 1.0), theta_coloring)
        assert np.allclose(space.eta, -1.0)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_zero_gamma_is_rejected(self, theta_coloring):
        table = _recorded_f212_table(theta_coloring)
        table["gamma"][0]["value"] = 0.0
        with pytest.raises(DataFormatError, match="eta is singular"):
            StateSpace(TableData.from_dict(table), theta_coloring)

    def test_indefinite_pairing(self, theta_coloring):
        space = StateSpace(BuiltinFamily("M", 2, 1.0), theta_coloring)
        v = space.basis_vector(3)
        assert space.inner_plus(v, v) == 1.0
        assert space.inner_indef(v, v) == -1.0


class TestLinearOperator:
    @pytest.fixture
    def space(self, theta_coloring):
        return StateSpace(BuiltinFamily("F", 2, 1.0, 2.0), theta_coloring)

    def test_shape_checked(self, space):
        with pytest.raises(DataFormatError):
            LinearOperator(space, space, np.zeros((3, space.dim)))

    def test_identity_compose(self, space):
        ident = LinearOperator.identity(space)
        assert np.allclose((ident @ ident).matrix, ident.matrix)

    def test_adjoint_involution(self, space):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(space.dim, space.dim))
        a = LinearOperator(space, space, mat + 1j * rng.normal(size=mat.shape))
        assert np.allclose(a.adjoint().adjoint().matrix, a.matrix)

    def test_adjoint_is_pairing_adjoint(self, space):
        rng = np.random.default_rng(5)
        shape = (space.dim, space.dim)
        a = LinearOperator(
            space, space, rng.normal(size=shape) + 1j * rng.normal(size=shape)
        )
        for _ in range(5):
            x = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            y = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            lhs = space.inner_indef(a.adjoint().apply(x), y)
            rhs = space.inner_indef(x, a.apply(y))
            assert abs(lhs - rhs) < 1e-12

    def test_adjoint_reverses_composition(self, space):
        rng = np.random.default_rng(9)
        shape = (space.dim, space.dim)
        a = LinearOperator(space, space, rng.normal(size=shape))
        b = LinearOperator(space, space, rng.normal(size=shape))
        assert np.allclose(
            (a @ b).adjoint().matrix, (b.adjoint() @ a.adjoint()).matrix
        )

    def test_arithmetic(self, space):
        ident = LinearOperator.identity(space)
        zero = LinearOperator.zero(space, space)
        assert np.allclose((ident - ident).matrix, zero.matrix)
        assert np.allclose((2.0 * ident + ident).matrix, 3 * np.eye(space.dim))
