"""State-space enumeration, eta weights, and indefinite adjoints."""

import dataclasses
import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    parse_family_spec,
)
from rlw import states
from rlw.data import BlockCache
from rlw.states import LinearOperator, StateSpace
from multiplicity import DoubledMultiplicity, ForcedMultiplicity, dense_operator
from surfaces import reversed_leg_coloring


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
    cases["forced-P32-strict"] = (ForcedMultiplicity(families["P32"]), theta, True)
    cases["grid2-forced-P21-strict"] = (ForcedMultiplicity(families["P21"]), grid, True)
    reversed_leg = reversed_leg_coloring()
    cases["reversed-leg-P32-inclusive"] = (families["P32"], reversed_leg, False)
    cases["reversed-leg-F212-strict"] = (families["F212"], reversed_leg, True)
    table = TableData.from_dict(_recorded_f212_table(theta))
    cases["table-F212-inclusive"] = (table, theta, False)
    return cases


ORACLE_CASES = _oracle_cases()


def expanded_space(data, coloring, strict=False):
    """(label_array, slot_array, eta) with the slot tuples of each labeling
    expanded one vertex at a time, vertex 0 slowest: one `column_stack`
    of the whole slot array per vertex."""
    labelings = states._Labelings(data, coloring)
    labs, degs = zip(*labelings.chunks(strict))
    lab = np.concatenate(labs)
    nslots = np.concatenate(degs) + (not strict)
    rep = np.arange(len(lab))
    slots = np.zeros((len(lab), 0), np.intp)
    for v in range(nslots.shape[1]):
        n = nslots[rep, v]
        start = np.repeat(np.cumsum(n) - n, n)
        rep, slots = np.repeat(rep, n), np.repeat(slots, n, axis=0)
        slots = np.column_stack([slots, np.arange(len(rep)) - start + strict])
    blocks = labelings.blocks
    weight = np.ones(len(lab))
    for e, val in enumerate(labelings.ids):
        d, _, beta = blocks.scalars(val)
        weight = weight * (d / beta)[lab[:, e]]
    lab = lab[rep]
    gamma = np.ones(len(lab))
    for v in range(slots.shape[1]):
        s = slots[:, v]
        fused = labelings.at_vertex(blocks.gamma, lab, v)[np.arange(len(s)), s - 1]
        gamma = gamma * np.where(s > 0, fused, 1.0)
    return lab, slots, weight[rep] / gamma


def _slot_fill_cases():
    theta = coloring_from_holonomy(build_torus("theta"), (q("1/5"), q("2/5")))
    grid = coloring_from_holonomy(build_torus("grid", 2), (q("1/7"), q("2/7")))
    p21 = BuiltinFamily("P", 2, 1.0)
    return {
        "theta-P21-inclusive": (p21, theta, False),
        "grid2-P21-inclusive": (p21, grid, False),
        "grid2-P32-strict": (BuiltinFamily("P", 3, 2.0), grid, True),
        "theta-doubled-P21-inclusive": (DoubledMultiplicity(p21), theta, False),
    }


SLOT_FILL_CASES = _slot_fill_cases()


def _row_spaces():
    """Spaces `rows` is checked on, each built on first use."""
    theta = coloring_from_holonomy(build_torus("theta"), (q("1/5"), q("2/5")))
    grid = coloring_from_holonomy(build_torus("grid", 2), (q("1/7"), q("2/7")))
    p21 = BuiltinFamily("P", 2, 1.0)
    cases = {
        "theta-P21": (p21, theta, False),
        "grid2-P21": (p21, grid, True),
        "grid2-P32": (BuiltinFamily("P", 3, 2.0), grid, True),
        "theta-doubled-P21": (DoubledMultiplicity(p21), theta, True),
    }
    return {
        name: functools.cache(functools.partial(StateSpace, *case))
        for name, case in cases.items()
    }


ROW_SPACES = _row_spaces()


class NoBranching(BuiltinFamily):
    """`BuiltinFamily` whose every delta is 0: its strict spaces are empty."""

    def delta_block(self, g1, g2, g3):
        return np.zeros_like(super().delta_block(g1, g2, g3))


class DiagonalFamily(BuiltinFamily):
    """`BuiltinFamily` with the duals (g, a)* = (-g, a), and delta and gamma
    nonzero only where the three label indices are equal."""

    def labels(self, g):
        return tuple(
            dataclasses.replace(lbl, dual_id=f"{a}@{-g}")
            for a, lbl in enumerate(super().labels(g))
        )

    def delta_block(self, g1, g2, g3):
        diagonal = np.zeros((self.N,) * 3, int)
        diagonal[(np.arange(self.N),) * 3] = 1
        return diagonal * super().delta_block(g1, g2, g3).any()

    def gamma_block(self, g1, g2, g3):
        return self.delta_block(g1, g2, g3).astype(float)[..., None]


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

    def test_rows_ending_in_zeros(self, theta_coloring):
        space = StateSpace(BuiltinFamily("P", 2, 1.0), theta_coloring)
        assert (space.slot_array[:, -1] == 0).any()
        everything = space.rows(space.label_array, space.slot_array)
        assert np.array_equal(everything, np.arange(space.dim))

    @pytest.mark.parametrize("strict", [False, True])
    def test_rows_of_doubled_slots(self, theta_coloring, strict):
        data = DoubledMultiplicity(BuiltinFamily("P", 2, 1.0))
        space = StateSpace(data, theta_coloring, strict=strict)
        assert (space.slot_array == 2).any()
        everything = space.rows(space.label_array, space.slot_array)
        assert np.array_equal(everything, np.arange(space.dim))

    @pytest.mark.parametrize("case", ["grid2-P21", "theta-doubled-P21"])
    def test_rows_out_of_range_digits(self, case):
        # a digit one past its column's range would carry into the column
        # before it and a negative one would borrow from it, either landing
        # on another row's code: both find no row, nor do digits past int32
        space = ROW_SPACES[case]()
        data = space.data
        for e, g in enumerate(space.coloring.values):
            for value in (-1, len(data.labels(g)), 2**32, -(2**32)):
                labels = space.label_array.copy()
                labels[:, e] = value
                assert (space.rows(labels, space.slot_array) == -1).all()
        for v in range(space.graph.num_vertices):
            for value in (0, data.mult_bound + 1, -1, 2**32):
                slots = space.slot_array.copy()
                slots[:, v] = value
                assert (space.rows(space.label_array, slots) == -1).all()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(ROW_SPACES)), st.data())
    def test_rows_match_dict_oracle(self, case, draw):
        space = ROW_SPACES[case]()
        basis = np.hstack([space.label_array, space.slot_array])
        where = {tuple(row): r for r, row in enumerate(basis.tolist())}
        width = basis.shape[1]
        entry = st.one_of(st.integers(-2, 4), st.integers(-(2**62), 2**62))
        perturbed = st.tuples(
            st.integers(0, space.dim - 1),
            st.lists(st.tuples(st.integers(0, width - 1), entry), max_size=3),
        )
        keys = []
        for r, changes in draw.draw(st.lists(perturbed, min_size=1, max_size=20)):
            keys.append(basis[r].tolist())
            for c, value in changes:
                keys[-1][c] = value
        keys += draw.draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=5))
        keys = np.array(keys, dtype=np.int64)
        found = space.rows(keys[:, : space.label_array.shape[1]], keys[:, space.label_array.shape[1] :])
        assert found.tolist() == [where.get(tuple(row), -1) for row in keys.tolist()]

    def test_empty_strict_space(self, theta_coloring):
        space = StateSpace(NoBranching("P", 2, 1.0), theta_coloring, strict=True)
        assert space.dim == 0
        assert space.label_array.shape == (0, 3) and space.slot_array.shape == (0, 2)
        labels = np.array([[0, 0, 0], [1, 1, 0], [-1, 0, 0], [0, 0, 0]])
        slots = np.array([[1, 1], [0, 0], [1, 1], [2, 1]])
        assert space.rows(labels, slots).tolist() == [-1, -1, -1, -1]

    def test_codes_past_int64_refused(self):
        # each strict state carries one label index on all 12 edges of the
        # 2x2 grid, so the 40 states span 40 labels per edge column: their
        # codes would need 40^12 > 2^63 values; 30^12 still fit
        col = coloring_from_holonomy(build_torus("grid", 2), (q("1/7"), q("2/7")))
        with pytest.raises(DimensionCapError, match=r"multiply past 2\^63"):
            StateSpace(DiagonalFamily("P", 40, 1.0), col, strict=True)
        space = StateSpace(DiagonalFamily("P", 30, 1.0), col, strict=True)
        assert space.dim == 30
        everything = space.rows(space.label_array, space.slot_array)
        assert np.array_equal(everything, np.arange(space.dim))

    @pytest.mark.parametrize("family", ["P:2:1", "P:3:2", "F:2:1:2"])
    def test_rows_match_dict_of_tuples(self, family):
        col = coloring_from_holonomy(build_torus("grid", 2), (q("1/7"), q("2/7")))
        space = StateSpace(parse_family_spec(family), col, strict=True)
        basis = np.hstack([space.label_array, space.slot_array])
        where = {tuple(row): r for r, row in enumerate(basis.tolist())}
        rng = np.random.default_rng(1)
        keys = basis[rng.integers(0, space.dim, 400)]
        hit = rng.random(keys.shape) < 0.02
        keys[hit] = rng.integers(-1, int(basis.max()) + 3, hit.sum())
        found = space.rows(keys[:, : space.label_array.shape[1]], keys[:, space.label_array.shape[1] :])
        assert found.tolist() == [where.get(tuple(row), -1) for row in keys.tolist()]
        assert (found < 0).any() and (found >= 0).any()

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

    @pytest.mark.parametrize(
        "case", [c for c in ORACLE_CASES if not ORACLE_CASES[c][2]]
    )
    def test_count_matches_built_dim(self, case):
        data, coloring, _ = ORACLE_CASES[case]
        assert states.count_states(data, coloring) == StateSpace(data, coloring).dim

    @pytest.mark.parametrize("case", SLOT_FILL_CASES)
    def test_slot_fill_matches_vertex_expansion(self, case):
        data, coloring, strict = SLOT_FILL_CASES[case]
        space = StateSpace(data, coloring, strict=strict, dim_cap=10**6)
        labels, slots, eta = expanded_space(data, coloring, strict)
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
        v = np.eye(space.dim)[3]
        assert space.inner_indef(v, v) == -1.0


class TestLinearOperator:
    @pytest.fixture
    def space(self, theta_coloring):
        return StateSpace(BuiltinFamily("F", 2, 1.0, 2.0), theta_coloring)

    def test_shape_checked(self, spaces):
        # an entry outside dst.dim x src.dim is refused: a column past
        # src.dim would otherwise land in the next row
        big, small = spaces
        one = np.ones(1)
        for row, col in ((big.dim, 0), (0, small.dim), (-1, 0), (0, -1)):
            with pytest.raises(DataFormatError, match=rf"entry \({row}, {col}\) lies outside"):
                LinearOperator(small, big, np.array([row]), np.array([col]), one)
        last = LinearOperator(small, big, np.array([big.dim - 1]), np.array([small.dim - 1]), one)
        assert last.matrix[-1, -1] == 1

    def test_identity_compose(self, space):
        ident = LinearOperator.identity(space)
        assert np.allclose((ident @ ident).matrix, ident.matrix)

    def test_adjoint_involution(self, space):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(space.dim, space.dim))
        a = dense_operator(space, space, mat + 1j * rng.normal(size=mat.shape))
        assert np.allclose(a.adjoint().adjoint().matrix, a.matrix)

    def test_adjoint_is_pairing_adjoint(self, space):
        rng = np.random.default_rng(5)
        shape = (space.dim, space.dim)
        a = dense_operator(space, space, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        for _ in range(5):
            x = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            y = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            lhs = space.inner_indef(a.adjoint().apply(x), y)
            rhs = space.inner_indef(x, a.apply(y))
            assert abs(lhs - rhs) < 1e-12

    def test_adjoint_reverses_composition(self, space):
        rng = np.random.default_rng(9)
        shape = (space.dim, space.dim)
        a = dense_operator(space, space, rng.normal(size=shape))
        b = dense_operator(space, space, rng.normal(size=shape))
        assert np.allclose(
            (a @ b).adjoint().matrix, (b.adjoint() @ a.adjoint()).matrix
        )

    def test_arithmetic(self, space, theta_coloring):
        ident = LinearOperator.identity(space)
        assert np.array_equal((ident - ident).matrix, np.zeros((space.dim, space.dim)))
        other = LinearOperator.identity(StateSpace(space.data, theta_coloring))
        with pytest.raises(DataFormatError):
            ident - other

    @pytest.fixture
    def spaces(self, theta_coloring):
        data = BuiltinFamily("M", 2, 1.0)
        shifted = coloring_from_holonomy(build_torus("theta"), (q("2/5"), q("1/5")))
        return StateSpace(data, theta_coloring), StateSpace(data, shifted, strict=True)

    @staticmethod
    def random_triplets(rng, src, dst, count):
        """Entries with repeated positions, explicit zeros and entries that
        cancel, and their dense sum."""
        rows = rng.integers(0, dst.dim, count)
        cols = rng.integers(0, src.dim, count)
        vals = rng.normal(size=count) + 1j * rng.normal(size=count)
        vals[::7] = 0
        rows, cols = np.concatenate([rows, rows[:5]]), np.concatenate([cols, cols[:5]])
        vals = np.concatenate([vals, -vals[:5]])
        dense = np.zeros((dst.dim, src.dim), dtype=complex)
        np.add.at(dense, (rows, cols), vals)
        return LinearOperator(src, dst, rows, cols, vals), dense

    @pytest.mark.parametrize("seed", range(4))
    def test_triplets_match_dense(self, spaces, seed):
        rng = np.random.default_rng(seed)
        big, small = spaces
        a, dense_a = self.random_triplets(rng, small, big, 3 * big.dim)
        b, dense_b = self.random_triplets(rng, big, small, 3 * big.dim)
        c, dense_c = self.random_triplets(rng, small, big, 2 * big.dim)
        # duplicates summed in order, zeros dropped, sorted by row, then column
        assert np.array_equal(a.matrix, dense_a)
        rows, cols = np.nonzero(dense_a)
        assert np.array_equal(a.rows, rows) and np.array_equal(a.cols, cols)
        assert a.vals.tobytes() == dense_a[rows, cols].tobytes()
        assert np.array_equal(dense_operator(small, big, dense_a).vals, a.vals)
        x = rng.normal(size=(small.dim, 3)) + 1j * rng.normal(size=(small.dim, 3))
        assert np.allclose(a.apply(x), dense_a @ x, rtol=0, atol=1e-12)
        assert np.allclose(a.apply(x[:, 0]), dense_a @ x[:, 0], rtol=0, atol=1e-12)
        adjoint = small.eta[:, None] * dense_a.conj().T / big.eta[None, :]
        assert np.array_equal(a.adjoint().matrix, adjoint)
        assert np.array_equal((a - c).matrix, dense_a - dense_c)
        assert (a - a).vals.size == 0
        assert np.allclose((a @ b).matrix, dense_a @ dense_b, rtol=0, atol=1e-12)
        assert np.allclose((b @ a).matrix, dense_b @ dense_a, rtol=0, atol=1e-12)
        assert abs(a.norm() - np.linalg.norm(dense_a)) <= 1e-12
        with pytest.raises(DataFormatError):
            a @ a
        with pytest.raises(DataFormatError):
            a - b

    def test_dense_blocks(self, spaces):
        rng = np.random.default_rng(7)
        big, small = spaces
        a, dense = self.random_triplets(rng, big, big, 4 * big.dim)
        parts = [np.sort(r) for r in np.array_split(rng.permutation(big.dim), 3)]
        parts[1] = parts[1][: len(parts[1]) // 2]  # entries in no part are left out
        blocks = list(a.dense_blocks(parts))
        assert len(blocks) == len(parts)
        for part, block in zip(parts, blocks):
            assert np.array_equal(block, dense[np.ix_(part, part)])
        square = [np.sort(r) for r in np.array_split(rng.permutation(big.dim), 4)]
        blocks = [rng.normal(size=(len(r), len(r))) for r in square]
        blocks[0][0] = 0
        op = LinearOperator.from_blocks(big, big, square, blocks)
        want = np.zeros((big.dim, big.dim))
        for r, block in zip(square, blocks):
            want[np.ix_(r, r)] = block
        assert np.array_equal(op.matrix, want)
        assert np.array_equal(LinearOperator.identity(big).matrix, np.eye(big.dim))


def labeling_count(data, coloring):
    """The inclusive dimension summed over every labeling, a chunk at a time."""
    return sum(
        int(np.prod(deg + 1, axis=1).sum())
        for _, deg in states._Labelings(data, coloring).chunks(strict=False)
    )


COUNT_SURFACES = {
    "theta": (build_torus("theta"), "1/5,2/5"),
    "grid2": (build_torus("grid", 2), "1/7,2/7"),
    "genus2": (build_genus(2), "1/7,2/7,3/7,1/11"),
    "genus3": (build_genus(3), "1/7,2/7,3/7,1/11,2/11,3/11"),
}


class TestCount:
    """`count_states` contracts the vertex tensors; the labeling loop is its oracle."""

    @pytest.mark.parametrize("family", ["P:2:1", "P:3:2"])
    @pytest.mark.parametrize("surface", list(COUNT_SURFACES))
    def test_matches_labeling_loop(self, surface, family):
        graph, holonomy = COUNT_SURFACES[surface]
        coloring = coloring_from_holonomy(
            graph, tuple(q(h) for h in holonomy.split(","))
        )
        data = parse_family_spec(family)
        count = states.count_states(data, coloring)
        assert type(count) is int
        assert count == labeling_count(data, coloring)

    def test_python_integers_match_loop(self, monkeypatch):
        data, coloring, _ = ORACLE_CASES["forced-P32-inclusive"]
        monkeypatch.setattr(states, "_INT64_BOUND", 1)
        assert states.count_states(data, coloring) == labeling_count(data, coloring)

    def test_count_past_int64(self):
        # 3^45 labelings on genus 8: the count no longer fits in int64
        holonomy = tuple(q(Fraction(k, p)) for p in (7, 11, 13, 17) for k in (1, 2, 3, 4))
        coloring = coloring_from_holonomy(build_genus(8), holonomy)
        count = states.count_states(BuiltinFamily("P", 3, 2.0), coloring)
        assert type(count) is int and count > 2**63

    def test_more_edges_than_einsum_names(self):
        holonomy = tuple(q(Fraction(k, p)) for p in (7, 11, 13, 17, 19) for k in (1, 2, 3, 4))
        coloring = coloring_from_holonomy(build_genus(10), holonomy)  # 57 edges
        with pytest.raises(DimensionCapError, match="57 edges"):
            states.count_states(BuiltinFamily("P", 2, 1.0), coloring)


class TestSharedCache:
    def test_spaces_and_counts_read_the_data_cache(self, theta_coloring, monkeypatch):
        made = []
        init = BlockCache.__init__

        def counted(self, data):
            made.append(self)
            init(self, data)

        monkeypatch.setattr(BlockCache, "__init__", counted)
        data = BuiltinFamily("P", 3, 2.0)
        grid = coloring_from_holonomy(build_torus("grid", 2), (q("1/7"), q("2/7")))
        StateSpace(data, theta_coloring)
        StateSpace(data, theta_coloring, strict=True)
        StateSpace(data, grid, strict=True)
        assert states.count_states(data, grid) == labeling_count(data, grid)
        assert states._Labelings(data, grid).blocks is data.blocks
        assert made == [data.blocks]

    def test_a_recording_reads_through_its_own_cache(self, theta_coloring):
        # a recording must see every block read, so it shares no cache with its base
        base = BuiltinFamily("P", 2, 1.0)
        StateSpace(base, theta_coloring)
        recorder = RecordingData(base)
        space = StateSpace(recorder, theta_coloring)
        assert recorder.blocks is not base.blocks
        assert StateSpace(recorder.export_table(), theta_coloring).dim == space.dim
