"""Plaquette operators, the Hamiltonian, and its spectrum."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from rlw import (
    AdmissibilityError,
    BuiltinFamily,
    GaugeAdmissibilityError,
    LWData,
    ProbeSearchError,
    QMODZ,
    RecordingData,
    TableData,
    build_genus,
    build_torus,
    coloring_from_holonomy,
    gauge_shift,
    is_admissible,
)
from rlw.operators import StringNetModel, choose_probe, probe_candidates
from rlw.states import StateSpace


def q(value):
    return QMODZ.element(Fraction(value))


FAMILIES = {
    "P21": BuiltinFamily("P", 2, 1.0),
    "P32": BuiltinFamily("P", 3, 2.0),
    "M21": BuiltinFamily("M", 2, 1.0),
    "F212": BuiltinFamily("F", 2, 1.0, 2.0),
}


class ForcedMultiplicity(LWData):
    """Multiplicity-free data that reports a branching bound of 2.

    The bound alone selects the plaquette walk's multiplicity path, so
    that path can be checked against the multiplicity-free one.
    """

    def __init__(self, base):
        self.base = base
        self.signature = base.signature
        self.singular = base.singular

    @property
    def mult_bound(self):
        return 2

    def labels(self, g):
        return self.base.labels(g)

    def label_index(self, label):
        return self.base.label_index(label)

    def dual(self, label):
        return self.base.dual(label)

    def delta(self, i, j, k):
        return self.base.delta(i, j, k)

    def gamma(self, i, j, k, n):
        return self.base.gamma(i, j, k, n)

    def sixj(self, js, a):
        return self.base.sixj(js, a)

    def probe_degrees(self):
        return self.base.probe_degrees()


@pytest.fixture
def theta_coloring():
    return coloring_from_holonomy(build_torus("theta"), (q("1/5"), q("2/5")))


@pytest.fixture
def grid_coloring():
    return coloring_from_holonomy(build_torus("grid", 2), (q("1/7"), q("2/7")))


class TestProbe:
    def test_first_candidate(self, theta_coloring, grid_coloring):
        fam = FAMILIES["P21"]
        assert choose_probe(fam, theta_coloring) == q("1/4")
        assert choose_probe(fam, grid_coloring) == q("1/4")

    def test_candidates_are_usable(self, theta_coloring):
        fam = FAMILIES["P32"]
        for g in probe_candidates(fam, theta_coloring, limit=8):
            assert fam.labels(g) and fam.labels(-g)

    def test_exhaustion(self, theta_coloring):
        # a table holding only the state-space degrees has no room to shift
        rec = RecordingData(FAMILIES["P21"])
        StateSpace(rec, theta_coloring)
        with pytest.raises(ProbeSearchError):
            choose_probe(rec.export_table(), theta_coloring)


class TestPlaquetteAlgebra:
    @pytest.mark.parametrize("name", FAMILIES, ids=FAMILIES)
    def test_idempotent(self, name, theta_coloring):
        model = StringNetModel(FAMILIES[name], theta_coloring)
        b = model.plaquette_B(0)
        assert np.linalg.norm((b @ b - b).matrix) <= 1e-12

    @pytest.mark.parametrize("name", FAMILIES, ids=FAMILIES)
    def test_adjoint_inverts_degree(self, name, theta_coloring):
        # (B_p^g)* = B_p^(-g) acting back from the shifted coloring
        model = StringNetModel(FAMILIES[name], theta_coloring)
        g = model.probe
        raised = model.plaquette_Bg(0, g)
        shifted = gauge_shift(theta_coloring, model.graph.plaquettes[0], -g)
        lowered = model.plaquette_Bg(0, -g, shifted)
        assert np.linalg.norm(raised.adjoint().matrix - lowered.matrix) <= 1e-12

    @pytest.mark.parametrize("name", FAMILIES, ids=FAMILIES)
    def test_composition(self, name, theta_coloring):
        model = StringNetModel(FAMILIES[name], theta_coloring)
        p = model.graph.plaquettes[0]
        g1, g2 = q("1/7"), q("1/4")
        second = model.plaquette_Bg(p, g2)
        first = model.plaquette_Bg(p, g1, gauge_shift(theta_coloring, p, -g2))
        combined = model.plaquette_Bg(p, g1 + g2)
        assert np.linalg.norm((first @ second).matrix - combined.matrix) <= 1e-12

    @pytest.mark.parametrize("name", FAMILIES, ids=FAMILIES)
    def test_probe_independence(self, name, theta_coloring):
        fam = FAMILIES[name]
        model = StringNetModel(fam, theta_coloring)
        first, second = list(probe_candidates(fam, theta_coloring, limit=2))
        a = model.plaquette_B(0, g=first)
        b = model.plaquette_B(0, g=second)
        assert np.linalg.norm(a.matrix - b.matrix) <= 1e-12

    @pytest.mark.parametrize("name", FAMILIES, ids=FAMILIES)
    def test_hamiltonian_self_adjoint(self, name, theta_coloring):
        model = StringNetModel(FAMILIES[name], theta_coloring)
        h = model.hamiltonian()
        assert np.linalg.norm(h.matrix - h.adjoint().matrix) <= 1e-12

    def test_grid_commutators(self, grid_coloring):
        model = StringNetModel(FAMILIES["P21"], grid_coloring, strict=True)
        bs = [model.plaquette_B(p) for p in model.graph.plaquettes]
        qs = [model.vertex_Q(v) for v in range(model.graph.num_vertices)]
        for i, left in enumerate(bs):
            for right in bs[i + 1 :]:
                assert np.linalg.norm((left @ right - right @ left).matrix) <= 1e-12
            for diag in qs:
                assert np.linalg.norm((left @ diag - diag @ left).matrix) <= 1e-12


class TestWalkPaths:
    @pytest.mark.parametrize("name", FAMILIES, ids=FAMILIES)
    def test_multiplicity_path_matches(self, name, theta_coloring):
        fam = FAMILIES[name]
        plain = StringNetModel(fam, theta_coloring)
        forced = StringNetModel(ForcedMultiplicity(fam), theta_coloring)
        assert np.array_equal(forced.space().label_array, plain.space().label_array)
        assert np.array_equal(forced.space().slot_array, plain.space().slot_array)
        for p in plain.graph.plaquettes:
            diff = forced.plaquette_B(p).matrix - plain.plaquette_B(p).matrix
            assert np.abs(diff).max() <= 1e-12
        assert forced.ground_dim() == plain.ground_dim()

    def test_off_support_table_entries_are_ignored(self, theta_coloring):
        # stored 6j entries outside the delta support read as zero.  Every
        # walk branch through one off-support corner dies at another
        # corner, so a single planted entry would never show; plant all
        # of them in the blocks the walk reads.
        rec = RecordingData(FAMILIES["P21"])
        model = StringNetModel(rec, theta_coloring)
        want = [model.plaquette_B(p).matrix for p in model.graph.plaquettes]
        clean = rec.export_table()
        by_id = {l.id: l for g in clean.degrees() for l in clean.labels(g)}
        planted = clean.to_dict()
        blocks = {tuple(by_id[i].degree for i in e["j"]) for e in planted["sixj"]}
        for degs in sorted(blocks, key=str):
            for js in itertools.product(*(clean.labels(g) for g in degs)):
                if not clean.sixj_support(js, (1, 1, 1, 1)):
                    planted["sixj"].append(
                        {"j": [j.id for j in js], "a": [1, 1, 1, 1], "re": 5.0, "im": 0.0}
                    )
        table = TableData.from_dict(planted)
        # blocks stay unmasked, so the validator's support check sees them
        assert all((table.sixj_block(degs) == 5.0).any() for degs in blocks)
        for data in (clean, table):
            replay = StringNetModel(data, theta_coloring, probe=model.probe)
            for p, matrix in zip(replay.graph.plaquettes, want):
                assert np.array_equal(replay.plaquette_B(p).matrix, matrix)


class TestExactForms:
    def test_theta_projector_is_slot_diagonal(self, theta_coloring):
        # toric-code point: B_p multiplies out every slot-0 admixture
        model = StringNetModel(FAMILIES["P21"], theta_coloring)
        space = model.space()
        want = np.diag((space.slot_array == 1).all(axis=1).astype(float)).astype(complex)
        assert np.array_equal(model.plaquette_B(0).matrix, want)

    def test_genus_two_single_face(self):
        holonomy = (q("1/5"), q("2/5"), q("1/7"), q("3/7"))
        col = coloring_from_holonomy(build_genus(2), holonomy)
        model = StringNetModel(FAMILIES["P21"], col, strict=True)
        dim = model.space().dim
        assert dim == 16
        # the 18-corner walk around the unique face collapses to the identity
        assert np.array_equal(model.plaquette_B(0).matrix, np.eye(dim))
        assert model.ground_dim() == 16

    def test_vertex_projector_diagonal(self, theta_coloring):
        model = StringNetModel(FAMILIES["P32"], theta_coloring)
        space = model.space()
        mat = model.vertex_Q(1).matrix
        want = np.diag([1.0 if slots[1] >= 1 else 0.0 for slots in space.slot_array])
        assert np.array_equal(mat, want.astype(complex))


class TestSpectrum:
    def test_theta(self, theta_coloring):
        assert StringNetModel(FAMILIES["P21"], theta_coloring).spectrum() == {
            0: 4,
            2: 8,
            3: 8,
        }
        assert StringNetModel(FAMILIES["P32"], theta_coloring).spectrum() == {
            0: 9,
            2: 18,
            3: 27,
        }

    def test_grid_strict(self, grid_coloring):
        model = StringNetModel(FAMILIES["P21"], grid_coloring, strict=True)
        assert model.spectrum() == {0: 4, 2: 24, 4: 4}
        model = StringNetModel(FAMILIES["P32"], grid_coloring, strict=True)
        assert model.spectrum() == {0: 9, 2: 108, 3: 72, 4: 54}

    def test_ground_dims_torus(self, theta_coloring, grid_coloring):
        assert StringNetModel(FAMILIES["P21"], theta_coloring).ground_dim() == 4
        assert StringNetModel(FAMILIES["P32"], theta_coloring).ground_dim() == 9
        strict = StringNetModel(FAMILIES["P21"], grid_coloring, strict=True)
        assert strict.ground_dim() == 4

    def test_triangulation_match(self, grid_coloring):
        # same holonomy on both torus graphs, same count
        theta = coloring_from_holonomy(build_torus("theta"), (q("1/7"), q("2/7")))
        fine = StringNetModel(FAMILIES["P21"], grid_coloring, strict=True)
        coarse = StringNetModel(FAMILIES["P21"], theta)
        assert fine.ground_dim() == coarse.ground_dim() == 4

    def test_dense_eigenvalues_integral(self, theta_coloring):
        h = StringNetModel(FAMILIES["P21"], theta_coloring).hamiltonian().matrix
        values = np.linalg.eigvals(h)
        assert max(abs(v - round(v.real)) for v in values) <= 1e-7
        assert int(np.sum(abs(values) < 0.5)) == 4
        nonzero = values[abs(values) >= 0.5]
        assert min(nonzero.real) >= 1 - 1e-7


class TestGaugeInvariance:
    def test_ground_dim_under_shifts(self, theta_coloring):
        fam = FAMILIES["P21"]
        graph = build_torus("theta")
        rng = np.random.default_rng(11)
        base = StringNetModel(fam, theta_coloring).ground_dim()
        accepted = 0
        current = theta_coloring
        for _ in range(200):
            if accepted == 10:
                break
            p = graph.plaquettes[int(rng.integers(0, len(graph.plaquettes)))]
            g = QMODZ.element(Fraction(int(rng.integers(1, 31)), 31))
            target = gauge_shift(current, p, g)
            if not is_admissible(target, fam.singular):
                continue
            assert StringNetModel(fam, target).ground_dim() == base
            current = target
            accepted += 1
        assert accepted == 10

    def test_bg_full_rank_on_ground_sector(self, theta_coloring):
        model = StringNetModel(FAMILIES["P21"], theta_coloring)
        proj = model.ground_projector().matrix
        u, sing, _ = np.linalg.svd(proj)
        ground = u[:, sing > 0.5]
        assert ground.shape[1] == 4
        block = model.plaquette_Bg(0, model.probe).matrix @ ground
        assert np.linalg.matrix_rank(block, tol=1e-9) == 4


class TestAdmissibility:
    def test_base_coloring_rejected(self):
        col = coloring_from_holonomy(build_torus("theta"), (q(0), q("1/5")))
        with pytest.raises(AdmissibilityError):
            StringNetModel(FAMILIES["P21"], col)

    def test_stored_target_rejected(self, grid_coloring):
        # 1/14 - 4/7 lands on -1/2, killed by the six-torsion test
        model = StringNetModel(FAMILIES["P21"], grid_coloring, strict=True)
        plaquette = model.graph.face_of(0)
        with pytest.raises(GaugeAdmissibilityError):
            model.plaquette_Bg(plaquette, q("4/7"))

    def test_walk_labels_rejected(self, theta_coloring):
        # the stored coloring survives the shift but the walk crosses zero
        model = StringNetModel(FAMILIES["P21"], theta_coloring)
        with pytest.raises(GaugeAdmissibilityError):
            model.plaquette_Bg(0, q("1/5"))


class TestCaching:
    def test_operators_are_reused(self, theta_coloring):
        model = StringNetModel(FAMILIES["P21"], theta_coloring)
        assert model.plaquette_B(0) is model.plaquette_B(0)
        assert model.plaquette_Bg(0, q("1/4")) is model.plaquette_Bg(0, q("1/4"))
        assert model.space() is model.space(theta_coloring)
