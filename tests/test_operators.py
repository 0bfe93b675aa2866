"""Plaquette operators, the Hamiltonian, and its spectrum."""

import collections
import functools
import itertools
import types
from fractions import Fraction

import numpy as np
import pytest

from rlw import (
    AdmissibilityError,
    BuiltinFamily,
    Coloring,
    DataFormatError,
    DimensionCapError,
    GaugeAdmissibilityError,
    InstabilityError,
    MissingDataError,
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
from rlw import operators
from rlw.axioms import validate
from rlw.data import BlockCache
from rlw.operators import StringNetModel, choose_probe, probe_candidates
from rlw.states import LinearOperator, StateSpace
from multiplicity import DoubledMultiplicity, ForcedMultiplicity
from surfaces import reversed_leg_coloring


def q(value):
    return QMODZ.element(Fraction(value))


FAMILIES = {
    "P21": BuiltinFamily("P", 2, 1.0),
    "P32": BuiltinFamily("P", 3, 2.0),
    "M21": BuiltinFamily("M", 2, 1.0),
    "F212": BuiltinFamily("F", 2, 1.0, 2.0),
}

# bases of the real-multiplicity cases: every label of P and F has d = 1,
# and M:2:2's have d = -2, so only M22 shows the walk's d-weights
# (theta's one face has 6 corners, so M21's d = -1 cancels)
DOUBLED = {
    "P21": FAMILIES["P21"],
    "F212": FAMILIES["F212"],
    "M22": BuiltinFamily("M", 2, 2.0),
}


def reference_walk(self, p, g, coloring, labels, slots):
    """Depth-first reference for `StringNetModel._walk_Bg`, with its
    signature: one source row and one string at a time, with labels,
    duals, degrees and 6j symbols read pointwise (each dual and each
    label sextuple's 6j symbols read once).  The labels at each
    position are those of its old label's degree minus g; a leg that is a
    walk edge takes whichever of its old or new labels has the degree its
    corner needs.  Each corner is contracted once every label it reads is
    chosen, and a branch is dropped once a corner's block vanishes; the
    branching slots of all corners are contracted by one einsum at each
    leaf, which gives one entry per nonzero output slot.

    The A slots chain cyclically around the walk and the C slots chain
    per vertex across its visits; first-visit C slots are sliced at the
    stored value and last-visit ones stay free as the output axes.
    """
    data = self.data
    dual = functools.lru_cache(maxsize=None)(data.dual)  # pointwise, each label once
    n = len(p.darts)
    mb = data.mult_bound
    chosen = [None] * n
    pool = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    a_letter = [next(pool) for _ in range(n)]
    link_letter = {}
    out_letter = {}
    for v in p.vertices:
        seq = p.visits[v]
        for r in range(len(seq) - 1):
            link_letter[seq[r], "out"] = link_letter[seq[r + 1], "in"] = next(pool)
        out_letter[v] = next(pool)

    subs, first_visit = [], set()
    ready_at = [[] for _ in range(n)]
    for c in p.corners:
        i = c.pos
        seq = p.visits[c.vertex]
        sub = a_letter[i]
        if i == seq[0]:
            first_visit.add(i)
        else:
            sub += link_letter[i, "in"]
        sub += out_letter[c.vertex] if i == seq[-1] else link_letter[i, "out"]
        sub += a_letter[(i + 1) % n]
        subs.append(sub)
        # a corner reads the labels at i, i + 1 and its leg, and the ones
        # they revisit, which come earlier
        ready_at[max(i, (i + 1) % n, c.leg_pos or 0)].append(c)
    spec = ",".join(subs) + "->" + "".join(out_letter[v] for v in p.vertices)
    last = {e: i for i, e in enumerate(p.edges)}

    def along(h, col):  # label read along dart h in source row col
        lab = data.labels(coloring.values[h // 2])[labels[col, h // 2]]
        return lab if h % 2 == 0 else dual(lab)

    def o_label(i, col):
        if p.first[i] == i:
            return along(p.darts[i], col)
        return dual(chosen[p.first[i]])

    def leg_label(c, col):
        if c.leg_pos is None:
            return along(c.leg, col)
        need = o_label(c.pos, col).degree - o_label((c.pos + 1) % n, col).degree
        found = (o_label(c.leg_pos, col), chosen[c.leg_pos])
        if c.leg not in p.darts:
            found = [dual(lab) for lab in found]
        (lab,) = [lab for lab in found if lab.degree == need]
        return lab

    sixj = {}  # label sextuple -> its 6j symbols

    def block(s, c, col):
        i = c.pos
        nxt = (i + 1) % n
        js = (
            chosen[i],
            s,
            o_label(i, col),
            dual(o_label(nxt, col)),
            leg_label(c, col),
            dual(chosen[nxt]),
        )
        if js not in sixj:
            sixj[js] = np.zeros((mb,) * 4, dtype=complex)
            for idx in np.ndindex(sixj[js].shape):
                sixj[js][idx] = data.sixj(js, tuple(a + 1 for a in idx))
        arr = sixj[js] * chosen[i].d
        if i in first_visit:
            arr = arr[:, slots[col, c.vertex] - 1, :, :]
        return arr

    def out_labels(col):
        out = labels[col].copy()
        for i, t in enumerate(p.darts):
            if last[t // 2] == i:
                lab = chosen[i] if t % 2 == 0 else dual(chosen[i])
                out[t // 2] = data.label_index(lab)
        return out

    def rec(s, j, acc, col):
        if j == n:
            ordered = [arr for _, arr in sorted(acc, key=lambda t: t[0])]
            amps = np.einsum(spec, *ordered, optimize="greedy")
            for idx in np.ndindex(amps.shape):
                if amps[idx] != 0:
                    out_slots = slots[col].copy()
                    out_slots[p.vertices] = np.array(idx) + 1
                    entries.append((out_labels(col), out_slots, col, s.b * amps[idx]))
            return
        for lab in data.labels(o_label(j, col).degree - g):
            chosen[j] = lab
            grown = acc
            for c in ready_at[j]:
                arr = block(s, c, col)
                if not arr.any():
                    break
                grown = grown + [(c.pos, arr)]
            else:
                rec(s, j + 1, grown, col)

    entries = []
    for s in data.labels(g):
        for col in np.flatnonzero((slots[:, p.vertices] > 0).all(axis=1)):
            rec(s, 0, [], col)
    return tuple(map(np.array, zip(*entries)))


@pytest.fixture
def theta_coloring():
    return coloring_from_holonomy(build_torus("theta"), (q("1/5"), q("2/5")))


@pytest.fixture
def grid_coloring():
    return coloring_from_holonomy(build_torus("grid", 2), (q("1/7"), q("2/7")))


@pytest.fixture
def genus_coloring():
    return coloring_from_holonomy(build_genus(2), (q("1/5"), q("2/5"), q("1/7"), q("3/7")))


def refuse_spaces(monkeypatch):
    """Make building any `StateSpace` fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a state space was built")

    monkeypatch.setattr(StateSpace, "__init__", refuse)


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

    @pytest.fixture
    def no_spaces(self, monkeypatch):
        refuse_spaces(monkeypatch)

    @pytest.mark.parametrize(
        "probe, message",
        [
            ("3/5", "probe 3/5 shifts edge 1 of degree 2/5 to the singular degree 0"),
            ("4/5", "probe 4/5 shifts edge 0 of degree 1/5 to the singular degree 0"),
            ("0", "probe 0 is not a generic nonzero degree"),
            ("1/2", "probe 1/2 is not a generic nonzero degree"),
        ],
    )
    def test_given_probe_follows_the_candidate_rule(
        self, probe, message, theta_coloring, no_spaces
    ):
        fam = FAMILIES["P21"]
        assert q(probe) not in set(probe_candidates(fam, theta_coloring))
        with pytest.raises(GaugeAdmissibilityError) as err:
            StringNetModel(fam, theta_coloring, probe=q(probe))
        assert str(err.value) == message

    def test_given_probe_needs_labels(self, theta_coloring, monkeypatch):
        # a table holding only the state-space degrees has no labels at 1/4
        rec = RecordingData(FAMILIES["P21"])
        StateSpace(rec, theta_coloring)
        table = rec.export_table()
        refuse_spaces(monkeypatch)
        with pytest.raises(MissingDataError, match="probe 1/4 needs data the table lacks"):
            StringNetModel(table, theta_coloring, probe=q("1/4"))

    def test_usable_probe_builds_no_space(self, theta_coloring, no_spaces):
        model = StringNetModel(FAMILIES["P21"], theta_coloring, probe=q("1/4"))
        assert model.probe == q("1/4")


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

    @pytest.mark.parametrize("name", DOUBLED)
    def test_real_multiplicity_matches_reference(self, name, theta_coloring):
        data = DoubledMultiplicity(DOUBLED[name])
        model = StringNetModel(data, theta_coloring)
        ref = StringNetModel(data, theta_coloring, probe=model.probe)
        ref._walk_Bg = types.MethodType(reference_walk, ref)
        p = model.graph.plaquettes[0]
        g = model.probe
        for h, col in ((-g, theta_coloring), (g, gauge_shift(theta_coloring, p, g))):
            got = model.plaquette_Bg(p, h, col)
            want = ref.plaquette_Bg(p, h, col).matrix
            assert np.abs(got.matrix - want).max() <= 1e-12 * np.abs(want).max()
            # the move connects slot-2 states, so every slot axis is live
            rows, cols = np.nonzero(got.matrix)
            assert (got.dst.slot_array[rows] == 2).any()
            assert (got.src.slot_array[cols] == 2).any()

    @pytest.mark.parametrize("name", DOUBLED)
    def test_real_multiplicity_record_replay(self, name, theta_coloring):
        rec = RecordingData(DoubledMultiplicity(DOUBLED[name]))
        model = StringNetModel(rec, theta_coloring)
        p, g = model.graph.plaquettes[0], model.probe
        moves = ((-g, theta_coloring), (g, gauge_shift(theta_coloring, p, g)))
        want = [model.plaquette_Bg(p, h, col).matrix for h, col in moves]
        export = rec.export_table()
        assert export.mult_bound == 2
        table = TableData.from_dict(export.to_dict())
        assert table.mult_bound == 2
        replay = StringNetModel(table, theta_coloring, probe=g)
        for (h, col), matrix in zip(moves, want):
            got = replay.plaquette_Bg(p, h, col)
            assert np.array_equal(got.matrix, matrix)
            assert (got.src.slot_array[np.nonzero(matrix)[1]] == 2).any()

    def test_forced_multiplicity_genus_two(self, genus_coloring):
        # the inclusive genus-2 space, dim 5840, with size-2 slot axes
        col = genus_coloring
        plain = StringNetModel(FAMILIES["P21"], col)
        forced = StringNetModel(ForcedMultiplicity(FAMILIES["P21"]), col)
        assert plain.space().dim == 5840
        g = plain.probe
        assert np.array_equal(
            forced.plaquette_Bg(0, g).matrix, plain.plaquette_Bg(0, g).matrix
        )

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


class TestReversedLegs:
    """The walk on a surface where a corner's leg is a walk edge walked
    the other way: the only corners whose leg label is read against the
    dart the walk takes along it."""

    WALK_CASES = {
        **{name: FAMILIES[name] for name in ("P21", "P32", "M21", "F212")},
        "forced-P21": ForcedMultiplicity(FAMILIES["P21"]),
        "doubled-M22": DoubledMultiplicity(DOUBLED["M22"]),
    }

    def test_corners(self):
        face, gon = reversed_leg_coloring().graph.plaquettes
        darts = face.darts  # a reversed leg: its edge is walked against it
        reversed_legs = [c.pos for c in face.corners if c.leg not in darts and c.leg ^ 1 in darts]
        assert reversed_legs == [2, 7]
        assert len(gon.darts) == 2

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "inclusive"])
    @pytest.mark.parametrize("name", WALK_CASES)
    def test_walk_matches_reference(self, name, strict):
        data, col = self.WALK_CASES[name], reversed_leg_coloring()
        model = StringNetModel(data, col, strict=strict)
        ref = StringNetModel(data, col, strict=strict, probe=model.probe)
        ref._walk_Bg = types.MethodType(reference_walk, ref)
        g = model.probe
        for p in model.graph.plaquettes:
            for h, shifted in ((-g, col), (g, gauge_shift(col, p, g))):
                got = model.plaquette_Bg(p, h, shifted).matrix
                want = ref.plaquette_Bg(p, h, shifted).matrix
                assert np.abs(want).max() > 0
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "name, ground", [("P21", 4), ("P32", 9), ("M21", 4), ("F212", 4)]
    )
    def test_projector_algebra(self, name, ground):
        # no law for DoubledMultiplicity: it fails the validator, and its
        # B_p is not idempotent even on theta
        model = StringNetModel(FAMILIES[name], reversed_leg_coloring())
        bs = [model.plaquette_B(p) for p in model.graph.plaquettes]
        for b in bs:
            assert (b @ b - b).norm() <= 1e-12 * b.norm()
        first, second = bs
        assert (first @ second - second @ first).norm() <= 1e-12 * first.norm()
        assert model.ground_dim() == ground


def dense_scatter(model, p, g, coloring):
    """The dense B_p^g that the walk's entries scatter to by `np.add.at`:
    the oracle the stored triplets must equal bit for bit."""
    caught = []
    fresh = StringNetModel(model.data, model.coloring, strict=model.strict, probe=model.probe)

    def catch(*args):
        caught.append(StringNetModel._walk_Bg(fresh, *args))
        return caught[-1]

    fresh._walk_Bg = catch
    op = fresh.plaquette_Bg(p, g, coloring)
    (labels, slots, cols, vals), = caught
    matrix = np.zeros((op.dst.dim, op.src.dim), dtype=complex)
    np.add.at(matrix, (op.dst.rows(labels, slots), cols), vals)
    return matrix


class TestTriplets:
    """B_p^g is stored as the nonzero triplets of the walk's scatter."""

    @pytest.mark.parametrize("surface", ["theta", "grid2", "genus2"])
    @pytest.mark.parametrize("name", ["P21", "P32", "M21", "F212", "forced-P21"])
    def test_walk_triplets_match_dense_scatter(
        self, name, surface, theta_coloring, grid_coloring, genus_coloring
    ):
        coloring = {
            "theta": theta_coloring, "grid2": grid_coloring, "genus2": genus_coloring
        }[surface]
        model = block_model(name, coloring, strict=surface != "theta")
        g = model.probe
        for p in model.graph.plaquettes:
            for h, col in ((-g, model.coloring), (g, gauge_shift(model.coloring, p, g))):
                op = model.plaquette_Bg(p, h, col)
                matrix = dense_scatter(model, p, h, col)
                rows, cols = np.nonzero(matrix)
                assert np.array_equal(op.rows, rows) and np.array_equal(op.cols, cols)
                assert op.vals.tobytes() == matrix[rows, cols].tobytes()

    @pytest.mark.parametrize("name", ["P32", "forced-P21"])
    def test_walk_over_row_subset(self, name, grid_coloring):
        # the walk from every other basis row gives exactly the entries the
        # full walk has from those rows, in the same order and bytes
        model = block_model(name, grid_coloring, strict=True)
        g = model.probe
        for p in model.graph.plaquettes:
            for h, col in ((-g, model.coloring), (g, gauge_shift(model.coloring, p, g))):
                space = model.space(col)
                basis = (space.label_array, space.slot_array)
                half = np.arange(0, space.dim, 2)
                full = model._walk_Bg(p, h, col, *basis)
                part = model._walk_Bg(p, h, col, *(x[half] for x in basis))
                kept = full[2] % 2 == 0
                assert kept.any() and not kept.all()
                assert np.array_equal(part[0], full[0][kept])
                assert np.array_equal(part[1], full[1][kept])
                assert np.array_equal(half[part[2]], full[2][kept])
                assert part[3].tobytes() == full[3][kept].tobytes()

    def test_genus_two_inclusive_storage(self, genus_coloring):
        model = StringNetModel(FAMILIES["P21"], genus_coloring)
        op = model.plaquette_Bg(0, model.probe)
        assert op.src.dim == op.dst.dim == 5840  # 545 MB as a dense complex array
        assert sum(x.nbytes for x in (op.rows, op.cols, op.vals)) < 1e6


class TestExactForms:
    def test_theta_projector_is_slot_diagonal(self, theta_coloring):
        # toric-code point: B_p multiplies out every slot-0 admixture
        model = StringNetModel(FAMILIES["P21"], theta_coloring)
        space = model.space()
        want = np.diag((space.slot_array == 1).all(axis=1).astype(float)).astype(complex)
        assert np.array_equal(model.plaquette_B(0).matrix, want)

    @pytest.mark.parametrize("genus", [2, 3])
    def test_genus_two_single_face(self, genus):
        holonomy = (q("1/5"), q("2/5"), q("1/7"), q("3/7"), q("1/11"), q("2/11"))
        col = coloring_from_holonomy(build_genus(genus), holonomy[: 2 * genus])
        model = StringNetModel(FAMILIES["P21"], col, strict=True)
        dim = model.space().dim
        assert dim == 2 ** (2 * genus)
        # the walk around the unique face (18 corners at genus 2, 30 at
        # genus 3) collapses to the identity
        assert np.array_equal(model.plaquette_B(0).matrix, np.eye(dim))
        assert model.ground_dim() == dim

    def test_vertex_projector_diagonal(self, theta_coloring):
        model = StringNetModel(FAMILIES["P32"], theta_coloring)
        space = model.space()
        mat = model.vertex_Q(1).matrix
        want = np.diag([1.0 if slots[1] >= 1 else 0.0 for slots in space.slot_array])
        assert np.array_equal(mat, want.astype(complex))


class TestVertexSlots:
    """The vertex terms read off the slots, against the dense Q_v algebra."""

    @pytest.fixture(params=["P21", "M21", "forced"])
    def inclusive(self, request, theta_coloring):
        name = request.param
        data = ForcedMultiplicity(FAMILIES["P21"]) if name == "forced" else FAMILIES[name]
        model = StringNetModel(data, theta_coloring)
        assert (model.space().slot_array < 1).any()  # some Q_v is not the identity
        return model

    def test_ground_projector_matches_dense_vertex_product(self, inclusive):
        dense = LinearOperator.identity(inclusive.space())
        for p in inclusive.graph.plaquettes:
            dense = inclusive.plaquette_B(p) @ dense
        for v in range(inclusive.graph.num_vertices):
            dense = inclusive.vertex_Q(v) @ dense
        assert np.array_equal(inclusive.ground_projector().matrix, dense.matrix)

    def test_hamiltonian_matches_dense_vertex_terms(self, inclusive):
        ident = np.eye(inclusive.space().dim)
        plaquettes = sum(
            ident - inclusive.plaquette_B(p).matrix for p in inclusive.graph.plaquettes
        )
        vertices = sum(
            ident - inclusive.vertex_Q(v).matrix
            for v in range(inclusive.graph.num_vertices)
        )
        assert np.array_equal(inclusive.hamiltonian().matrix, plaquettes + vertices)

    def test_spectrum_matches_dense_eigenvalues(self, inclusive):
        values = np.linalg.eigvals(inclusive.hamiltonian().matrix)
        energies, counts = np.unique(np.round(values.real).astype(int), return_counts=True)
        spectrum = inclusive.spectrum()[0]
        assert spectrum == dict(zip(energies.tolist(), counts.tolist()))
        assert all(type(e) is int for e in spectrum)


class TestFusedGround:
    """`ground_dim` forms its projector on the fused (strict) space, against
    the trace of the dense inclusive `ground_projector`."""

    @pytest.mark.parametrize(
        "name",
        ["P21", "P32", "M21", "M32", "F212", "forced-P21", "forced-M21", "forced-F212"],
    )
    def test_theta_matches_dense_inclusive(self, name, theta_coloring):
        families = {**FAMILIES, "M32": BuiltinFamily("M", 3, 2.0)}
        data = families[name.split("-")[-1]]
        if name.startswith("forced"):
            data = ForcedMultiplicity(data)
        model = StringNetModel(data, theta_coloring)
        trace = np.trace(model.ground_projector().matrix)
        assert abs(trace - round(trace.real)) <= 1e-9
        assert model.ground_dim() == round(trace.real) > 0

    @pytest.mark.parametrize(
        "scale, message",
        [(2.0, "ground projector is not idempotent"),
         (1 + 5e-4, "projector trace .* is not near an integer")],
        ids=["doubled", "trace-off"],
    )
    def test_unstable_projector_rejected(self, theta_coloring, monkeypatch, scale, message):
        # 2 P is far from idempotent; (1 + tol/2) P passes the idempotency
        # gate at tol = 1e-3 but its trace, 4 (1 + tol/2), misses 4 by 2 tol
        projector = StringNetModel.ground_projector

        def scaled(self):
            p = projector(self)
            return LinearOperator(p.src, p.dst, p.rows, p.cols, p.vals * scale)

        monkeypatch.setattr(StringNetModel, "ground_projector", scaled)
        model = StringNetModel(FAMILIES["P21"], theta_coloring, strict=True)
        with pytest.raises(InstabilityError, match=message):
            model.ground_dim_residual(tol=1e-3)

    def test_grid_forced_multiplicity(self, grid_coloring):
        # the inclusive space is over the cap: the closed form N^(2g) is the oracle
        model = StringNetModel(ForcedMultiplicity(FAMILIES["P21"]), grid_coloring)
        with pytest.raises(DimensionCapError):
            model.space()
        assert model.ground_dim() == 2 ** 2


class TestSpectrum:
    def test_theta(self, theta_coloring):
        assert StringNetModel(FAMILIES["P21"], theta_coloring).spectrum()[0] == {
            0: 4,
            2: 8,
            3: 8,
        }
        assert StringNetModel(FAMILIES["P32"], theta_coloring).spectrum()[0] == {
            0: 9,
            2: 18,
            3: 27,
        }

    def test_grid_strict(self, grid_coloring):
        model = StringNetModel(FAMILIES["P21"], grid_coloring, strict=True)
        assert model.spectrum()[0] == {0: 4, 2: 24, 4: 4}
        model = StringNetModel(FAMILIES["P32"], grid_coloring, strict=True)
        assert model.spectrum()[0] == {0: 9, 2: 108, 3: 72, 4: 54}

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

    def test_nan_eigenvalue_fails(self, theta_coloring, monkeypatch):
        # a NaN eigenvalue fails the rounding gate rather than being counted
        model = StringNetModel(FAMILIES["P21"], theta_coloring)
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: np.full(len(m), np.nan + 0j))
        with pytest.raises(InstabilityError, match="residual nan exceeds"):
            model.spectrum()

    def test_dense_eigenvalues_integral(self, theta_coloring):
        h = StringNetModel(FAMILIES["P21"], theta_coloring).hamiltonian().matrix
        values = np.linalg.eigvals(h)
        assert max(abs(v - round(v.real)) for v in values) <= 1e-7
        assert int(np.sum(abs(values) < 0.5)) == 4
        nonzero = values[abs(values) >= 0.5]
        assert min(nonzero.real) >= 1 - 1e-7


def dense_counts(model):
    """Energy -> multiplicity from the dense eigenvalues of the Hamiltonian."""
    values = np.linalg.eigvals(model.hamiltonian().matrix)
    energies, counts = np.unique(np.round(values.real).astype(int), return_counts=True)
    return dict(zip(energies.tolist(), counts.tolist()))


BLOCK_CASES = ["P21", "P32", "M21", "M32", "F212", "forced-P21"]


def block_model(name, coloring, strict):
    families = {**FAMILIES, "M32": BuiltinFamily("M", 3, 2.0)}
    data = families[name.split("-")[-1]]
    if name.startswith("forced"):
        data = ForcedMultiplicity(data)
    return StringNetModel(data, coloring, strict=strict)


class TestInvariantBlocks:
    """The block-diagonal algebra against the partition and the dense path."""

    def test_components_match_union_find(self):
        rng = np.random.default_rng(3)
        n = 60
        rows, cols = rng.integers(0, n, 40), rng.integers(0, n, 40)
        parent = list(range(n))

        def root(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for r, c in zip(rows, cols):
            parent[root(r)] = root(c)
        want = {}
        for x in range(n):
            want.setdefault(root(x), []).append(x)
        got = operators._components(n, rows, cols)
        assert [b.tolist() for b in got] == sorted(want.values())
        assert operators._components(0, rows[:0], cols[:0]) == []

    @pytest.mark.parametrize("pack", [None, 1], ids=["packed", "components"])
    @pytest.mark.parametrize(
        "name, surface", [(n, "grid2") for n in ("P21", "P32", "M21", "F212")]
        + [(n, "theta") for n in ("P21", "P32", "M21", "F212")],
    )
    def test_blocks_partition_and_hold_every_Bp(
        self, name, surface, pack, monkeypatch, theta_coloring, grid_coloring
    ):
        if pack is not None:
            monkeypatch.setattr(operators, "_PACK", pack)
        grid = surface == "grid2"
        model = block_model(name, grid_coloring if grid else theta_coloring, strict=grid)
        blocks = model._invariant_blocks()
        dim = model.space().dim
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(dim))
        inside = np.zeros((dim, dim), dtype=bool)
        for b in blocks:
            inside[np.ix_(b, b)] = True
        for p in model.graph.plaquettes:
            assert not model.plaquette_B(p).matrix[~inside].any()
        if name == "P32" and grid:
            assert [len(b) for b in blocks] == [27] * 9

    @pytest.mark.parametrize("surface", ["theta", "grid2"])
    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_Bp_is_dense_product_of_factors(self, name, surface, theta_coloring, grid_coloring):
        # B_p = B_p^g B_p^(-g), the raise acting from the shifted coloring
        grid = surface == "grid2"
        model = block_model(name, grid_coloring if grid else theta_coloring, strict=grid)
        g = model.probe
        for p in model.graph.plaquettes:
            mid = gauge_shift(model.coloring, p, g)
            dense = model.plaquette_Bg(p, g, mid).matrix @ model.plaquette_Bg(p, -g).matrix
            assert np.abs(model.plaquette_B(p).matrix - dense).max() <= 1e-12

    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_grid_spectrum_matches_dense(self, name, grid_coloring):
        model = block_model(name, grid_coloring, strict=True)
        assert model.spectrum()[0] == dense_counts(model)

    def test_grid3(self):
        coloring = coloring_from_holonomy(build_torus("grid", 3), (q("1/7"), q("2/7")))
        model = StringNetModel(FAMILIES["P21"], coloring, strict=True)
        assert [len(b) for b in model._invariant_blocks()] == [256] * 4
        assert model.ground_dim() == 4
        spectrum = {0: 4, 2: 144, 4: 504, 6: 336, 8: 36}
        assert model.spectrum()[0] == dense_counts(model) == spectrum


def joint_split(model, tol=1e-10):
    """Energy -> multiplicity by splitting each invariant block jointly
    along the commuting projectors: first into the Q_v sectors, by the
    count of slots at 0, then each sector into the ranges of B_p and
    1 - B_p on it, found by two SVDs, for one B_p after another.  Every
    sector must be filled by the two ranges."""
    parts = model._invariant_blocks()
    bs = [model.plaquette_B(p).dense_blocks(parts) for p in model.graph.plaquettes]
    zeros = (model.space().slot_array < 1).sum(axis=1)
    out = collections.Counter()
    for part, *mats in zip(parts, *bs):
        ident = np.eye(len(part), dtype=complex)
        counts = zeros[part]
        sectors = [(ident[:, counts == n], n) for n in sorted(set(counts.tolist()))]
        for proj in mats:
            updated = []
            for basis, energy in sectors:
                r = basis.conj().T @ (proj @ basis)
                u, sing, _ = np.linalg.svd(r)
                rank = int(np.sum(sing > tol))
                u2, sing2, _ = np.linalg.svd(np.eye(len(r)) - r)
                corank = int(np.sum(sing2 > tol))
                assert rank + corank == len(r), "projector eigenspaces do not fill a sector"
                if rank:
                    updated.append((basis @ u[:, :rank], energy))
                if corank:
                    updated.append((basis @ u2[:, :corank], energy + 1))
            sectors = updated
        for basis, energy in sectors:
            out[energy] += basis.shape[1]
    assert sum(out.values()) == model.space().dim
    return dict(out)


class TestJointSplit:
    """The per-block eigenvalues of H against the joint splitting."""

    @pytest.mark.parametrize("pack", [None, 1], ids=["packed", "components"])
    @pytest.mark.parametrize(
        "name, surface",
        [(n, "grid2") for n in BLOCK_CASES]
        + [(n, "theta") for n in BLOCK_CASES]
        + [(n, "genus2") for n in ("M21", "M32", "F212")]
        + [("P21", "grid3")],
    )
    def test_spectrum_matches_joint_split(
        self, name, surface, pack, monkeypatch, theta_coloring, grid_coloring,
        genus_coloring,
    ):
        if pack is not None:
            monkeypatch.setattr(operators, "_PACK", pack)
        coloring = {
            "theta": theta_coloring,
            "grid2": grid_coloring,
            "grid3": coloring_from_holonomy(build_torus("grid", 3), (q("1/7"), q("2/7"))),
            "genus2": genus_coloring,
        }[surface]
        model = block_model(name, coloring, strict=surface != "theta")
        assert model.spectrum()[0] == joint_split(model)


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

    def test_non_cocycle_rejected(self, theta_coloring):
        values = list(theta_coloring.values)
        values[0] += q("1/7")  # generic, but no longer closed at its vertices
        col = Coloring(theta_coloring.graph, values)
        with pytest.raises(AdmissibilityError, match="violates a vertex condition"):
            StringNetModel(FAMILIES["P21"], col)

    def test_walk_target_outside_space_rejected(self, theta_coloring, monkeypatch):
        model = StringNetModel(FAMILIES["P21"], theta_coloring, strict=True)
        lost = lambda self, labels, slots: np.full(len(labels), -1)
        monkeypatch.setattr(StateSpace, "rows", lost)
        with pytest.raises(InstabilityError, match="plaquette move left the target space"):
            model.plaquette_Bg(0, model.probe)

    def test_stored_target_rejected(self, grid_coloring):
        # 1/14 - 4/7 lands on -1/2, killed by the six-torsion test
        model = StringNetModel(FAMILIES["P21"], grid_coloring, strict=True)
        plaquette = model.graph.plaquettes[0]
        with pytest.raises(GaugeAdmissibilityError):
            model.plaquette_Bg(plaquette, q("4/7"))

    def test_walk_labels_rejected(self, theta_coloring):
        # the stored coloring survives the shift but the walk crosses zero
        model = StringNetModel(FAMILIES["P21"], theta_coloring)
        with pytest.raises(GaugeAdmissibilityError):
            model.plaquette_Bg(0, q("1/5"))


class TestPlaquetteArgument:
    """A Plaquette names a face of the model's graph by index and darts."""

    def test_foreign_plaquette_refused(self, grid_coloring):
        model = StringNetModel(FAMILIES["P21"], grid_coloring, strict=True)
        theta, grid3 = build_torus("theta"), build_torus("grid", 3)
        # other darts at an index the model's graph has, and an index it lacks
        for face in (theta.plaquettes[0], grid3.plaquettes[1], grid3.plaquettes[8]):
            with pytest.raises(DataFormatError, match=f"is not plaquette {face.index}"):
                model.plaquette_Bg(face, model.probe)

    def test_equal_plaquette_accepted(self, grid_coloring):
        model = StringNetModel(FAMILIES["P21"], grid_coloring, strict=True)
        g = model.probe
        for own, twin in zip(model.graph.plaquettes, build_torus("grid", 2).plaquettes):
            assert twin is not own and twin.darts == own.darts
            assert model.plaquette_Bg(twin, g) is model.plaquette_Bg(own, g)
            assert model.plaquette_B(twin) is model.plaquette_B(own)

    def test_integer_of_any_type(self, grid_coloring):
        model = StringNetModel(FAMILIES["P21"], grid_coloring, strict=True)
        g = model.probe
        assert model.plaquette_B(np.int64(0)) is model.plaquette_B(0)
        assert model.plaquette_Bg(np.int64(0), g) is model.plaquette_Bg(0, g)
        with pytest.raises(TypeError):
            model.plaquette_B(0.0)


class TestCaching:
    def test_operators_are_reused(self, theta_coloring):
        model = StringNetModel(FAMILIES["P21"], theta_coloring)
        assert model.plaquette_B(0) is model.plaquette_B(0)
        assert model.plaquette_Bg(0, q("1/4")) is model.plaquette_Bg(0, q("1/4"))
        assert model.space() is model.space(theta_coloring)


def fresh_data(name):
    """A new data object for an acceptance case name, with a cold cache."""
    kinds = {
        "P21": ("P", 2, 1.0), "P32": ("P", 3, 2.0), "M21": ("M", 2, 1.0),
        "M32": ("M", 3, 2.0), "F212": ("F", 2, 1.0, 2.0),
    }
    wrap = {"forced": ForcedMultiplicity, "doubled": DoubledMultiplicity}
    *prefix, base = name.split("-")
    data = BuiltinFamily(*kinds[base])
    return wrap[prefix[0]](data) if prefix else data


# (holonomy, graph, strict) of the surfaces the shared-cache cases run on
CACHE_SURFACES = {
    "theta": (("1/5", "2/5"), ("theta",), False),
    "grid2": (("1/7", "2/7"), ("grid", 2), True),
    "genus2-strict": (("1/5", "2/5", "1/7", "3/7"), 2, True),
    "genus2-inclusive": (("1/5", "2/5", "1/7", "3/7"), 2, False),
}
CACHE_CASES = [
    (name, surface)
    for name in ("P21", "P32", "M21", "M32", "F212", "forced-P21")
    for surface in CACHE_SURFACES
] + [("doubled-P21", "theta")]


def cache_model(data, surface):
    holonomy, graph, strict = CACHE_SURFACES[surface]
    graph = build_genus(graph) if isinstance(graph, int) else build_torus(*graph)
    coloring = coloring_from_holonomy(graph, tuple(map(q, holonomy)))
    return StringNetModel(data, coloring, strict=strict, dim_cap=1 << 18)


class TestSharedCache:
    """Every model, state space, count and validation run over one data
    object reads its one `data.blocks`."""

    def test_one_cache_per_data(self, theta_coloring, grid_coloring, monkeypatch):
        made, read = [], []
        init, corner = BlockCache.__init__, BlockCache.corner

        def counted_init(self, data):
            made.append(self)
            init(self, data)

        def counted_corner(self, *ids):
            read.append(self)
            return corner(self, *ids)

        monkeypatch.setattr(BlockCache, "__init__", counted_init)
        monkeypatch.setattr(BlockCache, "corner", counted_corner)
        data = BuiltinFamily("P", 2, 1.0)
        model = StringNetModel(data, theta_coloring)
        assert model.ground_dim() == 4  # on the model's fused twin
        assert model.spectrum()[0][0] == 4  # on the model's own space
        assert StringNetModel(data, grid_coloring, strict=True).ground_dim() == 4
        assert made == [data.blocks]
        assert read and all(cache is data.blocks for cache in read)
        assert not hasattr(model, "_tables") and not hasattr(model, "blocks")
        assert not hasattr(StringNetModel, "_corner_table")

        validate(data, [q("1/5"), q("2/5")])
        assert made == [data.blocks]
        fresh = BuiltinFamily("P", 2, 1.0)
        validate(fresh, [q("1/5"), q("2/5")])
        assert made == [data.blocks, fresh.blocks]

    @pytest.mark.parametrize("name, surface", CACHE_CASES)
    def test_warm_cache_triplets_match_cold(self, name, surface):
        # warm a cache with a model on another coloring, so the case's
        # degrees get other ids than in a cold cache
        warm = fresh_data(name)
        other = "theta" if name.startswith("doubled") else "grid2"
        holonomy = {"theta": ("1/7", "3/7"), "grid2": ("1/11", "3/11")}[other]
        _, graph, strict = CACHE_SURFACES[other]
        coloring = coloring_from_holonomy(build_torus(*graph), tuple(map(q, holonomy)))
        first = StringNetModel(warm, coloring, strict=strict)
        for p in first.graph.plaquettes:
            first.plaquette_B(p)
        cold = fresh_data(name)
        models = [cache_model(data, surface) for data in (warm, cold)]
        g = models[1].probe
        factors = []
        for model in models:
            coloring = model.coloring
            factors.append([
                op
                for p in model.graph.plaquettes
                for op in (
                    model.plaquette_Bg(p, -g),
                    model.plaquette_Bg(p, g, gauge_shift(coloring, p, g)),
                )
            ])
        values = models[1].coloring.values
        assert [warm.blocks.id(v) for v in values] != [cold.blocks.id(v) for v in values]
        for hot, fresh in zip(*factors):
            for attr in ("rows", "cols", "vals"):
                assert getattr(hot, attr).tobytes() == getattr(fresh, attr).tobytes()
