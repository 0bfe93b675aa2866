"""Ribbon graph builders, colorings, and holonomy fingerprints."""

import random
from collections import deque
from fractions import Fraction

import pytest

from rlw import (
    Coloring,
    DataFormatError,
    DomainError,
    QMODZ,
    RibbonGraph,
    SingularSet,
    build_genus,
    build_torus,
    coloring_from_holonomy,
    gauge_shift,
    is_admissible,
    parse_surface,
)


def q(value):
    return QMODZ.element(Fraction(value))


def hol2(a, b):
    return (q(a), q(b))


def holonomies(coloring):
    """Fingerprint of the cohomology class of a cocycle: the oracle for
    `coloring_from_holonomy`.

    Build a breadth-first spanning tree of the plaquette-adjacency graph
    (rooted at plaquette 0, neighbours scanned in edge order) and return,
    per non-tree edge in ascending order, the holonomy of the transverse
    cycle it closes.  Crossing edge e from the plaquette of dart 2e+1
    into the plaquette of dart 2e picks up +value(e); tree paths carry
    signed potentials with the same rule.  Gauge shifts change no entry.
    """
    graph = coloring.graph
    face_of = {h: p.index for p in graph.plaquettes for h in p.darts}
    potential = [None] * len(graph.plaquettes)
    potential[0] = coloring.values[0].signature.zero()
    in_tree = set()
    queue = deque([0])
    while queue:
        p = queue.popleft()
        for e in range(graph.num_edges):
            fwd, bwd = face_of[2 * e], face_of[2 * e + 1]
            if p == bwd and potential[fwd] is None:
                potential[fwd] = potential[p] + coloring.values[e]
            elif p == fwd and potential[bwd] is None:
                potential[bwd] = potential[p] - coloring.values[e]
            else:
                continue
            in_tree.add(e)
            queue.append(fwd if p == bwd else bwd)
    return tuple(
        potential[face_of[2 * e + 1]] + coloring.values[e] - potential[face_of[2 * e]]
        for e in range(graph.num_edges)
        if e not in in_tree
    )


class TestBuilders:
    def test_theta_counts(self):
        g = build_torus("theta")
        assert (g.num_vertices, g.num_edges, len(g.plaquettes)) == (2, 3, 1)
        assert g.genus == 1

    def test_theta_face_walk(self):
        g = build_torus("theta")
        face = g.plaquettes[0]
        assert face.darts == (0, 3, 4, 1, 2, 5)
        assert face.edges == (0, 1, 2, 0, 1, 2)
        # the corner after dart t_i sits at the head of t_i; its leg is the
        # third dart there, and every leg is itself a walk dart
        assert face.first == (0, 1, 2, 0, 1, 2)
        assert face.visits == {0: [1, 3, 5], 1: [0, 2, 4]}
        assert [(c.vertex, c.leg, c.leg_pos) for c in face.corners] == [
            (1, 5, 5), (0, 0, 0), (1, 3, 1), (0, 4, 2), (1, 1, 3), (0, 2, 4)
        ]
        assert all(c.leg in face.darts for c in face.corners)

    def test_grid_counts(self):
        g = build_torus("grid", 2)
        assert (g.num_vertices, g.num_edges, len(g.plaquettes)) == (8, 12, 4)
        assert g.genus == 1

    def test_grid_faces_scale(self):
        for n in (1, 2, 3):
            g = build_torus("grid", n)
            assert len(g.plaquettes) == n * n
            assert g.genus == 1

    def test_grid_one_matches_theta_counts(self):
        g1, th = build_torus("grid", 1), build_torus("theta")
        assert (g1.num_vertices, g1.num_edges) == (th.num_vertices, th.num_edges)
        assert len(g1.plaquettes) == len(th.plaquettes)

    def test_genus_one_is_theta(self):
        genus, theta = build_genus(1), build_torus("theta")
        assert (genus.vertices, genus.kind) == (theta.vertices, theta.kind)

    def test_genus_builders(self):
        for g in (2, 3):
            graph = build_genus(g)
            assert graph.num_vertices == 4 * g - 2
            assert graph.num_edges == 6 * g - 3
            assert len(graph.plaquettes) == 1
            assert graph.genus == g

    def test_genus_one_is_theta(self):
        assert build_genus(1).vertices == build_torus("theta").vertices

    def test_genus_zero_rejected(self):
        with pytest.raises(DomainError):
            build_genus(0)

    def test_bad_builder_args(self):
        with pytest.raises(DataFormatError):
            build_torus("hex")
        with pytest.raises(DataFormatError):
            build_torus("grid", 0)


class TestRibbonGraph:
    def test_rotation_queries(self):
        g = build_torus("theta")
        assert g.vertex_darts_from(2) == (2, 4, 0)
        assert g.canonical_vertex_triple(1) == (1, 3, 5)
        assert g.vertex_of(5) == 1

    def test_validation(self):
        with pytest.raises(DataFormatError):
            RibbonGraph([(0, 2, 4), (1, 3, 4)])  # dart at two vertices
        with pytest.raises(DataFormatError):
            RibbonGraph([(0, 1, 2, 3)])  # not trivalent
        with pytest.raises(DataFormatError):
            RibbonGraph([(0, 2, 7), (1, 3, 5)])  # darts not 0..2E-1

    def test_repeated_edge_fails_when_walked(self):
        # two loops joined by a bridge: the graph builds, but the face along
        # the bridge turns at a corner whose leg is the loop it arrived on
        graph = RibbonGraph([(0, 1, 2), (3, 4, 5)])
        face = graph.plaquettes[0]
        assert face.darts == (0, 2, 4, 3)
        with pytest.raises(DataFormatError, match="repeated edge"):
            face.corners

    def test_parse_surface(self):
        assert parse_surface("torus:theta").kind == ("theta",)
        assert parse_surface("torus:grid:3").num_edges == 27
        assert parse_surface("genus:2").genus == 2
        with pytest.raises(DataFormatError):
            parse_surface("sphere")
        with pytest.raises(DataFormatError, match="bad surface spec"):
            parse_surface("file:g.json")
        with pytest.raises(DataFormatError):
            parse_surface("torus:grid")
        for spec in ("torus:grid:x", "genus:two"):
            with pytest.raises(DataFormatError, match="bad surface spec"):
                parse_surface(spec)


class TestColoring:
    def test_dart_values(self):
        g = build_torus("theta")
        c = Coloring(g, (q("1/5"), q("2/5"), q("2/5")))
        assert c.value_of_dart(2) == q("2/5")
        assert c.value_of_dart(3) == q("3/5")

    def test_length_checked(self):
        with pytest.raises(DomainError):
            Coloring(build_torus("theta"), (q(0),))

    def test_cocycle_detection(self):
        g = build_torus("theta")
        assert Coloring(g, (q("1/5"), q("2/5"), q("2/5"))).is_cocycle()
        assert not Coloring(g, (q("1/5"), q("2/5"), q("1/5"))).is_cocycle()

    def test_recipes_are_cocycles(self):
        pairs = hol2("1/5", "2/5")
        for graph in (build_torus("theta"), build_torus("grid", 2), build_torus("grid", 3)):
            c = coloring_from_holonomy(graph, pairs)
            assert c.is_cocycle()
        c = coloring_from_holonomy(build_genus(2), pairs + hol2("1/7", "3/7"))
        assert c.is_cocycle()

    def test_theta_recipe_values(self):
        c = coloring_from_holonomy(build_torus("theta"), hol2("1/5", "2/5"))
        assert c.values == (q("1/5"), q("2/5"), q("2/5"))

    def test_zero_holonomy_zero_coloring(self):
        c = coloring_from_holonomy(build_torus("theta"), hol2(0, 0))
        assert all(v.is_zero for v in c.values)

    def test_grid_recipe_exact_division(self):
        c = coloring_from_holonomy(build_torus("grid", 3), hol2("1/7", "2/7"))
        assert c.values[0] == q(Fraction(-1, 21))

    def test_holonomy_count_checked(self):
        with pytest.raises(DomainError):
            coloring_from_holonomy(build_torus("theta"), (q("1/5"),))
        with pytest.raises(DomainError):
            coloring_from_holonomy(build_genus(2), hol2("1/5", "2/5"))

    def test_no_recipe_for_file_graphs(self):
        g = RibbonGraph(build_torus("theta").vertices)  # no builder kind
        with pytest.raises(DataFormatError):
            coloring_from_holonomy(g, hol2("1/5", "2/5"))


class TestHolonomies:
    def test_theta_round_trip(self):
        c = coloring_from_holonomy(build_torus("theta"), hol2("1/5", "2/5"))
        assert holonomies(c)[:2] == hol2("1/5", "2/5")

    def test_genus2_round_trip(self):
        target = hol2("1/5", "2/5") + hol2("1/7", "3/7")
        c = coloring_from_holonomy(build_genus(2), target)
        assert holonomies(c)[:4] == target

    def test_fingerprint_size(self):
        # chords of a spanning tree of the plaquette adjacency: E - F + 1
        for graph in (build_torus("theta"), build_torus("grid", 2), build_genus(2)):
            c = coloring_from_holonomy(
                graph, tuple(q(0) for _ in range(2 * graph.genus))
            )
            assert len(holonomies(c)) == graph.num_edges - len(graph.plaquettes) + 1

    def test_distinct_classes_distinct_fingerprints(self):
        g = build_torus("grid", 2)
        a = holonomies(coloring_from_holonomy(g, hol2("1/5", "2/5")))
        b = holonomies(coloring_from_holonomy(g, hol2("2/5", "1/5")))
        assert a != b

    def test_gauge_invariance(self):
        rng = random.Random(7)
        for graph in (build_torus("theta"), build_torus("grid", 2), build_genus(2)):
            hol = tuple(
                q(Fraction(rng.randrange(1, 30), 31)) for _ in range(2 * graph.genus)
            )
            c = coloring_from_holonomy(graph, hol)
            base = holonomies(c)
            for _ in range(20):
                p = graph.plaquettes[rng.randrange(len(graph.plaquettes))]
                c = gauge_shift(c, p, q(Fraction(rng.randrange(30), 31)))
                assert c.is_cocycle()
                assert holonomies(c) == base

    def test_gauge_shift_inverts(self):
        g = build_torus("grid", 2)
        c = coloring_from_holonomy(g, hol2("1/5", "2/5"))
        p = g.plaquettes[2]
        back = gauge_shift(gauge_shift(c, p, q("1/7")), p, q("-1/7"))
        assert back.graph is c.graph and back.values == c.values


class TestAdmissibility:
    def test_torsion_singular_set(self):
        x = SingularSet.torsion_dividing(6)
        g = build_torus("theta")
        assert not is_admissible(coloring_from_holonomy(g, hol2(0, 0)), x)
        assert not is_admissible(Coloring(g, (q("1/2"), q("1/5"), q("3/10"))), x)
        assert is_admissible(coloring_from_holonomy(g, hol2("1/5", "2/5")), x)
