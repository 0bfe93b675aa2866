"""Closed oriented surfaces as trivalent ribbon graphs.

A surface triangulation enters only through its dual graph: a trivalent
graph with a cyclic ordering of the half-edges (darts) at each vertex.
Edge ``e`` owns darts ``2e`` and ``2e+1``; a dart points away from the
vertex holding it, and the dart map ``alpha`` (h -> h^1) flips an edge.
Faces are the orbits of ``h -> rho(alpha(h))`` where ``rho`` rotates
darts at a vertex; they are the plaquettes of the lattice model, and
the orbit traverses each plaquette boundary with the interior on a
fixed side, matching the corner conventions of the plaquette operator.

Colorings assign a group element to each edge, read along the direction
of the even dart; the vertex (cocycle) condition makes them simplicial
1-cocycles of the triangulation.  Their cohomology class is given by
holonomies along cycles transverse to the graph: paths in the
plaquette-adjacency (dual) graph, which cross edges instead of running
along them.  `coloring_from_holonomy` builds a cocycle of a given class.
"""

from __future__ import annotations

import collections
from functools import cached_property
from typing import Optional, Sequence

from .errors import DataFormatError, DomainError
from .group import GroupElement, SingularSet

__all__ = [
    "RibbonGraph",
    "Plaquette",
    "Coloring",
    "build_torus",
    "build_genus",
    "parse_surface",
    "coloring_from_holonomy",
    "gauge_shift",
    "is_admissible",
]


# One corner of a plaquette walk: corner `pos` sits at the head of dart
# t_pos, at `vertex`; `leg` is the third dart there, pointing out; `leg_pos`
# is the walk position m of the leg edge, if any, and `leg_direct` is True
# when the leg dart is t_m itself.
_Corner = collections.namedtuple("_Corner", "pos vertex leg leg_pos leg_direct")


class Plaquette:
    """One face of `graph`: the cyclic dart walk around it, starting at
    its least dart.  Its corners, the first visit of each position's
    edge and the vertices it visits are derived on first use."""

    def __init__(self, index: int, darts: Sequence[int], graph: RibbonGraph):
        self.index = index
        self.darts = tuple(darts)
        self.edges = tuple(h // 2 for h in self.darts)
        self.graph = graph

    @cached_property
    def first(self) -> tuple:
        """Position of the first traversal of each position's edge."""
        return tuple(map(self.edges.index, self.edges))

    @cached_property
    def corners(self) -> tuple:
        """The `_Corner` at each walk position."""
        pos = {h: i for i, h in enumerate(self.darts)}
        corners = []
        for i, t in enumerate(self.darts):
            depart = self.darts[(i + 1) % len(self.darts)]
            leg = self.graph.rho(depart)
            if leg // 2 in (t // 2, depart // 2):
                raise DataFormatError(
                    "plaquette touches a vertex with a repeated edge;"
                    " such graphs are not supported"
                )
            m = pos.get(leg, pos.get(leg ^ 1))
            direct = None if m is None else leg in pos
            corners.append(_Corner(i, self.graph.vertex_of(depart), leg, m, direct))
        return tuple(corners)

    @cached_property
    def visits(self) -> dict:
        """Each walk vertex, ascending -> its corner positions in walk order."""
        vertices = sorted({c.vertex for c in self.corners})
        return {v: [c.pos for c in self.corners if c.vertex == v] for v in vertices}

    @property
    def vertices(self) -> list:
        return list(self.visits)

    def __repr__(self):
        return f"Plaquette({self.index}, darts={self.darts})"


class RibbonGraph:
    """Trivalent graph with cyclic dart order at each vertex."""

    def __init__(self, vertices: Sequence[Sequence[int]], kind: Optional[tuple] = None):
        self.vertices = tuple(tuple(v) for v in vertices)
        self.kind = kind
        seen = {}
        for vi, triple in enumerate(self.vertices):
            if len(triple) != 3:
                raise DataFormatError(f"vertex {vi} is not trivalent: {triple}")
            for h in triple:
                if h in seen:
                    raise DataFormatError(f"dart {h} appears at two vertices")
                seen[h] = vi
        n = len(seen)
        if n % 2 or set(seen) != set(range(n)):
            raise DataFormatError("darts must be exactly 0..2E-1, each used once")
        self.num_edges = n // 2
        self.num_vertices = len(self.vertices)
        self._vertex_of = [seen[h] for h in range(n)]
        self._rho = [0] * n
        for triple in self.vertices:
            for i, h in enumerate(triple):
                self._rho[h] = triple[(i + 1) % 3]
        self.plaquettes = self._trace_faces()
        self.genus = (2 - self.num_vertices + self.num_edges - len(self.plaquettes)) // 2
        if self.num_vertices - self.num_edges + len(self.plaquettes) != 2 - 2 * self.genus:
            raise DataFormatError("odd Euler characteristic: graph is not orientable")

    # -- structure maps ---------------------------------------------------

    def rho(self, h: int) -> int:
        return self._rho[h]

    def vertex_of(self, h: int) -> int:
        return self._vertex_of[h]

    def _trace_faces(self):
        todo = set(range(2 * self.num_edges))
        faces = []
        while todo:
            start = min(todo)
            walk = []
            h = start
            while True:
                walk.append(h)
                todo.remove(h)
                h = self._rho[h ^ 1]
                if h == start:
                    break
            faces.append(walk)
        faces.sort(key=lambda w: w[0])
        return tuple(Plaquette(i, w, self) for i, w in enumerate(faces))

    def vertex_darts_from(self, h: int) -> tuple:
        """The triple at h's vertex in rotation order starting at h."""
        return (h, self._rho[h], self._rho[self._rho[h]])

    def canonical_vertex_triple(self, v: int) -> tuple:
        """Rotation order starting at the least dart; fixes delta/gamma slots."""
        least = min(self.vertices[v])
        return self.vertex_darts_from(least)

    def __repr__(self):
        return (
            f"RibbonGraph(V={self.num_vertices}, E={self.num_edges},"
            f" F={len(self.plaquettes)}, genus={self.genus})"
        )


class Coloring:
    """Group values on edges, read along each edge's even dart."""

    def __init__(self, graph: RibbonGraph, values: Sequence[GroupElement]):
        if len(values) != graph.num_edges:
            raise DomainError(
                f"expected {graph.num_edges} edge values, got {len(values)}"
            )
        self.graph = graph
        self.values = tuple(values)

    def value_of_dart(self, h: int) -> GroupElement:
        v = self.values[h // 2]
        return v if h % 2 == 0 else -v

    def is_cocycle(self) -> bool:
        for triple in self.graph.vertices:
            total = self.value_of_dart(triple[0] ^ 1)
            for h in triple[1:]:
                total = total + self.value_of_dart(h ^ 1)
            if not total.is_zero:
                return False
        return True

    def __repr__(self):
        return "Coloring(" + ", ".join(map(str, self.values)) + ")"


def is_admissible(coloring: Coloring, singular: SingularSet) -> bool:
    return all(singular.is_generic(v) for v in coloring.values)


def gauge_shift(coloring: Coloring, plaquette: Plaquette, g: GroupElement) -> Coloring:
    """Add g along the plaquette boundary walk (and -g against it)."""
    values = list(coloring.values)
    for h in plaquette.darts:
        e = h // 2
        values[e] = values[e] + g if h % 2 == 0 else values[e] - g
    return Coloring(coloring.graph, values)


# -- builders --------------------------------------------------------------


def build_torus(kind: str, n: int = 0) -> RibbonGraph:
    """The two torus builders: "theta" and "grid" (n >= 1)."""
    if kind == "theta":
        return RibbonGraph([(0, 2, 4), (1, 3, 5)], kind=("theta",))
    if kind != "grid":
        raise DataFormatError(f"unknown torus builder {kind!r}")
    if n < 1:
        raise DataFormatError("grid size must be at least 1")

    # Triangulate the n x n square torus with diagonals: lower triangle
    # L(i,j) and upper triangle U(i,j) per cell.  The dual graph has one
    # vertex per triangle and one edge per triangulation edge: H(i,j)
    # between L(i,j) and U(i,j-1), V(i,j) between U(i,j) and L(i-1,j),
    # D(i,j) between L(i,j) and U(i,j).
    def eid(which: int, i: int, j: int) -> int:
        return 3 * ((i % n) * n + (j % n)) + which

    H, V, D = 0, 1, 2

    def L(i, j):
        return (
            2 * eid(H, i, j),
            2 * eid(V, i + 1, j) + 1,
            2 * eid(D, i, j),
        )

    def U(i, j):
        return (
            2 * eid(D, i, j) + 1,
            2 * eid(H, i, j + 1) + 1,
            2 * eid(V, i, j),
        )

    vertices = []
    for i in range(n):
        for j in range(n):
            vertices.append(L(i, j))
    for i in range(n):
        for j in range(n):
            vertices.append(U(i, j))
    graph = RibbonGraph(vertices, kind=("grid", n))
    if len(graph.plaquettes) != n * n:
        raise DataFormatError(
            f"grid({n}) ribbon structure traced {len(graph.plaquettes)} faces,"
            f" expected {n * n}"
        )
    return graph


def build_genus(g: int) -> RibbonGraph:
    """Trivalent one-faced graph for the closed genus-g surface (g >= 1).

    Start from the one-vertex rose whose rotation word interleaves the
    standard handle pairs, then blow the 4g-valent vertex up into a path
    of trivalent vertices joined by connector edges; the blow-up keeps
    the single face.  Genus 1 is the theta graph of `build_torus`.
    """
    if g < 1:
        raise DomainError("genus must be at least 1 (the sphere has no "
                          "admissible colorings on these graphs)")
    if g == 1:
        return build_torus("theta")
    # loop edge k owns darts (2k, 2k+1); the rose rotation runs through all
    # first darts then all second darts, so no proper partial degree sum
    # along the walk is forced to vanish and connectors can stay generic
    word = [2 * k for k in range(2 * g)] + [2 * k + 1 for k in range(2 * g)]
    m = len(word)  # 4g darts around the rose
    conn0 = 4 * g  # connector t = edge 2g+t with darts (conn0+2t, conn0+2t+1)
    vertices = [(word[0], word[1], conn0)]
    for t in range(1, m - 3):
        vertices.append((conn0 + 2 * t - 1, word[t + 1], conn0 + 2 * t))
    vertices.append((conn0 + 2 * (m - 3) - 1, word[m - 2], word[m - 1]))
    graph = RibbonGraph(vertices, kind=("genus", g))
    if len(graph.plaquettes) != 1:
        raise DataFormatError(
            f"genus-{g} blow-up traced {len(graph.plaquettes)} faces, expected 1"
        )
    return graph


def parse_surface(spec: str) -> RibbonGraph:
    parts = spec.split(":")
    sized = parts[-1].isdecimal()
    if parts[0] == "torus":
        if parts[1:] == ["theta"]:
            return build_torus("theta")
        if len(parts) == 3 and parts[1] == "grid" and sized:
            return build_torus("grid", int(parts[2]))
    elif parts[0] == "genus" and len(parts) == 2 and sized:
        return build_genus(int(parts[1]))
    raise DataFormatError(
        f"bad surface spec {spec!r}; expected torus:theta, torus:grid:N"
        " or genus:G"
    )


def coloring_from_holonomy(graph: RibbonGraph, hol: Sequence[GroupElement]) -> Coloring:
    """A cocycle with 2*genus prescribed holonomies, one per handle curve.

    Only built graphs carry a construction recipe; each recipe is exact
    (rational divisions only) and lands the requested class.
    """
    if len(hol) != 2 * graph.genus:
        raise DomainError(
            f"need {2 * graph.genus} holonomies for genus {graph.genus},"
            f" got {len(hol)}"
        )
    kind = graph.kind
    if kind is None:
        raise DataFormatError(
            "this graph was not made by a builder and has no coloring recipe"
        )
    if kind[0] == "theta":
        h1, h2 = hol
        return Coloring(graph, (h1, h2, -h1 - h2))
    if kind[0] == "grid":
        n = kind[1]
        a = hol[0].divided_by(n)
        b = hol[1].divided_by(n)
        values = []
        for _ in range(n * n):
            values.extend([-a, b, a + b])  # H, V, D per cell
        return Coloring(graph, values)
    if kind[0] == "genus":
        g = kind[1]
        zero = hol[0].signature.zero()
        values = list(hol) + [zero] * (graph.num_edges - 2 * g)

        def along(h: int) -> GroupElement:
            v = values[h // 2]
            return v if h % 2 == 0 else -v

        # sweep the caterpillar: vertex t holds the even dart of connector
        # t, whose inward contribution there is -value, so adding the
        # current defect zeroes it; the final vertex then closes for free
        for t, triple in enumerate(graph.vertices[:-1]):
            defect = zero
            for h in triple:
                defect = defect + along(h ^ 1)
            values[2 * g + t] = values[2 * g + t] + defect
        coloring = Coloring(graph, values)
        if not coloring.is_cocycle():
            raise DataFormatError("genus recipe failed to close")  # pragma: no cover
        return coloring
    raise DataFormatError(f"no coloring recipe for graph kind {kind!r}")
