"""State spaces attached to a colored graph, and operators between them.

A basis state over a coloring Phi labels each edge e with a simple
object of degree Phi(e) (read along the even dart) and each vertex with
a branching slot.  The slot at v ranges over 0..delta(v) inclusive,
where delta(v) is the branching number of the inward labels at v taken
in rotation order from the least dart; slot 0 is the unfused state that
the vertex projector annihilates.  Strict spaces keep only slot 1 of
admissible labelings and are available when every branching number is
at most one.

The natural pairing is indefinite: <psi|phi> = <psi| eta^{-1} |phi>_+
with eta the diagonal operator built from edge d/beta weights and
vertex gamma weights.  Adjoints of operators between such spaces are
taken with respect to this pairing.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from .data import Label, LWData
from .errors import DataFormatError, DimensionCapError
from .surface import Coloring

__all__ = ["StateSpace", "LinearOperator"]


class StateSpace:
    """Finite basis of edge labelings and vertex slots over one coloring."""

    def __init__(
        self,
        data: LWData,
        coloring: Coloring,
        strict: bool = False,
        dim_cap: int = 8192,
    ):
        if strict and data.mult_bound != 1:
            raise DataFormatError(
                "strict spaces need all branching numbers at most 1,"
                f" got bound {data.mult_bound}"
            )
        self.data = data
        self.coloring = coloring
        self.graph = coloring.graph
        self.strict = strict
        self.edge_labels = tuple(
            tuple(data.labels(v)) for v in coloring.values
        )
        graph = self.graph
        self._triples = tuple(
            graph.canonical_vertex_triple(v) for v in range(graph.num_vertices)
        )

        counts = [len(labs) for labs in self.edge_labels]
        total = 1
        for c in counts:
            total *= c
        if not strict and total > dim_cap:
            raise DimensionCapError(
                f"at least {total} states (cap {dim_cap}); "
                "raise the cap or use a strict space"
            )

        # vertices become checkable once their last edge is assigned
        finished_at = [[] for _ in range(graph.num_edges)]
        for v in range(graph.num_vertices):
            last = max(h // 2 for h in self._triples[v])
            finished_at[last].append(v)

        basis = []
        etas = []
        labeling = [0] * graph.num_edges
        deltas = [0] * graph.num_vertices

        def emit():
            weight = 1.0
            gammas = []
            for e, idx in enumerate(labeling):
                lab = self.edge_labels[e][idx]
                weight *= lab.d / lab.beta
            for v in range(graph.num_vertices):
                dv = deltas[v]
                i, j, k = (self._inward(labeling, h) for h in self._triples[v])
                col = [1.0] + [data.gamma(i, j, k, n) for n in range(1, dv + 1)]
                gammas.append(col)
            labels = tuple(labeling)
            slot_ranges = [
                range(1, deltas[v] + 1) if strict else range(deltas[v] + 1)
                for v in range(graph.num_vertices)
            ]
            for slots in itertools.product(*slot_ranges):
                g = 1.0
                for v, s in enumerate(slots):
                    g *= gammas[v][s]
                basis.append((labels, slots))
                etas.append(weight / g)
                if len(basis) > dim_cap:
                    raise DimensionCapError(
                        f"more than {dim_cap} states; raise the cap"
                    )

        def walk(e: int):
            if e == graph.num_edges:
                emit()
                return
            for idx in range(counts[e]):
                labeling[e] = idx
                ok = True
                for v in finished_at[e]:
                    deltas[v] = self._vertex_delta(labeling, v)
                    if strict and deltas[v] < 1:
                        ok = False
                        break
                if ok:
                    walk(e + 1)

        walk(0)
        self.basis = tuple(basis)
        self.dim = len(basis)
        self.index = {state: i for i, state in enumerate(self.basis)}
        # the basis as integer arrays: label index per edge, slot per vertex
        self.label_array = np.array(
            [st[0] for st in basis], dtype=np.intp
        ).reshape(self.dim, graph.num_edges)
        self.slot_array = np.array(
            [st[1] for st in basis], dtype=np.intp
        ).reshape(self.dim, graph.num_vertices)
        self.eta = np.array(etas, dtype=float)
        if self.dim and not np.all(self.eta):
            raise DataFormatError("eta is singular: some d, beta or gamma is zero")

    # -- labeling helpers --------------------------------------------------

    def _inward(self, labeling: Sequence[int], h: int) -> Label:
        """Label carried toward the vertex holding dart h."""
        lab = self.edge_labels[h // 2][labeling[h // 2]]
        return self.data.dual(lab) if h % 2 == 0 else lab

    def _vertex_delta(self, labeling: Sequence[int], v: int) -> int:
        i, j, k = (self._inward(labeling, h) for h in self._triples[v])
        return self.data.delta(i, j, k)

    def label(self, state: tuple, e: int) -> Label:
        return self.edge_labels[e][state[0][e]]

    def label_along(self, state: tuple, h: int) -> Label:
        lab = self.label(state, h // 2)
        return lab if h % 2 == 0 else self.data.dual(lab)

    def vertex_delta(self, state: tuple, v: int) -> int:
        return self._vertex_delta(state[0], v)

    def vertex_triple(self, v: int) -> tuple:
        return self._triples[v]

    def basis_vector(self, i: int) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[i] = 1.0
        return vec

    # -- pairings -----------------------------------------------------------

    def inner_plus(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.vdot(x, y))

    def inner_indef(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.vdot(x, y / self.eta))

    def __repr__(self):
        mode = "strict" if self.strict else "inclusive"
        return f"StateSpace(dim={self.dim}, {mode})"


class LinearOperator:
    """Matrix between two state spaces, with the indefinite adjoint."""

    def __init__(self, src: StateSpace, dst: StateSpace, matrix: np.ndarray):
        if matrix.shape != (dst.dim, src.dim):
            raise DataFormatError(
                f"matrix shape {matrix.shape} does not map"
                f" dim {src.dim} into dim {dst.dim}"
            )
        self.src = src
        self.dst = dst
        self.matrix = matrix

    @classmethod
    def identity(cls, space: StateSpace) -> "LinearOperator":
        return cls(space, space, np.eye(space.dim, dtype=complex))

    @classmethod
    def zero(cls, src: StateSpace, dst: StateSpace) -> "LinearOperator":
        return cls(src, dst, np.zeros((dst.dim, src.dim), dtype=complex))

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self after other."""
        if other.dst is not self.src:
            raise DataFormatError("composition spaces do not match")
        return LinearOperator(other.src, self.dst, self.matrix @ other.matrix)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        self._same_spaces(other)
        return LinearOperator(self.src, self.dst, self.matrix + other.matrix)

    def __sub__(self, other):
        self._same_spaces(other)
        return LinearOperator(self.src, self.dst, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return LinearOperator(self.src, self.dst, self.matrix * scalar)

    __rmul__ = __mul__

    def _same_spaces(self, other):
        if other.src is not self.src or other.dst is not self.dst:
            raise DataFormatError("operator spaces do not match")

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def adjoint(self) -> "LinearOperator":
        """Adjoint for the indefinite pairings of source and target."""
        mat = self.src.eta[:, None] * self.matrix.conj().T / self.dst.eta[None, :]
        return LinearOperator(self.dst, self.src, mat)

    def __repr__(self):
        return f"LinearOperator({self.src.dim} -> {self.dst.dim})"
