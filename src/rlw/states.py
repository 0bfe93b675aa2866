"""State spaces attached to a colored graph, and operators between them.

A basis state over a coloring Phi labels each edge e with a simple
object of degree Phi(e) (read along the even dart) and each vertex with
a branching slot.  The slot at v ranges over 0..delta(v) inclusive,
where delta(v) is the branching number of the inward labels at v taken
in rotation order from the least dart; slot 0 is the unfused state that
the vertex projector annihilates.  Strict spaces keep only slot 1 of
admissible labelings and are available when every branching number is
at most one.

The basis is integer arrays, one row per state: `label_array[r, e]`
indexes labels(Phi(e)) and `slot_array[r, v]` is the slot at v.  Rows
run in lexicographic order of (labels, slots), which `rows` searches.
Enumeration grows the labelings breadth-first over the edges in order,
reading the branching number of each vertex from one delta block per
inward-degree triple as soon as its last edge is labeled (inward labels
on even darts are dualized with `dual_perm`).  It grows a chunk of rows
at a time, so a space far over its cap fails before its frontier is
built.  eta is read from the `scalar_vectors` and `gamma` blocks; a
space queries its data only through its own `BlockCache`.

The natural pairing is indefinite: <psi|phi> = <psi| eta^{-1} |phi>_+
with eta the diagonal operator built from edge d/beta weights and
vertex gamma weights.  Adjoints of operators between such spaces are
taken with respect to this pairing.
"""

from __future__ import annotations

import math

import numpy as np

from .data import BlockCache, LWData
from .errors import DataFormatError, DimensionCapError
from .surface import Coloring

__all__ = ["StateSpace", "LinearOperator"]

# labelings grown at once: bounds the frontier of a space far over its cap
_CHUNK = 1024


def _records(arr: np.ndarray) -> np.ndarray:
    """Each row of an integer array as one record; records order
    lexicographically, field by field."""
    arr = np.ascontiguousarray(arr, dtype=np.intp)
    fields = [(f"f{i}", np.intp) for i in range(arr.shape[1])]
    return arr.view(np.dtype(fields)).reshape(len(arr))


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
        self.graph = graph = coloring.graph
        self.strict = strict
        values = coloring.values
        nv = graph.num_vertices
        counts = [len(data.labels(v)) for v in values]
        total = math.prod(counts)
        if not strict and total > dim_cap:
            raise DimensionCapError(
                f"at least {total} states (cap {dim_cap}); "
                "raise the cap or use a strict space"
            )
        blocks = BlockCache(data)
        triples = [graph.canonical_vertex_triple(v) for v in range(nv)]
        # vertices become checkable once their last edge is assigned
        finished_at = [[] for _ in values]
        for v, triple in enumerate(triples):
            finished_at[max(h // 2 for h in triple)].append(v)

        def inward(lab, h):  # degree and label indices carried toward h's vertex
            val, x = values[h // 2], lab[:, h // 2]
            return (val, x) if h % 2 else (-val, blocks.perm(val)[x])

        def inward_block(block, lab, v):
            (g1, x1), (g2, x2), (g3, x3) = (inward(lab, h) for h in triples[v])
            return block(g1, g2, g3)[x1, x2, x3]

        def grow(lab):
            """Labelings extending the rows of `lab`, in order; strict
            spaces drop a row once one of its vertices has delta 0."""
            e = lab.shape[1]
            if e == len(values):
                yield lab
                return
            k = counts[e]
            for lo in range(0, len(lab), _CHUNK):
                part = lab[lo : lo + _CHUNK]
                sub = np.column_stack(
                    [np.repeat(part, k, axis=0), np.tile(np.arange(k), len(part))]
                )
                if strict:
                    for v in finished_at[e]:
                        sub = sub[inward_block(blocks.delta, sub, v) >= 1]
                yield from grow(sub)

        labs = [np.zeros((0, len(values)), np.intp)]
        degs = [np.zeros((0, nv), np.intp)]
        dim = 0
        for lab in grow(np.zeros((1, 0), np.intp)):
            deg = np.array([inward_block(blocks.delta, lab, v) for v in range(nv)]).T
            dim += int(np.prod(deg if strict else deg + 1, axis=1).sum())
            if dim > dim_cap:
                raise DimensionCapError(f"more than {dim_cap} states; raise the cap")
            labs.append(lab)
            degs.append(deg)
        lab = np.concatenate(labs)
        nslots = np.concatenate(degs) + (not strict)

        # slots vary fastest, vertex 0 slowest: expand one vertex at a time
        rep = np.arange(len(lab))
        slots = np.zeros((len(lab), 0), np.intp)
        for v in range(nv):
            n = nslots[rep, v]
            start = np.repeat(np.cumsum(n) - n, n)
            rep, slots = np.repeat(rep, n), np.repeat(slots, n, axis=0)
            slots = np.column_stack([slots, np.arange(len(rep)) - start + strict])

        weight = np.ones(len(lab))
        for e, val in enumerate(values):
            d, _, beta = blocks.scalars(val)
            weight = weight * (d / beta)[lab[:, e]]
        lab = lab[rep]
        gamma = np.ones(len(lab))
        for v in range(nv):
            s = slots[:, v]  # slot 0 reads gamma at n = m, and discards it
            fused = inward_block(blocks.gamma, lab, v)[np.arange(len(s)), s - 1]
            gamma = gamma * np.where(s > 0, fused, 1.0)

        self.dim = len(lab)
        self._basis = np.hstack([lab, slots])
        self.label_array = self._basis[:, : len(values)]
        self.slot_array = self._basis[:, len(values) :]
        self.eta = weight[rep] / gamma
        if not (np.isfinite(self.eta) & (self.eta != 0)).all():
            raise DataFormatError("eta is singular: some d, beta or gamma is zero")

    def rows(self, labels: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Basis row of each state (labels[r], slots[r]); -1 where absent."""
        keys = _records(np.hstack([labels, slots]))
        basis = _records(self._basis)
        pos = np.searchsorted(basis, keys)
        hit = pos < self.dim
        hit[hit] = basis[pos[hit]] == keys[hit]
        return np.where(hit, pos, -1)

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
