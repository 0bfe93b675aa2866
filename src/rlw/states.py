"""State spaces attached to a colored graph, and operators between them.

A basis state over a coloring Phi labels each edge e with a simple
object of degree Phi(e) (read along the even dart) and each vertex with
a branching slot.  The slot at v ranges over 0..delta(v) inclusive,
where delta(v) is the branching number of the inward labels at v taken
in rotation order from the least dart; slot 0 is the unfused state that
the vertex projector annihilates.  Strict (fused) spaces keep the
labelings with every delta(v) >= 1 and only the slots 1..delta(v).
`count_states` gives the dimension of an inclusive space without building
it, by contracting the vertex branching numbers over the edge labels.

The basis is integer arrays, one row per state: `label_array[r, e]`
indexes labels(Phi(e)) and `slot_array[r, v]` is the slot at v.  Rows
run in lexicographic order of (labels, slots), as do their int64 codes,
which `rows` searches: each column a digit over its range in the basis.
Enumeration grows the labelings breadth-first over the edges in order,
reading the branching number of each vertex as soon as its last edge is
labeled.  Every vertex block is read at the stored label columns: its
axis for an even dart, which carries the label away from the vertex, is
dualized once per block by `BlockCache.dualized`.  It grows a chunk of rows
at a time, so a space far over its cap fails before its frontier is
built.  eta is read from the `scalar_vectors` and `gamma` blocks; a
space queries its data only through the data's shared `BlockCache`.

The natural pairing is indefinite: <psi|phi> = <psi| eta^{-1} |phi>_+
with eta the diagonal operator built from edge d/beta weights and
vertex gamma weights.  Adjoints of operators between such spaces are
taken with respect to this pairing.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

import numpy as np

from .data import LWData, _join
from .errors import DataFormatError, DimensionCapError
from .surface import Coloring

__all__ = ["StateSpace", "LinearOperator", "count_states"]

# labelings grown at once: bounds the frontier of a space far over its cap
_CHUNK = 1024
# entries of the largest intermediate of the counting contraction: by
# default einsum's greedy path admits none larger than its largest
# operand, which on a one-face surface leaves only the exponential sum
_CONTRACT_LIMIT = 1 << 20
# int64 holds row codes and counts below this (larger counts use Python ints)
_INT64_BOUND = 2**63


class _Labelings:
    """Edge labelings over one coloring, as stored label indices, and the
    vertex blocks indexed by them."""

    def __init__(self, data: LWData, coloring: Coloring):
        self.blocks = blocks = data.blocks
        self.counts = [len(data.labels(v)) for v in coloring.values]
        self.ids = [blocks.id(v) for v in coloring.values]
        graph = coloring.graph
        self.triples = list(map(graph.canonical_vertex_triple, range(graph.num_vertices)))

    def block(self, read, v: int) -> np.ndarray:
        """`read` at the inward degrees of v, each axis indexed by its
        edge's stored label: an even dart points its label away from v,
        so that axis is dualized."""
        triple = self.triples[v]
        dual = [k for k, h in enumerate(triple) if h % 2 == 0]
        return self.blocks.dualized(read, [self.ids[h // 2] for h in triple], dual)

    def at_vertex(self, read, lab: np.ndarray, v: int) -> np.ndarray:
        """`block(read, v)` read at the label columns of each row of `lab`."""
        return self.block(read, v)[tuple(lab[:, h // 2] for h in self.triples[v])]

    def chunks(self, strict: bool):
        """(labels, deltas) a chunk at a time, labelings in order: one row
        per labeling and one branching-number column per vertex.  Strict
        spaces drop a labeling once one of its vertices has delta 0."""
        counts, delta = self.counts, self.blocks.delta
        # vertices become checkable once their last edge is assigned
        finished_at = [[] for _ in counts]
        for v, triple in enumerate(self.triples):
            finished_at[max(h // 2 for h in triple)].append(v)

        def grow(lab):
            e = lab.shape[1]
            if e == len(counts):
                deg = [self.at_vertex(delta, lab, v) for v in range(len(self.triples))]
                yield lab, np.array(deg).T
                return
            k = counts[e]
            for lo in range(0, len(lab), _CHUNK):
                part = lab[lo : lo + _CHUNK]
                sub = np.column_stack(
                    [np.repeat(part, k, axis=0), np.tile(np.arange(k), len(part))]
                )
                if strict:
                    for v in finished_at[e]:
                        sub = sub[self.at_vertex(delta, sub, v) >= 1]
                yield from grow(sub)

        return grow(np.zeros((1, 0), np.intp))


def count_states(data: LWData, coloring: Coloring) -> int:
    """Dimension of the inclusive space over `coloring`, without building
    it: the contraction over the edge labels of one tensor delta + 1 per
    vertex, each axis indexed by its edge's stored label.  The count is
    exact: the contraction runs in int64 when a bound on every partial sum
    fits, and on Python integers otherwise."""
    labelings = _Labelings(data, coloring)
    if len(labelings.counts) > 52:  # einsum names axes with 52 letters
        raise DimensionCapError(
            f"cannot count the inclusive states of {len(labelings.counts)} edges"
            " (at most 52); use a strict space (--strict-fusion)"
        )
    operands, bound = [], math.prod(labelings.counts)
    for v, triple in enumerate(labelings.triples):
        tensor = labelings.block(labelings.blocks.delta, v).astype(np.int64) + 1
        bound *= int(tensor.max())
        operands += [tensor, [h // 2 for h in triple]]
    if bound >= _INT64_BOUND:
        operands[::2] = [t.astype(object) for t in operands[::2]]
    return int(np.einsum(*operands, [], optimize=("greedy", _CONTRACT_LIMIT)))


class StateSpace:
    """Finite basis of edge labelings and vertex slots over one coloring."""

    def __init__(
        self,
        data: LWData,
        coloring: Coloring,
        strict: bool = False,
        dim_cap: int = 8192,
    ):
        self.data = data
        self.coloring = coloring
        self.graph = coloring.graph
        self.strict = strict
        nv = self.graph.num_vertices
        labelings = _Labelings(data, coloring)
        labs = [np.zeros((0, len(labelings.counts)), np.intp)]
        degs = [np.zeros((0, nv), np.intp)]
        dim = 0
        for lab, deg in labelings.chunks(strict):
            dim += int(np.prod(deg if strict else deg + 1, axis=1).sum())
            if dim > dim_cap:
                hint = "" if strict else " or use a strict space (--strict-fusion)"
                raise DimensionCapError(
                    f"more than {dim_cap} states; raise dim_cap (--dim-cap){hint}"
                )
            labs.append(lab)
            degs.append(deg)
        lab = np.concatenate(labs)
        nslots = np.concatenate(degs) + (not strict)

        # a row's slots: the digits of its offset in its labeling's run, vertex 0 slowest
        runs = np.prod(nslots, axis=1)
        rep = np.repeat(np.arange(len(lab)), runs)
        offset = np.arange(len(rep)) - np.repeat(np.cumsum(runs) - runs, runs)
        slots = np.empty((len(rep), nv), np.intp)
        for v in reversed(range(nv)):
            offset, slots[:, v] = np.divmod(offset, nslots[rep, v])
        slots += strict

        blocks = labelings.blocks
        weight = np.ones(len(lab))
        for e, val in enumerate(labelings.ids):
            d, _, beta = blocks.scalars(val)
            weight = weight * (d / beta)[lab[:, e]]
        lab = lab[rep]
        gamma = np.ones(len(lab))
        for v in range(nv):
            s = slots[:, v]  # slot 0 reads gamma at n = m, and discards it
            fused = labelings.at_vertex(blocks.gamma, lab, v)[np.arange(len(s)), s - 1]
            gamma = gamma * np.where(s > 0, fused, 1.0)

        self.dim = len(lab)
        self.label_array, self.slot_array = lab, slots
        self.eta = weight[rep] / gamma
        if not (np.isfinite(self.eta) & (self.eta != 0)).all():
            raise DataFormatError("eta is singular: some d, beta or gamma is zero")

        # each column a digit over its range in the basis, slots after labels
        parts = (lab, slots)
        self._low = [a.min(axis=0) if self.dim else 0 for a in parts]
        self._radix = [a.max(axis=0, initial=0) - lo + 1 for a, lo in zip(parts, self._low)]
        radix = np.concatenate(self._radix)
        size = math.prod(radix.tolist())
        if size >= _INT64_BOUND:
            raise DimensionCapError(
                f"cannot code {self.dim} states in int64: their column ranges multiply past 2^63"
            )
        place = np.cumprod(np.append(radix[1:], 1)[::-1])[::-1]
        self._place = np.split(place, [lab.shape[1]])
        # the sorted row codes, then one past them all for a search to stop at
        codes = sum((a - lo) @ w for a, lo, w in zip(parts, self._low, self._place))
        self._codes = np.append(codes, size)

    def rows(self, labels: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Basis row of each state (labels[r], slots[r]); -1 where absent,
        as a state with a digit out of its column's range always is."""
        inside, code = True, 0
        for keys, low, radix, place in zip((labels, slots), self._low, self._radix, self._place):
            digits = keys - low
            inside = inside & ((digits >= 0) & (digits < radix)).all(axis=1)
            code = code + digits @ place
        pos = np.searchsorted(self._codes, code).clip(max=self.dim)
        return np.where(inside & (self._codes[pos] == code), pos, -1)

    # -- pairing -------------------------------------------------------------

    def inner_indef(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.vdot(x, y / self.eta))

    def __repr__(self):
        mode = "strict" if self.strict else "inclusive"
        return f"StateSpace(dim={self.dim}, {mode})"


def _places(n: int, parts) -> Tuple[np.ndarray, np.ndarray]:
    """Part (-1 for none) and position in it of each of range(n), for
    disjoint index arrays `parts`."""
    part, pos = np.full(n, -1), np.zeros(n, np.intp)
    for k, idx in enumerate(parts):
        part[idx], pos[idx] = k, np.arange(len(idx))
    return part, pos


class LinearOperator:
    """Sparse map between two state spaces, with the indefinite adjoint.

    The entries are the nonzero triplets (rows, cols, vals), duplicates
    summed, sorted by row and then by column.  `matrix` builds the dense
    array on each call; products join the triplets on the inner index.
    """

    def __init__(self, src: StateSpace, dst: StateSpace, rows, cols, vals):
        """The sum of the entries vals[i] at (rows[i], cols[i]); each
        entry is summed in the order given, as `np.add.at` would.  An
        entry outside dst.dim x src.dim raises `DataFormatError`."""
        outside = (rows < 0) | (rows >= dst.dim) | (cols < 0) | (cols >= src.dim)
        if outside.any():
            at = np.flatnonzero(outside)[0]
            raise DataFormatError(
                f"entry ({rows[at]}, {cols[at]}) lies outside an operator"
                f" from dim {src.dim} into dim {dst.dim}"
            )
        keys, at = np.unique(rows * src.dim + cols, return_inverse=True)
        summed = np.zeros(len(keys), dtype=complex)
        np.add.at(summed, at, vals)
        nz = summed != 0
        self.src, self.dst = src, dst
        self.rows, self.cols = np.divmod(keys[nz], max(src.dim, 1))
        self.vals = summed[nz]

    @classmethod
    def from_blocks(cls, src, dst, parts, blocks) -> "LinearOperator":
        """Dense blocks[k] at rows and columns parts[k], disjoint index arrays."""
        found = [(idx, block, np.nonzero(block)) for idx, block in zip(parts, blocks)]
        rows = [np.zeros(0, np.intp)] + [idx[r] for idx, _, (r, _) in found]
        cols = [np.zeros(0, np.intp)] + [idx[c] for idx, _, (_, c) in found]
        vals = [np.zeros(0, complex)] + [block[nz] for _, block, nz in found]
        return cls(src, dst, *map(np.concatenate, (rows, cols, vals)))

    @classmethod
    def identity(cls, space: StateSpace) -> "LinearOperator":
        diag = np.arange(space.dim)
        return cls(space, space, diag, diag, np.ones(space.dim))

    @property
    def matrix(self) -> np.ndarray:
        out = np.zeros((self.dst.dim, self.src.dim), dtype=complex)
        out[self.rows, self.cols] = self.vals
        return out

    def dense_blocks(self, parts) -> Iterator[np.ndarray]:
        """The dense block at rows and columns parts[k] for each k, the
        parts disjoint index arrays; entries in no such block are left out."""
        where, pos = _places(self.src.dim, parts)
        part = where[self.rows]
        inside = np.flatnonzero((part >= 0) & (part == where[self.cols]))
        inside = inside[np.argsort(part[inside], kind="stable")]
        bounds = np.searchsorted(part[inside], np.arange(len(parts) + 1))
        for k, idx in enumerate(parts):
            at = inside[bounds[k] : bounds[k + 1]]
            block = np.zeros((len(idx), len(idx)), dtype=complex)
            block[pos[self.rows[at]], pos[self.cols[at]]] = self.vals[at]
            yield block

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self after other."""
        if other.dst is not self.src:
            raise DataFormatError("composition spaces do not match")
        i, j = _join(self.cols, other.rows)
        return LinearOperator(
            other.src, self.dst, self.rows[i], other.cols[j], self.vals[i] * other.vals[j]
        )

    def __matmul__(self, other):
        return self.compose(other)

    def __sub__(self, other):
        if other.src is not self.src or other.dst is not self.dst:
            raise DataFormatError("operator spaces do not match")
        pairs = ((self.rows, other.rows), (self.cols, other.cols), (self.vals, -other.vals))
        return LinearOperator(self.src, self.dst, *map(np.concatenate, pairs))

    def norm(self) -> float:
        """The Frobenius norm."""
        return float(np.linalg.norm(self.vals))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dst.dim,) + vec.shape[1:], dtype=complex)
        vals = self.vals.reshape((-1,) + (1,) * (vec.ndim - 1))
        np.add.at(out, self.rows, vals * vec[self.cols])
        return out

    def adjoint(self) -> "LinearOperator":
        """Adjoint for the indefinite pairings of source and target."""
        vals = self.src.eta[self.cols] * self.vals.conj() / self.dst.eta[self.rows]
        return LinearOperator(self.dst, self.src, self.cols, self.rows, vals)

    def __repr__(self):
        return f"LinearOperator({self.src.dim} -> {self.dst.dim}, nnz {len(self.vals)})"
