"""Vertex and plaquette operators, the Hamiltonian, and its spectrum.

The plaquette term is built from half-plaquette moves B_p^s that fuse a
degree-g string s into the boundary walk of p.  Walking the face orbit,
each corner contributes one 6j symbol coupling the old walk label, the
new walk label, the outward leg label and the string, together with a
d-weight for the new label; vertex slots ride along the walk, entering
at the stored slot on the first visit to a vertex and leaving at the
output slot on the last.  Summing over all new labelings with degrees
lowered by deg(s) gives a map from the space over Phi to the space over
the gauge-shifted coloring.

Edges the walk traverses twice (both darts on one face) are reprocessed:
the second visit reads the label produced by the first, dualized, and
its own output sets the final edge label.  A leg that is itself a walk
edge contributes whichever of its old or new labels has the degree the
corner needs; the mismatch of old and new degrees (by deg(s), nonzero
for generic s) makes the choice unambiguous.

The six label degrees at every corner depend on the coloring and g,
not on the basis state, so each corner reads one 6j block per degree
tuple through the model's `BlockCache` (valued at its nonzero entries
by the pointwise `sixj`, so stored off-support table entries stay
zero), with labels as integer indices: duals via `dual_perm`,
d-weights via `scalar_vectors`.  For multiplicity-free data the walk runs
breadth-first over every string s of degree g and every source column
at once: a frontier of numpy arrays (string, column, chosen label
indices, amplitude) grows by one walk position per step, takes in the
corners whose labels are complete, and sheds its zero amplitudes; the
survivors are located in the target basis by `StateSpace.rows` and
scattered into the matrix.  Data with a branching bound above 1
(`mult_bound > 1`) instead takes `_dfs_general`, a depth-first search
per column that reads labels, duals and 6j symbols pointwise and
contracts the branching slots with einsum at each leaf.  Both read the
basis from the spaces' `label_array`/`slot_array`.

B_p^g sums the moves over s with b-weights; B_p = B_p^g B_p^(-g) for
any probe degree g that keeps every intermediate coloring admissible,
and is a projector independent of the probe.  The Hamiltonian counts
violated vertex and plaquette projectors, so its spectrum is found by
jointly splitting the space along the commuting family.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from .data import BlockCache, LWData
from .errors import (
    AdmissibilityError,
    DataFormatError,
    DomainError,
    GaugeAdmissibilityError,
    InstabilityError,
    MissingDataError,
    ProbeSearchError,
)
from .group import GroupElement
from .states import LinearOperator, StateSpace
from .surface import Coloring, Plaquette, gauge_shift, is_admissible

__all__ = ["StringNetModel", "probe_candidates", "choose_probe"]


def probe_candidates(
    data: LWData, coloring: Coloring, limit: int = 64
) -> Iterator[GroupElement]:
    """Degrees g keeping g and every edge degree +-g generic and labeled."""
    degrees = set(coloring.values)
    for g in itertools.islice(data.probe_degrees(), limit):
        if g.is_zero or not data.singular.is_generic(g):
            continue
        try:
            data.labels(g), data.labels(-g)
            ok = True
            for phi in degrees:
                for shifted in (phi + g, phi - g):
                    if not data.singular.is_generic(shifted):
                        ok = False
                        break
                    data.labels(shifted)
                if not ok:
                    break
        except MissingDataError:
            continue
        if ok:
            yield g


def choose_probe(data: LWData, coloring: Coloring) -> GroupElement:
    for g in probe_candidates(data, coloring):
        return g
    raise ProbeSearchError(
        "no probe degree keeps all shifted edge degrees generic"
    )


class _Corner:
    """Static data for one corner of a plaquette walk."""

    __slots__ = ("pos", "vertex", "leg", "leg_pos", "leg_direct")

    def __init__(self, pos, vertex, leg, leg_pos, leg_direct):
        self.pos = pos                # corner i sits at the head of dart t_i
        self.vertex = vertex
        self.leg = leg                # third dart at the vertex, pointing out
        self.leg_pos = leg_pos        # walk position of the leg edge, if any
        self.leg_direct = leg_direct  # True when the leg dart is t_m itself


class _Walk:
    """Coloring-independent combinatorics of one plaquette boundary."""

    def __init__(self, graph, plaquette: Plaquette):
        darts = plaquette.darts
        n = len(darts)
        pos_of_dart = {h: i for i, h in enumerate(darts)}
        self.darts = darts
        self.edges = plaquette.edges
        self.first = []   # position of the first traversal of this edge
        seen = {}
        for i, e in enumerate(self.edges):
            self.first.append(seen.setdefault(e, i))
        self.corners = []
        for i, t in enumerate(darts):
            arrive = t ^ 1
            depart = graph.rho(arrive)
            leg = graph.rho(depart)
            if darts[(i + 1) % n] != depart:
                raise InstabilityError("face walk is not rotation-consistent")
            if leg // 2 in (t // 2, depart // 2):
                raise DataFormatError(
                    "plaquette touches a vertex with a repeated edge;"
                    " such graphs are not supported"
                )
            if leg in pos_of_dart:
                leg_pos, leg_direct = pos_of_dart[leg], True
            elif leg ^ 1 in pos_of_dart:
                leg_pos, leg_direct = pos_of_dart[leg ^ 1], False
            else:
                leg_pos, leg_direct = None, None
            self.corners.append(
                _Corner(i, graph.vertex_of(arrive), leg, leg_pos, leg_direct)
            )
        self.vertices = sorted({c.vertex for c in self.corners})
        self.visits = {v: [] for v in self.vertices}
        for c in self.corners:
            self.visits[c.vertex].append(c.pos)


class StringNetModel:
    """All operators of one model over a fixed base coloring."""

    def __init__(
        self,
        data: LWData,
        coloring: Coloring,
        strict: bool = False,
        dim_cap: int = 8192,
        probe: Optional[GroupElement] = None,
    ):
        if not coloring.is_cocycle():
            raise AdmissibilityError("base coloring violates a vertex condition")
        if not is_admissible(coloring, data.singular):
            edge = next(
                e
                for e, value in enumerate(coloring.values)
                if not data.singular.is_generic(value)
            )
            raise AdmissibilityError(
                f"edge {edge} carries singular degree {coloring.values[edge]}"
            )
        self.data = data
        self.coloring = coloring
        self.graph = coloring.graph
        self.strict = strict
        self.dim_cap = dim_cap
        self._probe = probe
        self._spaces = {}
        self._walks = {}
        self.blocks = BlockCache(data)
        self._tables = {}
        self._bg_cache = {}
        self._b_cache = {}

    # -- plumbing ------------------------------------------------------------

    @property
    def probe(self) -> GroupElement:
        if self._probe is None:
            self._probe = choose_probe(self.data, self.coloring)
        return self._probe

    def space(self, coloring: Optional[Coloring] = None) -> StateSpace:
        col = coloring or self.coloring
        key = col.values
        if key not in self._spaces:
            self._spaces[key] = StateSpace(
                self.data, col, strict=self.strict, dim_cap=self.dim_cap
            )
        return self._spaces[key]

    def _plaquette(self, p: Union[int, Plaquette]) -> Plaquette:
        return self.graph.plaquettes[p] if isinstance(p, int) else p

    def _walk(self, p: Plaquette) -> _Walk:
        if p.index not in self._walks:
            self._walks[p.index] = _Walk(self.graph, p)
        return self._walks[p.index]

    # -- vertex term -----------------------------------------------------------

    def vertex_Q(
        self, v: int, coloring: Optional[Coloring] = None
    ) -> LinearOperator:
        space = self.space(coloring)
        diag = (space.slot_array[:, v] >= 1).astype(float)
        return LinearOperator(space, space, np.diag(diag).astype(complex))

    # -- plaquette moves --------------------------------------------------------

    def plaquette_Bg(
        self,
        p: Union[int, Plaquette],
        g: GroupElement,
        coloring: Optional[Coloring] = None,
    ) -> LinearOperator:
        """Sum of b(s) B_p^s over the simple objects s of degree g."""
        p = self._plaquette(p)
        col = coloring or self.coloring
        key = (p.index, g, col.values)
        if key in self._bg_cache:
            return self._bg_cache[key]
        src = self.space(col)
        target = gauge_shift(col, p, -g)
        if not is_admissible(target, self.data.singular):
            raise GaugeAdmissibilityError(
                f"gauge shift by {-g} at plaquette {p.index} hits a singular degree"
            )
        dst = self.space(target)
        matrix = np.zeros((dst.dim, src.dim), dtype=complex)
        self._accumulate_Bg(p, g, src, dst, matrix)
        op = LinearOperator(src, dst, matrix)
        self._bg_cache[key] = op
        return op

    def plaquette_B(
        self,
        p: Union[int, Plaquette],
        coloring: Optional[Coloring] = None,
        g: Optional[GroupElement] = None,
    ) -> LinearOperator:
        """The plaquette projector B_p^g B_p^(-g) at a probe degree g."""
        p = self._plaquette(p)
        col = coloring or self.coloring
        g = g if g is not None else self.probe
        key = (p.index, g, col.values)
        if key in self._b_cache:
            return self._b_cache[key]
        lower = self.plaquette_Bg(p, -g, col)
        mid = gauge_shift(col, p, g)
        raise_ = self.plaquette_Bg(p, g, mid)
        op = raise_ @ lower
        self._b_cache[key] = op
        return op

    # -- the walk algorithm -----------------------------------------------------

    def _accumulate_Bg(self, p, g, src, dst, matrix):
        """Add the sum over labels s of degree g of b(s) B_p^s to matrix."""
        data = self.data
        walk = self._walk(p)
        n = len(walk.darts)
        strings = data.labels(g)  # first: a singular g stays a DomainError
        col_values = src.coloring.values

        # degree bookkeeping is choice-independent: input-at-visit and
        # output degrees per position, then the old/new call per leg
        o_deg = [None] * n
        for i, t in enumerate(walk.darts):
            if walk.first[i] == i:
                v = col_values[t // 2]
                o_deg[i] = v if t % 2 == 0 else -v
        for i in range(n):
            if walk.first[i] != i:
                o_deg[i] = g - o_deg[walk.first[i]]
        n_deg = [phi - g for phi in o_deg]
        try:
            candidates = [data.labels(d) for d in n_deg]
        except DomainError as exc:
            # stored degrees can survive a shift (an edge walked both ways)
            # while the walk labels still pass through a singular degree
            raise GaugeAdmissibilityError(str(exc)) from exc

        leg_uses_new = [False] * n
        deps = [set() for _ in range(n)]
        for c in walk.corners:
            i = c.pos
            nxt = (i + 1) % n
            deps[i].update((i, nxt))
            if walk.first[nxt] != nxt:
                deps[i].add(walk.first[nxt])
            if walk.first[i] != i:
                deps[i].add(walk.first[i])
            if c.leg_pos is None:
                continue
            m, sign = c.leg_pos, (1 if c.leg_direct else -1)
            need = o_deg[i] - o_deg[nxt]
            if need == sign * o_deg[m]:
                if walk.first[m] != m:
                    deps[i].add(walk.first[m])
            elif need == sign * n_deg[m]:
                leg_uses_new[i] = True
                deps[i].add(m)
            else:
                raise InstabilityError(
                    "no leg label of the required degree at corner"
                    f" {i} of plaquette {p.index}"
                )
        ready_at = [[] for _ in range(n)]
        for i in range(n):
            ready_at[max(deps[i])].append(i)

        if data.mult_bound > 1:
            for s in strings:
                self._dfs_general(
                    s, src, dst, matrix, walk, candidates, ready_at, leg_uses_new
                )
            return
        self._contract(
            g, src, dst, matrix, walk, o_deg, n_deg, candidates, ready_at, leg_uses_new
        )

    def _contract(
        self, g, src, dst, matrix, walk, o_deg, n_deg, candidates, ready_at, leg_uses_new
    ):
        """Multiplicity-free walk over every string and source column at once.

        The frontier holds one row per live partial labeling: the string
        index, the source column, the label index chosen at each position
        so far, and the amplitude.  Step j extends every row by each
        candidate at position j, multiplies in the corners whose labels
        are then all known, and drops the rows whose amplitude vanished.
        """
        blocks = self.blocks
        n = len(walk.darts)
        col_values = src.coloring.values
        labels = src.label_array

        def along(h):  # per source column: label index read along dart h
            x = labels[:, h // 2]
            return x if h % 2 == 0 else blocks.perm(col_values[h // 2])[x]

        try:
            first_old = {
                i: along(t) for i, t in enumerate(walk.darts) if walk.first[i] == i
            }
            fixed_leg = {c.pos: along(c.leg) for c in walk.corners if c.leg_pos is None}
            perm_old = [blocks.perm(d) for d in o_deg]
            perm_new = [blocks.perm(d) for d in n_deg]
            d_new = [blocks.scalars(d)[0] for d in n_deg]
            b = blocks.scalars(g)[1]
            tables = []
            for c in walk.corners:
                i = c.pos
                nxt = (i + 1) % n
                if c.leg_pos is None:
                    leg_deg = col_values[c.leg // 2]
                    leg_deg = leg_deg if c.leg % 2 == 0 else -leg_deg
                else:  # the degree `leg_uses_new` was chosen to match
                    leg_deg = o_deg[i] - o_deg[nxt]
                degs = (n_deg[i], g, o_deg[i], -o_deg[nxt], leg_deg, -n_deg[nxt])
                tables.append(self._corner_table(degs))
        except DomainError as exc:
            raise GaugeAdmissibilityError(str(exc)) from exc

        live = np.flatnonzero((src.slot_array[:, walk.vertices] > 0).all(axis=1))
        string = np.repeat(np.arange(len(b)), len(live))
        col = np.tile(live, len(b))
        amp = np.ones(len(col), dtype=complex)
        chosen = []

        def old(i):
            f = walk.first[i]
            return first_old[i][col] if f == i else perm_new[f][chosen[f]]

        for j in range(n):
            k = len(candidates[j])
            string, col, amp = (np.repeat(x, k) for x in (string, col, amp))
            chosen = [np.repeat(x, k) for x in chosen]
            chosen.append(np.tile(np.arange(k), len(amp) // k))
            for i in ready_at[j]:
                c = walk.corners[i]
                nxt = (i + 1) % n
                m = c.leg_pos
                if m is None:
                    leg = fixed_leg[i][col]
                elif leg_uses_new[i]:
                    leg = chosen[m] if c.leg_direct else perm_new[m][chosen[m]]
                else:
                    leg = old(m) if c.leg_direct else perm_old[m][old(m)]
                vals = tables[i][
                    chosen[i], string, old(i), perm_old[nxt][old(nxt)], leg,
                    perm_new[nxt][chosen[nxt]],
                ]
                amp = amp * (d_new[i][chosen[i]] * vals)
            keep = np.flatnonzero(amp)
            if len(keep) < len(amp):
                string, col, amp = string[keep], col[keep], amp[keep]
                chosen = [x[keep] for x in chosen]

        # an edge's final label comes from its last visit
        last = {e: i for i, e in enumerate(walk.edges)}
        out = labels[col]
        for i, t in enumerate(walk.darts):
            if last[t // 2] == i:
                out[:, t // 2] = chosen[i] if t % 2 == 0 else perm_new[i][chosen[i]]
        slots = src.slot_array[col]
        slots[:, walk.vertices] = 1
        rows = dst.rows(out, slots)
        if (rows < 0).any():
            raise InstabilityError("plaquette move left the target space")
        np.add.at(matrix, (rows, col), b[string] * amp)

    def _corner_table(self, degs):
        """Multiplicity-free 6j over the six label axes of one corner.

        The block gives the nonzero pattern and pointwise `sixj` gives the
        values, so an entry a table stores outside the delta support
        reads as zero here, as it does pointwise.
        """
        table = self._tables.get(degs)
        if table is None:
            block = self.blocks.sixj(degs)[..., 0, 0, 0, 0]
            labels = [self.data.labels(d) for d in degs]
            table = np.zeros_like(block)
            for idx in zip(*np.nonzero(block)):
                js = [ls[x] for ls, x in zip(labels, idx)]
                table[idx] = self.data.sixj(js, (1, 1, 1, 1))
            self._tables[degs] = table
        return table

    def _dfs_general(
        self, s, src, dst, matrix, walk, candidates, ready_at, leg_uses_new
    ):
        """Slot-multiplicity walk: a depth-first search per source column
        that contracts the corner blocks at each leaf.

        The A slots chain cyclically around the walk and the C slots chain
        per vertex across its visits; first-visit C slots are sliced at the
        stored value and last-visit ones stay free as the output axes.
        """
        data = self.data
        n = len(walk.darts)
        mb = data.mult_bound
        chosen = [None] * n
        pool = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
        a_letter = [next(pool) for _ in range(n)]
        link_letter = {}
        out_letter = {}
        for v in walk.vertices:
            seq = walk.visits[v]
            for r in range(len(seq) - 1):
                link_letter[seq[r], "out"] = link_letter[seq[r + 1], "in"] = next(pool)
            out_letter[v] = next(pool)

        subs, first_visit = [], set()
        for c in walk.corners:
            i = c.pos
            seq = walk.visits[c.vertex]
            sub = a_letter[i]
            if i == seq[0]:
                first_visit.add(i)
            else:
                sub += link_letter[i, "in"]
            sub += out_letter[c.vertex] if i == seq[-1] else link_letter[i, "out"]
            sub += a_letter[(i + 1) % n]
            subs.append(sub)
        spec = ",".join(subs) + "->" + "".join(out_letter[v] for v in walk.vertices)
        last = {e: i for i, e in enumerate(walk.edges)}

        values = src.coloring.values

        def along(h, col):  # label read along dart h in source column col
            lab = data.labels(values[h // 2])[src.label_array[col, h // 2]]
            return lab if h % 2 == 0 else data.dual(lab)

        def o_label(i, col):
            if walk.first[i] == i:
                return along(walk.darts[i], col)
            return data.dual(chosen[walk.first[i]])

        def leg_label(c, col):
            if c.leg_pos is None:
                return along(c.leg, col)
            m = c.leg_pos
            lab = chosen[m] if leg_uses_new[c.pos] else o_label(m, col)
            return lab if c.leg_direct else data.dual(lab)

        def block(c, col):
            i = c.pos
            nxt = (i + 1) % n
            js = (
                chosen[i],
                s,
                o_label(i, col),
                data.dual(o_label(nxt, col)),
                leg_label(c, col),
                data.dual(chosen[nxt]),
            )
            arr = np.zeros((mb,) * 4, dtype=complex)
            for idx in np.ndindex(arr.shape):
                arr[idx] = data.sixj(js, tuple(a + 1 for a in idx))
            arr *= chosen[i].d
            if i in first_visit:
                arr = arr[:, src.slot_array[col, c.vertex] - 1, :, :]
            return arr

        def out_labels(col):
            labels = src.label_array[col].copy()
            for i, t in enumerate(walk.darts):
                if last[t // 2] == i:
                    lab = chosen[i] if t % 2 == 0 else data.dual(chosen[i])
                    labels[t // 2] = data.label_index(lab)
            return labels

        def rec(j, acc, col):
            if j == n:
                ordered = [arr for _, arr in sorted(acc, key=lambda t: t[0])]
                amps = np.einsum(spec, *ordered)
                labels = out_labels(col)
                for idx in np.ndindex(amps.shape):
                    amp = amps[idx]
                    if amp == 0:
                        continue
                    out_slots = src.slot_array[col].copy()
                    out_slots[walk.vertices] = np.array(idx) + 1
                    row = dst.rows(labels[None], out_slots[None])[0]
                    if row < 0:
                        raise InstabilityError(
                            "plaquette move left the target space"
                        )
                    matrix[row, col] += s.b * amp
                return
            for lab in candidates[j]:
                chosen[j] = lab
                grown = acc
                dead = False
                for ci in ready_at[j]:
                    arr = block(walk.corners[ci], col)
                    if not arr.any():
                        dead = True
                        break
                    grown = grown + [(ci, arr)]
                if not dead:
                    rec(j + 1, grown, col)

        for col in np.flatnonzero((src.slot_array[:, walk.vertices] > 0).all(axis=1)):
            rec(0, [], col)

    # -- assembled model ---------------------------------------------------------

    def hamiltonian(self, coloring: Optional[Coloring] = None) -> LinearOperator:
        col = coloring or self.coloring
        space = self.space(col)
        ident = LinearOperator.identity(space)
        h = LinearOperator.zero(space, space)
        for p in self.graph.plaquettes:
            h = h + (ident - self.plaquette_B(p, col))
        for v in range(self.graph.num_vertices):
            h = h + (ident - self.vertex_Q(v, col))
        return h

    def ground_projector(self, coloring: Optional[Coloring] = None) -> LinearOperator:
        col = coloring or self.coloring
        space = self.space(col)
        op = LinearOperator.identity(space)
        for p in self.graph.plaquettes:
            op = self.plaquette_B(p, col) @ op
        for v in range(self.graph.num_vertices):
            op = self.vertex_Q(v, col) @ op
        return op

    def ground_dim(
        self, coloring: Optional[Coloring] = None, tol: float = 1e-9
    ) -> int:
        return self.ground_dim_residual(coloring, tol)[0]

    def ground_dim_residual(
        self, coloring: Optional[Coloring] = None, tol: float = 1e-9
    ) -> Tuple[int, float]:
        """Ground dimension and idempotency residual ||P P - P|| of the
        ground projector P, formed once."""
        proj = self.ground_projector(coloring)
        residual = float(np.linalg.norm((proj @ proj - proj).matrix))
        if residual > tol * max(1.0, np.linalg.norm(proj.matrix)):
            raise InstabilityError(
                f"ground projector is not idempotent (residual {residual:.3e})"
            )
        trace = np.trace(proj.matrix)
        dim = round(trace.real)
        if abs(trace - dim) > max(tol, 1e-7 * max(1, abs(trace))):
            raise InstabilityError(f"projector trace {trace} is not near an integer")
        return int(dim), residual

    def spectrum(
        self, coloring: Optional[Coloring] = None, tol: float = 1e-8
    ) -> dict:
        """Energy -> multiplicity by joint splitting along the projectors."""
        col = coloring or self.coloring
        space = self.space(col)
        projectors = [self.plaquette_B(p, col) for p in self.graph.plaquettes]
        projectors += [self.vertex_Q(v, col) for v in range(self.graph.num_vertices)]
        sectors = [(np.eye(space.dim, dtype=complex), 0)]
        for proj in projectors:
            updated = []
            for basis, energy in sectors:
                r = basis.conj().T @ (proj.matrix @ basis)
                k = basis.shape[1]
                u, sing, _ = np.linalg.svd(r)
                rank = int(np.sum(sing > tol))
                u2, sing2, _ = np.linalg.svd(np.eye(k) - r)
                corank = int(np.sum(sing2 > tol))
                if rank + corank != k:
                    raise InstabilityError(
                        "projector eigenspaces do not fill a joint sector"
                    )
                if rank:
                    updated.append((basis @ u[:, :rank], energy))
                if corank:
                    updated.append((basis @ u2[:, :corank], energy + 1))
            sectors = updated
        out = {}
        for basis, energy in sectors:
            out[energy] = out.get(energy, 0) + basis.shape[1]
        if sum(out.values()) != space.dim:
            raise InstabilityError("sector dimensions do not add up")
        return out
