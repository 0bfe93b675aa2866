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

Every label index in the walk is stored: it indexes the labels of its
edge's degree read along the even dart, whichever way the walk runs.
Edges the walk traverses twice (both darts on one face) are reprocessed:
the second visit reads the label produced by the first, and its own
output sets the final edge label.  A leg that is itself a walk edge
contributes whichever of its old or new labels has the degree the
corner needs; the mismatch of old and new degrees (by deg(s), nonzero
for generic s) makes the choice unambiguous.

The six label degrees at every corner depend on the coloring and g,
not on the basis state, so each corner reads one 6j block per degree
tuple through the data's shared `BlockCache` (`corner`: valued at its
nonzero entries by the pointwise `sixj`, so stored off-support table
entries stay zero).  An axis whose label is read against its stored
orientation takes the dual once per table, not once per row: the corner
tables and the d-weight vectors are read through `BlockCache.dualized`.
One walk serves all data: it runs breadth-first over every string s of
degree g and every basis row it is given at once, and reads no state
space.  A frontier of numpy arrays (string, source row, chosen label
indices, amplitude) grows by one walk position per step, contracts in
the corners whose labels are complete, and sheds its zero amplitudes.
Each amplitude is a tensor over the branching slots still open: the
slots chain around the walk and across each vertex's visits, and only
the output slot of each vertex survives to the end.  For multiplicity-free data every slot axis has size 1.
The corners and visits come from the `Plaquette`, derived once from
its graph.  The walk returns the target labels and slots of each
surviving entry, its source row and its value; `plaquette_Bg` locates
the targets in the gauge-shifted basis, and the (row, column, value)
triplets are the operator.

B_p^g sums the moves over s with b-weights; B_p = B_p^g B_p^(-g) for
any probe degree g that keeps every intermediate coloring admissible,
and is a projector independent of the probe.  The Hamiltonian counts
violated vertex and plaquette projectors; they commute, so its
eigenvalues are integers and give the spectrum with multiplicities.

The projectors are block diagonal: the connected components of the
union of the B_p nonzero patterns split the space into blocks that
every B_p and Q_v keeps.  The ground projector, its idempotency
residual and the eigenvalues of H run on dense sub-blocks cut out of
the triplets one block at a time.  B_p itself is the sparse product of
its two factors, joined on the intermediate states.
"""

from __future__ import annotations

import collections
import itertools
import operator
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from .data import LWData, _subscripts
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
from .states import LinearOperator, StateSpace, _places
from .surface import Coloring, Plaquette, gauge_shift, is_admissible

__all__ = ["StringNetModel", "probe_candidates", "choose_probe"]

# invariant blocks smaller than this many states are packed together, which
# bounds the number of dense per-block products and eigvals calls: the inclusive
# P:2:1 grid:2 space has 104,708 components in 3,282 packs, while the strict
# grid:2 (P:3:2, M:3:2) and grid:3 (P:2:1) spaces have no component under 27
_PACK = 32


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> list:
    """Sorted index arrays of the connected components of the graph on
    range(n) with edges (rows[i], cols[i]), in order of least index.

    Each node carries the least node it is known to reach: the labels
    spread along the edges by `np.minimum.at` and shortcut by pointer
    jumping until no edge joins two labels."""
    if n == 0:
        return []
    label = np.arange(n)
    while True:
        before = label.copy()
        np.minimum.at(label, rows, label[cols])
        np.minimum.at(label, cols, label[rows])
        while not np.array_equal(label[label], label):
            label = label[label]
        if np.array_equal(label, before):
            break
    order = np.argsort(label, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), n]
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def _pack(parts: list) -> list:
    """Consecutive parts joined, sorted, while the union stays within
    `_PACK` elements; a larger part stays alone.  A union of invariant
    blocks is invariant."""
    packs, run, size = [], [], 0
    for part in parts:
        if run and size + len(part) > _PACK:
            packs.append(np.sort(np.concatenate(run)))
            run, size = [], 0
        run.append(part)
        size += len(part)
    if run:
        packs.append(np.sort(np.concatenate(run)))
    return packs


def _probe_fault(data: LWData, coloring: Coloring, g: GroupElement):
    """Why g cannot probe `coloring`, as the error to raise, or None: g
    and every edge degree +-g must be generic and labeled."""
    if g.is_zero or not data.singular.is_generic(g):
        return GaugeAdmissibilityError(f"probe {g} is not a generic nonzero degree")
    try:
        data.labels(g), data.labels(-g)
        for phi in dict.fromkeys(coloring.values):
            for shifted in (phi + g, phi - g):
                if not data.singular.is_generic(shifted):
                    return GaugeAdmissibilityError(
                        f"probe {g} shifts edge {coloring.values.index(phi)}"
                        f" of degree {phi} to the singular degree {shifted}"
                    )
                data.labels(shifted)
    except MissingDataError as exc:
        return MissingDataError(f"probe {g} needs data the table lacks: {exc}")
    return None


def probe_candidates(
    data: LWData, coloring: Coloring, limit: int = 64
) -> Iterator[GroupElement]:
    """Degrees g keeping g and every edge degree +-g generic and labeled."""
    for g in itertools.islice(data.probe_degrees(), limit):
        if _probe_fault(data, coloring, g) is None:
            yield g


def choose_probe(data: LWData, coloring: Coloring) -> GroupElement:
    for g in probe_candidates(data, coloring):
        return g
    raise ProbeSearchError(
        "no probe degree keeps all shifted edge degrees generic"
    )


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
        for edge, value in enumerate(coloring.values):
            if not data.singular.is_generic(value):
                raise AdmissibilityError(f"edge {edge} carries singular degree {value}")
        if probe is not None and (fault := _probe_fault(data, coloring, probe)):
            raise fault
        self.data = data
        self.coloring = coloring
        self.graph = coloring.graph
        self.strict = strict
        self.dim_cap = dim_cap
        self._probe = probe
        self._spaces = {}
        self._bg_cache = {}
        self._b_cache = {}
        self._invariant = None

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
        """The model graph's plaquette of integer index p, or of p's index
        when p is a Plaquette walking the same darts; any other is refused."""
        faces = self.graph.plaquettes
        if not isinstance(p, Plaquette):
            return faces[operator.index(p)]
        if not (0 <= p.index < len(faces) and faces[p.index].darts == p.darts):
            raise DataFormatError(f"{p!r} is not plaquette {p.index} of the model's graph")
        return faces[p.index]

    # -- vertex term -----------------------------------------------------------

    def vertex_Q(self, v: int) -> LinearOperator:
        """The diagonal projector onto the states fused at v."""
        space = self.space()
        fused = np.flatnonzero(space.slot_array[:, v] >= 1)
        return LinearOperator(space, space, fused, fused, np.ones(len(fused)))

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
        labels, slots, cols, vals = self._walk_Bg(
            p, g, col, src.label_array, src.slot_array
        )
        rows = dst.rows(labels, slots)
        if (rows < 0).any():
            raise InstabilityError("plaquette move left the target space")
        op = LinearOperator(src, dst, rows, cols, vals)
        self._bg_cache[key] = op
        return op

    def plaquette_B(
        self, p: Union[int, Plaquette], g: Optional[GroupElement] = None
    ) -> LinearOperator:
        """The plaquette projector B_p^g B_p^(-g) at a probe degree g."""
        p = self._plaquette(p)
        g = g if g is not None else self.probe
        key = (p.index, g)
        if key in self._b_cache:
            return self._b_cache[key]
        lower = self.plaquette_Bg(p, -g)
        raise_ = self.plaquette_Bg(p, g, gauge_shift(self.coloring, p, g))
        op = raise_ @ lower
        self._b_cache[key] = op
        return op

    def _invariant_blocks(self) -> list:
        """Sorted index arrays that partition the model's space, each
        invariant under every B_p: the components of the union of their
        nonzero patterns, the small ones packed together."""
        if self._invariant is None:
            bs = [self.plaquette_B(p) for p in self.graph.plaquettes]
            rows = np.concatenate([b.rows for b in bs])
            cols = np.concatenate([b.cols for b in bs])
            self._invariant = _pack(_components(self.space().dim, rows, cols))
        return self._invariant

    # -- the walk algorithm -----------------------------------------------------

    def _walk_Bg(self, p, g, coloring, labels, slots):
        """The sum over labels s of degree g of b(s) B_p^s on the basis rows
        (`labels`, `slots`) over `coloring`: the target labeling and slots
        of each nonzero entry, the row it comes from, and its value.

        The walk runs breadth-first over every string and source row at
        once.  The frontier holds one row per live partial labeling: the
        string index, the source row, the label index chosen at each
        position so far, and the amplitude, a tensor over the branching
        slots still open.  Step j extends every row by each label at
        position j, contracts in the corners whose labels are then all
        known, and drops the rows whose tensor vanished.
        """
        data, blocks = self.data, self.data.blocks
        add, neg = blocks.add, blocks.neg
        n = len(p.darts)
        data.labels(g)  # first: a singular g stays a DomainError
        col_ids = [blocks.id(v) for v in coloring.values]
        g = blocks.id(g)  # degrees from here on are ids of the `BlockCache`

        def turn(h, d):  # degree d along dart h <-> along the even dart of h's edge
            return d if h % 2 == 0 else neg(d)

        # degree bookkeeping is choice-independent: input-at-visit and
        # output degrees per position, then the old/new call per leg
        o_deg = []
        for i, t in enumerate(p.darts):
            f = p.first[i]
            o_deg.append(turn(t, col_ids[t // 2]) if f == i else add(g, neg(o_deg[f])))
        n_deg = [add(phi, neg(g)) for phi in o_deg]
        try:
            # stored degrees can survive a shift (an edge walked both ways)
            # while the walk labels still pass through a singular degree
            candidates = [len(data.labels(blocks.element(d))) for d in n_deg]

            # corner i is ready once the labels it reads are chosen; first[x]
            # <= x, so only the new labels at i and nxt and the leg's set that
            # step.  Each corner reads the 6j block at its six degrees.
            leg_uses_new = [False] * n
            ready_at = [[] for _ in range(n)]
            tables = []
            for c in p.corners:
                i = c.pos
                nxt = (i + 1) % n
                ready = max(i, nxt)
                if c.leg_pos is None:
                    need = turn(c.leg, col_ids[c.leg // 2])
                else:
                    m, t = c.leg_pos, p.darts[c.leg_pos]
                    need = add(o_deg[i], neg(o_deg[nxt]))
                    if turn(c.leg, need) == turn(t, o_deg[m]):
                        if p.first[m] != m:
                            ready = max(ready, p.first[m])
                    elif turn(c.leg, need) == turn(t, n_deg[m]):
                        leg_uses_new[i] = True
                        ready = max(ready, m)
                    else:
                        raise InstabilityError(
                            "no leg label of the required degree at corner"
                            f" {i} of plaquette {p.index}"
                        )
                ready_at[ready].append(i)
                # each axis reads its label along a dart (g's counts as even)
                # and is indexed by stored labels: the odd ones are dualized
                darts = (p.darts[i], 0, p.darts[i], p.darts[nxt] ^ 1, c.leg, p.darts[nxt] ^ 1)
                degs = (n_deg[i], g, o_deg[i], neg(o_deg[nxt]), need, neg(n_deg[nxt]))
                odd = [k for k, h in enumerate(darts) if h % 2]
                tables.append(blocks.dualized(blocks.corner, list(map(turn, darts, degs)), odd))
            d_new = [
                blocks.dualized(lambda i: blocks.scalars(i)[0], [turn(t, d)], [0] * (t % 2))
                for t, d in zip(p.darts, n_deg)
            ]
            b = blocks.scalars(g)[1]
        except DomainError as exc:
            raise GaugeAdmissibilityError(str(exc)) from exc

        # branching slots of each corner, (a_i, c_in, c_out, a_i+1): the a
        # slots chain around the walk and the c slots per vertex across its
        # visits, (v, r) joining visits r and r+1.  A vertex's first c_in is
        # its stored slot (None) and its last c_out, (v, visits - 1), is an
        # output; every other slot is shared by two corners.
        corner_slots = []
        for c in p.corners:
            r = p.visits[c.vertex].index(c.pos)
            c_in = (c.vertex, r - 1) if r else None
            a_in, a_out = ("a", c.pos), ("a", (c.pos + 1) % n)
            corner_slots.append((a_in, c_in, (c.vertex, r), a_out))
        outputs = [(v, len(p.visits[v]) - 1) for v in p.vertices]
        uses = collections.Counter(outputs)
        for ins in corner_slots:
            uses.update(s for s in ins if s is not None)

        live = np.flatnonzero((slots[:, p.vertices] > 0).all(axis=1))
        string = np.repeat(np.arange(len(b)), len(live))
        col = np.tile(live, len(b))
        amp = np.ones(len(col), dtype=complex)
        axes = []  # the open slot of each amplitude axis after the row axis
        chosen = []  # the stored label index chosen at each position
        columns = labels.T.copy()  # each edge's stored labels, contiguous

        def old(i):
            f = p.first[i]
            return columns[p.edges[i]][col] if f == i else chosen[f]

        for j in range(n):
            k = candidates[j]
            string, col, amp = (np.repeat(x, k, axis=0) for x in (string, col, amp))
            chosen = [np.repeat(x, k) for x in chosen]
            chosen.append(np.tile(np.arange(k), len(amp) // k))
            for i in ready_at[j]:
                c = p.corners[i]
                nxt = (i + 1) % n
                m = c.leg_pos
                if m is None:
                    leg = columns[c.leg // 2][col]
                else:
                    leg = chosen[m] if leg_uses_new[i] else old(m)
                idx = (chosen[i], string, old(i), old(nxt), leg, chosen[nxt])
                ins = corner_slots[i]
                if ins[1] is None:
                    # first visit: c_in at the stored slot; the slice splits
                    # the advanced indices, so numpy puts the row axis first
                    idx += (slice(None), slots[col, c.vertex] - 1)
                    ins = ins[:1] + ins[2:]
                vals = tables[i][idx]
                d = d_new[i][chosen[i]].reshape((-1,) + (1,) * len(ins))
                uses.subtract(ins)
                kept = [s for s in dict.fromkeys(axes + list(ins)) if uses[s] > 0]
                spec = _subscripts(["row"] + axes, ["row", *ins], ["row"] + kept)
                amp = np.einsum(spec, amp, d * vals)
                axes = kept
            keep = np.flatnonzero(amp.any(axis=tuple(range(1, amp.ndim))))
            if len(keep) < len(amp):
                string, col, amp = string[keep], col[keep], amp[keep]
                chosen = [x[keep] for x in chosen]

        # the open slots are the outputs: put them in vertex order and
        # return every nonzero (row, output slots) entry
        amp = amp.transpose([0] + [1 + axes.index(s) for s in outputs])
        nz = np.nonzero(amp)
        string, col = string[nz[0]], col[nz[0]]
        chosen = [x[nz[0]] for x in chosen]
        # an edge's final label comes from its last visit
        out = labels[col]
        for e, i in {e: i for i, e in enumerate(p.edges)}.items():
            out[:, e] = chosen[i]
        out_slots = slots[col]
        out_slots[:, p.vertices] = np.column_stack(nz[1:]) + 1
        return out, out_slots, col, b[string] * amp[nz]

    # -- assembled model ---------------------------------------------------------

    def hamiltonian(self) -> LinearOperator:
        """Sum of (1 - B_p) over plaquettes and (1 - Q_v) over vertices; each
        Q_v is diagonal, so a row gains its count of slots at 0.  Each entry
        sums the terms in that order."""
        space = self.space()
        ident = LinearOperator.identity(space)
        counts = (space.slot_array < 1).sum(axis=1)
        terms = [ident - self.plaquette_B(p) for p in self.graph.plaquettes]
        terms.append(LinearOperator(space, space, ident.rows, ident.cols, counts))
        triplets = ([getattr(t, a) for t in terms] for a in ("rows", "cols", "vals"))
        return LinearOperator(space, space, *map(np.concatenate, triplets))

    def ground_projector(self) -> LinearOperator:
        """The product of every B_p and Q_v, formed one invariant block at
        a time.  The product of the B_p already vanishes on the rows with
        a slot at 0, so it is the product of the Q_v with them too."""
        space = self.space()
        parts = self._invariant_blocks()
        bs = [self.plaquette_B(p).dense_blocks(parts) for p in self.graph.plaquettes]
        products = []
        for block, *mats in zip(*bs):
            for mat in mats:
                block = mat @ block
            products.append(block)
        return LinearOperator.from_blocks(space, space, parts, products)

    def ground_dim(self, tol: float = 1e-9) -> int:
        return self.ground_dim_residual(tol)[0]

    def ground_dim_residual(self, tol: float = 1e-9) -> Tuple[int, float]:
        """Ground dimension and idempotency residual ||P P - P|| of the
        ground projector P, formed once on the fused space.  Every Q_v
        commutes with every B_p, so P lives on the rows whose slots are
        all >= 1: the strict space over the same data and coloring."""
        fused = self if self.strict else StringNetModel(
            self.data, self.coloring, strict=True, dim_cap=self.dim_cap, probe=self._probe
        )
        proj = fused.ground_projector()
        # P vanishes off the invariant blocks, so P P - P is summed over them
        parts = fused._invariant_blocks()
        squares = sum(np.linalg.norm(x @ x - x) ** 2 for x in proj.dense_blocks(parts))
        residual = float(np.sqrt(squares))
        if residual > tol * max(1.0, proj.norm()):
            raise InstabilityError(
                f"ground projector is not idempotent (residual {residual:.3e})"
            )
        trace = proj.vals[proj.rows == proj.cols].sum()
        dim = round(trace.real)
        if abs(trace - dim) > max(tol, 1e-7 * max(1, abs(trace))):
            raise InstabilityError(f"projector trace {trace} is not near an integer")
        return int(dim), residual

    def spectrum(self, tol: float = 1e-7) -> Tuple[dict, float]:
        """Energy -> multiplicity from the eigenvalues of H, one invariant
        block at a time, and the rounding residual: the largest distance
        of an eigenvalue from its nearest integer.  H is a sum of
        commuting projectors, so its eigenvalues are integers."""
        hamiltonian, parts = self.hamiltonian(), self._invariant_blocks()
        eigenvalues, inside = [np.zeros(0, complex)], 0
        for block in hamiltonian.dense_blocks(parts):
            inside += np.count_nonzero(block)
            eigenvalues.append(np.linalg.eigvals(block))
        if inside < len(hamiltonian.vals):
            part = _places(self.space().dim, parts)[0]
            at = np.flatnonzero(part[hamiltonian.rows] != part[hamiltonian.cols])[0]
            raise InstabilityError(
                f"Hamiltonian entry ({hamiltonian.rows[at]}, {hamiltonian.cols[at]})"
                " lies outside the invariant blocks"
            )
        eigenvalues = np.concatenate(eigenvalues)
        nearest = np.rint(eigenvalues.real)
        off = eigenvalues - nearest
        # np.hypot is Python's abs(complex) bit for bit; np.abs is not
        rounding = float(np.hypot(off.real, off.imag).max(initial=0.0))
        if not rounding <= tol:
            raise InstabilityError(
                f"eigenvalue rounding residual {rounding:.3e} exceeds tolerance"
            )
        energies, counts = np.unique(nearest.astype(int), return_counts=True)
        return dict(zip(energies.tolist(), counts.tolist())), rounding
