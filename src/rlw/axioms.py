"""Axiom checks for graded string-net data over a finite degree slice.

The equations quantify over all generic degrees, so a finite run can only
certify a slice: the caller supplies sample degrees, the validator closes
them under negation and walks every tuple whose derived degrees (pairwise
sums as each equation requires) stay generic.  Every check is evaluated
blockwise, so a run over k samples touches every label and branching
index exhaustively at those degrees; degrees are `BlockCache` ids.

Every check is run by the one driver `_run`.  A check names the interned
arrays each degree tuple reads (its operands) and the law that turns them
into |lhs - rhs| arrays.  The driver evaluates the law once per distinct
tuple of operand identities, as soon as it meets that tuple, which for
the built-in families is once or a few times per check, and records the
result for every degree tuple that shares it, in tuple order and under
each tuple's own degrees: the residuals, counts, witnesses and notes are
those of a tuple-by-tuple run.  Missing table data skips a tuple with a
note.  The pentagon's law multiplies only the nonzero entries of its
operands, by an index plan built once per nonzero pattern.
"""

import itertools
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .data import BlockCache, LWData, _join, _subscripts
from .errors import DomainError, MissingDataError
from .group import GroupElement

__all__ = ["CheckResult", "ValidationReport", "validate"]


def _json_residual(residual: float) -> Optional[float]:
    """A residual as strict JSON can hold it: a non-finite one is null."""
    return float(residual) if math.isfinite(residual) else None


@dataclass
class CheckResult:
    """Outcome of a single axiom check."""

    name: str
    passed: bool
    residual: float
    checked: int
    witness: Optional[dict] = None
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "residual": _json_residual(self.residual)}


@dataclass
class ValidationReport:
    checks: List[CheckResult]
    degrees: List[GroupElement]
    tol: float
    max_tuples: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_residual": _json_residual(self.max_residual),
            "tol": self.tol,
            "max_tuples": self.max_tuples,
            "degrees": [str(g) for g in self.degrees],
            "checks": [c.to_dict() for c in self.checks],
        }


class _Slice(BlockCache):
    """One validation run over the shared memos of `data.blocks`, with the
    run's closed degree sample and tuple cap.  Tests build it alone."""

    def __init__(self, data: LWData, degrees: Sequence[GroupElement], cap: int):
        vars(self).update(vars(data.blocks))  # the same memo objects, never rebound
        self.degrees = [self.id(g) for g in degrees]
        self.cap = cap

    def names(self, ids: Sequence[int]) -> List[str]:
        return [str(self.element(i)) for i in ids]

    def label_at(self, g: int, diff: np.ndarray) -> str:
        return str(self.data.labels(self.element(g))[int(np.argmax(diff))].id)

    def tuples(self, arity: int) -> Iterator[Tuple[int, ...]]:
        # deterministic stride keeps runs over large closures bounded
        total = len(self.degrees) ** arity
        stride = max(1, math.ceil(total / self.cap))
        for t, combo in enumerate(itertools.product(self.degrees, repeat=arity)):
            if t % stride == 0:
                yield combo

    def dual_misses(self, g: int) -> np.ndarray:
        """Per label of degree g, 1.0 if its dual is not a label of degree
        -g or does not dualize back to it, else 0.0."""
        misses = []
        for lbl in self.data.labels(self.element(g)):
            dual = self.data.dual(lbl)
            ok = self.id(dual.degree) == self.neg(g) and self.data.dual(dual).id == lbl.id
            misses.append(0.0 if ok else 1.0)
        return self._intern(np.array(misses))

    @cached_property
    def sextuples(self) -> List[Tuple[int, ...]]:
        """Degree sextuples (g1..g6) built from three free roots, read by
        the four sextuple checks."""
        found = []
        for g1, g2, g4 in self.tuples(3):
            g3 = self.add(g1, g2)
            g5 = self.add(g3, g4)
            g6 = self.add(g5, self.neg(g1))
            if self.generic[g3] and self.generic[g5] and self.generic[g6]:
                found.append((g1, g2, g3, g4, g5, g6))
        return found


class _Runner:
    """Accumulates residuals, witnesses, and incompleteness notes."""

    def __init__(self, name: str, tol: float):
        self.name = name
        self.tol = tol
        self.residual = 0.0
        self.witness: Optional[dict] = None
        self.checked = 0
        self.notes: List[str] = []
        self._skipped = 0

    def record(self, residual: float, witness: Optional[Callable[[], dict]]):
        self.checked += 1
        if not math.isfinite(residual):
            residual = math.inf  # NaN compares false: count it as the worst
        if residual > self.residual:
            self.residual = float(residual)
            if residual > self.tol:
                self.witness = witness()

    def skip_missing(self, exc: MissingDataError):
        self._skipped += 1
        msg = str(exc)
        if msg not in self.notes and len(self.notes) < 4:
            self.notes.append(msg)

    def result(self) -> CheckResult:
        notes = list(self.notes)
        if self._skipped:
            notes.append(
                f"{self._skipped} tuple(s) skipped for missing table entries"
            )
        passed = self.residual <= self.tol
        return CheckResult(
            self.name,
            passed,
            self.residual,
            self.checked,
            self.witness if not passed else None,
            notes,
        )


def _argmax_entry(diff: np.ndarray) -> list:
    flat = int(np.argmax(np.abs(diff)))
    return [int(i) for i in np.unravel_index(flat, diff.shape)]


def _run(
    name: str,
    tol: float,
    items: Iterable,
    operands: Callable[..., tuple],
    law: Callable[..., list],
    witness: Callable[..., dict],
) -> CheckResult:
    """Run one check over `items`, its degree tuples in report order.

    `operands(item)` fetches the interned arrays the item's law reads, all
    of them before anything is recorded; a `MissingDataError` skips the
    item with a note.  `law(*ops)` maps one operand tuple to its |lhs - rhs|
    arrays, one residual each, and is called once per distinct tuple of
    operand identities, on the first item that reads it.  That item
    records the residuals, and `witness(item, k, diff)` names the k-th one
    if it is the worst yet and over `tol`.  A later item records the same
    residuals, which cannot replace that witness, so no diff array is kept
    past its first item."""
    run = _Runner(name, tol)
    seen: Dict[tuple, List[float]] = {}  # operand ids -> residuals of its law
    for item in items:
        try:
            ops = operands(item)
        except MissingDataError as exc:
            run.skip_missing(exc)
            continue
        key = tuple(map(id, ops))
        if key in seen:
            for residual in seen[key]:
                run.record(residual, None)  # never above the residual so far
            continue
        seen[key] = []
        for k, diff in enumerate(law(*ops)):
            seen[key].append(float(diff.max(initial=0.0)))
            run.record(seen[key][-1], lambda: witness(item, k, diff))
    return run.result()


def _block_witness(sl: _Slice, laws: Optional[Sequence[str]] = None) -> Callable:
    """`witness(item, k, diff)` of `_run` for laws over whole blocks: the
    degrees, the name `laws[k]` of the k-th law if there are several, the
    worst entry."""

    def witness(degs, k, diff):
        found = {"degrees": sl.names(degs)}
        if laws is not None:
            found["law"] = laws[k]
        found["entry"] = _argmax_entry(diff)
        return found

    return witness


# -- the ten checks, in report order -----------------------------------------


def _check_dual_involution(sl: _Slice, tol: float) -> CheckResult:
    def witness(g, k, diff):
        label = sl.data.labels(sl.element(g))[k]
        return {"degree": str(sl.element(g)), "label": str(label.id)}

    return _run(
        "dual_involution", tol, sl.degrees, lambda g: (sl.dual_misses(g),),
        lambda misses: list(misses[:, None]), witness,
    )


def _check_scalar_reality_duality(sl: _Slice, tol: float) -> CheckResult:
    # reality of d, b, beta, gamma is structural (stored as reals);
    # what remains is invariance under the dual involution
    names = ("d", "b", "beta")

    def invariance(*scalars):
        here, there, perm = scalars[:3], scalars[3:6], scalars[6]
        return [np.abs(a - b[perm]) for a, b in zip(here, there)]

    def witness(g, k, diff):
        return {
            "degree": str(sl.element(g)),
            "scalar": names[k],
            "label": sl.label_at(g, diff),
        }

    return _run(
        "scalar_reality_duality", tol, sl.degrees,
        lambda g: (*sl.scalars(g), *sl.scalars(sl.neg(g)), sl.perm(g)),
        invariance, witness,
    )


def _check_delta_symmetry(sl: _Slice, tol: float) -> CheckResult:
    def meets(degs):
        g1, g2, g3 = degs
        return sl.add(g1, g2) == sl.neg(g3)

    def operands(degs):
        g1, g2, g3 = degs
        block = sl.delta(g1, g2, g3)
        if not meets(degs):
            return (block,)
        cyclic = sl.delta(g2, g3, g1)
        return block, cyclic, sl.dualized(sl.delta, (g3, g2, g1), (0, 1, 2))

    def symmetry(block, cyclic=None, dual=None):
        if cyclic is None:
            return [np.abs(block).astype(float)]
        others = (np.transpose(cyclic, (2, 0, 1)), np.transpose(dual, (2, 1, 0)))
        return [np.abs(block - other).astype(float) for other in others]

    def witness(degs, k, diff):
        laws = ("cyclic", "dual reversal") if meets(degs) else ("degree constraint",)
        return _block_witness(sl, laws)(degs, k, diff)

    return _run("delta_symmetry", tol, sl.tuples(3), operands, symmetry, witness)


def _check_b_recursion(sl: _Slice, tol: float) -> CheckResult:
    def operands(degs):
        g1, g2 = degs
        g = sl.add(g1, g2)
        b, b1, b2 = (sl.scalars(h)[1] for h in (g, g1, g2))
        # delta(j*, j1, j2) with the first axis re-indexed by j
        return b, b1, b2, sl.dualized(sl.delta, (g, g1, g2), (0,))

    def recursion(b, b1, b2, dual_delta):
        return [np.abs(b - np.einsum("iab,a,b->i", dual_delta, b1, b2))]

    def witness(degs, k, diff):
        return {"degrees": sl.names(degs), "label": sl.label_at(sl.add(*degs), diff)}

    items = (degs for degs in sl.tuples(2) if sl.generic[sl.add(*degs)])
    return _run("b_recursion", tol, items, operands, recursion, witness)


def _check_gamma_beta_normalization(sl: _Slice, tol: float) -> CheckResult:
    rng = np.arange(1, sl.data.mult_bound + 1)

    def operands(degs):
        g1, g2, g3 = degs
        bounds = sl.delta(g1, g2, g3)
        forward = sl.gamma(g1, g2, g3)
        reverse = sl.dualized(sl.gamma, (g3, g2, g1), (0, 1, 2))
        return (bounds, forward, reverse, *(sl.scalars(g)[2] for g in degs))

    def normalization(bounds, forward, reverse, *betas):
        reverse = np.transpose(reverse, (2, 1, 0, 3))
        beta = np.einsum("a,b,c->abc", *betas)
        product = forward * reverse * beta[..., None]
        mask = rng <= bounds[..., None]
        return [np.where(mask, np.abs(product - 1.0), 0.0)]

    triples = ((g1, g2, sl.neg(sl.add(g1, g2))) for g1, g2 in sl.tuples(2))
    items = (degs for degs in triples if sl.generic[degs[2]])
    return _run(
        "gamma_beta_normalization", tol, items, operands,
        normalization, _block_witness(sl),
    )


def _check_sixj_support(sl: _Slice, tol: float) -> CheckResult:
    def outside(block, support):
        return [np.where(support, 0.0, np.abs(block))]

    return _run(
        "sixj_support", tol, sl.sextuples,
        lambda degs: (sl.sixj(*degs), sl.support(degs)), outside,
        _block_witness(sl),
    )


def _check_tetrahedral_symmetry(sl: _Slice, tol: float) -> CheckResult:
    def operands(degs):
        g1, g2, g3, g4, g5, g6 = degs
        return (
            sl.sixj(*degs),
            # first identity: labels (j2, j3*, j1*, j5, j6, j4), slots (a1 a3; a4 a2)
            sl.dualized(sl.sixj, (g2, g3, g1, g5, g6, g4), (1, 2)),
            # second identity: labels (j3, j4, j5, j6*, j1, j2*), slots (a2 a3; a1 a4)
            sl.dualized(sl.sixj, (g3, g4, g5, g6, g1, g2), (3, 5)),
        )

    def symmetry(block, first, second):
        first = np.transpose(first, (2, 0, 1, 5, 3, 4, 6, 9, 7, 8))
        second = np.transpose(second, (4, 5, 0, 1, 2, 3, 8, 6, 7, 9))
        return [np.abs(block - other) for other in (first, second)]

    return _run(
        "tetrahedral_symmetry", tol, sl.sextuples, operands, symmetry,
        _block_witness(sl, ("rotation", "column flip")),
    )


_PENT_T1 = ["x1", "x2", "x5", "x3", "x6", "xj", "a1", "a2", "c1", "c2"]
_PENT_T2 = ["x1", "xj", "x6", "x4", "x0", "x7", "c1", "a3", "a0", "c3"]
_PENT_T3 = ["x2", "x3", "xj", "x4", "x7", "x8", "c2", "c3", "a4", "a5"]
_PENT_T4 = ["x5", "x3", "x6", "x4", "x0", "x8", "a2", "a3", "c4", "a5"]
_PENT_T5 = ["x1", "x2", "x5", "x8", "x0", "x7", "a1", "c4", "a0", "a4"]
_PENT_OUT = ["x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x0"]
_PENT_OUT += ["a0", "a1", "a2", "a3", "a4", "a5"]


def _key(coords: dict, axes: Sequence[str], sizes: dict, count: int) -> np.ndarray:
    """Row-major index of `count` coordinates over the named axes."""
    key = np.zeros(count, np.int64)
    for a in axes:
        key = key * sizes[a] + coords[a]
    return key


def _sparse_terms(ops, names, sizes: dict):
    """The nonzero terms of the product of `ops` (axes named by `names`):
    per term, the flat entry it reads in each operand, and the row-major
    index of the `_PENT_OUT` entry it adds to (other axes are summed)."""
    coords, reads, count = {}, [], 1
    for op, axes in zip(ops, names):
        nz = np.nonzero(op)
        mine = dict(zip(axes, nz))
        shared = [a for a in axes if a in coords]
        i, j = _join(
            _key(coords, shared, sizes, count), _key(mine, shared, sizes, len(nz[0]))
        )
        coords = {a: c[i] for a, c in coords.items()}
        coords.update((a, c[j]) for a, c in mine.items())
        reads = [r[i] for r in reads] + [np.ravel_multi_index(nz, op.shape)[j]]
        count = len(i)
    return reads, _key(coords, _PENT_OUT, sizes, count)


class _PentagonPlan:
    """The sparse pentagon of one nonzero pattern of its operands
    (t1, t2, t3, d(j), t4, t5): the entries each nonzero product term of
    the left (t1 t2 t3 d) and right (t4 t5) side reads, and the output
    slot it adds to.  The slots are the union of both sides' supports in
    row-major order; all else is 0 on both sides."""

    def __init__(self, ops: Sequence[np.ndarray]):
        names = (_PENT_T1, _PENT_T2, _PENT_T3, ["xj"], _PENT_T4, _PENT_T5)
        sizes = {a: n for op, axes in zip(ops, names) for a, n in zip(axes, op.shape)}
        lhs_reads, lhs_keys = _sparse_terms(ops[:4], names[:4], sizes)
        rhs_reads, rhs_keys = _sparse_terms(ops[4:], names[4:], sizes)
        self.reads = lhs_reads + rhs_reads
        keys = np.sort(np.concatenate([lhs_keys, rhs_keys]))
        self.keys = keys[np.diff(keys, prepend=-1) != 0]
        self.lhs_at = np.searchsorted(self.keys, lhs_keys)
        self.rhs_at = np.searchsorted(self.keys, rhs_keys)
        self.shape = tuple(sizes[a] for a in _PENT_OUT)

    def diff(self, ops: Sequence[np.ndarray]) -> np.ndarray:
        """|lhs - rhs| of one operand tuple over the output slots `keys`."""
        t1, t2, t3, d, t4, t5 = (op.take(read) for op, read in zip(ops, self.reads))
        lhs, rhs = np.zeros((2, len(self.keys)), complex)
        # the left side multiplies in the order of the dense einsum it replaced
        np.add.at(lhs, self.lhs_at, (t1 * t2) * (t3 * d))
        np.add.at(rhs, self.rhs_at, t4 * t5)
        return np.abs(lhs - rhs)


def _check_pentagon(sl: _Slice, tol: float) -> CheckResult:
    plans: Dict[tuple, _PentagonPlan] = {}  # keyed on the operands' patterns
    patterns: Dict[int, tuple] = {}  # id(array) -> shape and nonzero entries
    plan: Optional[_PentagonPlan] = None  # the plan of the last law call

    def items():
        for g1, g2, g3, g4 in sl.tuples(4):
            gj = sl.add(g2, g3)
            g5 = sl.add(g1, g2)
            g6 = sl.add(g5, g3)
            g0 = sl.add(g6, g4)
            g7 = sl.add(gj, g4)
            g8 = sl.add(g3, g4)
            if all(sl.generic[g] for g in (gj, g5, g6, g0, g7, g8)):
                yield g1, g2, g3, g4, gj, g5, g6, g0, g7, g8

    def operands(degs):
        g1, g2, g3, g4, gj, g5, g6, g0, g7, g8 = degs
        t1, t2, t3, t4, t5 = (
            sl.sixj(g1, g2, g5, g3, g6, gj),
            sl.sixj(g1, gj, g6, g4, g0, g7),
            sl.sixj(g2, g3, gj, g4, g7, g8),
            sl.sixj(g5, g3, g6, g4, g0, g8),
            sl.sixj(g1, g2, g5, g8, g0, g7),
        )
        return t1, t2, t3, sl.scalars(gj)[0], t4, t5

    def law(*ops):
        nonlocal plan
        for op in ops:  # the cache keeps every operand alive: ids stay unique
            if id(op) not in patterns:
                patterns[id(op)] = (op.shape, np.flatnonzero(op).tobytes())
        key = tuple(patterns[id(op)] for op in ops)
        plan = plans.get(key) or plans.setdefault(key, _PentagonPlan(ops))
        return [plan.diff(ops)]

    def witness(degs, k, diff):
        # `_run` asks right after the law evaluated this item's operands
        key = plan.keys[int(np.argmax(diff))]
        return {
            "degrees": sl.names(degs[:4]),
            "entry": [int(i) for i in np.unravel_index(key, plan.shape)],
        }

    return _run("pentagon", tol, items(), operands, law, witness)


_ORTHO_T1 = ["i", "j", "p", "l", "m", "n", "a1", "a2", "a3", "a4"]
_ORTHO_T2 = ["k", "j", "i", "n", "m", "l", "b1", "a3", "b2", "a4"]
_ORTHO_OUT = ["i", "j", "p", "l", "m", "k", "a1", "a2", "b1", "b2"]
_ORTHO_LHS = _subscripts(_ORTHO_T1, _ORTHO_T2, ["n"], _ORTHO_OUT)
_ORTHO_RHS = _subscripts(
    ["p", "k"],
    ["a1", "b1"],
    ["a2", "b2"],
    ["k"],
    ["i", "j", "p", "a1"],
    ["p", "l", "m", "a2"],
    ["i", "j", "k", "b1"],
    ["k", "l", "m", "b2"],
    _ORTHO_OUT,
)


def _check_orthogonality(sl: _Slice, tol: float) -> CheckResult:
    m_bound = sl.data.mult_bound
    rng = np.arange(1, m_bound + 1)
    eye_a = np.eye(m_bound)

    def operands(degs):
        gi, gj, gp, gl, gm, gn = degs
        return (
            sl.sixj(*degs),
            sl.dualized(sl.sixj, (gp, gj, gi, gn, gm, gl), (1,)),
            sl.scalars(gn)[0],
            sl.scalars(gp)[0],
            sl.dualized(sl.delta, (gi, gj, gp), (2,)),
            sl.dualized(sl.delta, (gp, gl, gm), (2,)),
        )

    def orthogonality(t1, t2, d_n, d_k, top, bottom):
        lhs = np.einsum(_ORTHO_LHS, t1, t2, d_n.astype(complex))
        eye_pk = np.eye(len(d_k))
        v_top = (rng <= top[..., None]).astype(float)
        v_bottom = (rng <= bottom[..., None]).astype(float)
        rhs = np.einsum(
            _ORTHO_RHS,
            eye_pk, eye_a, eye_a, 1.0 / d_k,
            v_top, v_bottom, v_top, v_bottom,
        )
        return [np.abs(lhs - rhs)]

    def witness(degs, k, diff):
        # the witness names the three free roots
        return _block_witness(sl)((degs[0], degs[1], degs[3]), k, diff)

    return _run("orthogonality", tol, sl.sextuples, operands, orthogonality, witness)


_CONJ_SPEC = _subscripts(
    ["j1", "j2", "j3", "j4", "j5", "j6", "a1", "a2", "a3", "a4"],
    ["j1", "j2", "j3", "a1"],
    ["j3", "j4", "j5", "a2"],
    ["j1", "j5", "j6", "a3"],
    ["j2", "j6", "j4", "a4"],
    ["j1"], ["j2"], ["j3"], ["j4"], ["j5"], ["j6"],
    ["j1", "j2", "j3", "j4", "j5", "j6", "a1", "a2", "a3", "a4"],
)


def _check_conjugation(sl: _Slice, tol: float) -> CheckResult:
    def operands(degs):
        g1, g2, g3, g4, g5, g6 = degs
        return (
            sl.sixj(*degs),
            # labels (j2*, j1*, j3*, j5, j4, j6), slots (a1 a2; a4 a3)
            sl.dualized(sl.sixj, (g2, g1, g3, g5, g4, g6), (0, 1, 2)),
            sl.dualized(sl.gamma, (g1, g2, g3), (2,)),
            sl.dualized(sl.gamma, (g3, g4, g5), (2,)),
            sl.dualized(sl.gamma, (g1, g5, g6), (0, 2)),
            sl.dualized(sl.gamma, (g2, g6, g4), (0, 2)),
            *(sl.scalars(g)[2] for g in degs),
        )

    def conjugation(block, partner, *factors):
        partner = np.transpose(partner, (1, 0, 2, 4, 3, 5, 6, 7, 9, 8))
        rhs = np.einsum(_CONJ_SPEC, partner, *factors)
        return [np.abs(np.conj(block) - rhs)]

    return _run(
        "conjugation", tol, sl.sextuples, operands, conjugation,
        _block_witness(sl),
    )


_CHECKS = [
    _check_dual_involution,
    _check_scalar_reality_duality,
    _check_delta_symmetry,
    _check_b_recursion,
    _check_gamma_beta_normalization,
    _check_sixj_support,
    _check_tetrahedral_symmetry,
    _check_pentagon,
    _check_orthogonality,
    _check_conjugation,
]


def validate(
    data: LWData,
    degree_samples: Sequence[GroupElement],
    tol: float = 1e-9,
    max_tuples: int = 4096,
) -> ValidationReport:
    """Run every axiom check over the closure of the sample degrees."""
    if max_tuples < 1:
        raise DomainError(f"max_tuples must be at least 1, got {max_tuples}")
    if data.signature.is_finite and not data.singular.is_empty_on():
        raise DomainError(
            "singular set is not small: a finite group is covered by"
            " translates of any nonempty subset"
        )
    closure = set()
    for g in degree_samples:
        for h in (g, -g):
            data.check_degree(h)
            closure.add(h)
    closure = sorted(closure, key=str)
    if not closure:
        raise DomainError("no degree samples supplied")
    sl = _Slice(data, closure, max_tuples)
    results = [check(sl, tol) for check in _CHECKS]
    return ValidationReport(results, closure, tol, max_tuples)
