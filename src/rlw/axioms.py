"""Axiom checks for graded string-net data over a finite degree slice.

The equations quantify over all generic degrees, so a finite run can only
certify a slice: the caller supplies sample degrees, the validator closes
them under negation and walks every tuple whose derived degrees (pairwise
sums as each equation requires) stay generic.  Every check is evaluated
blockwise, so a run over k samples touches every label and branching
index exhaustively at those degrees; degrees are `BlockCache` ids.  Each
check but the pentagon is an evaluator of one degree tuple, run tuple by
tuple by the one loop `_run`, which records residuals and witnesses and
turns missing table data into skips with notes.  The pentagon multiplies
only the nonzero entries of its operands, by an index plan built once per
nonzero pattern, and evaluates the tuples that share a plan together in
bounded batches.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .data import BlockCache, LWData, _join, _subscripts
from .errors import DomainError, MissingDataError
from .group import GroupElement

__all__ = ["CheckResult", "ValidationReport", "validate"]


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
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": float(self.residual),
            "checked": self.checked,
            "witness": self.witness,
            "notes": list(self.notes),
        }


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
            "max_residual": float(self.max_residual),
            "tol": self.tol,
            "max_tuples": self.max_tuples,
            "degrees": [str(g) for g in self.degrees],
            "checks": [c.to_dict() for c in self.checks],
        }


class _Slice(BlockCache):
    """The block cache of one validation run and its closed degree sample."""

    def __init__(self, data: LWData, degrees: Sequence[GroupElement], cap: int):
        super().__init__(data)
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

    def record(self, residual: float, witness: Callable[[], dict]):
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


def _run(name: str, tol: float, items: Iterable, evaluate: Callable) -> CheckResult:
    """Run one check: `evaluate(item)` yields the (residual, witness) pairs
    of an item.  All of them are drawn, so every fetch is made, before any
    is recorded; an item whose data is missing is skipped with a note."""
    run = _Runner(name, tol)
    for item in items:
        try:
            found = list(evaluate(item))
        except MissingDataError as exc:
            run.skip_missing(exc)
            continue
        for residual, witness in found:
            run.record(residual, witness)
    return run.result()


def _compare(
    sl: _Slice, degs: Sequence[int], diff: np.ndarray, law: Optional[str] = None
) -> Tuple[float, Callable[[], dict]]:
    """The residual of `diff` (|lhs - rhs| over a block) and its witness:
    the degrees, the law compared if there are several, the worst entry."""

    def witness() -> dict:
        found = {"degrees": sl.names(degs)}
        if law is not None:
            found["law"] = law
        found["entry"] = _argmax_entry(diff)
        return found

    return float(diff.max(initial=0.0)), witness


# -- the ten checks, in report order -----------------------------------------


def _check_dual_involution(sl: _Slice, tol: float) -> CheckResult:
    def evaluate(g):
        name = str(sl.element(g))
        for lbl in sl.data.labels(sl.element(g)):
            dual = sl.data.dual(lbl)
            ok = sl.id(dual.degree) == sl.neg(g) and sl.data.dual(dual).id == lbl.id
            yield 0.0 if ok else 1.0, lambda lbl=lbl: {
                "degree": name,
                "label": str(lbl.id),
            }

    return _run("dual_involution", tol, sl.degrees, evaluate)


def _check_scalar_reality_duality(sl: _Slice, tol: float) -> CheckResult:
    # reality of d, b, beta, gamma is structural (stored as reals);
    # what remains is invariance under the dual involution
    def evaluate(g):
        here = sl.scalars(g)
        there = sl.scalars(sl.neg(g))
        perm = sl.perm(g)
        for name, a, b in zip(("d", "b", "beta"), here, there):
            diff = np.abs(a - b[perm])
            yield float(diff.max()), lambda name=name, diff=diff: {
                "degree": str(sl.element(g)),
                "scalar": name,
                "label": sl.label_at(g, diff),
            }

    return _run("scalar_reality_duality", tol, sl.degrees, evaluate)


def _check_delta_symmetry(sl: _Slice, tol: float) -> CheckResult:
    def evaluate(degs):
        g1, g2, g3 = degs
        block = sl.delta(g1, g2, g3)
        if sl.add(g1, g2) != sl.neg(g3):
            yield _compare(sl, degs, np.abs(block).astype(float), "degree constraint")
            return
        cyclic = np.transpose(sl.delta(g2, g3, g1), (2, 0, 1))
        dual = sl.dualized(sl.delta, (g3, g2, g1), (0, 1, 2))
        dual = np.transpose(dual, (2, 1, 0))
        for law, other in (("cyclic", cyclic), ("dual reversal", dual)):
            yield _compare(sl, degs, np.abs(block - other).astype(float), law)

    return _run("delta_symmetry", tol, sl.tuples(3), evaluate)


def _check_b_recursion(sl: _Slice, tol: float) -> CheckResult:
    def evaluate(degs):
        g1, g2 = degs
        g = sl.add(g1, g2)
        if not sl.generic[g]:
            return
        b = sl.scalars(g)[1]
        b1 = sl.scalars(g1)[1]
        b2 = sl.scalars(g2)[1]
        # delta(j*, j1, j2) with the first axis re-indexed by j
        dual_delta = sl.dualized(sl.delta, (g, g1, g2), (0,))
        rhs = np.einsum("iab,a,b->i", dual_delta, b1, b2)
        diff = np.abs(b - rhs)
        yield float(diff.max()), lambda: {
            "degrees": sl.names(degs),
            "label": sl.label_at(g, diff),
        }

    return _run("b_recursion", tol, sl.tuples(2), evaluate)


def _check_gamma_beta_normalization(sl: _Slice, tol: float) -> CheckResult:
    rng = np.arange(1, sl.data.mult_bound + 1)

    def evaluate(degs):
        g1, g2 = degs
        g3 = sl.neg(sl.add(g1, g2))
        if not sl.generic[g3]:
            return
        bounds = sl.delta(g1, g2, g3)
        forward = sl.gamma(g1, g2, g3)
        reverse = sl.dualized(sl.gamma, (g3, g2, g1), (0, 1, 2))
        reverse = np.transpose(reverse, (2, 1, 0, 3))
        betas = [sl.scalars(g)[2] for g in (g1, g2, g3)]
        beta = np.einsum("a,b,c->abc", *betas)
        product = forward * reverse * beta[..., None]
        mask = rng <= bounds[..., None]
        diff = np.where(mask, np.abs(product - 1.0), 0.0)
        yield _compare(sl, (g1, g2, g3), diff)

    return _run("gamma_beta_normalization", tol, sl.tuples(2), evaluate)


def _sextuple_roots(sl: _Slice):
    """Degree sextuples (g1..g6) built from three free roots."""
    for g1, g2, g4 in sl.tuples(3):
        g3 = sl.add(g1, g2)
        g5 = sl.add(g3, g4)
        g6 = sl.add(g5, sl.neg(g1))
        if all(sl.generic[g] for g in (g3, g5, g6)):
            yield (g1, g2, g3, g4, g5, g6)


def _check_sixj_support(sl: _Slice, tol: float) -> CheckResult:
    def evaluate(degs):
        block = sl.sixj(*degs)
        outside = ~sl.support(degs)
        yield _compare(sl, degs, np.where(outside, np.abs(block), 0.0))

    return _run("sixj_support", tol, _sextuple_roots(sl), evaluate)


def _check_tetrahedral_symmetry(sl: _Slice, tol: float) -> CheckResult:
    def evaluate(degs):
        g1, g2, g3, g4, g5, g6 = degs
        block = sl.sixj(*degs)
        # first identity: labels (j2, j3*, j1*, j5, j6, j4), slots (a1 a3; a4 a2)
        first = sl.dualized(sl.sixj, (g2, g3, g1, g5, g6, g4), (1, 2))
        first = np.transpose(first, (2, 0, 1, 5, 3, 4, 6, 9, 7, 8))
        # second identity: labels (j3, j4, j5, j6*, j1, j2*), slots (a2 a3; a1 a4)
        second = sl.dualized(sl.sixj, (g3, g4, g5, g6, g1, g2), (3, 5))
        second = np.transpose(second, (4, 5, 0, 1, 2, 3, 8, 6, 7, 9))
        for law, other in (("rotation", first), ("column flip", second)):
            yield _compare(sl, degs, np.abs(block - other), law)

    return _run("tetrahedral_symmetry", tol, _sextuple_roots(sl), evaluate)


_PENT_T1 = ["x1", "x2", "x5", "x3", "x6", "xj", "a1", "a2", "c1", "c2"]
_PENT_T2 = ["x1", "xj", "x6", "x4", "x0", "x7", "c1", "a3", "a0", "c3"]
_PENT_T3 = ["x2", "x3", "xj", "x4", "x7", "x8", "c2", "c3", "a4", "a5"]
_PENT_T4 = ["x5", "x3", "x6", "x4", "x0", "x8", "a2", "a3", "c4", "a5"]
_PENT_T5 = ["x1", "x2", "x5", "x8", "x0", "x7", "a1", "c4", "a0", "a4"]
_PENT_OUT = ["x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x0"]
_PENT_OUT += ["a0", "a1", "a2", "a3", "a4", "a5"]
_PENT_LOAD = 1 << 14  # product terms and output slots evaluated at once


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
    row-major order, then one padding slot; all else is 0 on both sides."""

    def __init__(self, ops: Sequence[np.ndarray]):
        names = (_PENT_T1, _PENT_T2, _PENT_T3, ["xj"], _PENT_T4, _PENT_T5)
        sizes = {a: n for op, axes in zip(ops, names) for a, n in zip(axes, op.shape)}
        lhs_reads, lhs_keys = _sparse_terms(ops[:4], names[:4], sizes)
        rhs_reads, rhs_keys = _sparse_terms(ops[4:], names[4:], sizes)
        self.reads = lhs_reads + rhs_reads
        keys = np.sort(np.concatenate([lhs_keys, rhs_keys]))
        self.keys = np.append(keys[np.diff(keys, prepend=-1) != 0], 0)
        self.lhs_at = np.searchsorted(self.keys[:-1], lhs_keys)
        self.rhs_at = np.searchsorted(self.keys[:-1], rhs_keys)
        self.shape = tuple(sizes[a] for a in _PENT_OUT)
        self.load = len(lhs_keys) + len(rhs_keys) + len(self.keys)

    def residuals(self, batch: Sequence[Sequence[np.ndarray]]):
        """Per operand tuple: max |lhs - rhs|, and its first output index."""
        t1, t2, t3, d, t4, t5 = (
            np.stack([ops[k].take(read) for ops in batch])
            for k, read in enumerate(self.reads)
        )
        lhs, rhs = np.zeros((2, len(batch), len(self.keys)), complex)
        # the left side multiplies in the order of the dense einsum it replaced
        np.add.at(lhs, (slice(None), self.lhs_at), (t1 * t2) * (t3 * d))
        np.add.at(rhs, (slice(None), self.rhs_at), t4 * t5)
        diff = np.abs(lhs - rhs)
        arg = diff.argmax(axis=1)
        return diff[np.arange(len(batch)), arg], self.keys[arg]


def _check_pentagon(sl: _Slice, tol: float) -> CheckResult:
    run = _Runner("pentagon", tol)
    plans: Dict[tuple, _PentagonPlan] = {}  # keyed on the operands' patterns
    patterns: dict = {}  # id(array) -> (array, shape and nonzero entries)
    pending: list = []  # per tuple: (degrees, plan, operands) or its MissingDataError

    def pattern(block: np.ndarray) -> tuple:
        # once per array; holding the array keeps its id from being reused
        if id(block) not in patterns:
            nonzero = np.flatnonzero(block).tobytes()
            patterns[id(block)] = (block, (block.shape, nonzero))
        return patterns[id(block)][1]

    def flush():
        # evaluate the tuples of each plan together, then record in order
        groups: Dict[_PentagonPlan, List[int]] = {}
        for k, item in enumerate(pending):
            if isinstance(item, tuple):
                groups.setdefault(item[1], []).append(k)
        found = {}
        for plan, ks in groups.items():
            found.update(zip(ks, zip(*plan.residuals([pending[k][2] for k in ks]))))
        for k, item in enumerate(pending):
            if not isinstance(item, tuple):
                run.skip_missing(item)
                continue
            res, key = found[k]
            run.record(
                res,
                lambda degs=item[0], key=key, shape=item[1].shape: {
                    "degrees": sl.names(degs),
                    "entry": [int(i) for i in np.unravel_index(key, shape)],
                },
            )
        pending.clear()

    load = 0
    for g1, g2, g3, g4 in sl.tuples(4):
        gj = sl.add(g2, g3)
        g5 = sl.add(g1, g2)
        g6 = sl.add(g5, g3)
        g0 = sl.add(g6, g4)
        g7 = sl.add(gj, g4)
        g8 = sl.add(g3, g4)
        if not all(sl.generic[g] for g in (gj, g5, g6, g0, g7, g8)):
            continue
        try:
            t1, t2, t3, t4, t5 = (
                sl.sixj(g1, g2, g5, g3, g6, gj),
                sl.sixj(g1, gj, g6, g4, g0, g7),
                sl.sixj(g2, g3, gj, g4, g7, g8),
                sl.sixj(g5, g3, g6, g4, g0, g8),
                sl.sixj(g1, g2, g5, g8, g0, g7),
            )
            ops = (t1, t2, t3, sl.scalars(gj)[0], t4, t5)
        except MissingDataError as exc:
            pending.append(exc)
            load += 1
        else:
            key = tuple(map(pattern, ops))
            plan = plans.get(key) or plans.setdefault(key, _PentagonPlan(ops))
            pending.append(((g1, g2, g3, g4), plan, ops))
            load += plan.load
        if load >= _PENT_LOAD:
            flush()
            load = 0
    flush()
    return run.result()


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

    def evaluate(degs):
        gi, gj, gp, gl, gm, gn = degs
        t1 = sl.sixj(*degs)
        t2 = sl.dualized(sl.sixj, (gp, gj, gi, gn, gm, gl), (1,))
        d_n = sl.scalars(gn)[0]
        d_k = sl.scalars(gp)[0]
        lhs = np.einsum(_ORTHO_LHS, t1, t2, d_n.astype(complex))
        eye_pk = np.eye(len(d_k))
        top = sl.dualized(sl.delta, (gi, gj, gp), (2,))
        bottom = sl.dualized(sl.delta, (gp, gl, gm), (2,))
        v_top = (rng <= top[..., None]).astype(float)
        v_bottom = (rng <= bottom[..., None]).astype(float)
        rhs = np.einsum(
            _ORTHO_RHS,
            eye_pk, eye_a, eye_a, 1.0 / d_k,
            v_top, v_bottom, v_top, v_bottom,
        )
        # the witness names the three free roots
        yield _compare(sl, (gi, gj, gl), np.abs(lhs - rhs))

    return _run("orthogonality", tol, _sextuple_roots(sl), evaluate)


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
    def evaluate(degs):
        g1, g2, g3, g4, g5, g6 = degs
        block = sl.sixj(*degs)
        # labels (j2*, j1*, j3*, j5, j4, j6), slots (a1 a2; a4 a3)
        partner = sl.dualized(sl.sixj, (g2, g1, g3, g5, g4, g6), (0, 1, 2))
        partner = np.transpose(partner, (1, 0, 2, 4, 3, 5, 6, 7, 9, 8))
        gam1 = sl.dualized(sl.gamma, (g1, g2, g3), (2,))
        gam2 = sl.dualized(sl.gamma, (g3, g4, g5), (2,))
        gam3 = sl.dualized(sl.gamma, (g1, g5, g6), (0, 2))
        gam4 = sl.dualized(sl.gamma, (g2, g6, g4), (0, 2))
        betas = [sl.scalars(g)[2] for g in degs]
        rhs = np.einsum(_CONJ_SPEC, partner, gam1, gam2, gam3, gam4, *betas)
        yield _compare(sl, degs, np.abs(np.conj(block) - rhs))

    return _run("conjugation", tol, _sextuple_roots(sl), evaluate)


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
    if data.signature.is_finite and not data.singular.is_empty_on():
        raise DomainError(
            "singular set is not small: a finite group is covered by"
            " translates of any nonempty subset"
        )
    closure = []
    seen = set()
    for g in degree_samples:
        for h in (g, -g):
            data.check_degree(h)
            if h not in seen:
                seen.add(h)
                closure.append(h)
    closure.sort(key=str)
    if not closure:
        raise DomainError("no degree samples supplied")
    sl = _Slice(data, closure, max_tuples)
    results = [check(sl, tol) for check in _CHECKS]
    return ValidationReport(results, closure, tol, max_tuples)
