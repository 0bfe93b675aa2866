"""The validator's checks evaluated tuple by tuple: the reference oracle
of the memoizing driver in `rlw.axioms`.

Every check but the pentagon is an evaluator of one degree tuple that
fetches its blocks, dualizes them with a fresh `np.take` and yields its
(residual, witness) pairs; `run_per_tuple` records them in tuple order.
The pentagon's oracle is `dense_pentagon`, the dense einsum it was first
written as.  `reference_report` runs all ten on a block cache of their
own and returns every check's `to_dict()`.
"""

from typing import Callable, Iterable

import numpy as np

from rlw.axioms import (
    _CONJ_SPEC,
    _ORTHO_LHS,
    _ORTHO_RHS,
    _PENT_OUT,
    _PENT_T1,
    _PENT_T2,
    _PENT_T3,
    _PENT_T4,
    _PENT_T5,
    _Runner,
    _Slice,
    _argmax_entry,
)
from rlw.data import _SUPPORT_SPEC, _subscripts
from rlw.errors import MissingDataError


def run_per_tuple(name: str, tol: float, items: Iterable, evaluate: Callable):
    """`evaluate(item)` yields the (residual, witness) pairs of an item, all
    drawn before any is recorded; missing data skips the item."""
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


def dualized(sl, read, ids, dual):
    """Block `read` at `ids`, the positions in `dual` negated and their
    axes re-indexed through `perm`: a new array per call."""
    block = read(*(sl.neg(g) if k in dual else g for k, g in enumerate(ids)))
    for k in dual:
        block = np.take(block, sl.perm(ids[k]), axis=k)
    return block


def support(sl, ids):
    """Boolean index-range tensor over labels(g1)..labels(g6), a1..a4."""
    g1, g2, g3, g4, g5, g6 = ids
    rng = np.arange(1, sl.data.mult_bound + 1)
    triples = ((g1, g2, g3), (g3, g4, g5), (g5, g6, g1), (g6, g4, g2))
    conds = [
        (rng <= dualized(sl, sl.delta, t, dual)[..., None]).astype(int)
        for t, dual in zip(triples, ((2,), (2,), (1, 2), (1, 2)))
    ]
    return np.einsum(_SUPPORT_SPEC, *conds) > 0


def compare(sl, degs, diff, law=None):
    def witness():
        found = {"degrees": sl.names(degs)}
        if law is not None:
            found["law"] = law
        found["entry"] = _argmax_entry(diff)
        return found

    return float(diff.max(initial=0.0)), witness


def sextuple_roots(sl):
    """Degree sextuples (g1..g6) built from three free roots."""
    for g1, g2, g4 in sl.tuples(3):
        g3 = sl.add(g1, g2)
        g5 = sl.add(g3, g4)
        g6 = sl.add(g5, sl.neg(g1))
        if all(sl.generic[g] for g in (g3, g5, g6)):
            yield (g1, g2, g3, g4, g5, g6)


def dual_involution(sl, tol):
    def evaluate(g):
        name = str(sl.element(g))
        for lbl in sl.data.labels(sl.element(g)):
            dual = sl.data.dual(lbl)
            ok = sl.id(dual.degree) == sl.neg(g) and sl.data.dual(dual).id == lbl.id
            yield 0.0 if ok else 1.0, lambda lbl=lbl: {
                "degree": name,
                "label": str(lbl.id),
            }

    return run_per_tuple("dual_involution", tol, sl.degrees, evaluate)


def scalar_reality_duality(sl, tol):
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

    return run_per_tuple("scalar_reality_duality", tol, sl.degrees, evaluate)


def delta_symmetry(sl, tol):
    def evaluate(degs):
        g1, g2, g3 = degs
        block = sl.delta(g1, g2, g3)
        if sl.add(g1, g2) != sl.neg(g3):
            yield compare(sl, degs, np.abs(block).astype(float), "degree constraint")
            return
        cyclic = np.transpose(sl.delta(g2, g3, g1), (2, 0, 1))
        dual = dualized(sl, sl.delta, (g3, g2, g1), (0, 1, 2))
        dual = np.transpose(dual, (2, 1, 0))
        for law, other in (("cyclic", cyclic), ("dual reversal", dual)):
            yield compare(sl, degs, np.abs(block - other).astype(float), law)

    return run_per_tuple("delta_symmetry", tol, sl.tuples(3), evaluate)


def b_recursion(sl, tol):
    def evaluate(degs):
        g1, g2 = degs
        g = sl.add(g1, g2)
        if not sl.generic[g]:
            return
        b = sl.scalars(g)[1]
        b1 = sl.scalars(g1)[1]
        b2 = sl.scalars(g2)[1]
        dual_delta = dualized(sl, sl.delta, (g, g1, g2), (0,))
        rhs = np.einsum("iab,a,b->i", dual_delta, b1, b2)
        diff = np.abs(b - rhs)
        yield float(diff.max()), lambda: {
            "degrees": sl.names(degs),
            "label": sl.label_at(g, diff),
        }

    return run_per_tuple("b_recursion", tol, sl.tuples(2), evaluate)


def gamma_beta_normalization(sl, tol):
    rng = np.arange(1, sl.data.mult_bound + 1)

    def evaluate(degs):
        g1, g2 = degs
        g3 = sl.neg(sl.add(g1, g2))
        if not sl.generic[g3]:
            return
        bounds = sl.delta(g1, g2, g3)
        forward = sl.gamma(g1, g2, g3)
        reverse = dualized(sl, sl.gamma, (g3, g2, g1), (0, 1, 2))
        reverse = np.transpose(reverse, (2, 1, 0, 3))
        betas = [sl.scalars(g)[2] for g in (g1, g2, g3)]
        beta = np.einsum("a,b,c->abc", *betas)
        product = forward * reverse * beta[..., None]
        mask = rng <= bounds[..., None]
        diff = np.where(mask, np.abs(product - 1.0), 0.0)
        yield compare(sl, (g1, g2, g3), diff)

    return run_per_tuple("gamma_beta_normalization", tol, sl.tuples(2), evaluate)


def sixj_support(sl, tol):
    def evaluate(degs):
        block = sl.sixj(*degs)
        outside = ~support(sl, degs)
        yield compare(sl, degs, np.where(outside, np.abs(block), 0.0))

    return run_per_tuple("sixj_support", tol, sextuple_roots(sl), evaluate)


def tetrahedral_symmetry(sl, tol):
    def evaluate(degs):
        g1, g2, g3, g4, g5, g6 = degs
        block = sl.sixj(*degs)
        first = dualized(sl, sl.sixj, (g2, g3, g1, g5, g6, g4), (1, 2))
        first = np.transpose(first, (2, 0, 1, 5, 3, 4, 6, 9, 7, 8))
        second = dualized(sl, sl.sixj, (g3, g4, g5, g6, g1, g2), (3, 5))
        second = np.transpose(second, (4, 5, 0, 1, 2, 3, 8, 6, 7, 9))
        for law, other in (("rotation", first), ("column flip", second)):
            yield compare(sl, degs, np.abs(block - other), law)

    return run_per_tuple("tetrahedral_symmetry", tol, sextuple_roots(sl), evaluate)


def dense_pentagon(sl, tol):
    """The pentagon as first written, kept as the oracle of the sparse one:
    per degree tuple, dense N^9 left and right sides by einsum (size-1
    branching axes dropped, the left side's contraction order found once)."""
    run = _Runner("pentagon", tol)
    m = sl.data.mult_bound
    axes = [
        [a for a in op if m > 1 or a.startswith("x")]
        for op in (_PENT_T1, _PENT_T2, _PENT_T3, ["xj"], _PENT_T4, _PENT_T5, _PENT_OUT)
    ]
    lhs_spec = _subscripts(*axes[:4], axes[6])
    rhs_spec = _subscripts(*axes[4:6], axes[6])
    lhs_path = None
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
                t.reshape(t.shape[: len(axes[0])])
                for t in (
                    sl.sixj(g1, g2, g5, g3, g6, gj),
                    sl.sixj(g1, gj, g6, g4, g0, g7),
                    sl.sixj(g2, g3, gj, g4, g7, g8),
                    sl.sixj(g5, g3, g6, g4, g0, g8),
                    sl.sixj(g1, g2, g5, g8, g0, g7),
                )
            )
            ops = (t1, t2, t3, sl.scalars(gj)[0].astype(complex))
            if lhs_path is None:
                lhs_path = np.einsum_path(lhs_spec, *ops, optimize="optimal")[0]
            lhs = np.einsum(lhs_spec, *ops, optimize=lhs_path)
            rhs = np.einsum(rhs_spec, t4, t5)
            diff = np.abs(lhs - rhs)
            diff = diff.reshape(diff.shape[:9] + (m,) * 6)  # witness: all 15 axes
            run.record(
                float(diff.max()),
                lambda g1=g1, g2=g2, g3=g3, g4=g4, diff=diff: {
                    "degrees": sl.names((g1, g2, g3, g4)),
                    "entry": _argmax_entry(diff),
                },
            )
        except MissingDataError as exc:
            run.skip_missing(exc)
    return run.result()


def orthogonality(sl, tol):
    m_bound = sl.data.mult_bound
    rng = np.arange(1, m_bound + 1)
    eye_a = np.eye(m_bound)

    def evaluate(degs):
        gi, gj, gp, gl, gm, gn = degs
        t1 = sl.sixj(*degs)
        t2 = dualized(sl, sl.sixj, (gp, gj, gi, gn, gm, gl), (1,))
        d_n = sl.scalars(gn)[0]
        d_k = sl.scalars(gp)[0]
        lhs = np.einsum(_ORTHO_LHS, t1, t2, d_n.astype(complex))
        eye_pk = np.eye(len(d_k))
        top = dualized(sl, sl.delta, (gi, gj, gp), (2,))
        bottom = dualized(sl, sl.delta, (gp, gl, gm), (2,))
        v_top = (rng <= top[..., None]).astype(float)
        v_bottom = (rng <= bottom[..., None]).astype(float)
        rhs = np.einsum(
            _ORTHO_RHS,
            eye_pk, eye_a, eye_a, 1.0 / d_k,
            v_top, v_bottom, v_top, v_bottom,
        )
        # the witness names the three free roots
        yield compare(sl, (gi, gj, gl), np.abs(lhs - rhs))

    return run_per_tuple("orthogonality", tol, sextuple_roots(sl), evaluate)


def conjugation(sl, tol):
    def evaluate(degs):
        g1, g2, g3, g4, g5, g6 = degs
        block = sl.sixj(*degs)
        partner = dualized(sl, sl.sixj, (g2, g1, g3, g5, g4, g6), (0, 1, 2))
        partner = np.transpose(partner, (1, 0, 2, 4, 3, 5, 6, 7, 9, 8))
        gam1 = dualized(sl, sl.gamma, (g1, g2, g3), (2,))
        gam2 = dualized(sl, sl.gamma, (g3, g4, g5), (2,))
        gam3 = dualized(sl, sl.gamma, (g1, g5, g6), (0, 2))
        gam4 = dualized(sl, sl.gamma, (g2, g6, g4), (0, 2))
        betas = [sl.scalars(g)[2] for g in degs]
        rhs = np.einsum(_CONJ_SPEC, partner, gam1, gam2, gam3, gam4, *betas)
        yield compare(sl, degs, np.abs(np.conj(block) - rhs))

    return run_per_tuple("conjugation", tol, sextuple_roots(sl), evaluate)


REFERENCE_CHECKS = [
    dual_involution,
    scalar_reality_duality,
    delta_symmetry,
    b_recursion,
    gamma_beta_normalization,
    sixj_support,
    tetrahedral_symmetry,
    dense_pentagon,
    orthogonality,
    conjugation,
]


def closure(degrees):
    """The sample degrees closed under negation, in report order."""
    return sorted({h for g in degrees for h in (g, -g)}, key=str)


def reference_report(data, degrees, tol=1e-9, max_tuples=4096):
    """Every check's `to_dict()`, evaluated tuple by tuple."""
    sl = _Slice(data, closure(degrees), max_tuples)
    return [check(sl, tol).to_dict() for check in REFERENCE_CHECKS]
