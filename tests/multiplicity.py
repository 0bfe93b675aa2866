"""Test providers shared by the operator, state-space and validator tests,
and the dense-array form of an operator that the tests plant faults in."""

import itertools
import zlib

import numpy as np

from rlw import LWData
from rlw.states import LinearOperator


def dense_operator(src, dst, matrix):
    """The operator of a dense (dst.dim, src.dim) array."""
    rows, cols = np.nonzero(matrix)
    return LinearOperator(src, dst, rows, cols, matrix[rows, cols])


class ForcedMultiplicity(LWData):
    """Multiplicity-free data that reports a branching bound of 2.

    The bound alone gives every branching slot axis size 2: the
    plaquette walk and the validator then run their `mult_bound > 1`
    paths on data whose answers are known from the size-1 form.
    """

    def __init__(self, base):
        self.base = base
        self.signature = base.signature
        self.singular = base.singular

    @property
    def mult_bound(self):
        return 2

    def labels(self, g):
        return self.base.labels(g)

    def label_index(self, label):
        return self.base.label_index(label)

    def dual(self, label):
        return self.base.dual(label)

    def delta(self, i, j, k):
        return self.base.delta(i, j, k)

    def gamma(self, i, j, k, n):
        return self.base.gamma(i, j, k, n)

    def sixj(self, js, a):
        return self.base.sixj(js, a)

    def probe_degrees(self):
        return self.base.probe_degrees()

    # blocks assembled entry by entry from the per-entry answers above

    def delta_block(self, g1, g2, g3):
        ls = [self.labels(g) for g in (g1, g2, g3)]
        out = np.zeros(tuple(map(len, ls)), dtype=int)
        for (i, a), (j, b), (k, c) in itertools.product(*(enumerate(l) for l in ls)):
            out[i, j, k] = self.delta(a, b, c)
        return out

    def gamma_block(self, g1, g2, g3):
        ls = [self.labels(g) for g in (g1, g2, g3)]
        out = np.zeros(tuple(map(len, ls)) + (self.mult_bound,))
        for (i, a), (j, b), (k, c) in itertools.product(*(enumerate(l) for l in ls)):
            for n in range(1, self.delta(a, b, c) + 1):
                out[i, j, k, n - 1] = self.gamma(a, b, c, n)
        return out

    def sixj_block(self, degs):
        ls = [self.labels(g) for g in degs]
        m = self.mult_bound
        out = np.zeros(tuple(map(len, ls)) + (m,) * 4, dtype=complex)
        for combo in itertools.product(*(enumerate(l) for l in ls)):
            idx = tuple(i for i, _ in combo)
            js = [l for _, l in combo]
            for a in itertools.product(range(1, m + 1), repeat=4):
                val = self.sixj(js, a)
                if val != 0:
                    out[idx + tuple(n - 1 for n in a)] = val
        return out


class DoubledMultiplicity(ForcedMultiplicity):
    """Data with real branching multiplicity, built from a
    multiplicity-free family: every delta doubled, gamma at n = 2 copied
    from n = 1, and each in-range 6j slot tuple scaled by a fixed
    pseudo-random complex weight.  Its plaquette moves are no projectors
    and it fails the pentagon; it gives the walk and the validator nonzero
    entries on every slot axis to contract.
    """

    def delta(self, i, j, k):
        return 2 * self.base.delta(i, j, k)

    def gamma(self, i, j, k, n):
        return self.base.gamma(i, j, k, 1 if n == 2 else n)

    def sixj(self, js, a):
        if not self.sixj_support(js, a):
            return 0j
        # keyed on ids and ints: repr(np.int64(1)) is not repr(1)
        key = repr((tuple(j.id for j in js), tuple(int(n) for n in a)))
        rng = np.random.default_rng(zlib.crc32(key.encode()))
        weight = complex(*rng.uniform(-1.0, 1.0, 2))
        return self.base.sixj(js, (1, 1, 1, 1)) * weight
