"""Test providers shared by the operator, state-space and validator tests."""

from rlw import LWData


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
