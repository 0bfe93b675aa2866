"""G-graded string-net input data.

A data object bundles the grading group, the singular set X, the label
sets I_g for generic degrees g, the scalars d, b, beta, the branching
scalars gamma, the fusion multiplicities delta, and the modified 6j
symbols N.  Every provider answers in degree blocks: its labels, its
`mult_bound` and its delta, gamma and 6j arrays over the labels of a
degree tuple are the whole provider interface, and `LWData` derives
duals and the per-entry queries from those.  Closed-form built-in
families compute their blocks; finite tables and the recording wrapper
live in `rlw.tables`, loaded on first use of `TableData` or
`RecordingData` here.  `BlockCache` is the one cached, degree-blocked
read path (interned degrees, blocks interned by content and read-only):
each data object keeps one, which its models and state spaces share.

Conventions baked into the interface:

- branching indices are 1-based, ``1 <= n <= delta(i, j, k)``;
- ``sixj`` is zero outside its delta-support, and raises only for
  indices below 1;
- d, b, beta, gamma are real (the field involution fixes them), only
  the 6j symbols may be complex.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DataFormatError,
    DomainError,
    IndexRangeError,
    MissingDataError,
)
from .group import QMODZ, GroupElement, GroupSignature, SingularSet

__all__ = [
    "Label",
    "LWData",
    "BuiltinFamily",
    "BlockCache",
    "parse_family_spec",
    "load_data",
    "data_from_config",
]


@dataclass(frozen=True)
class Label:
    """A simple object: an element of some I_g with its attached scalars."""

    id: str
    degree: GroupElement
    dual_id: str
    d: float
    b: float
    beta: float


# delta-support conditions (j1 j2 j3* a1), (j3 j4 j5* a2), (j5 j6* j1* a3),
# (j6 j4* j2* a4) over the 6j block axes j1..j6, a1..a4
_SUPPORT_SPEC = "abcd,cefg,fhai,hebj->abcefhdgij"


class BlockCache:
    """Degree blocks of one provider, each fetched once, interned and kept
    read-only.

    Degrees are interned as small ints: `id(g)` and `element(i)` map
    between them, `add` and `neg` are memoized and `generic[i]` is the
    singular-set test of id i, made once.  Block accessors take ids; the
    provider's `*_block`, `dual_perm` and `scalar_vectors` are called with
    the degrees once per distinct key.  Every array they return is
    interned by content: arrays equal in dtype, shape and every byte
    become one read-only object, found by a digest of the bytes and
    confirmed byte for byte, so equal blocks, perms and scalar vectors of
    different degrees are the same object.  `dualized` and `support` are
    memoized on the identities of the arrays they read, `corner` on its
    degree ids; what they derive is read-only but not interned.  Every
    array the cache hands out stays alive as long as the cache, so its
    `id` can key a memo.  Each data object makes one, `data.blocks`, on
    first use, and every model, state space and count over it shares it.
    """

    def __init__(self, data: LWData):
        self.data = data
        self._ids: dict = {}
        self._elements: list = []
        self.generic: list = []
        self._add: dict = {}
        self._neg: dict = {}
        # per accessor: ids -> the interned arrays
        self._delta, self._gamma, self._sixj, self._perm, self._scalars = (
            {}, {}, {}, {}, {}
        )
        self._interned: dict = {}  # id -> each interned array
        self._digests: dict = {}  # (dtype, shape, digest) -> interned arrays
        self._derived: dict = {}  # dualized, support and corner tables

    def id(self, g: GroupElement) -> int:
        i = self._ids.get(g)
        if i is None:
            i = self._ids[g] = len(self._elements)
            self._elements.append(g)
            self.generic.append(self.data.singular.is_generic(g))
        return i

    def element(self, i: int) -> GroupElement:
        return self._elements[i]

    def add(self, i: int, j: int) -> int:
        k = self._add.get((i, j))
        if k is None:
            k = self._add[i, j] = self.id(self._elements[i] + self._elements[j])
        return k

    def neg(self, i: int) -> int:
        k = self._neg.get(i)
        if k is None:
            k = self._neg[i] = self.id(-self._elements[i])
        return k

    def _intern(self, arr: np.ndarray) -> np.ndarray:
        """The one read-only array equal to `arr` in dtype, shape and bytes."""
        if id(arr) in self._interned:
            return arr
        data = arr.tobytes()
        same = self._digests.setdefault((arr.dtype, arr.shape, hash(data)), [])
        for known in same:
            if known.tobytes() == data:
                return known
        arr.flags.writeable = False
        same.append(arr)
        self._interned[id(arr)] = arr
        return arr

    def _fetch(self, cache: dict, ids: tuple, read):
        value = cache.get(ids)
        if value is None:
            value = read(*map(self._elements.__getitem__, ids))
            if isinstance(value, tuple):
                value = tuple(map(self._intern, value))
            else:
                value = self._intern(value)
            cache[ids] = value
        return value

    def delta(self, i: int, j: int, k: int) -> np.ndarray:
        return self._fetch(self._delta, (i, j, k), self.data.delta_block)

    def gamma(self, i: int, j: int, k: int) -> np.ndarray:
        return self._fetch(self._gamma, (i, j, k), self.data.gamma_block)

    def sixj(self, *ids: int) -> np.ndarray:
        return self._fetch(self._sixj, ids, self._sixj_block)

    def _sixj_block(self, *degs) -> np.ndarray:
        return self.data.sixj_block(degs)

    def perm(self, i: int) -> np.ndarray:
        return self._fetch(self._perm, (i,), self.data.dual_perm)

    def scalars(self, i: int):
        return self._fetch(self._scalars, (i,), self.data.scalar_vectors)

    def dualized(self, read, ids: Sequence[int], dual: Sequence[int]) -> np.ndarray:
        """Array `read` at the degrees `ids`, those at the positions in
        `dual` negated: a dual axis is re-indexed by labels(g) through
        `perm`, so its index x reads the dual of label x.  `read` is any
        accessor taking ids and returning an array with one axis per id:
        a delta, gamma or 6j block, a `corner` table or a scalar vector.
        One array per raw array, dual positions and perms read."""
        at = list(ids)
        for k in dual:
            at[k] = self.neg(at[k])
        block = read(*at)
        perms = [self.perm(ids[k]) for k in dual]
        key = (id(block), tuple(dual), *map(id, perms))
        out = self._derived.get(key)
        if out is None:
            out = block
            for k, perm in zip(dual, perms):
                out = np.take(out, perm, axis=k)
            out.flags.writeable = False
            self._derived[key] = out
        return out

    def support(self, ids: Sequence[int]) -> np.ndarray:
        """Boolean index-range tensor over labels(g1)..labels(g6), a1..a4:
        one array per set of the four dualized delta blocks it reads."""
        g1, g2, g3, g4, g5, g6 = ids
        triples = ((g1, g2, g3), (g3, g4, g5), (g5, g6, g1), (g6, g4, g2))
        deltas = [
            self.dualized(self.delta, t, dual)
            for t, dual in zip(triples, ((2,), (2,), (1, 2), (1, 2)))
        ]
        key = ("support", *map(id, deltas))
        mask = self._derived.get(key)
        if mask is None:
            rng = np.arange(1, self.data.mult_bound + 1)
            conds = [(rng <= delta[..., None]).astype(int) for delta in deltas]
            mask = np.einsum(_SUPPORT_SPEC, *conds) > 0
            mask.flags.writeable = False
            self._derived[key] = mask
        return mask

    def corner(self, *ids: int) -> np.ndarray:
        """The 6j block at `ids` with each nonzero entry valued by pointwise
        `sixj`, so an entry a table stores outside the delta support reads
        as zero here, as it does pointwise: one plaquette-walk corner."""
        table = self._derived.get(("corner", *ids))
        if table is None:
            block = self.sixj(*ids)
            labels = [self.data.labels(self.element(d)) for d in ids]
            table = np.zeros_like(block)
            for idx in zip(*np.nonzero(block)):
                js = [ls[x] for ls, x in zip(labels, idx)]
                table[idx] = self.data.sixj(js, tuple(int(a) + 1 for a in idx[6:]))
            table.flags.writeable = False
            self._derived["corner", *ids] = table
        return table


class LWData:
    """Query interface for one set of graded string-net data.

    Its answers are fixed at construction; `blocks`, its one `BlockCache`,
    fills its memos as it is read, without locks.  A provider supplies
    `labels`, `mult_bound`, `probe_degrees` and the three degree blocks
    `delta_block`, `gamma_block` and `sixj_block`.  Everything else is
    derived here from those, the same way for every provider: duals and
    scalar vectors from the labels, and the per-entry `delta`, `gamma` and
    `sixj` (index-range rule included) read off the blocks.  A provider
    may override a derived query with an equal closed form, as
    `BuiltinFamily` does.
    """

    signature: GroupSignature
    singular: SingularSet
    blocks = cached_property(BlockCache)

    # -- the provider interface --------------------------------------------

    def labels(self, g: GroupElement) -> tuple:
        raise NotImplementedError

    @property
    def mult_bound(self) -> int:
        """Largest delta value; sizes the branching-index axes."""
        raise NotImplementedError

    def probe_degrees(self) -> Iterator[GroupElement]:
        """Candidate degrees for plaquette probes, most preferred first."""
        raise NotImplementedError

    def delta_block(self, g1, g2, g3) -> np.ndarray:
        """delta over labels(g1) x labels(g2) x labels(g3)."""
        raise NotImplementedError

    def gamma_block(self, g1, g2, g3) -> np.ndarray:
        """gamma over labels(g1..g3) and n in 1..mult_bound, zero-padded
        outside the delta range (the pad is only ever multiplied against
        6j entries that vanish there).  An entry inside the delta range
        that the data lacks raises `MissingDataError`."""
        raise NotImplementedError

    def sixj_block(self, degs: Sequence[GroupElement]) -> np.ndarray:
        """N over labels(g1)x..xlabels(g6) and four branching axes of
        size mult_bound (1-based index n stored at position n-1).

        Table blocks are unmasked: `TableData` returns a stored entry
        even outside the delta support, where `sixj` reads 0, so that the
        validator can see it.  Readers that need pointwise semantics
        mask with `BlockCache.support` or, like `BlockCache.corner`, read
        the values at the block's nonzero entries through `sixj`."""
        raise NotImplementedError

    # -- labels ----------------------------------------------------------

    def check_degree(self, g: GroupElement) -> GroupElement:
        if self.singular.contains(g):
            raise DomainError(f"degree {g} is singular")
        return g

    def label_index(self, label: Label) -> int:
        for i, lbl in enumerate(self.labels(label.degree)):
            if lbl.id == label.id:
                return i
        raise MissingDataError(f"label {label.id!r} not found at degree {label.degree}")

    def dual(self, label: Label) -> Label:
        for lbl in self.labels(-label.degree):
            if lbl.id == label.dual_id:
                return lbl
        raise MissingDataError(
            f"dual label {label.dual_id!r} not found at degree {-label.degree}"
        )

    def dual_perm(self, g: GroupElement) -> np.ndarray:
        """Index in labels(-g) of the dual of each label of degree g."""
        target = {lbl.id: i for i, lbl in enumerate(self.labels(-g))}
        index = []
        for dual in map(self.dual, self.labels(g)):
            if dual.id not in target:
                raise MissingDataError(f"dual label {dual.id!r} not found at degree {-g}")
            index.append(target[dual.id])
        return np.array(index)

    def scalar_vectors(self, g: GroupElement):
        """(d, b, beta) arrays over labels(g)."""
        ls = self.labels(g)
        return (
            np.array([l.d for l in ls]),
            np.array([l.b for l in ls]),
            np.array([l.beta for l in ls]),
        )

    # -- per-entry reads off the blocks --------------------------------------

    def _at(self, labels: Sequence[Label]) -> tuple:
        return tuple(self.label_index(lbl) for lbl in labels)

    def delta(self, i: Label, j: Label, k: Label) -> int:
        return int(self.delta_block(i.degree, j.degree, k.degree)[self._at((i, j, k))])

    def gamma(self, i: Label, j: Label, k: Label, n: int) -> float:
        d = self.delta(i, j, k)
        if not 1 <= n <= d:
            raise IndexRangeError(f"branching index {n} outside 1..{d}")
        block = self.gamma_block(i.degree, j.degree, k.degree)
        return float(block[self._at((i, j, k)) + (n - 1,)])

    def sixj(self, js: Sequence[Label], a: Sequence[int]) -> complex:
        """N^{j1 j2 j3}_{j4 j5 j6} at branching indices (a1, a2; a3, a4):
        zero outside the delta support, an error only below 1."""
        self._check_branching(a)
        if not self.sixj_support(js, a):
            return 0j
        block = self.sixj_block(tuple(j.degree for j in js))
        return complex(block[self._at(js) + tuple(n - 1 for n in a)])

    def _check_branching(self, a: Sequence[int]):
        for n in a:
            if n < 1:
                raise IndexRangeError(f"branching index {n} is below 1")

    def sixj_support(self, js: Sequence[Label], a: Sequence[int]) -> bool:
        """The index-range rule: each a_i within its delta bound."""
        j1, j2, j3, j4, j5, j6 = js
        a1, a2, a3, a4 = a
        return (
            a1 <= self.delta(j1, j2, self.dual(j3))
            and a2 <= self.delta(j3, j4, self.dual(j5))
            and a3 <= self.delta(j5, self.dual(j6), self.dual(j1))
            and a4 <= self.delta(j6, self.dual(j4), self.dual(j2))
        )


def _whole(*fractions) -> bool:
    """Whether the (numerator, denominator) pairs sum to an integer, on
    integers alone: the degree test of the builtin blocks."""
    num, den = 0, 1
    for n, d in fractions:
        num, den = num * d + n * den, den * d
    return num % den == 0


def _finite_positive(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and 0 < x < math.inf


class BuiltinFamily(LWData):
    """Closed-form families over G = Q/Z with X = {x : 6x = 0}.

    Every generic degree g carries N labels (g, a), a in Z/N, with dual
    (g, a)* = (-g, -a) and delta((g1,a1),(g2,a2),(g3,a3)) = 1 iff the
    degrees sum to 0 and a1+a2+a3 = 0 mod N.  The kinds differ only in
    scalars:

    ==== ======= ============ ============= ===========
    kind d       beta         gamma         6j (support)
    ==== ======= ============ ============= ===========
    P    c       1            1             1/c
    M    -c      1            1             -1/c
    F    c       g0^(-2/3)    g0            1/c
    ==== ======= ============ ============= ===========

    b = 1/N throughout.  All axioms hold exactly; see the validator.
    """

    def __init__(self, kind: str, N: int, c: float, gamma0: Optional[float] = None):
        if kind not in ("P", "M", "F"):
            raise DataFormatError(f"unknown family kind {kind!r}")
        # a bool, a float N or a string is refused, not converted; a NaN or
        # infinite c or gamma0 would only surface as inf residuals or a singular eta
        if isinstance(N, bool) or not isinstance(N, int) or N < 1:
            raise DataFormatError(f"family size N must be an integer >= 1, got {N!r}")
        if not _finite_positive(c):
            raise DataFormatError(f"family parameter c must be finite and > 0, got {c!r}")
        if kind == "F":
            if not _finite_positive(gamma0):
                raise DataFormatError(f"family F needs a finite gamma0 > 0, got {gamma0!r}")
        elif gamma0 is not None:
            raise DataFormatError(f"family {kind} takes no gamma0")
        self.kind = kind
        self.N = N
        self.c = float(c)
        self.gamma0 = float(gamma0) if kind == "F" else None
        self.signature = QMODZ
        self.singular = SingularSet.torsion_dividing(6)
        self._d = self.c if kind != "M" else -self.c
        self._b = 1.0 / N
        self._beta = self.gamma0 ** (-2.0 / 3.0) if kind == "F" else 1.0
        self._gamma = self.gamma0 if kind == "F" else 1.0
        self._sixj_val = complex(1.0 / self.c if kind != "M" else -1.0 / self.c)
        # labels and the closed forms are answered from small dicts and
        # integer sums; blocks are shared read-only arrays
        self._label_cache: dict = {}
        self._blocks: dict = {}

    @property
    def mult_bound(self) -> int:
        return 1

    @staticmethod
    def _degkey(g: GroupElement) -> tuple:
        return g.values[0].as_integer_ratio()

    def labels(self, g: GroupElement) -> tuple:
        cached = self._label_cache.get(self._degkey(g))
        if cached is None:
            self.check_degree(g)
            neg = -g
            cached = tuple(
                Label(
                    id=f"{a}@{g}",
                    degree=g,
                    dual_id=f"{(-a) % self.N}@{neg}",
                    d=self._d,
                    b=self._b,
                    beta=self._beta,
                )
                for a in range(self.N)
            )
            self._label_cache[self._degkey(g)] = cached
        return cached

    @staticmethod
    def _apart(label: Label) -> int:
        return int(label.id.split("@", 1)[0])

    def delta(self, i: Label, j: Label, k: Label) -> int:
        if (self._apart(i) + self._apart(j) + self._apart(k)) % self.N:
            return 0
        total = i.degree.values[0] + j.degree.values[0] + k.degree.values[0]
        return int(total.denominator == 1)

    def gamma(self, i: Label, j: Label, k: Label, n: int) -> float:
        d = self.delta(i, j, k)
        if not 1 <= n <= d:
            raise IndexRangeError(f"branching index {n} outside 1..{d}")
        return self._gamma

    def sixj(self, js: Sequence[Label], a: Sequence[int]) -> complex:
        self._check_branching(a)
        if max(a) > 1:
            return 0j
        n = self.N
        a1, a2, a3, a4, a5, a6 = (self._apart(j) for j in js)
        if (
            (a1 + a2 - a3) % n
            or (a3 + a4 - a5) % n
            or (a5 - a6 - a1) % n
            or (a6 - a4 - a2) % n
        ):
            return 0j
        if not self._meets([self._degkey(j.degree) for j in js]):
            return 0j
        return self._sixj_val

    # vectorized blocks: the delta support over a-parts depends on no
    # degree, so every call returns one of a few shared read-only blocks

    def _apart_grid(self, k: int):
        return [
            np.arange(self.N).reshape((1,) * i + (-1,) + (1,) * (k - 1 - i))
            for i in range(k)
        ]

    def _keys(self, degs) -> list:
        keys = [self._degkey(g) for g in degs]
        for g, key in zip(degs, keys):
            if key not in self._label_cache:
                self.labels(g)  # checks the degree, once
        return keys

    def _shared(self, kind: str, meets: bool = True) -> np.ndarray:
        """The one "delta", "gamma" or "sixj" block of every degree tuple
        that meets the degree constraint, or the one zero block of every
        tuple that does not."""
        block = self._blocks.get((kind, meets))
        if block is None:
            n = self.N
            if not meets:
                block = np.zeros_like(self._shared(kind))
            elif kind == "sixj":
                x1, x2, x3, x4, x5, x6 = self._apart_grid(6)
                support = (
                    ((x1 + x2 - x3) % n == 0)
                    & ((x3 + x4 - x5) % n == 0)
                    & ((x5 - x6 - x1) % n == 0)
                    & ((x6 - x4 - x2) % n == 0)
                )
                block = (self._sixj_val * support).reshape((n,) * 6 + (1,) * 4)
            elif kind == "gamma":
                block = (self._gamma * self._shared("delta")).astype(float)[..., None]
            else:
                x1, x2, x3 = self._apart_grid(3)
                block = ((x1 + x2 + x3) % n == 0).astype(int)
            block.flags.writeable = False
            self._blocks[kind, meets] = block
        return block

    def delta_block(self, g1, g2, g3) -> np.ndarray:
        return self._shared("delta", _whole(*self._keys((g1, g2, g3))))

    def gamma_block(self, g1, g2, g3) -> np.ndarray:
        return self._shared("gamma", _whole(*self._keys((g1, g2, g3))))

    @staticmethod
    def _meets(keys) -> bool:
        """Whether the degrees of these six keys meet the 6j degree
        constraint: the four corner sums are integers."""
        k1, k2, k3, k4, k5, k6 = keys
        m1, m2, m3, m4, m5, m6 = [(-num, den) for num, den in keys]
        return (
            _whole(k1, k2, m3)
            and _whole(k3, k4, m5)
            and _whole(k5, m6, m1)
            and _whole(k6, m4, m2)
        )

    def sixj_block(self, degs: Sequence[GroupElement]) -> np.ndarray:
        return self._shared("sixj", self._meets(self._keys(degs)))

    def probe_degrees(self) -> Iterator[GroupElement]:
        for den in itertools.count(2):
            for num in range(1, den):
                if math.gcd(num, den) == 1:
                    g = QMODZ.parse(Fraction(num, den))
                    if self.singular.is_generic(g):
                        yield g

    def __repr__(self):
        extra = f",{self.gamma0}" if self.kind == "F" else ""
        return f"BuiltinFamily({self.kind}:{self.N}:{self.c}{extra})"


def _subscripts(*groups) -> str:
    """einsum subscripts "in,...->out" for groups of slot names, the last
    group the output; each call names its own slots from the 52 letters."""
    names = dict.fromkeys(itertools.chain(*groups))
    letters = {s: string.ascii_letters[k] for k, s in enumerate(names)}
    subs = ["".join(letters[s] for s in group) for group in groups]
    return ",".join(subs[:-1]) + "->" + subs[-1]


def _join(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with a[i] == b[j], ordered by i, then by j."""
    order = np.argsort(b, kind="stable")
    lo = np.searchsorted(b[order], a, "left")
    counts = np.searchsorted(b[order], a, "right") - lo
    i = np.repeat(np.arange(len(a)), counts)
    start = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return i, order[start + np.arange(len(i))]


def parse_family_spec(spec: str) -> BuiltinFamily:
    """Parse colon syntax: P:N:c, M:N:c, F:N:c:gamma0."""
    parts = spec.split(":")
    kind = parts[0]
    want = 4 if kind == "F" else 3
    if kind not in ("P", "M", "F") or len(parts) != want:
        raise DataFormatError(
            f"bad family spec {spec!r}; expected P:N:c, M:N:c or F:N:c:gamma0"
        )
    try:
        N = int(parts[1])
        c = float(parts[2])
        gamma0 = float(parts[3]) if kind == "F" else None
    except ValueError as exc:
        raise DataFormatError(f"bad family spec {spec!r}: {exc}") from exc
    return BuiltinFamily(kind, N, c, gamma0)


def data_from_config(obj: dict) -> LWData:
    if "family" in obj:
        return BuiltinFamily(str(obj["family"]), obj.get("N", 1), obj.get("c", 1.0), obj.get("gamma0"))
    from .tables import TableData
    return TableData.from_dict(obj)


def load_data(path: str) -> LWData:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    return data_from_config(obj)


def __getattr__(name):
    if name not in ("TableData", "RecordingData"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tables
    return getattr(tables, name)
