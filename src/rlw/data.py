"""G-graded string-net input data.

A data object bundles the grading group, the singular set X, the label
sets I_g for generic degrees g, the scalars d, b, beta, the branching
scalars gamma, the fusion multiplicities delta, and the modified 6j
symbols N.  Two providers implement the same interface: closed-form
built-in families and file-backed finite tables.  A recording wrapper
captures the slice of a provider actually used by a computation so it
can be exported and replayed from a table.  `BlockCache` is the one
cached, degree-blocked read path that the validator and the plaquette
walk share.

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
from dataclasses import dataclass
from fractions import Fraction
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
    "TableData",
    "RecordingData",
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


class LWData:
    """Query interface for one set of graded string-net data.

    Immutable after construction; all methods are safe for concurrent
    reads.  Subclasses must provide `labels`, `delta`, `gamma`, `sixj`
    and `mult_bound`; the block accessors have generic implementations
    that subclasses may vectorize.
    """

    signature: GroupSignature
    singular: SingularSet

    # -- labels ----------------------------------------------------------

    def labels(self, g: GroupElement) -> tuple:
        raise NotImplementedError

    @property
    def mult_bound(self) -> int:
        """Largest delta value; sizes the branching-index axes."""
        raise NotImplementedError

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

    # -- pointwise data --------------------------------------------------

    def delta(self, i: Label, j: Label, k: Label) -> int:
        raise NotImplementedError

    def gamma(self, i: Label, j: Label, k: Label, n: int) -> float:
        raise NotImplementedError

    def sixj(self, js: Sequence[Label], a: Sequence[int]) -> complex:
        """N^{j1 j2 j3}_{j4 j5 j6} at branching indices (a1, a2; a3, a4)."""
        raise NotImplementedError

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

    # -- degree blocks (vectorized views used by the validator) ----------

    def dual_perm(self, g: GroupElement) -> np.ndarray:
        """Index in labels(-g) of the dual of each label of degree g."""
        target = {lbl.id: i for i, lbl in enumerate(self.labels(-g))}
        try:
            return np.array([target[lbl.id] for lbl in map(self.dual, self.labels(g))])
        except KeyError as exc:  # pragma: no cover - guarded by dual()
            raise MissingDataError(f"dual label {exc} missing at degree {-g}") from exc

    def scalar_vectors(self, g: GroupElement):
        """(d, b, beta) arrays over labels(g)."""
        ls = self.labels(g)
        return (
            np.array([l.d for l in ls]),
            np.array([l.b for l in ls]),
            np.array([l.beta for l in ls]),
        )

    def delta_block(self, g1, g2, g3) -> np.ndarray:
        ls = [self.labels(g) for g in (g1, g2, g3)]
        out = np.zeros(tuple(map(len, ls)), dtype=int)
        for (i, a), (j, b), (k, c) in itertools.product(*(enumerate(l) for l in ls)):
            out[i, j, k] = self.delta(a, b, c)
        return out

    def gamma_block(self, g1, g2, g3) -> np.ndarray:
        """gamma over labels(g1..g3) and n in 1..mult_bound, zero-padded
        outside the delta range (the pad is only ever multiplied against
        6j entries that vanish there).  An entry inside the delta range
        that the data lacks raises `MissingDataError`, as `gamma` does."""
        ls = [self.labels(g) for g in (g1, g2, g3)]
        m = self.mult_bound
        out = np.zeros(tuple(map(len, ls)) + (m,))
        for (i, a), (j, b), (k, c) in itertools.product(*(enumerate(l) for l in ls)):
            for n in range(1, self.delta(a, b, c) + 1):
                out[i, j, k, n - 1] = self.gamma(a, b, c, n)
        return out

    def sixj_block(self, degs: Sequence[GroupElement]) -> np.ndarray:
        """N over labels(g1)x..xlabels(g6) and four branching axes of
        size mult_bound (1-based index n stored at position n-1).

        Table blocks are unmasked: `TableData` returns a stored entry
        even outside the delta support, where `sixj` reads 0, so that the
        validator can see it.  Readers that need pointwise semantics
        mask with `BlockCache.support` or, like the plaquette walk, read
        the values at the block's nonzero entries through `sixj`."""
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

    # -- misc -------------------------------------------------------------

    def probe_degrees(self) -> Iterator[GroupElement]:
        """Candidate degrees for plaquette probes, most preferred first."""
        raise NotImplementedError


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
        if N < 1:
            raise DataFormatError("family size N must be positive")
        if c <= 0:
            raise DataFormatError("family parameter c must be positive")
        if kind == "F":
            if gamma0 is None or gamma0 <= 0:
                raise DataFormatError("family F needs gamma0 > 0")
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
        # operator assembly hammers labels/dual/delta/sixj, so everything
        # that can be answered from small dicts and integer sums is
        self._label_cache: dict = {}
        self._apart_cache: dict = {}
        self._dual_cache: dict = {}

    @property
    def mult_bound(self) -> int:
        return 1

    @staticmethod
    def _degkey(g: GroupElement) -> tuple:
        v = g.values[0]
        return (v.numerator, v.denominator)

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
            for a, lab in enumerate(cached):
                self._apart_cache[lab.id] = a
        return cached

    def label_index(self, label: Label) -> int:
        return self._apart(label)

    def _apart(self, label: Label) -> int:
        a = self._apart_cache.get(label.id)
        if a is None:
            a = int(label.id.split("@", 1)[0])
            self._apart_cache[label.id] = a
        return a

    def dual(self, label: Label) -> Label:
        lab = self._dual_cache.get(label.id)
        if lab is None:
            lab = self.labels(-label.degree)[(-self._apart(label)) % self.N]
            self._dual_cache[label.id] = lab
        return lab

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
        g1, g2, g3, g4, g5, g6 = (j.degree.values[0] for j in js)
        if (
            (g1 + g2 - g3).denominator != 1
            or (g3 + g4 - g5).denominator != 1
            or (g5 - g6 - g1).denominator != 1
            or (g6 - g4 - g2).denominator != 1
        ):
            return 0j
        return self._sixj_val

    # vectorized blocks: delta support over a-parts via modular sums

    def _apart_grid(self, k: int):
        return [
            np.arange(self.N).reshape((1,) * i + (-1,) + (1,) * (k - 1 - i))
            for i in range(k)
        ]

    def delta_block(self, g1, g2, g3) -> np.ndarray:
        for g in (g1, g2, g3):
            self.check_degree(g)
        if not (g1 + g2 + g3).is_zero:
            return np.zeros((self.N,) * 3, dtype=int)
        x1, x2, x3 = self._apart_grid(3)
        return ((x1 + x2 + x3) % self.N == 0).astype(int)

    def gamma_block(self, g1, g2, g3) -> np.ndarray:
        return (self._gamma * self.delta_block(g1, g2, g3)).astype(float)[..., None]

    def sixj_block(self, degs: Sequence[GroupElement]) -> np.ndarray:
        g1, g2, g3, g4, g5, g6 = [self.check_degree(g) for g in degs]
        shape = (self.N,) * 6 + (1,) * 4
        if not (
            (g1 + g2 - g3).is_zero
            and (g3 + g4 - g5).is_zero
            and (g5 - g6 - g1).is_zero
            and (g6 - g4 - g2).is_zero
        ):
            return np.zeros(shape, dtype=complex)
        x1, x2, x3, x4, x5, x6 = self._apart_grid(6)
        support = (
            ((x1 + x2 - x3) % self.N == 0)
            & ((x3 + x4 - x5) % self.N == 0)
            & ((x5 - x6 - x1) % self.N == 0)
            & ((x6 - x4 - x2) % self.N == 0)
        )
        return (self._sixj_val * support).reshape(shape)

    def dual_perm(self, g: GroupElement) -> np.ndarray:
        self.check_degree(g)
        return (-np.arange(self.N)) % self.N

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


def _require(cond: bool, msg: str):
    if not cond:
        raise DataFormatError(msg)


def _real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataFormatError(f"{what} must be a real number, got {value!r}")
    return float(value)


class TableData(LWData):
    """Finite tabulated data loaded from a dict or JSON file.

    Expected shape::

        {"group": {...}, "singular": {...},
         "labels": [{"id", "degree", "dual", "d", "b", "beta"}, ...],
         "delta":  [{"i", "j", "k", "value"}, ...],
         "gamma":  [{"i", "j", "k", "n", "value"}, ...],
         "sixj":   [{"j": [6 ids], "a": [4 ints], "re", "im"}, ...]}

    Absent delta/sixj entries are zero.  A gamma entry missing inside
    the delta range of its triple is reported as missing data when
    queried, not silently defaulted.
    """

    def __init__(
        self,
        signature: GroupSignature,
        singular: SingularSet,
        labels: Sequence[Label],
        delta: dict,
        gamma: dict,
        sixj: dict,
        source: Optional[str] = None,
    ):
        self.signature = signature
        self.singular = singular
        self._by_id: dict = {}
        self._by_degree: dict = {}
        for lbl in labels:
            _require(lbl.id not in self._by_id, f"duplicate label id {lbl.id!r}")
            self._by_id[lbl.id] = lbl
            self._by_degree.setdefault(lbl.degree, []).append(lbl)
        for g in self._by_degree:
            _require(
                self.singular.is_generic(g), f"labels provided at singular degree {g}"
            )
        self._by_degree = {g: tuple(ls) for g, ls in self._by_degree.items()}
        self._index = {
            lbl.id: i
            for ls in self._by_degree.values()
            for i, lbl in enumerate(ls)
        }
        for lbl in self._by_id.values():
            partner = self._by_id.get(lbl.dual_id)
            _require(partner is not None, f"label {lbl.id!r} has unknown dual")
            _require(
                partner.degree == -lbl.degree,
                f"dual of {lbl.id!r} has degree {partner.degree}, expected"
                f" {-lbl.degree}",
            )
            _require(
                partner.dual_id == lbl.id,
                f"dual involution broken at {lbl.id!r}",
            )
        self._delta = dict(delta)
        self._gamma = dict(gamma)
        self._sixj = dict(sixj)
        self._mult = max(self._delta.values(), default=0)
        self.source = source
        # degree-bucketed views so block assembly touches only stored entries
        self._delta_buckets: dict = {}
        for (i, j, k), v in self._delta.items():
            key = (self._deg(i), self._deg(j), self._deg(k))
            self._delta_buckets.setdefault(key, []).append((i, j, k, v))
        self._gamma_buckets: dict = {}
        for (i, j, k, n), v in self._gamma.items():
            key = (self._deg(i), self._deg(j), self._deg(k))
            self._gamma_buckets.setdefault(key, []).append((i, j, k, n, v))
        self._sixj_buckets: dict = {}
        for (ids, a), v in self._sixj.items():
            key = tuple(self._deg(i) for i in ids)
            self._sixj_buckets.setdefault(key, []).append((ids, a, v))

    def _deg(self, label_id: str) -> GroupElement:
        lbl = self._by_id.get(label_id)
        if lbl is None:
            raise MissingDataError(f"unknown label id {label_id!r}")
        return lbl.degree

    # -- interface --------------------------------------------------------

    @property
    def mult_bound(self) -> int:
        return max(self._mult, 1)

    def degrees(self) -> tuple:
        return tuple(sorted(self._by_degree, key=str))

    def labels(self, g: GroupElement) -> tuple:
        self.check_degree(g)
        try:
            return self._by_degree[g]
        except KeyError:
            raise MissingDataError(f"degree {g} not tabulated") from None

    def label_index(self, label: Label) -> int:
        try:
            return self._index[label.id]
        except KeyError:
            raise MissingDataError(f"unknown label id {label.id!r}") from None

    def dual(self, label: Label) -> Label:
        try:
            return self._by_id[label.dual_id]
        except KeyError:
            raise MissingDataError(f"unknown label id {label.dual_id!r}") from None

    def _known(self, *labels: Label):
        for lbl in labels:
            if lbl.id not in self._by_id:
                raise MissingDataError(f"unknown label id {lbl.id!r}")

    def delta(self, i: Label, j: Label, k: Label) -> int:
        self._known(i, j, k)
        if not (i.degree + j.degree + k.degree).is_zero:
            return 0
        return self._delta.get((i.id, j.id, k.id), 0)

    def gamma(self, i: Label, j: Label, k: Label, n: int) -> float:
        d = self.delta(i, j, k)
        if not 1 <= n <= d:
            raise IndexRangeError(f"branching index {n} outside 1..{d}")
        try:
            return self._gamma[(i.id, j.id, k.id, n)]
        except KeyError:
            raise MissingDataError(
                f"gamma missing for ({i.id},{j.id},{k.id}) at n={n}"
                f" inside delta range {d}"
            ) from None

    def sixj(self, js: Sequence[Label], a: Sequence[int]) -> complex:
        self._check_branching(a)
        self._known(*js)
        if not self.sixj_support(js, a):
            return 0j
        return self._sixj.get((tuple(j.id for j in js), tuple(a)), 0j)

    # -- fast block assembly from the buckets ------------------------------

    def delta_block(self, g1, g2, g3) -> np.ndarray:
        ls = [self.labels(g) for g in (g1, g2, g3)]
        out = np.zeros(tuple(map(len, ls)), dtype=int)
        for i, j, k, v in self._delta_buckets.get((g1, g2, g3), ()):
            out[self._index[i], self._index[j], self._index[k]] = v
        return out

    def gamma_block(self, g1, g2, g3) -> np.ndarray:
        ls = [self.labels(g) for g in (g1, g2, g3)]
        out = np.zeros(tuple(map(len, ls)) + (self.mult_bound,))
        stored = np.zeros(out.shape, dtype=bool)
        for i, j, k, n, v in self._gamma_buckets.get((g1, g2, g3), ()):
            idx = (self._index[i], self._index[j], self._index[k], n - 1)
            out[idx], stored[idx] = v, True
        bounds = self.delta_block(g1, g2, g3)
        in_range = np.arange(1, out.shape[3] + 1) <= bounds[..., None]
        missing = np.argwhere(in_range & ~stored)
        if len(missing):
            x, y, z, n = missing[0]
            raise MissingDataError(
                f"gamma missing for ({ls[0][x].id},{ls[1][y].id},{ls[2][z].id})"
                f" at n={n + 1} inside delta range {bounds[x, y, z]}"
            )
        return out

    def sixj_block(self, degs: Sequence[GroupElement]) -> np.ndarray:
        ls = [self.labels(g) for g in degs]
        m = self.mult_bound
        out = np.zeros(tuple(map(len, ls)) + (m,) * 4, dtype=complex)
        for ids, a, v in self._sixj_buckets.get(tuple(degs), ()):
            idx = tuple(self._index[i] for i in ids)
            out[idx + tuple(n - 1 for n in a)] = v
        return out

    def probe_degrees(self) -> Iterator[GroupElement]:
        return iter(self.degrees())

    # -- (de)serialization -------------------------------------------------

    @classmethod
    def from_dict(cls, obj: dict, source: Optional[str] = None) -> "TableData":
        _require(isinstance(obj, dict), "data table must be a JSON object")
        for key in ("group", "singular", "labels"):
            _require(key in obj, f"data table lacks {key!r}")
        signature = GroupSignature.from_json(obj["group"])
        singular = SingularSet.from_json(obj["singular"], signature)
        labels = []
        for row in obj["labels"]:
            _require(
                isinstance(row, dict) and {"id", "degree", "dual"} <= row.keys(),
                f"malformed label row {row!r}",
            )
            labels.append(
                Label(
                    id=str(row["id"]),
                    degree=signature.parse(row["degree"]),
                    dual_id=str(row["dual"]),
                    d=_real(row.get("d", 1), "d"),
                    b=_real(row.get("b", 1), "b"),
                    beta=_real(row.get("beta", 1), "beta"),
                )
            )
        delta = {}
        for row in obj.get("delta", []):
            delta[(str(row["i"]), str(row["j"]), str(row["k"]))] = int(row["value"])
        gamma = {}
        for row in obj.get("gamma", []):
            key = (str(row["i"]), str(row["j"]), str(row["k"]), int(row["n"]))
            gamma[key] = _real(row["value"], "gamma")
        sixj = {}
        for row in obj.get("sixj", []):
            _require(
                len(row.get("j", ())) == 6 and len(row.get("a", ())) == 4,
                f"malformed sixj row {row!r}",
            )
            key = (tuple(map(str, row["j"])), tuple(map(int, row["a"])))
            sixj[key] = complex(
                _real(row.get("re", 0), "sixj re"), _real(row.get("im", 0), "sixj im")
            )
        return cls(signature, singular, labels, delta, gamma, sixj, source=source)

    @classmethod
    def from_file(cls, path: str) -> "TableData":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(obj, source=path)

    def to_dict(self) -> dict:
        labels = []
        for g in self.degrees():
            for lbl in self._by_degree[g]:
                labels.append(
                    {
                        "id": lbl.id,
                        "degree": lbl.degree.to_json(),
                        "dual": lbl.dual_id,
                        "d": lbl.d,
                        "b": lbl.b,
                        "beta": lbl.beta,
                    }
                )
        delta = [
            {"i": i, "j": j, "k": k, "value": v}
            for (i, j, k), v in sorted(self._delta.items())
        ]
        gamma = [
            {"i": i, "j": j, "k": k, "n": n, "value": v}
            for (i, j, k, n), v in sorted(self._gamma.items())
        ]
        sixj = [
            {"j": list(ids), "a": list(a), "re": v.real, "im": v.imag}
            for (ids, a), v in sorted(self._sixj.items())
        ]
        return {
            "group": self.signature.to_json(),
            "singular": self.singular.to_json(),
            "labels": labels,
            "delta": delta,
            "gamma": gamma,
            "sixj": sixj,
        }

    def to_file(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


class RecordingData(LWData):
    """Pass-through wrapper that records the slice of `base` it serves.

    Everything queried (label degrees, nonzero delta triples, in-range
    gamma values, nonzero 6j entries, scalars) is remembered;
    `export_table` emits a TableData-format dict covering exactly that
    slice, closed under duals.  Replaying the same computation against
    the exported table reproduces every answer bit for bit: entries
    absent from the export were zero in the base data.
    """

    def __init__(self, base: LWData):
        self.base = base
        self.signature = base.signature
        self.singular = base.singular
        self._degrees: set = set()
        self._rec_delta: dict = {}
        self._rec_gamma: dict = {}
        self._rec_sixj: dict = {}

    @property
    def mult_bound(self) -> int:
        return self.base.mult_bound

    def labels(self, g: GroupElement) -> tuple:
        ls = self.base.labels(g)
        self._degrees.add(g)
        return ls

    def label_index(self, label: Label) -> int:
        return self.base.label_index(label)

    def dual(self, label: Label) -> Label:
        self._degrees.add(label.degree)
        self._degrees.add(-label.degree)
        return self.base.dual(label)

    def delta(self, i: Label, j: Label, k: Label) -> int:
        v = self.base.delta(i, j, k)
        if v:
            self._rec_delta[(i.id, j.id, k.id)] = v
            for lbl in (i, j, k):
                self._degrees.add(lbl.degree)
        return v

    def gamma(self, i: Label, j: Label, k: Label, n: int) -> float:
        v = self.base.gamma(i, j, k, n)
        self._rec_gamma[(i.id, j.id, k.id, n)] = v
        return v

    def sixj(self, js: Sequence[Label], a: Sequence[int]) -> complex:
        v = self.base.sixj(js, a)
        if v != 0:
            self._rec_sixj[(tuple(j.id for j in js), tuple(a))] = v
            for lbl in js:
                self._degrees.add(lbl.degree)
            # capture the support deltas a replay will consult
            j1, j2, j3, j4, j5, j6 = js
            self.delta(j1, j2, self.dual(j3))
            self.delta(j3, j4, self.dual(j5))
            self.delta(j5, self.dual(j6), self.dual(j1))
            self.delta(j6, self.dual(j4), self.dual(j2))
        return v

    def dual_perm(self, g: GroupElement) -> np.ndarray:
        self._degrees.add(g)
        self._degrees.add(-g)
        return self.base.dual_perm(g)

    def delta_block(self, g1, g2, g3) -> np.ndarray:
        block = self.base.delta_block(g1, g2, g3)
        ls = [self.base.labels(g) for g in (g1, g2, g3)]
        self._degrees.update((g1, g2, g3))
        for idx in np.argwhere(block):
            i, j, k = (ls[t][idx[t]] for t in range(3))
            self._rec_delta[(i.id, j.id, k.id)] = int(block[tuple(idx)])
        return block

    def gamma_block(self, g1, g2, g3) -> np.ndarray:
        block = self.base.gamma_block(g1, g2, g3)
        ls = [self.base.labels(g) for g in (g1, g2, g3)]
        self._degrees.update((g1, g2, g3))
        for idx in np.argwhere(block):
            i, j, k = (ls[t][idx[t]] for t in range(3))
            self._rec_gamma[(i.id, j.id, k.id, int(idx[3]) + 1)] = float(
                block[tuple(idx)]
            )
        return block

    def sixj_block(self, degs: Sequence[GroupElement]) -> np.ndarray:
        block = self.base.sixj_block(degs)
        ls = [self.base.labels(g) for g in degs]
        self._degrees.update(degs)
        for idx in np.argwhere(block):
            ids = tuple(ls[t][idx[t]].id for t in range(6))
            a = tuple(int(idx[6 + t]) + 1 for t in range(4))
            self._rec_sixj[(ids, a)] = complex(block[tuple(idx)])
        return block

    def probe_degrees(self) -> Iterator[GroupElement]:
        return self.base.probe_degrees()

    def export_table(self) -> TableData:
        degrees = set(self._degrees)
        degrees.update(-g for g in self._degrees)
        labels = []
        for g in sorted(degrees, key=str):
            labels.extend(self.base.labels(g))
        return TableData(
            self.signature,
            self.singular,
            labels,
            self._rec_delta,
            self._rec_gamma,
            self._rec_sixj,
        )


# delta-support conditions (j1 j2 j3* a1), (j3 j4 j5* a2), (j5 j6* j1* a3),
# (j6 j4* j2* a4) over the 6j block axes j1..j6, a1..a4
_SUPPORT_SPEC = "abcd,cefg,fhai,hebj->abcefhdgij"


class BlockCache:
    """Degree blocks of one provider, each fetched once and kept.

    Keys are degree tuples; values are the provider's `*_block`,
    `dual_perm` and `scalar_vectors` arrays, unchanged.  The validator
    and the plaquette walk both read the data through one of these.
    """

    def __init__(self, data: LWData):
        self.data = data
        self._delta: dict = {}
        self._gamma: dict = {}
        self._sixj: dict = {}
        self._perm: dict = {}
        self._scalars: dict = {}

    def delta(self, g1, g2, g3) -> np.ndarray:
        key = (g1, g2, g3)
        if key not in self._delta:
            self._delta[key] = self.data.delta_block(g1, g2, g3)
        return self._delta[key]

    def gamma(self, g1, g2, g3) -> np.ndarray:
        key = (g1, g2, g3)
        if key not in self._gamma:
            self._gamma[key] = self.data.gamma_block(g1, g2, g3)
        return self._gamma[key]

    def sixj(self, degs: Tuple[GroupElement, ...]) -> np.ndarray:
        if degs not in self._sixj:
            self._sixj[degs] = self.data.sixj_block(degs)
        return self._sixj[degs]

    def perm(self, g: GroupElement) -> np.ndarray:
        if g not in self._perm:
            self._perm[g] = self.data.dual_perm(g)
        return self._perm[g]

    def scalars(self, g: GroupElement):
        if g not in self._scalars:
            self._scalars[g] = self.data.scalar_vectors(g)
        return self._scalars[g]

    def support(self, degs: Sequence[GroupElement]) -> np.ndarray:
        """Boolean index-range tensor over labels(g1)..labels(g6), a1..a4."""
        g1, g2, g3, g4, g5, g6 = degs
        rng = np.arange(1, self.data.mult_bound + 1)
        b1 = np.take(self.delta(g1, g2, -g3), self.perm(g3), axis=2)
        b2 = np.take(self.delta(g3, g4, -g5), self.perm(g5), axis=2)
        b3 = np.take(
            np.take(self.delta(g5, -g6, -g1), self.perm(g6), axis=1),
            self.perm(g1),
            axis=2,
        )
        b4 = np.take(
            np.take(self.delta(g6, -g4, -g2), self.perm(g4), axis=1),
            self.perm(g2),
            axis=2,
        )
        conds = [(rng <= b[..., None]).astype(int) for b in (b1, b2, b3, b4)]
        return np.einsum(_SUPPORT_SPEC, *conds) > 0


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


def data_from_config(obj: dict, source: Optional[str] = None) -> LWData:
    if "family" in obj:
        kind = str(obj["family"])
        gamma0 = obj.get("gamma0")
        return BuiltinFamily(
            kind,
            int(obj.get("N", 1)),
            float(obj.get("c", 1.0)),
            float(gamma0) if gamma0 is not None else None,
        )
    return TableData.from_dict(obj, source=source)


def load_data(path: str) -> LWData:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    return data_from_config(obj, source=path)
