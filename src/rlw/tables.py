"""Tabulated data: `TableData`, a finite table's degree blocks read from
JSON, and `RecordingData`, which exports the slice of any provider a
computation was served.  Only a command that reads a table loads this."""

import itertools
import json
import math
import numbers
from typing import Iterator, Sequence

import numpy as np

from .data import Label, LWData
from .errors import DataFormatError, MissingDataError
from .group import GroupElement, GroupSignature, SingularSet

__all__ = ["TableData", "RecordingData"]


def _require(cond: bool, msg: str):
    if not cond:
        raise DataFormatError(msg)


def _real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataFormatError(f"{what} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise DataFormatError(f"{what} must be finite, got {value!r}")
    return float(value)


class TableData(LWData):
    """Finite tabulated data, kept as read-only degree blocks.

    File shape (`from_dict`, `to_dict`)::

        {"group": {...}, "singular": {...},
         "labels": [{"id", "degree", "dual", "d", "b", "beta"}, ...],
         "delta":  [{"i", "j", "k", "value"}, ...],
         "gamma":  [{"i", "j", "k", "n", "value"}, ...],
         "sixj":   [{"j": [6 ids], "a": [4 ints], "re", "im"}, ...]}

    The rows are read once, at load, into one block per degree tuple
    (the `*_block` layout of `LWData`); the block accessors look them up
    and `to_dict` writes the rows back from them.  Deltas must be
    non-negative and every branching index (gamma's n, the 6j a_i) must
    lie in 1..mult_bound, the largest delta (at least 1): a row that
    breaks either is a `DataFormatError` naming it.  Absent delta and 6j
    entries are zero.  Missing data raises `MissingDataError`: a whole
    6j block absent at degrees meeting the 6j constraint (by
    orthogonality never all zero), and a gamma entry absent inside the
    delta range of its triple (from `gamma_block`, so every `gamma` read).
    """

    def __init__(
        self,
        signature: GroupSignature,
        singular: SingularSet,
        labels: Sequence[Label],
        delta: dict,
        gamma: dict,
        sixj: dict,
    ):
        """`delta`, `gamma` and `sixj` map degree tuples to blocks; a NaN
        gamma entry is absent.  Branching axes are cut to `mult_bound`."""
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
        self._set_blocks(delta, gamma, sixj)

    def _set_blocks(self, delta: dict, gamma: dict, sixj: dict):
        m = self._mult = max([1] + [int(b.max()) for b in delta.values() if b.size])
        cut = [(Ellipsis,) + (slice(0, m),) * k for k in (0, 1, 4)]
        self._delta, self._gamma, self._sixj = (
            {tuple(degs): b[at] for degs, b in blocks.items()}
            for blocks, at in zip((delta, gamma, sixj), cut)
        )
        for block in itertools.chain(*(b.values() for b in (self._delta, self._gamma, self._sixj))):
            block.flags.writeable = False

    # -- interface --------------------------------------------------------

    @property
    def mult_bound(self) -> int:
        return self._mult

    def degrees(self) -> tuple:
        return tuple(sorted(self._by_degree, key=str))

    def labels(self, g: GroupElement) -> tuple:
        ls = self._by_degree.get(g)
        if ls is None:
            self.check_degree(g)  # tabulated degrees are generic
            raise MissingDataError(f"degree {g} not tabulated")
        return ls

    def label_index(self, label: Label) -> int:
        try:
            return self._index[label.id]
        except KeyError:
            raise MissingDataError(f"unknown label id {label.id!r}") from None

    def _block(self, blocks: dict, degs: tuple, branching: int, fill) -> np.ndarray:
        block = blocks.get(degs)
        if block is None:
            shape = tuple(len(self.labels(g)) for g in degs)
            block = np.full(shape + (self.mult_bound,) * branching, fill)
        return block

    def delta_block(self, g1, g2, g3) -> np.ndarray:
        return self._block(self._delta, (g1, g2, g3), 0, 0)

    def gamma_block(self, g1, g2, g3) -> np.ndarray:
        degs = (g1, g2, g3)
        block = self._block(self._gamma, degs, 1, np.nan)
        absent = np.isnan(block)
        gaps = np.argwhere(absent & self._in_range(degs))
        if len(gaps):
            x, y, z, n = gaps[0]
            ls = [self.labels(g) for g in degs]
            raise MissingDataError(
                f"gamma missing for ({ls[0][x].id},{ls[1][y].id},{ls[2][z].id})"
                f" at n={n + 1} inside delta range {self.delta_block(*degs)[x, y, z]}"
            )
        return np.where(absent, 0.0, block) if absent.any() else block

    def _in_range(self, degs: tuple) -> np.ndarray:
        """Boolean (n1, n2, n3, m): n <= delta of the triple."""
        return np.arange(1, self.mult_bound + 1) <= self.delta_block(*degs)[..., None]

    def sixj_block(self, degs: Sequence[GroupElement]) -> np.ndarray:
        degs = tuple(degs)
        block = self._sixj.get(degs)
        if block is None:
            block = self._block(self._sixj, degs, 4, 0j)  # labels read first
            g1, g2, g3, g4, g5, g6 = degs
            if g1 + g2 == g3 and g3 + g4 == g5 and g5 == g6 + g1:
                at = ",".join(map(str, degs))
                raise MissingDataError(f"6j block at degrees ({at}) is not in the table")
        return block

    def probe_degrees(self) -> Iterator[GroupElement]:
        """Tabulated degrees, those on the probe axis (j2) of a stored 6j
        block first: a recorded table offers its recording's probe first."""
        probed = sorted({degs[1] for degs in self._sixj}, key=str)
        return itertools.chain(probed, (g for g in self.degrees() if g not in probed))

    # -- (de)serialization -------------------------------------------------

    @classmethod
    def from_dict(cls, obj: dict) -> "TableData":
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
        table = cls(signature, singular, labels, {}, {}, {})
        table._set_blocks(*table._read_rows(obj))
        return table

    def _read_rows(self, obj: dict) -> tuple:
        """The delta, gamma and 6j blocks of a table's rows."""
        degrees = list(self._by_degree)
        slot = {g: s for s, g in enumerate(degrees)}
        sizes = [len(self._by_degree[g]) for g in degrees]
        where = {i: (slot[lbl.degree], self._index[i]) for i, lbl in self._by_id.items()}

        def assemble(field: str, entries, branching: int, fill) -> dict:
            blocks: dict = {}
            seen = set()
            for row, ids, tail, value in entries:
                try:
                    key, index = zip(*(where[str(i)] for i in ids))
                except KeyError as exc:
                    raise MissingDataError(f"unknown label id {exc.args[0]!r}") from None
                at = (key, index + tail)
                if at in seen:
                    raise DataFormatError(f"{field} row {row!r} repeats an earlier entry")
                seen.add(at)
                if key not in blocks:
                    blocks[key] = np.full([sizes[s] for s in key] + [m] * branching, fill)
                blocks[key][index + tail] = value
            return {tuple(degrees[s] for s in key): b for key, b in blocks.items()}

        def integer(field: str, row, value) -> int:
            # a bool, a float or a string is refused, not converted
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DataFormatError(f"{field} row {row!r}: {value!r} is not an integer")
            return value

        def branching(field: str, row, indices) -> tuple:
            indices = [integer(field, row, n) for n in indices]
            if not all(1 <= n <= m for n in indices):
                raise DataFormatError(
                    f"{field} row {row!r}: branching index outside 1..{m}"
                )
            return tuple(n - 1 for n in indices)

        deltas = []
        for row in obj.get("delta", []):
            value = integer("delta", row, row["value"])
            if value < 0:
                raise DataFormatError(f"delta row {row!r}: negative value")
            deltas.append((row, (row["i"], row["j"], row["k"]), (), value))
        m = max([1] + [value for *_, value in deltas])
        gammas = [
            (row, (row["i"], row["j"], row["k"]), branching("gamma", row, (row["n"],)),
             _real(row["value"], "gamma"))
            for row in obj.get("gamma", [])
        ]
        sixjs = []
        for row in obj.get("sixj", []):
            if len(row.get("j", ())) != 6 or len(row.get("a", ())) != 4:
                raise DataFormatError(f"malformed sixj row {row!r}")
            value = complex(
                _real(row.get("re", 0), "sixj re"), _real(row.get("im", 0), "sixj im")
            )
            sixjs.append((row, row["j"], branching("sixj", row, row["a"]), value))
        return (
            assemble("delta", deltas, 0, 0),
            assemble("gamma", gammas, 1, np.nan),
            assemble("sixj", sixjs, 4, 0j),
        )

    def to_dict(self) -> dict:
        labels = [
            {"id": l.id, "degree": l.degree.to_json(), "dual": l.dual_id,
             "d": l.d, "b": l.b, "beta": l.beta}
            for g in self.degrees()
            for l in self._by_degree[g]
        ]

        def rows(blocks: dict, stored) -> list:
            """(label ids, 1-based branching indices, value), sorted."""
            out = []
            for degs, block in blocks.items():
                nz, k = np.nonzero(stored(degs, block)), len(degs)
                ids = [[lbl.id for lbl in self._by_degree[g]] for g in degs]
                names = zip(*([ls[x] for x in ax.tolist()] for ls, ax in zip(ids, nz)))
                slots = [(ax + 1).tolist() for ax in nz[k:]]
                slots = zip(*slots) if slots else itertools.repeat(())
                out += zip(names, slots, block[nz].tolist())
            return sorted(out, key=lambda row: row[:2])

        def gamma_stored(degs, block):  # NaN: absent from the file
            return ~np.isnan(block) & ((block != 0) | self._in_range(degs))

        def sixj_stored(degs, block):  # an all-zero block keeps one zero row
            stored = block != 0
            if stored.size and not stored.any():
                stored.flat[0] = True
            return stored

        return {
            "group": self.signature.to_json(),
            "singular": self.singular.to_json(),
            "labels": labels,
            "delta": [
                {"i": i, "j": j, "k": k, "value": v}
                for (i, j, k), _, v in rows(self._delta, lambda degs, b: b != 0)
            ],
            "gamma": [
                {"i": i, "j": j, "k": k, "n": n, "value": v}
                for (i, j, k), (n,), v in rows(self._gamma, gamma_stored)
            ],
            "sixj": [
                {"j": list(ids), "a": list(a), "re": v.real, "im": v.imag}
                for ids, a, v in rows(self._sixj, sixj_stored)
            ],
        }

    def to_file(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


class RecordingData(LWData):
    """Pass-through wrapper that records the slice of `base` it serves.

    It keeps, by reference, every degree block it serves, and notes the
    degree of every label set it hands out.  Duals and the per-entry
    `delta`, `gamma` and `sixj` are read off those by `LWData`, so a
    per-entry query records the blocks it reads.  `export_table` hands
    the blocks, with the labels of their degrees closed under duals, to
    a `TableData`.  Replaying the same computation against the export
    reproduces every answer bit for bit: entries absent from the export
    were zero in the base data.
    """

    def __init__(self, base: LWData):
        self.base = base
        self.signature = base.signature
        self.singular = base.singular
        self._degrees: set = set()
        self._served: tuple = ({}, {}, {})  # delta, gamma, sixj by degrees

    @property
    def mult_bound(self) -> int:
        return self.base.mult_bound

    def labels(self, g: GroupElement) -> tuple:
        ls = self.base.labels(g)
        self._degrees.add(g)
        return ls

    def probe_degrees(self) -> Iterator[GroupElement]:
        return self.base.probe_degrees()

    def _serve(self, kind: int, degs: tuple, read) -> np.ndarray:
        block = self._served[kind].get(degs)
        if block is None:
            block = self._served[kind][degs] = read(*degs)
            self._degrees.update(degs)
        return block

    def delta_block(self, g1, g2, g3) -> np.ndarray:
        return self._serve(0, (g1, g2, g3), self.base.delta_block)

    def gamma_block(self, g1, g2, g3) -> np.ndarray:
        return self._serve(1, (g1, g2, g3), self.base.gamma_block)

    def sixj_block(self, degs: Sequence[GroupElement]) -> np.ndarray:
        return self._serve(2, tuple(degs), lambda *d: self.base.sixj_block(d))

    def export_table(self) -> TableData:
        degrees = self._degrees | {-g for g in self._degrees}
        labels = [lbl for g in sorted(degrees, key=str) for lbl in self.base.labels(g)]
        return TableData(self.signature, self.singular, labels, *self._served)
