"""Exact arithmetic in small abelian grading groups.

Degrees of simple objects live in an abelian group of the form

    G = (Q/Z)^a x Z^b x Z/n_1 x ... x Z/n_k,

together with a distinguished symmetric subset X of "singular" degrees.
Elements are kept in canonical form (rationals reduced into [0, 1),
cyclic coordinates reduced into [0, n)), so equality and hashing are
exact.  All arithmetic is rational; no floats enter degree bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GroupArithmeticError

__all__ = [
    "GroupArithmeticError",
    "GroupElement",
    "GroupSignature",
    "SingularSet",
    "QMODZ",
]


@dataclass(frozen=True)
class _Factor:
    """One factor of the product group: 'QmodZ', 'Z' or 'Zmod'."""

    kind: str
    n: int = 0

    def normalize(self, value):
        if self.kind == "QmodZ":
            v = value if type(value) is Fraction else Fraction(value)
            whole = v.numerator // v.denominator
            return v - whole if whole else v
        if self.kind == "Z":
            return int(value)
        if self.kind == "Zmod":
            return int(value) % self.n
        raise GroupArithmeticError(f"unknown factor kind {self.kind!r}")

    def parse(self, text):
        if self.kind == "QmodZ":
            return self.normalize(Fraction(str(text)))
        return self.normalize(int(text))

    def to_json(self) -> dict:
        if self.kind == "Zmod":
            return {"type": "Zmod", "n": self.n}
        return {"type": self.kind}

    @staticmethod
    def from_json(obj: dict) -> "_Factor":
        kind = obj.get("type")
        if kind == "Zmod":
            return _Factor("Zmod", int(obj["n"]))
        if kind in ("QmodZ", "Z"):
            return _Factor(kind)
        raise GroupArithmeticError(f"unknown group factor {obj!r}")


class GroupSignature:
    """Shape of the grading group: an ordered product of basic factors.

    Parameters
    ----------
    factors : sequence of (str, int) pairs or _Factor
        Each entry is ``('QmodZ',)``, ``('Z',)`` or ``('Zmod', n)``.
    """

    def __init__(self, factors: Sequence):
        parsed = []
        for f in factors:
            if isinstance(f, _Factor):
                parsed.append(f)
            elif isinstance(f, str):
                parsed.append(_Factor(f))
            else:
                kind, *rest = f
                parsed.append(_Factor(kind, rest[0] if rest else 0))
        if not parsed:
            raise GroupArithmeticError("group signature needs at least one factor")
        for f in parsed:
            if f.kind == "Zmod" and f.n < 1:
                raise GroupArithmeticError(f"Z/{f.n} is not a group")
        self.factors = tuple(parsed)

    def __eq__(self, other):
        return isinstance(other, GroupSignature) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        parts = []
        for f in self.factors:
            parts.append(f"Z/{f.n}" if f.kind == "Zmod" else f.kind)
        return "GroupSignature(" + " x ".join(parts) + ")"

    @property
    def is_finite(self) -> bool:
        return all(f.kind == "Zmod" for f in self.factors)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.factors))

    def element(self, *values) -> "GroupElement":
        if len(values) == 1 and isinstance(values[0], (tuple, list)):
            values = tuple(values[0])
        return GroupElement(self, values)

    def parse(self, obj) -> "GroupElement":
        """Parse an element from its JSON form.

        Single-factor groups accept a bare scalar such as ``"1/5"``;
        product groups take a list, one entry per factor.
        """
        if isinstance(obj, GroupElement):
            if obj.signature != self:
                raise GroupArithmeticError("element belongs to a different group")
            return obj
        if isinstance(obj, (str, int, Fraction)) or not isinstance(obj, (list, tuple)):
            if len(self.factors) != 1:
                raise GroupArithmeticError(
                    f"scalar {obj!r} given for a {len(self.factors)}-factor group"
                )
            obj = [obj]
        if len(obj) != len(self.factors):
            raise GroupArithmeticError(
                f"expected {len(self.factors)} coordinates, got {len(obj)}"
            )
        return GroupElement(self, tuple(f.parse(v) for f, v in zip(self.factors, obj)))

    def to_json(self) -> dict:
        return {"type": "product", "factors": [f.to_json() for f in self.factors]}

    @staticmethod
    def from_json(obj: dict) -> "GroupSignature":
        if obj.get("type") == "product":
            return GroupSignature([_Factor.from_json(f) for f in obj["factors"]])
        return GroupSignature([_Factor.from_json(obj)])


@dataclass(frozen=True)
class GroupElement:
    """An element of a :class:`GroupSignature`, in canonical form."""

    signature: GroupSignature
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.signature.factors):
            raise GroupArithmeticError(
                f"expected {len(self.signature.factors)} coordinates,"
                f" got {len(self.values)}"
            )
        norm = tuple(
            f.normalize(v) for f, v in zip(self.signature.factors, self.values)
        )
        object.__setattr__(self, "values", norm)

    _hash = None  # not a field: the dataclass hash, kept on first use

    def __hash__(self) -> int:
        # elements key many dicts, and most elements the validator builds
        # are never hashed, so the hash is not computed at construction
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.signature, self.values)))
        return self._hash

    def _check(self, other: "GroupElement"):
        if not isinstance(other, GroupElement) or other.signature != self.signature:
            raise GroupArithmeticError("elements of different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.signature, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.signature, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.signature, tuple(-a for a in self.values))

    def __mul__(self, k: int) -> "GroupElement":
        if not isinstance(k, int):
            return NotImplemented
        return GroupElement(self.signature, tuple(a * k for a in self.values))

    __rmul__ = __mul__

    def divided_by(self, k: int) -> "GroupElement":
        """One canonical solution of ``k * x == self`` (rational coordinates)."""
        if k == 0:
            raise GroupArithmeticError("division by zero")
        out = []
        for f, v in zip(self.signature.factors, self.values):
            if f.kind == "QmodZ":
                out.append(Fraction(v) / k)
            elif v % k == 0:
                out.append(v // k)
            else:
                raise GroupArithmeticError(f"{v} is not divisible by {k} in {f.kind}")
        return GroupElement(self.signature, tuple(out))

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def to_json(self):
        def one(f, v):
            return str(v) if f.kind == "QmodZ" else int(v)

        coords = [one(f, v) for f, v in zip(self.signature.factors, self.values)]
        return coords[0] if len(coords) == 1 else coords

    def __str__(self):
        j = self.to_json()
        return j if isinstance(j, str) else "(" + ",".join(map(str, j)) + ")"

    def __repr__(self):
        return f"<{self}>"


#: The plain rational circle group Q/Z, used by all built-in data families.
QMODZ = GroupSignature(["QmodZ"])


class SingularSet:
    """Symmetric set X of singular degrees.

    Two flavours are supported, both with a JSON form: the torsion set
    ``{x : n*x == 0}`` and an explicit finite list.
    """

    def __init__(self, kind: str, *, n: int = 0, elements=None):
        self.kind = kind
        self.n = n
        self.elements = frozenset(elements) if elements is not None else None

    @classmethod
    def torsion_dividing(cls, n: int) -> "SingularSet":
        if n < 1:
            raise GroupArithmeticError("torsion order must be positive")
        return cls("torsion_dividing", n=n)

    @classmethod
    def from_elements(cls, elements: Iterable[GroupElement]) -> "SingularSet":
        elems = frozenset(elements)
        for x in elems:
            if -x not in elems:
                raise GroupArithmeticError(
                    f"singular set is not symmetric: {x} present, {-x} missing"
                )
        return cls("list", elements=elems)

    def contains(self, x: GroupElement) -> bool:
        if self.kind == "torsion_dividing":
            return (x * self.n).is_zero
        return x in self.elements

    def is_generic(self, x: GroupElement) -> bool:
        return not self.contains(x)

    def is_empty_on(self) -> bool:
        """Whether X is empty.  Used by smallness checks; a torsion set
        always holds 0."""
        return self.kind == "list" and not self.elements

    def to_json(self) -> dict:
        if self.kind == "torsion_dividing":
            return {"type": "torsion_dividing", "n": self.n}
        return {
            "type": "list",
            "elements": sorted((x.to_json() for x in self.elements), key=str),
        }

    @staticmethod
    def from_json(obj: dict, signature: GroupSignature) -> "SingularSet":
        kind = obj.get("type")
        if kind == "torsion_dividing":
            return SingularSet.torsion_dividing(int(obj["n"]))
        if kind == "list":
            return SingularSet.from_elements(
                signature.parse(e) for e in obj["elements"]
            )
        raise GroupArithmeticError(f"unknown singular set {obj!r}")

    def __repr__(self):
        if self.kind == "torsion_dividing":
            return f"SingularSet(n*x == 0, n={self.n})"
        return f"SingularSet({len(self.elements)} elements)"
