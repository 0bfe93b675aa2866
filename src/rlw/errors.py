"""Exception taxonomy.

Everything raised on purpose derives from :class:`RlwError`, so callers
can catch one base class.  Subclasses distinguish bad input data from
numerical trouble discovered mid-computation.
"""

__all__ = [
    "RlwError",
    "GroupArithmeticError",
    "DomainError",
    "DataFormatError",
    "MissingDataError",
    "IndexRangeError",
    "AdmissibilityError",
    "GaugeAdmissibilityError",
    "DimensionCapError",
    "ProbeSearchError",
    "InstabilityError",
]


class RlwError(Exception):
    """Base class for all errors raised by this package."""


class GroupArithmeticError(RlwError, ValueError):
    """Mixed-signature arithmetic, malformed coordinates, bad division."""


class DomainError(RlwError, ValueError):
    """A degree is outside the domain where the data is defined.

    Typical causes: requesting labels of a singular degree, or a surface
    coloring that touches the singular set.
    """


class DataFormatError(RlwError, ValueError):
    """A data table or surface file is structurally malformed."""


class MissingDataError(RlwError, KeyError):
    """A finite table lacks an entry the computation needs.

    Distinct from :class:`DataFormatError`: the file was well formed but
    does not cover the requested degrees or labels.
    """

    def __str__(self):
        # KeyError quotes its argument; keep the plain message.
        return self.args[0] if self.args else ""


class IndexRangeError(RlwError, IndexError):
    """A multiplicity index lies outside ``1..delta`` for its triple."""


class AdmissibilityError(RlwError, ValueError):
    """A requested basis state or coloring is not admissible."""


class GaugeAdmissibilityError(AdmissibilityError):
    """A gauge shift would move a coloring onto the singular set."""


class DimensionCapError(RlwError, RuntimeError):
    """A state space exceeds the configured dimension cap."""


class ProbeSearchError(RlwError, RuntimeError):
    """No valid probe degree could be found for a plaquette operator."""


class InstabilityError(RlwError, RuntimeError):
    """An operator failed a consistency check: walk, projector or spectrum."""
