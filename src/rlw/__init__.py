"""Graded string-net lattice models on surfaces.

Validate modified 6j-symbol data, build the commuting-projector
Hamiltonian on a trivalent graph embedded in a closed oriented surface,
and study its (generally indefinite) inner product and ground space.
"""

from .errors import (
    AdmissibilityError,
    DataFormatError,
    DimensionCapError,
    DomainError,
    GaugeAdmissibilityError,
    GroupArithmeticError,
    IndexRangeError,
    InstabilityError,
    MissingDataError,
    ProbeSearchError,
    RlwError,
)
from .group import QMODZ, GroupElement, GroupSignature, SingularSet
from .data import (
    BuiltinFamily,
    Label,
    LWData,
    RecordingData,
    TableData,
    data_from_config,
    load_data,
    parse_family_spec,
)
from .surface import (
    Coloring,
    Plaquette,
    RibbonGraph,
    build_genus,
    build_torus,
    coloring_from_holonomy,
    gauge_shift,
    is_admissible,
    parse_surface,
)
from .states import LinearOperator, StateSpace
from .operators import StringNetModel, choose_probe, probe_candidates
from .axioms import CheckResult, ValidationReport, validate

__version__ = "0.1.0"

__all__ = [
    "__version__",
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
    "GroupSignature",
    "GroupElement",
    "SingularSet",
    "QMODZ",
    "Label",
    "LWData",
    "BuiltinFamily",
    "TableData",
    "RecordingData",
    "parse_family_spec",
    "data_from_config",
    "load_data",
    "RibbonGraph",
    "Plaquette",
    "Coloring",
    "build_torus",
    "build_genus",
    "parse_surface",
    "coloring_from_holonomy",
    "gauge_shift",
    "is_admissible",
    "StateSpace",
    "LinearOperator",
    "StringNetModel",
    "probe_candidates",
    "choose_probe",
    "CheckResult",
    "ValidationReport",
    "validate",
]
