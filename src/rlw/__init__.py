"""Graded string-net lattice models on surfaces.

Validate modified 6j-symbol data, build the commuting-projector
Hamiltonian on a trivalent graph embedded in a closed oriented surface,
and study its (generally indefinite) inner product and ground space.

The public names below load their submodule on first use, so a command
imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "RlwError GroupArithmeticError DomainError DataFormatError"
         " MissingDataError IndexRangeError AdmissibilityError GaugeAdmissibilityError"
         " DimensionCapError ProbeSearchError InstabilityError"),
        ("group", "GroupSignature GroupElement SingularSet QMODZ"),
        ("data", "Label LWData BuiltinFamily parse_family_spec data_from_config load_data"),
        ("tables", "TableData RecordingData"),
        ("surface", "RibbonGraph Plaquette Coloring build_torus build_genus parse_surface"
         " coloring_from_holonomy gauge_shift is_admissible"),
        ("states", "StateSpace LinearOperator"),
        ("operators", "StringNetModel probe_candidates choose_probe"),
        ("axioms", "CheckResult ValidationReport validate"),
    )
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
