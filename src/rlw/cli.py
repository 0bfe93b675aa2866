"""Command-line front end: validation, spectra, and invariance suites.

Reports are JSON on stdout (or ``--out``); human-readable progress and
timing go to stderr so pipelines stay clean.  Exit codes: 0 all checks
pass, 1 a check failed or the run hit an inadmissible/unstable input,
2 unusable arguments or data.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .data import LWData, load_data, parse_family_spec
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
)
from .operators import StringNetModel, probe_candidates
from .surface import build_torus, coloring_from_holonomy, gauge_shift, is_admissible, parse_surface
from .validate import validate

_USAGE_ERRORS = (
    DataFormatError,
    DomainError,
    GroupArithmeticError,
    IndexRangeError,
    MissingDataError,
    ValueError,
    OSError,
)
_CHECK_ERRORS = (
    AdmissibilityError,
    DimensionCapError,
    InstabilityError,
    ProbeSearchError,
)


@dataclass
class RunConfig:
    """Resolved invocation, embedded verbatim in every report."""

    command: str
    family: Optional[str] = None
    data: Optional[str] = None
    degrees: List[str] = field(default_factory=list)
    surface: Optional[str] = None
    holonomy: List[str] = field(default_factory=list)
    probe: Optional[str] = None
    tol: float = 1e-9
    dim_cap: int = 8192
    strict_fusion: bool = False
    max_tuples: int = 4096
    seed: int = 0
    out: Optional[str] = None


def _split_csv(text: str) -> List[str]:
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise DataFormatError(f"empty entry in list {text!r}")
    return parts


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlw",
        description="Graded string-net models: validate data, build and"
        " diagonalize the plaquette Hamiltonian on closed surfaces.",
    )
    parser.add_argument(
        "--version", action="version", version=f"rlw {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--family", help="builtin data P:N:c, M:N:c or F:N:c:gamma0")
        source.add_argument("--data", help="path to a JSON data table")
        sub.add_argument("--tol", type=float, default=1e-9, help="residual tolerance")
        sub.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        sub.add_argument("--out", help="write the JSON report here instead of stdout")

    def add_surface(sub):
        sub.add_argument(
            "--surface", required=True,
            help="torus:theta, torus:grid:N, genus:G or file:PATH",
        )
        sub.add_argument(
            "--holonomy", required=True,
            help="comma-separated degrees, one per handle pair",
        )
        sub.add_argument("--probe", help="probe degree (default: first usable)")
        sub.add_argument("--dim-cap", type=int, default=8192, help="state-space size limit")
        sub.add_argument(
            "--strict-fusion", action="store_true",
            help="drop the zero branching slot (multiplicity-free data only)",
        )

    sub = commands.add_parser("validate", help="run every axiom check over a degree slice")
    add_common(sub)
    sub.add_argument("--degrees", required=True, help="comma-separated sample degrees")
    sub.add_argument("--max-tuples", type=int, default=4096, help="cap on degree tuples per check")

    sub = commands.add_parser("ground-dim", help="dimension of the joint projector image")
    add_common(sub)
    add_surface(sub)

    sub = commands.add_parser("check", help="operator-identity and invariance suite")
    add_common(sub)
    add_surface(sub)

    sub = commands.add_parser("spectrum", help="integer spectrum with multiplicities")
    add_common(sub)
    add_surface(sub)

    return parser


def _resolve(args) -> Tuple[RunConfig, LWData]:
    config = RunConfig(
        command=args.command,
        family=args.family,
        data=args.data,
        tol=args.tol,
        seed=args.seed,
        out=args.out,
    )
    if args.command == "validate":
        config.degrees = _split_csv(args.degrees)
        config.max_tuples = args.max_tuples
    else:
        config.surface = args.surface
        config.holonomy = _split_csv(args.holonomy)
        config.probe = args.probe
        config.dim_cap = args.dim_cap
        config.strict_fusion = args.strict_fusion
    data = load_data(config.data) if config.data else parse_family_spec(config.family)
    return config, data


# -- model construction shared by the surface commands -------------------------


def _build_model(config: RunConfig, data: LWData, notes: List[str]) -> StringNetModel:
    graph = parse_surface(config.surface)
    holonomy = tuple(data.signature.parse(h) for h in config.holonomy)
    coloring = coloring_from_holonomy(graph, holonomy)
    probe = data.signature.parse(config.probe) if config.probe else None
    model = StringNetModel(
        data, coloring,
        strict=config.strict_fusion, dim_cap=config.dim_cap, probe=probe,
    )
    try:
        model.space()
    except DimensionCapError as exc:
        if config.strict_fusion or data.mult_bound != 1:
            raise
        notes.append(f"{exc}; falling back to strict fusion")
        config.strict_fusion = True
        model = StringNetModel(
            data, coloring, strict=True, dim_cap=config.dim_cap, probe=probe
        )
        model.space()
    return model


# -- commands -------------------------------------------------------------------


def cmd_validate(config: RunConfig, data: LWData) -> Tuple[dict, bool]:
    samples = [data.signature.parse(d) for d in config.degrees]
    report = validate(data, samples, tol=config.tol, max_tuples=config.max_tuples)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        line = f"  {check.name:28s} {status}  residual {check.residual:.3e}"
        if not check.passed and check.witness:
            line += f"  witness {check.witness}"
        print(line, file=sys.stderr)
    return report.to_dict(), report.passed


def cmd_ground_dim(config: RunConfig, data: LWData) -> Tuple[dict, bool]:
    notes: List[str] = []
    model = _build_model(config, data, notes)
    dim, residual = model.ground_dim_residual(tol=max(config.tol, 1e-9))
    body = {
        "hilbert_dim": model.space().dim,
        "ground_dim": dim,
        "idempotency_residual": residual,
        "strict_fusion": config.strict_fusion,
        "notes": notes,
    }
    print(
        f"  ground dimension {dim} in a {model.space().dim}-dimensional space"
        f" (idempotency residual {residual:.3e})",
        file=sys.stderr,
    )
    return body, True


def cmd_spectrum(config: RunConfig, data: LWData) -> Tuple[dict, bool]:
    notes: List[str] = []
    model = _build_model(config, data, notes)
    multiplicities = model.spectrum(tol=max(config.tol, 1e-10))
    eigenvalues = np.linalg.eigvals(model.hamiltonian().matrix)
    rounding = float(max(abs(v - round(v.real)) for v in eigenvalues))
    if rounding > max(config.tol, 1e-7):
        raise InstabilityError(
            f"eigenvalue rounding residual {rounding:.3e} exceeds tolerance"
        )
    dense_counts = {}
    for v in eigenvalues:
        dense_counts[int(round(v.real))] = dense_counts.get(int(round(v.real)), 0) + 1
    if dense_counts != multiplicities:
        raise InstabilityError(
            "dense eigenvalue multiplicities disagree with the projector splitting"
        )
    positive = sorted(e for e in multiplicities if e > 0)
    body = {
        "hilbert_dim": model.space().dim,
        "spectrum": {str(e): multiplicities[e] for e in sorted(multiplicities)},
        "ground_dim": multiplicities.get(0, 0),
        "rounding_residual": rounding,
        "gap": positive[0] if positive else None,
        "strict_fusion": config.strict_fusion,
        "notes": notes,
    }
    summary = ", ".join(f"{e}:{m}" for e, m in sorted(multiplicities.items()))
    print(f"  spectrum {{{summary}}}, rounding residual {rounding:.3e}", file=sys.stderr)
    return body, True


def _matched_torus_dim(config: RunConfig, data: LWData, notes: List[str]):
    """Ground dimension on the companion torus graph, same holonomy."""
    graph = parse_surface(config.surface)
    if graph.kind and graph.kind[0] == "theta":
        other = build_torus("grid", 2)
    elif graph.kind and graph.kind[0] == "grid":
        other = build_torus("theta")
    else:
        notes.append("triangulation comparison limited to torus graphs; skipped")
        return None
    holonomy = tuple(data.signature.parse(h) for h in config.holonomy)
    coloring = coloring_from_holonomy(other, holonomy)
    strict = config.strict_fusion or other.kind[0] == "grid"
    if strict and data.mult_bound != 1:
        notes.append("companion grid needs strict fusion, unavailable here; skipped")
        return None
    model = StringNetModel(data, coloring, strict=strict, dim_cap=config.dim_cap)
    return model.ground_dim(tol=max(config.tol, 1e-9))


def cmd_check(config: RunConfig, data: LWData) -> Tuple[dict, bool]:
    notes: List[str] = []
    model = _build_model(config, data, notes)
    space = model.space()
    rng = np.random.default_rng(config.seed)
    rows = []

    def residual_row(name, value):
        rows.append(
            {"name": name, "residual": float(value), "passed": bool(value <= config.tol)}
        )

    plaquettes = model.graph.plaquettes
    bs = [model.plaquette_B(p) for p in plaquettes]
    qs = [model.vertex_Q(v) for v in range(model.graph.num_vertices)]
    residual_row(
        "projector_idempotency",
        max(np.linalg.norm((b @ b - b).matrix) for b in bs),
    )
    residual_row(
        "plaquette_commutation",
        max(
            (
                np.linalg.norm((a @ b - b @ a).matrix)
                for i, a in enumerate(bs)
                for b in bs[i + 1 :]
            ),
            default=0.0,
        ),
    )
    residual_row(
        "vertex_commutation",
        max(np.linalg.norm((b @ d - d @ b).matrix) for b in bs for d in qs),
    )

    g = model.probe
    adjoint_dev = 0.0
    for p in plaquettes:
        raised = model.plaquette_Bg(p, g)
        shifted = gauge_shift(model.coloring, p, -g)
        lowered = model.plaquette_Bg(p, -g, shifted)
        adjoint_dev = max(
            adjoint_dev, np.linalg.norm(raised.adjoint().matrix - lowered.matrix)
        )
    residual_row("adjoint_degree_flip", adjoint_dev)

    candidates = list(probe_candidates(data, model.coloring, limit=8))
    composed = None
    for g1 in candidates:
        for g2 in candidates:
            try:
                second = model.plaquette_Bg(plaquettes[0], g2)
                mid = gauge_shift(model.coloring, plaquettes[0], -g2)
                first = model.plaquette_Bg(plaquettes[0], g1, mid)
                combined = model.plaquette_Bg(plaquettes[0], g1 + g2)
                composed = np.linalg.norm((first @ second).matrix - combined.matrix)
            except (GaugeAdmissibilityError, DomainError, MissingDataError):
                continue
            break
        if composed is not None:
            break
    if composed is None:
        notes.append("no probe pair admits the composition test; skipped")
    else:
        residual_row("degree_composition", composed)

    if len(candidates) >= 2:
        first, second = candidates[:2]
        residual_row(
            "probe_independence",
            np.linalg.norm(
                model.plaquette_B(plaquettes[0], g=first).matrix
                - model.plaquette_B(plaquettes[0], g=second).matrix
            ),
        )
    else:
        notes.append("fewer than two probe candidates; independence skipped")

    hamiltonian = model.hamiltonian()
    residual_row(
        "pseudo_hermiticity",
        np.linalg.norm(hamiltonian.matrix - hamiltonian.adjoint().matrix),
    )
    pair_dev = 0.0
    for _ in range(20):
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        phi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        pair_dev = max(
            pair_dev,
            abs(
                space.inner_indef(psi, hamiltonian.apply(phi))
                - space.inner_indef(hamiltonian.apply(psi), phi)
            ),
        )
    residual_row("symmetric_pairing", pair_dev)

    base_dim = model.ground_dim(tol=max(config.tol, 1e-9))
    shifts = 0
    invariant = True
    coloring = model.coloring
    for _ in range(64):
        if shifts == 5:
            break
        p = plaquettes[int(rng.integers(0, len(plaquettes)))]
        step = candidates[int(rng.integers(0, len(candidates)))]
        target = gauge_shift(coloring, p, step)
        if not is_admissible(target, data.singular):
            continue
        try:
            shifted_model = StringNetModel(
                data, target, strict=config.strict_fusion, dim_cap=config.dim_cap
            )
            shifted_dim = shifted_model.ground_dim(tol=max(config.tol, 1e-9))
        except MissingDataError:
            continue
        invariant = invariant and shifted_dim == base_dim
        coloring = target
        shifts += 1
    if shifts == 0:
        notes.append("no admissible gauge shifts found; invariance untested")
    rows.append({"name": "gauge_invariance", "passed": invariant, "shifts": shifts})

    matched = _matched_torus_dim(config, data, notes)
    if matched is not None:
        rows.append(
            {
                "name": "triangulation_invariance",
                "passed": matched == base_dim,
                "companion_dim": matched,
            }
        )

    ok = all(row["passed"] for row in rows)
    for row in rows:
        status = "pass" if row["passed"] else "FAIL"
        extra = f"  residual {row['residual']:.3e}" if "residual" in row else ""
        print(f"  {row['name']:28s} {status}{extra}", file=sys.stderr)
    body = {
        "hilbert_dim": space.dim,
        "ground_dim": base_dim,
        "strict_fusion": config.strict_fusion,
        "rows": rows,
        "notes": notes,
        "passed": ok,
    }
    return body, ok


_COMMANDS = {
    "validate": cmd_validate,
    "ground-dim": cmd_ground_dim,
    "check": cmd_check,
    "spectrum": cmd_spectrum,
}


def _emit(report: dict, out: Optional[str]):
    text = json.dumps(report, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config, data = _resolve(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    envelope = {
        "command": config.command,
        "version": __version__,
        "config": asdict(config),
    }
    started = time.perf_counter()
    try:
        body, ok = _COMMANDS[config.command](config, data)
    except _CHECK_ERRORS as exc:
        envelope["error"] = str(exc)
        _emit(envelope, config.out)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        envelope["error"] = str(exc)
        _emit(envelope, config.out)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    envelope["config"] = asdict(config)  # pick up resolved fallbacks
    envelope.update(body)
    _emit(envelope, config.out)
    status = "ok" if ok else "FAILED"
    print(f"{config.command}: {status} in {elapsed:.2f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
