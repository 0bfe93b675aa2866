"""Command-line front end: validation, spectra, and invariance suites.

Reports are JSON on stdout (or ``--out``); human-readable progress and
timing go to stderr so pipelines stay clean.  Exit codes: 0 all checks
pass, 1 a check failed or the run hit an inadmissible/unstable input,
2 unusable arguments or data.
"""

import argparse
import contextlib
import gc
import importlib
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import List, Optional, TextIO, Tuple

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
from .surface import build_torus, coloring_from_holonomy, gauge_shift, is_admissible, parse_surface

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
    MemoryError,
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


def _at_least(cast, low, rule: str):
    """An argparse type: `cast(text)`, finite and at least `low`, else the
    usage error "`rule`, got 'text'".  A NaN or infinite `--tol` would pass
    every finite residual."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    return parse


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
        sub.add_argument(
            "--tol", type=_at_least(float, 0, "tolerance must be a finite number >= 0"),
            default=RunConfig.tol,
            help="residual tolerance; ground dimensions use at least 1e-9,"
            " spectrum at least 1e-7 for its eigenvalue rounding",
        )
        sub.add_argument("--out", help="write the JSON report here instead of stdout")

    def add_surface(sub):
        sub.add_argument(
            "--surface", required=True,
            help="torus:theta, torus:grid:N or genus:G",
        )
        sub.add_argument(
            "--holonomy", required=True,
            help="comma-separated degrees, 2*genus of them, one per handle curve",
        )
        sub.add_argument("--probe", help="probe degree (default: first usable)")
        sub.add_argument(
            "--dim-cap", type=_at_least(int, 1, "dim cap must be an integer >= 1"),
            default=RunConfig.dim_cap, help="state-space size limit",
        )
        sub.add_argument(
            "--strict-fusion", action="store_true",
            help="build only the fused states (no zero branching slot) for"
            " spectrum, check and hilbert_dim; ground-dim always uses them",
        )

    sub = commands.add_parser("validate", help="run every axiom check over a degree slice")
    add_common(sub)
    sub.add_argument("--degrees", required=True, help="comma-separated sample degrees")
    sub.add_argument(
        "--max-tuples", type=_at_least(int, 1, "max tuples must be an integer >= 1"),
        default=RunConfig.max_tuples, help="cap on degree tuples per check",
    )

    sub = commands.add_parser("ground-dim", help="dimension of the joint projector image")
    add_common(sub)
    add_surface(sub)

    sub = commands.add_parser("check", help="operator-identity and invariance suite")
    add_common(sub)
    add_surface(sub)
    sub.add_argument(
        "--seed", type=_at_least(int, 0, "seed must be an integer >= 0"),
        default=RunConfig.seed, help="seed for the randomized rows",
    )

    sub = commands.add_parser("spectrum", help="integer spectrum with multiplicities")
    add_common(sub)
    add_surface(sub)

    return parser


def _resolve(args) -> Tuple[RunConfig, LWData, Optional[TextIO]]:
    # each subcommand's options are RunConfig fields of the same name
    config = RunConfig(
        **{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    )
    for name in ("degrees", "holonomy"):
        if hasattr(args, name):
            setattr(config, name, _split_csv(getattr(args, name)))
    data = load_data(config.data) if config.data else parse_family_spec(config.family)
    # opened before any work, so a path that cannot be written is a usage error
    out = open(config.out, "w", encoding="utf-8") if config.out else None
    return config, data, out


def _degrees(data: LWData, option: str, texts) -> tuple:
    """The degrees given to `--option`; one that does not parse is a usage
    error naming the option and its text."""
    degrees = []
    for text in texts:
        try:
            degrees.append(data.signature.parse(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise DataFormatError(f"--{option} {text}: {exc}") from None
    return tuple(degrees)


# -- model construction shared by the surface commands -------------------------


def _build_model(config: RunConfig, data: LWData):
    from .operators import StringNetModel

    graph = parse_surface(config.surface)
    coloring = coloring_from_holonomy(graph, _degrees(data, "holonomy", config.holonomy))
    probe = _degrees(data, "probe", [config.probe])[0] if config.probe else None
    return StringNetModel(
        data, coloring, strict=config.strict_fusion, dim_cap=config.dim_cap, probe=probe
    )


# -- commands -------------------------------------------------------------------


def validate(data: LWData, samples, **options):
    """`axioms.validate`, loaded on first call; the bench tracer wraps this name."""
    from .axioms import validate
    return validate(data, samples, **options)


def cmd_validate(config: RunConfig, data: LWData) -> Tuple[dict, bool]:
    samples = _degrees(data, "degrees", config.degrees)
    report = validate(data, samples, tol=config.tol, max_tuples=config.max_tuples)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        line = f"  {check.name:28s} {status}  residual {check.residual:.3e}"
        if not check.passed and check.witness:
            line += f"  witness {check.witness}"
        print(line, file=sys.stderr)
    return report.to_dict(), report.passed


def cmd_ground_dim(config: RunConfig, data: LWData) -> Tuple[dict, bool]:
    from .states import count_states

    model = _build_model(config, data)
    dim, residual = model.ground_dim_residual(tol=max(config.tol, 1e-9))
    hilbert = model.space().dim if model.strict else count_states(data, model.coloring)
    body = {
        "hilbert_dim": hilbert,
        "ground_dim": dim,
        "idempotency_residual": residual,
        "strict_fusion": config.strict_fusion,
        "notes": [],
    }
    print(
        f"  ground dimension {dim} in a {hilbert}-dimensional space"
        f" (idempotency residual {residual:.3e})",
        file=sys.stderr,
    )
    return body, True


def cmd_spectrum(config: RunConfig, data: LWData) -> Tuple[dict, bool]:
    model = _build_model(config, data)
    multiplicities, rounding = model.spectrum(tol=max(config.tol, 1e-7))
    positive = sorted(e for e in multiplicities if e > 0)
    body = {
        "hilbert_dim": model.space().dim,
        "spectrum": {str(e): multiplicities[e] for e in sorted(multiplicities)},
        "ground_dim": multiplicities.get(0, 0),
        "rounding_residual": rounding,
        "gap": positive[0] if positive else None,
        "strict_fusion": config.strict_fusion,
        "notes": [],
    }
    summary = ", ".join(f"{e}:{m}" for e, m in sorted(multiplicities.items()))
    print(f"  spectrum {{{summary}}}, rounding residual {rounding:.3e}", file=sys.stderr)
    return body, True


def cmd_check(config: RunConfig, data: LWData) -> Tuple[dict, bool]:
    from .axioms import _json_residual
    from .operators import StringNetModel, probe_candidates

    notes: List[str] = []
    model = _build_model(config, data)
    space = model.space()
    rng = np.random.default_rng(config.seed)
    rows, residuals = [], {}

    def residual_row(name, values):
        # the row's worst value; a NaN compares false with any bound, so it counts as inf
        worst = max((v if math.isfinite(v) else math.inf for v in values), default=0.0)
        residuals[name] = worst
        rows.append(
            {"name": name, "residual": _json_residual(worst), "passed": bool(worst <= config.tol)}
        )

    plaquettes = model.graph.plaquettes
    bs = [model.plaquette_B(p) for p in plaquettes]
    residual_row("projector_idempotency", ((b @ b - b).norm() for b in bs))
    commutators = ((a @ b - b @ a).norm() for a, b in itertools.combinations(bs, 2))
    residual_row("plaquette_commutation", commutators)
    # Q_v is the 0/1 diagonal `fused[:, v]`, so [B, Q_v] keeps the entries
    # of B whose row and column differ in being fused at v
    fused = space.slot_array >= 1
    residual_row(
        "vertex_commutation",
        (
            np.linalg.norm(b.vals[fused[b.rows, v] != fused[b.cols, v]])
            for b in bs
            for v in range(model.graph.num_vertices)
        ),
    )

    g = model.probe

    def flip(p):
        # B_p's own factors: B^g from the +g-shifted coloring, B^(-g) into it
        raised = model.plaquette_Bg(p, g, gauge_shift(model.coloring, p, g))
        return (raised.adjoint() - model.plaquette_Bg(p, -g)).norm()

    residual_row("adjoint_degree_flip", map(flip, plaquettes))

    def composition(g1, g2):
        """||B^g1 B^g2 - B^(g1+g2)|| at the first plaquette; None where a
        degree or an intermediate coloring is not usable."""
        p = plaquettes[0]
        try:
            second = model.plaquette_Bg(p, g2)
            first = model.plaquette_Bg(p, g1, gauge_shift(model.coloring, p, -g2))
            combined = model.plaquette_Bg(p, g1 + g2)
            return (first @ second - combined).norm()
        except (GaugeAdmissibilityError, DomainError, MissingDataError):
            return None

    # the model's own probe when none of the first eight degrees is usable
    candidates = list(probe_candidates(data, model.coloring, limit=8)) or [g]
    tried = (composition(g1, g2) for g1, g2 in itertools.product(candidates, repeat=2))
    deviation = next((d for d in tried if d is not None), None)
    if deviation is None:
        notes.append("no probe pair admits the composition test; skipped")
    else:
        residual_row("degree_composition", [deviation])

    def probe_B(h):
        """B_p at probe h on the first plaquette; None where the table lacks data."""
        with contextlib.suppress(MissingDataError):
            return model.plaquette_B(plaquettes[0], g=h)

    pair = list(itertools.islice((b for b in map(probe_B, candidates) if b is not None), 2))
    if len(pair) == 2:
        residual_row("probe_independence", [(pair[0] - pair[1]).norm()])
    else:
        notes.append("fewer than two probe candidates; independence skipped")

    hamiltonian = model.hamiltonian()
    residual_row("pseudo_hermiticity", [(hamiltonian - hamiltonian.adjoint()).norm()])

    def draw():
        return rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)

    def asymmetry(psi, phi):
        left = space.inner_indef(psi, hamiltonian.apply(phi))
        return abs(left - space.inner_indef(hamiltonian.apply(psi), phi))

    residual_row("symmetric_pairing", (asymmetry(draw(), draw()) for _ in range(20)))

    tol = max(config.tol, 1e-9)
    base_dim = model.ground_dim(tol=tol)

    def ground_dim_over(coloring):
        """Ground dimension over another coloring, from its strict model;
        None where the coloring is inadmissible or the table lacks data."""
        if is_admissible(coloring, data.singular):
            with contextlib.suppress(MissingDataError):
                other = StringNetModel(data, coloring, strict=True, dim_cap=config.dim_cap)
                return other.ground_dim(tol=tol)
        return None

    shifts = 0
    invariant = True
    coloring = model.coloring
    for _ in range(64):
        if shifts == 5:
            break
        p = plaquettes[int(rng.integers(0, len(plaquettes)))]
        step = candidates[int(rng.integers(0, len(candidates)))]
        target = gauge_shift(coloring, p, step)
        shifted_dim = ground_dim_over(target)
        if shifted_dim is None:
            continue
        invariant = invariant and shifted_dim == base_dim
        coloring = target
        shifts += 1
    if shifts == 0:
        notes.append("no admissible gauge shifts found; invariance untested")
    rows.append({"name": "gauge_invariance", "passed": invariant, "shifts": shifts})

    # the same holonomy on the companion torus graph
    companion = {"theta": ("grid", 2), "grid": ("theta",)}.get(model.graph.kind[0])
    if companion is None:
        notes.append("triangulation comparison limited to torus graphs; skipped")
    else:
        holonomy = _degrees(data, "holonomy", config.holonomy)
        reason = "companion coloring is inadmissible or lacks data"
        try:
            matched = ground_dim_over(coloring_from_holonomy(build_torus(*companion), holonomy))
        except DimensionCapError:
            name = ":".join(map(str, ("torus", *companion)))
            matched, reason = None, f"companion {name} exceeds --dim-cap {config.dim_cap}"
        if matched is None:
            notes.append(f"{reason}; triangulation skipped")
        else:
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
        extra = f"  residual {residuals[row['name']]:.3e}" if row["name"] in residuals else ""
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


# each command and the modules it runs (operators loads states), imported before its timer
_COMMANDS = {
    "validate": (cmd_validate, ("axioms",)),
    "ground-dim": (cmd_ground_dim, ("operators",)),
    "check": (cmd_check, ("axioms", "operators")),
    "spectrum": (cmd_spectrum, ("operators",)),
}


def _emit(report: dict, stream: TextIO):
    stream.write(json.dumps(report, indent=2) + "\n")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config, data, out = _resolve(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    envelope = {
        "command": config.command,
        "version": __version__,
        "config": asdict(config),
    }
    command, modules = _COMMANDS[config.command]
    for module in modules:
        importlib.import_module(f".{module}", __package__)
    with out or contextlib.nullcontext(sys.stdout) as stream:
        started = time.perf_counter()
        try:
            body, ok = command(config, data)
        except _CHECK_ERRORS + _USAGE_ERRORS as exc:
            envelope["error"] = str(exc)
            _emit(envelope, stream)
            print(f"error: {exc}", file=sys.stderr)
            return 1 if isinstance(exc, _CHECK_ERRORS) else 2
        elapsed = time.perf_counter() - started
        envelope.update(body)
        _emit(envelope, stream)
    status = "ok" if ok else "FAILED"
    print(f"{config.command}: {status} in {elapsed:.2f}s", file=sys.stderr)
    return 0 if ok else 1


def run():
    """Process entry of ``python -m rlw.cli`` and the ``rlw`` script.

    Freezes the import-time heap first, so the collection at interpreter exit
    skips it; `main` itself leaves the collector alone for in-process callers.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
