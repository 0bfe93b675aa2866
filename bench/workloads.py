"""Seeded inputs, CLI argument lists and oracles for the benchmark workloads.

Every workload is one ``rlw`` CLI invocation.  Its inputs are drawn from
``random.Random(f"{workload}:{seed}")``, so a seed fixes the inputs and
different workloads draw independently.  A draw is kept only when the
program can answer it: holonomies give an admissible coloring and leave a
usable probe degree, validator degrees are generic.  The program receives
only the generated arguments and files.

The oracles do not consult the program: ground dimensions are the closed
form N^2 of the built-in families on the torus, the spectrum and the
validator tuple count were fixed once and hold for every draw.

Every workload is sized so that one launch takes a few seconds at most:
a run then holds many launches and its medians are steady.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: denominators of holonomy degrees k/p; prime, at least 7
HOLONOMY_PRIMES = (7, 11, 13)
#: denominators of the three validator degrees; distinct primes, at least 5
AXIOM_PRIMES = (5, 7, 11, 13, 17)

CHECK_NAMES = (
    "dual_involution",
    "scalar_reality_duality",
    "delta_symmetry",
    "b_recursion",
    "gamma_beta_normalization",
    "sixj_support",
    "tetrahedral_symmetry",
    "pentagon",
    "orthogonality",
    "conjugation",
)
#: degree tuples the validator checks over the closure of any three
#: degrees with distinct prime denominators
AXIOM_TUPLES = 1788
GRID = "torus:grid:2"
#: spectrum of M:3:2 on the 2x2 grid torus for every admissible holonomy
SPECTRUM = {"0": 9, "2": 108, "3": 72, "4": 54}

TABLE_FAMILY = "P:2:1"


@dataclass(frozen=True)
class Inputs:
    """One workload's generated CLI arguments."""

    workload: str
    seed: int
    argv: Tuple[str, ...]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def draw_degrees(rng: random.Random) -> List[Fraction]:
    """Three degrees with distinct prime denominators."""
    primes = rng.sample(AXIOM_PRIMES, 3)
    return [Fraction(rng.randrange(1, p), p) for p in primes]


def draw_holonomy(rng: random.Random, data, surface: str):
    """Redraw (k1/p1, k2/p2) until the coloring is admissible and probed.

    Returns the holonomy as fractions and the first usable probe degree.
    """
    from rlw import coloring_from_holonomy, is_admissible, parse_surface, probe_candidates

    graph = parse_surface(surface)
    while True:
        pair = [
            Fraction(rng.randrange(1, p), p)
            for p in (rng.choice(HOLONOMY_PRIMES), rng.choice(HOLONOMY_PRIMES))
        ]
        coloring = coloring_from_holonomy(
            graph, tuple(data.signature.parse(f) for f in pair)
        )
        if not is_admissible(coloring, data.singular):
            continue
        probe = next(probe_candidates(data, coloring), None)
        if probe is not None:
            return pair, probe


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def source_digest(src: Path) -> str:
    """Hash of the package sources, so a cached table follows the program."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def record_table(seed: int, root: Path, cache: Path) -> Tuple[str, List[Fraction], str]:
    """The `table` inputs: a P(2,1) slice recorded on grid:2, cached per seed.

    Recording uses only the public API: wrap the family in RecordingData,
    compute the strict ground dimension on the drawn coloring at the
    pinned probe, export what was queried.  Returns the table path, the
    holonomy and the probe.
    """
    from rlw import (
        RecordingData,
        StringNetModel,
        coloring_from_holonomy,
        parse_family_spec,
        parse_surface,
    )

    base = parse_family_spec(TABLE_FAMILY)
    pair, probe = draw_holonomy(_rng("table", seed), base, GRID)
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"table-{seed}-{source_digest(root / 'src')}.json"
    if not path.exists():
        recorder = RecordingData(base)
        coloring = coloring_from_holonomy(
            parse_surface(GRID), tuple(base.signature.parse(f) for f in pair)
        )
        model = StringNetModel(recorder, coloring, strict=True, probe=probe)
        model.ground_dim()
        partial = path.with_suffix(f".{os.getpid()}.part")
        recorder.export_table().to_file(str(partial))
        os.replace(partial, path)
    return str(path), pair, str(probe)


def make_inputs(workload: str, seed: int, root: Path, cache: Path) -> Inputs:
    """Draw the CLI arguments of one workload for one seed."""
    from rlw import parse_family_spec

    rng = _rng(workload, seed)
    if workload == "axioms":
        argv = ("validate", "--family", "P:3:2",
                "--degrees", _csv(draw_degrees(rng)), "--tol", "1e-12")
    elif workload == "grid2":
        pair, _ = draw_holonomy(rng, parse_family_spec("P:3:2"), GRID)
        argv = ("ground-dim", "--family", "P:3:2", "--surface", GRID,
                "--holonomy", _csv(pair), "--strict-fusion")
    elif workload == "table":
        table, pair, probe = record_table(seed, root, cache)
        argv = ("ground-dim", "--data", table, "--surface", GRID,
                "--holonomy", _csv(pair), "--strict-fusion", "--probe", probe)
    elif workload == "spectrum":
        pair, _ = draw_holonomy(rng, parse_family_spec("M:3:2"), GRID)
        argv = ("spectrum", "--family", "M:3:2", "--surface", GRID,
                "--holonomy", _csv(pair), "--strict-fusion")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, seed, argv)


# -- oracles -------------------------------------------------------------------


def check_axioms(report: dict) -> List[str]:
    problems = []
    if report.get("passed") is not True:
        problems.append("validator did not pass")
    if not report.get("max_residual", 1.0) <= 1e-12:
        problems.append(f"max_residual {report.get('max_residual')} above 1e-12")
    checks = report.get("checks", [])
    names = tuple(c.get("name") for c in checks)
    if names != CHECK_NAMES:
        problems.append(f"checks {names} are not the ten axiom checks")
    for c in checks:
        if not c.get("checked", 0) > 0:
            problems.append(f"check {c.get('name')} checked nothing")
    total = sum(c.get("checked", 0) for c in checks)
    if total != AXIOM_TUPLES:
        problems.append(f"{total} tuples checked, expected {AXIOM_TUPLES}")
    return problems


def _check_ground(report: dict, dim: int, ground: int) -> List[str]:
    problems = []
    if report.get("hilbert_dim") != dim:
        problems.append(f"hilbert_dim {report.get('hilbert_dim')}, expected {dim}")
    if report.get("ground_dim") != ground:
        problems.append(f"ground_dim {report.get('ground_dim')}, expected {ground}")
    if not report.get("idempotency_residual", 1.0) <= 1e-9:
        problems.append(
            f"idempotency_residual {report.get('idempotency_residual')} above 1e-9"
        )
    return problems


def check_grid2(report: dict) -> List[str]:
    return _check_ground(report, 243, 9)


def check_table(report: dict) -> List[str]:
    return _check_ground(report, 32, 4)


def check_spectrum(report: dict) -> List[str]:
    problems = []
    if report.get("hilbert_dim") != 243:
        problems.append(f"hilbert_dim {report.get('hilbert_dim')}, expected 243")
    if report.get("spectrum") != SPECTRUM:
        problems.append(f"spectrum {report.get('spectrum')}, expected {SPECTRUM}")
    if report.get("gap") != 2:
        problems.append(f"gap {report.get('gap')}, expected 2")
    return problems


ORACLES: Dict[str, Callable[[dict], List[str]]] = {
    "axioms": check_axioms,
    "grid2": check_grid2,
    "table": check_table,
    "spectrum": check_spectrum,
}
WORKLOADS = tuple(ORACLES)


def check_report(workload: str, text: str) -> List[str]:
    """Problems with one CLI report (empty when the oracle accepts it)."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if "error" in report:
        return [f"error: {report['error']}"]
    return ORACLES[workload](report)


def parse_elapsed(stderr: str, command: str) -> Optional[float]:
    """The `<command>: ok in X s` time the CLI prints last on stderr."""
    lines = stderr.strip().splitlines()
    if not lines:
        return None
    prefix, suffix = f"{command}: ok in ", "s"
    last = lines[-1].strip()
    if not (last.startswith(prefix) and last.endswith(suffix)):
        return None
    try:
        return float(last[len(prefix):-len(suffix)])
    except ValueError:
        return None
