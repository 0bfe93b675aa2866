"""Tests of the benchmark harness itself: inputs, oracles, metric names.

They start no CLI subprocess and record no table, so they take seconds.
"""

import json
import sys

import pytest

import run
import workloads
from tracer import _QUERIES, Tracer
from workloads import (
    AXIOM_TUPLES,
    CHECK_NAMES,
    SPECTRUM,
    check_report,
    draw_holonomy,
    make_inputs,
    parse_elapsed,
)

sys.path.insert(0, str(run.SRC))

from rlw import coloring_from_holonomy, is_admissible, parse_family_spec, parse_surface  # noqa: E402

CHECKED = dict(zip(CHECK_NAMES, (18, 18, 216, 30, 30, 150, 300, 726, 150, 150)))


def _validate_report():
    return {
        "passed": True,
        "max_residual": 0.0,
        "checks": [{"name": n, "passed": True, "checked": c} for n, c in CHECKED.items()],
    }


def _ground_report(dim, ground):
    return {"hilbert_dim": dim, "ground_dim": ground, "idempotency_residual": 0.0}


def _spectrum_report():
    return {"hilbert_dim": 243, "spectrum": dict(SPECTRUM), "gap": 2}


GOOD = {
    "axioms": _validate_report,
    "grid2": lambda: _ground_report(243, 9),
    "table": lambda: _ground_report(32, 4),
    "spectrum": _spectrum_report,
}


def test_checked_counts_sum_to_the_tuple_count():
    assert sum(CHECKED.values()) == AXIOM_TUPLES


@pytest.mark.parametrize("workload", ["axioms", "grid2", "spectrum"])
def test_inputs_repeat_per_seed(workload, tmp_path):
    first = [make_inputs(workload, s, run.ROOT, tmp_path) for s in range(4)]
    again = [make_inputs(workload, s, run.ROOT, tmp_path) for s in range(4)]
    assert first == again
    assert len({x.argv for x in first}) > 1


def test_table_holonomy_repeats_per_seed():
    data = parse_family_spec(workloads.TABLE_FAMILY)
    draws = [
        draw_holonomy(workloads._rng("table", s), data, workloads.GRID)
        for s in (0, 1, 0)
    ]
    assert draws[0] == draws[2]


@pytest.mark.parametrize("seed", range(6))
def test_draws_are_admissible(seed):
    degrees = workloads.draw_degrees(workloads._rng("axioms", seed))
    assert len({d.denominator for d in degrees}) == 3
    assert all(d.denominator >= 5 and 0 < d < 1 for d in degrees)
    data = parse_family_spec("P:3:2")
    pair, probe = draw_holonomy(workloads._rng("grid2", seed), data, workloads.GRID)
    assert all(f.denominator >= 7 for f in pair)
    coloring = coloring_from_holonomy(
        parse_surface(workloads.GRID), tuple(data.signature.parse(f) for f in pair)
    )
    assert is_admissible(coloring, data.singular)
    assert not probe.is_zero


@pytest.mark.parametrize("workload", list(GOOD))
def test_oracles_accept_the_expected_report(workload):
    assert check_report(workload, json.dumps(GOOD[workload]())) == []


def _doctored(workload, change):
    report = GOOD[workload]()
    change(report)
    return check_report(workload, json.dumps(report))


def test_oracles_reject_doctored_reports():
    assert _doctored("grid2", lambda r: r.update(ground_dim=3))
    assert _doctored("table", lambda r: r.update(ground_dim=3))
    assert _doctored("grid2", lambda r: r.update(idempotency_residual=1e-3))

    def off_by_one(r):
        r["spectrum"]["2"] += 1

    assert _doctored("spectrum", off_by_one)
    assert _doctored("spectrum", lambda r: r.update(gap=4))

    def unchecked(r):
        r["checks"][7]["checked"] = 0

    assert _doctored("axioms", unchecked)
    assert _doctored("axioms", lambda r: r.update(passed=False))
    assert _doctored("axioms", lambda r: r.update(max_residual=1e-9))
    assert check_report("grid2", '{"command": "ground-dim", "error": "boom"}')
    assert check_report("grid2", "not json")


def test_parse_elapsed():
    assert parse_elapsed("  spectrum ...\nspectrum: ok in 30.43s\n", "spectrum") == 30.43
    assert parse_elapsed("ground-dim: FAILED in 1.00s\n", "ground-dim") is None
    assert parse_elapsed("spectrum: ok in 3s\n", "ground-dim") is None
    assert parse_elapsed("", "validate") is None


def test_printed_metrics_are_declared(monkeypatch, tmp_path, capsys):
    end_to_end, per_layer = run.declared_metrics()
    fake = run.Launch(wall_s=1.5, setup_s=0.25, peak_rss_mb=100.0, exit_code=0)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "launch", lambda *args: fake)
    monkeypatch.setattr(
        run, "make_inputs",
        lambda w, s, root, cache: workloads.Inputs(w, s, ("ground-dim",)),
    )
    assert run.main(["--workload", "grid2", "--seconds", "0"]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["correct"] and printed["attempted"] == 2  # warm-up + one timed
    assert set(printed["metrics"]) == set(end_to_end)
    traced = set(Tracer("names").metrics()) | {"trace.overhead_frac"}
    assert traced == set(per_layer)


def test_traced_counts_repeat_and_wrappers_come_off():
    import rlw.cli
    from rlw.data import BuiltinFamily
    from rlw.operators import StringNetModel

    before = (BuiltinFamily.sixj, StringNetModel.plaquette_Bg, rlw.cli.validate)
    argv = ["ground-dim", "--family", "P:2:1", "--surface", "torus:theta",
            "--holonomy", "1/5,2/5"]
    runs = []
    for _ in range(2):
        tracer = Tracer("theta")
        _, code, out, _ = run._main_captured(lambda a: tracer.run(rlw.cli.main, a), argv)
        assert code == 0 and json.loads(out)["ground_dim"] == 4
        m = tracer.metrics()
        # per-span attribution loses no call
        assert m["data.sixj_calls"] == tracer.counts[_QUERIES.index("sixj")]
        runs.append({k: v for k, v in m.items() if not k.endswith(("_s", "_pct"))})
    assert runs[0] == runs[1]
    assert runs[0]["states.dim"] > 0 and runs[0]["operators.bg_nnz"] > 0
    assert runs[0]["data.sixj_calls"] > 0 and runs[0]["group.ops"] > 0
    assert (BuiltinFamily.sixj, StringNetModel.plaquette_Bg, rlw.cli.validate) == before
