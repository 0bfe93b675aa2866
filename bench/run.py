"""Benchmark of the ``rlw`` CLI, end to end and per layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload grid2 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

``--trace 0`` launches the CLI as a subprocess once untimed, to warm the
file cache and the bytecode cache, then one at a time (a closed loop,
concurrency 1) until ``--seconds`` have passed, and reports the
end-to-end metrics as medians over the timed launches.  BLAS threads
default to one per launch, so a run on a small shared host measures the
program rather than the scheduler.  ``--trace 1`` runs the
same argv in-process through ``rlw.cli.main``, once plain and once with
the wrappers of `tracer.py`, and reports the per-layer metrics.  Every
answer is checked against the workload's oracle.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the metric names and units taken from BENCHMARK.json.

Inputs, recorded tables, CLI outputs, traces and per-run result files
with provenance go to ``.bench_build/rlw-bench`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional

from workloads import WORKLOADS, check_report, make_inputs, parse_elapsed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "rlw-bench"
#: keeps every run inside the 180 s a run may take, recording included
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """The CLI's environment: the sources on the path, BLAS threads at 1 unless set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in BLAS_ENV:
        env.setdefault(name, "1")
    return env


@dataclass
class Launch:
    """One CLI subprocess: timings, memory and the oracle's verdict."""

    wall_s: float
    setup_s: Optional[float]
    peak_rss_mb: float
    exit_code: Optional[int]
    #: user + system CPU time of the CLI; recorded, not a metric
    cpu_s: Optional[float] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def launch(workload: str, argv, timeout: float, tag: str) -> Launch:
    """Run the CLI once, timing it from launch to exit, reaped by wait4."""
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rlw.cli", *argv],
            stdout=out, stderr=err, cwd=ROOT, env=child_env(),
        )

        def kill():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    elapsed = parse_elapsed(stderr, argv[0])
    problems = []
    if state["timed_out"]:
        problems.append(f"timed out after {timeout:.0f}s")
    elif proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if elapsed is None:
        problems.append("no parsable '<command>: ok in Xs' line on stderr")
    if not problems:
        problems = check_report(workload, stdout)
    return Launch(
        wall_s=wall,
        setup_s=wall - elapsed if elapsed is not None else None,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        problems=problems,
    )


def _median(values, default=0.0) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def measure(inputs, seconds: float, started: float):
    """One warm-up launch, then a closed loop of launches for `seconds`.

    Every launch is checked; the metrics are medians over the timed ones.
    """

    def one(tag):
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - started))
        return launch(inputs.workload, inputs.argv, timeout,
                      f"{inputs.workload}-{inputs.seed}-{tag}")

    warmup = one("warmup")
    launches: List[Launch] = []
    begin = time.perf_counter()
    while warmup.ok and (not launches or time.perf_counter() - begin < seconds):
        launches.append(one(len(launches)))
        if not launches[-1].ok:
            break
    good = [x for x in launches if x.ok] or launches or [warmup]
    launches.insert(0, warmup)
    metrics = {
        "wall_s": _median(x.wall_s for x in good),
        "setup_s": _median(x.setup_s for x in good),
        "peak_rss_mb": _median(x.peak_rss_mb for x in good),
    }
    failed = sum(not x.ok for x in launches)
    summary = (
        f"  wall_s {metrics['wall_s']:.3f} s, setup_s {metrics['setup_s']:.3f} s,"
        f" peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (medians of {len(good)}),"
        f" failed_frac {failed / len(launches):.3f} ratio ({failed} of {len(launches)})"
    )
    detail = {
        "problems": [p for x in launches for p in x.problems],
        "launches": [dict(asdict(x), ok=x.ok) for x in launches],
    }
    return metrics, len(launches), failed, summary, detail


def _main_captured(main, argv):
    """Run ``main(argv)`` in-process; (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def trace(inputs):
    """One plain and one traced in-process run; per-layer metrics."""
    import rlw.cli
    from tracer import Tracer

    run_id = f"{inputs.workload}-{inputs.seed}"
    argv = list(inputs.argv)
    plain_s, plain_code, plain_out, _ = _main_captured(rlw.cli.main, argv)
    tracer = Tracer(run_id)
    traced_s, traced_code, traced_out, _ = _main_captured(
        lambda a: tracer.run(rlw.cli.main, a), argv
    )
    problems, failed = [], 0
    for label, code, out in (("plain", plain_code, plain_out),
                             ("traced", traced_code, traced_out)):
        found = [f"exit code {code}"] if code != 0 else check_report(inputs.workload, out)
        failed += bool(found)
        problems += [f"{label}: {p}" for p in found]
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    trace_path = WORK / "traces" / f"{run_id}.json"
    tracer.write(trace_path, {"argv": argv})
    ranking = ", ".join(f"{layer} {sec:.3f}" for layer, sec in tracer.ranking())
    summary = (
        f"  traced main {traced_s:.3f} s vs plain {plain_s:.3f} s"
        f" (overhead {metrics['trace.overhead_frac']:+.1%})\n"
        f"  self time by layer, largest first (s): {ranking}\n"
        f"  spans and counts in {trace_path.relative_to(ROOT)}"
    )
    return metrics, 2, failed, summary, {"problems": problems, "plain_main_s": plain_s}


def provenance(seed: int) -> dict:
    """Where the numbers came from; recorded, never gated."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = None
    return {
        "git_commit": commit,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_env": {k: child_env()[k] for k in BLAS_ENV},
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    started = time.perf_counter()
    end_to_end, per_layer = declared_metrics()
    WORK.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(workload, seed, ROOT, WORK / "inputs")
    print(f"{workload} seed {seed} trace {int(traced)}: rlw {' '.join(inputs.argv)}")
    if traced:
        values, attempted, failed, summary, detail = trace(inputs)
        units = per_layer
    else:
        values, attempted, failed, summary, detail = measure(inputs, seconds, started)
        units = end_to_end
    if set(values) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json"
        )
    print(summary)
    for problem in detail["problems"]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = dict(result, workload=workload, argv=list(inputs.argv),
                  provenance=provenance(seed), detail=detail)
    out = WORK / "results" / f"{workload}-seed{seed}-trace{int(traced)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  provenance: {json.dumps(record['provenance'])}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rlw" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no rlw sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
