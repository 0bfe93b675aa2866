"""In-process tracing of one ``rlw.cli.main`` run, layer by layer.

The wrappers live here, not in the program: `Tracer.install` replaces
public attributes of the ``rlw`` modules with timing or counting
wrappers and `Tracer.uninstall` puts the originals back.

- Coarse calls (CLI helpers, model methods, state-space construction,
  operator products, the validator) become spans: name, layer, start,
  end, parent and run id, kept in memory and written out at the end.
- Data-provider queries are far too many for spans (millions of `dual`
  calls on grid:3).  They bump global counters, and the outermost call
  of a nest is timed into a global total; spans snapshot both at entry
  and exit, so each span owns the calls and query time between its
  snapshots that no child span owns.
- `dual` and `label_index` are only counted: they are dict lookups that
  cost less than a timer would add, so their time stays in the caller.
  Group arithmetic is only counted as well.

A span's self time is its duration minus its child spans, minus the
provider time spent inside it, minus the wrapper bookkeeping done after
its children returned.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

from workloads import CHECK_NAMES

LAYERS = ("surface", "data", "states", "operators", "validate", "cli")

# (wrapped attribute, layer); the attribute name is the span name
_CLI_SPANS = (
    ("parse_surface", "surface"),
    ("coloring_from_holonomy", "surface"),
    ("load_data", "data"),
    ("parse_family_spec", "data"),
    ("validate", "validate"),
)
_MODEL_SPANS = (
    ("space", "states"),
    ("plaquette_Bg", "operators"),
    ("plaquette_B", "operators"),
    ("vertex_Q", "operators"),
    ("ground_projector", "operators"),
    ("ground_dim", "operators"),
    ("hamiltonian", "operators"),
    ("spectrum", "operators"),
)
_QUERIES = (
    "labels",
    "label_index",
    "dual",
    "delta",
    "gamma",
    "sixj",
    "sixj_support",
    "dual_perm",
    "scalar_vectors",
    "delta_block",
    "gamma_block",
    "sixj_block",
    "probe_degrees",
)
_COUNTED_QUERIES = ("dual", "label_index")
_GROUP_OPS = ("__add__", "__sub__", "__neg__")
_GROUND = ("ground_projector", "ground_dim")


class Span:
    __slots__ = (
        "id", "parent", "name", "layer", "start", "end", "child",
        "provider", "calls", "info", "_snap",
    )

    def __init__(self, id_, parent, name, layer, start, snap):
        self.id = id_
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.child = 0.0      # time covered by child spans and bookkeeping
        self.provider = 0.0   # timed query time it owns, set by Tracer._finish
        self.calls: Dict[str, int] = {}
        self.info: Dict[str, float] = {}
        self._snap = snap     # (counters, query time) at entry, then the delta

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child - self.provider

    def to_dict(self, run_id: str, origin: float) -> dict:
        return {
            "run": run_id,
            "id": self.id,
            "parent": self.parent.id if self.parent else None,
            "name": self.name,
            "layer": self.layer,
            "start_s": self.start - origin,
            "end_s": self.end - origin,
            "self_s": self.self_time,
            "provider_s": self.provider,
            "calls": self.calls,
            "info": self.info,
        }


class Tracer:
    """Spans and counts of one traced run; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.counts = [0] * len(_QUERIES)
        self.query_time = [0.0]
        self.group_ops = [0]
        self._busy = [False]
        self._saved: list = []
        self._built_bg: set = set()

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name: str, layer: str, after=None):
        stack, spans = self.stack, self.spans
        counts, query_time = self.counts, self.query_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            snap = (counts[:], query_time[0])
            span = Span(len(spans), parent, name, layer, clock(), snap)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                span._snap = (
                    [now - then for now, then in zip(counts, snap[0])],
                    query_time[0] - snap[1],
                )
                if parent is not None:
                    parent.child += span.duration
            if after is not None:
                t0 = clock()
                after(span, args, result)
                if parent is not None:
                    parent.child += clock() - t0
            return result

        return wrapper

    def _query(self, fn, key: str):
        counts, index = self.counts, _QUERIES.index(key)
        if key in _COUNTED_QUERIES:
            def counted(*args, **kwargs):
                counts[index] += 1
                return fn(*args, **kwargs)

            return counted
        busy, total = self._busy, self.query_time
        clock = time.perf_counter

        def timed(*args, **kwargs):
            counts[index] += 1
            if busy[0]:  # nested inside a timed query: already on the clock
                return fn(*args, **kwargs)
            busy[0] = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[0] += clock() - t0
                busy[0] = False

        return timed

    def _counted(self, fn):
        ops = self.group_ops

        def wrapper(*args):
            ops[0] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- span annotations ----------------------------------------------------

    def _after_bg(self, span, args, result):
        if id(result) in self._built_bg:  # served from the model's cache
            return
        self._built_bg.add(id(result))
        span.info["nnz"] = int((result.matrix != 0).sum())
        span.info["entries"] = int(result.matrix.size)

    @staticmethod
    def _after_space(span, args, result):
        span.info["dim"] = args[0].dim

    @staticmethod
    def _after_compose(span, args, result):
        span.info["bytes"] = int(result.matrix.nbytes)

    @staticmethod
    def _after_validate(span, args, result):
        for check in result.checks:
            span.info[check.name] = check.checked

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        """Wrap the public entry points of every layer."""
        import rlw.cli
        from rlw.data import BuiltinFamily, LWData, TableData
        from rlw.group import GroupElement
        from rlw.operators import StringNetModel
        from rlw.states import LinearOperator, StateSpace

        for attr, layer in _CLI_SPANS:
            after = self._after_validate if attr == "validate" else None
            self._patch(rlw.cli, attr, self._span(getattr(rlw.cli, attr), attr, layer, after))
        for attr, layer in _MODEL_SPANS:
            after = self._after_bg if attr == "plaquette_Bg" else None
            fn = StringNetModel.__dict__[attr]
            self._patch(StringNetModel, attr, self._span(fn, attr, layer, after))
        self._patch(StateSpace, "__init__", self._span(
            StateSpace.__init__, "StateSpace", "states", self._after_space))
        self._patch(LinearOperator, "compose", self._span(
            LinearOperator.compose, "compose", "states", self._after_compose))
        for cls in (LWData, BuiltinFamily, TableData):
            for attr in _QUERIES:
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._query(cls.__dict__[attr], attr))
        for attr in _GROUP_OPS:
            self._patch(GroupElement, attr, self._counted(GroupElement.__dict__[attr]))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, main, argv) -> int:
        """Call ``main(argv)`` inside a root ``cli`` span with wrappers on."""
        self.install()
        try:
            return self._span(main, "main", "cli")(argv)
        finally:
            self.uninstall()
            self._finish()

    def _finish(self):
        """Turn each span's inclusive counter deltas into exclusive ones."""
        inclusive = [s._snap[0] + [s._snap[1]] for s in self.spans]
        owned = [list(row) for row in inclusive]
        for s in self.spans:
            if s.parent is not None:
                mine = owned[s.parent.id]
                for k, n in enumerate(inclusive[s.id]):
                    mine[k] -= n
        for s, row in zip(self.spans, owned):
            s.calls = {key: n for key, n in zip(_QUERIES, row) if n}
            s.provider = row[-1]

    # -- rollup ------------------------------------------------------------------

    def times(self) -> Dict[str, float]:
        """Per-layer times in seconds, keyed by metric stem."""
        def total(spans, attr="duration"):
            return sum((getattr(s, attr) for s in spans), 0.0)

        out = {
            "surface.build": total(self._named("parse_surface", "coloring_from_holonomy")),
            "data.load": total(self._named("load_data", "parse_family_spec")),
            "data.query": total(self.spans, "provider"),
            "states.enumerate": total(self._named("StateSpace"), "self_time"),
            "states.compose": total(self._named("compose"), "self_time"),
            "operators.walk": total(self._named("plaquette_Bg"), "self_time"),
            "operators.ground": total(self._outermost(*_GROUND)),
            "operators.hamiltonian": total(self._outermost("hamiltonian")),
            "operators.spectrum": total(self._outermost("spectrum")),
            "validate.total": total(self._named("validate")),
            # operator products the CLI forms itself, e.g. ground-dim's P @ P
            "cli.products": total(
                s for s in self._named("compose") if s.parent and s.parent.name == "main"
            ),
        }
        for layer in LAYERS:
            out[f"{layer}.self"] = total((s for s in self.spans if s.layer == layer), "self_time")
        out["data.self"] += out["data.query"]
        return out

    def _named(self, *names) -> List[Span]:
        return [s for s in self.spans if s.name in names]

    def _outermost(self, *names) -> List[Span]:
        return [s for s in self._named(*names) if s.parent is None or s.parent.name not in names]

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the finished run; every name, zero when idle.

        Times are given as a percentage of the traced ``main`` span, so a
        layer a workload never enters reads 0 % rather than 0 s; times in
        seconds are ``trace.main_s`` times the percentage / 100, and the
        trace file keeps every span in seconds.
        """
        main_s = self.spans[0].duration if self.spans else 0.0
        out = {
            f"{stem}_pct": 100.0 * sec / main_s if main_s else 0.0
            for stem, sec in self.times().items()
        }
        calls: Dict[str, int] = {}
        for s in self.spans:
            for key, n in s.calls.items():
                calls[key] = calls.get(key, 0) + n
        for key in ("sixj", "delta", "gamma", "dual", "label_index", "labels"):
            out[f"data.{key}_calls"] = calls.get(key, 0)
        out["data.block_calls"] = sum(
            calls.get(k, 0) for k in ("delta_block", "gamma_block", "sixj_block")
        )
        out["group.ops"] = self.group_ops[0]

        spaces, composes = self._named("StateSpace"), self._named("compose")
        out["states.spaces"] = len(spaces)
        out["states.dim"] = sum(s.info.get("dim", 0) for s in spaces)
        out["states.compose_calls"] = len(composes)
        out["states.matrix_mb"] = sum(s.info.get("bytes", 0) for s in composes) / 1e6

        bg = self._named("plaquette_Bg")
        nnz = sum(s.info.get("nnz", 0) for s in bg)
        entries = sum(s.info.get("entries", 0) for s in bg)
        out["operators.bg_calls"] = sum(1 for s in bg if "nnz" in s.info)
        out["operators.bg_nnz"] = nnz
        out["operators.sixj_per_nnz"] = (
            sum(s.calls.get("sixj", 0) for s in bg) / nnz if nnz else 0.0
        )
        out["operators.fill"] = nnz / entries if entries else 0.0

        validates = self._named("validate")
        for name in CHECK_NAMES:
            out[f"validate.checked.{name}"] = sum(s.info.get(name, 0) for s in validates)
        tuples = sum(out[f"validate.checked.{name}"] for name in CHECK_NAMES)
        validate_s = sum((s.duration for s in validates), 0.0)
        out["validate.tuples_checked"] = tuples
        out["validate.tuples_per_s"] = tuples / validate_s if validate_s else 0.0

        out["trace.spans"] = len(self.spans)
        out["trace.main_s"] = main_s
        return out

    def ranking(self) -> List[Tuple[str, float]]:
        """Layers by self time in seconds, largest first."""
        times = self.times()
        return sorted(((layer, times[f"{layer}.self"]) for layer in LAYERS),
                      key=lambda item: -item[1])

    def write(self, path: Path, extra: dict):
        origin = self.spans[0].start if self.spans else 0.0
        doc = dict(
            extra,
            run_id=self.run_id,
            metrics=self.metrics(),
            spans=[s.to_dict(self.run_id, origin) for s in self.spans],
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
