"""Outside-in tracing of the DSE stack for the benchmark's traced runs.

The wrappers installed here time the calls *into* each layer's public
functions from the benchmark's own files; nothing under ``src/`` is edited.
Every wrapped call becomes a span (name, start, end, parent, optional
request id) kept in memory and written out when the run ends.  A layer's
self time is its span's duration minus the time of the wrapped calls nested
inside it, accumulated online so the per-layer totals never need the span
list.  Row and byte counts are taken at the same boundaries, and only at a
layer's entry (a nested call to the same layer adds time, not rows).

``install_engine_layers`` covers ``dse.space`` → ``engine.engine`` →
``core.vectorized`` → ``dse.pareto`` → ``engine.persist`` plus the search
algorithms; ``install_server_layers`` and ``install_client_layers`` cover
the service's wire, batcher and the load generator's decode.  Each returns
an undo callable, so a run can alternate traced and untraced repetitions.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict

#: Per-layer metrics of a traced run: name -> (end-to-end metric a change to
#: that layer is expected to move, workloads it should move on).  Units and
#: directions live in BENCHMARK.json's ``per_layer`` entries.
LAYER_METRICS = {
    "dse.space.index_matrix_s": ("designs_per_s", "sweep_cold sweep_warm"),
    "dse.space.index_matrix_rows": ("designs_per_s", "sweep_cold sweep_warm"),
    "engine.calls": ("designs_per_s peak_rss_mb", "sweep_cold sweep_warm (most); nsga2_explore (little)"),
    "engine.rows_requested": ("designs_per_s peak_rss_mb", "sweep_cold sweep_warm (most); nsga2_explore (little)"),
    "engine.self_s": ("designs_per_s peak_rss_mb", "sweep_cold sweep_warm (most); nsga2_explore (little)"),
    "engine.memo_hit_ratio": ("designs_per_s peak_rss_mb", "sweep_cold sweep_warm (most); nsga2_explore (little)"),
    "engine.model_evaluations": ("designs_per_s peak_rss_mb", "sweep_cold sweep_warm (most); nsga2_explore (little)"),
    "engine.materialise_s": ("designs_per_s", "nsga2_explore (object path); ~0 on sweeps"),
    "engine.designs_materialised": ("designs_per_s", "nsga2_explore (object path); ~0 on sweeps"),
    "core.vectorized.kernel_s": ("designs_per_s", "sweep_cold; 0 rows on sweep_warm"),
    "core.vectorized.kernel_rows": ("designs_per_s", "sweep_cold; 0 rows on sweep_warm"),
    "core.vectorized.kernel_calls": ("designs_per_s", "sweep_cold; 0 rows on sweep_warm"),
    "dse.pareto.prune_s": ("designs_per_s", "sweep_cold sweep_warm"),
    "dse.pareto.prune_rows_in": ("designs_per_s", "sweep_cold sweep_warm"),
    "dse.pareto.keep_ratio": ("designs_per_s", "sweep_cold sweep_warm"),
    "dse.pareto.rank_s": ("designs_per_s", "nsga2_explore"),
    "dse.nsga2.self_s": ("designs_per_s", "nsga2_explore"),
    "dse.exhaustive.self_s": ("designs_per_s", "sweep_cold sweep_warm"),
    "engine.persist.load_s": ("setup_s", "sweep_warm"),
    "engine.persist.rows_loaded": ("setup_s", "sweep_warm"),
    "engine.persist.bytes_loaded": ("setup_s", "sweep_warm"),
    "engine.persist.spill_s": ("setup_s", "sweep_warm"),
    "service.protocol.decode_s": ("latency_p50_ms designs_per_s", "service_mixed"),
    "service.protocol.encode_s": ("latency_p50_ms designs_per_s", "service_mixed"),
    "service.protocol.bytes_in": ("latency_p50_ms designs_per_s", "service_mixed"),
    "service.protocol.bytes_out": ("latency_p50_ms designs_per_s", "service_mixed"),
    "service.client.decode_s": ("latency_p50_ms", "service_mixed"),
    "service.batcher.turnaround_ms_p50": ("latency_p95_ms", "service_mixed"),
    "service.batcher.items_per_batch": ("latency_p95_ms", "service_mixed"),
    "service.batcher.engine_s": ("latency_p95_ms", "service_mixed"),
    "service.admission.admitted": ("failed_frac", "service_mixed"),
    "service.admission.rejected": ("failed_frac", "service_mixed"),
    "trace.wall_s": ("(tracing itself)", "all"),
    "trace.attributed_ratio": ("(tracing itself)", "all"),
    "trace.overhead_ratio": ("(tracing itself)", "all"),
}


class Tracer:
    """In-memory span recorder with online per-layer self-time totals.

    Parents are tracked per thread, so the DSE service's event-loop thread
    and its engine-lane thread each nest their own spans.  Totals are keyed
    by ``(phase, name)``; the caller flips :attr:`phase` between
    ``"setup"`` and ``"timed"`` so set-up work never pollutes the timed
    region's layer breakdown.
    """

    def __init__(self) -> None:
        self.phase = "timed"
        self.spans: list[dict] = []
        self._totals: defaultdict = defaultdict(lambda: [0, 0, 0])
        self._counts: defaultdict = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # -------------------------------------------------------------- record

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, counter=None, keep=True, req=None):
        """Run ``fn`` as a span named ``name``; return its result."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        # frame: [span id, name, nested wrapped-call ns]
        frame = [next(self._ids), name, 0]
        stack.append(frame)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            phase = self.phase
            with self._lock:
                total = self._totals[(phase, name)]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[2]
                if keep:
                    self.spans.append(
                        {
                            "id": frame[0],
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent[0] if parent is not None else None,
                            "phase": phase,
                            "thread": threading.get_ident(),
                            "req": (
                                req(args, kwargs, result)
                                if req is not None and result is not None
                                else None
                            ),
                        }
                    )
        if counter is not None and (parent is None or parent[1] != name):
            for key, value in counter(args, kwargs, result).items():
                self.add(key, value)
        return result

    def record(self, name: str, start_ns: int, end_ns: int, req=None) -> None:
        """Record a span that does not nest (an async request's lifetime)."""
        with self._lock:
            total = self._totals[(self.phase, name)]
            total[0] += 1
            total[1] += end_ns - start_ns
            total[2] += end_ns - start_ns
            self.spans.append(
                {
                    "id": next(self._ids),
                    "name": name,
                    "start_ns": start_ns,
                    "end_ns": end_ns,
                    "parent": None,
                    "phase": self.phase,
                    "thread": threading.get_ident(),
                    "req": req,
                }
            )

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self._counts[(self.phase, key)] += value

    # -------------------------------------------------------------- report

    def totals(self, phase: str = "timed") -> dict:
        """``{name: {"calls", "wall_s", "self_s"}}`` for one phase."""
        with self._lock:
            return {
                name: {
                    "calls": calls,
                    "wall_s": wall / 1e9,
                    "self_s": own / 1e9,
                }
                for (span_phase, name), (calls, wall, own) in self._totals.items()
                if span_phase == phase
            }

    def counts(self, phase: str = "timed") -> dict:
        with self._lock:
            return {
                key: value
                for (span_phase, key), value in self._counts.items()
                if span_phase == phase
            }

    def durations_ms(self, name: str) -> list[float]:
        """Durations of the kept spans called ``name``, in milliseconds."""
        with self._lock:
            return [
                (span["end_ns"] - span["start_ns"]) / 1e6
                for span in self.spans
                if span["name"] == name
            ]

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (called once, at exit)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with self._lock, open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ------------------------------------------------------------ installation


def _wrapper(tracer, original, name, counter, keep, req):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, counter, keep, req)

    return traced


def _patch_function(
    undo, tracer, module, attr, name, counter=None, keep=True, req=None
):
    """Wrap a module-level function everywhere ``repro`` bound it by name."""
    original = getattr(module, attr)
    traced = _wrapper(tracer, original, name, counter, keep, req)
    for module_name, loaded in list(sys.modules.items()):
        if module_name.startswith("repro") and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, traced)
            undo.append((loaded, attr, original))


def _patch_method(undo, tracer, cls, attr, name, counter=None, keep=True, req=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        traced = classmethod(_wrapper(tracer, raw.__func__, name, counter, keep, req))
    else:
        traced = _wrapper(tracer, raw, name, counter, keep, req)
    setattr(cls, attr, traced)
    undo.append((cls, attr, raw))


def _undoer(undo):
    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return restore


def _rows_in(args, kwargs, result):
    if len(args) == 2:  # running_front_indices(front, candidates)
        rows = len(args[0]) + len(args[1])
    else:  # pareto_front_indices(objectives)
        rows = len(args[0])
    return {"dse.pareto.prune_rows_in": rows, "dse.pareto.prune_rows_kept": len(result)}


def _segment_bytes(engine) -> int:
    return sum(os.path.getsize(path) for path in engine.loaded_segments if path.exists())


def install_engine_layers(tracer: Tracer):
    """Wrap the in-process stack: algorithms, engine, space, kernel, pareto."""
    from repro.core.vectorized import WbsnVectorizedKernel
    from repro.dse import pareto
    from repro.dse.exhaustive import ExhaustiveSearch
    from repro.dse.nsga2 import Nsga2
    from repro.dse.problem import WbsnDseProblem
    from repro.dse.random_search import RandomSearch
    from repro.dse.space import DesignSpace
    from repro.engine.engine import EvaluationEngine

    undo: list = []
    _patch_method(undo, tracer, ExhaustiveSearch, "run", "dse.exhaustive")
    _patch_method(undo, tracer, RandomSearch, "run", "dse.random")
    _patch_method(undo, tracer, Nsga2, "run", "dse.nsga2")
    engine_rows = {
        "evaluate_many_columnar": lambda a, k, r: {"engine.rows_requested": len(a[1])},
        "evaluate_many": lambda a, k, r: {"engine.rows_requested": len(a[1])},
        "evaluate": lambda a, k, r: {"engine.rows_requested": 1},
    }
    for attr, counter in engine_rows.items():
        _patch_method(undo, tracer, EvaluationEngine, attr, "engine", counter)
    _patch_method(
        undo,
        tracer,
        DesignSpace,
        "index_matrix",
        "dse.space.index_matrix",
        lambda a, k, r: {"dse.space.index_matrix_rows": len(r)},
    )
    _patch_method(
        undo,
        tracer,
        WbsnVectorizedKernel,
        "evaluate_columns",
        "core.vectorized.kernel",
        lambda a, k, r: {"core.vectorized.kernel_rows": len(r.feasible)},
    )
    _patch_method(
        undo,
        tracer,
        WbsnDseProblem,
        "materialise_designs",
        "engine.materialise",
        lambda a, k, r: {"engine.designs_materialised": len(r)},
    )
    _patch_method(
        undo,
        tracer,
        EvaluationEngine,
        "load_persistent_cache",
        "engine.persist.load",
        lambda a, k, r: {
            "engine.persist.rows_loaded": r,
            "engine.persist.bytes_loaded": _segment_bytes(a[0]),
        },
    )
    _patch_method(
        undo, tracer, EvaluationEngine, "spill_persistent_cache", "engine.persist.spill"
    )
    for attr in ("running_front_indices", "pareto_front_indices"):
        _patch_function(undo, tracer, pareto, attr, "dse.pareto.prune", _rows_in)
    for attr in ("non_dominated_sort", "crowding_distance"):
        _patch_function(undo, tracer, pareto, attr, "dse.pareto.rank")
    return _undoer(undo)


def install_server_layers(tracer: Tracer):
    """Wrap the service side: wire decode/encode and the batcher intake."""
    from repro.service import protocol
    from repro.service.batcher import EngineLane

    undo: list = []
    _patch_function(
        undo,
        tracer,
        protocol,
        "decode_line",
        "service.protocol.decode",
        lambda a, k, r: {"service.protocol.bytes_in": len(a[0])},
        req=lambda a, k, r: r.get("id"),
    )
    _patch_function(
        undo,
        tracer,
        protocol,
        "encode_message",
        "service.protocol.encode",
        lambda a, k, r: {"service.protocol.bytes_out": len(r)},
        req=lambda a, k, r: a[0].get("id"),
    )
    submit = EngineLane.__dict__["submit_evaluate"]

    @functools.wraps(submit)
    def submit_evaluate(self, client_id, genotypes, deadline):
        # Turnaround is submit -> future resolved: an async span, recorded
        # from the future's done-callback on the event loop.
        started = time.perf_counter_ns()
        future = submit(self, client_id, genotypes, deadline)
        tracer.add("service.batcher.items", 1)
        future.add_done_callback(
            lambda _f: tracer.record(
                "service.batcher.turnaround",
                started,
                time.perf_counter_ns(),
                req=client_id,
            )
        )
        return future

    EngineLane.submit_evaluate = submit_evaluate
    undo.append((EngineLane, "submit_evaluate", submit))
    return _undoer(undo)


def install_client_layers(tracer: Tracer):
    """Wrap the load generator's reply decode: JSON and ``DesignRow.from_wire``.

    Both run once per row or line, so they are aggregated, not kept as spans.
    """
    from repro.service import client
    from repro.service.protocol import DesignRow

    undo: list = []
    _patch_method(
        undo, tracer, DesignRow, "from_wire", "service.client.decode", keep=False
    )
    original_json = client.json
    loads = _wrapper(tracer, original_json.loads, "service.client.decode", None, False, None)
    client.json = types.SimpleNamespace(loads=loads)
    undo.append((client, "json", original_json))
    return _undoer(undo)
