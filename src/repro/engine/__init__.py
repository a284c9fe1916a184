"""Shared evaluation engine: batching, caching, instrumentation.

The paper's product is evaluation throughput — an analytical model fast
enough to let multi-objective search sweep thousands of WBSN configurations
per second.  This package is the layer that turns the raw model into a
serving component every search algorithm shares:

* :mod:`repro.engine.engine` — :class:`EvaluationEngine`, the genotype-level
  column store and the batch API ``evaluate_many_columnar``, which routes
  misses to the problem's column kernel or, for problems without one, to
  the scalar model, both in-process, and serves the batch as a
  :class:`ColumnarBatchResult` of raw columns, so sweeps can prune before
  materialising any design object (``evaluate_many`` / ``evaluate`` build
  designs from the rows on demand);
* :mod:`repro.engine.cache` — the :class:`~repro.engine.cache.ColumnStore` memo and
  :class:`SharedGenotypeCache`, the cross-problem column rows, one
  design-id-keyed store per evaluator fingerprint (problems sharing
  evaluation semantics but differing in objective sets — the Figure-5
  full/baseline pair — serve each other's computed rows, projected onto
  each problem's objective components);
* :mod:`repro.engine.stats` — :class:`EngineStats`, separating designs served
  from raw model work (and scalar from vectorized work, plus the cached
  rows the kernel never saw) so cache-aware throughput can be reported
  honestly;
* :mod:`repro.engine.faults` — the deterministic fault-injection harness
  (:class:`FaultPlan`/:class:`FaultSpec`): seedable kills, hangs, raises and
  byte corruption at explicit hook sites (checkpoint and segment writes,
  the DSE service), so every recovery path is exercised by tests;
* :mod:`repro.engine.checkpoint` — atomic, versioned, checksummed sweep
  checkpoints (:class:`SweepCheckpoint`) behind the columnar sweeps'
  checkpoint/resume support;
* :mod:`repro.engine.persist` — the persistent cache tier: per-fingerprint
  on-disk column segments (``EvaluationEngine(cache_dir=...)`` /
  ``run_algorithm(cache_dir=...)``) spilled and bulk-memoised with the
  checkpoint module's atomic-write and validation discipline, so repeated
  campaigns warm-start across processes with bitwise-identical fronts.

One batch path, two compute paths below it, one contract: every batch
goes through ``evaluate_many_columnar``, whose misses go to the problem's
compiled columnar kernel (:mod:`repro.core.vectorized`) when it offers one —
whole batches evaluated with NumPy array kernels, the right choice for
sweeps and population-based search — and to the scalar model, one design
at a time, otherwise.  Both run in the calling process, as do single
evaluations (one scalar model call each).  All paths are
floating-point-identical, so the choice is purely about throughput.

The genotype cache pays off when the same full configuration recurs
(elitist populations, annealing walks revisiting states, cross-algorithm
runs on one problem).  Reuse *between* distinct configurations that share
per-node knob settings is compiled into the column kernel instead: its
stage tables hold every per-node result once (:mod:`repro.core.vectorized`).
"""

from repro.engine.cache import SharedGenotypeCache
from repro.engine.checkpoint import (
    CheckpointError,
    CheckpointWarning,
    SweepCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.engine.engine import ColumnarBatchResult, EvaluationEngine
from repro.engine.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    clear_fault_plan,
    inject_faults,
    install_fault_plan,
)
from repro.engine.persist import (
    CacheSegment,
    CacheSegmentError,
    CacheTierWarning,
    list_segments,
    load_segment,
    load_segment_if_valid,
    prune_cache_dir,
    remove_orphaned_tmp_siblings,
    save_segment,
    segment_path,
)
from repro.engine.stats import EngineStats

__all__ = [
    "EvaluationEngine",
    "ColumnarBatchResult",
    "SharedGenotypeCache",
    "EngineStats",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "install_fault_plan",
    "clear_fault_plan",
    "inject_faults",
    "SweepCheckpoint",
    "CheckpointError",
    "CheckpointWarning",
    "save_checkpoint",
    "load_checkpoint",
    "CacheSegment",
    "CacheSegmentError",
    "CacheTierWarning",
    "segment_path",
    "save_segment",
    "list_segments",
    "load_segment",
    "load_segment_if_valid",
    "prune_cache_dir",
    "remove_orphaned_tmp_siblings",
]
