"""Instrumentation counters of the evaluation engine.

The engine serves *designs* (one per genotype request) while trying to avoid
*model work* (full-network evaluations).  The :class:`EngineStats` counters
keep the two apart so throughput reports can state both the effective
serving rate and the raw model rate:

* ``genotype_requests`` / ``genotype_cache_hits`` — requests answered by the
  genotype-level memo cache without touching the model at all;
* ``shared_cache_hits`` — requests answered by a cross-problem
  :class:`~repro.engine.cache.SharedGenotypeCache` (rows computed by
  another problem with the same evaluator fingerprint, projected onto this
  problem's objective components);
* ``model_evaluations`` — full-network evaluations actually computed
  (misses of both genotype-level caches); ``vectorized_designs`` of them
  ran through a column kernel, ``sharded_designs`` through one on the
  worker pool, and the rest through the scalar model.

Counters are plain integers/floats; :meth:`EngineStats.snapshot` and the
``-`` operator make it cheap to attribute deltas to a single optimisation
run even when several runs share one engine.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["EngineStats"]


@dataclass
class EngineStats:
    """Counters describing the work performed by an :class:`EvaluationEngine`.

    Attributes:
        genotype_requests: designs served through the engine (cache hits
            included).
        genotype_cache_hits: requests answered by the engine's column store
            (or by a repeat of a genotype within one batch).
        shared_cache_hits: requests answered by the cross-problem shared
            genotype cache with a row another engine computed (counted
            separately from the local memo; the served row is then inserted
            into the column store, so repeats become ordinary genotype-cache
            hits).
        model_evaluations: full-network model evaluations actually computed
            (through any compute path).
        vectorized_designs: model evaluations computed by a columnar kernel,
            in-process or sharded (a subset of ``model_evaluations``).
        sharded_designs: model evaluations computed by the sharded
            shared-memory columnar backend (a subset of
            ``vectorized_designs``; zero when every kernel call ran
            in-process).
        rows_skipped_cached: batch rows the caches served before a kernel
            dispatch (in-process or sharded) — they never reach the column
            gather, which only ever sees a batch's misses.
        rows_pruned_in_workers: batch rows dominated inside their own shard
            and pruned by the worker-side-pruning protocol
            (``ShardedVectorizedBackend.evaluate_front_columns_sharded``):
            they were evaluated (counted in ``model_evaluations`` /
            ``sharded_designs``) but never shipped back to the parent, so
            the parent-side archive merge of a pruned batch sees only
            Σ(shard front sizes) rows, not the batch size.
        designs_materialised: ``EvaluatedDesign`` objects built from column
            rows by ``problem.materialise_designs`` — by
            ``ColumnarBatchResult.materialise`` (so by every
            ``EvaluationEngine.evaluate_many``) and by
            ``EvaluationEngine.evaluate`` on a column-store hit.  Designs
            are never memoised, so a row materialised twice counts twice.
            Columnar sweeps prune on raw objective columns and materialise
            only survivors, so on a sweep this counter tracks the front
            size, not the space.
        worker_failures: failures observed by the worker pool (a worker
            crash breaking the pool, a batch future timing out, an
            exception escaping a worker task).  Each failure tears the pool
            down; whether the batch is retried or degraded is reported by
            the two counters below.
        batches_retried: batch attempts re-dispatched onto a fresh pool by
            the pool's :class:`~repro.engine.backends.RetryPolicy` after
            a worker failure (one count per retry attempt, so a batch that
            needed two fresh pools counts twice).
        degraded_batches: batches that exhausted their retry policy and were
            served by the engine's in-process degradation ladder instead
            (sharded → in-process serial kernel → scalar path) — results
            stay bitwise identical, only the compute path changes.
        retry_wait_seconds: total wall-clock time spent sleeping in
            exponential backoff between retry attempts.
        column_memo_evictions: column rows evicted by the LRU bound of the
            engine's id-keyed column store (``column_memo_max_entries``).
        rows_loaded_from_disk: column rows bulk-loaded from a persistent
            cache segment (:mod:`repro.engine.persist`) — warm-start
            capacity loaded, whether or not a sweep ever requests it.
        persistent_cache_hits: genotype requests answered by a column row
            that came off disk (a subset of ``genotype_cache_hits``; the
            warm-start sweep's "no model was touched" evidence).  Every
            such request counts, not only a row's first: a warm 8,192-row
            sweep counts 8,192, plus one for the problem's construction
            probe.  A repeat of a genotype within one batch counts as an
            ordinary genotype-cache hit.
        batches: number of batch evaluations
            (``EvaluationEngine.evaluate_many_columnar`` calls, including
            the one behind every ``evaluate_many``).
        wall_time_s: wall-clock time spent inside the engine.
        array_backend: name of the array-backend namespace
            (:mod:`repro.core.array_backend`) that computed the columnar
            kernels' columns — ``""`` until a problem with a compiled
            kernel is bound to the engine.  The
            only non-numeric field: ``merge``/``-`` carry it through
            (non-empty wins) instead of doing arithmetic on it.
    """

    genotype_requests: int = 0
    genotype_cache_hits: int = 0
    shared_cache_hits: int = 0
    model_evaluations: int = 0
    vectorized_designs: int = 0
    sharded_designs: int = 0
    rows_skipped_cached: int = 0
    rows_pruned_in_workers: int = 0
    designs_materialised: int = 0
    worker_failures: int = 0
    batches_retried: int = 0
    degraded_batches: int = 0
    retry_wait_seconds: float = 0.0
    column_memo_evictions: int = 0
    rows_loaded_from_disk: int = 0
    persistent_cache_hits: int = 0
    batches: int = 0
    wall_time_s: float = 0.0
    array_backend: str = ""

    # ------------------------------------------------------------ derived

    @property
    def genotype_cache_hit_rate(self) -> float:
        """Fraction of genotype requests served from the memo cache."""
        if self.genotype_requests == 0:
            return 0.0
        return self.genotype_cache_hits / self.genotype_requests

    # ---------------------------------------------------------- operations

    def as_dict(self) -> dict:
        """The counters as a plain JSON-serialisable mapping.

        The wire/report form: the DSE service's stats endpoint and the
        benchmark artifacts serialize counters through this, so every field
        travels as a plain ``int``/``float``/``str``.
        """
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def snapshot(self) -> "EngineStats":
        """An independent copy of the current counter values."""
        return EngineStats(
            **{field.name: getattr(self, field.name) for field in fields(self)}
        )

    def merge(self, other: "EngineStats") -> None:
        """Add another set of counters in place (e.g. a run's delta into a
        per-client ledger)."""
        for field in fields(self):
            mine = getattr(self, field.name)
            if isinstance(mine, str):
                # Labels are carried, not added: keep ours unless unset.
                setattr(self, field.name, mine or getattr(other, field.name))
                continue
            setattr(self, field.name, mine + getattr(other, field.name))

    def __sub__(self, other: "EngineStats") -> "EngineStats":
        """Field-wise difference, used to attribute counters to one run.

        Label fields (``array_backend``) are carried from the newer snapshot
        rather than subtracted — a delta records which backend served the
        attributed window.
        """
        values = {}
        for field in fields(self):
            mine = getattr(self, field.name)
            if isinstance(mine, str):
                values[field.name] = mine
                continue
            values[field.name] = mine - getattr(other, field.name)
        return EngineStats(**values)

    def reset(self) -> None:
        """Zero every counter."""
        for field in fields(self):
            setattr(self, field.name, field.default)
