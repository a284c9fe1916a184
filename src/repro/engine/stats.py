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
  ran through the column kernel, and the rest through the scalar model.

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
        vectorized_designs: model evaluations computed by the columnar
            kernel (a subset of ``model_evaluations``).
        rows_skipped_cached: batch rows the caches served before a kernel
            dispatch — they never reach the column gather, which only ever
            sees a batch's misses.
        designs_materialised: ``EvaluatedDesign`` objects built from column
            rows by ``problem.materialise_designs`` — by
            ``ColumnarBatchResult.materialise`` (so by every
            ``EvaluationEngine.evaluate_many``) and by
            ``EvaluationEngine.evaluate`` on a column-store hit.  Designs
            are never memoised, so a row materialised twice counts twice.
            Columnar sweeps prune on raw objective columns and materialise
            only survivors, so on a sweep this counter tracks the front
            size, not the space.
        gene_rows_decoded: design ids decoded into gene rows for
            ``ColumnarBatchResult.materialise``, ``.genotypes`` (sweep
            checkpoints read it) and the scalar loop; kernel misses stay
            ids, so a default sweep decodes its front alone.  The
            persistent tier's spill of the whole store is not counted.
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
            kernel is bound to the engine.  A label, not a counter:
            ``merge``/``-`` carry it through (non-empty wins) instead of
            doing arithmetic on it.
        memo_index: how the column store finds a design id's row —
            ``"table"`` (a direct-address table, for spaces of at most
            ``cache.TABLE_LIMIT`` designs) or ``"dict"`` — set when a problem
            is bound; a label like ``array_backend``.
    """

    genotype_requests: int = 0
    genotype_cache_hits: int = 0
    shared_cache_hits: int = 0
    model_evaluations: int = 0
    vectorized_designs: int = 0
    rows_skipped_cached: int = 0
    designs_materialised: int = 0
    gene_rows_decoded: int = 0
    column_memo_evictions: int = 0
    rows_loaded_from_disk: int = 0
    persistent_cache_hits: int = 0
    batches: int = 0
    wall_time_s: float = 0.0
    array_backend: str = ""
    memo_index: str = ""

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

        Label fields (``array_backend``, ``memo_index``) are carried from
        the newer snapshot rather than subtracted — a delta records which
        backend served the attributed window.
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
