"""Shared, batched evaluation engine of the design-space exploration.

The engine sits between the search algorithms and the analytical model and
owns every cross-cutting evaluation concern:

* **genotype memo cache** — identical genotypes requested twice (within a
  run or across algorithms sharing one problem) are served without touching
  the model; this replaces the private caches the algorithms used to carry.
  The memo is one :class:`~repro.engine.cache.ColumnStore` of raw column
  rows keyed by the packed design id of the genotype
  (:meth:`~repro.dse.space.DesignSpace.design_keys`), computed once per
  batch from the validated index matrix.  The store looks up, inserts,
  bulk-loads and exports whole batches at a time, and
  ``column_memo_max_entries`` bounds every row it holds;
* **cross-problem shared cache** (optional) — engines given one
  :class:`~repro.engine.cache.SharedGenotypeCache` instance serve each
  other's computed rows when their problems report the same evaluator
  fingerprint, with objective columns projected onto each problem's
  component set (the Figure-5 full/baseline pair shares one cache this
  way).  Every row an engine computes is published, keyed by design id,
  as it enters the column store; the shared cache is consulted in one
  batched lookup for the rows the column store misses, and the rows it
  serves are inserted into the store;
* **persistent cache tier** (optional) — an engine given a ``cache_dir``
  bulk-loads the on-disk column segment of its problem's evaluation
  fingerprint into the column store at bind time and spills the store back
  on close (:mod:`repro.engine.persist`), so repeated campaigns warm-start
  across processes — a fully covered sweep re-runs without any model
  evaluation, bitwise identical to its cold run;
* **node-level cache** — below a genotype miss, the pure per-node stage of
  the evaluator is memoised by the problem's
  :class:`~repro.engine.cache.CachedNetworkEvaluator` (optionally bounded by
  an LRU policy), so distinct candidates that share per-node knob settings
  reuse node energy/quality/MAC results;
* **batching into columns** — :meth:`EvaluationEngine.evaluate_many_columnar`
  deduplicates a batch, serves its cached rows and dispatches only the
  misses, returning a :class:`ColumnarBatchResult` of raw columns
  (objective matrix, feasibility mask, violation column, genotype-index
  rows): search algorithms prune directly on the columns and materialise
  design objects only for the survivors
  (:meth:`ColumnarBatchResult.materialise`), removing the dominant
  parent-side cost of large sweeps;
* **design objects on demand** — :meth:`EvaluationEngine.evaluate_many` is
  that batch materialised in full, and :meth:`EvaluationEngine.evaluate`
  serves one genotype from the store, the shared cache or one in-process
  ``compute_design``.  Designs are never memoised: each one is built from
  its row by ``problem.materialise_designs`` (phenotype lookup, no model
  call) and counted in ``EngineStats.designs_materialised``;
* **instrumentation** — an :class:`~repro.engine.stats.EngineStats` instance
  separating designs served from raw model work, and scalar from vectorized
  work.

One method, :meth:`EvaluationEngine._compute_columns`, dispatches a batch's
misses to one of three compute paths:

* the **in-process kernel** (default, when the problem opts in by exposing
  ``compute_columns_batch`` / ``supports_vectorized``): the whole miss set
  is evaluated column-wise by the problem's compiled NumPy kernel
  (:mod:`repro.core.vectorized`) in one call.  Cached rows never reach the
  column gather (counted in ``EngineStats.rows_skipped_cached``);
* the **sharded kernel** (``backend="sharded"``): the same kernel, but the
  miss matrix is placed in shared memory and sharded across a worker pool
  (:class:`~repro.engine.sharded.ShardedVectorizedBackend`) — multi-core
  column kernels for huge uncached batches, reassembled in submission order
  and therefore bitwise identical to the in-process kernel.  With the
  ``prune_to_front`` hint, workers also prune their shards before shipping
  columns back;
* the **scalar path**: misses are chunked and dispatched to a pluggable
  execution backend (``"serial"`` in-process, ``"process"`` pool — see
  :mod:`repro.engine.backends`), computing one design at a time through the
  node-stage cache, then flattened into columns.  Problems without a kernel
  and engines with a non-columnar, non-serial backend take this path.

All paths are floating-point-identical by construction (the parity suite
enforces it), so switching between them is a pure performance decision.

Pool failures never change results either: a batch whose backend exhausts
its :class:`~repro.engine.backends.RetryPolicy` is served by the in-process
**degradation ladder** (serial kernel, then scalar path — see
``degrade_on_failure``), and backend recovery counters are drained into the
engine's stats after every dispatch, so worker crashes, retries and
degradations all surface in ``EngineStats``.

The engine computes raw results through ``problem.compute_design`` /
``problem.compute_columns_batch`` and builds designs through
``problem.materialise_designs``, which must be *pure* (no history, no
counters) — run accounting stays in the problem layer, which is what keeps
cached and uncached runs bitwise identical.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.vectorized import WbsnBatchColumns, as_row_indices
from repro.engine import faults
from repro.engine.backends import (
    EngineDegradationWarning,
    ExecutionBackend,
    RetryPolicy,
    WorkerRecoveryExhausted,
    make_backend,
)
from repro.engine.cache import ColumnStore, SharedGenotypeCache
from repro.engine.persist import (
    CacheTierWarning,
    load_segment_if_valid,
    segment_path,
    spill_columns,
)
from repro.engine.stats import EngineStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.dse.problem import EvaluatedDesign

__all__ = ["ColumnarBatchResult", "EvaluationEngine"]


@dataclass(frozen=True, eq=False)
class ColumnarBatchResult:
    """Raw column results of one batched evaluation — no design objects.

    One row per requested genotype, in request order (duplicates included,
    served from the same computed row).  Search algorithms prune directly on
    :attr:`objectives` / :attr:`feasible` and call :meth:`materialise` only
    for the survivors they return — the columnar-to-the-front discipline
    that keeps the parent-side cost of a sweep proportional to the front,
    not to the space.

    Attributes:
        genotypes: validated ``(batch, genes)`` gene-index rows.
        objectives: penalised objective matrix, shape ``(batch, n_obj)``.
        feasible: per-row feasibility flags.
        violation_counts: violated model constraints per row (the scalar
            evaluation's ``len(violations)``).
        cached: per-row flags — ``True`` where the column store, the shared
            cache or the persistent tier served the row, with no model call
            in the producing batch (a repeat of a row computed in the same
            batch is ``False``).
    """

    genotypes: np.ndarray
    objectives: np.ndarray
    feasible: np.ndarray
    violation_counts: np.ndarray
    cached: np.ndarray
    _engine: "EvaluationEngine" = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.genotypes)

    def take(self, rows: Any) -> "ColumnarBatchResult":
        """Row subset of the result, by integer indices or a boolean mask
        (fancy-indexed, preserving order)."""
        rows = as_row_indices(rows)
        return ColumnarBatchResult(
            genotypes=self.genotypes[rows],
            objectives=self.objectives[rows],
            feasible=self.feasible[rows],
            violation_counts=self.violation_counts[rows],
            cached=self.cached[rows],
            _engine=self._engine,
        )

    @staticmethod
    def concatenate(results: Sequence["ColumnarBatchResult"]) -> "ColumnarBatchResult":
        """Stack several results row-wise (e.g. a running archive + a chunk)."""
        if not results:
            raise ValueError("need at least one result to concatenate")
        return ColumnarBatchResult(
            genotypes=np.concatenate([r.genotypes for r in results], axis=0),
            objectives=np.concatenate([r.objectives for r in results], axis=0),
            feasible=np.concatenate([r.feasible for r in results], axis=0),
            violation_counts=np.concatenate(
                [r.violation_counts for r in results], axis=0
            ),
            cached=np.concatenate([r.cached for r in results], axis=0),
            _engine=results[0]._engine,
        )

    def materialise(self, indices: Any | None = None) -> list["EvaluatedDesign"]:
        """Build design objects for the selected rows (all rows by default).

        Every selected row is built through ``problem.materialise_designs``
        (phenotype lookup, no model re-evaluation) and counted in
        ``EngineStats.designs_materialised``.
        """
        if indices is None:
            rows = np.arange(len(self))
        else:
            rows = as_row_indices(indices)
        return self._engine.materialise_rows(
            self.genotypes[rows],
            self.objectives[rows],
            self.feasible[rows],
            self.violation_counts[rows],
        )


class EvaluationEngine:
    """Batched, two-level-cached evaluation of genotypes.

    Args:
        genotype_cache: memoise every computed row by genotype.
        node_cache: let the problem's node-level cache store per-node stages
            (the problem reads this flag when wrapping its evaluator).
        node_cache_max_entries: optional LRU bound on the node-level cache
            (the problem reads it when wrapping its evaluator); ``None``
            keeps the cache unbounded.
        vectorized: route batch misses through the problem's columnar kernel
            when it offers one (in-process for the serial backend, sharded
            across workers for the ``"sharded"`` backend).  ``False`` forces
            the scalar path everywhere — results are identical either way.
        backend: ``"serial"``, ``"process"``, ``"sharded"`` or a backend
            instance (``max_workers`` must be ``None`` with an instance).
        max_workers: pool size for the ``"process"``/``"sharded"`` backends.
        retry_policy: recovery budget of the pool-dispatching backends (see
            :class:`~repro.engine.backends.RetryPolicy`); ``None`` keeps the
            backend default.  Like ``max_workers``, only valid when the
            engine constructs the backend from a name.
        degrade_on_failure: when a batch exhausts the backend's retry policy
            (:class:`~repro.engine.backends.WorkerRecoveryExhausted`), serve
            it on the in-process degradation ladder — serial kernel, then
            scalar path — instead of propagating.  Results are bitwise
            identical on every rung; each degraded batch is counted in
            ``EngineStats.degraded_batches`` and announced with an
            :class:`~repro.engine.backends.EngineDegradationWarning`.
            ``False`` propagates the failure to the caller.
        chunk_size: genotypes per backend work unit on the scalar path.
        stats: counters to feed; a private instance is created if omitted.
        shared_cache: a :class:`~repro.engine.cache.SharedGenotypeCache`
            shared (by reference) with other engines whose problems have the
            same evaluator fingerprint; rows computed by any of them are
            published when computed and served to all, projected onto each
            problem's objective components.  Requires the genotype cache
            and a problem exposing ``evaluation_fingerprint`` /
            ``objective_components``; silently inactive otherwise.
        column_memo_max_entries: optional LRU bound on the id-keyed column
            store (:class:`~repro.engine.cache.ColumnStore`), the engine's
            one memo.  A hit refreshes a row's recency; after every insert
            the least-recently-used rows beyond the bound are evicted, each
            counted in ``EngineStats.column_memo_evictions`` (an eviction
            only costs a future recompute — it can never change results).
            ``None`` keeps the store unbounded.
        cache_dir: directory of the persistent cache tier
            (:mod:`repro.engine.persist`).  At :meth:`bind` the engine
            bulk-loads the problem's fingerprint segment (if one exists)
            into the column store, so sweeps warm-start without a single
            model evaluation; at :meth:`close` (and through
            ``run_algorithm(cache_dir=...)``) the store is spilled back.
            Unusable segments warn (:class:`CacheTierWarning`) and the
            engine starts cold.  Requires the genotype cache and a
            fingerprintable problem; inactive (with a warning) otherwise.
    """

    def __init__(
        self,
        *,
        genotype_cache: bool = True,
        node_cache: bool = True,
        node_cache_max_entries: int | None = None,
        vectorized: bool = True,
        backend: str | ExecutionBackend = "serial",
        max_workers: int | None = None,
        retry_policy: RetryPolicy | None = None,
        degrade_on_failure: bool = True,
        chunk_size: int = 64,
        stats: EngineStats | None = None,
        shared_cache: SharedGenotypeCache | None = None,
        column_memo_max_entries: int | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if node_cache_max_entries is not None and node_cache_max_entries <= 0:
            raise ValueError("node_cache_max_entries must be positive (or None)")
        if column_memo_max_entries is not None and column_memo_max_entries <= 0:
            raise ValueError("column_memo_max_entries must be positive (or None)")
        self.genotype_cache_enabled = bool(genotype_cache)
        self.node_cache_enabled = bool(node_cache)
        self.node_cache_max_entries = node_cache_max_entries
        self.column_memo_max_entries = column_memo_max_entries
        self.vectorized_enabled = bool(vectorized)
        self.degrade_on_failure = bool(degrade_on_failure)
        self.chunk_size = chunk_size
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.backend = make_backend(
            backend, max_workers=max_workers, retry_policy=retry_policy
        )
        self.stats = stats if stats is not None else EngineStats()
        self.shared_cache = shared_cache
        # The one memo: raw column rows keyed by design id (see
        # ``DesignSpace.design_keys``); designs are built from it on demand.
        self._column_store = ColumnStore(column_memo_max_entries)
        # Segment paths already consumed, so repeated warm-start requests
        # (constructor cache_dir plus runner cache_dir) load once.
        self._segments_loaded: set[Path] = set()
        self._problem: Any = None
        self._fingerprint: bytes | None = None
        self._objective_components: tuple[str, ...] | None = None

    # ------------------------------------------------------------------ API

    def bind(self, problem: Any) -> "EvaluationEngine":
        """Attach the engine to the problem whose designs it computes."""
        if self._problem is not None and self._problem is not problem:
            raise RuntimeError("the engine is already bound to another problem")
        if not (
            hasattr(problem, "compute_design")
            and hasattr(problem, "materialise_designs")
        ):
            raise TypeError(
                "the problem must expose pure 'compute_design(genotype)' and "
                "'materialise_designs(matrix, columns)' methods"
            )
        self._problem = problem
        kernel = getattr(problem, "vectorized_kernel", None)
        if kernel is not None:
            # Surface which array-backend namespace computes the columns so
            # throughput reports can attribute runs to a backend.
            self.stats.array_backend = getattr(kernel, "backend_name", "")
        if self.genotype_cache_enabled and (
            self.shared_cache is not None or self.cache_dir is not None
        ):
            fingerprint_hook = getattr(problem, "evaluation_fingerprint", None)
            components = getattr(problem, "objective_components", None)
            if callable(fingerprint_hook) and components:
                self._fingerprint = fingerprint_hook()
                self._objective_components = tuple(components)
        if self.cache_dir is not None:
            # Warm-start from the persistent tier as soon as the problem is
            # known; an unusable/missing segment leaves the engine cold.
            self.load_persistent_cache()
        return self

    @property
    def problem(self) -> Any:
        """The bound optimisation problem (``None`` before :meth:`bind`)."""
        return self._problem

    @property
    def genotype_cache_size(self) -> int:
        """Number of memoised rows (the column store's size)."""
        return len(self._column_store)

    def evaluate(self, genotype: Sequence[int]) -> "EvaluatedDesign":
        """Evaluate one genotype: the column store, then the shared cache,
        then one in-process model evaluation.

        A stored or shared row is materialised into a design (a shared row
        is inserted into the store first); a computed design is memoised
        and published.  Misses are computed through
        ``problem.compute_design``: dispatching one evaluation to a worker
        pool, or to a one-row kernel call, costs more than the model itself.
        """
        started = time.perf_counter()
        self.stats.genotype_requests += 1
        if not self.genotype_cache_enabled:
            design = self._compute_design(genotype)
        else:
            space = self._problem.space
            matrix = space.index_matrix([genotype])
            keys = space.design_keys(matrix)
            slots = self._store_lookup(keys)
            rows = self._column_store.rows(slots) if slots[0] >= 0 else None
            if rows is None and self._sharing:
                hits, shared = self._shared_lookup(keys)
                if len(hits):
                    rows = shared
                    self._insert(keys, *rows)
            if rows is not None:
                self.stats.wall_time_s += time.perf_counter() - started
                return self.materialise_rows(matrix, *rows)[0]
            design = self._compute_design(genotype)
            self._insert_computed(keys, *_design_columns([design]))
        self.stats.wall_time_s += time.perf_counter() - started
        return design

    def evaluate_many(
        self, genotypes: Sequence[Sequence[int]]
    ) -> list["EvaluatedDesign"]:
        """Evaluate a batch of genotypes into designs, preserving the input
        order: :meth:`evaluate_many_columnar` materialised in full."""
        return self.evaluate_many_columnar(genotypes).materialise()

    def evaluate_many_columnar(
        self,
        genotypes: Sequence[Sequence[int]],
        *,
        prune_to_front: bool = False,
        include_infeasible: bool = True,
    ) -> ColumnarBatchResult:
        """Evaluate a batch into raw column rows, preserving the input order.

        With the genotype cache enabled the batch is keyed once — design
        ids of the validated index matrix, deduplicated with one sort
        (repeated genotypes are computed once and count as cache hits) —
        then looked up in the id-keyed column store as a whole, and the
        store's misses in the shared cache.  Cached rows are gathered
        column-wise and counted in ``EngineStats.rows_skipped_cached``;
        only the misses reach :meth:`_compute_columns`, in first-occurrence
        request order, and their rows are inserted into the store.  No
        :class:`EvaluatedDesign` is built until the caller's
        :meth:`ColumnarBatchResult.materialise`.

        ``prune_to_front=True`` is a *hint* for chunked sweeps: when the
        batch runs on a worker-pruning backend (``backend="sharded"`` with a
        vectorized problem), every worker prunes its own shard to its local
        per-feasibility-class fronts before shipping columns back, and the
        result holds only the surviving rows — cached rows (passed through
        unpruned) plus the shard fronts — as *distinct* genotypes in
        first-occurrence order (duplicates collapse; pruned rows counted in
        ``EngineStats.rows_pruned_in_workers``).  Any row the pruned result
        omits is dominated by (or duplicates) a row it contains, so archive
        merges over it produce bitwise-identical fronts.  On every other
        backend the hint is a no-op and the full batch contract holds, so
        callers must still prune whatever they receive.
        ``include_infeasible=False`` additionally lets workers drop
        infeasible rows outright — only pass it when infeasible rows can no
        longer matter (the caller's archive already holds a feasible
        design).
        """
        started = time.perf_counter()
        if self._problem is None:
            raise RuntimeError("the engine must be bound to a problem first")
        problem = self._problem
        stats = self.stats
        stats.batches += 1
        stats.genotype_requests += len(genotypes)

        # One bounds-checked index matrix for the whole batch; the compute
        # paths receive their (pre-validated) miss rows as a slice of it.
        matrix = problem.space.index_matrix(genotypes)
        # Without the memo there is nothing to key by: every row is computed
        # as-is, duplicates included.
        keys = inverse = None
        pending = np.arange(len(matrix))
        store_rows = shared_rows = pending[:0]
        parts = []  # cached rows: (distinct rows, objectives, feasible, violations)
        if self.genotype_cache_enabled:
            keys = problem.space.design_keys(matrix)
            first_rows, inverse = _distinct_rows(keys)
            if first_rows is not None:
                stats.genotype_cache_hits += len(keys) - len(first_rows)
                matrix, keys = matrix[first_rows], keys[first_rows]
            # The column store first, then the shared cache for its misses.
            slots = self._store_lookup(keys)
            store_rows = np.flatnonzero(slots >= 0)
            pending = np.flatnonzero(slots < 0)
            # Gathered now: inserting this batch's new rows may evict rows.
            if len(store_rows):
                rows = self._column_store.rows(slots[store_rows])
                parts.append((store_rows, *rows))
            if self._sharing and len(pending):
                hits, rows = self._shared_lookup(keys[pending])
                if len(hits):
                    shared_rows, pending = pending[hits], np.delete(pending, hits)
                    self._insert(keys[shared_rows], *rows)
                    parts.append((shared_rows, *rows))
        pending_matrix = matrix if len(pending) == len(matrix) else matrix[pending]
        columns, kept = self._compute_columns(
            pending_matrix,
            len(matrix) - len(pending),
            prune_to_front=prune_to_front,
            include_infeasible=include_infeasible,
        )
        # Only the rows that came back can be memoised (rows pruned in the
        # workers are recomputed if ever re-asked, a pure performance trade
        # the caches are allowed to make).
        computed = pending if kept is None else pending[kept]
        if len(computed):
            if keys is not None:
                self._insert_computed(
                    keys[computed],
                    columns.objectives,
                    columns.feasible,
                    columns.violation_counts,
                )
            parts.append(
                (computed, columns.objectives, columns.feasible, columns.violation_counts)
            )
        count = len(matrix)
        width = (
            parts[0][1].shape[1] if parts else int(getattr(problem, "n_objectives", 0))
        )
        objectives = np.empty((count, width))
        feasible = np.empty(count, dtype=bool)
        violations = np.empty(count, dtype=np.int64)
        for rows, *values in parts:
            objectives[rows], feasible[rows], violations[rows] = values
        cached = np.zeros(count, dtype=bool)
        cached[store_rows] = True
        cached[shared_rows] = True
        selected = None
        if kept is not None:
            # Pruned result: only the candidate rows — cached rows (passed
            # through unpruned) plus the shard fronts — in distinct-genotype
            # first-occurrence order; duplicates collapse by contract.
            selected = np.sort(np.concatenate([store_rows, shared_rows, computed]))
        elif inverse is not None:
            # Expand the distinct rows back to the (duplicated) request order.
            selected = inverse
        if selected is not None:
            matrix = matrix[selected]
            objectives = objectives[selected]
            feasible = feasible[selected]
            violations = violations[selected]
            cached = cached[selected]
        stats.wall_time_s += time.perf_counter() - started
        return ColumnarBatchResult(
            genotypes=matrix,
            objectives=objectives,
            feasible=feasible,
            violation_counts=violations,
            cached=cached,
            _engine=self,
        )

    def materialise_rows(
        self,
        matrix: np.ndarray,
        objectives: np.ndarray,
        feasible: np.ndarray,
        violation_counts: np.ndarray,
    ) -> list["EvaluatedDesign"]:
        """Build design objects for validated column rows.

        Every row is built through ``problem.materialise_designs`` —
        phenotype lookup only, never a model re-evaluation — and counted in
        ``EngineStats.designs_materialised``.
        """
        if not len(matrix):
            return []
        started = time.perf_counter()
        designs = self._problem.materialise_designs(
            matrix,
            WbsnBatchColumns(
                objectives=objectives,
                feasible=feasible,
                violation_counts=violation_counts,
            ),
        )
        self.stats.designs_materialised += len(designs)
        self.stats.wall_time_s += time.perf_counter() - started
        return designs

    def close(self) -> None:
        """Release backend resources (worker pools, shared memory).

        An engine configured with ``cache_dir`` spills its column store to
        the persistent tier first, so everything the engine computed
        survives the process (spill failures warn — closing must not mask
        results).
        """
        if self.cache_dir is not None and self._problem is not None:
            try:
                self.spill_persistent_cache()
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                warnings.warn(
                    f"failed to spill the persistent cache on close: {exc}",
                    CacheTierWarning,
                    stacklevel=2,
                )
        self.backend.close()

    def __enter__(self) -> "EvaluationEngine":
        """Engines are context managers: leaving the block releases the
        backend's pools and shared-memory segments deterministically."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def clear_caches(self) -> None:
        """Drop the genotype memo (the node cache lives with the problem)."""
        self._column_store.clear()
        self._segments_loaded.clear()

    @contextlib.contextmanager
    def deadline_scope(self, seconds: float | None) -> Any:
        """Propagate an outer deadline into the backend's retry policy.

        Inside the scope, pool-dispatching backends clamp their
        ``RetryPolicy.batch_timeout_s`` so every allowed attempt (timeouts
        plus backoff) fits within ``seconds`` — a hung worker then surfaces
        as an :class:`~repro.engine.backends.EngineTimeoutError` and (with
        ``degrade_on_failure``) degrades to the in-process ladder *before*
        the deadline instead of blocking past it.  In-process backends have
        no pool to interrupt, so the scope is a no-op there — callers
        enforce their deadline at dispatch boundaries instead (the DSE
        service checks before and after every batch and between sweep
        chunks).
        """
        scope = getattr(self.backend, "deadline_scope", None)
        if seconds is None or scope is None:
            yield
            return
        with scope(seconds):
            yield

    # -------------------------------------------------- persistent cache tier

    @property
    def loaded_segments(self) -> tuple[Path, ...]:
        """Segment files this engine has consumed from the persistent tier.

        Cache-directory garbage collection
        (:func:`repro.engine.persist.prune_cache_dir`) must never unlink a
        segment a live engine loaded — its column views may be zero-copy
        maps into the file — so callers pass this as the pruner's ``keep``
        set.
        """
        return tuple(sorted(self._segments_loaded))

    def load_persistent_cache(self, cache_dir: str | Path | None = None) -> int:
        """Bulk-load the bound problem's segment from the persistent tier.

        Loads the segment keyed by the problem's evaluation fingerprint
        from ``cache_dir`` (default: the engine's configured ``cache_dir``),
        keys its gene rows, projects its objectives onto the problem's
        components and inserts the rows into the column store in one batch
        — every later request then finds them there, so a fully covered
        sweep re-runs without a single model evaluation.  Rows the store
        already holds are left untouched (fresher or identical).  Returns
        the number of rows loaded, also counted in
        ``EngineStats.rows_loaded_from_disk``.

        A missing segment is a silent cold start; an unusable one (corrupt,
        foreign fingerprint, incompatible components, gene rows outside the
        bound space) warns with :class:`CacheTierWarning` and starts cold.
        Each segment file is consumed at most once per engine (until
        :meth:`clear_caches`).
        """
        directory = Path(cache_dir) if cache_dir is not None else self.cache_dir
        if directory is None:
            raise ValueError("no cache_dir configured nor passed")
        if self._problem is None:
            raise RuntimeError("the engine must be bound to a problem first")
        if not self._persistence_active():
            return 0
        assert self._fingerprint is not None
        assert self._objective_components is not None
        path = segment_path(directory, self._fingerprint)
        if path in self._segments_loaded:
            return 0
        self._segments_loaded.add(path)
        segment = load_segment_if_valid(path, fingerprint=self._fingerprint)
        if segment is None:
            return 0
        objectives = segment.project(self._objective_components)
        if objectives is None:
            warnings.warn(
                f"ignoring cache segment '{path}': its objective components "
                f"{segment.components} cannot serve "
                f"{self._objective_components}; starting cold",
                CacheTierWarning,
                stacklevel=2,
            )
            return 0
        space = self._problem.space
        try:
            keys = space.design_keys(space.index_matrix(segment.genotypes))
        except ValueError as exc:
            warnings.warn(
                f"ignoring cache segment '{path}': its gene rows do not fit "
                f"the bound design space ({exc}); starting cold",
                CacheTierWarning,
                stacklevel=2,
            )
            return 0
        # Segment rows are lexsorted by genotype — ascending, distinct keys —
        # so the first-occurrence pass is a no-op on every segment the tier
        # writes.
        rows, _ = _distinct_rows(keys)
        if rows is None:
            rows = np.arange(len(keys))
        rows = rows[~self._column_store.contains(keys[rows].tolist())]
        self._insert(
            keys[rows],
            objectives[rows],
            segment.feasible[rows],
            segment.violation_counts[rows],
            from_disk=True,
        )
        self.stats.rows_loaded_from_disk += len(rows)
        return len(rows)

    def spill_persistent_cache(
        self, cache_dir: str | Path | None = None
    ) -> Path | None:
        """Spill the engine's column store to the persistent tier's segment.

        Exports the store and merges its rows into the fingerprint's
        segment under ``cache_dir`` (default: the engine's configured
        ``cache_dir``) — see :func:`repro.engine.persist.spill_columns` for
        the merge rules.  Returns the segment path, or ``None`` when the
        tier is inactive or there is nothing to write.
        """
        directory = Path(cache_dir) if cache_dir is not None else self.cache_dir
        if directory is None:
            raise ValueError("no cache_dir configured nor passed")
        if self._problem is None:
            raise RuntimeError("the engine must be bound to a problem first")
        if not self._persistence_active():
            return None
        assert self._fingerprint is not None
        assert self._objective_components is not None
        keys, objectives, feasible, violations = self._column_store.export()
        return spill_columns(
            directory,
            fingerprint=self._fingerprint,
            components=self._objective_components,
            genotypes=self._problem.space.key_genes(keys),
            objectives=objectives,
            feasible=feasible,
            violation_counts=violations,
        )

    def _persistence_active(self) -> bool:
        """Whether the persistent tier can serve/spill this engine (warns why
        not, once per reason site)."""
        if not self.genotype_cache_enabled:
            warnings.warn(
                "the persistent cache tier needs the genotype cache; "
                "cache_dir is inactive on this engine",
                CacheTierWarning,
                stacklevel=3,
            )
            return False
        if self._fingerprint is None and self._problem is not None:
            # Engines without a shared cache or constructor cache_dir only
            # learn their fingerprint when the tier is first used (e.g.
            # ``run_algorithm(cache_dir=...)`` on a plain engine).
            fingerprint_hook = getattr(self._problem, "evaluation_fingerprint", None)
            components = getattr(self._problem, "objective_components", None)
            if callable(fingerprint_hook) and components:
                self._fingerprint = fingerprint_hook()
                self._objective_components = tuple(components)
        if self._fingerprint is None or self._objective_components is None:
            warnings.warn(
                "the bound problem offers no evaluation fingerprint; "
                "the persistent cache tier is inactive",
                CacheTierWarning,
                stacklevel=3,
            )
            return False
        return True

    # ------------------------------------------------------------ internals

    def _store_lookup(self, keys: np.ndarray) -> np.ndarray:
        """Column-store slots of distinct keys (``-1`` on a miss).

        Every hit counts as a genotype-cache hit, and a hit on a row loaded
        off a cache segment also as a persistent-cache hit.
        """
        store = self._column_store
        slots = store.lookup(keys.tolist())
        hits = slots[slots >= 0]
        self.stats.genotype_cache_hits += len(hits)
        self.stats.persistent_cache_hits += int(store.from_disk(hits).sum())
        return slots

    def _insert(
        self,
        keys: np.ndarray,
        objectives: np.ndarray,
        feasible: np.ndarray,
        violation_counts: np.ndarray,
        *,
        from_disk: bool = False,
    ) -> None:
        """Insert rows the store does not hold, counting evictions."""
        self.stats.column_memo_evictions += self._column_store.insert(
            keys.tolist(), objectives, feasible, violation_counts, from_disk=from_disk
        )

    def _insert_computed(
        self,
        keys: np.ndarray,
        objectives: np.ndarray,
        feasible: np.ndarray,
        violation_counts: np.ndarray,
    ) -> None:
        """Memoise rows this engine computed and publish them to the shared
        cache, when one is active (served and disk-loaded rows are already
        shared where they came from)."""
        self._insert(keys, objectives, feasible, violation_counts)
        if self._sharing:
            self.shared_cache.store(
                self._fingerprint,
                keys,
                self._objective_components,
                objectives,
                feasible,
                violation_counts,
            )

    @property
    def _sharing(self) -> bool:
        """Whether the cross-problem shared cache is active for this engine."""
        return self.shared_cache is not None and self._fingerprint is not None

    def _shared_lookup(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Positions of the distinct ``keys`` the shared cache serves, and
        their rows projected onto this problem's components (counted as
        shared hits)."""
        hits, rows = self.shared_cache.lookup(
            self._fingerprint, keys, self._objective_components
        )
        self.stats.shared_cache_hits += len(hits)
        return hits, rows

    def _compute_design(self, genotype: Sequence[int]) -> "EvaluatedDesign":
        """One in-process model evaluation."""
        design = self._problem.compute_design(tuple(int(g) for g in genotype))
        self.stats.model_evaluations += 1
        return design

    def _compute_columns(
        self,
        matrix: np.ndarray,
        n_cached: int,
        *,
        prune_to_front: bool = False,
        include_infeasible: bool = True,
    ) -> tuple[WbsnBatchColumns, np.ndarray | None]:
        """Compute column rows for a batch's validated miss rows (any path).

        The engine's one dispatch: the in-process kernel and the sharded
        backend return their columns untouched, and the scalar path
        flattens per-design results into columns.  ``n_cached`` is the
        number of the batch's rows the caches served.  Returns the columns
        and ``kept``: ``None`` for one row per miss, or the ascending
        positions of the rows a worker-pruning backend shipped back (see
        ``prune_to_front`` in :meth:`evaluate_many_columnar`).  A batch the
        pool could not serve degrades to :meth:`_degraded_columns`, which
        always returns full columns.
        """
        stats = self.stats
        problem = self._problem
        count = len(matrix)
        vectorizable = self.vectorized_enabled and getattr(
            problem, "supports_vectorized", False
        )
        in_process = getattr(self.backend, "in_process", False)
        sharded = getattr(self.backend, "supports_columns", False)
        if vectorizable and (in_process or sharded):
            # Cached rows never reach a column gather.
            stats.rows_skipped_cached += n_cached
        if not count:
            # All-cached (or empty) batches never reach a kernel or a pool.
            return WbsnBatchColumns.empty(0), None
        kept = None
        try:
            if vectorizable and in_process:
                faults.maybe_fire("kernel")
                columns = problem.compute_columns_batch(matrix)
                stats.vectorized_designs += count
            elif vectorizable and sharded:
                if prune_to_front and getattr(
                    self.backend, "supports_worker_pruning", False
                ):
                    # Worker-side pruning: shards ship back only their local
                    # per-feasibility-class fronts, so the parent never
                    # touches a dominated row.
                    columns, kept, pruned = self.backend.evaluate_front_columns_sharded(
                        problem, matrix, include_infeasible=include_infeasible
                    )
                    stats.rows_pruned_in_workers += int(pruned)
                else:
                    columns = self.backend.evaluate_columns_sharded(problem, matrix)
                stats.vectorized_designs += count
                stats.sharded_designs += count
            else:
                designs = self._compute_scalar_chunks(_tuples(matrix))
                columns = WbsnBatchColumns(*_design_columns(designs))
        except WorkerRecoveryExhausted as exc:
            if not self.degrade_on_failure:
                raise
            columns, kept = self._degraded_columns(matrix, exc), None
        finally:
            self._drain_backend_faults()
        stats.model_evaluations += count
        return columns, kept

    def _compute_scalar_chunks(
        self, genotypes: Sequence[tuple[int, ...]]
    ) -> list["EvaluatedDesign"]:
        """Per-design evaluation through the backend, in chunked work units."""
        chunks = [
            genotypes[start : start + self.chunk_size]
            for start in range(0, len(genotypes), self.chunk_size)
        ]
        designs: list["EvaluatedDesign"] = []
        for chunk_designs, delta in self.backend.run_chunks(self._problem, chunks):
            designs.extend(chunk_designs)
            if delta is not None:
                self.stats.merge(delta)
        return designs

    def _drain_backend_faults(self) -> None:
        """Merge the backend's failure/recovery counters into the stats.

        Called after every dispatch (success or not), so retries that
        eventually succeeded are counted too.  Serial backends have no
        counters to drain.
        """
        drain = getattr(self.backend, "drain_fault_counters", None)
        if drain is None:
            return
        counters = drain()
        self.stats.worker_failures += counters.worker_failures
        self.stats.batches_retried += counters.batches_retried
        self.stats.retry_wait_seconds += counters.retry_wait_seconds

    def _warn_degraded(self, path: str, cause: BaseException) -> None:
        warnings.warn(
            f"worker recovery exhausted — batch degraded to the {path} "
            f"(results identical, throughput reduced): {cause}",
            EngineDegradationWarning,
            stacklevel=4,
        )

    def _degraded_columns(
        self, matrix: np.ndarray, cause: BaseException
    ) -> WbsnBatchColumns:
        """Serve a batch the worker pool could not, on the in-process ladder.

        First rung: the in-process serial kernel (the same compiled column
        kernel the pool would have run, so columns are bitwise identical).
        Second rung, when the kernel itself fails or the problem has none:
        the in-process scalar path — one ``compute_design`` per genotype,
        never through a pool.  Returns *full* (unpruned) columns for every
        row — a caller that asked for worker-side pruning falls back to the
        full-batch contract.  The caller counts ``model_evaluations``;
        kernel-rung work is counted here as ``vectorized_designs``.
        """
        self.stats.degraded_batches += 1
        problem = self._problem
        if self.vectorized_enabled and getattr(problem, "supports_vectorized", False):
            try:
                faults.maybe_fire("kernel")
                columns = problem.compute_columns_batch(matrix)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                pass
            else:
                self._warn_degraded("in-process serial kernel", cause)
                self.stats.vectorized_designs += len(matrix)
                return columns
        self._warn_degraded("in-process scalar path", cause)
        designs = [problem.compute_design(g) for g in _tuples(matrix)]
        return WbsnBatchColumns(*_design_columns(designs))

    def __getstate__(self) -> dict[str, Any]:
        # Worker processes only need the compute path; the memo (and the
        # shared cache) can be large and is owned by the parent, so it
        # stays home.
        state = self.__dict__.copy()
        state["_column_store"] = ColumnStore(self.column_memo_max_entries)
        state["_segments_loaded"] = set()
        state["shared_cache"] = None
        # Workers must never write segments of their own (the parent owns
        # the persistent tier, exactly like the in-memory caches).
        state["cache_dir"] = None
        return state


def _tuples(matrix: np.ndarray) -> list[tuple[int, ...]]:
    """Gene-index rows as genotype tuples (the scalar path's currency)."""
    return list(map(tuple, matrix.tolist()))


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """First-occurrence rows of a batch's distinct keys, in request order,
    and each request row's index among them — ``(None, None)`` when every
    key is distinct (ascending keys, a sweep chunk, are detected without a
    sort)."""
    if len(keys) < 2 or (keys[1:] > keys[:-1]).all():
        return None, None
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) == len(keys):
        return None, None
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


def _design_columns(
    designs: Sequence["EvaluatedDesign"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten designs into ``(objectives, feasible, violation_counts)``.

    Designs produced by the engine's compute paths always carry their
    violation count; for hand-built designs that predate the field the
    count is derived from feasibility (feasible means zero violations; an
    unknown infeasible row is recorded as one).
    """
    violations = [getattr(design, "violation_count", None) for design in designs]
    return (
        np.asarray([design.objectives for design in designs], dtype=float),
        np.asarray([design.feasible for design in designs], dtype=bool),
        np.asarray(
            [
                (0 if design.feasible else 1) if count is None else count
                for design, count in zip(designs, violations)
            ],
            dtype=np.int64,
        ),
    )
