"""Shared, batched evaluation engine of the design-space exploration.

The engine sits between the search algorithms and the analytical model and
owns every cross-cutting evaluation concern:

* **genotype memo cache** — identical genotypes requested twice (within a
  run or across algorithms sharing one problem) are served without touching
  the model; this replaces the private caches the algorithms used to carry.
  The memo is one :class:`~repro.engine.cache.ColumnStore` of raw column
  rows keyed by packed design id: a :class:`~repro.dse.space.DesignIds`
  batch (a sweep chunk, a service request) is its own keys, gene rows are
  keyed once from their validated index matrix
  (:meth:`~repro.dse.space.DesignSpace.design_keys`), and genes are decoded
  only for the rows a caller reads and the scalar loop (counted in
  ``EngineStats.gene_rows_decoded``).  The store looks up, inserts,
  bulk-loads and exports whole batches at a time (through a direct-address
  table on spaces of at most ``cache.TABLE_LIMIT`` designs, chosen at bind
  and reported as ``EngineStats.memo_index``), and
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
* **batching into columns** — :meth:`EvaluationEngine.evaluate_many_columnar`
  deduplicates a batch, serves its cached rows and dispatches only the
  misses, returning a :class:`ColumnarBatchResult` of raw columns
  (design ids, objective matrix, feasibility mask, violation column):
  search algorithms prune directly on the columns and materialise
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
misses to one of two compute paths, both in the calling process:

* the **scalar loop**, for problems without a compiled kernel: one
  ``problem.compute_design`` per miss, flattened into columns;
* the **column kernel**, when the problem opts in by exposing
  ``compute_columns_batch`` / ``supports_vectorized``: the whole miss set
  is evaluated column-wise by the problem's compiled NumPy kernel
  (:mod:`repro.core.vectorized`) in one call: the misses' design ids for a
  problem with a compiled ``vectorized_kernel`` (gene-row batches too, as
  their rows are keyed by their ids), so no gene row is built for a miss;
  gene rows for any other.  Cached rows never reach the column gather
  (counted in ``EngineStats.rows_skipped_cached``).

Both paths are floating-point-identical by construction (the parity suite
enforces it), so the choice between them is a pure performance decision.

The engine computes raw results through ``problem.compute_design`` /
``problem.compute_columns_batch`` and builds designs through
``problem.materialise_designs``, which must be *pure* (no history, no
counters) — run accounting stays in the problem layer, which is what keeps
cached and uncached runs bitwise identical.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.vectorized import WbsnBatchColumns, as_row_indices
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
    from repro.dse.space import DesignIds

__all__ = ["ColumnarBatchResult", "EvaluationEngine"]


@dataclass(frozen=True, eq=False)
class ColumnarBatchResult:
    """Raw column results of one batched evaluation — no design objects.

    One row per requested design, in request order (duplicates included,
    served from the same computed row).  Search algorithms prune directly on
    :attr:`objectives` / :attr:`feasible` and call :meth:`materialise` only
    for the survivors they return — the columnar-to-the-front discipline
    that keeps the parent-side cost of a sweep proportional to the front,
    not to the space.  Gene rows are decoded from the ids only where read.

    Attributes:
        ids: design ids, as :meth:`~repro.dse.space.DesignSpace.design_keys`
            returns them (exact Python ints on spaces beyond ``int64`` ids).
        objectives: penalised objective matrix, shape ``(batch, n_obj)``.
        feasible: per-row feasibility flags.
        violation_counts: violated model constraints per row (the scalar
            evaluation's ``len(violations)``).
        cached: per-row flags — ``True`` where the column store, the shared
            cache or the persistent tier served the row, with no model call
            in the producing batch (a repeat of a row computed in the same
            batch is ``False``).
    """

    ids: np.ndarray
    objectives: np.ndarray
    feasible: np.ndarray
    violation_counts: np.ndarray
    cached: np.ndarray
    _engine: "EvaluationEngine" = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def genotypes(self) -> np.ndarray:
        """``(batch, genes)`` gene-index rows, decoded on first access."""
        return self._engine._genes(self.ids)

    def take(self, rows: Any) -> "ColumnarBatchResult":
        """Row subset of the result, by integer indices or a boolean mask
        (fancy-indexed, preserving order)."""
        rows = as_row_indices(rows)
        return ColumnarBatchResult(
            ids=self.ids[rows],
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
            ids=np.concatenate([r.ids for r in results]),
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

        Every selected row (and only its genes are decoded) is built through
        ``problem.materialise_designs`` (phenotype lookup, no model
        re-evaluation) and counted in ``EngineStats.designs_materialised``.
        """
        if indices is None:
            rows = np.arange(len(self))
        else:
            rows = as_row_indices(indices)
        return self._engine.materialise_rows(
            self._engine._genes(self.ids[rows]),
            self.objectives[rows],
            self.feasible[rows],
            self.violation_counts[rows],
        )


class EvaluationEngine:
    """Batched, cached evaluation of genotypes.

    Args:
        genotype_cache: memoise every computed row by genotype.
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
        stats: EngineStats | None = None,
        shared_cache: SharedGenotypeCache | None = None,
        column_memo_max_entries: int | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        if column_memo_max_entries is not None and column_memo_max_entries <= 0:
            raise ValueError("column_memo_max_entries must be positive (or None)")
        self.genotype_cache_enabled = bool(genotype_cache)
        self.column_memo_max_entries = column_memo_max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
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
        if self._problem is None and self.genotype_cache_enabled:
            # Ids of a space of at most TABLE_LIMIT designs index the memo
            # through a direct-address table; larger spaces keep a dict.
            self._column_store = ColumnStore(
                self.column_memo_max_entries, problem.space.size
            )
        self.stats.memo_index = self._column_store.index_kind
        self._problem = problem
        kernel = getattr(problem, "vectorized_kernel", None)
        if kernel is not None:
            # Surface which array-backend namespace computes the columns so
            # throughput reports can attribute runs to a backend.
            self.stats.array_backend = getattr(kernel, "backend_name", "")
        if self.genotype_cache_enabled:
            # The shared cache and the persistent tier key rows by the
            # problem's fingerprint; resolving it once here (one pickle and
            # one hash) serves both, and a tier first used after bind.
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
        ``problem.compute_design``: a one-row kernel call costs more than
        the model itself.
        """
        started = time.perf_counter()
        self.stats.genotype_requests += 1
        if not self.genotype_cache_enabled:
            design = self._compute_design(genotype)
        else:
            keys, matrix = self._problem.space.batch_keys([genotype])
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
        self, batch: Sequence[Sequence[int]] | DesignIds
    ) -> ColumnarBatchResult:
        """Evaluate a batch into raw column rows, preserving the input order.

        The batch (gene rows, or :class:`~repro.dse.space.DesignIds`, which
        are their own keys) is keyed once; with the genotype cache enabled
        the keys are deduplicated with one sort (repeated designs are
        computed once and count as cache hits), then looked up in the
        id-keyed column store as a whole, and the store's misses in the
        shared cache.  Cached rows are gathered column-wise and counted in
        ``EngineStats.rows_skipped_cached``; only the misses reach
        :meth:`_compute_columns`, in first-occurrence request order, as
        their ids (gene rows for a problem without a compiled kernel), and
        their rows are inserted into the store.  No
        :class:`EvaluatedDesign` is built until the caller's
        :meth:`ColumnarBatchResult.materialise`.
        """
        started = time.perf_counter()
        if self._problem is None:
            raise RuntimeError("the engine must be bound to a problem first")
        problem = self._problem
        space = problem.space
        # Gene rows come with their validated index matrix (the compute
        # paths receive their miss rows as a slice of it); ids come alone.
        keys, matrix = space.batch_keys(batch)
        stats = self.stats
        stats.batches += 1
        stats.genotype_requests += len(keys)
        # Without the memo every row is computed as-is, duplicates included.
        inverse = None
        pending = np.arange(len(keys))
        store_rows = shared_rows = pending[:0]
        parts = []  # cached rows: (distinct rows, objectives, feasible, violations)
        if self.genotype_cache_enabled:
            first_rows, inverse = _distinct_rows(keys)
            if first_rows is not None:
                stats.genotype_cache_hits += len(keys) - len(first_rows)
                keys = keys[first_rows]
                matrix = None if matrix is None else matrix[first_rows]
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
        missed = slice(None) if len(pending) == len(keys) else pending
        if getattr(problem, "vectorized_kernel", None) is not None:
            misses = keys[missed]  # a compiled kernel takes the misses' ids
        elif matrix is not None:
            misses = matrix[missed]
        else:
            misses = self._genes(keys[missed])
        columns = self._compute_columns(misses, len(keys) - len(pending))
        if len(pending):
            if self.genotype_cache_enabled:
                self._insert_computed(
                    keys[pending],
                    columns.objectives,
                    columns.feasible,
                    columns.violation_counts,
                )
            parts.append(
                (pending, columns.objectives, columns.feasible, columns.violation_counts)
            )
        count = len(keys)
        if len(parts) == 1 and len(parts[0][0]) == count:
            # One source served every row, in order: its columns are the
            # batch's (a warm sweep chunk, or a batch of misses alone).
            _, objectives, feasible, violations = parts[0]
        else:
            width = (
                parts[0][1].shape[1]
                if parts
                else int(getattr(problem, "n_objectives", 0))
            )
            objectives = np.empty((count, width))
            feasible = np.empty(count, dtype=bool)
            violations = np.empty(count, dtype=np.int64)
            for rows, *values in parts:
                objectives[rows], feasible[rows], violations[rows] = values
        cached = np.zeros(count, dtype=bool)
        cached[store_rows] = True
        cached[shared_rows] = True
        if inverse is not None:
            # Expand the distinct rows back to the (duplicated) request order.
            keys = keys[inverse]
            objectives = objectives[inverse]
            feasible = feasible[inverse]
            violations = violations[inverse]
            cached = cached[inverse]
        stats.wall_time_s += time.perf_counter() - started
        return ColumnarBatchResult(
            ids=keys,
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
        """Spill the column store to the persistent tier, if one is set.

        An engine configured with ``cache_dir`` writes its rows to the
        tier's segment, so everything the engine computed survives the
        process (spill failures warn — closing must not mask results).
        Without a ``cache_dir`` there is nothing to release.
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

    def __enter__(self) -> "EvaluationEngine":
        """Engines are context managers: leaving the block spills the
        persistent tier deterministically, even when the block raises."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def clear_caches(self) -> None:
        """Drop the genotype memo."""
        self._column_store.clear()
        self._segments_loaded.clear()

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
        rows = rows[~self._column_store.contains(keys[rows])]
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
        if self._fingerprint is None:
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
        slots = store.lookup(keys)
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
            keys, objectives, feasible, violation_counts, from_disk=from_disk
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
        self, misses: np.ndarray, n_cached: int
    ) -> WbsnBatchColumns:
        """Compute column rows for a batch's misses: their design keys for a
        problem with a compiled kernel, else their validated gene rows.

        The engine's one dispatch: the problem's column kernel when it has
        one, else the scalar loop.  ``n_cached`` is the number of the
        batch's rows the caches served.
        """
        stats = self.stats
        count = len(misses)
        kernel = getattr(self._problem, "supports_vectorized", False)
        if kernel:
            # Cached rows never reach a column gather.
            stats.rows_skipped_cached += n_cached
        if not count:
            # All-cached (or empty) batches never reach a kernel.
            return WbsnBatchColumns.empty(0)
        if kernel:
            columns = self._kernel_columns(misses)
        else:
            columns = self._scalar_columns(misses)
        stats.model_evaluations += count
        return columns

    def _genes(self, keys: np.ndarray) -> np.ndarray:
        """Gene rows decoded from design keys (a 2-D batch is already gene
        rows), counted in ``EngineStats.gene_rows_decoded``."""
        if keys.ndim == 2:
            return keys
        self.stats.gene_rows_decoded += len(keys)
        return self._problem.space.key_genes(keys)

    def _scalar_columns(self, misses: np.ndarray) -> WbsnBatchColumns:
        """The scalar loop: one in-process ``compute_design`` per row."""
        genotypes = _tuples(self._genes(misses))
        designs = [self._problem.compute_design(g) for g in genotypes]
        return WbsnBatchColumns(*_design_columns(designs))

    def _kernel_columns(self, misses: np.ndarray) -> WbsnBatchColumns:
        """The problem's column kernel."""
        from repro.dse.space import DesignIds  # repro.dse imports this module

        problem = self._problem
        if misses.ndim == 1:
            misses = DesignIds(misses, problem.space.size)
        columns = problem.compute_columns_batch(misses)
        self.stats.vectorized_designs += len(misses)
        return columns

    def __getstate__(self) -> dict[str, Any]:
        # A copy carries the compute path only: the memo (and the shared
        # cache) can be large and belongs to this engine, so it stays home.
        state = self.__dict__.copy()
        state["_column_store"] = ColumnStore(self.column_memo_max_entries)
        state["_segments_loaded"] = set()
        state["shared_cache"] = None
        # A copy must never write segments of its own (this engine owns the
        # persistent tier, exactly like the in-memory caches).
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
