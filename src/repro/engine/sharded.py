"""Sharded shared-memory execution of the vectorized column kernels.

The columnar fast path (:mod:`repro.core.vectorized`) evaluates a whole
batch of genotypes with NumPy array kernels, but only in the calling
process; the scalar :class:`~repro.engine.backends.ProcessBackend` spreads
work over cores, but one design at a time.  This module combines the two —
the same partition-the-column-store shape large physics DAQ systems use
(split one shared store across workers instead of shipping objects per
item):

1. the parent places a batch's miss rows — the rows the engine's caches
   could not serve — in a ``multiprocessing.shared_memory`` segment (one
   per batch) and the kernel's compiled column tables in a second,
   long-lived segment (the :class:`SharedArrayArena`, built once per pool);
2. the miss rows are split into per-worker shards;
3. each worker gathers *only its shard's rows* from the shared matrix,
   runs the compiled :class:`~repro.core.vectorized.WbsnVectorizedKernel`
   on the gathered block, and ships back raw objective/feasibility/violation
   columns — never per-design Python objects;
4. the parent concatenates the shard columns in submission order, so
   results are bitwise identical to the serial kernel (row sharding is safe
   by construction: every kernel stage is elementwise across the batch
   axis; reductions only run across nodes).  The columns travel onwards
   *as columns* through the engine's column store, all the way into Pareto
   pruning, and only the designs a caller asks for are ever materialised
   (in the parent, from the problem's phenotype tables).

The backend subclasses :class:`~repro.engine.backends.ProcessBackend`, so a
problem *without* a compiled kernel still gets the chunked scalar path on
the same pool — but the engine counts the two separately
(``EngineStats.sharded_designs`` covers only kernel work), which is what
lets the benchmark gate fail on a silent fallback to the scalar path.

Shared-memory segments and the worker pool are real resources: close the
backend (or use the owning :class:`~repro.engine.EvaluationEngine` as a
context manager) to release them deterministically.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Mapping

import numpy as np

from repro.engine import backends as _backends
from repro.engine import faults
from repro.engine.backends import ProcessBackend, RetryPolicy

__all__ = ["SharedArrayArena", "ShardedVectorizedBackend"]

#: Alignment of every array inside an arena segment, in bytes.  Cache-line
#: alignment keeps a worker's gathers from straddling lines shared with a
#: neighbouring table.
_ARENA_ALIGNMENT = 64


@dataclass(frozen=True)
class _ArenaSlot:
    """Location of one array inside an arena segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


class SharedArrayArena:
    """Named numeric arrays packed into one shared-memory segment.

    The parent builds the arena from a ``{name: array}`` mapping (copying
    each array once, cache-line aligned); workers re-attach zero-copy views
    with :func:`attach_arena_views` using the pickled ``manifest``.  The
    creator owns the segment: :meth:`close` both closes and unlinks it.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        self._closed = False
        slots: dict[str, _ArenaSlot] = {}
        offset = 0
        materialised = {
            name: np.ascontiguousarray(array) for name, array in arrays.items()
        }
        for name, array in materialised.items():
            offset = _align(offset)
            slots[name] = _ArenaSlot(offset, array.shape, array.dtype.str)
            offset += array.nbytes
        self.manifest = slots
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for name, array in materialised.items():
            slot = slots[name]
            view = np.ndarray(
                slot.shape, dtype=slot.dtype, buffer=self._shm.buf, offset=slot.offset
            )
            view[...] = array

    @property
    def name(self) -> str:
        """The shared-memory segment name workers attach by."""
        return self._shm.name

    def close(self) -> None:
        """Release and unlink the backing segment (creator side).

        Idempotent: error-path ``finally`` blocks and pool-teardown hooks may
        both reach the same arena; only the first call touches the segment.
        """
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def _align(offset: int) -> int:
    return (offset + _ARENA_ALIGNMENT - 1) // _ARENA_ALIGNMENT * _ARENA_ALIGNMENT


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifetime.

    Ownership stays with the creating process; an attaching worker must not
    let the resource tracker unlink the segment on its behalf.  Python 3.13
    makes that explicit with ``track=False``.  On older versions a POSIX
    attach *does* register with the resource tracker, but fork-started pool
    workers (the Linux default this package targets) inherit the creator's
    tracker, where registrations are name-keyed — the creator's single
    unregister-on-unlink clears the entry exactly once, so a plain attach
    is safe.  (Spawn-started workers on old Pythons would get a private
    tracker that unlinks on worker exit; 3.13's ``track=False`` is the
    proper fix there.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        return shared_memory.SharedMemory(name=name)


def attach_arena_views(
    name: str, manifest: Mapping[str, _ArenaSlot]
) -> tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]:
    """Attach an arena segment and rebuild its named array views.

    Returns the segment handle (keep it referenced for as long as the views
    are used) alongside the zero-copy views.
    """
    shm = _attach_segment(name)
    views = {
        slot_name: np.ndarray(
            slot.shape, dtype=slot.dtype, buffer=shm.buf, offset=slot.offset
        )
        for slot_name, slot in manifest.items()
    }
    return shm, views


# --------------------------------------------------------------------------
# Worker side.  The problem travels once through the pool initialiser (like
# the scalar process backend); the kernel's tables are then rebound to the
# arena views so every worker gathers from the same physical store.

_WORKER_KERNEL: Any = None
_WORKER_ARENA: shared_memory.SharedMemory | None = None


def _init_sharded_worker(
    payload: bytes,
    arena_name: str | None,
    manifest: Mapping[str, _ArenaSlot] | None,
    fault_plan: "faults.FaultPlan | None" = None,
) -> None:
    global _WORKER_KERNEL, _WORKER_ARENA
    if fault_plan is not None:
        faults.install_fault_plan(fault_plan)
    problem = pickle.loads(payload)
    # The scalar chunk path (kernel-less problems) reuses the plain process
    # machinery, so its worker global must point at the same problem.
    _backends._WORKER_PROBLEM = problem
    _WORKER_KERNEL = getattr(problem, "vectorized_kernel", None)
    if arena_name is not None and manifest is not None and _WORKER_KERNEL is not None:
        _WORKER_ARENA, views = attach_arena_views(arena_name, manifest)
        _WORKER_KERNEL.adopt_shared_tables(views)


def _evaluate_shard(
    matrix_name: str,
    shape: tuple[int, ...],
    dtype: str,
    rows: np.ndarray,
    submission: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate one shard of miss rows against the shared index matrix."""
    # The fault hook fires on the parent's submission id: retried shards are
    # resubmitted under fresh ids, so a fault pinned to one submission fires
    # exactly once even across recovery attempts.
    faults.maybe_fire("shard", submission)
    kernel = _WORKER_KERNEL
    if kernel is None:  # pragma: no cover - guarded by the engine
        raise RuntimeError("worker has no compiled vectorized kernel")
    shm = _attach_segment(matrix_name)
    try:
        matrix = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        # Fancy indexing copies, so the shared buffer can be dropped as soon
        # as the shard's rows are gathered.
        gathered = matrix[rows]
    finally:
        shm.close()
    columns = kernel.evaluate_columns(gathered)
    return columns.objectives, columns.feasible, columns.violation_counts


def _local_front_rows(
    objectives: np.ndarray,
    feasible: np.ndarray,
    include_infeasible: bool,
) -> np.ndarray:
    """Shard-local positions (ascending) of the per-feasibility-class fronts.

    Feasible and infeasible rows are pruned as *separate* classes: the
    sweeps' archive semantics switch on whether any feasible design exists,
    so an infeasible row must never eliminate a feasible one (nor the other
    way around) inside a worker.  With ``include_infeasible`` false —  the
    caller already holds a feasible design, so infeasible rows can never
    reach its archive — the infeasible class is dropped entirely instead of
    pruned.
    """
    from repro.dse.pareto import pareto_front_indices

    classes = [np.flatnonzero(feasible)]
    if include_infeasible:
        classes.append(np.flatnonzero(~feasible))
    kept: list[np.ndarray] = []
    for class_rows in classes:
        if class_rows.size:
            front = pareto_front_indices(objectives[class_rows])
            kept.append(class_rows[np.asarray(front, dtype=np.int64)])
    if not kept:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(kept))


def _evaluate_shard_front(
    matrix_name: str,
    shape: tuple[int, ...],
    dtype: str,
    rows: np.ndarray,
    include_infeasible: bool,
    submission: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Evaluate one shard and prune it to its local fronts, worker-side.

    The dominated rows never cross the process boundary: the worker ships
    back only the surviving columns, their positions within ``rows``
    (ascending, so shard order is original row order) and the number of
    rows it pruned away.
    """
    objectives, feasible, violations = _evaluate_shard(
        matrix_name, shape, dtype, rows, submission
    )
    kept = _local_front_rows(objectives, feasible, include_infeasible)
    pruned = int(len(rows) - kept.size)
    return objectives[kept], feasible[kept], violations[kept], kept, pruned


class ShardedVectorizedBackend(ProcessBackend):
    """Vectorized evaluation sharded over a process pool via shared memory.

    Args:
        max_workers: pool size (defaults to the CPU count).
        min_rows_per_shard: lower bound on shard size.  Small batches are
            given to fewer workers (down to one) so dispatch overhead never
            exceeds the kernel work it parallelises.
        retry_policy: recovery budget for batch dispatches, inherited from
            :class:`~repro.engine.backends.ProcessBackend`; a failed shard
            tears the pool (and its shared-table arena) down and is retried
            on a fresh pool, the batch's shared matrix segment surviving
            across attempts.
    """

    name = "sharded"
    in_process = False
    #: engines route vectorized miss rows through
    #: :meth:`evaluate_columns_sharded` when the backend advertises this flag
    supports_columns = True
    #: engines route ``prune_to_front`` columnar batches through
    #: :meth:`evaluate_front_columns_sharded` when the backend advertises
    #: this flag — workers prune their shards to local fronts before
    #: shipping columns back
    supports_worker_pruning = True

    def __init__(
        self,
        max_workers: int | None = None,
        min_rows_per_shard: int = 256,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(max_workers=max_workers, retry_policy=retry_policy)
        if min_rows_per_shard <= 0:
            raise ValueError("min_rows_per_shard must be positive")
        self.min_rows_per_shard = min_rows_per_shard
        self._arena: SharedArrayArena | None = None

    # ----------------------------------------------------------------- API

    def evaluate_columns_sharded(self, problem: Any, matrix: np.ndarray) -> Any:
        """Columns-only sharded evaluation of a validated index matrix.

        The engine hands over a batch's miss rows; they are published once
        in shared memory, split into per-worker shards, and the shard
        columns are concatenated in submission order.  Returns the
        :class:`~repro.core.vectorized.WbsnBatchColumns` of every row, in
        row order.
        """
        _, columns, _ = self._evaluate_shards(
            problem, matrix, _evaluate_shard, (), "sharded column batch"
        )
        return columns

    def evaluate_front_columns_sharded(
        self,
        problem: Any,
        matrix: np.ndarray,
        include_infeasible: bool = True,
    ) -> tuple[Any, np.ndarray, int]:
        """Sharded columns-only evaluation, pruned to local fronts in-worker.

        The worker-side-pruning protocol behind the engine's
        ``prune_to_front`` columnar path: every shard is evaluated exactly
        like :meth:`evaluate_columns_sharded`, but each worker prunes its
        own rows to the shard's per-feasibility-class local fronts before
        shipping anything back — dominated rows never cross the process
        boundary, so the parent-side merge input is bounded by the sum of
        the shard front sizes, not by the batch size.  Returns the
        concatenated surviving :class:`~repro.core.vectorized.WbsnBatchColumns`,
        the survivors' row positions in ``matrix`` (ascending — per-shard
        fronts are ascending-position subsets and shards are concatenated in
        submission order) and the total number of rows pruned in workers.

        Feasible and infeasible rows are pruned as separate classes (an
        infeasible row must never eliminate a feasible one inside a worker);
        ``include_infeasible=False`` lets workers drop infeasible rows
        outright — only valid when the caller's archive can no longer accept
        them (it already holds a feasible design).

        Pruning a shard to its front then merging the fronts yields the same
        joint front as pruning everything in the parent —
        ``front(A ∪ B) == front(front(A) ∪ front(B))``, with every removal
        witnessed by an earlier-or-dominating survivor — so downstream
        archives are bitwise identical, membership and ordering.
        """
        shards, columns, results = self._evaluate_shards(
            problem,
            matrix,
            _evaluate_shard_front,
            (include_infeasible,),
            "sharded front batch",
        )
        offsets = np.cumsum([0] + [len(shard) for shard in shards[:-1]])
        kept = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [offset + result[3] for offset, result in zip(offsets, results)]
        )
        return columns, kept, sum(result[4] for result in results)

    def close(self) -> None:
        """Shut the pool down and unlink the shared table arena."""
        super().close()
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    # ------------------------------------------------------------ internals

    def _evaluate_shards(
        self,
        problem: Any,
        matrix: np.ndarray,
        task: Callable[..., tuple],
        task_args: tuple,
        batch_label: str,
    ) -> tuple[list[np.ndarray], Any, list[tuple]]:
        """Publish ``matrix`` in shared memory and run
        ``task(name, shape, dtype, shard, *task_args)`` over its shards.

        Returns the shards, their columns concatenated in submission order
        (= row order) and the raw per-shard results.  An empty matrix never
        touches the pool (a zero-byte segment cannot even be created).
        """
        from repro.core.vectorized import WbsnBatchColumns

        if len(matrix) == 0:
            kernel = getattr(problem, "vectorized_kernel", None)
            return [], WbsnBatchColumns.empty(getattr(kernel, "n_objectives", 0)), []
        shards = self._shards(len(matrix))
        # The batch matrix segment is created once and survives recovery
        # attempts (workers re-attach it by name on every dispatch); the
        # ``finally`` guarantees it is released even when recovery is
        # exhausted mid-batch, so a dying worker cannot leak the segment.
        shm = shared_memory.SharedMemory(create=True, size=matrix.nbytes)
        try:
            view = np.ndarray(matrix.shape, dtype=matrix.dtype, buffer=shm.buf)
            view[...] = matrix
            results = self._dispatch_with_recovery(
                problem,
                task,
                [
                    (shm.name, matrix.shape, matrix.dtype.str, shard, *task_args)
                    for shard in shards
                ],
                batch_label=batch_label,
            )
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        columns = WbsnBatchColumns(
            objectives=np.concatenate([r[0] for r in results], axis=0),
            feasible=np.concatenate([r[1] for r in results], axis=0),
            violation_counts=np.concatenate([r[2] for r in results], axis=0),
        )
        return shards, columns, results

    def _shards(self, rows: int) -> list[np.ndarray]:
        """Row indices ``0..rows-1`` split into non-empty per-worker shards."""
        by_floor = math.ceil(rows / self.min_rows_per_shard)
        count = max(1, min(self.max_workers, by_floor))
        return [shard for shard in np.array_split(np.arange(rows), count) if shard.size]

    def _terminate_pool(self) -> None:
        # ``_ensure_executor`` builds a fresh arena alongside the fresh pool;
        # the old segment must be unlinked here or every recovery attempt
        # would leak one arena-sized shared-memory segment.
        super()._terminate_pool()
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def _ensure_executor(self, problem: Any):
        self._check_pinned(problem)
        if self._executor is None:
            kernel = getattr(problem, "vectorized_kernel", None)
            arena_name = None
            manifest = None
            if kernel is not None and hasattr(kernel, "shareable_tables"):
                self._arena = SharedArrayArena(kernel.shareable_tables())
                arena_name = self._arena.name
                manifest = self._arena.manifest
            payload = pickle.dumps(problem)
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_sharded_worker,
                initargs=(payload, arena_name, manifest, faults.installed_fault_plan()),
            )
        return self._executor

    def __getstate__(self) -> dict[str, Any]:
        # Neither the pool nor the arena handle can cross a pickle boundary
        # (workers re-attach the arena by name through the initialiser).
        state = super().__getstate__()
        state["_arena"] = None
        return state
