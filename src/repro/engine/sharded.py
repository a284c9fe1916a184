"""Sharded shared-memory execution of the vectorized column kernels.

The columnar fast path (:mod:`repro.core.vectorized`) evaluates a whole
batch of genotypes with NumPy array kernels, but only in the calling
process.  :class:`ShardedVectorizedBackend` — the engine's one worker pool
— spreads that kernel over cores with the same partition-the-column-store
shape large physics DAQ systems use (split one shared store across workers
instead of shipping objects per item):

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

The pool runs column kernels only: a problem *without* a compiled kernel
never reaches it (the engine computes its rows in-process), and
``EngineStats.sharded_designs`` counts only the rows worker kernels
computed, which is what lets the benchmark gate fail on a silent fallback
to the in-process paths.  The pool also owns the engine's one recovery
loop: a retry policy, pool teardown, the batch deadline and the fault
counters (see :mod:`repro.engine.backends` for the failure semantics).

Shared-memory segments and the worker pool are real resources: close the
backend (or use the owning :class:`~repro.engine.EvaluationEngine` as a
context manager) to release them deterministically.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.engine import faults
from repro.engine.backends import (
    EngineTimeoutError,
    FaultCounters,
    RetryPolicy,
    WorkerRecoveryExhausted,
)

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
# Worker side.  The problem travels once through the pool initialiser; the
# kernel's tables are then rebound to the arena views so every worker
# gathers from the same physical store.

_WORKER_KERNEL: Any = None
_WORKER_ARENA: shared_memory.SharedMemory | None = None


def _init_sharded_worker(
    payload: bytes,
    arena_name: str,
    manifest: Mapping[str, _ArenaSlot],
    fault_plan: "faults.FaultPlan | None" = None,
) -> None:
    global _WORKER_KERNEL, _WORKER_ARENA
    if fault_plan is not None:
        faults.install_fault_plan(fault_plan)
    _WORKER_KERNEL = pickle.loads(payload).vectorized_kernel
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
    shm = _attach_segment(matrix_name)
    try:
        matrix = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        # Fancy indexing copies, so the shared buffer can be dropped as soon
        # as the shard's rows are gathered.
        gathered = matrix[rows]
    finally:
        shm.close()
    columns = _WORKER_KERNEL.evaluate_columns(gathered)
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


class ShardedVectorizedBackend:
    """The engine's worker pool: column kernels sharded over shared memory.

    Args:
        max_workers: pool size (defaults to the number of CPUs this process
            may run on).
        min_rows_per_shard: lower bound on shard size.  Small batches are
            given to fewer workers (down to one) so dispatch overhead never
            exceeds the kernel work it parallelises.
        retry_policy: recovery budget for batch dispatches (see
            :class:`~repro.engine.backends.RetryPolicy`); the default
            retries twice with exponential backoff and no batch deadline.
            A failed shard tears the pool (and its shared-table arena) down
            and is retried on a fresh pool, the batch's shared matrix
            segment surviving across attempts.
    """

    #: what the pool computes: kernel columns, never design objects
    supports_columns = True

    def __init__(
        self,
        max_workers: int | None = None,
        min_rows_per_shard: int = 256,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if min_rows_per_shard <= 0:
            raise ValueError("min_rows_per_shard must be positive")
        self.max_workers = max_workers or _usable_cpus()
        self.min_rows_per_shard = min_rows_per_shard
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.fault_counters = FaultCounters()
        self._executor: ProcessPoolExecutor | None = None
        self._arena: SharedArrayArena | None = None
        self._pinned: "weakref.ref[Any] | None" = None
        self._submissions = 0
        self._batches = 0

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

    def drain_fault_counters(self) -> FaultCounters:
        """Hand the accumulated failure counters over and reset them."""
        drained = self.fault_counters
        self.fault_counters = FaultCounters()
        return drained

    @contextlib.contextmanager
    def deadline_scope(self, seconds: float | None) -> Iterator[None]:
        """Clamp the retry policy so a whole dispatch fits one outer deadline.

        Deadline propagation: a caller holding a deadline (e.g. the DSE
        service serving a client request) cannot afford a hung worker
        blocking a dispatch past it.  Inside the scope the policy's
        ``batch_timeout_s`` is clamped so the deadline budget — minus the
        exponential backoff between attempts — is split across every pool
        attempt the policy allows **plus one slot reserved for the engine's
        in-process degradation rung**: if every attempt times out, the
        ladder still has a full attempt's worth of budget to serve the
        batch *before* the outer deadline, so a hung pool degrades on time
        instead of timing out late.  ``None`` leaves the policy untouched;
        the previous policy is restored on exit.
        """
        if seconds is None:
            yield
            return
        policy = self.retry_policy
        backoff = sum(
            policy.backoff_s(attempt)
            for attempt in range(1, policy.max_attempts)
        )
        per_attempt = max(
            (seconds - backoff) / (policy.max_attempts + 1), 1e-3
        )
        if policy.batch_timeout_s is not None:
            per_attempt = min(per_attempt, policy.batch_timeout_s)
        self.retry_policy = replace(policy, batch_timeout_s=per_attempt)
        try:
            yield
        finally:
            self.retry_policy = policy

    def close(self) -> None:
        """Shut the pool down and unlink the shared table arena; a later
        dispatch spawns a fresh pool.

        Idempotent: closing an already-closed (or never-opened) backend is a
        no-op, so error-path ``finally`` blocks can close unconditionally.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._pinned = None
        self._close_arena()

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

    def _next_submission(self) -> int:
        """Monotonic id handed to every submitted shard (never reused, so
        retried shards are distinguishable from their first dispatch)."""
        submission = self._submissions
        self._submissions += 1
        return submission

    def _dispatch_with_recovery(
        self,
        problem: Any,
        fn: Callable[..., Any],
        tasks: Sequence[tuple[Any, ...]],
        batch_label: str,
    ) -> list[Any]:
        """Run every task on the pool, retrying failures on fresh pools.

        Tasks are independent shards; results are returned in task order.
        Each submitted shard carries a fresh submission id appended to its
        payload.  On any failure — a worker crash breaking the pool, an
        exception escaping a task, or the batch deadline expiring — the pool
        is terminated (workers killed, arena released) and only the
        *unfinished* shards are re-dispatched on a fresh pool, after
        exponential backoff.  Exhausting the policy raises
        :class:`~repro.engine.backends.WorkerRecoveryExhausted` with the
        final failure as its cause.
        """
        policy = self.retry_policy
        batch_id = self._batches
        self._batches += 1
        label = f"{batch_label} {batch_id} ({len(tasks)} units)"
        results: dict[int, Any] = {}
        attempt = 1
        while True:
            pending = [index for index in range(len(tasks)) if index not in results]
            executor = self._ensure_executor(problem)
            deadline = (
                time.monotonic() + policy.batch_timeout_s
                if policy.batch_timeout_s is not None
                else None
            )
            futures = {
                index: executor.submit(
                    fn, *tasks[index], self._next_submission()
                )
                for index in pending
            }
            failure: BaseException | None = None
            for index in pending:
                try:
                    if deadline is None:
                        results[index] = futures[index].result()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise FutureTimeoutError()
                        results[index] = futures[index].result(timeout=remaining)
                except (KeyboardInterrupt, SystemExit):
                    self._terminate_pool()
                    raise
                except FutureTimeoutError:
                    failure = EngineTimeoutError(
                        label, index, policy.batch_timeout_s or 0.0
                    )
                    break
                except BaseException as exc:
                    failure = exc
                    break
            if failure is None:
                return [results[index] for index in range(len(tasks))]
            # A failed shard poisons the attempt: terminate the pool (hung or
            # crashed workers included) and re-dispatch what is still
            # missing.  Shards that completed keep their results — evaluation
            # is pure, so partial retry is safe — including shards *after*
            # the failed one in collection order: results are collected in
            # ``pending`` order, so without this harvest a shard that
            # finished while an earlier shard was failing would be thrown
            # away and recomputed on the retry pool.
            for index, future in futures.items():
                if index in results or not future.done() or future.cancelled():
                    continue
                if future.exception() is None:
                    results[index] = future.result()
            self.fault_counters.worker_failures += 1
            self._terminate_pool()
            if attempt >= policy.max_attempts:
                raise WorkerRecoveryExhausted(
                    f"{label} failed on all {policy.max_attempts} attempt(s); "
                    f"last failure: {failure!r}"
                ) from failure
            wait = policy.backoff_s(attempt)
            if wait > 0:
                self.fault_counters.retry_wait_seconds += wait
                time.sleep(wait)
            self.fault_counters.batches_retried += 1
            attempt += 1

    def _terminate_pool(self) -> None:
        """Tear the pool down even when workers are hung or already dead.

        Unlike :meth:`close` (a graceful shutdown), this terminates worker
        processes first — a worker stuck in a syscall would never drain its
        call queue, so a plain ``shutdown(wait=True)`` could block forever.
        Safe to call with no pool and after a ``BrokenProcessPool``.  The
        arena goes too: :meth:`_ensure_executor` builds a fresh one
        alongside the fresh pool, so keeping the old segment would leak one
        arena per recovery attempt.
        """
        executor = self._executor
        self._executor = None
        self._close_arena()
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            if process.is_alive():
                process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck in a syscall
                process.kill()
                process.join(timeout=5.0)

    def _close_arena(self) -> None:
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def _check_pinned(self, problem: Any) -> None:
        """Refuse to serve a problem the running pool was not built for.

        The workers hold a pickled copy of the *first* problem they were
        initialised with; silently evaluating a different problem against it
        would return that problem's numbers under this one's name.  A
        backend instance can therefore serve one problem per pool lifetime —
        ``close()`` it to repurpose the instance.
        """
        if self._executor is None:
            self._pinned = weakref.ref(problem)
            return
        pinned = self._pinned() if self._pinned is not None else None
        if pinned is not problem:
            raise RuntimeError(
                "this backend's worker pool is initialised for a different "
                "problem; close() the backend before reusing it"
            )

    def _ensure_executor(self, problem: Any) -> ProcessPoolExecutor:
        """The live pool for ``problem``, spawned (with its table arena)
        on first use and after every teardown."""
        self._check_pinned(problem)
        if self._executor is None:
            kernel = getattr(problem, "vectorized_kernel", None)
            if kernel is None:
                raise RuntimeError(
                    "the sharded backend needs a problem with a compiled "
                    "column kernel"
                )
            self._arena = SharedArrayArena(kernel.shareable_tables())
            # An installed fault plan is shipped to the workers so that
            # worker-side sites fire deterministically under the "spawn"
            # start method too (under "fork" the plan is inherited anyway;
            # re-installing it is harmless).
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_sharded_worker,
                initargs=(
                    pickle.dumps(problem),
                    self._arena.name,
                    self._arena.manifest,
                    faults.installed_fault_plan(),
                ),
            )
        return self._executor

    def __getstate__(self) -> dict[str, Any]:
        # Neither the pool nor the arena handle can cross a pickle boundary
        # (workers re-attach the arena by name through the initialiser), and
        # weakrefs cannot be pickled; workers that unpickle the problem never
        # dispatch work themselves.
        state = self.__dict__.copy()
        state["_executor"] = None
        state["_arena"] = None
        state["_pinned"] = None
        return state


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one (a process pinned by ``taskset`` or a cpuset container sees
    only its own CPUs), the machine's CPU count elsewhere."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return os.cpu_count() or 1
