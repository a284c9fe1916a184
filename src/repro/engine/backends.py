"""Execution backends of the evaluation engine.

A backend turns chunks of genotypes into evaluated designs:

* :class:`SerialBackend` computes in the calling process.  It shares the
  engine's node cache (every candidate of the run benefits from every other),
  has zero dispatch overhead, and is the right default: one analytical
  evaluation costs well under a millisecond, so parallel dispatch only pays
  off for large batches.
* :class:`ProcessBackend` fans chunks out to a ``ProcessPoolExecutor``.  Each
  worker receives a pickled copy of the problem once (pool initialiser) and
  keeps a *per-worker* node cache that persists across chunks; node-stage
  counters measured inside the workers are shipped back with each chunk and
  merged into the engine's stats.  Pick it only when batches are large
  (thousands of genotypes per call, e.g. exhaustive sweeps) or the evaluator
  is genuinely expensive — for the analytical WBSN model the pickling and IPC
  overhead usually exceeds the model cost.
* :class:`~repro.engine.sharded.ShardedVectorizedBackend` (name
  ``"sharded"``) is the multi-core counterpart of the *vectorized* fast
  path: a batch's miss rows are placed in
  ``multiprocessing.shared_memory``, the backend splits them into
  per-worker shards, and each worker runs the compiled NumPy column kernel
  on its shard — gathering only its own rows from one shared column store
  (the kernel's lookup tables live in a shared-memory arena too).  Workers
  ship back raw objective/feasibility columns, never design objects, and
  the parent reassembles them in submission order, so fronts stay bitwise
  identical to the serial kernel.  Prefer it over ``"serial"`` only for
  large batches (thousands of miss rows per batch) on a multi-core host;
  below that, pool dispatch overhead dominates and the in-process kernel
  wins.

Workers are deliberately chunked: one future per genotype would drown the
pool in IPC, so the engine groups genotypes and each future evaluates a whole
chunk against the worker's warm cache (the sharded backend shards *rows of
one column store* instead of chunking genotype objects).

Backends only ever see a batch's cache misses: the engine serves cached
rows from its column store before dispatching, so a warm batch skips even
the column gather and an all-cached batch never invokes a kernel or touches
a pool at all (the rows spared this way are counted in
``EngineStats.rows_skipped_cached``).

**Failure semantics:** pool-dispatching backends own the first rung of the
fault-tolerance ladder.  Every batch dispatch runs under a
:class:`RetryPolicy` — worker crashes (``BrokenProcessPool``), exceptions
escaping a worker task, and per-batch future timeouts
(:class:`EngineTimeoutError`, so a hung worker cannot wedge a sweep) all
tear the pool down (workers terminated, segments released) and re-dispatch
the batch's unfinished work units on a fresh pool after exponential
backoff.  Failures are counted in :class:`FaultCounters` (drained into
``EngineStats`` by the owning engine); a batch that exhausts its attempts
raises :class:`WorkerRecoveryExhausted`, which the engine answers with the
in-process degradation ladder (serial kernel, then scalar) — results stay
bitwise identical either way.

Backends holding real resources (worker pools, shared-memory segments) must
be released: engines are context managers (``with EvaluationEngine(...)``)
and forward :meth:`EvaluationEngine.close` to :meth:`ExecutionBackend.close`.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Protocol, Sequence

from repro.engine import faults
from repro.engine.stats import EngineStats

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "make_backend",
    "RetryPolicy",
    "FaultCounters",
    "EngineTimeoutError",
    "WorkerRecoveryExhausted",
    "EngineDegradationWarning",
]


class EngineTimeoutError(TimeoutError):
    """A batch future missed its deadline — names the batch and the shard.

    Raised inside a dispatch attempt when a work unit produces no result
    within the policy's ``batch_timeout_s``.  The recovery loop treats it
    like any other worker failure (terminate the pool, retry the unfinished
    units); after the policy is exhausted it surfaces as the ``__cause__``
    of :class:`WorkerRecoveryExhausted`.
    """

    def __init__(self, batch: str, shard: int, timeout_s: float) -> None:
        super().__init__(
            f"{batch}: shard {shard} produced no result within the "
            f"{timeout_s:g}s batch timeout (worker presumed hung)"
        )
        self.batch = batch
        self.shard = shard
        self.timeout_s = timeout_s


class WorkerRecoveryExhausted(RuntimeError):
    """A batch failed on every attempt its :class:`RetryPolicy` allowed.

    ``__cause__`` holds the final attempt's failure (a
    ``BrokenProcessPool``, an :class:`EngineTimeoutError`, or the exception
    that escaped the worker).  Engines answer this by degrading the batch to
    the in-process ladder; with degradation disabled it propagates.
    """


class EngineDegradationWarning(RuntimeWarning):
    """Emitted when a batch degrades to a slower (but identical) path."""


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery budget of a pool-dispatching backend.

    Attributes:
        max_attempts: dispatch attempts per batch (1 = no retries).
        backoff_base_s: sleep before the first retry.
        backoff_multiplier: factor applied to the sleep per further retry
            (exponential backoff: ``base * multiplier**(attempt - 1)``).
        batch_timeout_s: deadline for a whole batch dispatch; any work unit
            still unresolved when it expires raises
            :class:`EngineTimeoutError` and counts as a worker failure.
            ``None`` disables the deadline (a hung worker then blocks until
            killed externally — prefer a timeout for unattended sweeps).
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    batch_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_multiplier < 1:
            raise ValueError("backoff_multiplier must be at least 1")
        if self.batch_timeout_s is not None and self.batch_timeout_s <= 0:
            raise ValueError("batch_timeout_s must be positive (or None)")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retrying after the given (1-based) failed attempt."""
        return self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)


@dataclass
class FaultCounters:
    """Failure/recovery counters a backend accumulates between drains.

    The owning engine drains them (:meth:`ProcessBackend.drain_fault_counters`)
    into its ``EngineStats`` after each batch, so recovery activity shows up
    in ``DseResult`` like every other engine counter.
    """

    worker_failures: int = 0
    batches_retried: int = 0
    retry_wait_seconds: float = 0.0


class ExecutionBackend(Protocol):
    """Anything that can evaluate chunks of genotypes for a problem."""

    name: str
    #: whether the backend computes in the calling process — only such
    #: backends can be bypassed by the engine's vectorized fast path (the
    #: columnar kernel is in-process by construction)
    in_process: bool

    def run_chunks(
        self, problem: Any, chunks: Sequence[Sequence[tuple[int, ...]]]
    ) -> list[tuple[list[Any], EngineStats | None]]:
        """Evaluate every chunk, preserving chunk order.

        Returns one ``(designs, stats_delta)`` pair per chunk; the delta is
        ``None`` when the work was counted directly in the engine's stats.
        """
        ...  # pragma: no cover - protocol

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class SerialBackend:
    """In-process evaluation; shares the engine's caches and stats."""

    name = "serial"
    in_process = True

    def run_chunks(
        self, problem: Any, chunks: Sequence[Sequence[tuple[int, ...]]]
    ) -> list[tuple[list[Any], EngineStats | None]]:
        return [
            ([problem.compute_design(genotype) for genotype in chunk], None)
            for chunk in chunks
        ]

    def close(self) -> None:
        """Nothing to release."""


# --------------------------------------------------------------------------
# Process pool machinery.  The problem travels to the workers exactly once,
# through the pool initialiser; afterwards each chunk only ships genotypes
# out and (designs, node-stage counter deltas) back.

_WORKER_PROBLEM: Any = None


def _init_worker(payload: bytes, fault_plan: "faults.FaultPlan | None" = None) -> None:
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = pickle.loads(payload)
    if fault_plan is not None:
        faults.install_fault_plan(fault_plan)


def _evaluate_chunk(
    chunk: Sequence[tuple[int, ...]],
    submission: int = 0,
) -> tuple[list[Any], EngineStats | None]:
    # The fault hook fires on the parent's submission id: retried chunks are
    # resubmitted under fresh ids, so a fault pinned to one submission fires
    # exactly once even across recovery attempts.
    faults.maybe_fire("chunk", submission)
    problem = _WORKER_PROBLEM
    stats: EngineStats | None = getattr(
        getattr(problem, "evaluator", None), "stats", None
    )
    before = stats.snapshot() if stats is not None else None
    designs = [problem.compute_design(genotype) for genotype in chunk]
    delta = stats.snapshot() - before if stats is not None else None
    return designs, delta


class ProcessBackend:
    """Chunked evaluation on a process pool.

    Args:
        max_workers: pool size (defaults to the CPU count).
        retry_policy: recovery budget for batch dispatches (see
            :class:`RetryPolicy`); the default retries twice with
            exponential backoff and no batch deadline.
    """

    name = "process"
    in_process = False

    def __init__(
        self,
        max_workers: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.fault_counters = FaultCounters()
        self._executor: ProcessPoolExecutor | None = None
        self._pinned: "weakref.ref[Any] | None" = None
        self._submissions = 0
        self._batches = 0

    def run_chunks(
        self, problem: Any, chunks: Sequence[Sequence[tuple[int, ...]]]
    ) -> list[tuple[list[Any], EngineStats | None]]:
        tasks = [(list(chunk),) for chunk in chunks]
        return self._dispatch_with_recovery(
            problem, _evaluate_chunk, tasks, batch_label="scalar chunk batch"
        )

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
        """Shut the pool down; a later call will spawn a fresh one.

        Idempotent: closing an already-closed (or never-opened) backend is a
        no-op, so error-path ``finally`` blocks can close unconditionally.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._pinned = None

    # ------------------------------------------------------------ internals

    def _next_submission(self) -> int:
        """Monotonic id handed to every submitted work unit (never reused,
        so retried units are distinguishable from their first dispatch)."""
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

        Tasks are independent work units (chunks or shards); results are
        returned in task order.  Each submitted unit carries a fresh
        submission id appended to its payload.  On any failure — a worker
        crash breaking the pool, an exception escaping a task, or the
        batch deadline expiring — the pool is terminated (workers killed,
        resources released) and only the *unfinished* tasks are re-dispatched
        on a fresh pool, after exponential backoff.  Exhausting the policy
        raises :class:`WorkerRecoveryExhausted` with the final failure as
        its cause.
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
            # A failed unit poisons the attempt: terminate the pool (hung or
            # crashed workers included) and re-dispatch what is still
            # missing.  Units that completed keep their results — evaluation
            # is pure, so partial retry is safe — including units *after*
            # the failed one in collection order: results are collected in
            # ``pending`` order, so without this harvest a unit that
            # finished while an earlier unit was failing would be thrown
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
        Safe to call with no pool and after a ``BrokenProcessPool``.
        """
        executor = self._executor
        self._executor = None
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
        self._check_pinned(problem)
        if self._executor is None:
            payload = pickle.dumps(problem)
            # An installed fault plan is shipped to the workers so that
            # worker-side sites fire deterministically under the "spawn"
            # start method too (under "fork" the plan is inherited anyway;
            # re-installing it is harmless).
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_worker,
                initargs=(payload, faults.installed_fault_plan()),
            )
        return self._executor

    def __getstate__(self) -> dict[str, Any]:
        # The executor (locks, pipes) cannot cross a pickle boundary, and
        # weakrefs cannot be pickled; workers that unpickle the problem
        # never dispatch work themselves.
        state = self.__dict__.copy()
        state["_executor"] = None
        state["_pinned"] = None
        return state


def make_backend(
    backend: str | ExecutionBackend,
    max_workers: int | None = None,
    retry_policy: RetryPolicy | None = None,
) -> ExecutionBackend:
    """Resolve a backend name (``"serial"``/``"process"``/``"sharded"``) or
    an already-constructed instance.

    ``max_workers`` and ``retry_policy`` only make sense when this function
    constructs the backend itself; combining either with an instance would
    silently ignore it, so those combinations are rejected instead.
    """
    if not isinstance(backend, str):
        if max_workers is not None:
            raise ValueError(
                "max_workers cannot be combined with a backend instance — "
                "size the pool when constructing the backend instead"
            )
        if retry_policy is not None:
            raise ValueError(
                "retry_policy cannot be combined with a backend instance — "
                "set the policy when constructing the backend instead"
            )
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend == "process":
        return ProcessBackend(max_workers=max_workers, retry_policy=retry_policy)
    if backend == "sharded":
        # Imported lazily: the sharded backend builds on ProcessBackend, so
        # a module-level import would be circular.
        from repro.engine.sharded import ShardedVectorizedBackend

        return ShardedVectorizedBackend(
            max_workers=max_workers, retry_policy=retry_policy
        )
    raise ValueError(f"unknown execution backend '{backend}'")
