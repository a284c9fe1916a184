"""Execution backends of the evaluation engine.

An engine computes a batch's cache misses in one of two places:

* ``"serial"`` (the default) — no pool: the problem's compiled column
  kernel runs in the calling process, or, for a problem without a kernel,
  the scalar model runs one ``compute_design`` per row.  One analytical
  evaluation costs well under a millisecond and a kernel call over
  thousands of rows a few milliseconds, so in-process compute is the
  right default.
* ``"sharded"`` — :class:`~repro.engine.sharded.ShardedVectorizedBackend`,
  the engine's one worker pool: a batch's miss rows are placed in
  ``multiprocessing.shared_memory``, split into per-worker shards, and each
  worker runs the compiled NumPy column kernel on its shard — gathering
  only its own rows, with the kernel's stage tables in a shared-memory
  arena too.  Workers ship back raw objective/feasibility columns, never
  design objects, and the parent reassembles them in submission order, so
  fronts stay bitwise identical to the in-process kernel.  Prefer it over
  ``"serial"`` only for large batches (thousands of miss rows per batch) on
  a multi-core host; below that, pool dispatch overhead dominates.
  Problems without a kernel never reach the pool: their rows are computed
  in-process on either backend.

Backends only ever see a batch's cache misses: the engine serves cached
rows from its column store before dispatching, so a warm batch skips even
the column gather and an all-cached batch never invokes a kernel or touches
a pool at all (the rows spared this way are counted in
``EngineStats.rows_skipped_cached``).

**Failure semantics:** the pool owns the first rung of the fault-tolerance
ladder.  Every batch dispatch runs under a :class:`RetryPolicy` — worker
crashes (``BrokenProcessPool``), exceptions escaping a worker task, and
per-batch future timeouts (:class:`EngineTimeoutError`, so a hung worker
cannot wedge a sweep) all tear the pool down (workers terminated, segments
released) and re-dispatch the batch's unfinished shards on a fresh pool
after exponential backoff.  Failures are counted in :class:`FaultCounters`
(drained into ``EngineStats`` by the owning engine); a batch that exhausts
its attempts raises :class:`WorkerRecoveryExhausted`, which the engine
answers with the in-process degradation ladder (serial kernel, then
scalar) — results stay bitwise identical either way.

This module holds that vocabulary and :func:`make_backend`, which resolves
the backend names.  The pool holds real resources (worker processes,
shared-memory segments) and must be released: engines are context managers
(``with EvaluationEngine(...)``) and forward
:meth:`EvaluationEngine.close` to the pool's ``close``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.engine.sharded import ShardedVectorizedBackend

__all__ = [
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
    """Recovery budget of the worker pool.

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
    """Failure/recovery counters the worker pool accumulates between drains.

    The owning engine drains them
    (:meth:`~repro.engine.sharded.ShardedVectorizedBackend.drain_fault_counters`)
    into its ``EngineStats`` after each pool dispatch, so recovery activity
    shows up in ``DseResult`` like every other engine counter.
    """

    worker_failures: int = 0
    batches_retried: int = 0
    retry_wait_seconds: float = 0.0


def make_backend(
    backend: "str | ShardedVectorizedBackend",
    max_workers: int | None = None,
    retry_policy: RetryPolicy | None = None,
) -> "ShardedVectorizedBackend | None":
    """Resolve a backend name or an already-constructed pool.

    ``"serial"`` resolves to ``None`` (no pool: the engine computes
    in-process), ``"sharded"`` to a new
    :class:`~repro.engine.sharded.ShardedVectorizedBackend`; an instance
    passes through.  Anything else is rejected here, not at the engine's
    first batch or ``close()``: an unknown name with :class:`ValueError`,
    any other type with :class:`TypeError`.  ``max_workers`` and
    ``retry_policy`` only make sense when this function constructs the pool
    itself; combining either with an instance would silently ignore it, so
    those combinations are rejected instead.
    """
    # Imported lazily: the sharded backend imports this module's retry
    # policy, so a module-level import would be circular.
    from repro.engine.sharded import ShardedVectorizedBackend

    if not isinstance(backend, str):
        if not isinstance(backend, ShardedVectorizedBackend):
            raise TypeError(
                "backend must be 'serial', 'sharded' or a "
                f"ShardedVectorizedBackend, got {type(backend).__name__}"
            )
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
        return None
    if backend == "sharded":
        return ShardedVectorizedBackend(
            max_workers=max_workers, retry_policy=retry_policy
        )
    raise ValueError(f"unknown execution backend '{backend}'")
