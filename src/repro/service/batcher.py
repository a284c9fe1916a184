"""The engine lane: one serialized consumer coalescing clients onto batches.

The :class:`~repro.engine.EvaluationEngine` is not thread-safe — its memos
and stats assume a single caller — so the service funnels all engine work
through one **lane**: an asyncio consumer task that drains a queue of
client work items and executes each engine call in a dedicated
single-thread executor (the event loop stays responsive for admission,
deadline bookkeeping and response I/O while the engine computes).

The lane is where concurrent clients become one workload:

* **Coalescing when busy** — the lane never waits for company: it
  dispatches as soon as it is free, taking the first queued evaluate
  request plus every evaluate request queued behind it while the previous
  batch computed, concatenated into one columnar batch.  An idle lane
  therefore answers a lone request at once, and a busy one batches exactly
  the load that built up.  The engine's own dedup then does the sharing:
  two clients asking for overlapping genotypes cost one model evaluation
  per distinct genotype, and a client sweeping a fingerprint another client
  already swept is served entirely from the memo caches.
* **Deadline enforcement** — a request's deadline is checked before
  dispatch (expired requests are answered without occupying the engine),
  checked again after the call, and — for sweeps — checked between chunks
  through the sweep's ``front_callback``.  The engine computes in-process,
  so a call is never interrupted mid-batch; the server does not wait for
  it: a request still unanswered at its deadline gets its typed error at
  the deadline, and the lane's late outcome is dropped.  A missed deadline
  is a :class:`~repro.service.protocol.DeadlineExceededError` for that
  client only; the engine and the other clients in the batch are
  unaffected.
* **Attribution** — per-client :class:`~repro.engine.EngineStats` ledgers
  split a coalesced batch's work: every requested row counts toward the
  requester's ``genotype_requests``; rows the engine reports as ``cached``
  (served by a memo or the persistent tier), and rows another client in
  the same batch requested first, count as that client's
  ``genotype_cache_hits``; the first requester of each computed design id
  owns its ``model_evaluations``.  The split is a handful of vectorised
  operations over the batch's columns, run on the lane thread.  Sweeps run
  lane-exclusive, so their attribution is exact: the engine-stats delta of
  the run is merged into the requesting client's ledger.

Design ids travel from the wire to the engine and back: the server checks a
request's ids once (:class:`~repro.dse.space.DesignIds`), the lane
concatenates a batch's ids, and results leave the lane as column mappings
(the engine's design ids, objectives, feasibility, violation counts, and for
evaluates the ``cached`` flags), ready to be framed by
:func:`~repro.service.protocol.encode_message` without re-encoding a gene row.

The lane fires the ``"service-batch"`` fault-injection site inside the
executor thread immediately before each engine dispatch, so the chaos suite
can hang the lane (driving the deadline path and queueing requests behind a
busy lane) or fail a batch (driving the typed-internal-error path)
deterministically.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.dse import ExhaustiveSearch, RandomSearch, run_algorithm
from repro.dse.space import DesignIds
from repro.engine import EngineStats, faults
from repro.service.protocol import (
    BadRequestError,
    DeadlineExceededError,
)

__all__ = ["EngineLane", "EvaluateOutcome", "SweepOutcome"]


@dataclass(frozen=True)
class EvaluateOutcome:
    """One client's slice of a coalesced evaluate batch.

    ``columns`` holds the reply columns (``ids``, ``objectives``,
    ``feasible``, ``violation_counts``, ``cached``) in request order.
    """

    columns: dict[str, np.ndarray]


@dataclass(frozen=True)
class SweepOutcome:
    """A completed sweep: the final front plus the run's attributed cost.

    ``front`` holds the front's row columns (``ids``, ``objectives``,
    ``feasible``, ``violation_counts``) in front order.
    """

    front: dict[str, np.ndarray]
    evaluations: int
    engine_stats: dict


@dataclass
class _EvaluateItem:
    client_id: str
    ids: DesignIds
    deadline: float | None
    future: asyncio.Future


@dataclass
class _SweepItem:
    client_id: str
    algorithm: str
    params: dict
    deadline: float | None
    future: asyncio.Future
    # Called on the event loop with (front_columns, cursor) after absorbed
    # chunks; the connection layer conflates them per request.
    on_update: Callable[[dict, int], None] | None = None
    # Flipped by the connection layer on disconnect: updates stop, but the
    # sweep itself completes (its designs are shared cache capacity).
    client_gone: Callable[[], bool] = field(default=lambda: False)


#: Constructor arguments a sweep request may set, per algorithm.  A strict
#: allow-list: the lane builds real algorithm objects, so letting the wire
#: name arbitrary kwargs would be an injection surface.
_SWEEP_PARAMS = {
    "exhaustive": ("chunk_size", "max_configurations", "checkpoint_every"),
    "random": ("samples", "seed", "chunk_size", "checkpoint_every"),
}

_SWEEP_FACTORIES = {
    "exhaustive": ExhaustiveSearch,
    "random": RandomSearch,
}


def _row_columns(batch: Any) -> dict[str, np.ndarray]:
    """A columnar batch's rows as frame columns keyed by design ids."""
    return {
        "ids": batch.ids,
        "objectives": batch.objectives,
        "feasible": batch.feasible,
        "violation_counts": batch.violation_counts,
    }


def _front_columns(problem: Any, designs: Sequence[Any]) -> dict[str, np.ndarray]:
    """Materialised front designs as frame columns, order preserved."""
    count = len(designs)
    return {
        "ids": problem.space.encode_ids(
            np.asarray([design.genotype for design in designs], dtype=np.int64)
        ),
        "objectives": np.asarray(
            [design.objectives for design in designs], dtype=np.float64
        ).reshape(count, problem.n_objectives),
        "feasible": np.asarray(
            [design.feasible for design in designs], dtype=bool
        ),
        "violation_counts": np.asarray(
            [design.violation_count for design in designs], dtype=np.int64
        ),
    }


class EngineLane:
    """Serialized executor of all engine work, one service instance each.

    Args:
        problem: the engine-backed problem every client request runs
            against (``supports_columnar`` required — the service's whole
            point is columnar coalescing — and a space whose design ids fit
            ``int64``).
    """

    def __init__(self, problem: Any) -> None:
        if not getattr(problem, "supports_columnar", False):
            raise TypeError(
                "the DSE service needs an engine-backed problem with "
                "columnar batch support (WbsnDseProblem(engine=...) without "
                "record_evaluations)"
            )
        problem.space.ids([])  # a space too large for ids fails here
        self.problem = problem
        self.engine = problem.engine
        self.client_stats: dict[str, EngineStats] = {}
        self.batches_coalesced = 0
        self.items_coalesced = 0
        self._queue: asyncio.Queue = asyncio.Queue()
        self._backlog: list = []
        self._task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._stopping = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the consumer task and its single-thread engine executor."""
        if self._task is not None:
            raise RuntimeError("the engine lane is already running")
        self._stopping = False
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="dse-engine-lane"
        )
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Finish queued work, then stop the consumer and its executor.

        The lane never abandons admitted work: everything already queued is
        served before the task exits (graceful drain relies on this —
        admission stops the *inflow*, the lane finishes the backlog).
        """
        if self._task is None:
            return
        self._stopping = True
        await self._queue.put(None)  # sentinel: drain, then exit
        await self._task
        self._task = None
        assert self._executor is not None
        self._executor.shutdown(wait=True)
        self._executor = None

    # --------------------------------------------------------------- intake

    def submit_evaluate(
        self,
        client_id: str,
        ids: DesignIds,
        deadline: float | None,
    ) -> asyncio.Future:
        """Queue an evaluate request; resolves to an :class:`EvaluateOutcome`.

        ``ids`` are the request's design ids, checked by
        :meth:`~repro.dse.space.DesignSpace.ids`: validation belongs at
        ingress, so a malformed request is refused there and never joins
        (or fails) a batch.
        """
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(
            _EvaluateItem(
                client_id=client_id,
                ids=ids,
                deadline=deadline,
                future=future,
            )
        )
        return future

    def submit_sweep(
        self,
        client_id: str,
        algorithm: str,
        params: dict,
        deadline: float | None,
        *,
        on_update: Callable[[dict, int], None] | None = None,
        client_gone: Callable[[], bool] = lambda: False,
    ) -> asyncio.Future:
        """Queue a sweep request; resolves to a :class:`SweepOutcome`.

        The algorithm spec is validated *here*, at intake, so a bad request
        costs a typed error immediately instead of a lane slot.
        """
        self._validate_sweep(algorithm, params)
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(
            _SweepItem(
                client_id=client_id,
                algorithm=algorithm,
                params=dict(params),
                deadline=deadline,
                future=future,
                on_update=on_update,
                client_gone=client_gone,
            )
        )
        return future

    @staticmethod
    def _validate_sweep(algorithm: str, params: dict) -> None:
        allowed = _SWEEP_PARAMS.get(algorithm)
        if allowed is None:
            raise BadRequestError(
                f"unknown sweep algorithm '{algorithm}' "
                f"(supported: {', '.join(sorted(_SWEEP_PARAMS))})"
            )
        unknown = set(params) - set(allowed)
        if unknown:
            raise BadRequestError(
                f"unsupported {algorithm}-sweep parameter(s): "
                f"{', '.join(sorted(unknown))}"
            )
        for name, value in params.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadRequestError(
                    f"sweep parameter '{name}' must be an integer"
                )

    # ------------------------------------------------------------- consumer

    async def _run(self) -> None:
        while True:
            item = self._backlog.pop(0) if self._backlog else await self._queue.get()
            if item is None:
                if self._backlog or not self._queue.empty():
                    # Work is still queued behind the stop sentinel: push
                    # the sentinel to the back and keep draining.
                    self._queue.put_nowait(None)
                    continue
                return
            if isinstance(item, _SweepItem):
                await self._serve_sweep(item)
                continue
            batch = [item]
            batch.extend(self._take_queued_evaluates())
            await self._serve_evaluates(batch)

    def _take_queued_evaluates(self) -> list:
        """Every evaluate item already queued, without waiting for more.

        A sweep (or the stop sentinel) ends the batch and goes to the
        backlog — sweeps are lane-exclusive and never join an evaluate
        batch.
        """
        taken: list = []
        while not self._queue.empty():
            nxt = self._queue.get_nowait()
            if nxt is None or isinstance(nxt, _SweepItem):
                self._backlog.append(nxt)
                break
            taken.append(nxt)
        return taken

    # ------------------------------------------------------ evaluate batches

    async def _serve_evaluates(self, items: list) -> None:
        now = time.monotonic()
        live: list[_EvaluateItem] = []
        for item in items:
            if item.future.cancelled():
                continue
            if item.deadline is not None and now >= item.deadline:
                item.future.set_exception(
                    DeadlineExceededError(
                        "deadline expired while the request was queued"
                    )
                )
                continue
            live.append(item)
        if not live:
            return
        if len(live) > 1:
            self.batches_coalesced += 1
            self.items_coalesced += len(live)

        sizes = [len(item.ids) for item in live]

        def work():
            # Fired here, in the executor thread, so a "hang" stalls the
            # engine lane while the event loop keeps answering clients —
            # exactly the slow-engine shape the deadline path exists for.
            faults.maybe_fire("service-batch")
            ids = DesignIds(  # every item's ids were checked at ingress
                np.concatenate([item.ids.values for item in live]), live[0].ids.size
            )
            batch = self.problem.evaluate_batch_columns(ids)
            columns = _row_columns(batch)
            columns["cached"] = batch.cached
            # The first requester of each computed id owns its model
            # evaluation; every other row is cache-hit economics.
            computed = np.flatnonzero(~batch.cached)
            _, first = np.unique(columns["ids"][computed], return_index=True)
            owners = np.searchsorted(
                np.cumsum(sizes), computed[first], side="right"
            )
            owned = np.bincount(owners, minlength=len(live)).tolist()
            return columns, owned

        loop = asyncio.get_running_loop()
        try:
            columns, owned = await loop.run_in_executor(
                self._executor, work
            )
        except BaseException as exc:  # noqa: BLE001 - every item gets the error
            for item in live:
                if not item.future.done():
                    item.future.set_exception(exc)
            return

        now = time.monotonic()
        start = 0
        for item, size, item_owned in zip(live, sizes, owned):
            stop = start + size
            ledger = self.client_stats.setdefault(item.client_id, EngineStats())
            ledger.genotype_requests += size
            ledger.model_evaluations += item_owned
            ledger.genotype_cache_hits += size - item_owned
            item_columns = {
                name: column[start:stop] for name, column in columns.items()
            }
            start = stop
            if item.future.done():
                continue
            if item.deadline is not None and now >= item.deadline:
                item.future.set_exception(
                    DeadlineExceededError(
                        "deadline expired while the batch was computing"
                    )
                )
                continue
            item.future.set_result(EvaluateOutcome(columns=item_columns))

    # --------------------------------------------------------------- sweeps

    async def _serve_sweep(self, item: _SweepItem) -> None:
        now = time.monotonic()
        if item.future.cancelled():
            return
        if item.deadline is not None and now >= item.deadline:
            item.future.set_exception(
                DeadlineExceededError(
                    "deadline expired while the sweep was queued"
                )
            )
            return
        loop = asyncio.get_running_loop()

        def post_update(archive: Any, cursor: int) -> None:
            # Lane-thread side of the streaming hook: abort on deadline or
            # a vanished client *between* chunks (the engine is idle here),
            # otherwise ship a conflatable front snapshot to the loop.
            if item.deadline is not None and time.monotonic() >= item.deadline:
                raise DeadlineExceededError(
                    "deadline expired between sweep chunks"
                )
            if item.on_update is None or item.client_gone():
                return
            if archive is None:
                columns = _front_columns(self.problem, [])
            else:
                columns = _row_columns(archive)
            loop.call_soon_threadsafe(item.on_update, columns, cursor)

        def work():
            faults.maybe_fire("service-batch")
            algorithm = _SWEEP_FACTORIES[item.algorithm](
                self.problem, **item.params
            )
            result = run_algorithm(algorithm, front_callback=post_update)
            return result, _front_columns(self.problem, result.front)

        try:
            result, front = await loop.run_in_executor(
                self._executor, work
            )
        except (TypeError, ValueError) as exc:
            # Algorithm constructors validate their arguments; surface those
            # as bad requests, not internal failures.
            if not item.future.done():
                item.future.set_exception(BadRequestError(str(exc)))
            return
        except BaseException as exc:  # noqa: BLE001 - typed by the server layer
            if not item.future.done():
                item.future.set_exception(exc)
            return

        # The lane is exclusive during a sweep, so the run's stats delta is
        # exactly this client's work — merge it into their ledger.
        ledger = self.client_stats.setdefault(item.client_id, EngineStats())
        if result.engine_stats is not None:
            ledger.merge(result.engine_stats)

        if item.future.done():
            return
        now = time.monotonic()
        if item.deadline is not None and now >= item.deadline:
            item.future.set_exception(
                DeadlineExceededError(
                    "deadline expired while the sweep was finishing"
                )
            )
            return
        item.future.set_result(
            SweepOutcome(
                front=front,
                evaluations=result.evaluations,
                engine_stats=(
                    result.engine_stats.as_dict()
                    if result.engine_stats is not None
                    else {}
                ),
            )
        )

    # ---------------------------------------------------------------- stats

    def snapshot(self) -> dict:
        """Lane counters plus the per-client attribution ledgers."""
        return {
            "batches_coalesced": self.batches_coalesced,
            "items_coalesced": self.items_coalesced,
            "queued": self._queue.qsize() + len(self._backlog),
            "clients": {
                client: ledger.as_dict()
                for client, ledger in sorted(self.client_stats.items())
            },
        }
