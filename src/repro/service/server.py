"""The async DSE service: socket front-end over one shared evaluation engine.

:class:`DseService` turns the repo's in-process exploration stack into a
long-lived serving component: concurrent clients connect over a Unix socket
(or TCP), submit evaluate batches and full sweeps against one shared
engine-backed problem, and stream front updates back — while the service
enforces the robustness contract the in-process stack cannot:

* **admission control & backpressure** — a bounded pending-work gate with
  watermark hysteresis (:class:`~repro.service.admission.AdmissionController`)
  sheds burst overload with typed ``overload`` errors instead of queueing
  without bound or silently dropping requests;
* **deadlines** — a request's ``deadline_s`` travels into the engine lane,
  which checks it at every dispatch boundary and between sweep chunks, and
  the server answers a request still unanswered at its deadline with a
  typed ``deadline`` error then, however long the lane's current call
  runs (a slow or stuck lane included);
* **graceful drain** — :meth:`DseService.stop` stops admitting, lets every
  admitted request complete, flushes connections, spills the persistent
  cache tier, and only then tears the engine lane down;
* **warm start** — with a ``cache_dir`` the engine bulk-memoises the
  problem's on-disk segment at boot, so the first client of a fingerprint
  another process already swept is served from disk rows.

**Framing.** Requests and responses are JSON envelope lines; design rows
cross the socket only as binary column frames keyed by packed design ids
(:mod:`repro.service.protocol`).  Each inbound frame is validated once, at
ingress, and an evaluate request's ids are unpacked and range-checked into
the gene-index matrix the engine lane receives — a malformed request or
frame is answered with a typed ``bad-request`` before admission, so it can
never join (or fail) a coalesced batch.  A frame that cannot be read whole
(declared past :data:`~repro.service.protocol.WIRE_LINE_LIMIT`, or cut off
by end of file) leaves the stream unframeable: the peer gets a typed error
and the connection is closed.  Outbound frames are packed by the
connection's sender task from the lane's result columns, so no per-row
Python runs on the event loop.

Responses never block the engine on a slow reader: each connection owns a
sender task with a per-request conflation slot for ``front-update`` events
(only the newest unsent update survives; terminal events are never dropped),
and a client that disconnects mid-stream simply stops receiving — its
admitted work completes (the designs are shared cache capacity) and its
admission slot is released, so the batcher can never wedge on a dead peer.

Fault-injection sites (:mod:`repro.engine.faults`): ``"service-frame"``
mangles each inbound frame's bytes, ``"service-request"`` fires per
admitted request before queueing, ``"service-batch"`` on the lane before
each engine dispatch, ``"service-response"`` before each response write.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any

from repro.engine import faults
from repro.service.admission import AdmissionController
from repro.service.batcher import EngineLane, EvaluateOutcome, SweepOutcome
from repro.service.protocol import (
    PROTOCOL_VERSION,
    REQUEST_COLUMNS,
    WIRE_LINE_LIMIT,
    BadRequestError,
    DeadlineExceededError,
    RemoteInternalError,
    ServiceError,
    decode_line,
    encode_message,
    frame_length,
    unpack_frame,
)

__all__ = ["DseService"]


async def _by_deadline(future: asyncio.Future, deadline: float | None) -> Any:
    """The lane's outcome of a request, or at its deadline (event-loop
    time) a typed ``deadline`` error.

    The wait is on the shielded future, so the lane keeps its item: it
    skips it if still queued, or finishes the call it cannot interrupt, and
    the late outcome is dropped unread.
    """
    if deadline is None:
        return await future
    remaining = deadline - asyncio.get_running_loop().time()
    try:
        return await asyncio.wait_for(asyncio.shield(future), remaining)
    except asyncio.TimeoutError:
        # Read the late outcome when it comes, so asyncio reports no
        # unretrieved exception.
        future.add_done_callback(lambda late: late.cancelled() or late.exception())
        raise DeadlineExceededError(
            "deadline expired before the engine lane answered"
        ) from None


class _Connection:
    """One client connection: identity, outbox, and the sender task.

    The outbox is a deque of ready-to-send events plus one conflation slot
    per request id for ``front-update`` events: posting an update while the
    previous one is still unsent *replaces* it (counted in ``conflated``),
    so a slow reader bounds the outbox by its in-flight request count, not
    by the sweep's chunk count.  Terminal ``result``/``error`` events are
    never conflated or dropped.
    """

    def __init__(self, name: str, writer: asyncio.StreamWriter) -> None:
        self.name = name
        self.client_id = name  # overwritten by the hello handshake
        self.writer = writer
        self.closed = False
        self.conflated = 0
        self._events: deque = deque()
        self._update_slots: dict[Any, dict] = {}
        self._wakeup = asyncio.Event()
        self._flushed = asyncio.Event()
        self._flushed.set()

    # ---------------------------------------------------------------- posts

    def post(self, message: dict) -> None:
        """Queue a terminal event (result/error) for sending.

        A ``columns`` entry is framed at send time (see
        :func:`~repro.service.protocol.encode_message`).
        """
        if self.closed:
            return
        self._events.append(message)
        self._flushed.clear()
        self._wakeup.set()

    def post_update(self, request_id: Any, message: dict) -> None:
        """Queue a front-update, conflating with any unsent predecessor."""
        if self.closed:
            return
        if request_id in self._update_slots:
            self._update_slots[request_id] = message
            self.conflated += 1
            return
        self._update_slots[request_id] = message
        self._events.append(("update", request_id))
        self._flushed.clear()
        self._wakeup.set()

    # --------------------------------------------------------------- sender

    async def sender_loop(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self._events:
                entry = self._events.popleft()
                if isinstance(entry, tuple):
                    # Conflation point: the slot holds the newest update
                    # posted for this request by the time we got to send.
                    message = self._update_slots.pop(entry[1])
                else:
                    message = entry
                try:
                    # Fault-injection seam: a "hang" here simulates a slow
                    # consumer, a "raise" a connection broken mid-write.
                    faults.maybe_fire("service-response")
                    self.writer.write(encode_message(message))
                    await self.writer.drain()
                except (
                    faults.InjectedFault,
                    ConnectionError,
                    RuntimeError,
                    OSError,
                ):
                    self.mark_closed()
                    break
            if self.closed:
                self._events.clear()
                self._update_slots.clear()
            if not self._events:
                self._flushed.set()

    async def wait_flushed(self, timeout: float = 1.0) -> None:
        """Give the sender a bounded chance to drain the outbox."""
        try:
            await asyncio.wait_for(self._flushed.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    def mark_closed(self) -> None:
        self.closed = True
        self._flushed.set()
        self._wakeup.set()


class DseService:
    """Asyncio DSE service over one engine-backed problem.

    Args:
        problem: the engine-backed ``WbsnDseProblem`` every client request
            runs against (columnar support required).
        socket_path: serve on this Unix socket; mutually exclusive with
            ``host``/``port``.
        host, port: serve on TCP instead (``port=0`` picks a free port,
            reported by :attr:`address` after :meth:`start`).
        max_pending, high_watermark, low_watermark: admission bounds (see
            :class:`~repro.service.admission.AdmissionController`).
        cache_dir: persistent cache tier directory — loaded at
            :meth:`start` (warm boot), spilled at :meth:`stop`.
        close_engine: close the problem's engine when the service stops
            (use when the service owns the engine's lifetime).
    """

    def __init__(
        self,
        problem: Any,
        *,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 64,
        high_watermark: int | None = None,
        low_watermark: int | None = None,
        cache_dir: str | None = None,
        close_engine: bool = False,
    ) -> None:
        self.lane = EngineLane(problem)
        self.admission = AdmissionController(
            max_pending=max_pending,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
        )
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.close_engine = close_engine
        self.rows_warm_started = 0
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._conn_counter = 0

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> Any:
        """Where the service listens: the socket path, or ``(host, port)``."""
        if self.socket_path is not None:
            return self.socket_path
        return (self.host, self.port)

    async def start(self) -> "DseService":
        """Warm-start the engine, start the lane, and open the listener."""
        if self._server is not None:
            raise RuntimeError("the service is already running")
        if self.cache_dir is not None:
            # Warm boot: segments spilled by earlier processes serve this
            # service's very first request from disk rows.
            self.rows_warm_started = self.lane.engine.load_persistent_cache(
                self.cache_dir
            )
        self.lane.start()
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.socket_path,
                limit=WIRE_LINE_LIMIT,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
                limit=WIRE_LINE_LIMIT,
            )
            self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish in-flight, spill, close.

        Ordering matters: admission drains first (typed ``shutting-down``
        rejections for late arrivals), then every admitted request runs to
        completion and its response is flushed, then the lane stops, then
        the persistent tier is spilled — so a clean shutdown loses neither
        admitted work nor computed cache capacity.
        """
        if self._server is None:
            return
        self.admission.start_drain()
        await self.admission.wait_idle()
        for task in list(self._request_tasks):
            await task
        for connection in list(self._connections):
            await connection.wait_flushed()
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        for connection in list(self._connections):
            connection.mark_closed()
        await self.lane.stop()
        engine = self.lane.engine
        if self.cache_dir is not None:
            engine.spill_persistent_cache(self.cache_dir)
        if self.close_engine:
            engine.close()

    # ------------------------------------------------------------- handling

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_counter += 1
        connection = _Connection(f"conn-{self._conn_counter}", writer)
        self._connections.add(connection)
        sender = asyncio.get_running_loop().create_task(
            connection.sender_loop()
        )
        request_id = None
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode_line(line)
                except BadRequestError as exc:
                    self._post_error(connection, None, exc)
                    continue
                request_id = message.get("id")
                blob = None
                length = frame_length(message)
                if length is not None:
                    try:
                        blob = await reader.readexactly(length)
                    except asyncio.IncompleteReadError as exc:
                        raise BadRequestError(
                            f"the connection closed mid-frame "
                            f"({len(exc.partial)} of {exc.expected} bytes)"
                        ) from exc
                    # Fault-injection seam: truncated or flipped frame bytes
                    # must end in a typed bad-request, never a lane crash.
                    blob = faults.maybe_mangle("service-frame", blob)
                self._dispatch(connection, message, blob)
        except BadRequestError as exc:
            # A frame that cannot be read whole (undeclarable length, or
            # cut off by end of file): the stream cannot be re-framed, so
            # answer typed and drop the peer.
            self._post_error(connection, request_id, exc)
            await connection.wait_flushed()
        except ValueError as exc:
            # A line past WIRE_LINE_LIMIT: answer typed (no request id can
            # be attributed to an unframeable line) and drop the peer.
            self._post_error(
                connection,
                None,
                BadRequestError(f"protocol line too long: {exc}"),
            )
            await connection.wait_flushed()
        except (ConnectionError, OSError):
            pass
        finally:
            # Disconnect path: in-flight work this client admitted still
            # completes (and releases admission) — only its responses stop.
            connection.mark_closed()
            sender.cancel()
            try:
                await sender
            except asyncio.CancelledError:
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connections.discard(connection)

    def _dispatch(
        self, connection: _Connection, message: dict, blob: bytes | None
    ) -> None:
        request_id = message.get("id")
        try:
            op = message.get("op")
            if blob is not None and op != "evaluate":
                raise BadRequestError(f"op '{op}' takes no frame")
            if op == "hello":
                if message.get("protocol") != PROTOCOL_VERSION:
                    raise BadRequestError(
                        f"protocol version mismatch: the client speaks "
                        f"{message.get('protocol')!r}, this service speaks "
                        f"{PROTOCOL_VERSION}"
                    )
                client = message.get("client")
                if client is not None:
                    connection.client_id = str(client)
                connection.post(
                    {
                        "id": request_id,
                        "event": "result",
                        "ok": True,
                        "protocol": PROTOCOL_VERSION,
                        "server": "wbsn-dse-service",
                        "cardinalities": (
                            self.lane.problem.space.cardinalities.tolist()
                        ),
                    }
                )
            elif op == "ping":
                connection.post(
                    {"id": request_id, "event": "result", "ok": True}
                )
            elif op == "stats":
                connection.post(
                    {
                        "id": request_id,
                        "event": "result",
                        "ok": True,
                        "stats": self.snapshot(),
                    }
                )
            elif op == "evaluate":
                self._admit_evaluate(connection, request_id, message, blob)
            elif op == "sweep":
                self._admit_sweep(connection, request_id, message)
            else:
                raise BadRequestError(f"unknown op '{op}'")
        except ServiceError as exc:
            self._post_error(connection, request_id, exc)

    # ------------------------------------------------------- request intake

    def _deadline_from(self, message: dict) -> float | None:
        deadline_s = message.get("deadline_s")
        if deadline_s is None:
            return None
        if (
            not isinstance(deadline_s, (int, float))
            or isinstance(deadline_s, bool)
            or deadline_s <= 0
        ):
            raise BadRequestError("deadline_s must be a positive number")
        return asyncio.get_running_loop().time() + float(deadline_s)

    def _admit_evaluate(
        self,
        connection: _Connection,
        request_id: Any,
        message: dict,
        blob: bytes | None,
    ) -> None:
        if blob is None:
            raise BadRequestError("evaluate needs a frame of design ids")
        ids = unpack_frame(blob, REQUEST_COLUMNS)["ids"]
        if not len(ids):
            raise BadRequestError("evaluate needs at least one design id")
        try:
            ids = self.lane.problem.space.ids(ids)
        except ValueError as exc:
            raise BadRequestError(f"bad design ids: {exc}") from exc
        deadline = self._deadline_from(message)
        self.admission.try_admit()
        try:
            # Fault-injection seam: a poisoned request fails *after*
            # admission but before queueing — the typed-internal-error
            # path, with the admission slot correctly released below.
            faults.maybe_fire("service-request")
            future = self.lane.submit_evaluate(
                connection.client_id, ids, deadline
            )
        except BaseException as exc:
            self.admission.release()
            if isinstance(exc, ServiceError):
                raise
            raise RemoteInternalError(
                f"failed to queue the request: {exc}"
            ) from exc
        self._track(
            self._complete_evaluate(connection, request_id, future, deadline)
        )

    def _admit_sweep(
        self, connection: _Connection, request_id: Any, message: dict
    ) -> None:
        algorithm = message.get("algorithm")
        if not isinstance(algorithm, str):
            raise BadRequestError("sweep needs an 'algorithm' name")
        params = message.get("params") or {}
        if not isinstance(params, dict):
            raise BadRequestError("sweep 'params' must be an object")
        deadline = self._deadline_from(message)
        stream = bool(message.get("stream", True))
        self.admission.try_admit()
        try:
            faults.maybe_fire("service-request")

            def on_update(columns: dict, cursor: int) -> None:
                connection.post_update(
                    request_id,
                    {
                        "id": request_id,
                        "event": "front-update",
                        "cursor": cursor,
                        "columns": columns,
                    },
                )

            future = self.lane.submit_sweep(
                connection.client_id,
                algorithm,
                params,
                deadline,
                on_update=on_update if stream else None,
                client_gone=lambda: connection.closed,
            )
        except BaseException as exc:
            self.admission.release()
            if isinstance(exc, ServiceError):
                raise
            raise RemoteInternalError(
                f"failed to queue the request: {exc}"
            ) from exc
        self._track(self._complete_sweep(connection, request_id, future, deadline))

    def _track(self, coroutine) -> None:
        task = asyncio.get_running_loop().create_task(coroutine)
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)

    # ----------------------------------------------------------- completion

    async def _complete_evaluate(
        self,
        connection: _Connection,
        request_id: Any,
        future: asyncio.Future,
        deadline: float | None,
    ) -> None:
        try:
            outcome: EvaluateOutcome = await _by_deadline(future, deadline)
            connection.post(
                {
                    "id": request_id,
                    "event": "result",
                    "ok": True,
                    "columns": outcome.columns,
                }
            )
        except Exception as exc:
            self._post_error(connection, request_id, exc)
        finally:
            self.admission.release()

    async def _complete_sweep(
        self,
        connection: _Connection,
        request_id: Any,
        future: asyncio.Future,
        deadline: float | None,
    ) -> None:
        try:
            outcome: SweepOutcome = await _by_deadline(future, deadline)
            connection.post(
                {
                    "id": request_id,
                    "event": "result",
                    "ok": True,
                    "evaluations": outcome.evaluations,
                    "engine_stats": outcome.engine_stats,
                    "columns": outcome.front,
                }
            )
        except Exception as exc:
            self._post_error(connection, request_id, exc)
        finally:
            self.admission.release()

    def _post_error(
        self, connection: _Connection, request_id: Any, exc: Exception
    ) -> None:
        if not isinstance(exc, ServiceError):
            exc = RemoteInternalError(f"{type(exc).__name__}: {exc}")
        connection.post(
            {
                "id": request_id,
                "event": "error",
                "ok": False,
                "code": exc.code,
                "message": str(exc),
            }
        )

    # ---------------------------------------------------------------- stats

    def snapshot(self) -> dict:
        """Service-wide observability: admission, lane, engine, warm start."""
        return {
            "admission": self.admission.snapshot(),
            "lane": self.lane.snapshot(),
            "engine": self.lane.engine.stats.as_dict(),
            "rows_warm_started": self.rows_warm_started,
            "connections": len(self._connections),
            "conflated_updates": sum(
                connection.conflated for connection in self._connections
            ),
        }
