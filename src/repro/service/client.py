"""Async client for the DSE service.

:class:`DseServiceClient` speaks the service's wire protocol
(:mod:`repro.service.protocol`: JSON envelopes, binary column frames keyed
by packed design ids) and maps wire errors back onto the same typed
exceptions the server raised — a shed request raises
:class:`~repro.service.protocol.ServiceOverloadError` in the caller, a
missed deadline :class:`~repro.service.protocol.DeadlineExceededError`, and
so on — so client-side retry/backoff logic can branch on exception types
instead of string-matching messages.

Replies keep the frame's columns: NumPy arrays, read-only, with
:class:`~repro.service.protocol.DesignRows` views (``reply.rows``,
``reply.front``) that build a :class:`~repro.service.protocol.DesignRow`
only when one is indexed or iterated.

One connection multiplexes any number of in-flight requests: each request
carries a client-assigned id, a background reader task routes response
events to the matching caller, and a sweep's streaming ``front-update``
events are delivered to the caller's ``on_front_update`` callback as they
arrive (conflated server-side if this client reads slowly).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.dse.space import encode_ids
from repro.service.protocol import (
    PROTOCOL_VERSION,
    REPLY_COLUMNS,
    ROW_COLUMNS,
    WIRE_LINE_LIMIT,
    BadRequestError,
    DesignRows,
    ServiceError,
    encode_message,
    error_for_code,
    frame_length,
    unpack_frame,
)

__all__ = ["DseServiceClient", "EvaluateReply", "SweepReply", "FrontUpdate"]


@dataclass(frozen=True)
class EvaluateReply:
    """An evaluate request's result, as read-only columns.

    Attributes:
        rows: one row per requested genotype, in request order — a
            :class:`~repro.service.protocol.DesignRows` view whose
            ``ids`` / ``genotypes`` / ``objectives`` / ``feasible`` /
            ``violation_counts`` are the reply's columns.
        cached: per-row flags — ``True`` where the service's memos or
            persistent tier served the row with no model call in the batch
            (this client's request did no model work for it).
    """

    rows: DesignRows
    cached: np.ndarray


@dataclass(frozen=True)
class SweepReply:
    """A sweep request's terminal result.

    Attributes:
        front: the final non-dominated front (a
            :class:`~repro.service.protocol.DesignRows` view), bitwise
            identical to an in-process :func:`~repro.dse.run_algorithm` run
            of the same algorithm on the same problem.
        evaluations: designs served to the sweep (cache hits included).
        engine_stats: the run's engine-counter delta, as a plain mapping
            (see :meth:`~repro.engine.EngineStats.as_dict`).
    """

    front: DesignRows
    evaluations: int
    engine_stats: dict


@dataclass(frozen=True)
class FrontUpdate:
    """One streamed front snapshot: the running front after a chunk."""

    front: DesignRows
    cursor: int


class DseServiceClient:
    """One connection to a :class:`~repro.service.server.DseService`.

    Build with :meth:`connect`; the constructor is internal.  The client is
    a context manager::

        client = await DseServiceClient.connect(path=sock, client_id="alice")
        try:
            reply = await client.evaluate(genotypes, deadline_s=5.0)
        finally:
            await client.close()
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client_id: str,
    ) -> None:
        self.client_id = client_id
        #: Domain cardinalities of the served space, from the handshake.
        self.cardinalities: tuple[int, ...] = ()
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._update_callbacks: dict[int, Callable[[FrontUpdate], None]] = {}
        self._next_id = 0
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    # ----------------------------------------------------------- connection

    @classmethod
    async def connect(
        cls,
        *,
        path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        client_id: str | None = None,
    ) -> "DseServiceClient":
        """Open a connection and run the hello handshake.

        Raises :class:`~repro.service.protocol.BadRequestError` when the
        two ends speak different protocol versions.
        """
        if path is not None:
            reader, writer = await asyncio.open_unix_connection(
                path, limit=WIRE_LINE_LIMIT
            )
        elif port is not None:
            reader, writer = await asyncio.open_connection(
                host, port, limit=WIRE_LINE_LIMIT
            )
        else:
            raise ValueError("connect needs a socket path or a host/port")
        client = cls(reader, writer, client_id or "anonymous")
        try:
            reply, _ = await client._request(
                {
                    "op": "hello",
                    "client": client.client_id,
                    "protocol": PROTOCOL_VERSION,
                }
            )
            if reply.get("protocol") != PROTOCOL_VERSION:
                raise BadRequestError(
                    f"protocol version mismatch: the service speaks "
                    f"{reply.get('protocol')!r}, this client speaks "
                    f"{PROTOCOL_VERSION}"
                )
            client.cardinalities = tuple(
                int(value) for value in reply["cardinalities"]
            )
        except BaseException:
            await client.close()
            raise
        return client

    async def close(self) -> None:
        """Close the connection; in-flight requests fail with ConnectionError."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._fail_pending(ConnectionError("the client connection is closed"))

    # ------------------------------------------------------------------ ops

    async def ping(self) -> None:
        """Round-trip liveness probe."""
        await self._request({"op": "ping"})

    async def stats(self) -> dict:
        """The service's observability snapshot (admission, lane, engine)."""
        reply, _ = await self._request({"op": "stats"})
        return reply["stats"]

    async def evaluate(
        self,
        genotypes: Any,
        *,
        deadline_s: float | None = None,
    ) -> EvaluateReply:
        """Evaluate genotypes (gene-index rows or an int matrix) remotely.

        Genotypes are packed into design ids here; a row of the wrong
        width, or a gene that is not a number or lies outside its domain,
        raises :class:`~repro.service.protocol.BadRequestError` before
        anything is sent.
        """
        try:
            ids = encode_ids(genotypes, self.cardinalities)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"malformed genotypes: {exc}") from exc
        _, frame = await self._request(
            {"op": "evaluate", "deadline_s": deadline_s, "columns": {"ids": ids}}
        )
        columns = unpack_frame(_require_frame(frame), REPLY_COLUMNS)
        return EvaluateReply(
            rows=DesignRows(columns, self.cardinalities),
            cached=columns["cached"],
        )

    async def sweep(
        self,
        algorithm: str = "exhaustive",
        *,
        params: dict | None = None,
        deadline_s: float | None = None,
        on_front_update: Callable[[FrontUpdate], None] | None = None,
    ) -> SweepReply:
        """Run a full sweep server-side, optionally streaming front updates."""
        reply, frame = await self._request(
            {
                "op": "sweep",
                "algorithm": algorithm,
                "params": params or {},
                "deadline_s": deadline_s,
                "stream": on_front_update is not None,
            },
            on_front_update=on_front_update,
        )
        return SweepReply(
            front=DesignRows(
                unpack_frame(_require_frame(frame), ROW_COLUMNS),
                self.cardinalities,
            ),
            evaluations=int(reply["evaluations"]),
            engine_stats=dict(reply["engine_stats"]),
        )

    # ------------------------------------------------------------ internals

    async def _request(
        self,
        message: dict,
        *,
        on_front_update: Callable[[FrontUpdate], None] | None = None,
    ) -> tuple[dict, bytes | None]:
        """Send one request; resolves to its result envelope and frame."""
        if self._closed:
            raise ConnectionError("the client connection is closed")
        self._next_id += 1
        request_id = self._next_id
        message = dict(message, id=request_id)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        if on_front_update is not None:
            self._update_callbacks[request_id] = on_front_update
        try:
            self._writer.write(encode_message(message))
            await self._writer.drain()
            return await future
        finally:
            self._pending.pop(request_id, None)
            self._update_callbacks.pop(request_id, None)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                except (ValueError, RecursionError):
                    continue  # a corrupt line cannot be attributed to a request
                if not isinstance(message, dict):
                    continue
                # A malformed frame length raises BadRequestError: the
                # stream cannot be re-framed, so the connection is lost.
                length = frame_length(message)
                frame = None
                if length is not None:
                    frame = await self._reader.readexactly(length)
                self._handle_event(message, frame)
        except (
            ValueError,  # a server line past WIRE_LINE_LIMIT
            BadRequestError,
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
        ):
            pass
        self._fail_pending(
            ConnectionError("the service closed the connection")
        )

    def _handle_event(self, message: dict, frame: bytes | None) -> None:
        request_id = message.get("id")
        event = message.get("event")
        if event == "front-update":
            callback = self._update_callbacks.get(request_id)
            if callback is None:
                return
            try:
                front = unpack_frame(_require_frame(frame), ROW_COLUMNS)
            except ServiceError as exc:
                self._fail(request_id, exc)
                return
            callback(
                FrontUpdate(
                    front=DesignRows(front, self.cardinalities),
                    cursor=int(message.get("cursor", 0)),
                )
            )
            return
        if event == "error":
            self._fail(
                request_id,
                error_for_code(
                    str(message.get("code", "internal")),
                    str(message.get("message", "unknown service error")),
                ),
            )
            return
        future = self._pending.get(request_id)
        if future is not None and not future.done():
            future.set_result((message, frame))

    def _fail(self, request_id: Any, exc: Exception) -> None:
        future = self._pending.get(request_id)
        if future is not None and not future.done():
            future.set_exception(exc)

    def _fail_pending(self, exc: Exception) -> None:
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()
        self._update_callbacks.clear()


def _require_frame(frame: bytes | None) -> bytes:
    if frame is None:
        raise BadRequestError("the reply carries no column frame")
    return frame
