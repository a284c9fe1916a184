"""Chaos suite for the async DSE service front-end.

The service's promises are robustness promises, so every one of them is
tested by *making* the bad thing happen: burst overload against a tiny
admission window, the engine lane hung by an injected fault while deadlines
expire, workers hung past a client deadline, clients yanked mid-stream,
responses failing mid-write, shutdown racing admitted work.  The invariant
mirrors the rest of the chaos suite: results served through the service are
bitwise identical to the in-process paths, and every failure is a *typed*
error on the wire — never a silent drop, a wedged lane, or a leaked
admission slot.

All asyncio is driven through ``asyncio.run()`` inside synchronous tests
(the suite has no async test plugin, and doesn't need one).
"""

from __future__ import annotations

import asyncio
import json
import pickle
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.random_search import RandomSearch
from repro.dse.runner import run_algorithm
from repro.engine import (
    CheckpointError,
    EvaluationEngine,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SweepCheckpoint,
    inject_faults,
    load_checkpoint,
)
from repro.engine.checkpoint import (
    CHECKPOINT_VERSION,
    MAGIC as CHECKPOINT_MAGIC,
    load_checkpoint_if_valid,
    pack_blob,
)
from repro.engine.persist import (
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    CacheSegmentError,
    encode_column_block,
    load_segment,
)
from repro.service import (
    PROTOCOL_VERSION,
    WIRE_LINE_LIMIT,
    AdmissionController,
    BadRequestError,
    DeadlineExceededError,
    DesignRow,
    DesignRows,
    DseService,
    DseServiceClient,
    RemoteInternalError,
    ServiceOverloadError,
    ServiceShuttingDownError,
    decode_line,
    encode_message,
    error_for_code,
)
from repro.service.protocol import (
    FRAME_COLUMNS,
    FRAME_MAGIC,
    REPLY_COLUMNS,
    REQUEST_COLUMNS,
    ROW_COLUMNS,
    frame_length,
    unpack_frame,
)
from repro.service.server import _Connection
from test_faults import (
    FAMILIES,
    FAST_RETRIES,
    beacon_problem,
    front_signature,
    reference_front,
)

#: Full design space of the two-node beacon family.  ``WbsnDseProblem``'s
#: constructor probes the all-zeros genotype through the engine to size the
#: objective vector, so a *fresh* service starts with exactly one memoised
#: row — a cold exhaustive sweep therefore computes ``SPACE_SIZE - 1``
#: models, and tests that count cold evaluations use the probe-free
#: genotype list below.
SPACE_SIZE = 64
SWEEP_COLD_EVALS = SPACE_SIZE - 1

_SPACE_GENOTYPES: list = []
_EXPECTED_ROWS: dict = {}


def space_genotypes() -> list:
    """Every beacon-space genotype except the constructor probe."""
    if not _SPACE_GENOTYPES:
        problem = beacon_problem(EvaluationEngine())
        probe = tuple(0 for _ in range(len(problem.space)))
        for genotype in problem.space.enumerate_genotypes():
            if genotype != probe:
                _SPACE_GENOTYPES.append(genotype)
        # The scalar path is bitwise identical to the columnar one (see
        # test_columnar), so this map is a valid reference for rows served
        # over the wire.
        for genotype in (probe, *_SPACE_GENOTYPES):
            design = problem.evaluate(genotype)
            _EXPECTED_ROWS[genotype] = (design.objectives, design.feasible)
    return list(_SPACE_GENOTYPES)


def expected_rows() -> dict:
    """genotype -> (objectives, feasible) for the whole beacon space."""
    space_genotypes()
    return dict(_EXPECTED_ROWS)


def service_front_signature(rows) -> list:
    """A served front in the same signature form as the in-process tests."""
    return [(row.genotype, row.objectives, row.feasible) for row in rows]


def _frame(names, arrays, *, dtype=None, declared_rows=None) -> bytes:
    """A column frame as a peer could send it, optionally mislabelled.

    ``dtype`` overrides every column's wire dtype; ``declared_rows`` makes
    the block header declare a row count its arrays do not have.
    """
    spec = tuple(
        (name, dtype or FRAME_COLUMNS[name][0], FRAME_COLUMNS[name][1])
        for name in names
    )
    block = encode_column_block(spec, arrays)
    if declared_rows is not None:
        rows = len(arrays[names[0]])
        tampered = block.replace(
            f'"rows": {rows}'.encode(), f'"rows": {declared_rows}'.encode()
        )
        assert len(tampered) == len(block) and tampered != block
        block = tampered
    return pack_blob(FRAME_MAGIC, PROTOCOL_VERSION, block)


async def start_service(**kwargs) -> DseService:
    """A TCP service over a fresh serial-engine beacon problem."""
    engine = kwargs.pop("engine", None) or EvaluationEngine()
    problem = kwargs.pop("problem", None) or beacon_problem(engine)
    kwargs.setdefault("close_engine", True)
    service = DseService(problem, **kwargs)
    await service.start()
    return service


async def lane_is_hanging(plan: FaultPlan) -> None:
    """Wait until the lane has entered an injected ``"service-batch"`` hang,
    so requests sent next queue behind a busy lane."""
    for _ in range(500):
        if plan.fired:
            return
        await asyncio.sleep(0.01)
    raise AssertionError("the lane never started its hung batch")


async def connect(service: DseService, client_id: str) -> DseServiceClient:
    if service.socket_path is not None:
        return await DseServiceClient.connect(
            path=service.socket_path, client_id=client_id
        )
    return await DseServiceClient.connect(
        host=service.host, port=service.port, client_id=client_id
    )


# --------------------------------------------------------------------------
# Protocol layer
# --------------------------------------------------------------------------


class TestProtocol:
    def test_message_roundtrip_is_bitwise(self):
        awkward = [0.1 + 0.2, 1.0 / 3.0, 6.03e-7, 1e-300, -0.0]
        message = {"op": "evaluate", "id": 7, "values": awkward}
        line = encode_message(message)
        assert line.endswith(b"\n")
        decoded = decode_line(line)
        assert decoded == message
        # Bitwise float identity is what the front-parity tests lean on.
        for sent, received in zip(awkward, decoded["values"]):
            assert sent == received and str(sent) == str(received)

    def test_column_frame_roundtrip_is_bitwise(self):
        awkward = [0.1 + 0.2, 1.0 / 3.0, 6.03e-7, 1e-300, -0.0, 5e-324]
        columns = {
            "ids": np.array([5, 0, 2**40, 7], dtype=np.int64),
            "objectives": np.array(awkward + [1.0, 2.0]).reshape(4, 2),
            "feasible": np.array([True, False, True, True]),
            "violation_counts": np.array([0, 3, 0, 0]),
            "cached": np.array([False, True, True, False]),
        }
        wire = encode_message({"id": 7, "event": "result", "columns": columns})
        line, _, frame = wire.partition(b"\n")
        envelope = decode_line(line)
        assert envelope == {"id": 7, "event": "result", "frame": len(frame)}
        assert frame_length(envelope) == len(frame)
        received = unpack_frame(frame, REPLY_COLUMNS)
        for name, column in columns.items():
            # Byte-for-byte: -0.0, denormals and every float's last bit.
            assert received[name].dtype.str == FRAME_COLUMNS[name][0]
            assert received[name].tobytes() == column.astype(
                FRAME_COLUMNS[name][0]
            ).tobytes()
            assert not received[name].flags.writeable

    def test_design_rows_view_is_lazy_and_compares_to_tuples(self):
        cardinalities = (3, 2, 4)
        genotypes = [(2, 1, 3), (0, 0, 0), (1, 0, 2)]
        columns = {
            "ids": np.array([23, 0, 10]),
            "objectives": np.array([[1.0 / 3.0, 2.0], [0.5, -0.0], [1e-300, 4.0]]),
            "feasible": np.array([True, False, True]),
            "violation_counts": np.array([0, 2, 0]),
        }
        rows = DesignRows(columns, cardinalities)
        expected = tuple(
            DesignRow(
                genotype=genotype,
                objectives=tuple(objectives),
                feasible=feasible,
                violation_count=violations,
            )
            for genotype, objectives, feasible, violations in zip(
                genotypes,
                columns["objectives"].tolist(),
                columns["feasible"].tolist(),
                columns["violation_counts"].tolist(),
            )
        )
        assert len(rows) == 3
        assert rows == expected and expected == rows
        assert rows == list(expected)
        assert rows != expected[:2]
        assert tuple(rows) == expected
        assert rows[-1] == expected[2]
        assert rows[1:] == expected[1:]
        assert isinstance(rows[0].feasible, bool)
        assert isinstance(rows[0].violation_count, int)
        np.testing.assert_array_equal(rows.genotypes, np.array(genotypes))
        with pytest.raises(IndexError):
            rows[3]
        with pytest.raises(TypeError):
            hash(rows)

    def test_frame_length_validation(self):
        assert frame_length({"op": "ping"}) is None
        assert frame_length({"frame": WIRE_LINE_LIMIT}) == WIRE_LINE_LIMIT
        for bad in (0, -1, WIRE_LINE_LIMIT + 1, True, "12", 1.5, [3]):
            with pytest.raises(BadRequestError):
                frame_length({"frame": bad})

    def test_frame_validation_is_typed(self):
        good = {
            "ids": np.arange(3),
            "objectives": np.zeros((3, 2)),
            "feasible": np.ones(3, dtype=bool),
            "violation_counts": np.zeros(3, dtype=np.int64),
        }
        frame = _frame(ROW_COLUMNS, good)
        assert len(unpack_frame(frame, ROW_COLUMNS)["ids"]) == 3
        mismatched_rows = dict(good, objectives=np.zeros((2, 2)))
        cases = [
            (b"WBSNCKPT" + frame[8:], ROW_COLUMNS),  # foreign magic
            (
                frame[:8]
                + (PROTOCOL_VERSION + 1).to_bytes(4, "little")
                + frame[12:],
                ROW_COLUMNS,
            ),
            (frame[:-1] + bytes([frame[-1] ^ 0xFF]), ROW_COLUMNS),  # checksum
            (frame[:20], ROW_COLUMNS),  # truncated
            (_frame(ROW_COLUMNS, mismatched_rows), ROW_COLUMNS),
            (
                _frame(REQUEST_COLUMNS, {"ids": np.arange(3.0)}, dtype="<f8"),
                REQUEST_COLUMNS,
            ),
            (
                _frame(REQUEST_COLUMNS, {"ids": np.arange(4).reshape(2, 2)}),
                REQUEST_COLUMNS,
            ),
            (
                _frame(REQUEST_COLUMNS, {"ids": np.arange(3)}, declared_rows=5),
                REQUEST_COLUMNS,
            ),
            # A request frame lacks the reply columns.
            (_frame(REQUEST_COLUMNS, {"ids": np.arange(3)}), ROW_COLUMNS),
        ]
        for blob, names in cases:
            with pytest.raises(BadRequestError):
                unpack_frame(blob, names)

    def test_design_row_rejects_junk(self):
        with pytest.raises(BadRequestError):
            DesignRow.from_wire([1, 2])
        with pytest.raises(BadRequestError):
            DesignRow.from_wire([["x"], [1.0], True, 0])

    def test_decode_rejects_non_objects(self):
        with pytest.raises(BadRequestError):
            decode_line(b"this is not json\n")
        with pytest.raises(BadRequestError):
            decode_line(b"[1, 2, 3]\n")

    def test_encode_refuses_nan(self):
        with pytest.raises(ValueError):
            encode_message({"x": float("nan")})

    def test_error_code_mapping(self):
        for cls in (
            ServiceOverloadError,
            ServiceShuttingDownError,
            DeadlineExceededError,
            BadRequestError,
            RemoteInternalError,
        ):
            rebuilt = error_for_code(cls.code, "why")
            assert type(rebuilt) is cls
            assert str(rebuilt) == "why"
        assert isinstance(
            error_for_code("from-the-future", "?"), RemoteInternalError
        )


# --------------------------------------------------------------------------
# Admission control
# --------------------------------------------------------------------------


class TestAdmission:
    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(max_pending=4, high_watermark=6)
        with pytest.raises(ValueError):
            AdmissionController(
                max_pending=8, high_watermark=4, low_watermark=5
            )

    def test_hysteresis_band(self):
        gate = AdmissionController(
            max_pending=8, high_watermark=6, low_watermark=2
        )
        for _ in range(6):
            gate.try_admit()
        assert gate.shedding
        with pytest.raises(ServiceOverloadError):
            gate.try_admit()
        # Falling below the high mark is not enough: the band holds until
        # the backlog reaches the low mark.
        for _ in range(3):
            gate.release()
        assert gate.pending == 3 and gate.shedding
        with pytest.raises(ServiceOverloadError):
            gate.try_admit()
        gate.release()
        assert gate.pending == 2 and not gate.shedding
        gate.try_admit()
        assert gate.pending == 3
        assert gate.admitted == 7
        assert gate.rejected_overload == 2

    def test_hard_bound_without_a_band(self):
        gate = AdmissionController(max_pending=3)
        for _ in range(3):
            gate.try_admit()
        with pytest.raises(ServiceOverloadError):
            gate.try_admit()

    def test_draining_is_one_way_and_typed(self):
        async def scenario():
            gate = AdmissionController(max_pending=4)
            gate.try_admit()
            gate.start_drain()
            with pytest.raises(ServiceShuttingDownError):
                gate.try_admit()
            assert gate.rejected_draining == 1
            waiter = asyncio.create_task(gate.wait_idle())
            await asyncio.sleep(0)
            assert not waiter.done()
            gate.release()
            await asyncio.wait_for(waiter, 1.0)

        asyncio.run(scenario())

    def test_release_underflow_is_a_bug(self):
        gate = AdmissionController(max_pending=2)
        with pytest.raises(RuntimeError):
            gate.release()


# --------------------------------------------------------------------------
# Service basics and request validation
# --------------------------------------------------------------------------


class TestServiceBasics:
    def test_ping_stats_and_unknown_op(self):
        async def scenario():
            service = await start_service()
            try:
                client = await connect(service, "alice")
                try:
                    await client.ping()
                    stats = await client.stats()
                    assert stats["admission"]["pending"] == 0
                    assert stats["connections"] == 1
                    assert "model_evaluations" in stats["engine"]
                    with pytest.raises(BadRequestError):
                        await client._request({"op": "frobnicate"})
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_malformed_line_gets_a_typed_error_event(self):
        async def scenario():
            service = await start_service()
            try:
                reader, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                try:
                    writer.write(b"this is not a protocol line\n")
                    await writer.drain()
                    event = json.loads(await reader.readline())
                    assert event["event"] == "error"
                    assert event["code"] == "bad-request"
                    assert event["id"] is None
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_oversized_line_is_rejected_typed(self):
        async def scenario():
            service = await start_service()
            try:
                reader, writer = await asyncio.open_connection(
                    service.host, service.port, limit=WIRE_LINE_LIMIT
                )
                try:
                    # One unterminated line past the wire limit: the server
                    # cannot reframe the stream, so it answers a typed
                    # bad-request (id unattributable) and drops the peer.
                    writer.write(b"x" * (WIRE_LINE_LIMIT + 4096))
                    await writer.drain()
                    event = json.loads(
                        await asyncio.wait_for(reader.readline(), 10.0)
                    )
                    assert event["event"] == "error"
                    assert event["code"] == "bad-request"
                    assert event["id"] is None
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                # The service survived: a fresh client is served normally.
                client = await connect(service, "alice")
                try:
                    await client.ping()
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_unix_socket_transport(self, tmp_path):
        sock = str(tmp_path / "dse.sock")

        async def scenario():
            service = await start_service(socket_path=sock)
            try:
                assert service.address == sock
                client = await connect(service, "alice")
                try:
                    genotypes = space_genotypes()[:4]
                    reply = await client.evaluate(genotypes)
                    expected = expected_rows()
                    for genotype, row in zip(genotypes, reply.rows):
                        assert row.genotype == tuple(genotype)
                        assert row.objectives == expected[genotype][0]
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_bad_requests_are_typed_not_fatal(self):
        async def scenario():
            service = await start_service()
            try:
                client = await connect(service, "alice")
                try:
                    with pytest.raises(BadRequestError):
                        await client.evaluate([])
                    with pytest.raises(BadRequestError):
                        await client.sweep("simulated-annealing")
                    with pytest.raises(BadRequestError):
                        await client.sweep(
                            "exhaustive", params={"shell": "rm -rf /"}
                        )
                    with pytest.raises(BadRequestError):
                        await client.sweep(
                            "exhaustive", params={"chunk_size": "16"}
                        )
                    with pytest.raises(BadRequestError):
                        await client.evaluate(
                            [space_genotypes()[0]], deadline_s=-2.0
                        )
                    # The connection and the service survived all of it.
                    await client.ping()
                    stats = await client.stats()
                    assert stats["admission"]["pending"] == 0
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# Ingress validation: handshake, frames and design ids
# --------------------------------------------------------------------------


async def open_raw(service: DseService, *, hello: bool = True):
    """A raw protocol connection, optionally past a valid handshake."""
    reader, writer = await asyncio.open_connection(
        service.host, service.port, limit=WIRE_LINE_LIMIT
    )
    if hello:
        writer.write(
            encode_message({"op": "hello", "id": 0, "protocol": PROTOCOL_VERSION})
        )
        await writer.drain()
        assert (await read_event(reader))["event"] == "result"
    return reader, writer


async def read_event(reader: asyncio.StreamReader) -> dict:
    """One response event; a reply frame is unpacked into ``columns``."""
    event = decode_line(await asyncio.wait_for(reader.readline(), 10.0))
    length = frame_length(event)
    if length is not None:
        frame = await asyncio.wait_for(reader.readexactly(length), 10.0)
        event["columns"] = unpack_frame(frame, REPLY_COLUMNS)
    return event


async def close_raw(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def assert_still_serves(service: DseService) -> None:
    """No admission slot leaked, and a fresh client is served bitwise."""
    genotypes = space_genotypes()[:5]
    expected = expected_rows()
    client = await connect(service, "checker")
    try:
        stats = await client.stats()
        assert stats["admission"]["pending"] == 0
        reply = await client.evaluate(genotypes)
        for genotype, row in zip(genotypes, reply.rows):
            assert row.genotype == genotype
            assert row.objectives == expected[genotype][0]
            assert row.feasible == expected[genotype][1]
    finally:
        await client.close()


class TestIngressValidation:
    def test_server_refuses_a_mismatched_hello(self):
        async def scenario():
            service = await start_service()
            try:
                reader, writer = await open_raw(service, hello=False)
                try:
                    for hello in (
                        {"op": "hello", "id": 1, "protocol": PROTOCOL_VERSION - 1},
                        {"op": "hello", "id": 2},
                    ):
                        writer.write(encode_message(hello))
                        await writer.drain()
                        event = await read_event(reader)
                        assert event["event"] == "error"
                        assert event["code"] == "bad-request"
                        assert event["id"] == hello["id"]
                        assert "protocol version" in event["message"]
                finally:
                    await close_raw(writer)
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_client_refuses_a_mismatched_server(self):
        async def fake_service(reader, writer):
            request = decode_line(await reader.readline())
            writer.write(
                encode_message(
                    {
                        "id": request["id"],
                        "event": "result",
                        "ok": True,
                        "protocol": PROTOCOL_VERSION - 1,
                        "cardinalities": [2, 2],
                    }
                )
            )
            await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()

        async def scenario():
            server = await asyncio.start_server(fake_service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(BadRequestError, match="protocol version"):
                    await DseServiceClient.connect(port=port)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_boolean_deadline_is_refused(self):
        async def scenario():
            service = await start_service()
            try:
                client = await connect(service, "alice")
                try:
                    with pytest.raises(BadRequestError, match="deadline_s"):
                        await client.evaluate(
                            [space_genotypes()[0]], deadline_s=True
                        )
                    with pytest.raises(BadRequestError, match="deadline_s"):
                        await client.sweep("exhaustive", deadline_s=False)
                    assert service.admission.admitted == 0
                finally:
                    await client.close()
                await assert_still_serves(service)
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_malformed_genotypes_and_ids_are_bad_requests(self):
        width = len(space_genotypes()[0])

        async def scenario():
            service = await start_service()
            try:
                client = await connect(service, "alice")
                try:
                    # Rows the client cannot pack never leave the process.
                    for genotypes in (
                        [[99] + [0] * (width - 1)],
                        [[0] * (width + 1)],
                        [["x"] + [0] * (width - 1)],
                    ):
                        with pytest.raises(BadRequestError):
                            await client.evaluate(genotypes)
                    # Ids outside [0, size) are refused at the server's
                    # ingress, before admission.
                    for ids in ([SPACE_SIZE], [3, -1], [2**62]):
                        with pytest.raises(BadRequestError, match="design id"):
                            await client._request(
                                {
                                    "op": "evaluate",
                                    "columns": {"ids": np.array(ids)},
                                }
                            )
                    with pytest.raises(BadRequestError, match="frame"):
                        await client._request({"op": "evaluate"})
                    with pytest.raises(BadRequestError, match="takes no frame"):
                        await client._request(
                            {"op": "ping", "columns": {"ids": np.arange(2)}}
                        )
                    assert service.admission.admitted == 0
                finally:
                    await client.close()
                await assert_still_serves(service)
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_malformed_request_never_fails_its_batch_mates(self):
        genotypes = space_genotypes()[:4]
        expected = expected_rows()
        probe = tuple(0 for _ in genotypes[0])
        plan = FaultPlan(
            [FaultSpec(site="service-batch", action="hang", delay_s=0.3, at=(0,))]
        )

        async def scenario():
            service = await start_service()
            try:
                alice = await connect(service, "alice")
                bob = await connect(service, "bob")
                carol = await connect(service, "carol")
                try:
                    with inject_faults(plan):
                        blocker = asyncio.create_task(carol.evaluate([probe]))
                        await lane_is_hanging(plan)
                        # Both requests arrive behind the busy lane; only
                        # alice's may join the next batch.
                        valid, malformed = await asyncio.gather(
                            alice.evaluate(genotypes),
                            bob._request(
                                {
                                    "op": "evaluate",
                                    "columns": {"ids": np.array([1, SPACE_SIZE + 35])},
                                }
                            ),
                            return_exceptions=True,
                        )
                        await blocker
                    assert isinstance(malformed, BadRequestError)
                    for genotype, row in zip(genotypes, valid.rows):
                        assert row.genotype == genotype
                        assert row.objectives == expected[genotype][0]
                        assert row.feasible == expected[genotype][1]
                    assert service.admission.admitted == 2
                    assert service.admission.pending == 0
                finally:
                    await alice.close()
                    await bob.close()
                    await carol.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_broken_frames_get_typed_replies_on_a_live_connection(self):
        ids = np.array([1, 2, 3])
        good = _frame(REQUEST_COLUMNS, {"ids": ids})
        broken = [
            b"WBSNCKPT" + good[8:],  # wrong magic
            good[:8] + (PROTOCOL_VERSION + 1).to_bytes(4, "little") + good[12:],
            good[:-1] + bytes([good[-1] ^ 0xFF]),  # flipped byte
            _frame(REQUEST_COLUMNS, {"ids": ids.astype(float)}, dtype="<f8"),
            _frame(REQUEST_COLUMNS, {"ids": ids.reshape(3, 1)}),
            _frame(REQUEST_COLUMNS, {"ids": ids}, declared_rows=7),
            _frame(REQUEST_COLUMNS, {"ids": np.array([SPACE_SIZE])}),
            _frame(REQUEST_COLUMNS, {"ids": np.array([-4])}),
        ]

        async def scenario():
            service = await start_service()
            try:
                reader, writer = await open_raw(service)
                try:
                    for request_id, blob in enumerate(broken, start=1):
                        envelope = {
                            "op": "evaluate",
                            "id": request_id,
                            "frame": len(blob),
                        }
                        writer.write(encode_message(envelope) + blob)
                        await writer.drain()
                        event = await read_event(reader)
                        assert event["event"] == "error", event
                        assert event["code"] == "bad-request"
                        assert event["id"] == request_id
                    # The stream stayed framed: the same connection is
                    # served bitwise right after the broken frames.
                    writer.write(
                        encode_message(
                            {"op": "evaluate", "id": 99, "columns": {"ids": ids}}
                        )
                    )
                    await writer.drain()
                    event = await read_event(reader)
                    assert event["event"] == "result"
                    expected = expected_rows()
                    genotypes = service.lane.problem.space.decode_ids(ids)
                    for genotype, objectives in zip(
                        genotypes.tolist(), event["columns"]["objectives"].tolist()
                    ):
                        assert tuple(objectives) == expected[tuple(genotype)][0]
                finally:
                    await close_raw(writer)
                assert service.admission.admitted == 1
                await assert_still_serves(service)
            finally:
                await service.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "case", ["oversized", "non-integer-length", "eof-mid-frame"]
    )
    def test_unframeable_streams_get_a_typed_error_then_close(self, case):
        async def scenario():
            service = await start_service()
            try:
                reader, writer = await open_raw(service)
                try:
                    envelope = {"op": "evaluate", "id": 5}
                    if case == "oversized":
                        envelope["frame"] = WIRE_LINE_LIMIT + 1
                        writer.write(encode_message(envelope))
                    elif case == "non-integer-length":
                        envelope["frame"] = "12"
                        writer.write(encode_message(envelope))
                    else:
                        envelope["frame"] = 100
                        writer.write(encode_message(envelope) + b"\x00" * 10)
                        writer.write_eof()
                    await writer.drain()
                    event = await read_event(reader)
                    assert event["event"] == "error"
                    assert event["code"] == "bad-request"
                    assert event["id"] == 5
                    # ... and the service hung up on the unframeable stream.
                    assert await asyncio.wait_for(reader.read(), 10.0) == b""
                finally:
                    await close_raw(writer)
                assert service.admission.admitted == 0
                await assert_still_serves(service)
            finally:
                await service.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("action", ["truncate", "flip-byte"])
    def test_mangled_inbound_frames_are_bad_requests(self, action):
        genotypes = space_genotypes()[:3]
        expected = expected_rows()
        plan = FaultPlan(
            [FaultSpec(site="service-frame", action=action, at=(0, 1, 2))], seed=3
        )

        async def scenario():
            service = await start_service()
            try:
                client = await connect(service, "alice")
                try:
                    with inject_faults(plan) as installed:
                        for _ in range(3):
                            with pytest.raises(BadRequestError):
                                await client.evaluate(genotypes)
                        reply = await client.evaluate(genotypes)
                    assert [fired[2] for fired in installed.fired] == [action] * 3
                    for genotype, row in zip(genotypes, reply.rows):
                        assert row.objectives == expected[genotype][0]
                    assert service.admission.admitted == 1
                    assert service.admission.pending == 0
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# Decoder fuzzing: arbitrary bytes end in a typed error, nothing else
# --------------------------------------------------------------------------

_FUZZ_BYTES = st.one_of(
    st.binary(max_size=512),
    st.integers(min_value=1, max_value=50_000).map(lambda depth: b"[" * depth),
)

#: Block headers that parse as JSON, so the fuzz reaches the array checks.
_FUZZ_HEADERS = st.fixed_dictionaries(
    {
        "rows": st.one_of(st.integers(-2, 2**70), st.none(), st.text(max_size=3)),
        "fingerprint": st.one_of(st.just("ab" * 16), st.text(max_size=6)),
        "components": st.lists(st.text(max_size=3), max_size=3),
        "arrays": st.dictionaries(
            st.sampled_from(sorted(FRAME_COLUMNS) + ["genotypes"]),
            st.fixed_dictionaries(
                {
                    "dtype": st.sampled_from(
                        ["<i8", "<f8", "|b1", ">i8", "<i4", "O", "zz"]
                    ),
                    "shape": st.lists(st.integers(-3, 2**64), max_size=3),
                    "offset": st.integers(-128, 2**66),
                }
            ),
        ),
    }
)


def _fuzz_block(header: dict, data: bytes) -> bytes:
    header_bytes = json.dumps(header).encode()
    return len(header_bytes).to_bytes(4, "little") + header_bytes + data


_FUZZ_BLOCKS = st.builds(_fuzz_block, _FUZZ_HEADERS, st.binary(max_size=256))


def _framed(magic: bytes, version: int):
    """Wrap payloads in valid blob framing, so the fuzz passes the checksum."""
    return lambda payload: pack_blob(magic, version, payload)


#: A valid checkpoint payload, for the mutation and truncation fuzz.
_CHECKPOINT_PAYLOAD = pickle.dumps(
    SweepCheckpoint(
        algorithm="exhaustive",
        space_size=64,
        cursor=32,
        any_feasible=True,
        genotypes=np.arange(12, dtype=np.int64).reshape(3, 4),
        objectives=np.linspace(0.0, 1.0, 9).reshape(3, 3),
        feasible=np.array([True, False, True]),
        violation_counts=np.array([0, 2, 0], dtype=np.int64),
        rng_state={"state": 123},
        fingerprint=b"fp",
        extra={"samples": 10},
    ),
    protocol=pickle.HIGHEST_PROTOCOL,
)


def _mutated_checkpoint(edits: list[tuple[int, int]]) -> bytes:
    payload = bytearray(_CHECKPOINT_PAYLOAD)
    for position, value in edits:
        payload[position % len(payload)] = value
    return bytes(payload)


_FUZZ_CHECKPOINTS = st.one_of(
    st.lists(
        st.tuples(st.integers(0, len(_CHECKPOINT_PAYLOAD)), st.integers(0, 255)),
        min_size=1,
        max_size=4,
    ).map(_mutated_checkpoint),
    st.integers(0, len(_CHECKPOINT_PAYLOAD)).map(
        lambda size: _CHECKPOINT_PAYLOAD[:size]
    ),
)


class TestDecoderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=_FUZZ_BYTES)
    def test_decode_line_only_raises_bad_request(self, data):
        try:
            assert isinstance(decode_line(data), dict)
        except BadRequestError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.one_of(
            _FUZZ_BYTES,
            _FUZZ_BYTES.map(_framed(FRAME_MAGIC, PROTOCOL_VERSION)),
            _FUZZ_BLOCKS.map(_framed(FRAME_MAGIC, PROTOCOL_VERSION)),
        ),
        names=st.sampled_from([REQUEST_COLUMNS, ROW_COLUMNS, REPLY_COLUMNS]),
    )
    def test_frame_decoder_only_raises_bad_request(self, data, names):
        try:
            columns = unpack_frame(data, names)
        except BadRequestError:
            return
        assert set(columns) == set(names)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.one_of(
            _FUZZ_BYTES,
            _FUZZ_BYTES.map(_framed(SEGMENT_MAGIC, SEGMENT_VERSION)),
            _FUZZ_BLOCKS.map(_framed(SEGMENT_MAGIC, SEGMENT_VERSION)),
        )
    )
    def test_segment_loader_only_raises_cache_segment_error(self, data):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "fuzz.wbsncache"
            path.write_bytes(data)
            try:
                load_segment(path)
            except CacheSegmentError:
                pass

    # Mutated pickles can make CPython print unraisable ``SystemError``
    # lines; those are printed, never raised.
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.one_of(
            _FUZZ_BYTES,
            _FUZZ_BYTES.map(_framed(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)),
            _FUZZ_CHECKPOINTS.map(_framed(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)),
        )
    )
    def test_checkpoint_loader_only_raises_checkpoint_error(self, data):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "fuzz.ckpt"
            path.write_bytes(data)
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                load_checkpoint_if_valid(
                    path, algorithm="exhaustive", space_size=64, fingerprint=b"fp"
                )


# --------------------------------------------------------------------------
# Coalescing, attribution, and front parity (the tentpole contract)
# --------------------------------------------------------------------------


class TestCoalescingAndParity:
    def test_concurrent_evaluates_coalesce_into_one_batch(self):
        genotypes = space_genotypes()
        expected = expected_rows()
        probe = tuple(0 for _ in genotypes[0])
        # The lane dispatches as soon as it is free, so requests coalesce
        # by queueing behind a busy lane: carol's one-row batch (the
        # memoised constructor probe) hangs the lane while alice's and
        # bob's requests arrive.
        plan = FaultPlan(
            [FaultSpec(site="service-batch", action="hang", delay_s=0.3, at=(0,))]
        )

        async def scenario():
            service = await start_service()
            try:
                alice = await connect(service, "alice")
                bob = await connect(service, "bob")
                carol = await connect(service, "carol")
                try:
                    with inject_faults(plan):
                        blocker = asyncio.create_task(carol.evaluate([probe]))
                        await lane_is_hanging(plan)
                        reply_a, reply_b = await asyncio.gather(
                            alice.evaluate(genotypes), bob.evaluate(genotypes)
                        )
                        await blocker
                    for reply in (reply_a, reply_b):
                        for genotype, row in zip(genotypes, reply.rows):
                            assert row.genotype == tuple(genotype)
                            assert row.objectives == expected[genotype][0]
                            assert row.feasible == expected[genotype][1]
                    # Bitwise identity between the two clients' replies.
                    assert reply_a.rows == reply_b.rows
                    stats = await alice.stats()
                    assert stats["lane"]["batches_coalesced"] == 1
                    assert stats["lane"]["items_coalesced"] == 2
                    # The engine computed each distinct genotype once even
                    # though two clients asked for all of them (the +1 is
                    # the problem constructor's probe evaluation).
                    assert (
                        stats["engine"]["model_evaluations"]
                        == len(genotypes) + 1
                    )
                    clients = stats["lane"]["clients"]
                    assert set(clients) == {"alice", "bob", "carol"}
                    assert clients["carol"]["genotype_cache_hits"] == 1
                    pair = [clients["alice"], clients["bob"]]
                    for ledger in pair:
                        assert ledger["genotype_requests"] == len(genotypes)
                    # Every distinct genotype has exactly one owner; the
                    # batch-mate rides on cache-hit economics.
                    assert sum(
                        ledger["model_evaluations"] for ledger in pair
                    ) == len(genotypes)
                    assert sum(
                        ledger["genotype_cache_hits"] for ledger in pair
                    ) == len(genotypes)
                    # Neither reply was served from a memo: both rows of
                    # each genotype came out of this batch's model call.
                    assert not reply_a.cached.any()
                    assert not reply_b.cached.any()
                finally:
                    await alice.close()
                    await bob.close()
                    await carol.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_concurrent_sweeps_share_one_sweeps_work(self):
        expected = reference_front("beacon")

        async def scenario():
            service = await start_service()
            try:
                alice = await connect(service, "alice")
                bob = await connect(service, "bob")
                try:
                    reply_a, reply_b = await asyncio.gather(
                        alice.sweep("exhaustive", params={"chunk_size": 16}),
                        bob.sweep("exhaustive", params={"chunk_size": 16}),
                    )
                    # Acceptance: both fronts bitwise identical to the solo
                    # in-process run; the second sweep is served entirely
                    # from the first one's cache capacity.
                    assert service_front_signature(reply_a.front) == expected
                    assert service_front_signature(reply_b.front) == expected
                    assert reply_a.evaluations == SPACE_SIZE
                    assert reply_b.evaluations == SPACE_SIZE
                    evals = sorted(
                        reply.engine_stats["model_evaluations"]
                        for reply in (reply_a, reply_b)
                    )
                    assert evals == [0, SWEEP_COLD_EVALS]
                    stats = await alice.stats()
                    assert stats["engine"]["model_evaluations"] == SPACE_SIZE
                finally:
                    await alice.close()
                    await bob.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_random_sweep_parity_with_in_process_run(self):
        params = dict(samples=40, seed=7, chunk_size=16)
        in_process = run_algorithm(
            RandomSearch(beacon_problem(EvaluationEngine()), **params)
        )

        async def scenario():
            service = await start_service()
            try:
                client = await connect(service, "alice")
                try:
                    reply = await client.sweep("random", params=params)
                    assert service_front_signature(
                        reply.front
                    ) == front_signature(in_process.front)
                    assert reply.evaluations == in_process.evaluations
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# Streaming front updates
# --------------------------------------------------------------------------


class TestStreaming:
    def test_front_updates_stream_with_monotonic_cursors(self):
        expected = reference_front("beacon")
        updates = []

        async def scenario():
            service = await start_service()
            try:
                client = await connect(service, "alice")
                try:
                    reply = await client.sweep(
                        "exhaustive",
                        params={"chunk_size": 8},
                        on_front_update=updates.append,
                    )
                    assert service_front_signature(reply.front) == expected
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())
        assert updates, "a streamed sweep must deliver at least one update"
        cursors = [update.cursor for update in updates]
        assert cursors == sorted(cursors)
        assert all(0 < cursor <= SPACE_SIZE for cursor in cursors)
        # Streamed snapshots are genuine front prefixes: non-empty rows of
        # the same wire shape as the terminal front.
        for update in updates:
            for row in update.front:
                assert isinstance(row, DesignRow)

    def test_slow_consumer_conflation_keeps_newest_update(self):
        async def scenario():
            connection = _Connection("conn-test", writer=None)
            connection.post_update(1, {"id": 1, "cursor": 8})
            connection.post_update(1, {"id": 1, "cursor": 16})
            connection.post_update(1, {"id": 1, "cursor": 24})
            connection.post_update(2, {"id": 2, "cursor": 8})
            connection.post({"id": 1, "event": "result"})
            # Two updates were conflated away; one slot per request id
            # remains, holding the newest payload, and the terminal event
            # was queued untouched.
            assert connection.conflated == 2
            assert connection._update_slots[1]["cursor"] == 24
            assert len(connection._events) == 3

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# Burst overload: typed shedding, admitted work unharmed
# --------------------------------------------------------------------------


class TestOverload:
    def test_burst_sheds_typed_while_admitted_requests_complete(self):
        genotypes = space_genotypes()
        expected = expected_rows()
        # The first batch hangs the lane long enough for the whole burst to
        # hit admission while pending work is at its peak.
        plan = FaultPlan(
            [FaultSpec(site="service-batch", action="hang", delay_s=0.25, at=(0,))]
        )

        async def scenario():
            service = await start_service(max_pending=4)
            try:
                client = await connect(service, "alice")
                try:
                    with inject_faults(plan):
                        outcomes = await asyncio.gather(
                            *(
                                client.evaluate([genotypes[i]])
                                for i in range(10)
                            ),
                            return_exceptions=True,
                        )
                    served = [
                        outcome
                        for outcome in outcomes
                        if not isinstance(outcome, BaseException)
                    ]
                    shed = [
                        outcome
                        for outcome in outcomes
                        if isinstance(outcome, BaseException)
                    ]
                    # Exactly the admission bound was served; every shed
                    # request got the typed overload error, nothing else.
                    assert len(served) == 4
                    assert len(shed) == 6
                    assert all(
                        isinstance(outcome, ServiceOverloadError)
                        for outcome in shed
                    )
                    # Admitted requests completed unharmed and correct.
                    for i, outcome in enumerate(outcomes):
                        if isinstance(outcome, BaseException):
                            continue
                        (row,) = outcome.rows
                        assert row.genotype == tuple(genotypes[i])
                        assert row.objectives == expected[genotypes[i]][0]
                    stats = await client.stats()
                    admission = stats["admission"]
                    assert admission["pending"] == 0
                    assert not admission["shedding"]
                    assert admission["rejected_overload"] == 6
                    assert admission["admitted"] == admission["completed"] == 4
                    # The service is healthy after the burst: shedding
                    # cleared, new work admitted and served.
                    reply = await client.evaluate([genotypes[-1]])
                    assert reply.rows[0].objectives == expected[genotypes[-1]][0]
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_drain_rejects_shutting_down_but_finishes_in_flight(self):
        genotypes = space_genotypes()
        expected = expected_rows()
        plan = FaultPlan(
            [FaultSpec(site="service-batch", action="hang", delay_s=0.3, at=(0,))]
        )

        async def scenario():
            service = await start_service()
            client = await connect(service, "alice")
            try:
                with inject_faults(plan):
                    in_flight = asyncio.create_task(
                        client.evaluate([genotypes[0]])
                    )
                    await asyncio.sleep(0.05)  # the lane is now hanging
                    stopper = asyncio.create_task(service.stop())
                    await asyncio.sleep(0.05)  # draining is in effect
                    with pytest.raises(ServiceShuttingDownError):
                        await client.evaluate([genotypes[1]])
                    reply = await in_flight
                    assert reply.rows[0].objectives == expected[genotypes[0]][0]
                    await asyncio.wait_for(stopper, 5.0)
                assert service.admission.rejected_draining == 1
                assert service.admission.pending == 0
            finally:
                await client.close()

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# Deadlines
# --------------------------------------------------------------------------


class TestDeadlines:
    def test_deadline_scope_reserves_a_degradation_slot(self):
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.1)
        engine = EvaluationEngine(
            backend="sharded", max_workers=2, retry_policy=policy
        )
        with engine:
            backend = engine.backend
            assert backend.retry_policy.batch_timeout_s is None
            with engine.deadline_scope(3.1):
                # backoff between the two attempts is 0.1 s; the rest of
                # the budget splits across two pool attempts plus one
                # reserved slot for the in-process degradation rung.
                clamped = backend.retry_policy.batch_timeout_s
                assert clamped == pytest.approx((3.1 - 0.1) / 3)
            assert backend.retry_policy.batch_timeout_s is None
            with engine.deadline_scope(None):
                assert backend.retry_policy.batch_timeout_s is None

    def test_deadline_scope_is_a_noop_on_serial_engines(self):
        engine = EvaluationEngine()
        with engine.deadline_scope(0.5):
            pass  # nothing to clamp; must not raise

    def test_expiry_is_typed_and_the_engine_survives(self):
        genotypes = space_genotypes()
        expected = expected_rows()
        plan = FaultPlan(
            [FaultSpec(site="service-batch", action="hang", delay_s=0.4, at=(0,))]
        )

        async def scenario():
            service = await start_service()
            try:
                client = await connect(service, "alice")
                try:
                    with inject_faults(plan):
                        outcomes = await asyncio.gather(
                            # Expires while the hung batch computes.
                            client.evaluate([genotypes[0]], deadline_s=0.15),
                            # Expires while queued behind the hung batch.
                            client.evaluate([genotypes[1]], deadline_s=0.15),
                            return_exceptions=True,
                        )
                    assert all(
                        isinstance(outcome, DeadlineExceededError)
                        for outcome in outcomes
                    )
                    # Missed deadlines released their admission slots and
                    # left the engine fully serviceable.
                    stats = await client.stats()
                    assert stats["admission"]["pending"] == 0
                    reply = await client.evaluate([genotypes[2]], deadline_s=30.0)
                    assert reply.rows[0].objectives == expected[genotypes[2]][0]
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_hung_workers_cannot_break_a_client_deadline(self):
        genotypes = space_genotypes()
        expected = expected_rows()
        # Every pool dispatch hangs far past the deadline; only the clamped
        # batch timeout and the in-process degradation rung can serve this.
        plan = FaultPlan(
            [FaultSpec(site="shard", action="hang", delay_s=30.0)]
        )
        deadline_s = 2.5

        async def scenario():
            engine = EvaluationEngine(
                backend="sharded",
                max_workers=2,
                retry_policy=FAST_RETRIES,
            )
            service = await start_service(engine=engine)
            try:
                client = await connect(service, "alice")
                try:
                    with inject_faults(plan):
                        started = time.monotonic()
                        reply = await client.evaluate(
                            genotypes, deadline_s=deadline_s
                        )
                        elapsed = time.monotonic() - started
                    # The reply beat the deadline despite 30 s worker hangs
                    # (clamped retries, then the in-process ladder), is
                    # flagged degraded, and is still bitwise correct.
                    assert elapsed < deadline_s + 1.0
                    assert reply.degraded
                    for genotype, row in zip(genotypes, reply.rows):
                        assert row.objectives == expected[genotype][0]
                    stats = await client.stats()
                    assert stats["engine"]["worker_failures"] >= 1
                    assert stats["engine"]["degraded_batches"] >= 1
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# Client disconnects and broken response writes
# --------------------------------------------------------------------------


class TestDisconnects:
    def test_disconnect_mid_stream_never_wedges_the_lane(self):
        expected = reference_front("beacon")

        async def scenario():
            service = await start_service()
            try:
                alice = await connect(service, "alice")
                dropped = asyncio.Event()

                def on_update(update):
                    # Yank the connection on the first streamed update.
                    if not dropped.is_set():
                        dropped.set()
                        asyncio.get_running_loop().create_task(alice.close())

                with pytest.raises(ConnectionError):
                    await alice.sweep(
                        "exhaustive",
                        params={"chunk_size": 4},
                        on_front_update=on_update,
                    )
                assert dropped.is_set()

                # The abandoned sweep still runs to completion server-side
                # and releases its admission slot.
                bob = await connect(service, "bob")
                try:
                    for _ in range(100):
                        stats = await bob.stats()
                        if stats["admission"]["pending"] == 0:
                            break
                        await asyncio.sleep(0.05)
                    assert stats["admission"]["pending"] == 0
                    assert (
                        stats["admission"]["admitted"]
                        == stats["admission"]["completed"]
                    )
                    # ... and its designs are shared cache capacity: bob's
                    # sweep of the same fingerprint costs zero evaluations.
                    reply = await bob.sweep(
                        "exhaustive", params={"chunk_size": 16}
                    )
                    assert service_front_signature(reply.front) == expected
                    assert reply.engine_stats["model_evaluations"] == 0
                finally:
                    await bob.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_broken_response_write_does_not_leak_admission(self):
        genotypes = space_genotypes()
        expected = expected_rows()
        plan = FaultPlan(
            [FaultSpec(site="service-response", action="raise", at=(0,))]
        )

        async def scenario():
            service = await start_service()
            try:
                alice = await connect(service, "alice")
                # Armed only after the handshake: the next response write —
                # alice's evaluate result — fails as if the socket broke.
                with inject_faults(plan):
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(
                            alice.evaluate([genotypes[0]]), 1.0
                        )
                await alice.close()

                bob = await connect(service, "bob")
                try:
                    for _ in range(100):
                        stats = await bob.stats()
                        if stats["admission"]["pending"] == 0:
                            break
                        await asyncio.sleep(0.05)
                    assert stats["admission"]["pending"] == 0
                    reply = await bob.evaluate([genotypes[0]])
                    assert reply.rows[0].objectives == expected[genotypes[0]][0]
                finally:
                    await bob.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_poisoned_request_is_a_typed_internal_error(self):
        genotypes = space_genotypes()
        expected = expected_rows()
        plan = FaultPlan(
            [FaultSpec(site="service-request", action="raise", at=(0,))]
        )

        async def scenario():
            service = await start_service()
            try:
                client = await connect(service, "alice")
                try:
                    with inject_faults(plan):
                        with pytest.raises(RemoteInternalError):
                            await client.evaluate([genotypes[0]])
                        # The admission slot was released on the failure
                        # path; the very next request is served normally.
                        reply = await client.evaluate([genotypes[0]])
                    assert reply.rows[0].objectives == expected[genotypes[0]][0]
                    stats = await client.stats()
                    assert stats["admission"]["pending"] == 0
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# Degradation surfacing
# --------------------------------------------------------------------------


class TestDegradationSurfacing:
    def test_degraded_batches_flag_their_responses(self):
        genotypes = space_genotypes()
        expected = expected_rows()
        # Every pool dispatch raises; retries exhaust and the engine serves
        # the batch from its in-process ladder.
        plan = FaultPlan([FaultSpec(site="shard", action="raise")])

        async def scenario():
            engine = EvaluationEngine(
                backend="sharded",
                max_workers=2,
                retry_policy=FAST_RETRIES,
            )
            service = await start_service(engine=engine)
            try:
                client = await connect(service, "alice")
                try:
                    with inject_faults(plan):
                        reply = await client.evaluate(genotypes)
                    assert reply.degraded
                    for genotype, row in zip(genotypes, reply.rows):
                        assert row.objectives == expected[genotype][0]
                    stats = await client.stats()
                    assert stats["engine"]["degraded_batches"] >= 1
                finally:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# Graceful drain, persistent spill, warm reboot
# --------------------------------------------------------------------------


class TestDrainSpillWarmBoot:
    def test_stop_spills_and_the_next_boot_warm_starts(self, tmp_path):
        cache_dir = str(tmp_path / "tier")
        expected = reference_front("beacon")

        async def scenario():
            first = await start_service(cache_dir=cache_dir)
            try:
                client = await connect(first, "alice")
                try:
                    reply = await client.sweep(
                        "exhaustive", params={"chunk_size": 16}
                    )
                    assert service_front_signature(reply.front) == expected
                    assert (
                        reply.engine_stats["model_evaluations"]
                        == SWEEP_COLD_EVALS
                    )
                finally:
                    await client.close()
            finally:
                await first.stop()
            assert first.rows_warm_started == 0
            assert any((tmp_path / "tier").iterdir()), "stop() must spill"

            second = await start_service(cache_dir=cache_dir)
            try:
                assert second.rows_warm_started >= SWEEP_COLD_EVALS
                client = await connect(second, "bob")
                try:
                    reply = await client.sweep(
                        "exhaustive", params={"chunk_size": 16}
                    )
                    assert service_front_signature(reply.front) == expected
                    # The whole sweep was served from the warm-started rows.
                    assert reply.engine_stats["model_evaluations"] == 0
                finally:
                    await client.close()
            finally:
                await second.stop()

        asyncio.run(scenario())
