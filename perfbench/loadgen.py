"""Closed-loop load generator of the ``service_mixed`` workload.

Two client connections share one event loop.  Each runs its own seeded
script and sends its next request only after the previous reply arrived
(closed loop, so a slower service receives less load).  A script is a
stream of ``evaluate`` requests of 256 genotypes, half drawn from a hot set
shared by both connections and half uniform over the space, with one
request in 50 replaced by a 4,096-sample ``random`` sweep.  Sweeps sit at
fixed positions, staggered between the connections, so every run shares
the lane between sweeps and point queries in the same proportion.  While
one connection's sweep holds the lane, the other connection's next
evaluate waits behind it; at one sweep in 50 that delays ~2% of the
evaluates, which keeps the p95 latency off the edge between queued and
unqueued requests (at one in 25, ~4.5% are delayed and the p95 jumps
between the two groups from run to run).  Scripts are generated lazily
from their RNG, so the request sequence depends only on the seed, never
on timing.
"""

from __future__ import annotations

import asyncio
import itertools
import time

import numpy as np

from repro.service import DseServiceClient, ServiceError

CONNECTIONS = 2
HOT_SET_SIZE = 4096
EVALUATE_ROWS = 256
SWEEP_EVERY = 50
SWEEP_SAMPLES = 4096


def request_stream(rng: np.random.Generator, cardinalities, hot_set, offset: int):
    """Yield one connection's requests forever, deterministically."""
    half = EVALUATE_ROWS // 2
    for position in itertools.count():
        if position % SWEEP_EVERY == offset:
            yield {
                "kind": "sweep",
                "params": {
                    "samples": SWEEP_SAMPLES,
                    "seed": int(rng.integers(0, 2**31 - 1)),
                },
            }
            continue
        hot = hot_set[rng.integers(0, len(hot_set), half)]
        uniform = rng.integers(0, cardinalities, size=(half, len(cardinalities)))
        yield {"kind": "evaluate", "genotypes": np.concatenate([hot, uniform])}


def make_scripts(seed: int, cardinalities) -> list:
    """The per-connection request streams of one run."""
    cardinalities = np.asarray(cardinalities, dtype=np.int64)
    rng = np.random.default_rng([seed, 0])
    hot_set = rng.integers(
        0, cardinalities, size=(HOT_SET_SIZE, len(cardinalities))
    )
    return [
        request_stream(
            np.random.default_rng([seed, 1 + index]),
            cardinalities,
            hot_set,
            offset=index * SWEEP_EVERY // CONNECTIONS,
        )
        for index in range(CONNECTIONS)
    ]


async def _connection(client, script, end: float, tracer, log: dict) -> None:
    while time.perf_counter() < end:
        request = next(script)
        log["attempted"] += 1
        request_id = f"{client.client_id}:{log['attempted']}"
        started = time.perf_counter_ns()
        try:
            if request["kind"] == "sweep":
                reply = await client.sweep("random", params=request["params"])
                log["sweeps"].append((request["params"], reply.front))
                continue
            reply = await client.evaluate(request["genotypes"].tolist())
        except ServiceError:
            log["failed"] += 1
            continue
        except ConnectionError:
            log["failed"] += 1
            return
        ended = time.perf_counter_ns()
        log["latencies_ms"].append((ended - started) / 1e6)
        log["evaluates"].append((request["genotypes"], reply.rows))
        if tracer is not None:
            tracer.record("service.request", started, ended, req=request_id)


async def drive(port: int, scripts: list, seconds: float, tracer=None) -> dict:
    """Run every connection's script against the service for ``seconds``."""
    log = {"attempted": 0, "failed": 0, "latencies_ms": [], "evaluates": [], "sweeps": []}
    clients = []
    try:
        for index in range(len(scripts)):
            clients.append(
                await DseServiceClient.connect(
                    host="127.0.0.1", port=port, client_id=f"c{index}"
                )
            )
        started = time.perf_counter()
        await asyncio.gather(
            *(
                _connection(client, script, started + seconds, tracer, log)
                for client, script in zip(clients, scripts)
            )
        )
        log["load_s"] = time.perf_counter() - started
    finally:
        for client in clients:
            await client.close()
    log["rows"] = sum(len(rows) for _genotypes, rows in log["evaluates"])
    return log
