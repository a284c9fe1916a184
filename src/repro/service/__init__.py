"""Async DSE service: a socket front-end over one shared evaluation engine.

The in-process stack answers "how fast can *one* campaign sweep the space";
this package answers "how do *many* explorers share one model server
without hurting each other".  A :class:`DseService` owns an engine-backed
:class:`~repro.dse.WbsnDseProblem` and serves concurrent clients over a Unix
socket or TCP with JSON envelopes and binary column frames keyed by packed
design ids (:mod:`repro.service.protocol`):

* :mod:`repro.service.server` — :class:`DseService`: the listener,
  per-connection handlers, graceful drain, warm boot from the persistent
  cache tier, and the typed-error surface;
* :mod:`repro.service.batcher` — :class:`~repro.service.batcher.EngineLane`:
  the single serialized engine consumer that dispatches as soon as it is
  free, coalescing the evaluate requests queued behind a busy engine into
  shared columnar batches, runs sweeps through the
  real :func:`~repro.dse.run_algorithm` (fronts bitwise identical to
  in-process runs), checks deadlines at every dispatch boundary, and
  keeps per-client :class:`~repro.engine.EngineStats` attribution ledgers;
* :mod:`repro.service.admission` —
  :class:`~repro.service.admission.AdmissionController`: the bounded
  pending-work gate with watermark hysteresis behind the ``overload`` /
  ``shutting-down`` rejection codes;
* :mod:`repro.service.client` — :class:`DseServiceClient`: the async
  client, mapping wire errors back onto the same typed exceptions.

The robustness contract, end to end: burst overload sheds with typed
errors while admitted requests complete unharmed; a per-request deadline
is checked at every dispatch boundary and between sweep chunks, and a
missed one is a typed error for that client alone; a client disconnect
never wedges the engine lane; shutdown drains in-flight work and spills
the persistent cache.
"""

from repro.service.admission import AdmissionController
from repro.service.batcher import EngineLane, EvaluateOutcome, SweepOutcome
from repro.service.client import (
    DseServiceClient,
    EvaluateReply,
    FrontUpdate,
    SweepReply,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    WIRE_LINE_LIMIT,
    BadRequestError,
    DeadlineExceededError,
    DesignRow,
    DesignRows,
    RemoteInternalError,
    ServiceError,
    ServiceOverloadError,
    ServiceShuttingDownError,
    decode_line,
    encode_message,
    error_for_code,
)
from repro.service.server import DseService

__all__ = [
    "DseService",
    "DseServiceClient",
    "EngineLane",
    "AdmissionController",
    "EvaluateOutcome",
    "SweepOutcome",
    "EvaluateReply",
    "SweepReply",
    "FrontUpdate",
    "DesignRow",
    "DesignRows",
    "PROTOCOL_VERSION",
    "WIRE_LINE_LIMIT",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceShuttingDownError",
    "DeadlineExceededError",
    "BadRequestError",
    "RemoteInternalError",
    "encode_message",
    "decode_line",
    "error_for_code",
]
