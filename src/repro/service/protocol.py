"""Wire protocol of the DSE service: JSON envelopes, binary column frames.

Every request or response event is one newline-terminated JSON object, the
**envelope**.  Control traffic (``hello``, ``ping``, ``stats``, sweep
specs, errors) is envelope-only, debuggable with ``nc`` and a pair of eyes.
Design rows never travel as JSON: an envelope that carries rows has a
``frame`` field with a byte count, and exactly that many bytes follow the
envelope's newline — one **column frame**:

    magic "WBSNWIRE" | version (4 LE) | SHA-256(block) | column block

The column block is the layout the persistent cache tier writes for its
segments (:func:`~repro.engine.persist.encode_column_block`: a JSON header,
then aligned little-endian arrays), framed by the same
:func:`~repro.engine.checkpoint.pack_blob` discipline, so one validator
covers disk and wire and float columns cross the socket **bitwise**
unchanged.  Rows are keyed by packed ``int64`` design ids (see
:func:`repro.dse.space.encode_ids`); the ``hello`` reply carries the
space's cardinalities so clients can pack and unpack them.  Columns per
message (see :data:`FRAME_COLUMNS`):

* an ``evaluate`` request: ``ids``;
* a ``front-update`` or a sweep ``result``: ``ids``, ``objectives``,
  ``feasible``, ``violation_counts``;
* an evaluate ``result``: those plus ``cached``.

Requests carry an ``op`` and a client-assigned ``id``; every response event
echoes the ``id`` and carries an ``event`` tag:

``result``
    the request's single terminal success event, with the op's payload;
``error``
    the terminal failure event, with a machine-readable ``code`` (see
    :data:`ERRORS_BY_CODE`) and a human-readable ``message`` — overload
    shedding, shutdown draining, deadline expiry, malformed requests and
    frames, and internal failures are all *typed*, never silent drops or
    bare disconnects;
``front-update``
    zero or more streaming events before a ``sweep``'s terminal event: the
    running non-dominated front after an absorbed chunk, plus the cursor of
    genotypes consumed.  Updates are conflated per request when the client
    reads slowly — only the newest unsent update survives — so a slow
    consumer can never wedge the service; terminal events are never
    conflated or dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.dse.space import decode_ids
from repro.engine.checkpoint import pack_blob, unpack_blob
from repro.engine.persist import decode_column_block, encode_column_block

__all__ = [
    "PROTOCOL_VERSION",
    "WIRE_LINE_LIMIT",
    "FRAME_COLUMNS",
    "REQUEST_COLUMNS",
    "ROW_COLUMNS",
    "REPLY_COLUMNS",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceShuttingDownError",
    "DeadlineExceededError",
    "BadRequestError",
    "RemoteInternalError",
    "ERRORS_BY_CODE",
    "error_for_code",
    "DesignRow",
    "DesignRows",
    "encode_message",
    "decode_line",
    "frame_length",
    "unpack_frame",
]

#: Bumped on any incompatible wire-format change; checked by both ends of
#: the ``hello`` handshake so a mismatched peer fails loudly, not subtly.
PROTOCOL_VERSION = 3

#: Bound on one envelope line and on one column frame, on both ends of the
#: connection.  16 MiB covers a ~300k-row evaluate reply while still
#: bounding a misbehaving peer.
WIRE_LINE_LIMIT = 16 * 1024 * 1024

#: Column frame magic; the frame's format version is :data:`PROTOCOL_VERSION`.
FRAME_MAGIC = b"WBSNWIRE"

#: Every column a frame may carry: name -> (little-endian dtype, rank).
FRAME_COLUMNS = {
    "ids": ("<i8", 1),
    "objectives": ("<f8", 2),
    "feasible": ("|b1", 1),
    "violation_counts": ("<i8", 1),
    "cached": ("|b1", 1),
}
#: Columns of an evaluate request.
REQUEST_COLUMNS = ("ids",)
#: Columns of a design-row frame: sweep results and front updates.
ROW_COLUMNS = ("ids", "objectives", "feasible", "violation_counts")
#: Columns of an evaluate reply.
REPLY_COLUMNS = ROW_COLUMNS + ("cached",)


class ServiceError(RuntimeError):
    """Base of the service's typed failures; ``code`` is the wire form."""

    code = "internal"


class ServiceOverloadError(ServiceError):
    """Admission shed the request: the service is over its high watermark."""

    code = "overload"


class ServiceShuttingDownError(ServiceError):
    """Admission refused the request: the service is draining for shutdown."""

    code = "shutting-down"


class DeadlineExceededError(ServiceError):
    """The request's deadline passed before its result could be served."""

    code = "deadline"


class BadRequestError(ServiceError):
    """The request was malformed (unparseable line or frame, bad args)."""

    code = "bad-request"


class RemoteInternalError(ServiceError):
    """The service failed internally while serving the request."""

    code = "internal"


#: Wire code -> exception type, for the client-side mapping.  Unknown codes
#: fall back to :class:`RemoteInternalError` (a newer server must still fail
#: typed on an older client).
ERRORS_BY_CODE: dict[str, type[ServiceError]] = {
    cls.code: cls
    for cls in (
        ServiceOverloadError,
        ServiceShuttingDownError,
        DeadlineExceededError,
        BadRequestError,
        RemoteInternalError,
    )
}


def error_for_code(code: str, message: str) -> ServiceError:
    """Rebuild the typed exception a wire error event describes."""
    return ERRORS_BY_CODE.get(code, RemoteInternalError)(message)


@dataclass(frozen=True)
class DesignRow:
    """One evaluated design, as tests and callers compare it.

    The tuple shapes mirror ``EvaluatedDesign``'s front signature —
    ``(genotype, objectives, feasible)`` plus the violation count — so a
    served front can be compared field-for-field (and bit-for-bit on the
    objective floats) with an in-process run's front.
    """

    genotype: tuple[int, ...]
    objectives: tuple[float, ...]
    feasible: bool
    violation_count: int

    @classmethod
    def from_wire(cls, payload: Any) -> "DesignRow":
        """Parse a ``[genotype, objectives, feasible, violation_count]``
        quadruple, :class:`BadRequestError` on junk."""
        try:
            genotype, objectives, feasible, violations = payload
            return cls(
                genotype=tuple(int(gene) for gene in genotype),
                objectives=tuple(float(value) for value in objectives),
                feasible=bool(feasible),
                violation_count=int(violations),
            )
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"malformed design row: {exc}") from exc


class DesignRows(Sequence[DesignRow]):
    """A read-only row view over the columns of a design-row frame.

    Holds the ``ids`` / ``objectives`` / ``feasible`` / ``violation_counts``
    columns and builds a :class:`DesignRow` only when one is indexed or
    iterated (genotypes are unpacked from the ids with the space's
    cardinalities).  Compares equal to any sequence of equal rows, a tuple
    of :class:`DesignRow` included.
    """

    __slots__ = ("columns", "cardinalities")

    def __init__(
        self, columns: Mapping[str, np.ndarray], cardinalities: Sequence[int]
    ) -> None:
        self.columns = {name: columns[name] for name in ROW_COLUMNS}
        self.cardinalities = tuple(int(value) for value in cardinalities)

    @property
    def ids(self) -> np.ndarray:
        return self.columns["ids"]

    @property
    def genotypes(self) -> np.ndarray:
        """The rows' gene-index matrix, unpacked from the ids."""
        return decode_ids(self.ids, self.cardinalities)

    @property
    def objectives(self) -> np.ndarray:
        return self.columns["objectives"]

    @property
    def feasible(self) -> np.ndarray:
        return self.columns["feasible"]

    @property
    def violation_counts(self) -> np.ndarray:
        return self.columns["violation_counts"]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return DesignRows(
                {name: column[index] for name, column in self.columns.items()},
                self.cardinalities,
            )
        position = range(len(self))[index]
        rows = self._rows(slice(position, position + 1))
        return next(rows)

    def __iter__(self) -> Iterator[DesignRow]:
        return self._rows(slice(None))

    def _rows(self, selection: slice) -> Iterator[DesignRow]:
        for genotype, objectives, feasible, violations in zip(
            decode_ids(self.ids[selection], self.cardinalities).tolist(),
            self.objectives[selection].tolist(),
            self.feasible[selection].tolist(),
            self.violation_counts[selection].tolist(),
        ):
            yield DesignRow(
                genotype=tuple(genotype),
                objectives=tuple(objectives),
                feasible=feasible,
                violation_count=violations,
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<DesignRows: {len(self)} rows>"


def encode_message(message: dict) -> bytes:
    """One protocol message as an envelope line, plus its column frame.

    A ``columns`` entry (a mapping of :data:`FRAME_COLUMNS` names to
    arrays) travels as the binary frame after the line, announced by the
    envelope's ``frame`` byte count; everything else is the JSON envelope.
    ``allow_nan=False`` keeps the envelope strict JSON — the engine never
    produces a NaN for it, so hitting this is a bug worth an exception, not
    a quietly corrupt stream.
    """
    columns = message.get("columns")
    frame = b""
    if columns is not None:
        spec = tuple((name, *FRAME_COLUMNS[name]) for name in columns)
        frame = pack_blob(
            FRAME_MAGIC, PROTOCOL_VERSION, encode_column_block(spec, columns)
        )
        message = {key: value for key, value in message.items() if key != "columns"}
        message["frame"] = len(frame)
    line = json.dumps(message, separators=(",", ":"), allow_nan=False) + "\n"
    return line.encode("utf-8") + frame


def decode_line(line: bytes) -> dict:
    """Parse one received envelope line into a message dict.

    Raises :class:`BadRequestError` on anything that is not a single JSON
    object — the server answers those with a typed error event rather than
    dropping the connection.
    """
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise BadRequestError(f"unparseable protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise BadRequestError(
            f"protocol line must be a JSON object, got {type(message).__name__}"
        )
    return message


def frame_length(message: dict) -> int | None:
    """The byte count of the frame following an envelope, if it has one.

    Raises :class:`BadRequestError` when the declared count is not an
    integer in ``[1, WIRE_LINE_LIMIT]``; the stream then cannot be
    re-framed, so the receiver must close the connection.
    """
    length = message.get("frame")
    if length is None:
        return None
    if (
        not isinstance(length, int)
        or isinstance(length, bool)
        or not 0 < length <= WIRE_LINE_LIMIT
    ):
        raise BadRequestError(
            f"frame length must be an integer in [1, {WIRE_LINE_LIMIT}], "
            f"got {length!r}"
        )
    return length


def unpack_frame(blob: bytes, names: Sequence[str]) -> dict[str, np.ndarray]:
    """Validate a column frame and return its ``names`` columns.

    Checks length, magic, version and checksum, then the column block's
    dtypes, ranks, bounds and row counts; any failure raises
    :class:`BadRequestError`.  The columns are read-only views into
    ``blob``.
    """
    what = "column frame"
    payload = unpack_blob(
        blob,
        magic=FRAME_MAGIC,
        version=PROTOCOL_VERSION,
        what=what,
        error=BadRequestError,
    )
    spec = tuple((name, *FRAME_COLUMNS[name]) for name in names)
    _header, columns = decode_column_block(
        payload, spec, what=what, error=BadRequestError
    )
    return columns
