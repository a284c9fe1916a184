"""Atomic, versioned, checksummed checkpoints for resumable sweeps.

A long exhaustive/random sweep that dies — OOM-killed worker host, SIGKILL,
power loss — should not lose hours of evaluation.  The columnar sweeps
periodically persist their running state through this module and
``run_algorithm(checkpoint_path=...)`` resumes an interrupted sweep to a
front *bitwise identical* to an uninterrupted run.

The on-disk format is deliberately paranoid, the validation pattern the
ROADMAP wants for the persistent cache tier:

* **atomic** — the blob is written to a uniquely named sibling temporary
  file (pid + counter, so concurrent writers to one path cannot clobber
  each other's tmp) and ``os.replace``'d over the target, so a crash
  mid-write leaves either the previous checkpoint or none, never a torn
  one; the parent directory is fsynced after the rename (best effort) so
  the new entry survives a crash;
* **versioned** — an 8-byte magic plus a little-endian format version; a
  mismatch (foreign file, incompatible writer) is rejected before any
  payload byte is touched;
* **checksummed** — a SHA-256 digest over the payload; a single flipped or
  missing byte fails validation.

Every validation failure raises :class:`CheckpointError`;
:func:`load_checkpoint_if_valid` converts it (and stale-context mismatches:
wrong algorithm, wrong space size, wrong evaluator fingerprint) into a
:class:`CheckpointWarning` plus a ``None`` return, so sweeps degrade to a
cold start instead of resuming from a lie.

The serialized blob passes through the ``"checkpoint"`` mangle site of
:mod:`repro.engine.faults` on its way to disk, so the corruption handling
above is driven end to end by the fault-injection suite.

The atomic-write and header framing primitives are exposed as
:func:`atomic_write_bytes` / :func:`pack_blob` / :func:`unpack_blob`;
the persistent cache tier (:mod:`repro.engine.persist`) writes its
segments through the same helpers, so both file formats share one
durability and validation discipline.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.engine import faults

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointWarning",
    "SweepCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_if_valid",
    "atomic_write_bytes",
    "pack_blob",
    "unpack_blob",
]

#: File magic — identifies a WBSN sweep checkpoint before any parsing.
MAGIC = b"WBSNCKPT"
#: On-disk format version; bump on any incompatible layout change.
CHECKPOINT_VERSION = 1
_DIGEST = hashlib.sha256
_DIGEST_SIZE = _DIGEST().digest_size
_HEADER_SIZE = len(MAGIC) + 4 + _DIGEST_SIZE

#: Process-wide counter making concurrent temporary names distinct (two
#: sweeps checkpointing to the same path must not clobber each other's
#: tmp file mid-write; see :func:`atomic_write_bytes`).
_TMP_COUNTER = itertools.count()


def _tmp_sibling(path: Path) -> Path:
    """A unique same-directory temporary name for an atomic write.

    Uniqueness combines the writer's pid (two *processes* targeting one
    path) with a process-wide counter (two *threads*, or interleaved saves,
    within one process) — a fixed sibling name would let concurrent writers
    truncate each other's half-written blob before the rename.
    """
    return path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")


def _fsync_directory(path: Path) -> None:
    """Best-effort fsync of a directory after a rename into it.

    ``os.replace`` makes the rename atomic, but on journaled-metadata-lazy
    filesystems the *directory entry* may not be durable until the directory
    itself is synced — without this, a crash right after a checkpoint save
    can lose the file the caller was told is safely on disk.  Platforms (or
    filesystems) that cannot fsync a directory fd are tolerated silently:
    the write is still atomic, just not durably ordered.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, blob: bytes) -> None:
    """Write a blob atomically: unique tmp sibling, fsync, rename, dir fsync.

    The temporary file lives next to the target so the ``os.replace`` is a
    same-filesystem atomic rename; its name is unique per (pid, write) so
    concurrent writers to one target path cannot clobber each other's
    tmp mid-write.  On any failure the temporary is removed and the previous
    file (if any) is left untouched.  After the rename the parent directory
    is fsynced (best effort) so the new entry survives a crash.
    """
    path = Path(path)
    tmp = _tmp_sibling(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    _fsync_directory(path.parent)


def pack_blob(magic: bytes, version: int, payload: bytes) -> bytes:
    """Frame a payload with the shared header discipline.

    Layout: ``magic + version (4 bytes little-endian) + SHA-256(payload) +
    payload`` — the format both the checkpoint files and the persistent
    cache segments share, so one validator (:func:`unpack_blob`) covers
    both.
    """
    return magic + version.to_bytes(4, "little") + _DIGEST(payload).digest() + payload


def unpack_blob(
    blob: bytes,
    *,
    magic: bytes,
    version: int,
    what: str,
    error: type[Exception],
) -> bytes:
    """Validate a framed blob and return its payload.

    Validation order: length, magic, version, checksum — each failure names
    what went wrong through ``error`` (worded with ``what``, e.g.
    ``"checkpoint 'path'"``), so callers surface one exception type no
    matter how the file was damaged.
    """
    header_size = len(magic) + 4 + _DIGEST_SIZE
    if len(blob) < header_size:
        raise error(
            f"{what} is truncated ({len(blob)} bytes < {header_size}-byte header)"
        )
    if blob[: len(magic)] != magic:
        raise error(f"{what} has a foreign file magic")
    found = int.from_bytes(blob[len(magic) : len(magic) + 4], "little")
    if found != version:
        raise error(
            f"{what} has format version {found}, this reader expects {version}"
        )
    digest = blob[len(magic) + 4 : header_size]
    payload = blob[header_size:]
    if _DIGEST(payload).digest() != digest:
        raise error(
            f"{what} failed its integrity check "
            "(payload does not match the stored checksum)"
        )
    return payload


class CheckpointError(RuntimeError):
    """A checkpoint file failed validation (corrupt, truncated, foreign)."""


class CheckpointWarning(UserWarning):
    """An unusable checkpoint was ignored and the sweep cold-started."""


@dataclass
class SweepCheckpoint:
    """Resumable state of a chunked columnar sweep.

    Attributes:
        algorithm: name of the writing algorithm (``"exhaustive"`` /
            ``"random-search"``); a resume under a different algorithm is a
            context mismatch, not a corruption.
        space_size: design-space size the sweep iterates — genotype
            enumeration order is deterministic, so together with ``cursor``
            it pins exactly which genotypes are already absorbed.
        cursor: number of genotypes already consumed from the sweep's
            deterministic genotype stream.
        any_feasible: whether the running archive has seen a feasible
            design (the archive-reset flag of the sweeps' semantics).
        genotypes: archive gene-index rows, shape ``(front, genes)``.
        objectives: archive objective matrix, shape ``(front, n_obj)``.
        feasible: archive per-row feasibility flags.
        violation_counts: archive per-row violation counts.
        rng_state: the RNG state a stochastic sweep must restore to redraw
            its sample stream identically (``None`` for exhaustive sweeps).
        fingerprint: the problem's evaluation fingerprint at save time
            (``None`` when the problem offers none) — resuming against a
            problem that evaluates differently would splice incompatible
            fronts.
        extra: algorithm-specific context (validated by the algorithm).
    """

    algorithm: str
    space_size: int
    cursor: int
    any_feasible: bool
    genotypes: np.ndarray
    objectives: np.ndarray
    feasible: np.ndarray
    violation_counts: np.ndarray
    rng_state: Any = None
    fingerprint: bytes | None = None
    extra: dict[str, Any] = field(default_factory=dict)


#: The types a loaded checkpoint's fields must have: Python types, or the
#: rank of an ``ndarray`` (``bool`` is never accepted as an ``int``).
_FIELD_TYPES: dict[str, tuple[type, ...] | int] = {
    "algorithm": (str,),
    "space_size": (int,),
    "cursor": (int,),
    "any_feasible": (bool,),
    "genotypes": 2,
    "objectives": 2,
    "feasible": 1,
    "violation_counts": 1,
    "rng_state": (dict, type(None)),
    "fingerprint": (bytes, type(None)),
    "extra": (dict,),
}


def save_checkpoint(path: str | Path, checkpoint: SweepCheckpoint) -> None:
    """Persist a checkpoint atomically (write-temporary, then rename).

    The write goes through :func:`atomic_write_bytes`: unique temporary
    sibling, fsync, atomic rename, best-effort directory fsync — a crash
    mid-write leaves either the previous checkpoint or none, never a torn
    one, and a crash right after the save cannot lose the rename.
    """
    path = Path(path)
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    blob = pack_blob(MAGIC, CHECKPOINT_VERSION, payload)
    # Fault-injection seam: tests corrupt/truncate the blob here to prove
    # the load-side validation catches it.
    blob = faults.maybe_mangle("checkpoint", blob)
    atomic_write_bytes(path, blob)


def load_checkpoint(path: str | Path) -> SweepCheckpoint:
    """Load and validate a checkpoint, raising :class:`CheckpointError`.

    Validation order: length, magic, version, checksum, payload unpickle,
    then every field's presence, type and array rank — each failure names
    what went wrong; none of them can crash the caller with anything but
    :class:`CheckpointError`.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"checkpoint '{path}' is unreadable: {exc}") from exc
    payload = unpack_blob(
        blob,
        magic=MAGIC,
        version=CHECKPOINT_VERSION,
        what=f"checkpoint '{path}'",
        error=CheckpointError,
    )
    try:
        checkpoint = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointError(
            f"checkpoint '{path}' payload does not deserialize: {exc}"
        ) from exc
    if not isinstance(checkpoint, SweepCheckpoint):
        raise CheckpointError(
            f"checkpoint '{path}' holds a {type(checkpoint).__name__}, "
            "not a SweepCheckpoint"
        )
    state = vars(checkpoint)
    for name, expected in _FIELD_TYPES.items():
        if name not in state:
            raise CheckpointError(f"checkpoint '{path}' lacks its '{name}' field")
        value = state[name]
        if isinstance(expected, int):
            valid = isinstance(value, np.ndarray) and value.ndim == expected
        else:
            valid = isinstance(value, expected) and (
                bool in expected or not isinstance(value, bool)
            )
        if not valid:
            rank = f" of rank {value.ndim}" if isinstance(value, np.ndarray) else ""
            raise CheckpointError(
                f"checkpoint '{path}' stores its '{name}' field as a "
                f"{type(value).__name__}{rank}"
            )
    return checkpoint


def load_checkpoint_if_valid(
    path: str | Path,
    *,
    algorithm: str,
    space_size: int,
    fingerprint: bytes | None,
) -> SweepCheckpoint | None:
    """Resume-side loader: a usable checkpoint or ``None`` (cold start).

    A missing file is a silent ``None`` (first run of a checkpointed
    sweep).  A file that fails validation, that was written by a different
    algorithm / for a different design space / under a different evaluator
    fingerprint, or whose state is internally inconsistent (a cursor past
    the space, archive columns with mismatched row counts), emits a
    :class:`CheckpointWarning` and returns ``None`` — resuming from it
    would poison the front.  So does any checkpoint when the resuming
    problem offers no fingerprint (``None``): nothing then proves the file
    was written for the same problem.
    """
    path = Path(path)
    if not path.exists():
        return None
    if fingerprint is None:
        warnings.warn(
            f"ignoring checkpoint '{path}': the resuming problem offers no "
            "evaluation fingerprint to match it against; starting cold",
            CheckpointWarning,
            stacklevel=2,
        )
        return None
    try:
        checkpoint = load_checkpoint(path)
    except CheckpointError as exc:
        warnings.warn(
            f"ignoring unusable checkpoint: {exc}; starting cold",
            CheckpointWarning,
            stacklevel=2,
        )
        return None
    mismatch: str | None = None
    if checkpoint.algorithm != algorithm:
        mismatch = (
            f"written by algorithm '{checkpoint.algorithm}', "
            f"resuming '{algorithm}'"
        )
    elif checkpoint.space_size != space_size:
        mismatch = (
            f"written for a {checkpoint.space_size}-design space, "
            f"this sweep iterates {space_size}"
        )
    elif checkpoint.fingerprint != fingerprint:
        mismatch = "evaluator fingerprint changed since it was written"
    else:
        mismatch = _consistency_error(checkpoint)
    if mismatch is not None:
        warnings.warn(
            f"ignoring checkpoint '{path}': {mismatch}; starting cold",
            CheckpointWarning,
            stacklevel=2,
        )
        return None
    return checkpoint


def _consistency_error(checkpoint: SweepCheckpoint) -> str | None:
    """Internal sanity check of a structurally valid checkpoint.

    A checksum only proves the file holds what its writer serialized — it
    cannot catch a writer that serialized nonsense (or a hand-edited
    pickle).  Resuming from a cursor past the space would silently skip
    genotypes; archive columns of different lengths would splice rows from
    different designs.  Both cold-start instead.
    """
    if checkpoint.cursor < 0 or checkpoint.cursor > checkpoint.space_size:
        return (
            f"its cursor ({checkpoint.cursor}) lies outside the "
            f"{checkpoint.space_size}-design space"
        )
    lengths = {
        "genotypes": len(checkpoint.genotypes),
        "objectives": len(checkpoint.objectives),
        "feasible": len(checkpoint.feasible),
        "violation_counts": len(checkpoint.violation_counts),
    }
    if len(set(lengths.values())) > 1:
        described = ", ".join(f"{name}={count}" for name, count in lengths.items())
        return f"its archive columns have mismatched row counts ({described})"
    return None
