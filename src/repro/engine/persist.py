"""Persistent cache tier: on-disk column segments for warm-start sweeps.

The engine's caches make repeated campaigns cheap *within* a process; this
module makes them cheap *across* processes.  Everything the engine knows
about a problem's evaluations — its id-keyed column store — can be spilled
to disk as one **segment per evaluation fingerprint** and bulk-loaded back
into a fresh engine, so a re-run of a sweep prunes cached columns without a
single model evaluation.

Segment contents are the raw column arrays the engine already speaks —
a genotype-index matrix, the penalised objective matrix, the feasibility and
violation-count columns — never pickled ``EvaluatedDesign`` objects: loading
is array deserialization plus one batch insert into the engine's column
store, spilling is one export of it merged by genotype with the stored
rows, and materialisation (when a caller wants objects at all) runs through
the usual phenotype lookup tables.  A spill reads, merges and rewrites its
segment under an exclusive ``flock`` of the cache directory, so writers
spilling one fingerprint at once — processes or threads — keep each
other's rows.

On-disk layout, sharing the checkpoint module's framing and durability
discipline (:func:`~repro.engine.checkpoint.pack_blob` /
:func:`~repro.engine.checkpoint.atomic_write_bytes` — unique tmp sibling,
fsync, atomic rename, directory fsync)::

    magic "WBSNCSEG" | version (4 LE) | SHA-256(payload) | payload
    payload = header length (4 LE) | header JSON | pad | array data

The JSON header records the evaluator fingerprint, the objective component
names, and per-array dtype/shape/offset; array data is raw little-endian
C-contiguous bytes at 64-byte-aligned offsets, so :func:`load_segment`
memory-maps the file and serves the arrays as zero-copy views.  The payload
layout is one **column block** (:func:`encode_column_block` /
:func:`decode_column_block`); the DSE service's wire frames carry the same
block, so disk and wire share one array format and one validator.

Validation mirrors the checkpoint rules: length, magic, version, checksum,
header parse, array bounds, cross-array row counts — every failure raises
:class:`CacheSegmentError`, which the warm-start path
(:func:`load_segment_if_valid`, and the engine's ``load_persistent_cache``)
converts into a :class:`CacheTierWarning` plus a cold start.  A segment can
accelerate a sweep or be ignored; it can never poison a front.

The serialized blob passes through the ``"cache-segment"`` mangle site of
:mod:`repro.engine.faults` on its way to disk (and fires
``"cache-segment-saved"`` after a successful write), so segment corruption
and kill-during-spill recovery are driven end to end by the fault-injection
suite.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.engine import faults
from repro.engine.cache import component_columns, component_merge
from repro.engine.checkpoint import atomic_write_bytes, pack_blob, unpack_blob

__all__ = [
    "SEGMENT_VERSION",
    "CacheSegmentError",
    "CacheTierWarning",
    "CacheSegment",
    "encode_column_block",
    "decode_column_block",
    "list_segments",
    "prune_cache_dir",
    "remove_orphaned_tmp_siblings",
    "segment_path",
    "save_segment",
    "load_segment",
    "load_segment_if_valid",
    "spill_columns",
]

#: File magic — identifies a WBSN cache segment before any parsing.
SEGMENT_MAGIC = b"WBSNCSEG"
#: On-disk format version; bump on any incompatible layout change.
SEGMENT_VERSION = 1
#: Segment file extension (the stem is the full evaluation fingerprint hex).
SEGMENT_SUFFIX = ".wbsncache"
#: Array data is laid out at offsets aligned to this many bytes, so the
#: memory-mapped views are alignment-friendly for every stored dtype.
_ALIGN = 64

#: (name, canonical little-endian dtype, expected rank) of the stored
#: columns, in on-disk order.
_COLUMNS = (
    ("genotypes", "<i8", 2),
    ("objectives", "<f8", 2),
    ("feasible", "|b1", 1),
    ("violation_counts", "<i8", 1),
)


class CacheSegmentError(RuntimeError):
    """A cache segment failed validation (corrupt, truncated, foreign)."""


class CacheTierWarning(UserWarning):
    """An unusable cache segment was ignored and the sweep started cold."""


@dataclass(frozen=True)
class CacheSegment:
    """One fingerprint's worth of persisted column rows.

    Attributes:
        fingerprint: the evaluation fingerprint the rows were computed
            under (see ``WbsnDseProblem.evaluation_fingerprint``).
        components: objective component names of the stored matrix columns.
        genotypes: gene-index rows, shape ``(rows, genes)``, ``int64``.
        objectives: penalised objective matrix, shape ``(rows, n_obj)``.
        feasible: per-row feasibility flags.
        violation_counts: violated model constraints per row.

    Arrays loaded from disk are read-only views into the segment's memory
    map; copy before mutating.
    """

    fingerprint: bytes
    components: tuple[str, ...]
    genotypes: np.ndarray
    objectives: np.ndarray
    feasible: np.ndarray
    violation_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.genotypes)

    def project(self, components: tuple[str, ...]) -> np.ndarray | None:
        """The objective matrix projected onto a requested component order.

        The persistent tier follows the shared cache's keying rule: stored
        rows may serve a problem whose components are a subset of the
        stored ones, as a pure column selection/reordering of already
        computed floats (the infeasibility penalty is per-component, so
        penalised vectors project exactly).  Returns ``None`` when the
        request is not a subset — a miss is always safe.
        """
        if components == self.components:
            return self.objectives
        columns = component_columns(self.components, components)
        return None if columns is None else self.objectives[:, columns]


def encode_column_block(
    columns: tuple[tuple[str, str, int], ...],
    arrays: Mapping[str, np.ndarray],
    **meta: object,
) -> bytes:
    """Serialize named column arrays into one self-describing block.

    ``columns`` lists ``(name, little-endian dtype, rank)`` in storage
    order.  The block is a JSON header — ``meta`` plus the row count and
    each array's dtype, shape and offset — followed by the raw C-contiguous
    array bytes at ``_ALIGN``-byte-aligned offsets, so
    :func:`decode_column_block` can serve the arrays as zero-copy views.
    Cache segments and the DSE service's wire frames share this layout.
    """
    arrays = {
        name: np.ascontiguousarray(arrays[name], dtype=dtype)
        for name, dtype, _ in columns
    }
    header = dict(meta, rows=len(arrays[columns[0][0]]), arrays={})
    offset = 0
    for name, array in arrays.items():
        header["arrays"][name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
        }
        offset += array.nbytes + (-array.nbytes) % _ALIGN
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = len(header_bytes).to_bytes(4, "little") + header_bytes
    chunks = [prefix, b"\x00" * ((-len(prefix)) % _ALIGN)]
    for array in arrays.values():
        data = array.tobytes()
        chunks.append(data)
        chunks.append(b"\x00" * ((-len(data)) % _ALIGN))
    return b"".join(chunks)


def decode_column_block(
    payload: bytes | memoryview,
    columns: tuple[tuple[str, str, int], ...],
    *,
    what: str,
    error: type[Exception],
) -> tuple[dict, dict[str, np.ndarray]]:
    """Validate a column block and return ``(header, arrays)``.

    Every column in ``columns`` must be described with exactly its dtype
    and rank, lie inside the payload, and agree with the others on the row
    count; any failure raises ``error`` worded with ``what``.  The arrays
    are read-only views into ``payload``.
    """
    try:
        header_size = int.from_bytes(payload[:4], "little")
        header = json.loads(bytes(payload[4 : 4 + header_size]).decode("utf-8"))
        described = header["arrays"]
    except Exception as exc:
        raise error(f"{what} has an unparseable header: {exc}") from exc

    data_start = 4 + header_size + (-(4 + header_size)) % _ALIGN
    arrays: dict[str, np.ndarray] = {}
    for name, expected_dtype, expected_rank in columns:
        try:
            entry = described[name]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(dim) for dim in entry["shape"])
            offset = data_start + int(entry["offset"])
        except Exception as exc:
            raise error(f"{what} describes no usable '{name}' array: {exc}") from exc
        if dtype.str != expected_dtype or len(shape) != expected_rank:
            raise error(
                f"{what} stores '{name}' as {entry['dtype']}{list(shape)}, "
                f"expected {expected_dtype} of rank {expected_rank}"
            )
        count = math.prod(shape)
        if (
            min(shape) < 0
            or offset < 0
            or offset + count * dtype.itemsize > len(payload)
        ):
            raise error(f"{what}'s '{name}' array lies outside the payload")
        try:
            array = np.frombuffer(
                payload, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
        except (ValueError, OverflowError) as exc:
            raise error(f"{what}'s '{name}' array is unusable: {exc}") from exc
        array.flags.writeable = False
        arrays[name] = array

    rows = {name: len(array) for name, array in arrays.items()}
    rows["header"] = header.get("rows")
    if len(set(rows.values())) > 1:
        raise error(f"{what}'s columns have mismatched row counts ({rows})")
    return header, arrays


def segment_path(cache_dir: str | Path, fingerprint: bytes) -> Path:
    """The segment file a fingerprint maps to inside a cache directory."""
    return Path(cache_dir) / f"{fingerprint.hex()}{SEGMENT_SUFFIX}"


def list_segments(cache_dir: str | Path) -> list[Path]:
    """The segment files present in a cache directory, sorted by name.

    Only well-formed segment names count — a hex fingerprint stem plus the
    segment suffix; temporaries, foreign files and subdirectories are
    ignored.  A missing directory is an empty listing, not an error (the
    first run against a cache directory has nothing to list).
    """
    directory = Path(cache_dir)
    if not directory.is_dir():
        return []
    segments = []
    for path in sorted(directory.iterdir()):
        if not path.is_file() or path.suffix != SEGMENT_SUFFIX:
            continue
        try:
            bytes.fromhex(path.stem)
        except ValueError:
            continue
        segments.append(path)
    return segments


def prune_cache_dir(
    cache_dir: str | Path,
    *,
    max_bytes: int | None = None,
    max_age_s: float | None = None,
    keep: tuple[str | Path, ...] | list[str | Path] = (),
) -> list[Path]:
    """Garbage-collect a cache directory down to a size/age budget.

    Long-running campaigns accrete one segment per evaluation fingerprint;
    this removes the stalest ones (oldest modification time first) until the
    directory fits the budget:

    * ``max_age_s`` — segments whose mtime is older than this many seconds
      are removed outright;
    * ``max_bytes`` — after the age pass, the oldest remaining segments are
      removed until the directory's total segment bytes fit the budget;
    * ``keep`` — segment paths that are never removed, whatever the budget:
      callers pass the segments a live engine has loaded (its arrays may be
      zero-copy views into those files).  Kept segments still count toward
      ``max_bytes``, so a budget smaller than the kept set removes every
      unkept segment but no more.

    Orphaned atomic-write temporaries are swept first (they are dead bytes
    either way).  Unlink races with concurrent pruners are tolerated; a
    missing directory is a no-op.  Returns the removed segment paths.
    """
    if max_bytes is not None and max_bytes < 0:
        raise ValueError("max_bytes must be non-negative")
    if max_age_s is not None and max_age_s < 0:
        raise ValueError("max_age_s must be non-negative")
    directory = Path(cache_dir)
    if not directory.is_dir():
        return []
    for path in list_segments(directory):
        remove_orphaned_tmp_siblings(path)
    kept = {Path(path).resolve() for path in keep}

    entries: list[tuple[float, int, Path]] = []  # (mtime, size, path)
    total = 0
    for path in list_segments(directory):
        try:
            stat = path.stat()
        except OSError:
            continue  # unlinked (or unreadable) under us: nothing to budget
        total += stat.st_size
        if path.resolve() not in kept:
            entries.append((stat.st_mtime, stat.st_size, path))
    entries.sort()  # oldest first

    removed: list[Path] = []

    def _remove(size: int, path: Path) -> None:
        nonlocal total
        try:
            path.unlink()
        except FileNotFoundError:
            pass  # a concurrent pruner got there first; budget it gone too
        except OSError:
            return  # hygiene is best-effort, never a failure
        total -= size
        removed.append(path)

    if max_age_s is not None:
        cutoff = time.time() - max_age_s
        survivors = []
        for mtime, size, path in entries:
            if mtime < cutoff:
                _remove(size, path)
            else:
                survivors.append((mtime, size, path))
        entries = survivors

    if max_bytes is not None:
        for mtime, size, path in entries:
            if total <= max_bytes:
                break
            _remove(size, path)

    return removed


def _pid_alive(pid: int) -> bool:
    """Whether a pid names a running process (signal-0 probe)."""
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        # Exists but isn't ours (or the probe is unsupported): assume alive.
        return True
    return True


def remove_orphaned_tmp_siblings(path: str | Path) -> list[Path]:
    """Remove a segment's orphaned ``*.tmp`` siblings; returns what went.

    The atomic-write protocol names its temporaries
    ``<segment>.<pid>.<counter>.tmp`` and always unlinks them — except when
    the writing process dies between the tmp write and the rename.  Those
    orphans are dead bytes (the unique-name scheme never reuses them), so
    the load path sweeps them out.  A temporary whose embedded pid still
    names a live process is left alone: that is a concurrent writer's
    in-flight file, not an orphan.  Unlink races are tolerated (two loaders
    may sweep the same directory).
    """
    path = Path(path)
    removed: list[Path] = []
    for tmp in path.parent.glob(f"{path.name}.*.tmp"):
        middle = tmp.name[len(path.name) + 1 : -len(".tmp")]
        pid_text, _, counter = middle.partition(".")
        if not (pid_text.isdigit() and counter.isdigit()):
            continue  # not the atomic-write naming scheme; leave it be
        if _pid_alive(int(pid_text)):
            continue
        try:
            tmp.unlink()
        except FileNotFoundError:
            continue  # a concurrent sweep got there first
        except OSError:
            continue  # hygiene is best-effort, never a load failure
        removed.append(tmp)
    return removed


def save_segment(
    cache_dir: str | Path,
    *,
    fingerprint: bytes,
    components: tuple[str, ...],
    genotypes: np.ndarray,
    objectives: np.ndarray,
    feasible: np.ndarray,
    violation_counts: np.ndarray,
) -> Path:
    """Serialize column arrays into a fingerprint's segment file.

    The write is atomic and durably ordered (see
    :func:`~repro.engine.checkpoint.atomic_write_bytes`); the cache
    directory is created on demand.  Rows are sorted by genotype before
    serialization, keeping the first row of a repeated genotype, so equal
    row sets produce byte-identical segments regardless of insertion order.
    """
    arrays = {
        name: np.ascontiguousarray(array, dtype=dtype)
        for (name, dtype, _), array in zip(
            _COLUMNS, (genotypes, objectives, feasible, violation_counts)
        )
    }
    counts = {name: len(array) for name, array in arrays.items()}
    if len(set(counts.values())) > 1:
        raise ValueError(f"column arrays disagree on the row count: {counts}")
    if len(arrays["objectives"]) and arrays["objectives"].shape[1] != len(components):
        raise ValueError(
            f"objective matrix has {arrays['objectives'].shape[1]} columns "
            f"for {len(components)} components"
        )
    if counts["genotypes"]:
        # One stable sort orders the rows and leads each genotype's run with
        # its first row; each column is gathered once, dropping the repeats.
        order = np.lexsort(arrays["genotypes"].T[::-1])
        genotypes = arrays["genotypes"][order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (genotypes[1:] != genotypes[:-1]).any(axis=1)
        if not first.all():
            order, genotypes = order[first], genotypes[first]
        arrays = {
            name: genotypes if name == "genotypes" else array[order]
            for name, array in arrays.items()
        }
    payload = encode_column_block(
        _COLUMNS,
        arrays,
        fingerprint=fingerprint.hex(),
        components=list(components),
    )

    blob = pack_blob(SEGMENT_MAGIC, SEGMENT_VERSION, payload)
    # Fault-injection seam: tests corrupt/truncate the blob here to prove
    # the warm-start path falls back to a cold start.
    blob = faults.maybe_mangle("cache-segment", blob)
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = segment_path(directory, fingerprint)
    atomic_write_bytes(path, blob)
    faults.maybe_fire("cache-segment-saved")
    return path


def load_segment(path: str | Path) -> CacheSegment:
    """Memory-map and validate a segment, raising :class:`CacheSegmentError`.

    Validation order: length, magic, version, checksum, header parse, array
    bounds, cross-array row counts — each failure names what went wrong.
    The returned arrays are read-only zero-copy views into the file's
    memory map (the map stays alive as long as the arrays do).
    """
    path = Path(path)
    what = f"cache segment '{path}'"
    try:
        with open(path, "rb") as handle:
            try:
                buffer: memoryview | bytes = memoryview(
                    mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                )
            except (OSError, ValueError):
                # Empty or unmappable files still get the full validation
                # story (an empty file is "truncated", not a crash).
                buffer = handle.read()
    except OSError as exc:
        raise CacheSegmentError(f"{what} is unreadable: {exc}") from exc
    payload = unpack_blob(
        buffer,
        magic=SEGMENT_MAGIC,
        version=SEGMENT_VERSION,
        what=what,
        error=CacheSegmentError,
    )
    header, arrays = decode_column_block(
        payload, _COLUMNS, what=what, error=CacheSegmentError
    )
    try:
        fingerprint = bytes.fromhex(header["fingerprint"])
        components = tuple(str(name) for name in header["components"])
    except Exception as exc:
        raise CacheSegmentError(f"{what} has an unparseable header: {exc}") from exc
    if len(arrays["objectives"]) and arrays["objectives"].shape[1] != len(
        components
    ):
        raise CacheSegmentError(
            f"{what} stores {arrays['objectives'].shape[1]} objective columns "
            f"for {len(components)} components"
        )
    return CacheSegment(
        fingerprint=fingerprint,
        components=components,
        genotypes=arrays["genotypes"],
        objectives=arrays["objectives"],
        feasible=arrays["feasible"],
        violation_counts=arrays["violation_counts"],
    )


def load_segment_if_valid(
    path: str | Path, *, fingerprint: bytes | None
) -> CacheSegment | None:
    """Warm-start-side loader: a usable segment or ``None`` (cold start).

    A missing file is a silent ``None`` (first run against this cache
    directory).  A file that fails validation, or whose stored fingerprint
    differs from the requesting problem's, emits a
    :class:`CacheTierWarning` and returns ``None`` — serving rows computed
    under different evaluation semantics would poison the front.

    Cache-dir hygiene rides along: orphaned ``*.tmp`` siblings left by
    writers that died mid-atomic-write are removed before the segment is
    touched (see :func:`remove_orphaned_tmp_siblings`).
    """
    path = Path(path)
    remove_orphaned_tmp_siblings(path)
    if not path.exists():
        return None
    try:
        segment = load_segment(path)
    except CacheSegmentError as exc:
        warnings.warn(
            f"ignoring unusable cache segment: {exc}; starting cold",
            CacheTierWarning,
            stacklevel=2,
        )
        return None
    if fingerprint is None or segment.fingerprint != fingerprint:
        warnings.warn(
            f"ignoring cache segment '{path}': evaluator fingerprint does "
            "not match the requesting problem; starting cold",
            CacheTierWarning,
            stacklevel=2,
        )
        return None
    return segment


def spill_columns(
    cache_dir: str | Path,
    *,
    fingerprint: bytes,
    components: tuple[str, ...],
    genotypes: np.ndarray,
    objectives: np.ndarray,
    feasible: np.ndarray,
    violation_counts: np.ndarray,
) -> Path | None:
    """Spill column rows into a fingerprint's segment, merging what's there.

    Rows are keyed by genotype, and the first of repeated new rows is kept.
    The spilled components join an existing valid segment's by the shared
    cache's rule (:func:`~repro.engine.cache.component_merge`): equal
    component sets union the rows (the new rows win on conflicts — both
    sides computed the same floats, so the choice is cosmetic); a *richer*
    spill replaces the segment outright (narrow rows cannot be widened);
    a narrower or incomparable spill is a no-op — the stored segment keeps
    serving both problems by projection, or the first writer wins.  An
    existing invalid segment is warned about (:class:`CacheTierWarning`)
    and overwritten.

    The read, the merge and the write run under an exclusive lock on the
    cache directory (:func:`_directory_lock`), so concurrent spills into one
    segment — from other processes or threads — each merge the rows the
    previous one wrote instead of dropping them.

    Returns the segment path, or ``None`` when there was nothing to write.
    """
    if not len(genotypes):
        return None
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = segment_path(directory, fingerprint)
    columns = (genotypes, objectives, feasible, violation_counts)
    with _directory_lock(directory):
        existing = (
            load_segment_if_valid(path, fingerprint=fingerprint)
            if path.exists()
            else None
        )
        rule = component_merge(
            None if existing is None else existing.components, components
        )
        if rule == "keep":
            return path
        if rule == "union" and len(existing):
            old = (
                existing.genotypes,
                existing.objectives,
                existing.feasible,
                existing.violation_counts,
            )
            columns = tuple(map(np.concatenate, zip(columns, old)))
        genotypes, objectives, feasible, violation_counts = columns
        # ``save_segment`` sorts by genotype and keeps each genotype's first
        # row.
        return save_segment(
            directory,
            fingerprint=fingerprint,
            components=components,
            genotypes=genotypes,
            objectives=objectives,
            feasible=feasible,
            violation_counts=violation_counts,
        )


@contextlib.contextmanager
def _directory_lock(directory: Path) -> Iterator[None]:
    """Hold an exclusive advisory ``flock`` on the cache directory itself.

    The lock lives on a descriptor of the directory, so no lock file ever
    appears among the segments.  ``flock`` locks belong to the open file
    description, so two threads of one process exclude each other as well
    as two processes do.  Closing the descriptor releases the lock; on
    platforms without ``fcntl`` the block runs unlocked.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX)
        yield
    finally:
        os.close(descriptor)
