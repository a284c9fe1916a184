"""Caching building blocks of the evaluation engine.

Two caches live here:

* :class:`ColumnStore` — the engine's memo of raw column rows, keyed by
  packed design ids and operated on whole batches at a time;
* :class:`SharedGenotypeCache` — cross-problem column rows, one
  :class:`ColumnStore` per evaluator fingerprint, letting problems that
  share evaluation semantics but differ in objective sets (the Figure-5
  full/baseline pair) serve each other's computed rows.
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Literal

import numpy as np

__all__ = ["ColumnStore", "SharedGenotypeCache"]

#: Recency stamp of a dead (evicted) arena slot: never the least recent.
_DEAD = np.iinfo(np.int64).max

#: Largest design space a :class:`ColumnStore` indexes with a direct-address
#: table (one ``int32`` per design id: 4 MB at this size) instead of a
#: ``dict``.  It covers every space ``ExhaustiveSearch`` sweeps below its
#: 200,000-design warning; larger spaces keep the ``dict``.
TABLE_LIMIT = 2**20


class _DictIndex:
    """Design key -> arena slot in a ``dict``: any exact integer key."""

    kind = "dict"

    def __init__(self) -> None:
        self._slots: dict[int, int] = {}

    def find(self, keys: np.ndarray) -> np.ndarray:
        slots = map(self._slots.get, keys.tolist(), repeat(-1))
        return np.fromiter(slots, dtype=np.int64, count=len(keys))

    def assign(self, keys: np.ndarray, first: int) -> None:
        self._slots.update(zip(keys.tolist(), count(first)))

    def drop(self, keys: np.ndarray) -> None:
        for key in keys.tolist():
            del self._slots[key]


class _TableIndex:
    """Design id -> arena slot in a direct-address table of ``slot + 1``
    (``0``: absent), one ``int32`` per id of a space of ``size`` designs:
    every operation is one gather or one scatter."""

    kind = "table"

    def __init__(self, size: int) -> None:
        self._table = np.zeros(size, dtype=np.int32)

    def find(self, keys: np.ndarray) -> np.ndarray:
        return np.subtract(self._table[keys], 1, dtype=np.intp)

    def assign(self, keys: np.ndarray, first: int) -> None:
        self._table[keys] = np.arange(first + 1, first + 1 + len(keys))

    def drop(self, keys: np.ndarray) -> None:
        self._table[keys] = 0


class ColumnStore:
    """Column rows of computed designs, keyed by design id, one batch at a time.

    An append-only arena of columns — design key, penalised objectives,
    feasibility, violation counts and a from-disk flag — plus an index from
    design key to arena slot.  A store given a ``space_size`` of at most
    :data:`TABLE_LIMIT` designs indexes ``int64`` design ids with a
    direct-address table, so a lookup is one gather and an insert, an
    eviction or a compaction one scatter; any other store keeps a ``dict``
    of exact Python ints (the packed design ids of
    :meth:`~repro.dse.space.DesignSpace.design_keys`, spaces beyond
    ``int64`` ids included).  Every operation takes a whole batch — a key
    array — and runs its per-row work at C level; inserts append, so a
    batch never copies the store.

    Args:
        max_entries: optional LRU bound.  A :meth:`lookup` hit refreshes a
            row's recency; after every :meth:`insert` the least recently
            used rows beyond the bound are evicted (and counted by the
            caller from the return value).  Evicted slots are reclaimed by
            compacting the arena once they outnumber the live rows.
            ``None`` keeps the store unbounded.
        space_size: number of designs of the space the keys are ids of
            (keys must lie in ``[0, space_size)``), which picks the index;
            ``None`` for a ``dict``.
    """

    def __init__(
        self, max_entries: int | None = None, space_size: int | None = None
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self._space_size = space_size
        self.clear()

    def __len__(self) -> int:
        return self._used - self._dead

    @property
    def index_kind(self) -> str:
        """``"table"`` or ``"dict"``: how the store finds a key's slot."""
        return self._index.kind

    def clear(self) -> None:
        """Drop every row."""
        size = self._space_size
        table = size is not None and size <= TABLE_LIMIT
        self._index = _TableIndex(size) if table else _DictIndex()
        self._used = 0  # arena slots handed out, dead ones included
        self._dead = 0
        self._tick = 0
        self._keys = np.empty(0, dtype=np.int64)  # slot -> key
        self._objectives = np.empty((0, 0))
        self._feasible = np.empty(0, dtype=bool)
        self._violations = np.empty(0, dtype=np.int64)
        self._from_disk = np.empty(0, dtype=bool)
        self._stamps = np.empty(0, dtype=np.int64)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Arena slot of each key, ``-1`` for a miss; hits refresh recency
        in request order.  Keys must be distinct."""
        slots = self._index.find(keys)
        if self.max_entries is not None:
            self._touch(slots[slots >= 0])
        return slots

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Membership mask of ``keys``, without touching recency."""
        return self._index.find(keys) >= 0

    def rows(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(objectives, feasible, violation_counts)`` of arena slots."""
        return (
            np.take(self._objectives, slots, axis=0),
            np.take(self._feasible, slots),
            np.take(self._violations, slots),
        )

    def from_disk(self, slots: np.ndarray) -> np.ndarray:
        """Which arena slots hold rows bulk-loaded off a cache segment."""
        return np.take(self._from_disk, slots)

    def insert(
        self,
        keys: np.ndarray,
        objectives: np.ndarray,
        feasible: np.ndarray,
        violation_counts: np.ndarray,
        *,
        from_disk: bool = False,
    ) -> int:
        """Append rows for keys the store does not hold; returns evictions.

        Keys must be distinct and absent (callers insert their misses).
        New rows are the most recently used, in key order.
        """
        if not len(keys):
            return 0
        start = self._reserve(keys, objectives.shape[1])
        stop = start + len(keys)
        self._keys[start:stop] = keys
        self._objectives[start:stop] = objectives
        self._feasible[start:stop] = feasible
        self._violations[start:stop] = violation_counts
        self._from_disk[start:stop] = from_disk
        self._index.assign(keys, start)
        if self.max_entries is None:
            return 0
        self._touch(np.arange(start, stop))
        return self._evict()

    def export(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every live row, in insertion order, as ``(keys, objectives,
        feasible, violation_counts)`` (a snapshot: recency is not touched)."""
        slots = self._live()
        return (self._keys[slots], *self.rows(slots))

    # ------------------------------------------------------------ internals

    def _reserve(self, keys: np.ndarray, width: int) -> int:
        """Make room for ``keys`` in the arena; returns their first slot."""
        start = self._used
        needed = start + len(keys)
        if needed > len(self._keys):
            # Power-of-two capacities: amortised O(1) appends, and the
            # common power-of-two sweep sizes fit exactly.  The first keys
            # fix the key column's dtype (object beyond int64 ids).
            capacity = 1 << (needed - 1).bit_length()
            self._keys = _grown(self._keys[:start].astype(keys.dtype), (capacity,))
            self._objectives = _grown(self._objectives[:start], (capacity, width))
            self._feasible = _grown(self._feasible[:start], (capacity,))
            self._violations = _grown(self._violations[:start], (capacity,))
            self._from_disk = _grown(self._from_disk[:start], (capacity,))
            if self.max_entries is not None:
                self._stamps = _grown(self._stamps[:start], (capacity,))
        self._used = needed
        return start

    def _live(self) -> np.ndarray:
        """Arena slots of the live rows, ascending."""
        if not self._dead:
            return np.arange(self._used)
        return np.flatnonzero(self._stamps[: self._used] != _DEAD)

    def _touch(self, slots: np.ndarray) -> None:
        self._stamps[slots] = np.arange(self._tick, self._tick + len(slots))
        self._tick += len(slots)

    def _evict(self) -> int:
        """Drop the least recently used rows beyond the bound."""
        excess = len(self) - self.max_entries
        if excess <= 0:
            return 0
        victims = np.argpartition(self._stamps[: self._used], excess - 1)[:excess]
        self._index.drop(self._keys[victims])
        self._stamps[victims] = _DEAD
        self._dead += excess
        if self._dead > len(self):
            self._compact()
        return excess

    def _compact(self) -> None:
        """Move the live rows to the front of the arena, in slot order."""
        live = self._live()
        self._keys = self._keys[live]
        self._objectives = self._objectives[live]
        self._feasible = self._feasible[live]
        self._violations = self._violations[live]
        self._from_disk = self._from_disk[live]
        self._stamps = self._stamps[live]
        self._index.assign(self._keys, 0)
        self._used = len(live)
        self._dead = 0


def component_columns(
    stored: tuple[str, ...], requested: tuple[str, ...]
) -> list[int] | None:
    """Positions of the requested objective components among the stored ones.

    The projection rule of every cache that serves one problem's objectives
    to another (the shared cache and the persistent tier): a request is
    served only when its components are a subset of the stored ones, by
    selecting and reordering already computed floats — the infeasibility
    penalty is per-component, so penalised vectors project exactly.
    ``None`` when the request is not a subset (a miss is always safe).
    """
    if not set(requested) <= set(stored):
        return None
    return [stored.index(name) for name in requested]


def component_merge(
    stored: tuple[str, ...] | None, incoming: tuple[str, ...]
) -> Literal["union", "replace", "keep"]:
    """How rows of ``incoming`` objective components join ``stored`` rows.

    The merge rule of every cache that keeps one problem's rows for another
    (the shared cache and the persistent tier): ``"union"`` when the
    component tuples are equal; ``"replace"`` when nothing is stored or the
    incoming set is strictly richer (narrow rows cannot be widened, and
    dropping them only costs a recompute); ``"keep"`` the stored rows
    otherwise — they already serve a narrower set by projection, and for
    incomparable sets the first writer wins (lookups require a subset, so
    the later problem simply misses).
    """
    if stored is None or set(incoming) > set(stored):
        return "replace"
    return "union" if incoming == stored else "keep"


def _grown(array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A zero-filled array of ``shape`` holding ``array`` in its first rows."""
    grown = np.zeros(shape, dtype=array.dtype)
    if array.size:
        grown[: len(array)] = array
    return grown


class SharedGenotypeCache:
    """Cross-problem column rows: one id-keyed store per evaluation fingerprint.

    The keying rule: rows computed by one problem may serve another
    problem's request only when both report the **same evaluation
    fingerprint** (same network model, same design-space layout, same
    infeasibility penalty — see ``WbsnDseProblem.evaluation_fingerprint``)
    *and* the requester's objective components are a subset of the stored
    ones.  Equal fingerprints imply equal design spaces, so each
    fingerprint's rows live in one :class:`ColumnStore` keyed by the packed
    design ids every engine already computes.  Served rows are projected
    onto the requested components (:func:`component_columns`) — a pure
    selection of already computed floats, so cross-problem reuse is bitwise
    invisible in the resulting fronts.

    Engines publish the rows they compute as they memoise them; a published
    component set joins the stored one by :func:`component_merge`.

    The Figure-5 pair is the motivating workload: the full three-objective
    problem and the energy/delay baseline share one evaluator fingerprint,
    so every row the full model computes is a warm start for the baseline
    exploration (the reverse direction misses, as baseline rows lack the
    quality component — a miss is always safe).

    Instances are shared by reference between engines; a pickled copy of
    an engine never carries one (the engine that was copied owns its
    caches).  The rows a shared cache serves an engine
    land in that engine's column store, so they outlive the process through
    its persistent cache tier.

    Args:
        max_entries: optional LRU bound on the rows of each fingerprint.
            The cache outlives the problems it serves, so long campaigns
            over huge spaces would otherwise grow it without bound; when
            set, each fingerprint's least-recently-used rows are evicted on
            overflow (an eviction only costs a future recompute — it can
            never change results).  ``None`` keeps the cache unbounded.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self.evictions = 0
        # fingerprint -> (stored objective components, rows keyed by design id)
        self._stores: dict[bytes, tuple[tuple[str, ...], ColumnStore]] = {}

    def __len__(self) -> int:
        return sum(len(store) for _, store in self._stores.values())

    def lookup(
        self, fingerprint: bytes, keys: np.ndarray, components: tuple[str, ...]
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Serve the rows held for distinct design ids, projected onto
        ``components``.

        Returns ``(hits, (objectives, feasible, violation_counts))``: the
        ascending positions in ``keys`` the cache serves, and their rows.
        Hits refresh recency.  Nothing is served when the fingerprint's
        rows lack a requested component.
        """
        entry = self._stores.get(fingerprint)
        columns = None if entry is None else component_columns(entry[0], components)
        if columns is None:
            hits = np.empty(0, dtype=np.int64)
            return hits, (np.empty((0, len(components))), hits.astype(bool), hits)
        slots = entry[1].lookup(keys)
        hits = np.flatnonzero(slots >= 0)
        objectives, feasible, violations = entry[1].rows(slots[hits])
        return hits, (objectives[:, columns], feasible, violations)

    def store(
        self,
        fingerprint: bytes,
        keys: np.ndarray,
        components: tuple[str, ...],
        objectives: np.ndarray,
        feasible: np.ndarray,
        violation_counts: np.ndarray,
    ) -> None:
        """Publish computed rows for distinct design ids.

        The rows join the fingerprint's stored rows by
        :func:`component_merge`.  On a union, keys already held keep their
        row, but the store is still a *use* of them: their recency is
        refreshed, so a hot, repeatedly published row outlives a cold one.
        """
        if not len(keys):
            return
        entry = self._stores.get(fingerprint)
        rule = component_merge(None if entry is None else entry[0], components)
        if rule == "keep":
            return
        if rule == "replace":
            entry = self._stores[fingerprint] = (
                components,
                ColumnStore(self.max_entries),
            )
        store = entry[1]
        fresh = np.flatnonzero(store.lookup(keys) < 0)
        self.evictions += store.insert(
            keys[fresh],
            objectives[fresh],
            feasible[fresh],
            violation_counts[fresh],
        )

    def clear(self) -> None:
        """Drop every shared row."""
        self._stores.clear()
