"""Caching building blocks of the evaluation engine.

Three caches live here:

* :class:`CachedNetworkEvaluator` — the node-level (per-stage) cache wrapped
  around a network evaluator;
* :class:`ColumnStore` — the engine's memo of raw column rows, keyed by
  packed design ids and operated on whole batches at a time;
* :class:`SharedGenotypeCache` — cross-problem column rows, one
  :class:`ColumnStore` per evaluator fingerprint, letting problems that
  share evaluation semantics but differ in objective sets (the Figure-5
  full/baseline pair) serve each other's computed rows.

The per-node stage of :class:`~repro.core.evaluator.WBSNEvaluator` is a pure
function of ``(node_index, chi_node, chi_mac)`` — all hashable, frozen
dataclasses — and it dominates the cost of a full-network evaluation.  During
an exploration the same per-node knob settings recur massively across
candidates (two candidates that differ only in node 3's compression ratio
share five of six node stages), so memoising the stage avoids most of the raw
model work.  The :class:`CachedNetworkEvaluator` mirrors the evaluator API
(``nodes`` / ``evaluate`` / ``objective_vector``) and can therefore be dropped
in anywhere a plain evaluator is used; the network-aggregation stage (slot
assignment, delay bound, objective aggregation) is recomputed every time, as
it depends on the whole configuration.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import repeat
from typing import Any, Literal, Sequence

import numpy as np

from repro.core.baseline import EnergyDelayBaselineEvaluator
from repro.core.evaluator import (
    NetworkEvaluation,
    NodeStageResult,
    WBSNEvaluator,
)
from repro.engine.stats import EngineStats

__all__ = ["CachedNetworkEvaluator", "ColumnStore", "SharedGenotypeCache"]

#: Recency stamp of a dead (evicted) arena slot: never the least recent.
_DEAD = np.iinfo(np.int64).max


class ColumnStore:
    """Column rows of computed designs, keyed by design id, one batch at a time.

    An append-only arena of columns — penalised objectives, feasibility,
    violation counts and a from-disk flag — plus one ``dict`` from design
    key to arena slot.  Keys are exact Python ints (the packed design ids of
    :meth:`~repro.dse.space.DesignSpace.design_keys`), so spaces too large
    for ``int64`` ids share this one implementation.  Every operation takes
    a whole batch and runs its per-row work at C level (``map`` over the
    index, fancy indexing over the columns); inserts append, so a batch
    never copies the store.

    Args:
        max_entries: optional LRU bound.  A :meth:`lookup` hit refreshes a
            row's recency; after every :meth:`insert` the least recently
            used rows beyond the bound are evicted (and counted by the
            caller from the return value).  Evicted slots are reclaimed by
            compacting the arena once they outnumber the live rows.
            ``None`` keeps the store unbounded.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self.clear()

    def __len__(self) -> int:
        return len(self._index)

    def clear(self) -> None:
        """Drop every row."""
        self._index: dict[int, int] = {}
        self._keys: list[int] = []  # slot -> key
        self._used = 0  # arena slots handed out, dead ones included
        self._dead = 0
        self._tick = 0
        self._objectives = np.empty((0, 0))
        self._feasible = np.empty(0, dtype=bool)
        self._violations = np.empty(0, dtype=np.int64)
        self._from_disk = np.empty(0, dtype=bool)
        self._stamps = np.empty(0, dtype=np.int64)

    def lookup(self, keys: Sequence[int]) -> np.ndarray:
        """Arena slot of each key, ``-1`` for a miss; hits refresh recency
        in request order.  Keys must be distinct."""
        slots = np.fromiter(
            map(self._index.get, keys, repeat(-1)), dtype=np.int64, count=len(keys)
        )
        if self.max_entries is not None:
            self._touch(slots[slots >= 0])
        return slots

    def contains(self, keys: Sequence[int]) -> np.ndarray:
        """Membership mask of ``keys``, without touching recency."""
        return np.fromiter(
            map(self._index.__contains__, keys), dtype=bool, count=len(keys)
        )

    def rows(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(objectives, feasible, violation_counts)`` of arena slots."""
        return (
            self._objectives[slots],
            self._feasible[slots],
            self._violations[slots],
        )

    def from_disk(self, slots: np.ndarray) -> np.ndarray:
        """Which arena slots hold rows bulk-loaded off a cache segment."""
        return self._from_disk[slots]

    def insert(
        self,
        keys: Sequence[int],
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
        count = len(keys)
        if count == 0:
            return 0
        start = self._reserve(count, objectives.shape[1])
        stop = start + count
        self._objectives[start:stop] = objectives
        self._feasible[start:stop] = feasible
        self._violations[start:stop] = violation_counts
        self._from_disk[start:stop] = from_disk
        self._keys.extend(keys)
        self._index.update(zip(keys, range(start, stop)))
        if self.max_entries is None:
            return 0
        self._touch(np.arange(start, stop))
        return self._evict()

    def export(self) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """Every live row as ``(keys, objectives, feasible, violation_counts)``
        (a snapshot: recency is not touched)."""
        slots = np.fromiter(self._index.values(), dtype=np.int64, count=len(self))
        return (list(self._index), *self.rows(slots))

    # ------------------------------------------------------------ internals

    def _reserve(self, count: int, width: int) -> int:
        """Make room for ``count`` more slots; returns the first one."""
        start = self._used
        needed = start + count
        if needed > len(self._feasible):
            # Power-of-two capacities: amortised O(1) appends, and the
            # common power-of-two sweep sizes fit exactly.
            capacity = 1 << (needed - 1).bit_length()
            self._objectives = _grown(self._objectives[:start], (capacity, width))
            self._feasible = _grown(self._feasible[:start], (capacity,))
            self._violations = _grown(self._violations[:start], (capacity,))
            self._from_disk = _grown(self._from_disk[:start], (capacity,))
            if self.max_entries is not None:
                self._stamps = _grown(self._stamps[:start], (capacity,))
        self._used = needed
        return start

    def _touch(self, slots: np.ndarray) -> None:
        self._stamps[slots] = np.arange(self._tick, self._tick + len(slots))
        self._tick += len(slots)

    def _evict(self) -> int:
        """Drop the least recently used rows beyond the bound."""
        excess = len(self._index) - self.max_entries
        if excess <= 0:
            return 0
        victims = np.argpartition(self._stamps[: self._used], excess - 1)[:excess]
        for slot in victims.tolist():
            del self._index[self._keys[slot]]
        self._stamps[victims] = _DEAD
        self._dead += excess
        if self._dead > len(self._index):
            self._compact()
        return excess

    def _compact(self) -> None:
        """Move the live rows to the front of the arena, in slot order."""
        live = np.flatnonzero(self._stamps[: self._used] != _DEAD)
        keys = [self._keys[slot] for slot in live.tolist()]
        self._objectives = self._objectives[live]
        self._feasible = self._feasible[live]
        self._violations = self._violations[live]
        self._from_disk = self._from_disk[live]
        self._stamps = self._stamps[live]
        self._keys = keys
        self._index = dict(zip(keys, range(len(keys))))
        self._used = len(keys)
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

    Instances are shared by reference between engines; they are
    intentionally not pickled to worker processes (workers only compute,
    the parent owns the caches).  The rows a shared cache serves an engine
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
        slots = entry[1].lookup(keys.tolist())
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
        fresh = np.flatnonzero(store.lookup(keys.tolist()) < 0)
        self.evictions += store.insert(
            keys[fresh].tolist(),
            objectives[fresh],
            feasible[fresh],
            violation_counts[fresh],
        )

    def clear(self) -> None:
        """Drop every shared row."""
        self._stores.clear()


class CachedNetworkEvaluator:
    """Evaluator wrapper memoising the pure per-node stage.

    Args:
        evaluator: a :class:`~repro.core.evaluator.WBSNEvaluator` or
            :class:`~repro.core.baseline.EnergyDelayBaselineEvaluator`; the
            wrapper keeps the wrapped evaluator's objective vector, so the
            baseline stays a two-objective model.
        stats: counters to feed (``node_stage_requests``, ``node_cache_hits``,
            ``node_model_calls``); a private instance is created if omitted.
        enabled: when ``False`` the wrapper still counts raw model calls but
            never stores nor serves cached stages (used by cache-ablation
            runs, which must reproduce the uncached behaviour exactly).
        max_entries: optional bound on the number of memoised stages.  When
            set, the cache evicts its least-recently-used entry on overflow
            (long campaigns over huge spaces otherwise grow the cache without
            bound); evictions are counted in
            ``stats.node_cache_evictions``.  ``None`` keeps the cache
            unbounded.
    """

    def __init__(
        self,
        evaluator: WBSNEvaluator | EnergyDelayBaselineEvaluator,
        stats: EngineStats | None = None,
        enabled: bool = True,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self._evaluator = evaluator
        # The baseline delegates its model machinery to the full evaluator;
        # the node-stage split lives there.
        self._network: WBSNEvaluator = getattr(evaluator, "full_evaluator", evaluator)
        self.stats = stats if stats is not None else EngineStats()
        self.enabled = enabled
        self.max_entries = max_entries
        self._cache: OrderedDict[tuple[int, Any, Any], NodeStageResult] = OrderedDict()

    # ------------------------------------------------------------------ API

    @property
    def nodes(self):
        """The node descriptions of the wrapped evaluator."""
        return self._evaluator.nodes

    @property
    def wrapped(self) -> WBSNEvaluator | EnergyDelayBaselineEvaluator:
        """The evaluator this wrapper caches for."""
        return self._evaluator

    @property
    def cache_size(self) -> int:
        """Number of memoised per-node stage results."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop every memoised node stage."""
        self._cache.clear()

    def evaluate(
        self, node_configs: Sequence[Any], mac_config: Any
    ) -> NetworkEvaluation:
        """Evaluate a candidate, reusing memoised per-node stages."""
        network = self._network
        if len(node_configs) != len(network.nodes):
            raise ValueError(
                f"expected {len(network.nodes)} node configurations, "
                f"got {len(node_configs)}"
            )
        network.mac_protocol.validate_config(mac_config)
        stats = self.stats
        stages: list[NodeStageResult] = []
        for index, node_config in enumerate(node_configs):
            stats.node_stage_requests += 1
            key = (index, node_config, mac_config)
            stage = self._cache.get(key) if self.enabled else None
            if stage is None:
                stage = network.evaluate_node_stage(index, node_config, mac_config)
                stats.node_model_calls += 1
                if self.enabled:
                    self._cache[key] = stage
                    if (
                        self.max_entries is not None
                        and len(self._cache) > self.max_entries
                    ):
                        self._cache.popitem(last=False)
                        stats.node_cache_evictions += 1
            else:
                if self.max_entries is not None:
                    self._cache.move_to_end(key)
                stats.node_cache_hits += 1
            stages.append(stage)
        return network.aggregate(stages, mac_config)

    def objective_vector(self, evaluation: NetworkEvaluation) -> tuple[float, ...]:
        """The wrapped evaluator's objective vector (2 or 3 components)."""
        return tuple(self._evaluator.objective_vector(evaluation))

    # ------------------------------------------------------------- pickling

    def __getstate__(self) -> dict[str, Any]:
        # Worker processes rebuild their own node cache; shipping the parent's
        # (potentially large) cache would only bloat the pickled payload.
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        return state
