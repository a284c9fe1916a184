"""Pareto-dominance utilities: sort-based skyline kernels + dominance matrices.

All objectives are minimised.  The helpers operate on plain sequences of
objective vectors so they can be reused by every search algorithm and by the
front-comparison experiments (Figure 5).

Front extraction dispatches between two kernel families behind one public
surface (:func:`pareto_front_indices` / :func:`running_front_indices`):

* **sort-based skyline kernels** — for 1- and 2-objective sets an
  O(n log n) lexicographic sort plus a prefix-minimum scan finds every
  dominated-or-duplicate row in two vector operations; for k ≥ 3 objectives
  a sort-filter skyline (Chomicki et al., "Skyline with presorting", ICDE
  2003) sorts once, takes the sorted rows a block at a time, and lets each
  block's front drop every later row it beats — so the quadratic
  comparisons only ever run between a front and the rows still alive;
* **blockwise dominance matrices** — broadcasted ``(n, block, m)``
  comparisons in bounded-size blocks, retained as the small-``n`` k-D path
  and as the reference implementation behind :func:`use_skyline` for
  differential testing.

Both families compute the same dominated/duplicate mask — first occurrence
of duplicated points survives, NaN rows neither dominate nor are dominated
(matching the pairwise :func:`dominates`) — and the public functions emit
survivors in original index order, so membership *and* ordering are bitwise
identical whichever kernel runs (the property tests in
``tests/test_dse_pareto.py`` compare the families on randomized inputs, and
the golden-front suite pins the end-to-end fronts).  The per-process
:func:`prune_kernel_counts` counters record which kernel answered each
dispatch; the benchmark suite uses them to hard-fail if a 2- or
3-objective workload ever silently falls back to the dominance matrices.
:func:`running_front_indices` runs no joint prune at all when its archive
beats every candidate, and counts that too.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

# The skyline/dominance kernels draw their namespace from the array-backend
# seam: on the default backend this *is* NumPy, and the objective matrices
# handed over by the engine live wherever the compiled kernel put them.
from repro.core.array_backend import xp as np

#: Candidate-block size bounding the memory of the pairwise comparisons.
_DOMINANCE_BLOCK = 512

#: Cells of one front-by-candidates matrix in :func:`_beaten_by`.
_BEATEN_CELLS = 1 << 20

#: Below this many rows a k>=3-objective set is pruned by the blockwise
#: dominance matrix directly — the sort only pays for itself on larger
#: sets.  It is also the head-block size of the sort-filter skyline.  (1-
#: and 2-objective sets always take the sort-based kernels: a single sort
#: wins at every size.)
_SKYLINE_BASE = 128

#: Module switch for the sort-based kernels.  Results are identical either
#: way; the switch exists so tests and benchmarks can compare against the
#: blockwise reference (see :func:`use_skyline`).
_skyline_enabled = True

#: Per-process dispatch counters, keyed by kernel (see
#: :func:`prune_kernel_counts`).
_KERNEL_COUNTS = {
    "skyline_1d": 0,
    "skyline_2d": 0,
    "skyline_kd": 0,
    "blockwise": 0,
    "archive_beats_all": 0,
}

__all__ = [
    "dominates",
    "pareto_front_indices",
    "running_front_indices",
    "non_dominated_sort",
    "crowding_distance",
    "hypervolume",
    "front_coverage",
    "front_contribution",
    "skyline_enabled",
    "set_skyline_enabled",
    "use_skyline",
    "prune_kernel_counts",
    "reset_prune_kernel_counts",
]


def dominates(first: Sequence[float], second: Sequence[float]) -> bool:
    """Whether objective vector ``first`` Pareto-dominates ``second``."""
    if len(first) != len(second):
        raise ValueError("objective vectors must have the same length")
    at_least_one_better = False
    for a, b in zip(first, second):
        if a > b:
            return False
        if a < b:
            at_least_one_better = True
    return at_least_one_better


# --------------------------------------------------------------------- switch


def skyline_enabled() -> bool:
    """Whether front extraction dispatches to the sort-based skyline kernels."""
    return _skyline_enabled


def set_skyline_enabled(enabled: bool) -> bool:
    """Switch the sort-based kernels on or off, returning the previous value.

    Fronts are bitwise identical either way — membership and ordering — so
    the switch is purely a differential-testing and benchmarking hook, never
    a semantic knob.
    """
    global _skyline_enabled
    previous = _skyline_enabled
    _skyline_enabled = bool(enabled)
    return previous


@contextmanager
def use_skyline(enabled: bool) -> Iterator[None]:
    """Scoped :func:`set_skyline_enabled` (differential tests, benchmarks)."""
    previous = set_skyline_enabled(enabled)
    try:
        yield
    finally:
        set_skyline_enabled(previous)


def prune_kernel_counts() -> dict[str, int]:
    """How often each front-extraction kernel answered a dispatch (this
    process).

    Keys: ``skyline_1d`` / ``skyline_2d`` (lexicographic sort + prefix-min
    scan), ``skyline_kd`` (sort-filter skyline, k ≥ 3 objectives) and
    ``blockwise`` (broadcasted dominance matrices — the fallback the
    benchmark gates watch for).  Counted once per top-level dispatch; the
    head blocks inside the sort-filter loop are part of ``skyline_kd`` and
    are not counted separately.  ``archive_beats_all`` counts the
    :func:`running_front_indices` calls whose archive beat every candidate,
    so no joint prune, and no dispatch, ran.
    """
    return dict(_KERNEL_COUNTS)


def reset_prune_kernel_counts() -> None:
    """Zero the per-process dispatch counters."""
    for key in _KERNEL_COUNTS:
        _KERNEL_COUNTS[key] = 0


# ----------------------------------------------------------- front extraction


def _points_matrix(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """Objective vectors as a float matrix, validating equal dimensions."""
    points = np.asarray(objectives, dtype=float)
    if points.ndim != 2:
        raise ValueError("objective vectors must have the same length")
    return points


def _all_less_equal(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Matrix ``M[i, j]``: is ``first[i] <= second[j]`` in every objective?

    Accumulated one objective column at a time on 2-D boolean matrices —
    no ``(n, m, k)`` comparison cube — with each ``second`` column made
    contiguous first.  NaNs fail every comparison, so a row holding one is
    never less-or-equal to anything, nor anything to it.
    """
    width = first.shape[1]
    if width == 0:
        return np.ones((len(first), len(second)), dtype=bool)
    result = first[:, 0, None] <= np.ascontiguousarray(second[:, 0])
    for column in range(1, width):
        result &= first[:, column, None] <= np.ascontiguousarray(second[:, column])
    return result


def _blockwise_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Dominated/duplicate mask on broadcasted comparison matrices."""
    count = len(points)
    dominated = np.zeros(count, dtype=bool)
    indices = np.arange(count)
    for start in range(0, count, _DOMINANCE_BLOCK):
        block = points[start : start + _DOMINANCE_BLOCK]
        # others[i], candidates[j]: i dominates j iff all(i <= j) and not
        # all(i >= j); the two points are equal iff both hold.  (NaNs fail
        # every comparison, so they neither dominate nor equal anything —
        # the same convention as the pairwise `dominates`.)
        less_equal = (points[:, None, :] <= block[None, :, :]).all(axis=-1)
        greater_equal = (points[:, None, :] >= block[None, :, :]).all(axis=-1)
        dominated[start : start + len(block)] |= (less_equal & ~greater_equal).any(
            axis=0
        )
        # Keep only the first occurrence of duplicated points.
        earlier = indices[:, None] < indices[None, start : start + len(block)]
        dominated[start : start + len(block)] |= (
            less_equal & greater_equal & earlier
        ).any(axis=0)
    return dominated


def _blockwise_front_indices(points: np.ndarray) -> np.ndarray:
    """Hierarchical blockwise extraction: block-local fronts, then the joint
    front of the survivors — collapses the quadratic cost whenever most
    points are dominated (the typical shape of an exploration sweep)."""
    count = len(points)
    if count <= 2 * _DOMINANCE_BLOCK:
        return np.flatnonzero(~_blockwise_dominated_mask(points))
    survivors_per_block = []
    for start in range(0, count, _DOMINANCE_BLOCK):
        block = points[start : start + _DOMINANCE_BLOCK]
        survivors_per_block.append(
            start + np.flatnonzero(~_blockwise_dominated_mask(block))
        )
    survivors = np.concatenate(survivors_per_block)
    if survivors.size == count:
        # Mutual non-domination: block pruning cannot shrink the set.
        return np.flatnonzero(~_blockwise_dominated_mask(points))
    return survivors[_blockwise_front_indices(points[survivors])]


def _scan_1d(finite: np.ndarray) -> np.ndarray:
    """Single-objective mask: everything but the first minimum is beaten."""
    dominated = np.ones(len(finite), dtype=bool)
    # argmin returns the first occurrence, which is exactly the
    # duplicates-keep-first-occurrence survivor.
    dominated[int(np.argmin(finite[:, 0]))] = False
    return dominated


def _scan_2d(finite: np.ndarray) -> np.ndarray:
    """2-objective skyline: lexicographic sort + prefix-minimum scan.

    After a stable sort on (first objective, second objective) — stability
    being the implicit original-index tiebreak — every earlier-sorted point
    has a first objective less than or equal to the current one.  A point is
    therefore dominated, or a later duplicate, exactly when some earlier
    point's second objective is at or below its own: one prefix-minimum
    scan replaces the whole broadcasted dominance matrix.
    """
    order = np.lexsort((finite[:, 1], finite[:, 0]))
    sorted_second = finite[order, 1]
    prefix_min = np.minimum.accumulate(sorted_second)
    dropped = np.empty(len(finite), dtype=bool)
    dropped[0] = False
    dropped[1:] = prefix_min[:-1] <= sorted_second[1:]
    dominated = np.empty(len(finite), dtype=bool)
    dominated[order] = dropped
    return dominated


def _beaten_by(front: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Which candidates some front row dominates *or equals*.

    ``front[i] <= candidate`` componentwise already covers both outcomes —
    strict domination when any component is strictly below, a duplicate
    otherwise — so one comparison matrix decides the filter.  Candidates
    are processed in blocks bounding the matrix at ``_BEATEN_CELLS``.
    """
    beaten = np.zeros(len(candidates), dtype=bool)
    if not len(front):
        return beaten
    block = max(1, _BEATEN_CELLS // len(front))
    for start in range(0, len(candidates), block):
        beaten[start : start + block] = _all_less_equal(
            front, candidates[start : start + block]
        ).any(axis=0)
    return beaten


def _skyline_kd(finite: np.ndarray) -> np.ndarray:
    """k>=3-objective skyline mask: sort once, drop repeats, sort-filter.

    After a full-row lexicographic sort, every row's dominators sort before
    it: ``p <= q`` componentwise with ``p != q`` makes ``p`` lexicographically
    smaller.  The distinct rows are then taken ``_SKYLINE_BASE`` at a time.
    A head block's front comes from one comparison matrix and is final: a
    row that beats a head row sorts before it, so it is in the head, where
    the matrix sees it, or in an earlier head, where it is a front row that
    would have dropped the head row, or beaten by one, which then beats the
    head row too.  The head's front then drops every later row it dominates
    or equals (:func:`_beaten_by`, in cell-bounded blocks), and the loop
    repeats on what is left.

    The mask is the blockwise kernel's: a repeated row is a later duplicate,
    and a distinct row is dropped exactly when some row dominates it.
    """
    width = finite.shape[1]
    # ``lexsort`` sorts by the *last* key first: pass the columns reversed
    # so column 0 is the primary key.  The sort is stable, so fully equal
    # rows are adjacent and keep their original relative order: each row
    # equal to its predecessor is a later duplicate, dropped before the
    # filter (sweep chunks repeat most objective rows).
    order = np.lexsort(tuple(finite[:, column] for column in range(width - 1, -1, -1)))
    ordered = np.take(finite, order, axis=0)
    repeat = np.zeros(len(ordered), dtype=bool)
    same = ordered[1:, 0] == ordered[:-1, 0]
    for column in range(1, width):
        same &= ordered[1:, column] == ordered[:-1, column]
    repeat[1:] = same
    rows = np.flatnonzero(~repeat)
    dropped = np.ones(len(ordered), dtype=bool)
    while rows.size:
        head, rows = rows[:_SKYLINE_BASE], rows[_SKYLINE_BASE:]
        # The rows are distinct, so ``head[i] <= head[j]`` off the diagonal
        # is strict domination (and, sorted, only ever has i < j).
        block = np.take(ordered, head, axis=0)
        less_equal = _all_less_equal(block, block)
        np.fill_diagonal(less_equal, False)
        front = ~less_equal.any(axis=0)
        dropped[head[front]] = False
        rows = rows[~_beaten_by(block[front], np.take(ordered, rows, axis=0))]
    dominated = np.empty(len(finite), dtype=bool)
    dominated[order] = dropped
    return dominated


def _skyline_apply(points: np.ndarray, kernel) -> np.ndarray:
    """Run a sort-based kernel on the NaN-free rows of a set.

    Rows containing NaN fail every comparison: they neither dominate, nor
    are dominated, nor duplicate anything — permanent survivors that the
    sort kernels must not see (NaN breaks sort transitivity).  One check
    over the whole array spares NaN-free sets the per-row mask.
    """
    if len(points) == 0:
        return np.zeros(0, dtype=bool)
    nan = np.isnan(points)
    if not nan.any():
        return kernel(points)
    nan_rows = nan.any(axis=1)
    dominated = np.zeros(len(points), dtype=bool)
    rows = np.flatnonzero(~nan_rows)
    if rows.size:
        dominated[rows] = kernel(points[rows])
    return dominated


def _dominated_mask(points: np.ndarray) -> np.ndarray:
    """Dominated-or-duplicate mask of a set, behind the kernel dispatch.

    Dispatch rules (documented in the ROADMAP architecture notes): 1- and
    2-objective sets take the sort-based skyline kernels at every size;
    k >= 3-objective sets take the sort-filter skyline above
    ``_SKYLINE_BASE`` rows; everything else — small k-D sets, zero-width
    points, and every call with the skyline disabled — runs on the
    blockwise dominance matrices.  All kernels agree bitwise on the mask.
    """
    count, width = points.shape
    if _skyline_enabled and width == 1:
        _KERNEL_COUNTS["skyline_1d"] += 1
        return _skyline_apply(points, _scan_1d)
    if _skyline_enabled and width == 2:
        _KERNEL_COUNTS["skyline_2d"] += 1
        return _skyline_apply(points, _scan_2d)
    if _skyline_enabled and width >= 3 and count > _SKYLINE_BASE:
        _KERNEL_COUNTS["skyline_kd"] += 1
        return _skyline_apply(points, _skyline_kd)
    _KERNEL_COUNTS["blockwise"] += 1
    mask = np.ones(count, dtype=bool)
    mask[_blockwise_front_indices(points)] = False
    return mask


def pareto_front_indices(objectives: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated points of a set.

    Duplicated points keep their first occurrence only.  The kernel
    dispatch (see :func:`prune_kernel_counts`) picks a sort-based skyline
    kernel — O(n log n) for one or two objectives, sort-filter for more —
    or the blockwise dominance matrices; survivors are emitted in
    original index order either way, so membership and ordering are
    identical to a direct quadratic scan.
    """
    count = len(objectives)
    if count == 0:
        return []
    points = _points_matrix(objectives)
    return np.flatnonzero(~_dominated_mask(points)).tolist()


def running_front_indices(
    front_objectives: Sequence[Sequence[float]],
    candidate_objectives: Sequence[Sequence[float]],
) -> list[int]:
    """Update a running non-dominated archive from raw objective columns.

    The columns-in/indices-out kernel behind chunked sweeps: given the
    objective rows of the current front and the rows of a new candidate
    block, it returns the indices of the new joint front into the *virtual
    pool* ``[front; candidates]``, in the exact membership and ordering
    :func:`pareto_front_indices` would produce for the
    archive-plus-surviving-candidates pool.  Precondition: the archive is
    mutually non-dominated *and* free of duplicates — the output of a
    previous call is both.  Candidates beaten by the archive (dominated, or
    duplicating an archived point) are pre-filtered with one column-wise
    pass before the joint prune — removing them cannot change the joint
    front, because every removal has a surviving witness in the archive.
    When the archive beats every candidate, the precondition makes the
    archive itself the joint front: it is returned whole, in order, with no
    joint prune (counted as ``archive_beats_all``).

    Callers index whatever per-row payload they carry — design objects on
    the object path, raw column rows on the columnar path — with the
    returned indices, so both paths share one pruning semantics.
    """
    front = np.asarray(front_objectives, dtype=float)
    candidates = np.asarray(candidate_objectives, dtype=float)
    if len(front) == 0:
        return pareto_front_indices(candidates) if len(candidates) else []
    if len(candidates) == 0:
        # The archive is a front already: everything survives, in order.
        return list(range(len(front)))
    if front.ndim != 2 or candidates.ndim != 2 or front.shape[1] != candidates.shape[1]:
        raise ValueError("objective vectors must have the same length")
    beaten = _beaten_by(front, candidates)
    if beaten.all():
        # No candidate survives the pre-filter: the archive is the joint
        # front, in order, and no joint prune runs.
        _KERNEL_COUNTS["archive_beats_all"] += 1
        return list(range(len(front)))
    kept = np.flatnonzero(~beaten)
    joint = pareto_front_indices(np.concatenate([front, candidates[kept]], axis=0))
    offset = len(front)
    return [
        index if index < offset else offset + int(kept[index - offset])
        for index in joint
    ]


def _domination_matrix(points: np.ndarray) -> np.ndarray:
    """Boolean matrix ``D[p, q]``: does point ``p`` dominate point ``q``?

    ``p`` dominates ``q`` when ``p <= q`` everywhere but not ``q <= p``
    everywhere, so one less-or-equal matrix and its transpose decide it.
    """
    less_equal = _all_less_equal(points, points)
    return less_equal & ~less_equal.T


def non_dominated_sort(objectives: Sequence[Sequence[float]]) -> list[list[int]]:
    """Fast non-dominated sorting (Deb et al.), returning fronts of indices.

    The O(n²·m) pairwise comparisons run column-wise on one dominance matrix;
    the subsequent front peeling preserves the exact within-front ordering of
    the classic formulation (which NSGA-II's truncation relies on for
    deterministic runs).
    """
    count = len(objectives)
    if count == 0:
        return []
    points = _points_matrix(objectives)
    dominates_matrix = _domination_matrix(points)
    domination_count = dominates_matrix.sum(axis=0).astype(np.int64)
    front = np.flatnonzero(domination_count == 0)
    domination_count[front] = -1
    fronts: list[list[int]] = []

    while front.size:
        fronts.append(front.tolist())
        front_rows = dominates_matrix[front]
        domination_count -= front_rows.sum(axis=0)
        released = np.flatnonzero(domination_count == 0)
        if released.size:
            # The classic formulation walks the current front in order and
            # appends a released point the moment its *last* dominator is
            # processed; reproduce that ordering (NSGA-II's truncation is
            # sensitive to it) by sorting on (last dominator position, index).
            last_dominator = (
                len(front)
                - 1
                - np.argmax(front_rows[::-1, released], axis=0)
            )
            released = released[np.lexsort((released, last_dominator))]
        domination_count[released] = -1
        front = released
    return fronts


def crowding_distance(objectives: Sequence[Sequence[float]]) -> list[float]:
    """Crowding distance of each point of one front (larger is better)."""
    count = len(objectives)
    if count == 0:
        return []
    matrix = _points_matrix(objectives)
    order = np.argsort(matrix, axis=0, kind="stable")
    distances = np.zeros(count)
    for column in range(matrix.shape[1]):
        column_order = order[:, column]
        column_values = matrix[column_order, column]
        span = column_values[-1] - column_values[0]
        distances[column_order[0]] = np.inf
        distances[column_order[-1]] = np.inf
        if span <= 0 or count < 3:
            continue
        distances[column_order[1:-1]] += (
            column_values[2:] - column_values[:-2]
        ) / span
    return distances.tolist()


def hypervolume(
    objectives: Sequence[Sequence[float]], reference: Sequence[float]
) -> float:
    """Hypervolume dominated by a front with respect to a reference point.

    The implementation recursively slices along the last objective, which is
    exact and fast enough for the two- and three-objective fronts produced by
    the case study.  Validation, clipping and front extraction happen once
    at the top level; the 2-D recursion bottoms out in a sorted staircase
    sum (prefix minima of the first objective), so no slice prefix is ever
    re-extracted — the floats are identical to the slice-by-slice recursion
    it replaces (the property tests compare against it).
    """
    if len(objectives) == 0:
        return 0.0
    points = _points_matrix(objectives)
    reference_point = np.asarray(reference, dtype=float)
    dimension = len(reference_point)
    if points.shape[1] != dimension:
        raise ValueError("points and reference must have the same dimension")
    # Clip away points that do not dominate the reference point at all.
    points = points[(points < reference_point).all(axis=1)]
    if len(points) == 0:
        return 0.0
    return _front_hypervolume(points[pareto_front_indices(points)], reference_point)


def _front_hypervolume(front: np.ndarray, reference_point: np.ndarray) -> float:
    """Hypervolume of an extracted front lying strictly inside the reference.

    The recursion core of :func:`hypervolume`, free of re-validation and
    re-clipping.  Every slice prefix of a front sorted by the last objective
    is already mutually non-dominated *after projecting away that
    objective* only for d == 2 — the 1-D volume of a prefix is just the
    prefix minimum, accumulated in one pass (the staircase).  For d >= 3
    each prefix projection is pruned once, exactly as the slice recursion
    it replaces did, but without re-running validation or clipping per
    slab.
    """
    dimension = reference_point.size
    if dimension == 1:
        return float(reference_point[0] - front[:, 0].min())
    front = front[np.argsort(front[:, -1], kind="stable")]
    if dimension == 2:
        prefix_min = np.minimum.accumulate(front[:, 0])
        volume = 0.0
        previous_last = reference_point[-1]
        for index in range(len(front) - 1, -1, -1):
            slab_height = previous_last - front[index, -1]
            if slab_height > 0:
                volume += slab_height * float(
                    reference_point[0] - prefix_min[index]
                )
                previous_last = front[index, -1]
        return float(volume)
    volume = 0.0
    previous_last = reference_point[-1]
    for index in range(len(front) - 1, -1, -1):
        slab_height = previous_last - front[index, -1]
        if slab_height > 0:
            prefix = front[: index + 1, :-1]
            volume += slab_height * _front_hypervolume(
                prefix[pareto_front_indices(prefix)], reference_point[:-1]
            )
            previous_last = front[index, -1]
    return float(volume)


def front_coverage(
    reference_front: Sequence[Sequence[float]],
    candidate_front: Sequence[Sequence[float]],
    relative_tolerance: float = 1e-3,
) -> float:
    """Fraction of the reference front recovered by the candidate front.

    A reference point counts as recovered when the candidate front contains a
    point that is equal to it (within the relative tolerance) or dominates it.
    This is the metric behind the paper's observation that the energy/delay
    baseline only finds about 7 % of the trade-offs exposed by the proposed
    three-metric model.

    The check runs on one broadcasted ``(candidates, reference, m)``
    comparison block — the same float operations as the original per-pair
    loops (``abs(c - p) <= tol * max(abs(p), 1e-12)``), so the recovered set
    is bit-for-bit identical.
    """
    if len(reference_front) == 0:
        raise ValueError("the reference front must not be empty")
    if len(candidate_front) == 0:
        return 0.0
    try:
        reference = np.asarray(
            [tuple(float(v) for v in point) for point in reference_front],
            dtype=float,
        )
        candidates = np.asarray(
            [tuple(float(v) for v in point) for point in candidate_front],
            dtype=float,
        )
    except ValueError:  # ragged nested sequences
        raise ValueError("fronts must share the objective dimension") from None
    if (
        reference.ndim != 2
        or candidates.ndim != 2
        or reference.shape[1] != candidates.shape[1]
    ):
        raise ValueError("fronts must share the objective dimension")
    tolerance = relative_tolerance * np.maximum(np.abs(reference), 1e-12)
    difference = np.abs(candidates[:, None, :] - reference[None, :, :])
    close = (difference <= tolerance[None, :, :]).all(axis=-1)
    less_equal = (candidates[:, None, :] <= reference[None, :, :]).all(axis=-1)
    strictly_less = (candidates[:, None, :] < reference[None, :, :]).any(axis=-1)
    recovered = (close | (less_equal & strictly_less)).any(axis=0)
    return int(recovered.sum()) / len(reference)


def front_contribution(
    reference_front: Sequence[Sequence[float]],
    candidate_front: Sequence[Sequence[float]],
) -> float:
    """Share of the combined Pareto front contributed by the candidate set.

    Both sets are merged, the joint non-dominated front is extracted, and the
    function returns the fraction of that front that originates from the
    candidate set.  This is the quantity behind the paper's Figure 5 remark
    that the energy/delay baseline only contributes about 7 % of the
    trade-offs detected by the proposed three-metric model: the baseline's
    designs are valid trade-offs, but they are few compared with the full
    front.
    """
    reference = [tuple(float(v) for v in point) for point in reference_front]
    candidates = [tuple(float(v) for v in point) for point in candidate_front]
    if not reference and not candidates:
        raise ValueError("at least one front must be non-empty")
    combined = reference + candidates
    joint = pareto_front_indices(combined)
    if not joint:
        return 0.0
    # Points present in both sets are credited to the reference set (they are
    # "found" either way); only genuinely candidate-originated points count.
    candidate_points = sum(1 for index in joint if index >= len(reference))
    return candidate_points / len(joint)
