"""Tests of the Pareto-dominance utilities.

The skyline kernel equivalence suite is the differential harness of the
sort-based front-extraction kernels: every randomized/adversarial input is
pruned with the skyline dispatch on and off (:func:`use_skyline`), asserting
identical membership *and* ordering against the blockwise dominance-matrix
reference — including duplicate rows, all-equal columns, NaN rows and
pre-sorted/reversed inputs.  The hypervolume and coverage suites compare the
restructured implementations against verbatim copies of the originals they
replaced, asserting exact float equality on random fronts.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import pareto
from repro.dse.pareto import (
    _points_matrix,
    crowding_distance,
    dominates,
    front_contribution,
    front_coverage,
    hypervolume,
    non_dominated_sort,
    pareto_front_indices,
    prune_kernel_counts,
    running_front_indices,
    use_skyline,
)

_points = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
    ),
    min_size=1,
    max_size=25,
)


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1.0, 2.0), (2.0, 3.0))
        assert not dominates((2.0, 3.0), (1.0, 2.0))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_incomparable_points(self):
        assert not dominates((1.0, 3.0), (2.0, 1.0))
        assert not dominates((2.0, 1.0), (1.0, 3.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))

    @settings(max_examples=60, deadline=None)
    @given(points=_points)
    def test_dominance_is_antisymmetric(self, points):
        for a in points:
            for b in points:
                assert not (dominates(a, b) and dominates(b, a))


class TestFrontExtraction:
    def test_simple_front(self):
        points = [(1, 5), (2, 2), (5, 1), (4, 4), (6, 6)]
        front = pareto_front_indices(points)
        assert sorted(front) == [0, 1, 2]

    def test_duplicates_kept_once(self):
        points = [(1, 1), (1, 1), (2, 2)]
        assert pareto_front_indices(points) == [0]

    def test_non_dominated_sort_layers(self):
        points = [(1, 1), (2, 2), (3, 3)]
        fronts = non_dominated_sort(points)
        assert fronts == [[0], [1], [2]]

    @settings(max_examples=60, deadline=None)
    @given(points=_points)
    def test_front_members_are_mutually_non_dominated(self, points):
        front = pareto_front_indices(points)
        assert front, "a non-empty set always has a non-dominated point"
        for i in front:
            for j in front:
                assert not dominates(points[i], points[j]) or points[i] == points[j]

    @settings(max_examples=60, deadline=None)
    @given(points=_points)
    def test_every_dominated_point_has_a_dominator_in_the_front(self, points):
        front = set(pareto_front_indices(points))
        front_points = [points[i] for i in front]
        for index, point in enumerate(points):
            if index in front:
                continue
            assert any(
                dominates(member, point) or member == point for member in front_points
            )


class TestCrowdingDistance:
    def test_extremes_are_infinite(self):
        distances = crowding_distance([(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)])
        assert distances[0] == np.inf
        assert distances[-1] == np.inf
        assert all(np.isfinite(d) for d in distances[1:-1])

    def test_empty_front(self):
        assert crowding_distance([]) == []


class TestHypervolume:
    def test_single_point_2d(self):
        assert hypervolume([(1.0, 1.0)], (3.0, 3.0)) == pytest.approx(4.0)

    def test_two_points_2d(self):
        value = hypervolume([(1.0, 2.0), (2.0, 1.0)], (3.0, 3.0))
        assert value == pytest.approx(3.0)

    def test_dominated_points_do_not_change_the_volume(self):
        base = hypervolume([(1.0, 1.0)], (3.0, 3.0))
        extended = hypervolume([(1.0, 1.0), (2.0, 2.0)], (3.0, 3.0))
        assert extended == pytest.approx(base)

    def test_points_outside_the_reference_are_ignored(self):
        assert hypervolume([(4.0, 4.0)], (3.0, 3.0)) == 0.0

    def test_three_dimensional_volume(self):
        assert hypervolume([(0.0, 0.0, 0.0)], (1.0, 1.0, 1.0)) == pytest.approx(1.0)
        # Union of the two dominated boxes: 0.5 + 0.25 minus their 0.125
        # intersection.
        value = hypervolume([(0.0, 0.5, 0.0), (0.5, 0.0, 0.5)], (1.0, 1.0, 1.0))
        assert value == pytest.approx(0.625)

    @settings(max_examples=40, deadline=None)
    @given(points=_points)
    def test_hypervolume_is_monotone_in_the_front(self, points):
        reference = (11.0, 11.0)
        subset = points[: max(1, len(points) // 2)]
        assert hypervolume(points, reference) >= hypervolume(subset, reference) - 1e-9


class TestFrontComparison:
    def test_coverage_of_identical_fronts_is_total(self):
        front = [(1.0, 2.0), (2.0, 1.0)]
        assert front_coverage(front, front) == 1.0

    def test_coverage_of_disjoint_worse_front_is_zero(self):
        reference = [(1.0, 1.0)]
        candidate = [(2.0, 2.0)]
        assert front_coverage(reference, candidate) == 0.0

    def test_contribution_counts_candidate_only_points(self):
        reference = [(1.0, 5.0), (5.0, 1.0)]
        candidate = [(0.5, 6.0)]
        contribution = front_contribution(reference, candidate)
        assert contribution == pytest.approx(1 / 3)

    def test_contribution_of_dominated_candidates_is_zero(self):
        reference = [(1.0, 1.0)]
        candidate = [(2.0, 2.0), (3.0, 3.0)]
        assert front_contribution(reference, candidate) == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            front_coverage([], [(1.0, 1.0)])
        with pytest.raises(ValueError):
            front_contribution([], [])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            front_coverage([(1.0, 1.0)], [(1.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            front_coverage([(1.0, 1.0), (1.0,)], [(1.0, 1.0)])


def _both_kernels(points) -> tuple[list[int], list[int]]:
    """Front indices with the skyline dispatch on and off."""
    with use_skyline(True):
        skyline = pareto_front_indices(points)
    with use_skyline(False):
        blockwise = pareto_front_indices(points)
    return skyline, blockwise


#: Sizes straddling every dispatch boundary: the trivial cases, the k-D
#: blockwise small-n region (<= 128), the divide-and-conquer region, and the
#: blockwise hierarchical threshold (2 * 512).
_SKYLINE_SIZES = (0, 1, 2, 3, 5, 17, 64, 129, 500, 1333, 5000)


class TestSkylineKernelEquivalence:
    """Sort-based kernels vs the blockwise reference: same mask, bit for bit."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", _SKYLINE_SIZES)
    def test_random_points_agree(self, count, width):
        rng = np.random.default_rng(97 * count + width)
        points = rng.random((count, width)) * 10.0
        if count >= 4:
            # Inject exact duplicates (first occurrence must survive).
            points[count // 2] = points[0]
            points[-1] = points[1]
        skyline, blockwise = _both_kernels(points)
        assert skyline == blockwise, (count, width)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", _SKYLINE_SIZES)
    def test_low_cardinality_duplicates_agree(self, count, width):
        """Integer grids maximise duplicate and tied-component cases."""
        rng = np.random.default_rng(31 * count + width)
        points = rng.integers(0, 3, size=(count, width)).astype(float)
        skyline, blockwise = _both_kernels(points)
        assert skyline == blockwise, (count, width)

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_all_equal_columns_agree(self, width):
        rng = np.random.default_rng(width)
        points = rng.random((700, width)) * 5.0
        points[:, 1] = 2.5  # one constant objective: massive tie surface
        skyline, blockwise = _both_kernels(points)
        assert skyline == blockwise
        constant = np.full((300, width), 1.25)
        skyline, blockwise = _both_kernels(constant)
        assert skyline == blockwise == [0]

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_nan_rows_survive_and_never_eliminate(self, width):
        """NaN rows are inert: permanent survivors that beat nothing."""
        rng = np.random.default_rng(5 + width)
        points = rng.random((400, width)) * 10.0
        nan_rows = rng.choice(400, size=25, replace=False)
        for row in nan_rows:
            points[row, rng.integers(0, width)] = np.nan
        skyline, blockwise = _both_kernels(points)
        assert skyline == blockwise
        assert set(nan_rows).issubset(skyline)
        # Identical NaN rows are not duplicates of each other (NaN != NaN,
        # the same convention as the pairwise `dominates` equality check).
        twins = np.asarray([[np.nan] * width, [np.nan] * width, [0.5] * width])
        skyline, blockwise = _both_kernels(twins)
        assert skyline == blockwise == [0, 1, 2]

    @pytest.mark.parametrize("width", [2, 3, 4])
    @pytest.mark.parametrize("order", ["sorted", "reversed"])
    def test_adversarial_presorted_inputs_agree(self, width, order):
        """Pre-sorted and reverse-sorted inputs hit the recursion's worst
        splits (every cross-filter is one-sided)."""
        rng = np.random.default_rng(11 * width)
        points = rng.random((1500, width)) * 10.0
        keys = tuple(points[:, column] for column in range(width - 1, -1, -1))
        points = points[np.lexsort(keys)]
        if order == "reversed":
            points = points[::-1].copy()
        skyline, blockwise = _both_kernels(points)
        assert skyline == blockwise

    @pytest.mark.parametrize("width", [2, 3])
    def test_running_front_updates_agree(self, width):
        """Chunked archive updates are toggle-invariant too."""
        rng = np.random.default_rng(23 + width)
        chunks = [rng.random((600, width)) * 10.0 for _ in range(4)]

        def sweep() -> list[np.ndarray]:
            archive = np.empty((0, width))
            fronts = []
            for chunk in chunks:
                indices = running_front_indices(archive, chunk)
                archive = np.concatenate([archive, chunk], axis=0)[indices]
                fronts.append(archive.copy())
            return fronts

        with use_skyline(True):
            fast = sweep()
        with use_skyline(False):
            slow = sweep()
        for fast_front, slow_front in zip(fast, slow):
            assert np.array_equal(fast_front, slow_front)

    def test_dispatch_counters_track_the_kernel_families(self):
        before = prune_kernel_counts()
        rng = np.random.default_rng(0)
        with use_skyline(True):
            pareto_front_indices(rng.random((50, 1)))
            pareto_front_indices(rng.random((50, 2)))
            pareto_front_indices(rng.random((200, 3)))
            pareto_front_indices(rng.random((50, 3)))  # small k-D: blockwise
        with use_skyline(False):
            pareto_front_indices(rng.random((50, 2)))
        after = prune_kernel_counts()
        assert after["skyline_1d"] == before["skyline_1d"] + 1
        assert after["skyline_2d"] == before["skyline_2d"] + 1
        assert after["skyline_kd"] == before["skyline_kd"] + 1
        assert after["blockwise"] == before["blockwise"] + 2

    @settings(max_examples=60, deadline=None)
    @given(points=_points)
    def test_hypothesis_points_agree(self, points):
        skyline, blockwise = _both_kernels(points)
        assert skyline == blockwise


def _reference_hypervolume(objectives, reference) -> float:
    """Verbatim copy of the slice-by-slice recursion the staircase replaced:
    the exact-equality reference of ``TestHypervolumeEquality``."""
    if len(objectives) == 0:
        return 0.0
    points = _points_matrix(objectives)
    reference_point = np.asarray(reference, dtype=float)
    dimension = len(reference_point)
    if points.shape[1] != dimension:
        raise ValueError("points and reference must have the same dimension")
    points = points[(points < reference_point).all(axis=1)]
    if len(points) == 0:
        return 0.0
    front = points[pareto_front_indices(points)]
    if dimension == 1:
        return float(reference_point[0] - front[:, 0].min())
    front = front[np.argsort(front[:, -1], kind="stable")]
    volume = 0.0
    previous_last = reference_point[-1]
    for index in range(len(front) - 1, -1, -1):
        point = front[index]
        slab_height = previous_last - point[-1]
        if slab_height > 0:
            volume += slab_height * _reference_hypervolume(
                front[: index + 1, :-1], reference_point[:-1]
            )
            previous_last = point[-1]
    return float(volume)


class TestHypervolumeEquality:
    """The staircase fast path equals the recursion it replaced, exactly."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_fronts_match_exactly(self, width, seed):
        rng = np.random.default_rng(1000 * width + seed)
        count = int(rng.integers(1, 40))
        points = (rng.random((count, width)) * 3.0).round(3)
        reference = np.full(width, 2.5)
        assert hypervolume(points, reference) == _reference_hypervolume(
            points, reference
        )

    @pytest.mark.parametrize("width", [2, 3])
    def test_duplicate_and_boundary_points_match_exactly(self, width):
        rng = np.random.default_rng(width)
        points = rng.integers(0, 4, size=(30, width)).astype(float)
        reference = np.full(width, 3.0)  # some points sit on the boundary
        assert hypervolume(points, reference) == _reference_hypervolume(
            points, reference
        )


def _reference_front_coverage(
    reference_front, candidate_front, relative_tolerance=1e-3
) -> float:
    """Verbatim copy of the per-pair loops vectorized ``front_coverage``
    replaced: the bit-for-bit reference of ``TestFrontCoverageVectorized``."""
    reference = [tuple(float(v) for v in point) for point in reference_front]
    candidates = [tuple(float(v) for v in point) for point in candidate_front]
    if not reference:
        raise ValueError("the reference front must not be empty")
    if not candidates:
        return 0.0

    def recovered(point) -> bool:
        for candidate in candidates:
            if len(candidate) != len(point):
                raise ValueError("fronts must share the objective dimension")
            close = all(
                abs(c - p) <= relative_tolerance * max(abs(p), 1e-12)
                for c, p in zip(candidate, point)
            )
            if close or dominates(candidate, point):
                return True
        return False

    found = sum(1 for point in reference if recovered(point))
    return found / len(reference)


class TestFrontCoverageVectorized:
    """The broadcasted coverage equals the per-pair loops it replaced."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_fronts_match_exactly(self, width, seed):
        rng = np.random.default_rng(100 * width + seed)
        reference = (rng.random((12, width)) * 4.0).round(2)
        candidates = (rng.random((15, width)) * 4.0).round(2)
        assert front_coverage(reference, candidates) == _reference_front_coverage(
            reference, candidates
        )

    def test_tolerance_semantics_match_exactly(self):
        # Candidates exactly on, just inside and just outside the relative
        # tolerance band — the boundary comparisons must not drift.
        reference = [(1.0, 2.0), (0.0, 3.0), (4.0, 0.0)]
        tolerance = 1e-3
        candidates = [
            (1.0 * (1 + tolerance), 2.0),
            (0.0, 3.0 * (1 + 2 * tolerance)),
            (4.0 + 5e-13, 0.0),
        ]
        assert front_coverage(
            reference, candidates, tolerance
        ) == _reference_front_coverage(reference, candidates, tolerance)

    @settings(max_examples=40, deadline=None)
    @given(reference=_points, candidates=_points)
    def test_hypothesis_fronts_match_exactly(self, reference, candidates):
        assert front_coverage(reference, candidates) == _reference_front_coverage(
            reference, candidates
        )


def _archive(points) -> np.ndarray:
    """A mutually non-dominated archive: the front of ``points``."""
    points = np.asarray(points, dtype=float)
    return points[pareto_front_indices(points)] if len(points) else points


def _defined_running_front(archive, candidates) -> list[int]:
    """``running_front_indices`` by its definition: the front of the pool
    ``[archive; candidates]``, extracted by the blockwise reference."""
    pool = np.concatenate([archive, candidates], axis=0)
    with use_skyline(False):
        return pareto_front_indices(pool) if len(pool) else []


def _grid_sets(width: int):
    cell = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.nan])
    rows = st.lists(
        st.lists(cell, min_size=width, max_size=width), min_size=0, max_size=30
    )
    return st.tuples(rows, rows).map(
        lambda pair: tuple(
            np.asarray(side, dtype=float).reshape(-1, width) for side in pair
        )
    )


class TestRunningFrontDefinition:
    """``running_front_indices`` against its definition, so a bug in its
    candidate pre-filter cannot hide behind the skyline toggle."""

    @settings(max_examples=120, deadline=None)
    @given(sets=st.integers(1, 4).flatmap(_grid_sets))
    def test_hypothesis_grids_with_nans_and_duplicates(self, sets):
        archive, candidates = _archive(sets[0]), sets[1]
        assert running_front_indices(archive, candidates) == (
            _defined_running_front(archive, candidates)
        )

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_large_chunks_with_nans_and_archived_duplicates(self, width):
        rng = np.random.default_rng(41 + width)
        archive = _archive(rng.integers(0, 6, size=(400, width)).astype(float))
        candidates = rng.integers(0, 6, size=(900, width)).astype(float)
        candidates[::7] = archive[rng.integers(0, len(archive), 129)]
        candidates[3::50, width - 1] = np.nan
        nan_archive = np.concatenate([archive, [[np.nan] * width]], axis=0)
        for front in (archive, nan_archive):
            assert running_front_indices(front, candidates) == (
                _defined_running_front(front, candidates)
            )

    @pytest.mark.parametrize("width", [2, 3])
    def test_a_chunk_the_archive_beats_entirely(self, width):
        rng = np.random.default_rng(width)
        archive = _archive(rng.random((300, width)))
        beaten = np.concatenate([archive + 0.5, archive], axis=0)
        assert running_front_indices(archive, beaten) == list(range(len(archive)))
        assert _defined_running_front(archive, beaten) == list(range(len(archive)))

    @pytest.mark.parametrize("width", [2, 3])
    def test_empty_archive(self, width):
        rng = np.random.default_rng(7 * width)
        candidates = rng.integers(0, 4, size=(300, width)).astype(float)
        candidates[::11, 0] = np.nan
        empty = np.empty((0, width))
        assert running_front_indices(empty, candidates) == (
            _defined_running_front(empty, candidates)
        )


def _deb_peel(points) -> list[list[int]]:
    """The classic fast non-dominated sort (Deb et al.), on ``dominates``."""
    count = len(points)
    dominated: list[list[int]] = [[] for _ in range(count)]
    dominators = [0] * count
    for p in range(count):
        for q in range(count):
            if dominates(points[p], points[q]):
                dominated[p].append(q)
            elif dominates(points[q], points[p]):
                dominators[p] += 1
    fronts = [[p for p in range(count) if dominators[p] == 0]]
    while fronts[-1]:
        released = []
        for p in fronts[-1]:
            for q in dominated[p]:
                dominators[q] -= 1
                if dominators[q] == 0:
                    released.append(q)
        fronts.append(released)
    return fronts[:-1]


class TestNonDominatedSortReference:
    @settings(max_examples=120, deadline=None)
    @given(
        points=st.integers(1, 4).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                    min_size=width,
                    max_size=width,
                ),
                min_size=1,
                max_size=40,
            )
        )
    )
    def test_hypothesis_fronts_and_order_match_the_classic_peel(self, points):
        assert non_dominated_sort(points) == _deb_peel(points)

    @settings(max_examples=60, deadline=None)
    @given(points=_points)
    def test_hypothesis_continuous_points(self, points):
        assert non_dominated_sort(points) == _deb_peel(points)


#: The grid of the k-D kernel sets: ties, ±inf, and 0.0 next to -0.0 (equal
#: under every comparison, so duplicates of each other).
_KD_CELLS = (-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf)


@st.composite
def _kd_grid_sets(draw) -> np.ndarray:
    """3- and 4-objective sets of 129–600 rows over a few grid values, with
    some NaN cells: large enough for the k-D skyline, dense in ties and
    duplicates.  The rows come from a drawn seed, the grid and the NaN
    count from hypothesis."""
    width = draw(st.sampled_from([3, 4]))
    count = draw(st.integers(129, 600))
    cells = draw(
        st.lists(st.sampled_from(_KD_CELLS), min_size=2, max_size=5, unique_by=repr)
    )
    nans = draw(st.integers(0, count // 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = np.asarray(cells)[rng.integers(0, len(cells), size=(count, width))]
    points[rng.integers(0, count, nans), rng.integers(0, width, nans)] = np.nan
    return points


def _simplex(total: int, width: int = 3) -> np.ndarray:
    """Every integer point with coordinates summing to ``total``, shuffled:
    mutually non-dominated, so the whole set is the front."""
    grid = np.indices((total + 1,) * (width - 1)).reshape(width - 1, -1).T
    grid = grid[grid.sum(axis=1) <= total]
    points = np.column_stack([grid, total - grid.sum(axis=1)]).astype(float)
    return points[np.random.default_rng(total).permutation(len(points))]


class TestSortFilterSkyline:
    """The k-D sort-filter skyline (``_skyline_kd``) and the archive
    shortcut of ``running_front_indices``, against the blockwise reference."""

    @settings(max_examples=80, deadline=None)
    @given(points=_kd_grid_sets())
    def test_hypothesis_grid_sets_agree(self, points):
        before = prune_kernel_counts()
        skyline, blockwise = _both_kernels(points)
        assert skyline == blockwise
        after = prune_kernel_counts()
        assert after["skyline_kd"] == before["skyline_kd"] + 1
        assert after["blockwise"] == before["blockwise"] + 1

    @pytest.mark.parametrize("width", [3, 4])
    @pytest.mark.parametrize("kind", ["uniform", "grid"])
    @pytest.mark.parametrize("count", [127, 128, 129, 130, 255, 256, 257, 258, 8192])
    def test_block_edge_sizes_agree(self, count, kind, width):
        rng = np.random.default_rng(count + 10 * width)
        if kind == "uniform":
            points = rng.random((count, width))
        else:
            points = rng.integers(0, 5, size=(count, width)).astype(float)
        skyline, blockwise = _both_kernels(points)
        assert skyline == blockwise

    @pytest.mark.parametrize("width", [3, 4])
    def test_block_edge_fronts_agree(self, width):
        """All-front sets whose distinct rows end on and next to a block
        boundary: every head block's front is the whole block."""
        points = _simplex(40 if width == 3 else 12, width)
        for count in (129, 130, 255, 256, 257, 258):
            skyline, blockwise = _both_kernels(points[:count])
            assert skyline == blockwise == list(range(count))

    def test_front_wider_than_one_block(self):
        points = _simplex(76)[:3000]
        skyline, blockwise = _both_kernels(points)
        assert skyline == blockwise == list(range(3000))
        # Repeats of front rows are later duplicates, wherever they sit.
        repeated = np.concatenate([points, points[::-7]], axis=0)
        skyline, blockwise = _both_kernels(repeated)
        assert skyline == blockwise == list(range(3000))

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_archive_that_beats_every_candidate(self, width):
        rng = np.random.default_rng(3 * width)
        archive = _archive(rng.random((400, width)))
        candidates = np.concatenate([archive[::-1] + 0.25, archive[::3]], axis=0)
        before = prune_kernel_counts()
        indices = running_front_indices(archive, candidates)
        after = prune_kernel_counts()
        assert indices == list(range(len(archive)))
        assert indices == _defined_running_front(archive, candidates)
        assert after["archive_beats_all"] == before["archive_beats_all"] + 1
        # No joint prune ran: no kernel answered a dispatch.
        for kernel in ("skyline_1d", "skyline_2d", "skyline_kd", "blockwise"):
            assert after[kernel] == before[kernel]

    @pytest.mark.parametrize("width", [3, 4])
    def test_archive_that_beats_no_candidate(self, width):
        points = _simplex(30 if width == 3 else 10, width)
        archive, candidates = points[:150], points[150:]
        before = prune_kernel_counts()
        indices = running_front_indices(archive, candidates)
        after = prune_kernel_counts()
        assert indices == list(range(len(points)))
        assert indices == _defined_running_front(archive, candidates)
        assert after["archive_beats_all"] == before["archive_beats_all"]
        assert after["skyline_kd"] == before["skyline_kd"] + 1

    def test_peak_allocation_grows_with_rows_not_rows_times_block(self, monkeypatch):
        """An all-front prune filters every later row against a whole head
        block.  With the front-by-candidates matrices bounded at a few
        cells, its peak allocation stays below one rows-by-block boolean
        matrix."""
        monkeypatch.setattr(pareto, "_BEATEN_CELLS", 1 << 14)
        points = _simplex(153)
        rows = len(points)
        tracemalloc.start()
        try:
            front = pareto_front_indices(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(front) == rows
        assert peak < rows * pareto._SKYLINE_BASE
