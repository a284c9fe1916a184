"""The columnar batch-result path: parity, lazy materialisation, cache interop.

The columnar path (``EvaluationEngine.evaluate_many_columnar`` /
``ColumnarBatchResult``) must be *semantically invisible*: exhaustive and
random-search sweeps return bitwise-identical fronts — membership **and**
ordering — with the columnar path on or off, for both MAC families and for
the serial kernel, the sharded backend and the scalar fallback alike.  On
top of parity, these tests pin the point of the seam: sweeps prune on raw
objective columns and materialise only their survivors
(``EngineStats.designs_materialised`` tracks the front, never the space),
and genotype-cache hits re-enter pruning as memoised column rows without an
object round-trip (``rows_skipped_cached`` keeps working).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.exhaustive import ExhaustiveCapWarning, ExhaustiveSearch
from repro.dse.pareto import (
    pareto_front_indices,
    running_front_indices,
    use_skyline,
)
from repro.dse.problem import WbsnDseProblem, csma_mac_parameterisation
from repro.dse.random_search import RandomSearch
from repro.engine import ColumnarBatchResult, EvaluationEngine, SharedGenotypeCache
from repro.experiments.casestudy import (
    build_case_study_evaluator,
    build_csma_case_study_evaluator,
)

#: Small two-node spaces (64 configurations) keep the parity matrix fast.
NODE_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
)

#: Restricted 6-node domains giving the 8192-configuration sweep of the
#: benchmark suite (the satellite acceptance case).
SWEEP_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
    payload_bytes=(80,),
    order_pairs=((4, 4), (4, 6)),
)


def beacon_problem(engine: EvaluationEngine | None = None, **kwargs) -> WbsnDseProblem:
    return WbsnDseProblem(
        build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        payload_bytes=(60, 80),
        order_pairs=((4, 4), (4, 6)),
        engine=engine if engine is not None else EvaluationEngine(),
        **kwargs,
    )


def csma_problem(engine: EvaluationEngine | None = None, **kwargs) -> WbsnDseProblem:
    return WbsnDseProblem(
        build_csma_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        mac_parameterisation=csma_mac_parameterisation(
            payload_bytes=(60, 80),
            backoff_exponent_pairs=((3, 5), (4, 6)),
        ),
        engine=engine if engine is not None else EvaluationEngine(),
        **kwargs,
    )


SCENARIOS = {"beacon": beacon_problem, "csma": csma_problem}


def front_signature(front):
    """Exact front identity: genotype, objectives, feasibility — in order."""
    return [(d.genotype, d.objectives, d.feasible) for d in front]


class TestSweepParity:
    """Columnar on vs off: identical fronts, membership and ordering."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_exhaustive_identical_fronts(self, scenario):
        build = SCENARIOS[scenario]
        objects = ExhaustiveSearch(build(), columnar=False).run()
        columnar = ExhaustiveSearch(build(), columnar=True).run()
        assert front_signature(objects) == front_signature(columnar)
        assert objects  # non-degenerate

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_random_search_identical_fronts(self, scenario):
        build = SCENARIOS[scenario]
        objects = RandomSearch(build(), samples=150, seed=5, columnar=False).run()
        columnar = RandomSearch(build(), samples=150, seed=5, columnar=True).run()
        assert front_signature(objects) == front_signature(columnar)
        assert objects

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_scalar_fallback_identical_fronts(self, scenario):
        """Problems without a kernel build columns from per-design results."""
        build = SCENARIOS[scenario]
        objects = ExhaustiveSearch(build(vectorized=False), columnar=False).run()
        columnar = ExhaustiveSearch(build(vectorized=False), columnar=True).run()
        assert front_signature(objects) == front_signature(columnar)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_sharded_backend_identical_fronts(self, scenario):
        build = SCENARIOS[scenario]
        serial = ExhaustiveSearch(build(), columnar=True).run()
        with EvaluationEngine(backend="sharded", max_workers=2) as engine:
            problem = build(engine)
            sharded = ExhaustiveSearch(problem, columnar=True).run()
            stats = engine.stats
            # Worker column kernels computed every miss; survivors only were
            # materialised, parent-side.
            assert stats.sharded_designs > 0
            assert stats.designs_materialised == len(sharded)
            # The sweep's prune hint made the workers drop dominated rows
            # before shipping — without moving the front.
            assert stats.rows_pruned_in_workers > 0
        assert front_signature(serial) == front_signature(sharded)

    def test_columnar_flag_needs_columnar_support(self):
        recording = beacon_problem(record_evaluations=True)
        assert not recording.supports_columnar
        with pytest.raises(ValueError, match="columnar"):
            ExhaustiveSearch(recording, columnar=True)
        with pytest.raises(ValueError, match="columnar"):
            RandomSearch(recording, columnar=True)
        # Default (columnar=None) silently falls back to the object path.
        assert ExhaustiveSearch(recording).run()


def sweep_problem(scenario: str, engine: EvaluationEngine | None = None) -> WbsnDseProblem:
    """The 8192-configuration 6-node case-study space, per MAC family."""
    engine = engine if engine is not None else EvaluationEngine()
    if scenario == "beacon":
        return WbsnDseProblem(
            build_case_study_evaluator(), **SWEEP_DOMAINS, engine=engine
        )
    return WbsnDseProblem(
        build_csma_case_study_evaluator(),
        compression_ratios=SWEEP_DOMAINS["compression_ratios"],
        frequencies_hz=SWEEP_DOMAINS["frequencies_hz"],
        mac_parameterisation=csma_mac_parameterisation(
            payload_bytes=(80,),
            backoff_exponent_pairs=((3, 5), (4, 6)),
        ),
        engine=engine,
    )


class Test8192CaseStudyParity:
    """The acceptance matrix: 8192-design sweeps, both MAC families,
    serial and sharded backends, exhaustive and random search — bitwise
    identical fronts with the columnar path on vs off, materialising only
    the front."""

    @pytest.mark.parametrize("scenario", ["beacon", "csma"])
    def test_exhaustive_and_random_fronts_identical(self, scenario):
        reference = ExhaustiveSearch(
            sweep_problem(scenario), chunk_size=2048, columnar=False
        ).run()

        columnar_problem = sweep_problem(scenario)
        columnar = ExhaustiveSearch(
            columnar_problem, chunk_size=2048, columnar=True
        ).run()
        assert front_signature(reference) == front_signature(columnar)
        assert columnar_problem.engine.stats.designs_materialised == len(columnar)

        with EvaluationEngine(backend="sharded", max_workers=2) as engine:
            sharded_problem = sweep_problem(scenario, engine)
            sharded = ExhaustiveSearch(
                sharded_problem, chunk_size=2048, columnar=True
            ).run()
            assert front_signature(reference) == front_signature(sharded)
            assert engine.stats.sharded_designs > 0
            assert engine.stats.designs_materialised == len(sharded)
            # On 8192 designs the shard fronts are tiny: almost every
            # evaluated row is pruned worker-side.
            assert engine.stats.rows_pruned_in_workers > 7000

        random_objects = RandomSearch(
            sweep_problem(scenario), samples=1500, seed=8, columnar=False
        ).run()
        random_columnar = RandomSearch(
            sweep_problem(scenario), samples=1500, seed=8, columnar=True
        ).run()
        assert front_signature(random_objects) == front_signature(random_columnar)
        assert random_objects


class TestLazyMaterialisation:
    """Survivors-only materialisation, asserted via ``designs_materialised``."""

    def test_8192_row_sweep_materialises_exactly_the_front(self):
        with EvaluationEngine() as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(), **SWEEP_DOMAINS, engine=engine
            )
            assert problem.space.size == 8192
            front = ExhaustiveSearch(problem, chunk_size=2048, columnar=True).run()
            stats = engine.stats
            assert stats.designs_materialised == len(front)
            assert 0 < len(front) < 100
            # Every swept row went through the kernel as columns.
            assert stats.vectorized_designs >= problem.space.size - 1

    def test_warm_sweep_serves_cached_rows_as_columns(self):
        """Cached rows re-enter pruning as raw rows — no kernel work, only
        the front built as objects, and ``rows_skipped_cached`` keeps
        counting."""
        problem = beacon_problem()
        engine = problem.engine
        first = ExhaustiveSearch(problem, columnar=True).run()
        stats_before = engine.stats.snapshot()
        second = ExhaustiveSearch(problem, columnar=True).run()
        delta = engine.stats.snapshot() - stats_before
        assert front_signature(first) == front_signature(second)
        # Every row of the warm sweep was a genotype-cache hit served as a
        # memoised column row.
        assert delta.rows_skipped_cached == problem.space.size
        assert delta.model_evaluations == 0
        # Designs are never memoised: the warm sweep builds its front again.
        assert delta.designs_materialised == len(second)

    def test_random_search_materialises_exactly_the_front(self):
        problem = beacon_problem()
        front = RandomSearch(problem, samples=120, seed=2, columnar=True).run()
        assert problem.engine.stats.designs_materialised == len(front)

    def test_recording_problems_reject_the_columnar_batch_api(self):
        problem = beacon_problem(record_evaluations=True)
        with pytest.raises(RuntimeError, match="columnar"):
            problem.evaluate_batch_columns([(0,) * len(problem.space)])
        # Neither the counter nor the history moved.
        assert problem.evaluations == 0
        assert problem.history == []

    def test_scalar_fallback_materialises_exactly_the_front(self):
        """The scalar path flattens its design objects into column rows, so
        a kernel-less sweep, too, builds only its front from the rows."""
        problem = beacon_problem(vectorized=False)
        front = ExhaustiveSearch(problem, columnar=True).run()
        assert front
        assert problem.engine.stats.designs_materialised == len(front)

    def test_columnar_rows_warm_the_object_path(self):
        """Designs memoised as raw column rows serve ``evaluate_batch`` /
        ``evaluate`` too — materialised on demand, never recomputed."""
        problem = beacon_problem()
        engine = problem.engine
        ExhaustiveSearch(problem, columnar=True).run()
        before = engine.stats.snapshot()
        genotypes = list(problem.space.enumerate_genotypes())
        designs = problem.evaluate_batch(genotypes)
        delta = engine.stats.snapshot() - before
        assert delta.model_evaluations == 0
        assert delta.genotype_cache_hits == problem.space.size
        assert delta.designs_materialised == problem.space.size
        # Single evaluations hit the column memo as well.
        before = engine.stats.snapshot()
        single = problem.evaluate(genotypes[-1])
        delta = engine.stats.snapshot() - before
        assert delta.model_evaluations == 0
        assert delta.designs_materialised == 1
        assert single.objectives == designs[-1].objectives

    def test_materialised_designs_carry_their_violation_count(self):
        problem = beacon_problem()
        batch = problem.evaluate_batch_columns(
            list(problem.space.enumerate_genotypes())
        )
        designs = batch.materialise()
        for row, design in enumerate(designs):
            assert design.violation_count == int(batch.violation_counts[row])
            assert design.feasible == (design.violation_count == 0)


class TestColumnarBatchResult:
    def test_rows_cover_requests_in_order_with_duplicates(self):
        problem = beacon_problem()
        genotypes = list(problem.space.enumerate_genotypes())[:10]
        requested = genotypes + genotypes[:4]
        batch = problem.evaluate_batch_columns(requested)
        assert len(batch) == len(requested)
        np.testing.assert_array_equal(batch.genotypes[:4], batch.genotypes[10:])
        np.testing.assert_array_equal(batch.objectives[:4], batch.objectives[10:])
        # Duplicates are cache hits, computed once.
        assert problem.engine.stats.genotype_cache_hits >= 4

    def test_take_and_concatenate_roundtrip(self):
        problem = beacon_problem()
        batch = problem.evaluate_batch_columns(
            list(problem.space.enumerate_genotypes())[:12]
        )
        left, right = batch.take(range(5)), batch.take(range(5, 12))
        rebuilt = ColumnarBatchResult.concatenate([left, right])
        np.testing.assert_array_equal(rebuilt.genotypes, batch.genotypes)
        np.testing.assert_array_equal(rebuilt.objectives, batch.objectives)
        np.testing.assert_array_equal(rebuilt.feasible, batch.feasible)
        np.testing.assert_array_equal(
            rebuilt.violation_counts, batch.violation_counts
        )
        np.testing.assert_array_equal(rebuilt.cached, batch.cached)

    def test_take_and_materialise_accept_boolean_masks(self):
        problem = beacon_problem()
        batch = problem.evaluate_batch_columns(
            list(problem.space.enumerate_genotypes())[:12]
        )
        subset = batch.take(batch.feasible)
        np.testing.assert_array_equal(
            subset.objectives, batch.objectives[batch.feasible]
        )
        designs = batch.materialise(batch.feasible)
        assert len(designs) == int(batch.feasible.sum())
        assert all(design.feasible for design in designs)

    def test_materialise_subset_matches_object_path(self):
        problem = beacon_problem()
        reference = beacon_problem()
        genotypes = list(problem.space.enumerate_genotypes())[:16]
        batch = problem.evaluate_batch_columns(genotypes)
        survivors = pareto_front_indices(batch.objectives)
        designs = batch.materialise(survivors)
        expected = [reference.compute_design(genotypes[i]) for i in survivors]
        assert [d.genotype for d in designs] == [d.genotype for d in expected]
        assert [d.objectives for d in designs] == [d.objectives for d in expected]
        assert [d.phenotype for d in designs] == [d.phenotype for d in expected]

    def test_unbound_engine_is_rejected(self):
        with pytest.raises(RuntimeError, match="bound"):
            EvaluationEngine().evaluate_many_columnar([(0, 0)])


class TestCachedColumn:
    """``ColumnarBatchResult.cached``: served with no model call, per row."""

    def test_flags_mark_memo_rows_not_rows_computed_in_the_batch(self):
        problem = beacon_problem()
        probe, first, second, third = list(problem.space.enumerate_genotypes())[:4]
        # The constructor memoised the all-zeros probe; a repeat of a row
        # computed in this very batch is not a cache hit.
        batch = problem.evaluate_batch_columns([probe, first, second, first, probe])
        assert batch.cached.tolist() == [True, False, False, False, True]
        batch = problem.evaluate_batch_columns([first, second, third])
        assert batch.cached.tolist() == [True, True, False]

    def test_matrix_input_matches_sequence_input(self):
        genotypes = list(beacon_problem().space.enumerate_genotypes())
        requested = genotypes[5:30] + genotypes[:10] + genotypes[5:9]
        from_rows = beacon_problem().evaluate_batch_columns(requested)
        from_matrix = beacon_problem().evaluate_batch_columns(
            np.asarray(requested, dtype=np.int64)
        )
        columns = ("genotypes", "objectives", "feasible", "violation_counts", "cached")
        for name in columns:
            left, right = getattr(from_rows, name), getattr(from_matrix, name)
            assert left.dtype == right.dtype
            assert left.tobytes() == right.tobytes()

    def test_persistent_and_shared_tiers_count_as_cached(self, tmp_path):
        genotypes = list(beacon_problem().space.enumerate_genotypes())
        cold = beacon_problem()
        cold.evaluate_batch_columns(genotypes)
        cold.engine.spill_persistent_cache(tmp_path)
        warm = beacon_problem()
        warm.engine.load_persistent_cache(tmp_path)
        batch = warm.evaluate_batch_columns(genotypes)
        assert batch.cached.all()
        assert warm.engine.stats.model_evaluations == 1  # the probe

        shared = SharedGenotypeCache()
        publisher = beacon_problem(EvaluationEngine(shared_cache=shared))
        publisher.evaluate_batch(genotypes[:8])
        consumer = beacon_problem(EvaluationEngine(shared_cache=shared))
        batch = consumer.evaluate_batch_columns(genotypes[:8])
        assert batch.cached.all()
        assert consumer.engine.stats.model_evaluations == 0

    def test_nothing_is_cached_without_the_genotype_cache(self):
        problem = beacon_problem(EvaluationEngine(genotype_cache=False))
        genotypes = list(problem.space.enumerate_genotypes())[:6]
        problem.evaluate_batch_columns(genotypes)
        assert not problem.evaluate_batch_columns(genotypes).cached.any()


class TestRunningFrontIndices:
    """The shared columns-in/indices-out pruning kernel."""

    def test_matches_a_joint_front_extraction(self):
        rng = np.random.default_rng(0)
        points = rng.random((300, 3))
        archive_points = points[:40][pareto_front_indices(points[:40])]
        candidates = points[40:]
        indices = running_front_indices(archive_points, candidates)
        pool = np.concatenate([archive_points, candidates])
        expected = pareto_front_indices(pool)
        assert indices == expected

    def test_empty_sides(self):
        points = np.asarray([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        assert running_front_indices(points[:0], points) == [0, 1]
        front = points[:2]
        assert running_front_indices(front, points[:0]) == [0, 1]

    def test_duplicates_of_archived_points_are_dropped(self):
        front = [(0.0, 1.0), (1.0, 0.0)]
        candidates = [(0.0, 1.0), (0.5, 0.5)]
        assert running_front_indices(front, candidates) == [0, 1, 3]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            running_front_indices([(0.0, 1.0)], [(0.0, 1.0, 2.0)])


class TestSkylineToggleParity:
    """The skyline kernels are a drop-in for the blockwise dominance
    matrices: sweeping with them disabled must reproduce the exact same
    fronts, membership and ordering, on every backend that prunes."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_columnar_sweep_fronts_identical_with_skyline_off(self, scenario):
        build = SCENARIOS[scenario]
        with use_skyline(True):
            skyline = ExhaustiveSearch(build(), columnar=True).run()
        with use_skyline(False):
            blockwise = ExhaustiveSearch(build(), columnar=True).run()
        assert front_signature(skyline) == front_signature(blockwise)
        assert skyline

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_sharded_worker_pruning_fronts_identical_with_skyline_off(
        self, scenario
    ):
        """Workers prune with whatever kernel the toggle selects (the flag
        is read in each worker process too) — fronts must not move."""
        build = SCENARIOS[scenario]
        fronts = {}
        for enabled in (True, False):
            with use_skyline(enabled):
                with EvaluationEngine(backend="sharded", max_workers=2) as engine:
                    fronts[enabled] = front_signature(
                        ExhaustiveSearch(build(engine), columnar=True).run()
                    )
                    assert engine.stats.rows_pruned_in_workers > 0
        assert fronts[True] == fronts[False]

    def test_random_search_front_identical_with_skyline_off(self):
        with use_skyline(True):
            skyline = RandomSearch(
                beacon_problem(), samples=150, seed=5, columnar=True
            ).run()
        with use_skyline(False):
            blockwise = RandomSearch(
                beacon_problem(), samples=150, seed=5, columnar=True
            ).run()
        assert front_signature(skyline) == front_signature(blockwise)


class TestExhaustiveCap:
    def test_oversized_space_warns_names_size_cap_and_proceeds(self):
        problem = beacon_problem()
        reference = ExhaustiveSearch(problem).run()
        with pytest.warns(ExhaustiveCapWarning) as record:
            front = ExhaustiveSearch(problem, max_configurations=10).run()
        message = str(record[0].message)
        assert str(problem.space.size) in message
        assert "10" in message
        assert "max_configurations" in message
        # The soft threshold warns but never truncates the sweep.
        assert front_signature(front) == front_signature(reference)
