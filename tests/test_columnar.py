"""The columnar batch-result path: parity, lazy materialisation, cache interop.

The columnar path (``EvaluationEngine.evaluate_many_columnar`` /
``ColumnarBatchResult``) must be *semantically invisible*: exhaustive and
random-search sweeps return bitwise-identical fronts — membership **and**
ordering — with the columnar path on or off, for both MAC families and for
the column kernel and the scalar fallback alike.  On top of parity, these
tests pin the point of the seam: sweeps prune on raw objective columns and
materialise only their survivors (``EngineStats.designs_materialised``
tracks the front, never the space), genotype-cache hits re-enter pruning as
memoised column rows without an object round-trip (``rows_skipped_cached``
keeps working), and empty, all-cached and duplicate-only batches never
reach a kernel.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.dse.exhaustive import ExhaustiveCapWarning, ExhaustiveSearch
from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.pareto import (
    pareto_front_indices,
    running_front_indices,
    use_skyline,
)
from repro.dse.problem import WbsnDseProblem, csma_mac_parameterisation
from repro.dse.random_search import RandomSearch
from repro.dse.runner import run_algorithm
from repro.dse.simulated_annealing import (
    MultiObjectiveSimulatedAnnealing,
    SimulatedAnnealingSettings,
)
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
    exhaustive and random search — bitwise identical fronts with the
    columnar path on vs off, materialising only the front."""

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


class TestCachedRowMask:
    """Memoised rows skip the column gather; warm batches skip the kernel."""

    def test_warm_batch_skips_the_kernel_entirely(self):
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine)
            rng = np.random.default_rng(3)
            genotypes = [problem.space.random_genotype(rng) for _ in range(40)]
            problem.evaluate_batch(genotypes)
            before = engine.stats.snapshot()
            again = problem.evaluate_batch(genotypes)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 0
            assert delta.rows_skipped_cached == len(set(genotypes))
            assert [d.objectives for d in again] == [
                d.objectives for d in problem.evaluate_batch(genotypes)
            ]

    def test_mixed_batch_only_computes_the_misses(self):
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine)
            warm = [(0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)]
            problem.evaluate_batch(warm)
            cold = [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)]
            before = engine.stats.snapshot()
            problem.evaluate_batch(warm + cold)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == len(cold)
            assert delta.vectorized_designs == len(cold)
            assert delta.rows_skipped_cached == len(warm)

    def test_serial_kernel_honours_the_mask_too(self):
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine)
            warm = [(0, 0, 0, 0, 0, 0)]
            problem.evaluate_batch(warm)
            before = engine.stats.snapshot()
            problem.evaluate_batch(warm + [(1, 1, 1, 1, 1, 1)])
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 1
            assert delta.vectorized_designs == 1
            assert delta.rows_skipped_cached == 1

    def test_warm_resweep_serves_every_row_from_the_memo(self):
        """A second columnar pass over the space serves the memoised rows as
        they are: nothing is recomputed and every row is flagged cached."""
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine)
            genotypes = list(problem.space.enumerate_genotypes())
            first = problem.evaluate_batch_columns(genotypes)
            before = engine.stats.snapshot()
            second = problem.evaluate_batch_columns(genotypes)
            delta = engine.stats - before
            assert delta.model_evaluations == 0
            assert delta.rows_skipped_cached == len(genotypes)
            assert bool(second.cached.all())
            assert second.ids.tolist() == first.ids.tolist()
            assert second.objectives.tobytes() == first.objectives.tobytes()
            assert second.feasible.tolist() == first.feasible.tolist()


class TestKernelLessProblems:
    """Problems without a kernel compute on the in-process scalar loop."""

    def test_scalar_fallback_for_kernel_less_problems(self):
        """No kernel: the batch takes the in-process scalar loop instead."""
        serial = beacon_problem(EvaluationEngine())
        with EvaluationEngine() as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
                **NODE_DOMAINS,
                payload_bytes=(60, 80),
                order_pairs=((4, 4), (4, 6)),
                engine=engine,
                vectorized=False,
            )
            rng = np.random.default_rng(2)
            genotypes = [problem.space.random_genotype(rng) for _ in range(24)]
            fast = problem.evaluate_batch(genotypes)
            slow = serial.evaluate_batch(genotypes)
            assert [d.objectives for d in fast] == [d.objectives for d in slow]
            assert engine.stats.vectorized_designs == 0
            assert engine.stats.model_evaluations > 0

    def test_kernel_less_batches_compute_each_design_in_process(self):
        """Each miss is one ``compute_design`` call in this process."""
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine, vectorized=False)
            genotypes = list(problem.space.enumerate_genotypes())[:24]
            designs = problem.evaluate_batch(genotypes)
            assert engine.stats.model_evaluations == len(genotypes)
            assert [d.objectives for d in designs] == [
                problem.compute_design(genotype).objectives
                for genotype in genotypes
            ]

    def test_kernel_less_mixed_batch_only_computes_the_misses(self):
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine, vectorized=False)
            warm = [(0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)]
            problem.evaluate_batch(warm)
            cold = [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)]
            before = engine.stats.snapshot()
            designs = problem.evaluate_batch(warm + cold)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == len(cold)
            assert delta.genotype_cache_hits == len(warm)
            assert delta.vectorized_designs == 0
            assert [d.objectives for d in designs] == [
                problem.compute_design(genotype).objectives
                for genotype in warm + cold
            ]

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_kernel_less_sweep_keeps_the_kernel_front(self, scenario):
        build = SCENARIOS[scenario]
        reference = run_algorithm(ExhaustiveSearch(build(), chunk_size=16))
        result = run_algorithm(
            ExhaustiveSearch(build(vectorized=False), chunk_size=16)
        )
        assert front_signature(result.front) == front_signature(reference.front)
        assert result.engine_stats.vectorized_designs == 0
        assert result.engine_stats.model_evaluations == 63  # all but the probe
        assert reference.engine_stats.vectorized_designs == 63


class TestComputePathParity:
    """The column kernel and the scalar loop yield identical fronts, bit for
    bit, for all four algorithms and both MAC families."""

    ALGORITHMS = {
        "exhaustive": lambda problem: ExhaustiveSearch(problem, chunk_size=16),
        "random": lambda problem: RandomSearch(problem, samples=40, seed=5),
        "nsga2": lambda problem: Nsga2(
            problem, Nsga2Settings(population_size=12, generations=4, seed=5)
        ),
        "annealing": lambda problem: MultiObjectiveSimulatedAnnealing(
            problem, SimulatedAnnealingSettings(iterations=60, seed=5)
        ),
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_all_four_algorithms_identical(self, scenario):
        build = SCENARIOS[scenario]
        scalar = build(vectorized=False)
        with EvaluationEngine() as engine:
            kernel = build(engine)
            for name in sorted(self.ALGORITHMS):
                factory = self.ALGORITHMS[name]
                want = front_signature(factory(scalar).run())
                got = front_signature(factory(kernel).run())
                assert got == want, (scenario, name)
            # Both paths computed the same designs, once each; batch misses
            # went through the kernel on one side only.
            assert engine.stats.model_evaluations == (
                scalar.engine.stats.model_evaluations
            )
            assert engine.stats.vectorized_designs > 0
        assert scalar.engine.stats.vectorized_designs == 0

    def test_kernel_matches_the_scalar_loop_on_random_batches(self):
        scalar = beacon_problem(vectorized=False)
        kernel = beacon_problem()
        rng = np.random.default_rng(11)
        genotypes = [kernel.space.random_genotype(rng) for _ in range(150)]
        genotypes += genotypes[:30]  # duplicates exercise the dedup path
        fast = kernel.evaluate_batch(genotypes)
        slow = scalar.evaluate_batch(genotypes)
        assert [d.objectives for d in fast] == [d.objectives for d in slow]
        assert [d.feasible for d in fast] == [d.feasible for d in slow]
        assert [d.genotype for d in fast] == [d.genotype for d in slow]


class TestSweepBatchContract:
    """Columnar sweeps hand ``evaluate_batch_columns`` the batch alone and
    keep every row it returns: a problem whose method takes nothing else
    serves them unchanged."""

    class BatchOnlyProblem(WbsnDseProblem):
        def __init__(self, *args, **kwargs):
            self.batch_sizes = []
            super().__init__(*args, **kwargs)

        def evaluate_batch_columns(self, batch):
            self.batch_sizes.append(len(batch))
            result = super().evaluate_batch_columns(batch)
            assert len(result) == len(batch)
            return result

    def batch_only_problem(self) -> WbsnDseProblem:
        return self.BatchOnlyProblem(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            **NODE_DOMAINS,
            payload_bytes=(60, 80),
            order_pairs=((4, 4), (4, 6)),
            engine=EvaluationEngine(),
        )

    SEARCHES = {
        "exhaustive": lambda problem: ExhaustiveSearch(
            problem, chunk_size=16, columnar=True
        ),
        "random": lambda problem: RandomSearch(
            problem, samples=150, seed=5, columnar=True
        ),
    }

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_sweeps_pass_only_the_batch(self, search):
        run = self.SEARCHES[search]
        problem = self.batch_only_problem()
        front = run(problem).run()
        assert problem.batch_sizes
        assert front_signature(front) == front_signature(run(beacon_problem()).run())


class TestKernelTables:
    """The compiled tables survive a pickle round trip bit for bit."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_pickled_kernel_keeps_its_tables(self, scenario):
        kernel = SCENARIOS[scenario]().vectorized_kernel
        tables = kernel.shareable_tables()
        assert tables, "the compiled kernel should expose column tables"
        clone = pickle.loads(pickle.dumps(kernel)).shareable_tables()
        assert clone.keys() == tables.keys()
        for name, table in tables.items():
            assert clone[name].dtype == table.dtype, name
            assert np.array_equal(clone[name], table), name


#: The two compute paths: the column kernel and the scalar loop.
COMPUTE_PATHS = pytest.mark.parametrize(
    "vectorized", [True, False], ids=["kernel", "scalar"]
)


class TestDegenerateBatches:
    """Empty, all-cached and duplicate-only batches never reach a kernel
    (nor the scalar loop), through the object and the columnar API."""

    @COMPUTE_PATHS
    def test_empty_batch(self, vectorized):
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine, vectorized=vectorized)
            before = engine.stats.snapshot()
            assert problem.evaluate_batch([]) == []
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 0
            assert delta.vectorized_designs == 0

    @COMPUTE_PATHS
    def test_all_cached_batch(self, vectorized):
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine, vectorized=vectorized)
            genotypes = [(0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)]
            first = problem.evaluate_batch(genotypes)
            before = engine.stats.snapshot()
            again = problem.evaluate_batch(genotypes)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 0
            assert delta.vectorized_designs == 0
            assert delta.genotype_cache_hits == len(genotypes)
            assert front_signature(again) == front_signature(first)

    @COMPUTE_PATHS
    def test_duplicate_only_batch(self, vectorized):
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine, vectorized=vectorized)
            genotype = (1, 0, 1, 0, 1, 0)
            before = engine.stats.snapshot()
            designs = problem.evaluate_batch([genotype] * 7)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 1
            assert delta.genotype_cache_hits == 6
            assert len({front_signature([d])[0] for d in designs}) == 1

    @COMPUTE_PATHS
    def test_empty_columnar_batch(self, vectorized):
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine, vectorized=vectorized)
            before = engine.stats.snapshot()
            batch = problem.evaluate_batch_columns(problem.space.index_matrix([]))
            delta = engine.stats.snapshot() - before
            assert len(batch) == 0
            assert batch.objectives.shape == (0, problem.n_objectives)
            assert batch.feasible.shape == (0,)
            assert batch.violation_counts.shape == (0,)
            assert batch.materialise() == []
            assert delta.model_evaluations == 0

    @COMPUTE_PATHS
    def test_all_cached_columnar_batch(self, vectorized):
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine, vectorized=vectorized)
            genotypes = [(0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)]
            first = problem.evaluate_batch_columns(genotypes)
            before = engine.stats.snapshot()
            again = problem.evaluate_batch_columns(genotypes)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 0
            assert delta.genotype_cache_hits == len(genotypes)
            assert bool(again.cached.all())
            assert again.objectives.tobytes() == first.objectives.tobytes()
            assert again.genotypes.tolist() == [list(g) for g in genotypes]

    @COMPUTE_PATHS
    def test_duplicate_only_columnar_batch(self, vectorized):
        with EvaluationEngine() as engine:
            problem = beacon_problem(engine, vectorized=vectorized)
            genotype = (1, 0, 1, 0, 1, 0)
            before = engine.stats.snapshot()
            batch = problem.evaluate_batch_columns([genotype] * 7)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 1
            assert delta.genotype_cache_hits == 6
            assert len(batch) == 7
            assert len({tuple(row) for row in batch.objectives.tolist()}) == 1
            assert batch.genotypes.tolist() == [list(genotype)] * 7
            assert not batch.cached.any()  # computed in this batch

    def test_zero_length_gather_never_reaches_the_kernel(self):
        """The kernel itself early-returns on an empty batch."""
        problem = beacon_problem(EvaluationEngine())
        kernel = problem.vectorized_kernel
        empty = kernel.evaluate_columns(problem.space.index_matrix([]))
        assert empty.objectives.shape == (0, problem.n_objectives)
        assert empty.feasible.shape == (0,)
        assert empty.violation_counts.shape == (0,)


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
    fronts, membership and ordering."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_columnar_sweep_fronts_identical_with_skyline_off(self, scenario):
        build = SCENARIOS[scenario]
        with use_skyline(True):
            skyline = ExhaustiveSearch(build(), columnar=True).run()
        with use_skyline(False):
            blockwise = ExhaustiveSearch(build(), columnar=True).run()
        assert front_signature(skyline) == front_signature(blockwise)
        assert skyline

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
