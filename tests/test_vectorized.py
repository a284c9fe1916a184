"""Parity suite of the vectorized columnar fast path and the NumPy Pareto kernels.

The contract under test: the fast path is *floating-point-identical* to the
scalar path (same seed, same fronts, bit for bit), and the NumPy Pareto
kernels reproduce the original pure-Python implementations exactly —
membership *and* ordering.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectorized import WbsnBatchColumns
from repro.dse.exhaustive import ExhaustiveSearch
from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.pareto import (
    crowding_distance,
    dominates,
    non_dominated_sort,
    pareto_front_indices,
)
from repro.dse.problem import EvaluatedDesign, OptimizationProblem, WbsnDseProblem
from repro.dse.random_search import RandomSearch
from repro.dse.simulated_annealing import (
    MultiObjectiveSimulatedAnnealing,
    SimulatedAnnealingSettings,
)
from repro.dse.space import DesignSpace, ParameterDomain
from repro.engine import CachedNetworkEvaluator, EvaluationEngine
from repro.experiments.casestudy import (
    build_baseline_evaluator,
    build_case_study_evaluator,
)

#: Restricted domains keeping exhaustive parity sweeps fast.
SMALL_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(1e6, 8e6),
    payload_bytes=(60, 80),
    order_pairs=((4, 4), (4, 6)),
)


def case_study_pair(baseline: bool = False, **kwargs):
    """A (vectorized, scalar) problem pair over the same model."""
    build = build_baseline_evaluator if baseline else build_case_study_evaluator
    vectorized = WbsnDseProblem(build(), engine=EvaluationEngine(), **kwargs)
    scalar = WbsnDseProblem(
        build(), engine=EvaluationEngine(), vectorized=False, **kwargs
    )
    return vectorized, scalar


def front_signature(front):
    return sorted((design.genotype, design.objectives) for design in front)


# ---------------------------------------------------------------------------
# Scalar-vs-vectorized parity on the WBSN problem


class TestWbsnParity:
    @pytest.mark.parametrize("baseline", [False, True])
    def test_randomized_batch_is_bit_identical(self, baseline):
        vectorized, scalar = case_study_pair(baseline=baseline)
        rng = np.random.default_rng(7)
        genotypes = [vectorized.space.random_genotype(rng) for _ in range(256)]
        matrix = vectorized.space.index_matrix(genotypes)
        batch = vectorized.materialise_designs(
            matrix, vectorized.compute_columns_batch(matrix)
        )
        for genotype, fast in zip(genotypes, batch):
            slow = scalar.compute_design(genotype)
            assert fast.genotype == slow.genotype
            assert fast.objectives == slow.objectives  # exact, not approx
            assert fast.feasible == slow.feasible
            assert fast.phenotype["node_configs"] == slow.phenotype["node_configs"]
            assert fast.phenotype["mac_config"] == slow.phenotype["mac_config"]

    def test_violation_counts_match_the_scalar_evaluation(self):
        vectorized, scalar = case_study_pair()
        rng = np.random.default_rng(11)
        genotypes = [vectorized.space.random_genotype(rng) for _ in range(128)]
        columns = vectorized.vectorized_kernel.evaluate_columns(
            vectorized.space.index_matrix(genotypes)
        )
        saw_infeasible = False
        for genotype, count in zip(genotypes, columns.violation_counts.tolist()):
            node_configs, mac_config = scalar.decode(genotype)
            evaluation = scalar.evaluator.evaluate(node_configs, mac_config)
            assert len(evaluation.violations) == count
            saw_infeasible = saw_infeasible or count > 0
        assert saw_infeasible, "the sample should exercise infeasible designs"

    def test_engine_routes_batches_through_the_kernel(self):
        vectorized, _ = case_study_pair()
        rng = np.random.default_rng(3)
        genotypes = [vectorized.space.random_genotype(rng) for _ in range(64)]
        before = vectorized.engine.stats.snapshot()
        vectorized.evaluate_batch(genotypes)
        delta = vectorized.engine.stats.snapshot() - before
        assert delta.vectorized_designs > 0
        assert delta.vectorized_designs == delta.model_evaluations

    def test_single_evaluations_stay_scalar(self):
        vectorized, _ = case_study_pair()
        before = vectorized.engine.stats.snapshot()
        vectorized.evaluate(tuple(1 for _ in range(len(vectorized.space))))
        delta = vectorized.engine.stats.snapshot() - before
        assert delta.model_evaluations == 1
        assert delta.vectorized_designs == 0

    def test_vectorized_false_disables_the_kernel(self):
        _, scalar = case_study_pair()
        assert not scalar.supports_vectorized
        with pytest.raises(RuntimeError):
            scalar.compute_columns_batch([(0,) * len(scalar.space)])


class TestAlgorithmParity:
    """Same seed => identical fronts with the fast path on or off."""

    def _pair(self):
        evaluator = build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs"))
        scalar_evaluator = build_case_study_evaluator(
            n_nodes=2, applications=("dwt", "cs")
        )
        fast = WbsnDseProblem(evaluator, **SMALL_DOMAINS)
        slow = WbsnDseProblem(scalar_evaluator, **SMALL_DOMAINS, vectorized=False)
        return fast, slow

    def test_exhaustive(self):
        fast, slow = self._pair()
        assert front_signature(ExhaustiveSearch(fast).run()) == front_signature(
            ExhaustiveSearch(slow).run()
        )

    def test_random_search(self):
        fast, slow = self._pair()
        assert front_signature(
            RandomSearch(fast, samples=150, seed=5).run()
        ) == front_signature(RandomSearch(slow, samples=150, seed=5).run())

    def test_nsga2(self):
        fast, slow = self._pair()
        settings = Nsga2Settings(population_size=16, generations=6, seed=9)
        assert front_signature(Nsga2(fast, settings).run()) == front_signature(
            Nsga2(slow, settings).run()
        )

    def test_simulated_annealing(self):
        fast, slow = self._pair()
        settings = SimulatedAnnealingSettings(iterations=200, seed=5, batch_size=8)
        assert front_signature(
            MultiObjectiveSimulatedAnnealing(fast, settings).run()
        ) == front_signature(
            MultiObjectiveSimulatedAnnealing(slow, settings).run()
        )


# ---------------------------------------------------------------------------
# Engine wiring on a synthetic (non-WBSN) problem


class SyntheticVectorProblem(OptimizationProblem):
    """A toy problem with hand-written scalar and columnar compute paths."""

    def __init__(self, supports_vectorized: bool = True) -> None:
        self.space = DesignSpace(
            [
                ParameterDomain("x", tuple(range(8))),
                ParameterDomain("y", tuple(range(8))),
            ]
        )
        self.n_objectives = 2
        self.evaluations = 0
        self.supports_vectorized = supports_vectorized
        self.batch_calls = 0
        self.engine = EvaluationEngine().bind(self)

    def evaluate(self, genotype):
        design = self.engine.evaluate(genotype)
        self.evaluations += 1
        return design

    def evaluate_batch(self, genotypes):
        designs = self.engine.evaluate_many(genotypes)
        self.evaluations += len(designs)
        return designs

    def compute_design(self, genotype):
        x, y = (int(gene) for gene in genotype)
        return EvaluatedDesign(
            genotype=self.space.validate_genotype(genotype),
            objectives=(float(x + y), float(14 - x - y)),
            feasible=True,
            phenotype={"x": x, "y": y},
        )

    def compute_columns_batch(self, genotypes):
        self.batch_calls += 1
        matrix = self.space.index_matrix(genotypes)
        first = matrix[:, 0] + matrix[:, 1]
        return WbsnBatchColumns(
            objectives=np.stack([first.astype(float), 14.0 - first], axis=1),
            feasible=np.ones(len(matrix), dtype=bool),
            violation_counts=np.zeros(len(matrix), dtype=np.int64),
        )

    def materialise_designs(self, matrix, batch):
        return [
            EvaluatedDesign(
                genotype=tuple(row),
                objectives=tuple(objective_row),
                feasible=feasible,
                phenotype={"x": row[0], "y": row[1]},
            )
            for row, objective_row, feasible in zip(
                matrix.tolist(), batch.objectives.tolist(), batch.feasible.tolist()
            )
        ]


class TestEngineWiring:
    def test_batches_use_the_problem_kernel(self):
        problem = SyntheticVectorProblem()
        genotypes = [(x, y) for x in range(8) for y in range(8)]
        designs = problem.evaluate_batch(genotypes)
        assert problem.batch_calls == 1
        assert problem.engine.stats.vectorized_designs == len(genotypes)
        scalar = [problem.compute_design(genotype) for genotype in genotypes]
        assert [d.objectives for d in designs] == [d.objectives for d in scalar]

    def test_problems_without_kernel_fall_back_to_scalar(self):
        problem = SyntheticVectorProblem(supports_vectorized=False)
        problem.evaluate_batch([(1, 2), (3, 4)])
        assert problem.batch_calls == 0
        assert problem.engine.stats.vectorized_designs == 0
        assert problem.engine.stats.model_evaluations == 2

    def test_engine_flag_forces_the_scalar_path(self):
        problem = SyntheticVectorProblem()
        problem.engine.vectorized_enabled = False
        problem.evaluate_batch([(1, 2), (3, 4)])
        assert problem.batch_calls == 0
        assert problem.engine.stats.vectorized_designs == 0

    def test_genotype_cache_cooperates_with_the_kernel(self):
        problem = SyntheticVectorProblem()
        problem.evaluate_batch([(1, 2), (1, 2), (3, 4)])
        stats = problem.engine.stats
        # Only the two distinct misses reached the kernel.
        assert stats.vectorized_designs == 2
        assert stats.genotype_cache_hits == 1


# ---------------------------------------------------------------------------
# NumPy Pareto kernels against the original pure-Python implementations


def reference_front_indices(objectives):
    """The seed repository's pure-Python front extraction."""
    points = [tuple(point) for point in objectives]
    front = []
    for index, candidate in enumerate(points):
        dominated = False
        for other_index, other in enumerate(points):
            if other_index == index:
                continue
            if dominates(other, candidate) or (
                other == candidate and other_index < index
            ):
                dominated = True
                break
        if not dominated:
            front.append(index)
    return front


def reference_non_dominated_sort(objectives):
    """The seed repository's pure-Python fast non-dominated sorting."""
    count = len(objectives)
    dominated_by = [[] for _ in range(count)]
    domination_count = [0] * count
    fronts = [[]]
    for p in range(count):
        for q in range(count):
            if p == q:
                continue
            if dominates(objectives[p], objectives[q]):
                dominated_by[p].append(q)
            elif dominates(objectives[q], objectives[p]):
                domination_count[p] += 1
        if domination_count[p] == 0:
            fronts[0].append(p)
    current = 0
    while fronts[current]:
        next_front = []
        for p in fronts[current]:
            for q in dominated_by[p]:
                domination_count[q] -= 1
                if domination_count[q] == 0:
                    next_front.append(q)
        current += 1
        fronts.append(next_front)
    return [front for front in fronts if front]


_objective_sets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    ).map(lambda point: tuple(float(v) for v in point)),
    min_size=1,
    max_size=40,
)


class TestParetoKernelEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(points=_objective_sets)
    def test_front_indices_match_the_reference(self, points):
        assert pareto_front_indices(points) == reference_front_indices(points)

    @settings(max_examples=120, deadline=None)
    @given(points=_objective_sets)
    def test_non_dominated_sort_matches_the_reference_ordering(self, points):
        assert non_dominated_sort(points) == reference_non_dominated_sort(points)

    def test_infinite_objectives_are_handled(self):
        points = [(1.0, np.inf), (1.0, 2.0), (np.inf, np.inf), (0.5, np.inf)]
        assert pareto_front_indices(points) == reference_front_indices(points)
        assert non_dominated_sort(points) == reference_non_dominated_sort(points)

    def test_large_sets_use_the_hierarchical_path(self):
        rng = np.random.default_rng(0)
        points = [tuple(row) for row in rng.random((1500, 3))]
        fast = pareto_front_indices(points)
        assert fast == reference_front_indices(points)

    def test_anti_chain_degenerate_case(self):
        # Every point mutually non-dominated: block pruning cannot shrink.
        count = 1200
        points = [(float(i), float(count - i)) for i in range(count)]
        assert pareto_front_indices(points) == list(range(count))

    @settings(max_examples=60, deadline=None)
    @given(points=_objective_sets)
    def test_crowding_distance_extremes_and_interiors(self, points):
        distances = crowding_distance(points)
        assert len(distances) == len(points)
        assert all(d >= 0 for d in distances)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pareto_front_indices([(1.0, 2.0), (1.0,)])


# ---------------------------------------------------------------------------
# Bounded node cache (LRU) and NodeConfigLike


class TestLruNodeCache:
    def _evaluate_some(self, max_entries):
        evaluator = build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs"))
        engine = EvaluationEngine(
            node_cache_max_entries=max_entries, vectorized=False
        )
        problem = WbsnDseProblem(
            evaluator, **SMALL_DOMAINS, engine=engine, vectorized=False
        )
        genotypes = list(problem.space.enumerate_genotypes())
        problem.evaluate_batch(genotypes)
        return problem

    def test_cache_stays_bounded_and_counts_evictions(self):
        problem = self._evaluate_some(max_entries=4)
        assert problem.evaluator.cache_size <= 4
        assert problem.engine.stats.node_cache_evictions > 0

    def test_unbounded_cache_never_evicts(self):
        problem = self._evaluate_some(max_entries=None)
        assert problem.engine.stats.node_cache_evictions == 0

    def test_bounded_cache_preserves_results(self):
        bounded = self._evaluate_some(max_entries=2)
        unbounded = self._evaluate_some(max_entries=None)
        assert front_signature(
            ExhaustiveSearch(bounded).run()
        ) == front_signature(ExhaustiveSearch(unbounded).run())

    def test_lru_eviction_order(self):
        from repro.experiments.casestudy import DEFAULT_MAC_CONFIG
        from repro.shimmer.platform import ShimmerNodeConfig

        evaluator = build_case_study_evaluator(n_nodes=1, applications=("dwt",))
        cached = CachedNetworkEvaluator(evaluator, max_entries=2)
        configs = [[ShimmerNodeConfig(ratio, 8e6)] for ratio in (0.2, 0.25, 0.3)]
        mac = DEFAULT_MAC_CONFIG
        cached.evaluate(configs[0], mac)
        cached.evaluate(configs[1], mac)
        cached.evaluate(configs[0], mac)  # refresh 0 -> 1 becomes LRU
        cached.evaluate(configs[2], mac)  # evicts 1
        calls_before = cached.stats.node_model_calls
        cached.evaluate(configs[0], mac)  # still cached
        assert cached.stats.node_model_calls == calls_before
        cached.evaluate(configs[1], mac)  # was evicted -> recomputed
        assert cached.stats.node_model_calls == calls_before + 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            EvaluationEngine(node_cache_max_entries=0)
        with pytest.raises(ValueError):
            CachedNetworkEvaluator(
                build_case_study_evaluator(n_nodes=1, applications=("dwt",)),
                max_entries=-1,
            )


class TestNodeConfigLike:
    def test_duck_typed_configs_evaluate(self):
        from repro.core.evaluator import NodeConfigLike

        class CustomConfig:
            compression_ratio = 0.3

            @property
            def microcontroller_frequency_hz(self):
                return 8e6

            def __hash__(self):
                return hash((self.compression_ratio, 8e6))

        config = CustomConfig()
        assert isinstance(config, NodeConfigLike)
        evaluator = build_case_study_evaluator(n_nodes=1, applications=("dwt",))
        from repro.experiments.casestudy import DEFAULT_MAC_CONFIG

        evaluation = evaluator.evaluate([config], DEFAULT_MAC_CONFIG)
        assert evaluation.objectives.energy_w > 0
