"""Parity suite of the vectorized fast path for CSMA/CA-backed problems.

The mirror of ``tests/test_vectorized.py`` for the unslotted CSMA/CA MAC
model: the columnar fast path must be *floating-point-identical* to the
scalar path (same seed, same fronts, bit for bit) for contention-based
problems across all four DSE algorithms, and caching must stay semantically
invisible (cache-on/off front identity).  The suite also covers the
protocol-based discovery of MAC column kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluator import WBSNEvaluator
from repro.core.mac_abstraction import resolve_mac_column_kernels
from repro.core.vectorized import VectorizedUnsupported, WbsnVectorizedKernel
from repro.dse.exhaustive import ExhaustiveSearch
from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.problem import WbsnDseProblem, csma_mac_parameterisation
from repro.dse.random_search import RandomSearch
from repro.dse.simulated_annealing import (
    MultiObjectiveSimulatedAnnealing,
    SimulatedAnnealingSettings,
)
from repro.engine import EvaluationEngine
from repro.experiments.casestudy import (
    build_csma_baseline_evaluator,
    build_csma_case_study_evaluator,
)
from repro.mac802154.csma import UnslottedCsmaMacModel
from repro.mac802154.model import BeaconEnabledMacModel
from repro.shimmer.platform import build_case_study_network

#: Restricted node-knob domains keeping exhaustive parity sweeps fast.
SMALL_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
)

#: Restricted MAC domains of the small CSMA problems.
SMALL_CSMA_MAC = dict(
    payload_bytes=(60, 80),
    backoff_exponent_pairs=((3, 5), (4, 6)),
)


def csma_problem(
    baseline: bool = False,
    vectorized: bool = True,
    n_nodes: int = 6,
    engine: EvaluationEngine | None = None,
    **kwargs,
) -> WbsnDseProblem:
    build = build_csma_baseline_evaluator if baseline else build_csma_case_study_evaluator
    return WbsnDseProblem(
        build(n_nodes=n_nodes),
        mac_parameterisation=csma_mac_parameterisation(),
        engine=engine if engine is not None else EvaluationEngine(),
        vectorized=vectorized,
        **kwargs,
    )


def small_csma_pair(engine_factory=EvaluationEngine, **kwargs):
    """A (vectorized, scalar) 2-node CSMA problem pair over the same model."""

    def build(vectorized: bool) -> WbsnDseProblem:
        evaluator = build_csma_case_study_evaluator(
            n_nodes=2, applications=("dwt", "cs")
        )
        return WbsnDseProblem(
            evaluator,
            **SMALL_DOMAINS,
            mac_parameterisation=csma_mac_parameterisation(**SMALL_CSMA_MAC),
            vectorized=vectorized,
            engine=engine_factory(),
            **kwargs,
        )

    return build(True), build(False)


def front_signature(front):
    return sorted((design.genotype, design.objectives) for design in front)


# ---------------------------------------------------------------------------
# Scalar-vs-vectorized parity on CSMA-backed problems


class TestCsmaParity:
    @pytest.mark.parametrize("baseline", [False, True])
    def test_randomized_batch_is_bit_identical(self, baseline):
        vectorized = csma_problem(baseline=baseline)
        scalar = csma_problem(baseline=baseline, vectorized=False)
        assert vectorized.supports_vectorized
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
        vectorized = csma_problem()
        scalar = csma_problem(vectorized=False)
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

    def test_engine_routes_csma_batches_through_the_kernel(self):
        """``vectorized_designs`` counts CSMA batches — no silent fallback."""
        problem = csma_problem()
        rng = np.random.default_rng(3)
        genotypes = [problem.space.random_genotype(rng) for _ in range(64)]
        before = problem.engine.stats.snapshot()
        problem.evaluate_batch(genotypes)
        delta = problem.engine.stats.snapshot() - before
        assert delta.vectorized_designs > 0
        assert delta.vectorized_designs == delta.model_evaluations

    def test_single_evaluations_stay_scalar(self):
        problem = csma_problem()
        before = problem.engine.stats.snapshot()
        problem.evaluate(tuple(1 for _ in range(len(problem.space))))
        delta = problem.engine.stats.snapshot() - before
        assert delta.model_evaluations == 1
        assert delta.vectorized_designs == 0


class TestMacKernelDiscovery:
    """Column support is discovered via the protocol, not hard-coded."""

    def test_both_shipped_macs_advertise_kernels(self):
        assert resolve_mac_column_kernels(BeaconEnabledMacModel()) is not None
        assert resolve_mac_column_kernels(UnslottedCsmaMacModel(6)) is not None

    def test_scalar_only_mac_is_rejected_by_compile(self):
        class ScalarOnlyCsma(UnslottedCsmaMacModel):
            def column_kernels(self):
                return None

        nodes = build_case_study_network(n_nodes=2, applications=("dwt", "cs"))
        evaluator = WBSNEvaluator(nodes, ScalarOnlyCsma(2), theta=0.5)
        problem = WbsnDseProblem(
            evaluator,
            **SMALL_DOMAINS,
            mac_parameterisation=csma_mac_parameterisation(**SMALL_CSMA_MAC),
        )
        # compile fell back: the problem still works, on the scalar path.
        assert not problem.supports_vectorized
        assert problem.evaluate(tuple(0 for _ in range(len(problem.space)))).objectives

    def test_delegated_kernels_take_the_fast_path(self):
        class DelegatingCsma(UnslottedCsmaMacModel):
            """Kernels served by a separate object, as the hook permits."""

            def column_kernels(self):
                return UnslottedCsmaMacModel(
                    self.n_contenders, self.max_backoffs, self.max_frame_retries
                )

        nodes = build_case_study_network(n_nodes=2, applications=("dwt", "cs"))
        evaluator = WBSNEvaluator(nodes, DelegatingCsma(2), theta=0.5)
        problem = WbsnDseProblem(
            evaluator,
            **SMALL_DOMAINS,
            mac_parameterisation=csma_mac_parameterisation(**SMALL_CSMA_MAC),
        )
        assert problem.supports_vectorized
        reference, _ = small_csma_pair()
        genotypes = list(problem.space.enumerate_genotypes())
        delegated = problem.compute_columns_batch(genotypes)
        direct = reference.compute_columns_batch(genotypes)
        assert delegated.objectives.tolist() == direct.objectives.tolist()


class TestCsmaAlgorithmParity:
    """Same seed => identical fronts with the fast path on or off."""

    def test_exhaustive(self):
        fast, slow = small_csma_pair()
        assert front_signature(ExhaustiveSearch(fast).run()) == front_signature(
            ExhaustiveSearch(slow).run()
        )

    def test_random_search(self):
        fast, slow = small_csma_pair()
        assert front_signature(
            RandomSearch(fast, samples=150, seed=5).run()
        ) == front_signature(RandomSearch(slow, samples=150, seed=5).run())

    def test_nsga2(self):
        fast, slow = small_csma_pair()
        settings = Nsga2Settings(population_size=16, generations=6, seed=9)
        assert front_signature(Nsga2(fast, settings).run()) == front_signature(
            Nsga2(slow, settings).run()
        )

    def test_simulated_annealing(self):
        fast, slow = small_csma_pair()
        settings = SimulatedAnnealingSettings(iterations=200, seed=5, batch_size=8)
        assert front_signature(
            MultiObjectiveSimulatedAnnealing(fast, settings).run()
        ) == front_signature(
            MultiObjectiveSimulatedAnnealing(slow, settings).run()
        )


class TestCsmaCacheIdentity:
    """Caches on or off, the CSMA fronts stay bitwise identical."""

    def _cached_and_uncached(self):
        cached, _ = small_csma_pair()
        uncached, _ = small_csma_pair(
            engine_factory=lambda: EvaluationEngine(genotype_cache=False)
        )
        return cached, uncached

    def test_exhaustive_identical(self):
        cached, uncached = self._cached_and_uncached()
        assert front_signature(ExhaustiveSearch(cached).run()) == front_signature(
            ExhaustiveSearch(uncached).run()
        )

    def test_nsga2_identical(self):
        cached, uncached = self._cached_and_uncached()
        settings = Nsga2Settings(population_size=16, generations=6, seed=9)
        assert front_signature(Nsga2(cached, settings).run()) == front_signature(
            Nsga2(uncached, settings).run()
        )

    def test_simulated_annealing_identical(self):
        cached, uncached = self._cached_and_uncached()
        settings = SimulatedAnnealingSettings(iterations=200, seed=5, batch_size=8)
        assert front_signature(
            MultiObjectiveSimulatedAnnealing(cached, settings).run()
        ) == front_signature(
            MultiObjectiveSimulatedAnnealing(uncached, settings).run()
        )

    def test_random_search_identical(self):
        cached, uncached = self._cached_and_uncached()
        assert front_signature(
            RandomSearch(cached, samples=120, seed=4).run()
        ) == front_signature(RandomSearch(uncached, samples=120, seed=4).run())


class TestCsmaKernelCompile:
    def test_compile_validates_every_reachable_mac_config(self):
        """The kernel's MAC table covers exactly the reachable cross product."""
        problem, _ = small_csma_pair()
        kernel = problem.vectorized_kernel
        assert isinstance(kernel, WbsnVectorizedKernel)
        assert len(kernel._mac_configs) == 4  # 2 payloads x 2 backoff windows

    def test_unsupported_objective_component_is_rejected(self):
        evaluator = build_csma_case_study_evaluator(
            n_nodes=2, applications=("dwt", "cs")
        )
        problem, _ = small_csma_pair()
        with pytest.raises(VectorizedUnsupported):
            WbsnVectorizedKernel.compile(
                network=evaluator,
                node_parameters=[
                    {"compression_ratio": 0, "frequency_hz": 1},
                    {"compression_ratio": 2, "frequency_hz": 3},
                ],
                frequency_column="frequency_hz",
                node_config_factory=lambda _i, values: WbsnDseProblem.build_node_config(
                    values
                ),
                mac_positions=(4, 5),
                mac_config_factory=WbsnDseProblem.build_csma_mac_config,
                domains=problem.space.domains,
                objective_components=("energy", "latency"),
            )
