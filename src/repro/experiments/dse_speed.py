"""Section 5.2 — evaluation speed: analytical model versus network simulation.

The paper reports that one Castalia simulation of the case study takes 5 to
10 minutes whereas the analytical model is evaluated roughly 4800 times per
second — about six orders of magnitude faster per configuration.  This
experiment measures both sides with the reproduction's own substrates: the
model evaluation throughput of the case-study evaluator, and the wall-clock
time of a packet-level simulation long enough to produce statistically
meaningful delay figures.  The claim that must hold is the *shape*: the model
is several orders of magnitude faster per evaluated configuration (the exact
ratio depends on how heavy the reference simulator is — our from-scratch
simulator is considerably lighter than Castalia).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.dse.pareto import pareto_front_indices
from repro.dse.problem import WbsnDseProblem
from repro.engine import EvaluationEngine
from repro.experiments.casestudy import DEFAULT_MAC_CONFIG, build_case_study_evaluator
from repro.mac802154.config import Ieee802154MacConfig
from repro.netsim.network import StarNetworkScenario
from repro.shimmer.platform import (
    ECG_SAMPLING_RATE_HZ,
    SAMPLE_WIDTH_BYTES,
    ShimmerNodeConfig,
)

__all__ = ["DseSpeedResult", "run_dse_speed", "main"]


@dataclass(frozen=True)
class DseSpeedResult:
    """Timing comparison between the model and the packet-level simulator."""

    model_evaluations: int
    model_wall_clock_s: float
    simulated_seconds: float
    simulation_wall_clock_s: float
    simulation_events: int
    #: designs served through the cached evaluation engine (0 = not measured)
    engine_evaluations: int = 0
    engine_wall_clock_s: float = 0.0
    engine_model_evaluations: int = 0
    #: designs served through the vectorized fast path (0 = not measured)
    vectorized_evaluations: int = 0
    vectorized_wall_clock_s: float = 0.0
    #: designs swept *to the front* through the columnar result path
    #: (0 = not measured): the batch is pruned on raw objective columns and
    #: only the non-dominated survivors are materialised (their count is in
    #: ``columnar_designs_materialised``); ``columnar_object_wall_clock_s``
    #: times the same evaluate-prune-front workload on the object path
    #: (materialise everything, then prune), so the pair isolates the cost
    #: of parent-side design materialisation
    columnar_evaluations: int = 0
    columnar_wall_clock_s: float = 0.0
    columnar_object_wall_clock_s: float = 0.0
    columnar_designs_materialised: int = 0
    #: designs served through the sharded shared-memory backend (0 = not
    #: measured); ``sharded_designs`` counts the rows the workers' column
    #: kernels actually computed (a silent fallback to the scalar path would
    #: leave it at zero), ``sharded_workers`` the pool size used
    sharded_evaluations: int = 0
    sharded_wall_clock_s: float = 0.0
    sharded_designs: int = 0
    sharded_workers: int = 0

    @property
    def model_evaluations_per_second(self) -> float:
        """Analytical evaluations per second of wall-clock time."""
        return self.model_evaluations / self.model_wall_clock_s

    @property
    def engine_evaluations_per_second(self) -> float:
        """Designs served per second through the caching engine."""
        if self.engine_wall_clock_s <= 0:
            return 0.0
        return self.engine_evaluations / self.engine_wall_clock_s

    @property
    def vectorized_evaluations_per_second(self) -> float:
        """Designs served per second through the columnar fast path."""
        if self.vectorized_wall_clock_s <= 0:
            return 0.0
        return self.vectorized_evaluations / self.vectorized_wall_clock_s

    @property
    def vectorized_speedup(self) -> float:
        """Fast-path throughput relative to the scalar engine path."""
        scalar = self.engine_evaluations_per_second
        if scalar <= 0:
            return 0.0
        return self.vectorized_evaluations_per_second / scalar

    @property
    def columnar_evaluations_per_second(self) -> float:
        """Designs swept to the front per second on the columnar path."""
        if self.columnar_wall_clock_s <= 0:
            return 0.0
        return self.columnar_evaluations / self.columnar_wall_clock_s

    @property
    def columnar_speedup(self) -> float:
        """Columnar to-the-front sweep relative to the object-path sweep."""
        if self.columnar_wall_clock_s <= 0:
            return 0.0
        return self.columnar_object_wall_clock_s / self.columnar_wall_clock_s

    @property
    def sharded_evaluations_per_second(self) -> float:
        """Designs served per second through the sharded columnar backend."""
        if self.sharded_wall_clock_s <= 0:
            return 0.0
        return self.sharded_evaluations / self.sharded_wall_clock_s

    @property
    def sharded_speedup(self) -> float:
        """Sharded throughput relative to the single-process column kernel."""
        single = self.vectorized_evaluations_per_second
        if single <= 0:
            return 0.0
        return self.sharded_evaluations_per_second / single

    @property
    def speedup(self) -> float:
        """Wall-clock ratio between one simulation and one model evaluation."""
        per_evaluation = self.model_wall_clock_s / self.model_evaluations
        return self.simulation_wall_clock_s / per_evaluation

    @property
    def speedup_orders_of_magnitude(self) -> float:
        """The speed-up expressed in orders of magnitude."""
        import math

        return math.log10(self.speedup)


def run_dse_speed(
    model_evaluations: int = 2000,
    simulated_seconds: float = 1800.0,
    compression_ratio: float = 0.3,
    frequency_hz: float = 8e6,
    mac_config: Ieee802154MacConfig = DEFAULT_MAC_CONFIG,
    engine_evaluations: int = 2000,
    engine_seed: int = 0,
    vectorized_evaluations: int = 2000,
    columnar_evaluations: int = 2000,
    sharded_evaluations: int = 0,
    sharded_max_workers: int | None = None,
) -> DseSpeedResult:
    """Measure the model throughput and the cost of one network simulation.

    Besides the raw-model and simulator timings, the experiment measures the
    throughput of the *engine paths* used by the actual exploration: a
    stream of random case-study genotypes evaluated in one batch through a
    :class:`~repro.engine.EvaluationEngine` — once on the scalar path
    (genotype cache, per-design model work), once on the vectorized fast
    path (the whole batch through the columnar NumPy kernel, one design
    object per served genotype), and once on the columnar *result* path
    (``evaluate_batch_columns``: the batch is pruned on raw objective
    columns and only the non-dominated survivors are ever materialised —
    the sweep discipline the search algorithms use).  Set
    ``engine_evaluations=0`` / ``vectorized_evaluations=0`` /
    ``columnar_evaluations=0`` to skip a measurement.

    ``sharded_evaluations`` additionally measures the sharded shared-memory
    backend (``backend="sharded"``): the same batch shape, sharded across
    ``sharded_max_workers`` worker processes.  It is off by default — worker
    pools only pay off for large batches on multi-core hosts; the benchmark
    suite (``benchmarks/test_bench_dse_speed.py``) runs the tracked sharded
    sweep with a warmed pool.
    """
    if model_evaluations <= 0:
        raise ValueError("model_evaluations must be positive")
    if engine_evaluations < 0:
        raise ValueError("engine_evaluations cannot be negative")
    if vectorized_evaluations < 0:
        raise ValueError("vectorized_evaluations cannot be negative")
    if columnar_evaluations < 0:
        raise ValueError("columnar_evaluations cannot be negative")
    if sharded_evaluations < 0:
        raise ValueError("sharded_evaluations cannot be negative")
    evaluator = build_case_study_evaluator()
    node_configs = [
        ShimmerNodeConfig(compression_ratio, frequency_hz)
        for _ in range(len(evaluator.nodes))
    ]

    started = time.perf_counter()
    for _ in range(model_evaluations):
        evaluator.evaluate(node_configs, mac_config)
    model_wall_clock = time.perf_counter() - started

    engine_model_evaluations = 0
    engine_wall_clock = 0.0
    if engine_evaluations:
        with EvaluationEngine() as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(), engine=engine, vectorized=False
            )
            rng = np.random.default_rng(engine_seed)
            genotypes = [
                problem.space.random_genotype(rng)
                for _ in range(engine_evaluations)
            ]
            stats_before = engine.stats.snapshot()
            started = time.perf_counter()
            problem.evaluate_batch(genotypes)
            engine_wall_clock = time.perf_counter() - started
            stats = engine.stats.snapshot() - stats_before
            engine_model_evaluations = stats.model_evaluations

    vectorized_wall_clock = 0.0
    if vectorized_evaluations:
        with EvaluationEngine() as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(), engine=engine
            )
            rng = np.random.default_rng(engine_seed)
            genotypes = [
                problem.space.random_genotype(rng)
                for _ in range(vectorized_evaluations)
            ]
            started = time.perf_counter()
            problem.evaluate_batch(genotypes)
            vectorized_wall_clock = time.perf_counter() - started

    columnar_wall_clock = 0.0
    columnar_object_wall_clock = 0.0
    columnar_materialised = 0
    if columnar_evaluations:
        # Same workload on both sides — evaluate the batch, extract its
        # non-dominated front — so the pair isolates what the columnar path
        # removes: materialising one design object per evaluated genotype.
        with EvaluationEngine() as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(), engine=engine
            )
            rng = np.random.default_rng(engine_seed)
            genotypes = [
                problem.space.random_genotype(rng)
                for _ in range(columnar_evaluations)
            ]
            started = time.perf_counter()
            designs = problem.evaluate_batch(genotypes)
            front = pareto_front_indices(
                [design.objectives for design in designs]
            )
            [designs[index] for index in front]
            columnar_object_wall_clock = time.perf_counter() - started
        with EvaluationEngine() as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(), engine=engine
            )
            rng = np.random.default_rng(engine_seed)
            genotypes = [
                problem.space.random_genotype(rng)
                for _ in range(columnar_evaluations)
            ]
            stats_before = engine.stats.snapshot()
            started = time.perf_counter()
            batch = problem.evaluate_batch_columns(genotypes)
            batch.materialise(pareto_front_indices(batch.objectives))
            columnar_wall_clock = time.perf_counter() - started
            columnar_materialised = (
                engine.stats.snapshot() - stats_before
            ).designs_materialised

    sharded_wall_clock = 0.0
    sharded_designs = 0
    sharded_workers = 0
    if sharded_evaluations:
        # The engine context releases the worker pool and every
        # shared-memory segment even if the measured batch raises.
        with EvaluationEngine(
            backend="sharded", max_workers=sharded_max_workers
        ) as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(), engine=engine
            )
            sharded_workers = engine.backend.max_workers
            rng = np.random.default_rng(engine_seed)
            genotypes = [
                problem.space.random_genotype(rng)
                for _ in range(sharded_evaluations)
            ]
            # Spawn the pool outside the measured window: a separate seed
            # keeps the warm-up rows out of the measured batch's cache path.
            warmup_rng = np.random.default_rng(engine_seed + 1_000_003)
            problem.evaluate_batch(
                [problem.space.random_genotype(warmup_rng) for _ in range(4)]
            )
            stats_before = engine.stats.snapshot()
            started = time.perf_counter()
            problem.evaluate_batch(genotypes)
            sharded_wall_clock = time.perf_counter() - started
            sharded_designs = (
                engine.stats.snapshot() - stats_before
            ).sharded_designs

    output_stream = ECG_SAMPLING_RATE_HZ * SAMPLE_WIDTH_BYTES * compression_ratio
    scenario = StarNetworkScenario(
        [output_stream] * len(evaluator.nodes),
        mac_config,
        duration_s=simulated_seconds,
    )
    simulation = scenario.run()

    return DseSpeedResult(
        model_evaluations=model_evaluations,
        model_wall_clock_s=model_wall_clock,
        simulated_seconds=simulated_seconds,
        simulation_wall_clock_s=simulation.wall_clock_s,
        simulation_events=simulation.events_dispatched,
        engine_evaluations=engine_evaluations,
        engine_wall_clock_s=engine_wall_clock,
        engine_model_evaluations=engine_model_evaluations,
        vectorized_evaluations=vectorized_evaluations,
        vectorized_wall_clock_s=vectorized_wall_clock,
        columnar_evaluations=columnar_evaluations,
        columnar_wall_clock_s=columnar_wall_clock,
        columnar_object_wall_clock_s=columnar_object_wall_clock,
        columnar_designs_materialised=columnar_materialised,
        sharded_evaluations=sharded_evaluations,
        sharded_wall_clock_s=sharded_wall_clock,
        sharded_designs=sharded_designs,
        sharded_workers=sharded_workers,
    )


def main() -> DseSpeedResult:
    """Print the speed comparison."""
    result = run_dse_speed()
    print("Evaluation speed — analytical model vs packet-level simulation")
    print(
        f"model: {result.model_evaluations} evaluations in "
        f"{result.model_wall_clock_s:.2f} s "
        f"({result.model_evaluations_per_second:.0f} evaluations/s; paper: ~4800/s)"
    )
    if result.engine_evaluations:
        print(
            f"engine path (scalar): {result.engine_evaluations} designs served in "
            f"{result.engine_wall_clock_s:.2f} s "
            f"({result.engine_evaluations_per_second:.0f} served/s; "
            f"{result.engine_model_evaluations} model evaluations)"
        )
    if result.vectorized_evaluations:
        print(
            f"engine path (vectorized): {result.vectorized_evaluations} designs "
            f"served in {result.vectorized_wall_clock_s:.2f} s "
            f"({result.vectorized_evaluations_per_second:.0f} served/s; "
            f"{result.vectorized_speedup:.1f}x the scalar engine path)"
        )
    if result.columnar_evaluations:
        print(
            f"engine path (columnar-to-the-front): {result.columnar_evaluations} "
            f"designs swept to the front in {result.columnar_wall_clock_s:.3f} s "
            f"vs {result.columnar_object_wall_clock_s:.3f} s on the object path "
            f"({result.columnar_speedup:.2f}x; only "
            f"{result.columnar_designs_materialised} front designs materialised)"
        )
    if result.sharded_evaluations:
        print(
            f"engine path (sharded, {result.sharded_workers} workers): "
            f"{result.sharded_evaluations} designs served in "
            f"{result.sharded_wall_clock_s:.2f} s "
            f"({result.sharded_evaluations_per_second:.0f} served/s; "
            f"{result.sharded_speedup:.2f}x the single-process kernel; "
            f"{result.sharded_designs} rows computed by worker kernels)"
        )
    print(
        f"simulation: {result.simulated_seconds:.0f} simulated seconds in "
        f"{result.simulation_wall_clock_s:.2f} s wall-clock "
        f"({result.simulation_events} events)"
    )
    print(
        f"per-configuration speed-up: {result.speedup:.0f}x "
        f"(~{result.speedup_orders_of_magnitude:.1f} orders of magnitude; "
        "paper: ~6 orders against Castalia)"
    )
    return result


if __name__ == "__main__":
    main()
