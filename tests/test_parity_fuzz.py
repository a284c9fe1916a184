"""Randomized differential fuzzing of the scalar vs vectorized paths.

Seeded random genotype batches are pushed through both evaluation paths for
both MAC models (beacon-enabled GTS and unslotted CSMA/CA) and both
objective sets (full three-metric and energy/delay baseline), asserting
*exact* equality of every objective column, the feasibility flags and the
violation counts.  This is the differential harness locking down the seam's
core invariant — vectorization is semantically invisible, bit for bit — on
inputs nobody hand-picked.  The columnar result
path (``evaluate_batch_columns`` + lazy materialisation) is fuzzed against
the same scalar reference: raw column rows, their materialised designs, and
the scalar-fallback columns must all agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.pareto import pareto_front_indices, use_skyline
from repro.dse.problem import WbsnDseProblem, csma_mac_parameterisation
from repro.engine import EvaluationEngine
from repro.experiments.casestudy import (
    build_baseline_evaluator,
    build_case_study_evaluator,
    build_csma_baseline_evaluator,
    build_csma_case_study_evaluator,
)

#: (mac family, baseline objectives?) -> problem factory matrix under fuzz.
SCENARIOS = {
    "beacon-full": (build_case_study_evaluator, None),
    "beacon-baseline": (build_baseline_evaluator, None),
    "csma-full": (build_csma_case_study_evaluator, csma_mac_parameterisation),
    "csma-baseline": (build_csma_baseline_evaluator, csma_mac_parameterisation),
}

FUZZ_SEEDS = (0, 1, 2, 3)

#: Batch size per seed; large enough to hit every MAC configuration and a
#: healthy mix of feasible and infeasible candidates.
BATCH = 96


def build_pair(scenario: str) -> tuple[WbsnDseProblem, WbsnDseProblem]:
    """Independent (vectorized, scalar) problems over the same model."""
    build, mac_parameterisation = SCENARIOS[scenario]

    def problem(vectorized: bool) -> WbsnDseProblem:
        kwargs = {}
        if mac_parameterisation is not None:
            kwargs["mac_parameterisation"] = mac_parameterisation()
        return WbsnDseProblem(
            build(),
            engine=EvaluationEngine(),
            vectorized=vectorized,
            **kwargs,
        )

    return problem(True), problem(False)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_random_batches_are_bit_identical(scenario, seed):
    vectorized, scalar = build_pair(scenario)
    assert vectorized.supports_vectorized
    rng = np.random.default_rng(seed)
    genotypes = [vectorized.space.random_genotype(rng) for _ in range(BATCH)]

    matrix = vectorized.space.index_matrix(genotypes)
    batch = vectorized.materialise_designs(
        matrix, vectorized.compute_columns_batch(matrix)
    )
    columns = vectorized.vectorized_kernel.evaluate_columns(
        vectorized.space.index_matrix(genotypes)
    )

    for row, (genotype, fast) in enumerate(zip(genotypes, batch)):
        slow = scalar.compute_design(genotype)
        # Every objective column, exactly — no tolerance.
        assert fast.objectives == slow.objectives, (scenario, seed, genotype)
        assert fast.feasible == slow.feasible, (scenario, seed, genotype)
        assert fast.genotype == slow.genotype
        # The raw kernel columns agree with the materialised designs and
        # with the scalar violation structure.
        assert tuple(columns.objectives[row].tolist()) == fast.objectives
        assert bool(columns.feasible[row]) == fast.feasible
        node_configs, mac_config = scalar.decode(genotype)
        evaluation = scalar.evaluator.evaluate(node_configs, mac_config)
        assert columns.violation_counts[row] == len(evaluation.violations)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_engine_batches_match_scalar_engine_batches(scenario):
    """End-to-end engine runs (caches on) agree design-for-design."""
    vectorized, scalar = build_pair(scenario)
    rng = np.random.default_rng(13)
    genotypes = [vectorized.space.random_genotype(rng) for _ in range(64)]
    # Duplicates exercise the dedup path on both sides.
    genotypes += genotypes[:16]
    fast = vectorized.evaluate_batch(genotypes)
    slow = scalar.evaluate_batch(genotypes)
    assert [d.objectives for d in fast] == [d.objectives for d in slow]
    assert [d.feasible for d in fast] == [d.feasible for d in slow]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_engine_batch_misses_all_run_on_the_kernel(scenario):
    """Engine batches (dedup and memo mask on) equal the scalar path
    exactly, and every miss ran on the column kernel, none on the scalar
    loop."""
    vectorized, scalar = build_pair(scenario)
    before = vectorized.engine.stats.snapshot()  # skip the constructor's probe
    rng = np.random.default_rng(FUZZ_SEEDS[0])
    genotypes = [vectorized.space.random_genotype(rng) for _ in range(BATCH)]
    genotypes += genotypes[:16]  # duplicates exercise the dedup+mask path
    fast = vectorized.evaluate_batch(genotypes)
    slow = scalar.evaluate_batch(genotypes)
    assert [d.objectives for d in fast] == [d.objectives for d in slow]
    assert [d.feasible for d in fast] == [d.feasible for d in slow]
    assert [d.genotype for d in fast] == [d.genotype for d in slow]
    delta = vectorized.engine.stats.snapshot() - before
    assert delta.vectorized_designs == delta.model_evaluations
    assert delta.model_evaluations > 0


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_columnar_batch_fronts_match_the_scalar_batch_front(scenario):
    """The front of a columnar batch, taken on its raw columns, is the
    exact front of the scalar path's designs: membership and ordering."""
    vectorized, scalar = build_pair(scenario)
    rng = np.random.default_rng(FUZZ_SEEDS[2])
    genotypes = [vectorized.space.random_genotype(rng) for _ in range(BATCH)]
    batch = vectorized.evaluate_batch_columns(genotypes)

    slow = scalar.evaluate_batch(genotypes)
    feasible = [d for d in slow if d.feasible] or slow
    front = pareto_front_indices([d.objectives for d in feasible])
    want = [(feasible[i].genotype, feasible[i].objectives) for i in front]

    rows = np.flatnonzero(batch.feasible)
    pool = batch.take(rows) if rows.size else batch
    got_front = pool.take(pareto_front_indices(pool.objectives))
    got = [
        (tuple(genotype), tuple(objectives))
        for genotype, objectives in zip(
            got_front.genotypes.tolist(), got_front.objectives.tolist()
        )
    ]
    assert got == want, scenario
    assert want


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_columnar_batches_are_bit_identical(scenario, seed):
    """Columnar result rows equal the scalar path exactly, row for row."""
    vectorized, scalar = build_pair(scenario)
    rng = np.random.default_rng(seed)
    genotypes = [vectorized.space.random_genotype(rng) for _ in range(BATCH)]
    genotypes += genotypes[:16]  # duplicates exercise the dedup+inverse path

    batch = vectorized.evaluate_batch_columns(genotypes)
    assert len(batch) == len(genotypes)
    for row, genotype in enumerate(genotypes):
        slow = scalar.compute_design(genotype)
        assert tuple(batch.objectives[row].tolist()) == slow.objectives, (
            scenario,
            seed,
            genotype,
        )
        assert bool(batch.feasible[row]) == slow.feasible
        assert int(batch.violation_counts[row]) == slow.violation_count
        assert tuple(batch.genotypes[row].tolist()) == slow.genotype
    # Materialised designs reproduce the rows they came from.
    designs = batch.materialise()
    assert [d.objectives for d in designs] == [
        tuple(row) for row in batch.objectives.tolist()
    ]
    assert [d.genotype for d in designs] == [
        tuple(row) for row in batch.genotypes.tolist()
    ]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scalar_fallback_columns_match_the_kernel_columns(scenario):
    """Kernel-less problems flatten per-design results into identical columns."""
    vectorized, scalar = build_pair(scenario)
    rng = np.random.default_rng(FUZZ_SEEDS[1])
    genotypes = [vectorized.space.random_genotype(rng) for _ in range(64)]
    fast = vectorized.evaluate_batch_columns(genotypes)
    slow = scalar.evaluate_batch_columns(genotypes)
    assert fast.objectives.tolist() == slow.objectives.tolist()
    assert fast.feasible.tolist() == slow.feasible.tolist()
    assert fast.violation_counts.tolist() == slow.violation_counts.tolist()
    assert fast.genotypes.tolist() == slow.genotypes.tolist()
    # The fallback really was scalar: no kernel work on the scalar side.
    assert scalar.engine.stats.vectorized_designs == 0
    assert vectorized.engine.stats.vectorized_designs > 0


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", ["numpy", "module"])
def test_explicit_backend_batches_are_bit_identical(scenario, backend):
    """The array-backend seam is semantically invisible: kernels compiled
    through an explicitly named backend (or a namespace module handed in
    directly) equal the default-compiled kernels bit for bit, and the
    resolved backend name is surfaced in the engine stats."""
    import numpy

    build, mac_parameterisation = SCENARIOS[scenario]
    kwargs = {}
    if mac_parameterisation is not None:
        kwargs["mac_parameterisation"] = mac_parameterisation()
    default = WbsnDseProblem(build(), engine=EvaluationEngine(), **kwargs)
    explicit = WbsnDseProblem(
        build(),
        engine=EvaluationEngine(),
        array_backend="numpy" if backend == "numpy" else numpy,
        **kwargs,
    )
    assert explicit.vectorized_kernel.backend_name == "numpy"
    assert explicit.engine.stats.array_backend == "numpy"
    assert default.engine.stats.array_backend == "numpy"
    rng = np.random.default_rng(FUZZ_SEEDS[2])
    genotypes = [default.space.random_genotype(rng) for _ in range(BATCH)]
    want = default.evaluate_batch_columns(genotypes)
    got = explicit.evaluate_batch_columns(genotypes)
    assert got.objectives.tolist() == want.objectives.tolist()
    assert got.feasible.tolist() == want.feasible.tolist()
    assert got.violation_counts.tolist() == want.violation_counts.tolist()


@pytest.mark.parametrize("scenario", ["beacon-full", "csma-full"])
def test_pickled_kernel_rebinds_its_backend_and_stays_identical(scenario):
    """Kernels cross process boundaries by name, not by module: a pickle
    round trip drops the unpicklable namespace, re-resolves it from
    ``backend_name`` on load, and evaluates bit-identical columns."""
    import pickle

    vectorized, _ = build_pair(scenario)
    kernel = vectorized.vectorized_kernel
    clone = pickle.loads(pickle.dumps(kernel))
    assert clone.backend_name == kernel.backend_name == "numpy"
    rng = np.random.default_rng(FUZZ_SEEDS[1])
    genotypes = [vectorized.space.random_genotype(rng) for _ in range(48)]
    matrix = vectorized.space.index_matrix(genotypes)
    want = kernel.evaluate_columns(matrix)
    got = clone.evaluate_columns(matrix)
    assert got.objectives.tolist() == want.objectives.tolist()
    assert got.feasible.tolist() == want.feasible.tolist()
    assert got.violation_counts.tolist() == want.violation_counts.tolist()


def test_fuzz_exercises_both_feasibility_outcomes():
    """The seeded batches cover feasible and infeasible designs (meta-test)."""
    for scenario in sorted(SCENARIOS):
        vectorized, _ = build_pair(scenario)
        rng = np.random.default_rng(FUZZ_SEEDS[0])
        genotypes = [vectorized.space.random_genotype(rng) for _ in range(BATCH)]
        flags = set(vectorized.compute_columns_batch(genotypes).feasible.tolist())
        assert flags == {True, False}, scenario


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_skyline_fronts_match_blockwise_fronts(scenario, seed):
    """Front extraction over fuzzed objective rows is kernel-invariant:
    the sort-based skyline kernels and the blockwise dominance matrices
    pick the same rows in the same order, bit for bit."""
    vectorized, _ = build_pair(scenario)
    rng = np.random.default_rng(seed)
    genotypes = [vectorized.space.random_genotype(rng) for _ in range(BATCH)]
    batch = vectorized.evaluate_batch_columns(genotypes)
    pools = [batch.objectives, batch.objectives[batch.feasible]]
    for pool in pools:
        with use_skyline(True):
            skyline = pareto_front_indices(pool)
        with use_skyline(False):
            blockwise = pareto_front_indices(pool)
        assert skyline == blockwise, (scenario, seed)
