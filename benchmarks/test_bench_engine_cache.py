"""Benchmark ENGINE-CACHE — cached vs uncached NSGA-II exploration throughput.

The evaluation engine memoises whole designs by genotype.  An elitist
NSGA-II run on the Figure-5 case study re-requests many genotypes, so a
cached exploration should (a) execute measurably fewer raw model
evaluations than the designs it serves, and (b) return bitwise-identical
fronts — caching is a pure optimisation, never a semantic change.
"""

from __future__ import annotations

import pytest

from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.problem import WbsnDseProblem
from repro.dse.runner import run_algorithm
from repro.engine import EvaluationEngine
from repro.experiments.casestudy import build_case_study_evaluator

SETTINGS = Nsga2Settings(population_size=48, generations=30, seed=3)


def _run(cached: bool):
    engine = (
        EvaluationEngine()
        if cached
        else EvaluationEngine(genotype_cache=False)
    )
    # This benchmark measures the *scalar* path's genotype cache; the
    # columnar fast path is benchmarked in test_bench_dse_speed.
    problem = WbsnDseProblem(
        build_case_study_evaluator(theta=0.5), engine=engine, vectorized=False
    )
    return run_algorithm(Nsga2(problem, SETTINGS))


@pytest.mark.paper_figure("engine-cache")
def test_cached_nsga2_throughput(benchmark, reporter):
    uncached = _run(cached=False)
    result = benchmark.pedantic(_run, args=(True,), rounds=1, iterations=1)
    stats = result.engine_stats

    reporter(
        "Evaluation engine — cached vs uncached NSGA-II",
        [
            f"designs served: {result.evaluations} "
            f"(cached {result.wall_clock_s:.2f} s vs "
            f"uncached {uncached.wall_clock_s:.2f} s)",
            f"model evaluations: cached {stats.model_evaluations} vs "
            f"uncached {uncached.engine_stats.model_evaluations}",
            f"genotype-cache hit rate: {stats.genotype_cache_hit_rate * 100:.0f}%",
            f"throughput: {result.evaluations_per_second:.0f} served/s vs "
            f"{uncached.evaluations_per_second:.0f} uncached",
        ],
    )

    # Caching must be semantically invisible: identical fronts, bit for bit.
    assert sorted((d.genotype, d.objectives) for d in result.front) == sorted(
        (d.genotype, d.objectives) for d in uncached.front
    )
    # Both runs serve the same number of designs to the algorithm...
    assert result.evaluations == uncached.evaluations
    # ...but the cached run does measurably less raw model work.
    assert stats.model_evaluations < result.evaluations
    assert uncached.engine_stats.model_evaluations == uncached.evaluations
