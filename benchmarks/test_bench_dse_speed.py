"""Benchmark TAB-SPEED — model-evaluation throughput versus simulation (§5.2).

The paper reports roughly 4800 model evaluations per second against 5-10
minutes per Castalia simulation (about six orders of magnitude per evaluated
configuration).  The throughput benchmark times the full-network evaluation
directly with pytest-benchmark; the comparison test measures the wall-clock
cost of a representative packet-level simulation and checks that the model is
orders of magnitude faster per configuration (our from-scratch simulator is
far lighter than Castalia, so the gap is smaller than six orders but still
decisive).

The fast-path benchmark compares the vectorized columnar evaluation against
the scalar path on the workloads that matter — an uncached exhaustive sweep
and uncached NSGA-II generations — asserts the ≥10x / ≥3x speedup floors,
and records the numbers in ``BENCH_dse_speed.json`` at the repository root
so the performance trajectory is tracked across pull requests.  Two further
entries track the PR-3 seams: a CSMA/CA exhaustive sweep (the job **fails**
if a kernel-capable CSMA problem silently falls back to the scalar path)
and the Figure-5 full/baseline pair sharing one genotype cache (the
cross-problem hit-rate improvement is recorded).  The
``columnar_exhaustive_uncached`` entry tracks the columnar result path:
object-path vs columnar-path sweep wall clock, with a hard gate on lazy
materialisation (the columnar sweep must materialise exactly its front —
``EngineStats.designs_materialised``).  The ``streaming_sweep`` entry
records peak RSS and wall clock of million-design sweeps run in child
interpreters, hard-failing if memory scales with the space size or any
design beyond the front is materialised.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.dse.exhaustive import ExhaustiveSearch
from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.problem import WbsnDseProblem, csma_mac_parameterisation
from repro.dse.runner import run_algorithm
from repro.engine import (
    EvaluationEngine,
    FaultPlan,
    FaultSpec,
    SharedGenotypeCache,
    inject_faults,
)
from repro.experiments.casestudy import (
    DEFAULT_MAC_CONFIG,
    build_baseline_evaluator,
    build_case_study_evaluator,
    build_csma_case_study_evaluator,
)
from repro.experiments.dse_speed import run_dse_speed
from repro.shimmer.platform import ShimmerNodeConfig

#: Machine-readable record of the fast-path numbers, one file per run.
ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dse_speed.json"

#: Restricted 6-node domains giving an 8192-configuration exhaustive space.
SWEEP_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
    payload_bytes=(80,),
    order_pairs=((4, 4), (4, 6)),
)

#: 6-node domains that, with the default MAC domains, give the
#: 131,072-design space of the default-engine sweep (8,192-row chunks).
DEFAULT_ENGINE_SWEEP_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
)
DEFAULT_ENGINE_CHUNK = 8192
#: Hard gate of the default-engine sweep: bytes the engine retains per
#: memoised row after the cold sweep.
MAX_RETAINED_BYTES_PER_ROW = 200

#: The CSMA counterpart: same node knobs, contention MAC domains, 8192 points.
CSMA_SWEEP_NODE_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
)
CSMA_SWEEP_MAC = dict(
    payload_bytes=(80,),
    backoff_exponent_pairs=((3, 5), (4, 6)),
)


def _merge_artifact(update: dict) -> dict:
    """Merge new entries into the committed record, preserving the others.

    Serialised with ``allow_nan=False``: a non-finite throughput (e.g. the
    old ``inf`` on zero-duration runs) must fail the writer loudly instead
    of silently producing the invalid-JSON literal ``Infinity``.
    """
    record = {}
    if ARTIFACT_PATH.exists():
        record = json.loads(ARTIFACT_PATH.read_text())
    record.update(update)
    ARTIFACT_PATH.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    return record


@pytest.mark.paper_figure("dse-speed")
def test_model_evaluation_throughput(benchmark, reporter):
    evaluator = build_case_study_evaluator()
    node_configs = [ShimmerNodeConfig(0.3, 8e6)] * 6

    result = benchmark(evaluator.evaluate, node_configs, DEFAULT_MAC_CONFIG)
    assert result.feasible

    evaluations_per_second = 1.0 / benchmark.stats.stats.mean
    reporter(
        "Model evaluation throughput",
        [
            f"evaluations per second: {evaluations_per_second:.0f} (paper: ~4800/s)",
        ],
    )
    # The paper's figure was measured on 2012 hardware; anything in the same
    # order of magnitude (or faster) supports the claim.
    assert evaluations_per_second > 1000


@pytest.mark.paper_figure("dse-speed")
def test_model_is_orders_of_magnitude_faster_than_simulation(benchmark, reporter):
    result = benchmark.pedantic(
        run_dse_speed,
        kwargs={"model_evaluations": 1000, "simulated_seconds": 1800.0},
        rounds=1,
        iterations=1,
    )
    reporter(
        "Model vs packet-level simulation",
        [
            f"model: {result.model_evaluations_per_second:.0f} evaluations/s (paper ~4800/s)",
            f"simulation: {result.simulated_seconds:.0f} s of network time in "
            f"{result.simulation_wall_clock_s:.2f} s wall-clock "
            f"({result.simulation_events} events)",
            f"speed-up per configuration: {result.speedup:.0f}x "
            f"({result.speedup_orders_of_magnitude:.1f} orders of magnitude; paper ~6 vs Castalia)",
        ],
    )
    assert result.model_evaluations_per_second > 1000
    assert result.speedup > 500
    assert result.speedup_orders_of_magnitude > 2.5


def _front_signature(front):
    return sorted((design.genotype, design.objectives) for design in front)


def _uncached_engine():
    return EvaluationEngine(genotype_cache=False)


@pytest.mark.paper_figure("dse-speed")
def test_vectorized_fast_path_speedups(reporter):
    """Columnar fast path vs scalar path on uncached sweep/GA workloads.

    Each side is timed twice and the best round is kept: the runs are
    deterministic (identical fronts, asserted below), so the minimum is the
    least-noise estimate and keeps the speedup floors stable on loaded CI
    runners.
    """
    # --- exhaustive sweep over an 8192-configuration 6-node space ---------
    def sweep_run(vectorized: bool):
        problem = WbsnDseProblem(
            build_case_study_evaluator(),
            **SWEEP_DOMAINS,
            engine=_uncached_engine(),
            vectorized=vectorized,
        )
        started = time.perf_counter()
        front = ExhaustiveSearch(problem, chunk_size=2048).run()
        return front, time.perf_counter() - started, problem

    scalar_front, sweep_scalar_s, scalar_problem = min(
        (sweep_run(False) for _ in range(2)), key=lambda run: run[1]
    )
    vector_front, sweep_vector_s, vector_problem = min(
        (sweep_run(True) for _ in range(2)), key=lambda run: run[1]
    )

    space_size = scalar_problem.space.size
    sweep_speedup = sweep_scalar_s / sweep_vector_s
    assert _front_signature(scalar_front) == _front_signature(vector_front)

    # --- NSGA-II generations on a 10-node network -------------------------
    settings = Nsga2Settings(population_size=48, generations=20, seed=3)

    def nsga2_run(vectorized: bool):
        problem = WbsnDseProblem(
            build_case_study_evaluator(n_nodes=10),
            engine=_uncached_engine(),
            vectorized=vectorized,
        )
        return run_algorithm(Nsga2(problem, settings))

    nsga2_scalar = min(
        (nsga2_run(False) for _ in range(2)), key=lambda run: run.wall_clock_s
    )
    nsga2_vector = min(
        (nsga2_run(True) for _ in range(2)), key=lambda run: run.wall_clock_s
    )
    nsga2_speedup = nsga2_scalar.wall_clock_s / nsga2_vector.wall_clock_s
    assert _front_signature(nsga2_scalar.front) == _front_signature(
        nsga2_vector.front
    )

    record = {
        "exhaustive_uncached": {
            "space_size": space_size,
            "scalar_wall_clock_s": sweep_scalar_s,
            "vectorized_wall_clock_s": sweep_vector_s,
            "scalar_designs_per_second": space_size / sweep_scalar_s,
            "vectorized_designs_per_second": space_size / sweep_vector_s,
            "speedup": sweep_speedup,
        },
        "nsga2_uncached": {
            "n_nodes": 10,
            "population_size": settings.population_size,
            "generations": settings.generations,
            "designs_served": nsga2_vector.evaluations,
            "scalar_wall_clock_s": nsga2_scalar.wall_clock_s,
            "vectorized_wall_clock_s": nsga2_vector.wall_clock_s,
            "scalar_generations_per_second": settings.generations
            / nsga2_scalar.wall_clock_s,
            "vectorized_generations_per_second": settings.generations
            / nsga2_vector.wall_clock_s,
            "speedup": nsga2_speedup,
        },
        "vectorized_designs_counted": int(
            vector_problem.engine.stats.vectorized_designs
        ),
    }
    _merge_artifact(record)

    reporter(
        "Vectorized fast path vs scalar path (uncached)",
        [
            f"exhaustive sweep ({space_size} designs): "
            f"{space_size / sweep_scalar_s:.0f}/s scalar vs "
            f"{space_size / sweep_vector_s:.0f}/s vectorized "
            f"({sweep_speedup:.1f}x)",
            f"NSGA-II (10 nodes, {settings.population_size}x"
            f"{settings.generations}): {nsga2_scalar.wall_clock_s:.2f} s scalar "
            f"vs {nsga2_vector.wall_clock_s:.2f} s vectorized "
            f"({nsga2_speedup:.1f}x)",
            f"artifact: {ARTIFACT_PATH.name}",
        ],
    )

    # Identical fronts are asserted above; the speed floors are the PR's
    # acceptance criteria.
    assert sweep_speedup >= 10.0
    assert nsga2_speedup >= 3.0


@pytest.mark.paper_figure("dse-speed")
def test_csma_vectorized_sweep_never_falls_back(reporter):
    """CSMA/CA fast path: 8192-design sweep, no silent scalar fallback.

    The job fails when a kernel-capable CSMA problem takes the scalar path
    for any batch miss (``vectorized_designs`` must account for *every*
    model evaluation of the uncached sweep), and the scalar/vectorized
    timings land in ``BENCH_dse_speed.json`` next to the beacon numbers.
    """

    def sweep_run(vectorized: bool):
        problem = WbsnDseProblem(
            build_csma_case_study_evaluator(),
            **CSMA_SWEEP_NODE_DOMAINS,
            mac_parameterisation=csma_mac_parameterisation(**CSMA_SWEEP_MAC),
            engine=_uncached_engine(),
            vectorized=vectorized,
        )
        before = problem.engine.stats.snapshot()
        started = time.perf_counter()
        front = ExhaustiveSearch(problem, chunk_size=2048).run()
        elapsed = time.perf_counter() - started
        return front, elapsed, problem, problem.engine.stats.snapshot() - before

    scalar_front, scalar_s, _, _ = min(
        (sweep_run(False) for _ in range(2)), key=lambda run: run[1]
    )
    vector_front, vector_s, vector_problem, sweep_stats = min(
        (sweep_run(True) for _ in range(2)), key=lambda run: run[1]
    )

    assert _front_signature(scalar_front) == _front_signature(vector_front)

    # The hard gate: a kernel-capable CSMA problem must never silently take
    # the scalar fallback — every batched sweep evaluation went through the
    # kernel (only the problem's single-genotype construction probe is
    # scalar, by design, and it precedes the measured sweep).
    assert vector_problem.supports_vectorized
    assert sweep_stats.vectorized_designs == sweep_stats.model_evaluations
    assert sweep_stats.vectorized_designs >= vector_problem.space.size
    stats = sweep_stats

    space_size = vector_problem.space.size
    speedup = scalar_s / vector_s
    _merge_artifact(
        {
            "csma_exhaustive_uncached": {
                "space_size": space_size,
                "scalar_wall_clock_s": scalar_s,
                "vectorized_wall_clock_s": vector_s,
                "scalar_designs_per_second": space_size / scalar_s,
                "vectorized_designs_per_second": space_size / vector_s,
                "speedup": speedup,
                "vectorized_designs_counted": int(stats.vectorized_designs),
            }
        }
    )
    reporter(
        "CSMA/CA vectorized sweep (uncached)",
        [
            f"exhaustive sweep ({space_size} designs): "
            f"{space_size / scalar_s:.0f}/s scalar vs "
            f"{space_size / vector_s:.0f}/s vectorized ({speedup:.1f}x)",
            "scalar fallback taken: no (every evaluation vectorized)",
        ],
    )
    assert speedup >= 5.0


@pytest.mark.paper_figure("dse-speed")
def test_columnar_sweep_materialises_only_the_front(reporter):
    """Columnar-to-the-front sweep on the 8192-design space.

    Two guarantees are asserted, and the object-path vs columnar-path wall
    clocks land in ``BENCH_dse_speed.json`` (``columnar_exhaustive_uncached``):

    * the columnar sweep's front is identical — membership *and* ordering —
      to the object-path sweep's;
    * **lazy materialisation is real**: the sweep must materialise exactly
      the front (``EngineStats.designs_materialised``) — the job hard-fails
      if the columnar path silently materialises more than front-size
      designs, which would reintroduce the parent-side serial cost this
      path exists to remove.
    """

    def sweep_run(columnar: bool):
        with _uncached_engine() as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(),
                **SWEEP_DOMAINS,
                engine=engine,
            )
            before = engine.stats.snapshot()
            started = time.perf_counter()
            front = ExhaustiveSearch(
                problem, chunk_size=2048, columnar=columnar
            ).run()
            elapsed = time.perf_counter() - started
            return front, elapsed, problem, engine.stats.snapshot() - before

    object_front, object_s, object_problem, _ = min(
        (sweep_run(False) for _ in range(2)), key=lambda run: run[1]
    )
    columnar_front, columnar_s, _, sweep_stats = min(
        (sweep_run(True) for _ in range(2)), key=lambda run: run[1]
    )

    # Identical fronts, membership and ordering alike.
    assert [design.genotype for design in object_front] == [
        design.genotype for design in columnar_front
    ]
    assert [design.objectives for design in object_front] == [
        design.objectives for design in columnar_front
    ]

    # The hard gate: prune on raw columns, materialise only survivors (the
    # engine is uncached, so the count is exact — no memo-served rows).
    assert sweep_stats.designs_materialised == len(columnar_front)
    assert sweep_stats.vectorized_designs == sweep_stats.model_evaluations

    space_size = object_problem.space.size
    speedup = object_s / columnar_s
    _merge_artifact(
        {
            "columnar_exhaustive_uncached": {
                "space_size": space_size,
                "object_wall_clock_s": object_s,
                "columnar_wall_clock_s": columnar_s,
                "object_designs_per_second": space_size / object_s,
                "columnar_designs_per_second": space_size / columnar_s,
                "speedup": speedup,
                "front_size": len(columnar_front),
                "designs_materialised": int(sweep_stats.designs_materialised),
            }
        }
    )
    reporter(
        "Columnar-to-the-front sweep (uncached)",
        [
            f"exhaustive sweep ({space_size} designs): "
            f"{space_size / object_s:.0f}/s object path vs "
            f"{space_size / columnar_s:.0f}/s columnar ({speedup:.2f}x)",
            f"designs materialised: {sweep_stats.designs_materialised} "
            f"(front size {len(columnar_front)}, batch rows {space_size})",
            "parent-side materialisation removed from the sweep's serial cost",
        ],
    )
    # The structural gate above (front-size materialisation) is what
    # enforces the win; the wall-clock ratio (~1.25x on the reference
    # container — the Pareto pruning both paths run identically caps it)
    # is recorded for the trajectory, with only a pathological-regression
    # bound, since CI noise can eat a margin that thin.
    assert columnar_s <= 1.5 * object_s + 0.1


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


@pytest.mark.paper_figure("dse-speed")
def test_sharded_exhaustive_sweep_never_falls_back(reporter):
    """Sharded shared-memory backend on the 8192-design sweep.

    Three guarantees are asserted unconditionally, on any host:

    * the sharded front is identical to the serial vectorized front;
    * **no silent fallback to the serial/scalar kernel** — every model
      evaluation of the sweep was computed by worker column kernels
      (``sharded_designs == model_evaluations``), which is the hard CI
      gate this entry exists for;
    * closing the engine releases the pool and unlinks every shared-memory
      segment.

    The speedup is recorded alongside the host's usable CPU count.  Two
    timings land in ``BENCH_dse_speed.json``: the end-to-end sweep (which
    includes the parent-side, inherently serial design materialisation and
    Pareto pruning — Amdahl caps its parallel gain) and the columns-only
    comparison against the single-process kernel, which is the part the
    backend actually parallelises.  A multi-core floor is only enforced
    where it is physically meaningful (≥ 4 usable cores); on smaller hosts
    the numbers are recorded for the trajectory, and a generous ceiling
    guards against pathological dispatch regressions.
    """
    cpus = _usable_cpus()
    workers = max(2, min(4, cpus))

    def serial_run():
        with _uncached_engine() as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(),
                **SWEEP_DOMAINS,
                engine=engine,
            )
            started = time.perf_counter()
            front = ExhaustiveSearch(problem, chunk_size=2048).run()
            return front, time.perf_counter() - started, problem

    serial_front, serial_s, serial_problem = min(
        (serial_run() for _ in range(2)), key=lambda run: run[1]
    )
    space_size = serial_problem.space.size

    # Single-process kernel, columns only (the parallelisable core).
    matrix = serial_problem.space.index_matrix(
        list(serial_problem.space.enumerate_genotypes())
    )
    kernel = serial_problem.vectorized_kernel
    kernel_s = min(
        (lambda t0: (kernel.evaluate_columns(matrix), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(3)
    )

    sweep_times = []
    columns_times = []
    with EvaluationEngine(
        genotype_cache=False, backend="sharded", max_workers=workers
    ) as engine:
        problem = WbsnDseProblem(
            build_case_study_evaluator(), **SWEEP_DOMAINS, engine=engine
        )
        backend = engine.backend
        # Spawn and warm the pool outside every measured window: enough rows
        # for one full-size shard per worker, so every worker process forks,
        # unpickles the problem and attaches the arena before the clock runs.
        backend.evaluate_columns_sharded(
            problem, matrix[: workers * backend.min_rows_per_shard]
        )
        before = engine.stats.snapshot()
        for _ in range(2):
            started = time.perf_counter()
            sharded_front = ExhaustiveSearch(problem, chunk_size=2048).run()
            sweep_times.append(time.perf_counter() - started)
        sweep_stats = engine.stats.snapshot() - before
        for _ in range(3):
            started = time.perf_counter()
            backend.evaluate_columns_sharded(problem, matrix)
            columns_times.append(time.perf_counter() - started)
        arena_name = backend._arena.name
    # Clean close: pool gone, every shared-memory segment unlinked.
    assert backend._executor is None and backend._arena is None
    with pytest.raises(FileNotFoundError):
        from multiprocessing import shared_memory

        shared_memory.SharedMemory(name=arena_name)

    sharded_s = min(sweep_times)
    sharded_columns_s = min(columns_times)

    assert _front_signature(serial_front) == _front_signature(sharded_front)
    # The hard gate: every batched sweep evaluation was computed by worker
    # column kernels — a silent fallback to the serial/scalar kernel leaves
    # ``sharded_designs`` behind ``model_evaluations`` and fails here.
    assert problem.supports_vectorized
    assert sweep_stats.sharded_designs == sweep_stats.model_evaluations
    assert sweep_stats.sharded_designs >= 2 * space_size  # two sweep rounds

    sweep_speedup = serial_s / sharded_s
    columns_speedup = kernel_s / sharded_columns_s
    _merge_artifact(
        {
            "sharded_exhaustive_uncached": {
                "space_size": space_size,
                "cpus": cpus,
                "workers": workers,
                "serial_wall_clock_s": serial_s,
                "sharded_wall_clock_s": sharded_s,
                "speedup": sweep_speedup,
                "kernel_columns_wall_clock_s": kernel_s,
                "sharded_columns_wall_clock_s": sharded_columns_s,
                "columns_speedup": columns_speedup,
                "sharded_designs_counted": int(sweep_stats.sharded_designs),
                "multi_core_floor_enforced": cpus >= 4,
            }
        }
    )
    reporter(
        "Sharded shared-memory sweep (uncached)",
        [
            f"exhaustive sweep ({space_size} designs, {workers} workers, "
            f"{cpus} usable cpus): {serial_s:.3f} s serial-vectorized vs "
            f"{sharded_s:.3f} s sharded ({sweep_speedup:.2f}x end-to-end)",
            f"columns only: {kernel_s * 1e3:.2f} ms single-process kernel vs "
            f"{sharded_columns_s * 1e3:.2f} ms sharded "
            f"({columns_speedup:.2f}x)",
            "scalar fallback taken: no (every evaluation sharded)",
        ],
    )
    if cpus >= 4:
        # On a genuinely multi-core host the sharded columns must beat the
        # single-process kernel.
        assert columns_speedup >= 1.2
    # On any host, dispatch overhead must stay bounded: a pathological
    # regression (e.g. pickling designs per row) would blow far past this.
    assert sharded_s <= 5.0 * serial_s + 0.25


@pytest.mark.paper_figure("dse-speed")
def test_warm_start_sweep(reporter, tmp_path):
    """Persistent cache tier: cold vs warm 8192-design sweep.

    The cold sweep runs with ``EvaluationEngine(cache_dir=...)`` and spills
    its column rows to the fingerprint's segment on close; the warm sweep is
    the same run against a fresh engine bulk-memoising that segment.  Both
    wall clocks land in ``BENCH_dse_speed.json`` (``warm_start_sweep``),
    and the entry carries a **hard gate**: the warm run must perform zero
    model evaluations — engine lifetime, construction probe included — and
    return a front identical to the cold run's, or the job fails.
    """
    cache_dir = tmp_path / "segments"

    def sweep_run():
        with EvaluationEngine(cache_dir=cache_dir) as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(), **SWEEP_DOMAINS, engine=engine
            )
            started = time.perf_counter()
            front = ExhaustiveSearch(problem, chunk_size=2048).run()
            elapsed = time.perf_counter() - started
            stats = engine.stats.snapshot()  # lifetime, incl. bind-time load
            return front, elapsed, problem, stats

    cold_front, cold_s, cold_problem, cold_stats = sweep_run()
    warm_front, warm_s, _, warm_stats = sweep_run()

    space_size = cold_problem.space.size
    assert _front_signature(cold_front) == _front_signature(warm_front)

    # The hard gate: a warm-started sweep never touches the model.
    assert cold_stats.model_evaluations == space_size
    assert warm_stats.model_evaluations == 0
    assert warm_stats.rows_loaded_from_disk == space_size
    # Every request a disk-loaded row answers counts: one per swept row,
    # plus the construction probe.
    assert warm_stats.persistent_cache_hits == space_size + 1

    speedup = cold_s / warm_s if warm_s > 0 else 0.0
    _merge_artifact(
        {
            "warm_start_sweep": {
                "space_size": space_size,
                "cold_wall_clock_s": cold_s,
                "warm_wall_clock_s": warm_s,
                "speedup": speedup,
                "rows_loaded_from_disk": int(warm_stats.rows_loaded_from_disk),
                "persistent_cache_hits": int(warm_stats.persistent_cache_hits),
                "warm_model_evaluations": int(warm_stats.model_evaluations),
            }
        }
    )
    reporter(
        "Persistent cache tier: warm-start sweep",
        [
            f"exhaustive sweep ({space_size} designs): {cold_s:.3f} s cold vs "
            f"{warm_s:.3f} s warm ({speedup:.2f}x)",
            f"rows bulk-memoised from disk: {warm_stats.rows_loaded_from_disk}",
            "warm model evaluations: 0 (hard gate)",
        ],
    )


@pytest.mark.paper_figure("dse-speed")
def test_default_engine_sweep(reporter, tmp_path):
    """The sweep users run: a default (cached) engine on 131,072 designs.

    The space is swept three ways, best of 3 each: on a default engine
    (every row a memo miss, inserted into the column store), on an uncached
    engine, and on fresh engines warm-started from the segment a cold sweep
    spilled.  Wall clocks and designs/s land in ``BENCH_dse_speed.json``
    (``default_engine_sweep``) without a timing gate: the cached/uncached
    ratio moves too much between back-to-back runs to gate.  The entry
    also records, ungated, the column kernel alone on one 8,192-row chunk
    (best of 5) and its stage-table entry count.  The **hard gate** is
    memory: the bytes the engine retains per memoised row after the cold
    sweep, measured with ``tracemalloc``, must stay at or below
    ``MAX_RETAINED_BYTES_PER_ROW``.  All three fronts must be identical.
    """
    cache_dir = tmp_path / "segments"

    def sweep_run(**engine_options):
        with EvaluationEngine(**engine_options) as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(),
                **DEFAULT_ENGINE_SWEEP_DOMAINS,
                engine=engine,
            )
            started = time.perf_counter()
            front = ExhaustiveSearch(problem, chunk_size=DEFAULT_ENGINE_CHUNK).run()
            return front, time.perf_counter() - started, engine.stats.snapshot()

    def best_of_3(**engine_options):
        return min(
            (sweep_run(**engine_options) for _ in range(3)), key=lambda run: run[1]
        )

    cached_front, cached_s, _ = best_of_3()
    uncached_front, uncached_s, _ = best_of_3(genotype_cache=False)
    sweep_run(cache_dir=cache_dir)  # the cold sweep spills the segment
    warm_front, warm_s, warm_stats = best_of_3(cache_dir=cache_dir)
    assert _front_signature(cached_front) == _front_signature(uncached_front)
    assert _front_signature(warm_front) == _front_signature(cached_front)
    assert warm_stats.model_evaluations == 0

    gc.collect()
    tracemalloc.start()
    try:
        engine = EvaluationEngine()
        problem = WbsnDseProblem(
            build_case_study_evaluator(),
            **DEFAULT_ENGINE_SWEEP_DOMAINS,
            engine=engine,
        )
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        ExhaustiveSearch(problem, chunk_size=DEFAULT_ENGINE_CHUNK).run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    memoised = len(engine._column_store)
    bytes_per_row = retained / memoised

    # The column kernel alone on one sweep chunk (recorded, not gated).
    kernel = problem.vectorized_kernel
    chunk = problem.space.decode_ids(range(DEFAULT_ENGINE_CHUNK))
    kernel_chunk_s = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        kernel.evaluate_columns(chunk)
        kernel_chunk_s = min(kernel_chunk_s, time.perf_counter() - started)

    space_size = problem.space.size
    _merge_artifact(
        {
            "default_engine_sweep": {
                "space_size": space_size,
                "chunk_size": DEFAULT_ENGINE_CHUNK,
                "cached_wall_clock_s": cached_s,
                "cached_designs_per_second": space_size / cached_s,
                "uncached_wall_clock_s": uncached_s,
                "uncached_designs_per_second": space_size / uncached_s,
                "warm_wall_clock_s": warm_s,
                "warm_designs_per_second": space_size / warm_s,
                "memoised_rows": memoised,
                "retained_bytes_per_row": bytes_per_row,
                "front_size": len(cached_front),
                "kernel_chunk_ms": kernel_chunk_s * 1e3,
                "kernel_stage_table_entries": kernel.stage_table_entries,
            }
        }
    )
    reporter(
        "Default-engine sweep (131,072 designs, best of 3)",
        [
            f"default engine: {cached_s:.3f} s ({space_size / cached_s:.0f}/s)",
            f"uncached engine: {uncached_s:.3f} s ({space_size / uncached_s:.0f}/s)",
            f"warm start: {warm_s:.3f} s ({space_size / warm_s:.0f}/s)",
            f"column kernel alone: {kernel_chunk_s * 1e3:.2f} ms per "
            f"{DEFAULT_ENGINE_CHUNK}-row chunk (best of 5), "
            f"{kernel.stage_table_entries} stage-table entries",
            f"retained per memoised row: {bytes_per_row:.0f} B over {memoised} "
            f"rows (gate {MAX_RETAINED_BYTES_PER_ROW} B)",
        ],
    )
    assert bytes_per_row <= MAX_RETAINED_BYTES_PER_ROW


@pytest.mark.paper_figure("dse-speed")
def test_artifact_writer_rejects_non_finite_numbers(tmp_path, monkeypatch):
    """The bench writer fails loudly on ``inf``/``nan`` instead of emitting
    the invalid-JSON literal ``Infinity`` (regression for the zero-duration
    ``evaluations_per_second``)."""
    import sys

    module = sys.modules[__name__]
    scratch = tmp_path / "BENCH_dse_speed.json"
    monkeypatch.setattr(module, "ARTIFACT_PATH", scratch)
    record = _merge_artifact({"probe": {"value": 1.5}})
    assert json.loads(scratch.read_text()) == record
    with pytest.raises(ValueError):
        _merge_artifact({"bad": {"value": float("inf")}})


@pytest.mark.paper_figure("dse-speed")
def test_fig5_pair_shares_one_genotype_cache(reporter):
    """Cross-problem cache reuse on the Figure-5 full/baseline pair.

    The baseline exploration re-uses rows the full-model run already
    computed (same evaluator fingerprint, objectives projected), so its
    model-evaluation count must drop against private caches; the measured
    hit-rate improvement is recorded in ``BENCH_dse_speed.json``.

    A columnar exhaustive pair on the 8,192-design sweep space gates the
    columnar path: the full sweep publishes every row it computes, so the
    baseline sweep run after it must perform **no** model evaluation, and
    both fronts must equal private-cache runs.  The bytes the shared cache
    retains per row (``tracemalloc``) share the engine store's
    ``MAX_RETAINED_BYTES_PER_ROW`` gate.
    """
    settings = Nsga2Settings(population_size=32, generations=10, seed=3)

    def pair_run(shared):
        full = WbsnDseProblem(
            build_case_study_evaluator(theta=0.5),
            engine=EvaluationEngine(shared_cache=shared),
        )
        baseline = WbsnDseProblem(
            build_baseline_evaluator(theta=0.5),
            engine=EvaluationEngine(shared_cache=shared),
        )
        full_result = run_algorithm(Nsga2(full, settings))
        baseline_result = run_algorithm(Nsga2(baseline, settings))
        return full_result, baseline_result

    full_private, baseline_private = pair_run(None)
    full_shared, baseline_shared = pair_run(SharedGenotypeCache())

    # Sharing is semantically invisible: same seed, identical fronts.
    assert _front_signature(full_private.front) == _front_signature(
        full_shared.front
    )
    assert _front_signature(baseline_private.front) == _front_signature(
        baseline_shared.front
    )

    private_model = baseline_private.engine_stats.model_evaluations
    shared_model = baseline_shared.engine_stats.model_evaluations
    shared_hits = baseline_shared.engine_stats.shared_cache_hits
    requests = baseline_shared.engine_stats.genotype_requests
    private_hit_rate = baseline_private.engine_stats.genotype_cache_hit_rate
    shared_hit_rate = (
        baseline_shared.engine_stats.genotype_cache_hits + shared_hits
    ) / requests

    assert shared_hits > 0
    assert shared_model < private_model
    assert shared_hit_rate > private_hit_rate

    def sweep_problem(evaluator, shared):
        return WbsnDseProblem(
            evaluator, **SWEEP_DOMAINS, engine=EvaluationEngine(shared_cache=shared)
        )

    gc.collect()
    tracemalloc.start()
    try:
        sweep_cache = SharedGenotypeCache()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        full = sweep_problem(build_case_study_evaluator(), sweep_cache)
        full_sweep_front = _front_signature(ExhaustiveSearch(full).run())
        del full  # drop the engine's own store: only the shared rows remain
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    shared_rows = len(sweep_cache)
    shared_bytes_per_row = retained / shared_rows
    baseline = sweep_problem(build_baseline_evaluator(), sweep_cache)
    baseline_sweep_front = _front_signature(ExhaustiveSearch(baseline).run())
    sweep_stats = baseline.engine.stats
    space_size = baseline.space.size
    private_full = ExhaustiveSearch(
        sweep_problem(build_case_study_evaluator(), None)
    ).run()
    private_baseline = ExhaustiveSearch(
        sweep_problem(build_baseline_evaluator(), None)
    ).run()

    _merge_artifact(
        {
            "fig5_shared_cache": {
                "population_size": settings.population_size,
                "generations": settings.generations,
                "baseline_model_evaluations_private": int(private_model),
                "baseline_model_evaluations_shared": int(shared_model),
                "baseline_shared_cache_hits": int(shared_hits),
                "baseline_hit_rate_private": private_hit_rate,
                "baseline_hit_rate_shared": shared_hit_rate,
                "hit_rate_improvement": shared_hit_rate - private_hit_rate,
                "model_evaluations_saved": int(private_model - shared_model),
                "columnar_sweep_space_size": space_size,
                "columnar_baseline_model_evaluations": sweep_stats.model_evaluations,
                "columnar_baseline_shared_cache_hits": sweep_stats.shared_cache_hits,
                "shared_rows": shared_rows,
                "shared_retained_bytes_per_row": shared_bytes_per_row,
            }
        }
    )
    reporter(
        "Figure-5 pair: shared genotype cache",
        [
            f"baseline model evaluations: {private_model} private -> "
            f"{shared_model} shared ({shared_hits} served cross-problem)",
            f"baseline cache hit rate: {private_hit_rate * 100:.0f}% -> "
            f"{shared_hit_rate * 100:.0f}%",
            f"columnar exhaustive pair ({space_size} designs): baseline "
            f"computes {sweep_stats.model_evaluations} rows, "
            f"{sweep_stats.shared_cache_hits} shared hits (gate: 0 computed)",
            f"shared cache retains {shared_bytes_per_row:.0f} B per row over "
            f"{shared_rows} rows (gate {MAX_RETAINED_BYTES_PER_ROW} B)",
        ],
    )
    assert sweep_stats.model_evaluations == 0
    assert full_sweep_front == _front_signature(private_full)
    assert baseline_sweep_front == _front_signature(private_baseline)
    assert shared_bytes_per_row <= MAX_RETAINED_BYTES_PER_ROW


@pytest.mark.paper_figure("dse-speed")
def test_pruning_kernel_speedup_and_dispatch(reporter):
    """Sort-based skyline pruning vs blockwise dominance matrices.

    Measured on the real 8192-design sweep columns (not synthetic random
    points, whose uniform geometry inflates front sizes), and recorded in
    ``BENCH_dse_speed.json`` (``pruning_kernel``):

    * **front extraction**: one ``pareto_front_indices`` call over all 8192
      feasible objective rows, blockwise vs skyline — the ≥3x floor is the
      PR's acceptance criterion, with the fronts asserted exactly equal;
    * **archive updates**: the sweep's per-chunk ``running_front_indices``
      loop (chunk size 2048), blockwise vs skyline, with identical running
      fronts — the per-chunk update time lands in the artifact;
    * **dispatch hard gate**: a 2-objective (baseline-evaluator) sweep over
      the same space must route every top-level prune through the 2-D
      skyline scan — the job **fails** if it silently falls back to the
      blockwise dominance matrix.
    """
    from repro.dse.pareto import (
        pareto_front_indices,
        prune_kernel_counts,
        reset_prune_kernel_counts,
        running_front_indices,
        use_skyline,
    )

    import numpy as np

    # --- capture the real sweep columns once ------------------------------
    chunk_size = 2048
    with _uncached_engine() as engine:
        problem = WbsnDseProblem(
            build_case_study_evaluator(), **SWEEP_DOMAINS, engine=engine
        )
        genotypes = list(problem.space.enumerate_genotypes())
        chunks = []
        for start in range(0, len(genotypes), chunk_size):
            batch = problem.evaluate_batch_columns(
                genotypes[start : start + chunk_size]
            )
            chunks.append(batch.objectives[batch.feasible])
    matrix = np.vstack(chunks)
    space_size = problem.space.size
    assert len(matrix) == space_size  # the sweep space is fully feasible

    # --- front extraction: one call over all rows -------------------------
    def time_extraction(enabled: bool, rounds: int = 3):
        with use_skyline(enabled):
            front, elapsed = None, float("inf")
            for _ in range(rounds):
                started = time.perf_counter()
                front = pareto_front_indices(matrix)
                elapsed = min(elapsed, time.perf_counter() - started)
        return front, elapsed

    blockwise_front, blockwise_s = time_extraction(False)
    skyline_front, skyline_s = time_extraction(True)
    assert skyline_front == blockwise_front  # membership AND ordering
    extraction_speedup = blockwise_s / skyline_s

    # --- archive updates: the sweep's per-chunk pruning loop --------------
    def archive_loop():
        archive = None
        for candidates in chunks:
            if archive is None:
                front, pool = candidates[:0], candidates
            else:
                front, pool = archive, np.vstack([archive, candidates])
            indices = running_front_indices(front, candidates)
            archive = pool[np.asarray(indices, dtype=np.int64)]
        return archive

    def time_archive(enabled: bool, rounds: int = 3):
        with use_skyline(enabled):
            archive, elapsed = None, float("inf")
            for _ in range(rounds):
                started = time.perf_counter()
                archive = archive_loop()
                elapsed = min(elapsed, time.perf_counter() - started)
        return archive, elapsed

    blockwise_archive, blockwise_archive_s = time_archive(False)
    skyline_archive, skyline_archive_s = time_archive(True)
    assert skyline_archive.tolist() == blockwise_archive.tolist()
    assert len(skyline_archive) == len(pareto_front_indices(matrix))
    archive_speedup = blockwise_archive_s / skyline_archive_s

    # --- dispatch hard gate: 2-objective sweeps take the 2-D scan ---------
    baseline_problem = WbsnDseProblem(
        build_baseline_evaluator(), **SWEEP_DOMAINS, engine=EvaluationEngine()
    )
    assert baseline_problem.n_objectives == 2
    reset_prune_kernel_counts()
    baseline_front = ExhaustiveSearch(
        baseline_problem, chunk_size=chunk_size, columnar=True
    ).run()
    counts = prune_kernel_counts()
    assert baseline_front
    # The gate: every top-level prune of the 2-objective sweep went through
    # the sort-based 2-D scan; a silent blockwise fallback fails the job.
    assert counts["skyline_2d"] > 0
    assert counts["blockwise"] == 0

    _merge_artifact(
        {
            "pruning_kernel": {
                "space_size": space_size,
                "n_objectives": int(matrix.shape[1]),
                "front_size": len(skyline_front),
                "extraction_blockwise_wall_clock_s": blockwise_s,
                "extraction_skyline_wall_clock_s": skyline_s,
                "extraction_speedup": extraction_speedup,
                "archive_chunk_size": chunk_size,
                "archive_blockwise_wall_clock_s": blockwise_archive_s,
                "archive_skyline_wall_clock_s": skyline_archive_s,
                "archive_update_per_chunk_s": skyline_archive_s / len(chunks),
                "archive_speedup": archive_speedup,
                "baseline_2d_dispatch": dict(counts),
            }
        }
    )
    reporter(
        "Skyline pruning kernel vs blockwise dominance",
        [
            f"front extraction ({space_size}x{matrix.shape[1]}): "
            f"{blockwise_s * 1e3:.1f} ms blockwise vs "
            f"{skyline_s * 1e3:.1f} ms skyline ({extraction_speedup:.1f}x), "
            f"front size {len(skyline_front)}",
            f"archive updates ({len(chunks)} chunks of {chunk_size}): "
            f"{blockwise_archive_s * 1e3:.1f} ms vs "
            f"{skyline_archive_s * 1e3:.1f} ms ({archive_speedup:.1f}x)",
            f"2-objective dispatch: {counts['skyline_2d']} skyline_2d, "
            f"{counts['blockwise']} blockwise (gate: no fallback)",
        ],
    )
    # The acceptance floor: ≥3x on front extraction over the sweep columns,
    # fronts bitwise identical (asserted above).
    assert extraction_speedup >= 3.0
    # Archive updates run on mostly-prefiltered candidates; the win is
    # smaller but must stay a win.
    assert archive_speedup >= 1.2


SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: Child process of the streaming-sweep bench.  Peak RSS must come from the
#: sweep alone, so each run lives in its own interpreter and self-reports its
#: own high-water mark, ``VmHWM`` from ``/proc/self/status``.  On Linux
#: ``getrusage(RUSAGE_SELF).ru_maxrss`` would not do: a child's value keeps
#: the peak of the process it was forked from — here the pytest parent,
#: which carries every previously run test — so every child would report
#: the parent's peak.  ``ru_maxrss`` is only the fallback where ``/proc`` is
#: absent.
_STREAMING_WORKER = '''\
import json
import resource
import sys
import warnings
from itertools import islice


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])  # reported in kB
    except OSError:
        pass
    # Linux reports ru_maxrss in kilobytes.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.loads(sys.argv[1])
    from repro.dse.exhaustive import ExhaustiveCapWarning, ExhaustiveSearch
    from repro.dse.problem import WbsnDseProblem
    from repro.dse.random_search import RandomSearch
    from repro.dse.runner import run_algorithm
    from repro.engine import EvaluationEngine

    from repro.experiments.casestudy import build_case_study_evaluator

    # Uncached on purpose: a genotype memo over a million-design sweep IS
    # O(space) memory, which is exactly what this bench must rule out.
    problem = WbsnDseProblem(
        build_case_study_evaluator(n_nodes=spec["n_nodes"]),
        engine=EvaluationEngine(genotype_cache=False),
    )
    report = {"mode": spec["mode"], "space_size": problem.space.size}
    if spec["mode"] == "baseline":
        # Interpreter + kernel compile + one evaluated chunk: everything a
        # flat-memory sweep legitimately keeps resident, nothing it iterates.
        chunk = list(
            islice(problem.space.enumerate_genotypes(), spec["chunk_size"])
        )
        report["rows"] = int(len(problem.evaluate_batch_columns(chunk).feasible))
    else:
        if spec["mode"] == "exhaustive":
            algorithm = ExhaustiveSearch(problem, chunk_size=spec["chunk_size"])
        else:
            algorithm = RandomSearch(
                problem,
                samples=spec["samples"],
                seed=spec["seed"],
                chunk_size=spec["chunk_size"],
            )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_algorithm(algorithm)
        report.update(
            cap_warned=any(
                issubclass(entry.category, ExhaustiveCapWarning)
                for entry in caught
            ),
            front_size=len(result.front),
            designs_materialised=int(result.engine_stats.designs_materialised),
            model_evaluations=int(result.model_evaluations),
            wall_clock_s=result.wall_clock_s,
        )
    report["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(report))


main()
'''


def _run_streaming_child(tmp_path: Path, spec: dict) -> dict:
    script = tmp_path / "streaming_worker.py"
    script.write_text(_STREAMING_WORKER)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT)
    completed = subprocess.run(
        [sys.executable, str(script), json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.paper_figure("dse-speed")
def test_streaming_sweep_flat_memory(reporter, tmp_path):
    """Million-design sweeps without O(space) memory (``streaming_sweep``).

    Each sweep runs in a child interpreter that self-reports its own peak
    RSS; three hard gates back the entry in ``BENCH_dse_speed.json``:

    * an **exhaustive sweep of a 1,048,576-design space** (the full 3-node
      case-study domains — past the old hard ``max_configurations`` ceiling,
      so the soft-cap warning must fire) completes with a peak RSS bounded
      by the baseline child (interpreter + compiled kernel + one evaluated
      chunk) plus fixed headroom far below the footprint of any
      materialised million-genotype structure;
    * **no design beyond the front is materialised** — the job fails if
      ``designs_materialised`` exceeds the front size on any sweep;
    * the **streaming random sweep's memory does not scale with the space**:
      the same draw count over a 32x larger space (4-node, 33.5M designs)
      must hold peak RSS within a flat-ratio bound of the 1M-space run.
    """
    chunk_size = 8192
    samples = 24_000

    baseline = _run_streaming_child(
        tmp_path, {"mode": "baseline", "n_nodes": 3, "chunk_size": chunk_size}
    )
    exhaustive = _run_streaming_child(
        tmp_path,
        {"mode": "exhaustive", "n_nodes": 3, "chunk_size": chunk_size},
    )
    random_million = _run_streaming_child(
        tmp_path,
        {
            "mode": "random",
            "n_nodes": 3,
            "chunk_size": 4096,
            "samples": samples,
            "seed": 5,
        },
    )
    random_control = _run_streaming_child(
        tmp_path,
        {
            "mode": "random",
            "n_nodes": 4,
            "chunk_size": 4096,
            "samples": samples,
            "seed": 5,
        },
    )

    space_size = exhaustive["space_size"]
    assert space_size >= 1_000_000
    assert baseline["space_size"] == space_size
    assert random_control["space_size"] == 32 * space_size

    # The old hard ceiling is gone: the sweep warns and proceeds to the end
    # (an uncached engine evaluates every configuration exactly once).
    assert exhaustive["cap_warned"]
    assert exhaustive["model_evaluations"] == space_size

    # Hard gate: no design beyond the front is ever materialised.
    assert 0 < exhaustive["front_size"] == exhaustive["designs_materialised"]
    for run in (random_million, random_control):
        assert 0 < run["front_size"] == run["designs_materialised"]
        assert run["model_evaluations"] <= samples

    # Hard gate: the million-design sweep's peak RSS sits on the baseline
    # child's footprint.  The headroom is generous against allocator noise
    # yet far below any O(space) structure — a million materialised
    # genotype tuples alone exceed it.
    rss_headroom_kb = 100 * 1024
    assert exhaustive["peak_rss_kb"] <= baseline["peak_rss_kb"] + rss_headroom_kb

    # Hard gate: peak RSS must not scale with the space.  The spaces differ
    # 32x; a streaming sweep holds the seen-set (O(samples)) and one chunk,
    # so the control run stays within a flat ratio of the million-run.
    rss_ratio = random_control["peak_rss_kb"] / random_million["peak_rss_kb"]
    assert rss_ratio <= 1.25 + 32 * 1024 / random_million["peak_rss_kb"]

    _merge_artifact(
        {
            "streaming_sweep": {
                "space_size": space_size,
                "exhaustive_wall_clock_s": exhaustive["wall_clock_s"],
                "exhaustive_designs_per_second": space_size
                / exhaustive["wall_clock_s"],
                "exhaustive_peak_rss_kb": exhaustive["peak_rss_kb"],
                "baseline_peak_rss_kb": baseline["peak_rss_kb"],
                "front_size": exhaustive["front_size"],
                "designs_materialised": exhaustive["designs_materialised"],
                "random_samples": samples,
                "random_wall_clock_s": random_million["wall_clock_s"],
                "random_peak_rss_kb": random_million["peak_rss_kb"],
                "control_space_size": random_control["space_size"],
                "control_peak_rss_kb": random_control["peak_rss_kb"],
                "control_rss_ratio": rss_ratio,
            }
        }
    )
    reporter(
        "Streaming sweep: million-design space, flat memory",
        [
            f"exhaustive sweep ({space_size} designs, soft cap warned): "
            f"{exhaustive['wall_clock_s']:.1f} s "
            f"({space_size / exhaustive['wall_clock_s']:.0f}/s), peak RSS "
            f"{exhaustive['peak_rss_kb'] / 1024:.0f} MB (baseline child "
            f"{baseline['peak_rss_kb'] / 1024:.0f} MB)",
            f"designs materialised: {exhaustive['designs_materialised']} "
            f"(front size {exhaustive['front_size']}; hard gate)",
            f"random sweep ({samples} draws): peak RSS "
            f"{random_million['peak_rss_kb'] / 1024:.0f} MB on {space_size} "
            f"designs vs {random_control['peak_rss_kb'] / 1024:.0f} MB on "
            f"{random_control['space_size']} designs "
            f"(ratio {rss_ratio:.2f}, spaces differ 32x)",
        ],
    )


#: Wall clock of the warm 16,384-row two-client burst under the JSON-row
#: wire protocol (version 1, with a 50 ms batching window): median of three
#: runs, 0.63-0.78 s, on a 2-CPU x86-64 Linux container.  Kept as the
#: reference the binary column frames are recorded against.
JSON_ROWS_BURST_S = 0.75


@pytest.mark.paper_figure("dse-speed")
def test_service_coalescing(reporter):
    """Service front-end: shared-cache sweeps and coalesced evaluate bursts.

    Two concurrent clients sweep the same fingerprint through one
    :class:`~repro.service.DseService`; the engine lane serializes them, so
    whichever runs second is served entirely from the first one's memoised
    rows.  The entry (``service_coalescing``) records the solo in-process
    sweep against the two-client service run and carries the **hard gate**:
    the second client's sweep must perform **zero model evaluations** while
    both served fronts stay bitwise identical to the solo run's — or the
    job fails.  A follow-up two-client evaluate burst over the full space
    (16,384 rows) must coalesce into one shared columnar batch — the lane
    dispatches when free, so the burst is queued behind a lane held busy by
    an injected ``"service-batch"`` hang — and add zero evaluations.  The
    same burst is then timed against the idle warm lane; the entry records
    that wall clock next to the JSON-row protocol's (no timing gate).
    """
    import asyncio

    from repro.service import DseService, DseServiceClient

    def solo_run():
        problem = WbsnDseProblem(
            build_case_study_evaluator(),
            **SWEEP_DOMAINS,
            engine=EvaluationEngine(),
        )
        started = time.perf_counter()
        result = run_algorithm(ExhaustiveSearch(problem, chunk_size=2048))
        return result, time.perf_counter() - started, problem.space.size

    solo, solo_s, space_size = solo_run()
    solo_front = _front_signature(solo.front)

    async def service_run():
        problem = WbsnDseProblem(
            build_case_study_evaluator(),
            **SWEEP_DOMAINS,
            engine=EvaluationEngine(),
        )
        genotypes = list(problem.space.enumerate_genotypes())
        service = DseService(problem, close_engine=True)
        await service.start()
        clients = [
            await DseServiceClient.connect(
                host=service.host, port=service.port, client_id=name
            )
            for name in ("alice", "bob", "carol")
        ]
        alice, bob, carol = clients
        try:
            started = time.perf_counter()
            sweep_a, sweep_b = await asyncio.gather(
                alice.sweep("exhaustive", params={"chunk_size": 2048}),
                bob.sweep("exhaustive", params={"chunk_size": 2048}),
            )
            sweeps_s = time.perf_counter() - started
            # The coalesced burst: carol's one-row request hangs the lane,
            # so both clients' whole-space requests (now memoised) queue
            # behind it and dispatch as one shared batch touching no model.
            before = service.lane.engine.stats.model_evaluations
            hang = FaultPlan(
                [FaultSpec(site="service-batch", action="hang", delay_s=0.2, at=(0,))]
            )
            with inject_faults(hang):
                blocker = asyncio.create_task(carol.evaluate(genotypes[:1]))
                for _ in range(500):  # until the lane is busy (<= 5 s)
                    if hang.fired:
                        break
                    await asyncio.sleep(0.01)
                coalesced = await asyncio.gather(
                    alice.evaluate(genotypes), bob.evaluate(genotypes)
                )
                await blocker
            # The timed burst: the same two requests against the idle lane.
            started = time.perf_counter()
            burst = await asyncio.gather(
                alice.evaluate(genotypes), bob.evaluate(genotypes)
            )
            burst_s = time.perf_counter() - started
            burst_new_evals = service.lane.engine.stats.model_evaluations - before
            snapshot = service.snapshot()
        finally:
            for client in clients:
                await client.close()
            await service.stop()
        return (
            sweep_a, sweep_b, sweeps_s, coalesced + burst, burst_s,
            burst_new_evals, snapshot,
        )

    (
        sweep_a, sweep_b, sweeps_s, burst_replies, burst_s, burst_new_evals,
        snapshot,
    ) = asyncio.run(service_run())

    def served_signature(front):
        return sorted((row.genotype, row.objectives) for row in front)

    # Both served fronts are bitwise identical to the solo in-process run.
    assert served_signature(sweep_a.front) == solo_front
    assert served_signature(sweep_b.front) == solo_front

    # The hard gate: one sweep computed the space (minus the problem
    # constructor's probe row), the other performed zero model evaluations.
    sweep_evals = sorted(
        reply.engine_stats["model_evaluations"] for reply in (sweep_a, sweep_b)
    )
    assert sweep_evals == [0, space_size - 1]

    # The evaluate burst coalesced and was served entirely from the memos,
    # every reply bitwise identical to the first.
    assert snapshot["lane"]["batches_coalesced"] >= 1
    assert burst_new_evals == 0
    reference = burst_replies[0].rows
    for reply in burst_replies:
        assert reply.cached.all()
        for name in ("ids", "objectives", "feasible", "violation_counts"):
            assert getattr(reply.rows, name).tobytes() == (
                getattr(reference, name).tobytes()
            )

    _merge_artifact(
        {
            "service_coalescing": {
                "space_size": space_size,
                "solo_wall_clock_s": solo_s,
                "service_two_sweeps_wall_clock_s": sweeps_s,
                "first_sweep_model_evaluations": sweep_evals[1],
                "second_sweep_model_evaluations": sweep_evals[0],
                "evaluate_burst_rows": 2 * space_size,
                "evaluate_burst_wall_clock_s": burst_s,
                "evaluate_burst_json_rows_wall_clock_s": JSON_ROWS_BURST_S,
                "evaluate_burst_new_evaluations": int(burst_new_evals),
                "batches_coalesced": snapshot["lane"]["batches_coalesced"],
                "requests_admitted": snapshot["admission"]["admitted"],
            }
        }
    )
    reporter(
        "DSE service: shared-cache sweeps + coalesced bursts",
        [
            f"solo in-process sweep ({space_size} designs): {solo_s:.3f} s",
            f"two concurrent clients through the service: {sweeps_s:.3f} s, "
            f"model evaluations split {sweep_evals[1]} / {sweep_evals[0]} "
            "(hard gate: second client computes nothing)",
            f"two-client evaluate burst over the full space: {burst_s:.3f} s "
            f"({JSON_ROWS_BURST_S:.2f} s with JSON rows), "
            f"{snapshot['lane']['batches_coalesced']} coalesced batch(es), "
            "0 new model evaluations",
        ],
    )
