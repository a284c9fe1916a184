"""Sharded shared-memory backend: parity, lifecycle and cache-aware masks.

The sharded backend must be *semantically invisible*: identical fronts, bit
for bit, for all four algorithms and both MAC families (the parity fuzz and
golden-front suites extend this further).  On top of parity, these tests pin
the resource lifecycle — pools and shared-memory segments are released by
``close()`` / the engine context manager — and the engine-edge behaviours
this PR fixes: empty/all-cached/duplicate-only batches never invoke a
kernel, and ``make_backend`` rejects the silently-ignored
instance-plus-``max_workers`` combination.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.dse.exhaustive import ExhaustiveSearch
from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.problem import WbsnDseProblem, csma_mac_parameterisation
from repro.dse.random_search import RandomSearch
from repro.dse.runner import run_algorithm
from repro.dse.simulated_annealing import (
    MultiObjectiveSimulatedAnnealing,
    SimulatedAnnealingSettings,
)
from repro.engine import (
    EvaluationEngine,
    ShardedVectorizedBackend,
    make_backend,
)
from repro.engine.backends import FaultCounters
from repro.engine.sharded import SharedArrayArena, attach_arena_views
from repro.experiments.casestudy import (
    build_case_study_evaluator,
    build_csma_case_study_evaluator,
)

#: Small two-node spaces (64 configurations) keep the pool runs fast.
NODE_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
)


def beacon_problem(engine: EvaluationEngine, **kwargs) -> WbsnDseProblem:
    return WbsnDseProblem(
        build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        payload_bytes=(60, 80),
        order_pairs=((4, 4), (4, 6)),
        engine=engine,
        **kwargs,
    )


def csma_problem(engine: EvaluationEngine) -> WbsnDseProblem:
    return WbsnDseProblem(
        build_csma_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        mac_parameterisation=csma_mac_parameterisation(
            payload_bytes=(60, 80),
            backoff_exponent_pairs=((3, 5), (4, 6)),
        ),
        engine=engine,
    )


SCENARIOS = {"beacon": beacon_problem, "csma": csma_problem}


def sharded_engine(**kwargs) -> EvaluationEngine:
    return EvaluationEngine(backend="sharded", max_workers=2, **kwargs)


def front_signature(front):
    return [(design.genotype, design.objectives, design.feasible) for design in front]


class TestBitwiseParity:
    """Sharded fronts are identical to serial-kernel fronts, all algorithms."""

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
        serial = build(EvaluationEngine())
        with sharded_engine() as engine:
            sharded = build(engine)
            for name in sorted(self.ALGORITHMS):
                factory = self.ALGORITHMS[name]
                want = front_signature(factory(serial).run())
                got = front_signature(factory(sharded).run())
                assert got == want, (scenario, name)
            # Every batch miss went through worker kernels, none through the
            # scalar fallback.
            assert engine.stats.sharded_designs > 0
            assert engine.stats.sharded_designs == engine.stats.vectorized_designs

    def test_sharded_matches_serial_on_random_batches(self):
        serial = beacon_problem(EvaluationEngine())
        with sharded_engine() as engine:
            sharded = beacon_problem(engine)
            rng = np.random.default_rng(11)
            genotypes = [sharded.space.random_genotype(rng) for _ in range(150)]
            genotypes += genotypes[:30]  # duplicates exercise the dedup path
            fast = sharded.evaluate_batch(genotypes)
            slow = serial.evaluate_batch(genotypes)
            assert [d.objectives for d in fast] == [d.objectives for d in slow]
            assert [d.feasible for d in fast] == [d.feasible for d in slow]
            assert [d.genotype for d in fast] == [d.genotype for d in slow]


class TestCachedRowMask:
    """Memoised rows skip the column gather; warm batches skip the pool."""

    def test_warm_batch_skips_the_kernel_entirely(self):
        with sharded_engine() as engine:
            problem = beacon_problem(engine)
            rng = np.random.default_rng(3)
            genotypes = [problem.space.random_genotype(rng) for _ in range(40)]
            problem.evaluate_batch(genotypes)
            before = engine.stats.snapshot()
            again = problem.evaluate_batch(genotypes)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 0
            assert delta.sharded_designs == 0
            assert delta.rows_skipped_cached == len(set(genotypes))
            assert [d.objectives for d in again] == [
                d.objectives for d in problem.evaluate_batch(genotypes)
            ]

    def test_mixed_batch_only_computes_the_misses(self):
        with sharded_engine() as engine:
            problem = beacon_problem(engine)
            warm = [(0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)]
            problem.evaluate_batch(warm)
            cold = [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)]
            before = engine.stats.snapshot()
            problem.evaluate_batch(warm + cold)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == len(cold)
            assert delta.sharded_designs == len(cold)
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


class TestDegenerateBatches:
    """Empty, all-cached and duplicate-only batches never reach a kernel."""

    @pytest.mark.parametrize("backend", ["serial", "sharded"])
    def test_empty_batch(self, backend):
        with EvaluationEngine(backend=backend) as engine:
            problem = beacon_problem(engine)
            before = engine.stats.snapshot()
            assert problem.evaluate_batch([]) == []
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 0
            assert delta.vectorized_designs == 0

    @pytest.mark.parametrize("backend", ["serial", "sharded"])
    def test_all_cached_batch(self, backend):
        with EvaluationEngine(backend=backend) as engine:
            problem = beacon_problem(engine)
            genotypes = [(0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)]
            first = problem.evaluate_batch(genotypes)
            before = engine.stats.snapshot()
            again = problem.evaluate_batch(genotypes)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 0
            assert delta.vectorized_designs == 0
            assert delta.genotype_cache_hits == len(genotypes)
            assert front_signature(again) == front_signature(first)

    @pytest.mark.parametrize("backend", ["serial", "sharded"])
    def test_duplicate_only_batch(self, backend):
        with EvaluationEngine(backend=backend) as engine:
            problem = beacon_problem(engine)
            genotype = (1, 0, 1, 0, 1, 0)
            before = engine.stats.snapshot()
            designs = problem.evaluate_batch([genotype] * 7)
            delta = engine.stats.snapshot() - before
            assert delta.model_evaluations == 1
            assert delta.genotype_cache_hits == 6
            assert len({front_signature([d])[0] for d in designs}) == 1

    def test_zero_length_gather_never_reaches_the_kernel(self):
        """The kernel itself early-returns on an empty batch."""
        problem = beacon_problem(EvaluationEngine())
        kernel = problem.vectorized_kernel
        empty = kernel.evaluate_columns(problem.space.index_matrix([]))
        assert empty.objectives.shape == (0, problem.n_objectives)
        assert empty.feasible.shape == (0,)
        assert empty.violation_counts.shape == (0,)


class TestSharedArrayArena:
    """Kernel tables survive the shared-memory round trip bit for bit."""

    def test_roundtrip_and_adoption_preserve_results(self):
        problem = beacon_problem(EvaluationEngine())
        kernel = problem.vectorized_kernel
        tables = kernel.shareable_tables()
        assert tables, "the compiled kernel should expose column tables"
        arena = SharedArrayArena(tables)
        try:
            shm, views = attach_arena_views(arena.name, arena.manifest)
            try:
                for name, table in tables.items():
                    assert np.array_equal(views[name], table), name
                rng = np.random.default_rng(7)
                genotypes = [problem.space.random_genotype(rng) for _ in range(32)]
                matrix = problem.space.index_matrix(genotypes)
                want = kernel.evaluate_columns(matrix)
                kernel.adopt_shared_tables(views)
                got = kernel.evaluate_columns(matrix)
                assert np.array_equal(got.objectives, want.objectives)
                assert np.array_equal(got.feasible, want.feasible)
                assert np.array_equal(got.violation_counts, want.violation_counts)
            finally:
                shm.close()
        finally:
            arena.close()


class TestResourceLifecycle:
    """Pools and shared-memory segments are released deterministically."""

    def test_close_shuts_pool_and_unlinks_arena(self):
        engine = sharded_engine()
        problem = beacon_problem(engine)
        problem.evaluate_batch(
            [problem.space.random_genotype(np.random.default_rng(1)) for _ in range(16)]
        )
        backend = engine.backend
        assert backend._executor is not None
        assert backend._arena is not None
        arena_name = backend._arena.name
        engine.close()
        assert backend._executor is None
        assert backend._arena is None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=arena_name)
        engine.close()  # idempotent

    def test_engine_context_manager_closes_the_backend(self):
        with EvaluationEngine(backend="sharded", max_workers=1) as engine:
            problem = beacon_problem(engine)
            problem.evaluate_batch([(0, 0, 0, 0, 0, 0)] * 2)
        assert engine.backend._executor is None

    def test_run_algorithm_can_close_the_engine(self):
        engine = sharded_engine()
        problem = beacon_problem(engine)
        result = run_algorithm(
            ExhaustiveSearch(problem, chunk_size=16), close_engine=True
        )
        assert result.front
        assert result.engine_stats.sharded_designs > 0
        assert engine.backend._executor is None
        assert engine.backend._arena is None

    def test_reusing_a_live_pool_for_another_problem_is_rejected(self):
        """Regression: the pool pins the first problem's pickled copy, so a
        second problem must be refused instead of silently evaluated against
        the wrong kernel."""
        backend = ShardedVectorizedBackend(max_workers=2)
        first_engine = EvaluationEngine(backend=backend)
        first = beacon_problem(first_engine)
        first.evaluate_batch([(1, 0, 1, 0, 1, 0)] * 2)
        second_engine = EvaluationEngine(backend=backend)
        second = csma_problem(second_engine)
        with pytest.raises(RuntimeError, match="different problem"):
            second.evaluate_batch([(1, 0, 1, 0, 1, 0)] * 2)
        # After close() the backend can be repurposed.
        backend.close()
        fresh = second.evaluate_batch([(1, 0, 1, 0, 1, 0)] * 2)
        reference = csma_problem(EvaluationEngine()).evaluate_batch(
            [(1, 0, 1, 0, 1, 0)] * 2
        )
        assert [d.objectives for d in fresh] == [d.objectives for d in reference]
        backend.close()

    def test_columns_only_api_handles_an_empty_matrix(self):
        with sharded_engine() as engine:
            problem = beacon_problem(engine)
            backend = engine.backend
            columns = backend.evaluate_columns_sharded(
                problem, problem.space.index_matrix([])
            )
            assert columns.objectives.shape == (0, problem.n_objectives)
            assert columns.feasible.shape == (0,)
            assert columns.violation_counts.shape == (0,)

    def test_scalar_fallback_for_kernel_less_problems(self):
        """No kernel: the batch takes the in-process scalar loop instead."""
        serial = beacon_problem(EvaluationEngine())
        with sharded_engine() as engine:
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
            assert engine.stats.sharded_designs == 0
            assert engine.stats.vectorized_designs == 0
            assert engine.stats.model_evaluations > 0

    def test_kernel_less_problems_never_start_the_pool(self):
        """The pool runs column kernels only: a kernel-less batch computes
        in-process, so no worker is ever spawned for it."""
        with sharded_engine() as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
                **NODE_DOMAINS,
                payload_bytes=(60, 80),
                order_pairs=((4, 4), (4, 6)),
                engine=engine,
                vectorized=False,
            )
            genotypes = list(problem.space.enumerate_genotypes())[:24]
            designs = problem.evaluate_batch(genotypes)
            assert engine.backend._executor is None
            assert engine.stats.model_evaluations == len(genotypes)
            assert [d.objectives for d in designs] == [
                problem.compute_design(genotype).objectives
                for genotype in genotypes
            ]


    def test_pool_refuses_a_kernel_less_problem(self):
        """Called directly, the pool rejects a problem with no column
        kernel before spawning a worker, counts no failure, and stays
        usable for a kernel problem."""
        backend = ShardedVectorizedBackend(max_workers=2)
        kernel_less = beacon_problem(EvaluationEngine(), vectorized=False)
        matrix = kernel_less.space.index_matrix([(1, 0, 1, 0, 1, 0)] * 2)
        with pytest.raises(RuntimeError, match="compiled column kernel"):
            backend.evaluate_columns_sharded(kernel_less, matrix)
        assert backend._executor is None
        assert backend._arena is None
        assert backend.drain_fault_counters() == FaultCounters()
        problem = beacon_problem(EvaluationEngine())
        columns = backend.evaluate_columns_sharded(problem, matrix)
        reference = problem.compute_columns_batch(matrix)
        np.testing.assert_array_equal(columns.objectives, reference.objectives)
        backend.close()

    def test_kernel_less_sweep_keeps_the_front_without_a_pool(self):
        """A sweep asks for worker-side pruning; a kernel-less problem on
        a pool engine answers with full columns from the scalar loop and
        yields the serial kernel's front."""
        reference = run_algorithm(
            ExhaustiveSearch(beacon_problem(EvaluationEngine()), chunk_size=16)
        )
        with sharded_engine() as engine:
            problem = beacon_problem(engine, vectorized=False)
            result = run_algorithm(ExhaustiveSearch(problem, chunk_size=16))
            assert engine.backend._executor is None
        assert front_signature(result.front) == front_signature(reference.front)
        assert result.engine_stats.rows_pruned_in_workers == 0
        assert result.engine_stats.sharded_designs == 0
        assert result.engine_stats.vectorized_designs == 0


class TestMakeBackend:
    """Backend resolution edges (the silently-ignored max_workers bug)."""

    def test_instance_with_max_workers_is_rejected(self):
        for instance in (
            ShardedVectorizedBackend(),
            ShardedVectorizedBackend(max_workers=1),
        ):
            with pytest.raises(ValueError, match="max_workers"):
                make_backend(instance, max_workers=2)

    def test_engine_rejects_instance_plus_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            EvaluationEngine(backend=ShardedVectorizedBackend(), max_workers=2)

    def test_instance_without_max_workers_passes_through(self):
        backend = ShardedVectorizedBackend()
        assert make_backend(backend) is backend
        assert make_backend(backend, max_workers=None) is backend

    def test_sharded_name_resolves(self):
        backend = make_backend("sharded", max_workers=3)
        assert isinstance(backend, ShardedVectorizedBackend)
        assert backend.max_workers == 3
        assert backend.supports_columns
        backend.close()

    def test_invalid_min_rows_per_shard_rejected(self):
        with pytest.raises(ValueError):
            ShardedVectorizedBackend(min_rows_per_shard=0)

    def test_serial_name_resolves_to_no_pool(self):
        assert make_backend("serial") is None
        engine = EvaluationEngine()
        assert engine.backend is None
        problem = beacon_problem(engine)
        problem.evaluate_batch(list(problem.space.enumerate_genotypes())[:16])
        assert engine.stats.vectorized_designs == 15  # the probe is cached
        assert engine.stats.sharded_designs == 0
        engine.close()  # nothing to release

    @pytest.mark.parametrize("backend", [42, object()])
    def test_engine_rejects_a_backend_that_is_not_a_pool(self, backend):
        """Anything but a backend name or a pool fails at construction,
        not later at the first kernel batch or at ``close()``."""
        with pytest.raises(TypeError, match=type(backend).__name__):
            EvaluationEngine(backend=backend)
        with pytest.raises(TypeError, match="ShardedVectorizedBackend"):
            make_backend(backend)

    def test_process_is_not_a_backend_name(self):
        """The scalar process pool is gone: its name is rejected like any
        unknown one, never mapped onto another pool."""
        with pytest.raises(ValueError, match="unknown execution backend 'process'"):
            make_backend("process")
        with pytest.raises(ValueError, match="unknown execution backend"):
            EvaluationEngine(backend="process", max_workers=2)

    def test_default_pool_size_falls_back_to_the_cpu_count(self, monkeypatch):
        """Where the platform reports no affinity mask, the machine's CPU
        count sizes the pool (one worker when even that is unknown)."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert ShardedVectorizedBackend().max_workers == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ShardedVectorizedBackend().max_workers == 1

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity")
        or len(os.sched_getaffinity(0)) < 2,
        reason="needs sched_setaffinity and at least two usable CPUs",
    )
    def test_default_pool_size_counts_only_usable_cpus(self):
        """A process pinned to one CPU (taskset, a cpuset container) gets a
        one-worker default pool, not one worker per machine CPU."""
        script = textwrap.dedent(
            """
            import os
            from repro.engine import ShardedVectorizedBackend

            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            print(ShardedVectorizedBackend().max_workers)
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "1"


class TestWorkerSidePruning:
    """The worker-side-pruning protocol: dominated rows never cross the
    process boundary, and the fronts stay bitwise identical anyway."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_columnar_sweep_prunes_in_workers_with_identical_fronts(
        self, scenario
    ):
        build = SCENARIOS[scenario]
        want = front_signature(
            ExhaustiveSearch(build(EvaluationEngine()), columnar=True).run()
        )
        with sharded_engine() as engine:
            front = ExhaustiveSearch(
                build(engine), chunk_size=16, columnar=True
            ).run()
            assert front_signature(front) == want, scenario
            stats = engine.stats
            assert stats.rows_pruned_in_workers > 0
            # Pruned rows were still evaluated — pruning changes what is
            # shipped, not what is computed.
            assert stats.sharded_designs > stats.rows_pruned_in_workers

    def test_parent_merge_input_is_bounded_by_shard_front_sizes(self):
        """The accounting identity behind the protocol: per batch, the rows
        the parent receives plus the rows pruned in workers equal the rows
        the workers computed — so the parent-side prune input is exactly
        Σ(shard front sizes)."""
        with sharded_engine() as engine:
            problem = beacon_problem(engine)
            genotypes = list(problem.space.enumerate_genotypes())
            before = engine.stats.snapshot()
            batch = problem.evaluate_batch_columns(genotypes, prune_to_front=True)
            delta = engine.stats - before
            assert delta.rows_pruned_in_workers > 0
            assert len(batch) + delta.rows_pruned_in_workers == len(genotypes)
            assert len(batch) < len(genotypes)

    def test_pruned_batch_front_matches_the_full_batch_front(self):
        """front(batch) == front(worker-pruned batch): every dropped row has
        a surviving witness, so downstream pruning cannot tell the paths
        apart — membership and ordering alike."""
        from repro.dse.pareto import pareto_front_indices

        with sharded_engine() as engine:
            problem = beacon_problem(engine)
            genotypes = list(problem.space.enumerate_genotypes())
            full = problem.evaluate_batch_columns(genotypes)
            engine.clear_caches()
            pruned = problem.evaluate_batch_columns(genotypes, prune_to_front=True)
        for batch in (full, pruned):
            rows = np.flatnonzero(batch.feasible)
            pool = batch.take(rows) if rows.size else batch
            front = pool.take(pareto_front_indices(pool.objectives))
            if batch is full:
                want = front
            else:
                assert front.objectives.tolist() == want.objectives.tolist()
                assert front.genotypes.tolist() == want.genotypes.tolist()
                assert front.feasible.tolist() == want.feasible.tolist()

    def test_include_infeasible_false_drops_infeasible_rows(self):
        with sharded_engine() as engine:
            problem = beacon_problem(engine)
            genotypes = list(problem.space.enumerate_genotypes())
            batch = problem.evaluate_batch_columns(
                genotypes, prune_to_front=True, include_infeasible=False
            )
            assert len(batch) > 0
            assert bool(batch.feasible.all())

    def test_feasibility_classes_are_pruned_separately(self):
        """An infeasible row must never eliminate a feasible one inside a
        worker, even when its objectives dominate."""
        from repro.engine.sharded import _local_front_rows

        objectives = np.asarray(
            [
                [0.0, 0.0],  # infeasible, dominates everything
                [1.0, 2.0],  # feasible front
                [2.0, 1.0],  # feasible front
                [3.0, 3.0],  # feasible, dominated by both feasible rows
                [5.0, 5.0],  # infeasible, dominated by row 0
            ]
        )
        feasible = np.asarray([False, True, True, True, False])
        kept = _local_front_rows(objectives, feasible, include_infeasible=True)
        # Feasible rows 1 and 2 survive despite the dominating infeasible
        # row 0; row 0 survives as the infeasible-class front.
        assert kept.tolist() == [0, 1, 2]
        dropped_feasible_only = _local_front_rows(
            objectives, feasible, include_infeasible=False
        )
        assert dropped_feasible_only.tolist() == [1, 2]

    def test_serial_backend_ignores_the_prune_hint(self):
        """On non-worker-pruning backends the hint is a no-op: the full
        batch contract (one row per genotype, in order) holds."""
        problem = beacon_problem(EvaluationEngine())
        genotypes = list(problem.space.enumerate_genotypes())
        batch = problem.evaluate_batch_columns(genotypes, prune_to_front=True)
        assert len(batch) == len(genotypes)
        assert problem.engine.stats.rows_pruned_in_workers == 0

    def test_cached_rows_pass_through_unpruned(self):
        """A warm re-sweep serves memoised rows as-is: cached rows are never
        pruned away (only freshly computed shard rows are)."""
        with sharded_engine() as engine:
            problem = beacon_problem(engine)
            genotypes = list(problem.space.enumerate_genotypes())
            first = problem.evaluate_batch_columns(genotypes, prune_to_front=True)
            before = engine.stats.snapshot()
            second = problem.evaluate_batch_columns(genotypes, prune_to_front=True)
            delta = engine.stats - before
            # Survivors were memoised; the re-sweep recomputes only the rows
            # the workers pruned away (they never reached the column memo).
            assert delta.rows_skipped_cached == len(first)
            assert int(second.cached.sum()) == len(first)
            assert first.objectives.tolist() == [
                row
                for row, key in zip(
                    second.objectives.tolist(),
                    second.genotypes.tolist(),
                )
                if tuple(key) in {tuple(k) for k in first.genotypes.tolist()}
            ]

    def test_run_algorithm_reports_worker_pruned_rows(self):
        from repro.dse.runner import run_algorithm

        with sharded_engine() as engine:
            problem = beacon_problem(engine)
            result = run_algorithm(
                ExhaustiveSearch(problem, chunk_size=16, columnar=True)
            )
            assert result.engine_stats.rows_pruned_in_workers > 0
            assert result.engine_stats.rows_pruned_in_workers == (
                engine.stats.rows_pruned_in_workers
            )
