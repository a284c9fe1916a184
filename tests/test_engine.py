"""Tests of the shared evaluation engine: caches, batching, stats."""

from __future__ import annotations

import importlib
import inspect
import os
import pickle
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    EngineStats,
    EvaluationEngine,
    SharedGenotypeCache,
    list_segments,
)
from repro.experiments.casestudy import (
    build_baseline_evaluator,
    build_case_study_evaluator,
    build_csma_case_study_evaluator,
)

#: Restricted knob domains giving a 64-configuration space (2 nodes), small
#: enough for exhaustive sweeps in cached and uncached flavours.
SMALL_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
    payload_bytes=(60, 80),
    order_pairs=((4, 4), (4, 6)),
)


def small_problem(**kwargs) -> WbsnDseProblem:
    evaluator = build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs"))
    return WbsnDseProblem(evaluator, **SMALL_DOMAINS, **kwargs)


def small_csma_problem(**kwargs) -> WbsnDseProblem:
    evaluator = build_csma_case_study_evaluator(n_nodes=2, applications=("dwt", "cs"))
    return WbsnDseProblem(
        evaluator,
        compression_ratios=SMALL_DOMAINS["compression_ratios"],
        frequencies_hz=SMALL_DOMAINS["frequencies_hz"],
        mac_parameterisation=csma_mac_parameterisation(
            payload_bytes=(60, 80), backoff_exponent_pairs=((3, 5), (4, 6))
        ),
        **kwargs,
    )


def front_signature(front):
    return sorted((design.genotype, design.objectives) for design in front)


def design_fields(design):
    """Every field of a design, for field-by-field comparisons."""
    return (
        design.genotype,
        design.objectives,
        design.feasible,
        design.violation_count,
        design.phenotype,
    )


class TestEngineStats:
    def test_snapshot_is_independent(self):
        stats = EngineStats(genotype_requests=3, model_evaluations=2)
        snap = stats.snapshot()
        stats.genotype_requests += 5
        assert snap.genotype_requests == 3
        assert stats.genotype_requests == 8

    def test_difference_and_merge(self):
        before = EngineStats(genotype_requests=10, genotype_cache_hits=4)
        after = EngineStats(genotype_requests=25, genotype_cache_hits=9)
        delta = after - before
        assert delta.genotype_requests == 15
        assert delta.genotype_cache_hits == 5
        before.merge(delta)
        assert before.genotype_requests == 25
        assert before.genotype_cache_hits == 9

    def test_hit_rates_guard_division_by_zero(self):
        stats = EngineStats()
        assert stats.genotype_cache_hit_rate == 0.0
        stats.genotype_requests = 4
        stats.genotype_cache_hits = 1
        assert stats.genotype_cache_hit_rate == pytest.approx(0.25)

    def test_fields_are_the_fifteen_engine_counters(self):
        names = [field.name for field in fields(EngineStats)]
        assert names == [
            "genotype_requests",
            "genotype_cache_hits",
            "shared_cache_hits",
            "model_evaluations",
            "vectorized_designs",
            "rows_skipped_cached",
            "designs_materialised",
            "gene_rows_decoded",
            "column_memo_evictions",
            "rows_loaded_from_disk",
            "persistent_cache_hits",
            "batches",
            "wall_time_s",
            "array_backend",
            "memo_index",
        ]
        assert list(EngineStats().as_dict()) == names

    @pytest.mark.parametrize(
        "counter",
        [
            "sharded_designs",
            "rows_pruned_in_workers",
            "worker_failures",
            "batches_retried",
            "degraded_batches",
            "retry_wait_seconds",
        ],
    )
    def test_pool_counters_are_gone(self, counter):
        assert counter not in EngineStats().as_dict()
        with pytest.raises(TypeError, match=counter):
            EngineStats(**{counter: 1})


class TestEvaluationEngine:
    def test_genotype_memoisation(self):
        problem = small_problem()
        genotype = (1, 1, 0, 0, 1, 1)
        first = problem.engine.evaluate(genotype)
        hits_before = problem.engine.stats.genotype_cache_hits
        second = problem.engine.evaluate(genotype)
        assert second == first
        assert problem.engine.stats.genotype_cache_hits == hits_before + 1

    def test_evaluate_many_preserves_order_and_dedupes(self):
        problem = small_problem()
        genotypes = [(0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1), (0, 0, 0, 0, 0, 0)]
        stats_before = problem.engine.stats.snapshot()
        designs = problem.engine.evaluate_many(genotypes)
        delta = problem.engine.stats.snapshot() - stats_before
        assert [design.genotype for design in designs] == genotypes
        assert designs[0] == designs[2]
        # The probe already cached genotype 0: 1 stored hit + 1 duplicate hit.
        assert delta.genotype_requests == 3
        assert delta.genotype_cache_hits == 2
        assert delta.model_evaluations == 1

    def test_kernel_less_batches_evaluate_each_distinct_miss_once(self):
        problem = small_problem(vectorized=False)
        engine = problem.engine
        genotypes = list(problem.space.enumerate_genotypes())
        # The probe (genotypes[0]) is cached; 2 and 5 repeat in the batch.
        batch = [genotypes[2], genotypes[0], genotypes[5], genotypes[2]]
        before = engine.stats.snapshot()
        designs = engine.evaluate_many(batch + [genotypes[5], genotypes[9]])
        delta = engine.stats.snapshot() - before
        assert delta.model_evaluations == 3
        assert [design.genotype for design in designs] == batch + [
            genotypes[5],
            genotypes[9],
        ]
        # Building designs from rows never touches the model.
        result = engine.evaluate_many_columnar(batch)
        before = engine.stats.snapshot()
        result.materialise()
        delta = engine.stats.snapshot() - before
        assert delta.model_evaluations == 0
        assert delta.designs_materialised == len(batch)

    def test_disabled_genotype_cache_recomputes(self):
        problem = small_problem(
            engine=EvaluationEngine(genotype_cache=False)
        )
        genotype = (0, 0, 0, 0, 0, 0)
        stats_before = problem.engine.stats.snapshot()
        problem.engine.evaluate(genotype)
        problem.engine.evaluate(genotype)
        delta = problem.engine.stats.snapshot() - stats_before
        assert delta.model_evaluations == 2
        assert delta.genotype_cache_hits == 0

    def test_problem_evaluates_with_the_evaluator_it_was_given(self):
        """No wrapper sits between a problem and its model: computed and
        cached designs alike are the raw evaluator's results."""
        raw = build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs"))
        problem = WbsnDseProblem(raw, **SMALL_DOMAINS, vectorized=False)
        assert problem.evaluator is raw
        for genotype in list(problem.space.enumerate_genotypes())[:8]:
            reference = raw.evaluate(*problem.decode(genotype))
            objectives = tuple(raw.objective_vector(reference))
            if not reference.feasible:
                objectives = tuple(
                    value + problem.infeasibility_penalty for value in objectives
                )
            twice = [problem.engine.evaluate(genotype) for _ in range(2)]
            for design in twice:
                assert design.objectives == objectives
                assert design.feasible == reference.feasible
                assert design.violation_count == len(reference.violations)

    def test_engine_cannot_be_rebound(self):
        problem = small_problem()
        with pytest.raises(RuntimeError):
            problem.engine.bind(small_problem())


#: Modules a sweep, NSGA-II or service interpreter starts from.
ENTRY_POINTS = (
    "repro.engine",
    "repro.dse",
    "repro.dse.exhaustive",
    "repro.dse.nsga2",
    "repro.dse.random_search",
    "repro.dse.simulated_annealing",
    "repro.dse.runner",
    "repro.service",
    "repro.experiments.dse_speed",
    "repro.experiments.fig5_pareto",
)

#: The engine options, counters and public names of the former process
#: pool: none of them may come back.
POOL_OPTIONS = {
    "backend": "sharded",
    "max_workers": 2,
    "retry_policy": None,
    "degrade_on_failure": False,
}
POOL_NAMES = (
    "ShardedVectorizedBackend",
    "make_backend",
    "RetryPolicy",
    "EngineTimeoutError",
    "WorkerRecoveryExhausted",
    "EngineDegradationWarning",
)


def pool_modules_loaded_by(*modules: str) -> str:
    """Import ``modules`` in a fresh interpreter and return the sorted list
    of ``multiprocessing`` modules it loaded, as printed there."""
    script = (
        f"import sys, {', '.join(modules)}\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')"
        " or m == 'concurrent.futures.process'))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


class TestInProcessCompute:
    def test_stack_imports_no_multiprocessing(self):
        """Every compute path runs in the calling process, so importing the
        sweeps, the runner and the service loads no ``multiprocessing``."""
        assert (
            pool_modules_loaded_by(
                "repro.dse.exhaustive", "repro.dse.runner", "repro.service"
            )
            == "[]"
        )

    @pytest.mark.parametrize("module", ENTRY_POINTS)
    def test_entry_point_imports_no_multiprocessing(self, module):
        """Each entry point on its own, so a leak names its importer."""
        assert pool_modules_loaded_by(module) == "[]"

    def test_engine_takes_five_keyword_options(self):
        parameters = inspect.signature(EvaluationEngine).parameters
        assert list(parameters) == [
            "genotype_cache",
            "stats",
            "shared_cache",
            "column_memo_max_entries",
            "cache_dir",
        ]
        assert all(
            parameter.kind is inspect.Parameter.KEYWORD_ONLY
            for parameter in parameters.values()
        )

    @pytest.mark.parametrize("option", sorted(POOL_OPTIONS))
    def test_pool_options_are_rejected(self, option):
        with pytest.raises(TypeError, match=option):
            EvaluationEngine(**{option: POOL_OPTIONS[option]})

    @pytest.mark.parametrize("name", POOL_NAMES)
    def test_pool_names_are_not_exported(self, name):
        import repro.engine

        assert name not in repro.engine.__all__
        assert not hasattr(repro.engine, name)

    @pytest.mark.parametrize("module", ["backends", "sharded"])
    def test_pool_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.engine.{module}")

    def test_engine_has_no_deadline_scope(self):
        assert not hasattr(EvaluationEngine, "deadline_scope")

    @pytest.mark.parametrize("owner", ["engine", "problem"])
    @pytest.mark.parametrize("hint", ["prune_to_front", "include_infeasible"])
    def test_columnar_batches_take_only_the_batch(self, owner, hint):
        """Every batch row is computed and returned: there is no hint that
        lets a compute path drop rows."""
        problem = small_problem()
        evaluate = (
            problem.engine.evaluate_many_columnar
            if owner == "engine"
            else problem.evaluate_batch_columns
        )
        genotypes = list(problem.space.enumerate_genotypes())[:8]
        with pytest.raises(TypeError, match=hint):
            evaluate(genotypes, **{hint: True})
        batch = evaluate(genotypes)
        assert len(batch) == len(genotypes)
        assert batch.genotypes.tolist() == [list(g) for g in genotypes]

    def test_default_engine_computes_on_the_kernel(self):
        """With a compiled kernel every miss goes through it, in-process."""
        engine = EvaluationEngine()
        problem = small_problem(engine=engine)
        problem.evaluate_batch(list(problem.space.enumerate_genotypes())[:16])
        assert engine.stats.vectorized_designs == 15  # the probe is cached
        engine.close()  # nothing to release


class TestEngineLifecycle:
    """``close()`` and the context manager spill the persistent tier; an
    engine without one has nothing to release and stays usable."""

    def test_close_without_a_cache_dir_keeps_the_engine_usable(self):
        engine = EvaluationEngine()
        problem = small_problem(engine=engine)
        genotypes = list(problem.space.enumerate_genotypes())[:16]
        first = problem.evaluate_batch(genotypes)
        engine.close()
        engine.close()  # idempotent
        with engine:
            again = problem.evaluate_batch(genotypes)
        assert [design_fields(d) for d in again] == [
            design_fields(d) for d in first
        ]

    def test_context_manager_spills_when_the_block_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="interrupted"):
            with EvaluationEngine(cache_dir=tmp_path) as engine:
                problem = small_problem(engine=engine)
                problem.evaluate_batch(list(problem.space.enumerate_genotypes()))
                raise RuntimeError("interrupted")
        warm = EvaluationEngine(cache_dir=tmp_path)
        small_problem(engine=warm)
        assert warm.stats.rows_loaded_from_disk == 64
        assert warm.stats.model_evaluations == 0

    def test_run_algorithm_can_close_the_engine(self, tmp_path):
        engine = EvaluationEngine(cache_dir=tmp_path)
        problem = small_problem(engine=engine)
        result = run_algorithm(
            ExhaustiveSearch(problem, chunk_size=16), close_engine=True
        )
        assert result.front
        assert result.engine_stats.vectorized_designs == 63  # all but the probe
        warm = EvaluationEngine(cache_dir=tmp_path)
        rerun = run_algorithm(
            ExhaustiveSearch(small_problem(engine=warm), chunk_size=16),
            close_engine=True,
        )
        assert front_signature(rerun.front) == front_signature(result.front)
        assert rerun.model_evaluations == 0

    def test_pickled_copy_never_writes_segments(self, tmp_path):
        """A copy carries the compute path only: no memo, no shared cache
        and no persistent tier, so closing it writes nothing."""
        shared = SharedGenotypeCache()
        engine = EvaluationEngine(cache_dir=tmp_path, shared_cache=shared)
        problem = small_problem(engine=engine)
        genotypes = list(problem.space.enumerate_genotypes())[:16]
        want = problem.evaluate_batch(genotypes)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.cache_dir is None
        assert clone.shared_cache is None
        assert clone.genotype_cache_size == 0
        before = clone.stats.snapshot()
        got = clone.problem.evaluate_batch(genotypes)
        assert [design_fields(d) for d in got] == [design_fields(d) for d in want]
        assert (clone.stats.snapshot() - before).model_evaluations == len(genotypes)
        clone.close()
        assert list_segments(tmp_path) == []
        engine.close()
        assert len(list_segments(tmp_path)) == 1

    def test_repeated_close_spills_the_same_rows(self, tmp_path):
        engine = EvaluationEngine(cache_dir=tmp_path)
        problem = small_problem(engine=engine)
        problem.evaluate_batch(list(problem.space.enumerate_genotypes())[:20])
        engine.close()
        segments = list_segments(tmp_path)
        assert len(segments) == 1
        spilled = segments[0].read_bytes()
        engine.close()
        assert list_segments(tmp_path) == segments
        assert segments[0].read_bytes() == spilled


class TestOneEvaluationPath:
    """``evaluate_many`` is the columnar batch materialised in full, and
    every design it serves equals a direct ``compute_design``."""

    _problems: dict = {}

    @classmethod
    def problem(cls, family, genotype_cache, vectorized):
        key = (family, genotype_cache, vectorized)
        if key not in cls._problems:
            build = small_problem if family == "beacon" else small_csma_problem
            cls._problems[key] = build(
                engine=EvaluationEngine(genotype_cache=genotype_cache),
                vectorized=vectorized,
            )
        return cls._problems[key]

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("genotype_cache", [True, False])
    @pytest.mark.parametrize("family", ["beacon", "csma"])
    @settings(max_examples=20, deadline=None)
    @given(ids=st.lists(st.integers(min_value=0, max_value=63), max_size=24))
    def test_designs_match_the_scalar_model(
        self, family, genotype_cache, vectorized, ids
    ):
        problem = self.problem(family, genotype_cache, vectorized)
        assert problem.space.size == 64
        # Duplicates are drawn often: 24 ids over 64 designs.
        matrix = problem.space.decode_ids(np.asarray(ids, dtype=np.int64))
        genotypes = list(map(tuple, matrix.tolist()))
        designs = problem.engine.evaluate_many(genotypes)
        assert list(map(design_fields, designs)) == [
            design_fields(problem.compute_design(genotype)) for genotype in genotypes
        ]
        columnar = problem.engine.evaluate_many_columnar(genotypes).materialise()
        assert list(map(design_fields, columnar)) == list(
            map(design_fields, designs)
        )


class TestProblemAccounting:
    def test_probe_does_not_skew_history_or_evaluations(self):
        problem = small_problem(record_evaluations=True)
        assert problem.evaluations == 0
        assert problem.history == []
        # ... but the probe did warm the caches and was counted as model work.
        assert problem.engine.stats.model_evaluations == 1
        assert problem.engine.genotype_cache_size == 1

    def test_evaluate_and_batch_record_everything(self):
        problem = small_problem(record_evaluations=True)
        problem.evaluate((0, 0, 0, 0, 0, 0))
        problem.evaluate_batch([(0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 1, 0)])
        assert problem.evaluations == 3
        assert len(problem.history) == 3

    def test_first_class_counters_exist_on_problems(self):
        problem = small_problem()
        assert problem.engine is not None
        assert problem.evaluations == 0


class TestCacheCorrectness:
    """Caching must never change results: same seed, same fronts, bitwise."""

    def _cached_and_uncached(self, **kwargs):
        cached = small_problem(**kwargs)
        uncached = small_problem(
            engine=EvaluationEngine(genotype_cache=False), **kwargs
        )
        return cached, uncached

    def test_exhaustive_identical(self):
        cached, uncached = self._cached_and_uncached()
        assert front_signature(ExhaustiveSearch(cached).run()) == front_signature(
            ExhaustiveSearch(uncached).run()
        )

    def test_random_search_identical(self):
        cached, uncached = self._cached_and_uncached()
        assert front_signature(
            RandomSearch(cached, samples=120, seed=4).run()
        ) == front_signature(RandomSearch(uncached, samples=120, seed=4).run())

    def test_nsga2_identical(self):
        cached, uncached = self._cached_and_uncached()
        settings = Nsga2Settings(population_size=16, generations=6, seed=9)
        assert front_signature(Nsga2(cached, settings).run()) == front_signature(
            Nsga2(uncached, settings).run()
        )

    def test_simulated_annealing_identical(self):
        cached, uncached = self._cached_and_uncached()
        settings = SimulatedAnnealingSettings(iterations=250, seed=5)
        assert front_signature(
            MultiObjectiveSimulatedAnnealing(cached, settings).run()
        ) == front_signature(
            MultiObjectiveSimulatedAnnealing(uncached, settings).run()
        )

    def test_speculative_annealing_batches_share_the_engine(self):
        problem = small_problem()
        settings = SimulatedAnnealingSettings(iterations=200, seed=5, batch_size=8)
        front = MultiObjectiveSimulatedAnnealing(problem, settings).run()
        assert front
        assert all(design.feasible for design in front)


class TestFigure5ProblemCaching:
    def test_runner_reports_cache_aware_throughput(self):
        problem = WbsnDseProblem(build_case_study_evaluator(theta=0.5))
        result = run_algorithm(
            Nsga2(problem, Nsga2Settings(population_size=16, generations=4, seed=0))
        )
        assert result.evaluations > 0
        assert result.model_evaluations <= result.evaluations
        assert result.evaluations_per_second >= result.model_evaluations_per_second
        assert 0.0 <= result.engine_stats.genotype_cache_hit_rate <= 1.0


class TestSharedGenotypeCache:
    """Cross-problem reuse: one shared cache across the Figure-5 pair."""

    SMALL = dict(
        compression_ratios=(0.2, 0.3),
        frequencies_hz=(4e6, 8e6),
        payload_bytes=(60, 80),
        order_pairs=((4, 4), (4, 6)),
    )

    def _pair(self, shared):
        full = WbsnDseProblem(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            **self.SMALL,
            engine=EvaluationEngine(shared_cache=shared),
        )
        baseline = WbsnDseProblem(
            build_baseline_evaluator(n_nodes=2),
            **self.SMALL,
            engine=EvaluationEngine(shared_cache=shared),
        )
        return full, baseline

    def test_shared_hits_attributed_to_the_consuming_engine(self):
        shared = SharedGenotypeCache()
        full, baseline = self._pair(shared)
        genotypes = list(full.space.enumerate_genotypes())[:32]
        full.evaluate_batch(genotypes)
        publisher_stats = full.engine.stats.snapshot()
        assert publisher_stats.shared_cache_hits == 0  # it computed, not reused

        before = baseline.engine.stats.snapshot()
        baseline.evaluate_batch(genotypes)
        delta = baseline.engine.stats.snapshot() - before
        # Every distinct genotype is served from the shared cache — except
        # the all-zero probe genotype, which the baseline problem's own
        # construction already pulled from the shared cache into its local
        # memo.  No model work either way, and shared hits are counted
        # separately from local-memo hits.
        assert delta.shared_cache_hits == len(genotypes) - 1
        assert delta.model_evaluations == 0
        assert delta.genotype_cache_hits == 1
        # Re-requesting now hits the local memo, not the shared cache.
        before = baseline.engine.stats.snapshot()
        baseline.evaluate_batch(genotypes)
        delta = baseline.engine.stats.snapshot() - before
        assert delta.genotype_cache_hits == len(genotypes)
        assert delta.shared_cache_hits == 0

    def test_projection_reuses_the_exact_component_floats(self):
        shared = SharedGenotypeCache()
        full, baseline = self._pair(shared)
        genotype = (1, 0, 1, 0, 1, 1)
        reference = full.evaluate(genotype)
        served = baseline.evaluate(genotype)
        assert baseline.engine.stats.shared_cache_hits >= 1
        # (energy, delay) projected from (energy, quality, delay): bitwise.
        assert served.objectives == (
            reference.objectives[0],
            reference.objectives[2],
        )
        assert served.feasible == reference.feasible
        assert served.phenotype == reference.phenotype

    def test_baseline_records_do_not_serve_the_full_problem(self):
        shared = SharedGenotypeCache()
        full, baseline = self._pair(shared)
        genotype = (0, 1, 0, 1, 0, 0)
        baseline.evaluate(genotype)
        before = full.engine.stats.snapshot()
        full.evaluate(genotype)
        delta = full.engine.stats.snapshot() - before
        # Quality is missing from the record: a safe miss, computed locally.
        assert delta.shared_cache_hits == 0
        assert delta.model_evaluations == 1

    def test_mismatched_fingerprints_never_share(self):
        shared = SharedGenotypeCache()
        problem_a = WbsnDseProblem(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            **self.SMALL,
            engine=EvaluationEngine(shared_cache=shared),
        )
        problem_b = WbsnDseProblem(
            build_case_study_evaluator(  # different aggregation weight
                n_nodes=2, applications=("dwt", "cs"), theta=0.9
            ),
            **self.SMALL,
            engine=EvaluationEngine(shared_cache=shared),
        )
        genotype = (1, 0, 1, 0, 1, 1)
        problem_a.evaluate(genotype)
        before = problem_b.engine.stats.snapshot()
        problem_b.evaluate(genotype)
        delta = problem_b.engine.stats.snapshot() - before
        assert delta.shared_cache_hits == 0
        assert delta.model_evaluations == 1

    def test_csma_and_beacon_problems_never_cross_share(self):
        shared = SharedGenotypeCache()
        from repro.dse.problem import csma_mac_parameterisation

        beacon = WbsnDseProblem(
            build_case_study_evaluator(theta=0.5),
            **self.SMALL,
            engine=EvaluationEngine(shared_cache=shared),
        )
        csma = WbsnDseProblem(
            build_csma_case_study_evaluator(theta=0.5),
            compression_ratios=self.SMALL["compression_ratios"],
            frequencies_hz=self.SMALL["frequencies_hz"],
            mac_parameterisation=csma_mac_parameterisation(
                payload_bytes=(60, 80), backoff_exponent_pairs=((3, 5), (4, 6))
            ),
            engine=EvaluationEngine(shared_cache=shared),
        )
        assert len(beacon.space) == len(csma.space)
        genotype = tuple(1 for _ in range(len(beacon.space)))
        beacon.evaluate(genotype)
        before = csma.engine.stats.snapshot()
        csma.evaluate(genotype)
        delta = csma.engine.stats.snapshot() - before
        assert delta.shared_cache_hits == 0
        assert delta.model_evaluations == 1

    def test_shared_cache_fronts_identical_to_private_caches(self):
        settings = Nsga2Settings(population_size=16, generations=6, seed=9)
        shared = SharedGenotypeCache()
        full_shared, baseline_shared = self._pair(shared)
        full_private, baseline_private = self._pair(None)
        assert front_signature(
            Nsga2(full_shared, settings).run()
        ) == front_signature(Nsga2(full_private, settings).run())
        assert front_signature(
            Nsga2(baseline_shared, settings).run()
        ) == front_signature(Nsga2(baseline_private, settings).run())
        # And the reuse actually happened (same seed => shared genotypes).
        assert baseline_shared.engine.stats.shared_cache_hits > 0

    def test_column_memo_bound_is_local_to_the_engine(self):
        def bounded(shared):
            return small_problem(
                engine=EvaluationEngine(
                    column_memo_max_entries=4, shared_cache=shared
                ),
                vectorized=False,
            )

        shared = SharedGenotypeCache()
        publisher = bounded(shared)
        genotypes = list(publisher.space.enumerate_genotypes())
        publisher.evaluate_batch(genotypes)
        alone = bounded(None)
        alone.evaluate_batch(genotypes)
        # Publishing leaves the engine's own LRU accounting unchanged...
        assert (
            publisher.engine.stats.column_memo_evictions
            == alone.engine.stats.column_memo_evictions
            > 0
        )
        assert (
            publisher.engine.stats.model_evaluations
            == alone.engine.stats.model_evaluations
        )
        # ...and rows the bounded store evicted still serve a peer.
        peer = small_problem(
            engine=EvaluationEngine(shared_cache=shared), vectorized=False
        )
        peer.evaluate_batch(genotypes)
        assert peer.engine.stats.model_evaluations == 0
        assert peer.engine.stats.shared_cache_hits == len(genotypes)

    def test_disabled_genotype_cache_deactivates_sharing(self):
        shared = SharedGenotypeCache()
        publisher = WbsnDseProblem(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            **self.SMALL,
            engine=EvaluationEngine(shared_cache=shared),
        )
        consumer = WbsnDseProblem(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            **self.SMALL,
            engine=EvaluationEngine(genotype_cache=False, shared_cache=shared),
        )
        genotype = (1, 1, 1, 1, 1, 1)
        publisher.evaluate(genotype)
        before = consumer.engine.stats.snapshot()
        consumer.evaluate(genotype)
        delta = consumer.engine.stats.snapshot() - before
        assert delta.shared_cache_hits == 0
        assert delta.model_evaluations == 1

    def test_fingerprint_covers_the_mac_decode_rule(self):
        """Same domains, different genotype->chi_mac mapping: no sharing."""
        from repro.dse.problem import MacParameterisation, beacon_mac_parameterisation
        from repro.dse.space import ParameterDomain

        reference = beacon_mac_parameterisation(
            payload_bytes=(60, 80), order_pairs=((4, 4), (4, 6))
        )

        def swapped_orders(payload, orders):
            superframe_order, beacon_order = orders
            # Deliberately different decode of the same domain values.
            return WbsnDseProblem.build_mac_config(
                payload, (superframe_order, max(superframe_order, beacon_order))
            )

        twisted = MacParameterisation(
            name=reference.name,
            domains=tuple(
                ParameterDomain(d.name, d.values) for d in reference.domains
            ),
            config_factory=swapped_orders,
        )
        evaluator = build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs"))
        problem_a = WbsnDseProblem(
            evaluator,
            compression_ratios=self.SMALL["compression_ratios"],
            frequencies_hz=self.SMALL["frequencies_hz"],
            mac_parameterisation=reference,
        )
        problem_b = WbsnDseProblem(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            compression_ratios=self.SMALL["compression_ratios"],
            frequencies_hz=self.SMALL["frequencies_hz"],
            mac_parameterisation=twisted,
        )
        fp_a = problem_a.evaluation_fingerprint()
        fp_b = problem_b.evaluation_fingerprint()
        assert fp_a is not None
        # Local function: unpicklable by reference from a test body is fine
        # too (None) — either way the fingerprints must not collide.
        assert fp_a != fp_b

    def test_unpicklable_factories_disable_sharing_safely(self):
        from repro.dse.problem import MacParameterisation
        from repro.dse.space import ParameterDomain

        lambda_parameterisation = MacParameterisation(
            name="beacon",
            domains=(
                ParameterDomain("mac.payload_bytes", (60, 80)),
                ParameterDomain("mac.orders", ((4, 4), (4, 6))),
            ),
            config_factory=lambda payload, orders: WbsnDseProblem.build_mac_config(
                payload, orders
            ),
        )
        problem = WbsnDseProblem(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            compression_ratios=self.SMALL["compression_ratios"],
            frequencies_hz=self.SMALL["frequencies_hz"],
            mac_parameterisation=lambda_parameterisation,
        )
        assert problem.evaluation_fingerprint() is None

    def test_bounded_shared_cache_evicts_lru_and_stays_correct(self):
        shared = SharedGenotypeCache(max_entries=8)
        full, baseline = self._pair(shared)
        genotypes = list(full.space.enumerate_genotypes())[:32]
        full.evaluate_batch(genotypes)
        assert len(shared) == 8
        assert shared.evictions > 0
        # Only the 8 most recent genotypes are shared; older ones recompute.
        before = baseline.engine.stats.snapshot()
        baseline.evaluate_batch(genotypes)
        delta = baseline.engine.stats.snapshot() - before
        assert 0 < delta.shared_cache_hits <= 8
        # Correctness unaffected: served and recomputed designs agree with
        # an uncached reference problem.
        _, reference = self._pair(None)
        for genotype in genotypes:
            assert (
                baseline.engine.evaluate(genotype).objectives
                == reference.evaluate(genotype).objectives
            )

    def _full(self, engine):
        return WbsnDseProblem(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            **self.SMALL,
            engine=engine,
        )

    def _baseline(self, engine):
        return WbsnDseProblem(
            build_baseline_evaluator(n_nodes=2), **self.SMALL, engine=engine
        )

    def test_columnar_sweeps_share_every_computed_row(self):
        shared = SharedGenotypeCache()
        full, baseline = self._pair(shared)
        ExhaustiveSearch(full, chunk_size=16).run()
        front = ExhaustiveSearch(baseline, chunk_size=16).run()
        # The probe comes from the full problem's probe, every other row
        # from its sweep: the columnar sweep publishes all it computes,
        # not only the front it materialises.
        assert baseline.engine.stats.model_evaluations == 0
        assert baseline.engine.stats.shared_cache_hits == baseline.space.size
        private = ExhaustiveSearch(
            self._baseline(EvaluationEngine()), chunk_size=16
        ).run()
        assert front_signature(front) == front_signature(private)

    def test_richer_rows_replace_narrow_ones(self):
        shared = SharedGenotypeCache()
        first = self._baseline(EvaluationEngine(shared_cache=shared))
        ExhaustiveSearch(first, chunk_size=16).run()
        full = self._full(EvaluationEngine(shared_cache=shared))
        ExhaustiveSearch(full, chunk_size=16).run()
        # Narrow rows cannot serve the full problem: it computes every row,
        # and its richer rows replace the baseline's.
        assert full.engine.stats.model_evaluations == full.space.size
        assert full.engine.stats.shared_cache_hits == 0
        fresh = self._baseline(EvaluationEngine(shared_cache=shared))
        ExhaustiveSearch(fresh, chunk_size=16).run()
        assert fresh.engine.stats.model_evaluations == 0
        # A narrower publish after a richer one changes nothing.
        fingerprint = full.evaluation_fingerprint()
        keys = np.arange(full.space.size)
        components = full.objective_components
        hits, rows = shared.lookup(fingerprint, keys, components)
        shared.store(
            fingerprint,
            keys,
            fresh.objective_components,
            np.zeros((len(keys), 2)),
            np.zeros(len(keys), dtype=bool),
            np.ones(len(keys), dtype=np.int64),
        )
        again_hits, again = shared.lookup(fingerprint, keys, components)
        assert len(shared) == full.space.size
        assert again_hits.tolist() == hits.tolist() == keys.tolist()
        for before, after in zip(rows, again):
            assert before.tobytes() == after.tobytes()

    def test_rows_loaded_from_a_segment_are_not_published(self, tmp_path):
        with EvaluationEngine(cache_dir=tmp_path) as engine:
            ExhaustiveSearch(self._full(engine), chunk_size=16).run()
        shared = SharedGenotypeCache()
        warm = self._full(EvaluationEngine(cache_dir=tmp_path, shared_cache=shared))
        ExhaustiveSearch(warm, chunk_size=16).run()
        # The segment already shares its rows: nothing was computed, so
        # nothing was published.
        assert warm.engine.stats.model_evaluations == 0
        assert len(shared) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        max_entries=st.sampled_from([None, 1, 4]),
        batches=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.integers(0, 63), min_size=1, max_size=24),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_bounded_shared_cache_serves_exact_rows(self, max_entries, batches):
        shared = SharedGenotypeCache(max_entries=max_entries)
        full, baseline = self._pair(shared)
        private = self._baseline(EvaluationEngine())
        for full_turn, ids in batches:
            problem = full if full_turn else baseline
            genotypes = problem.space.decode_ids(np.asarray(ids))
            before = problem.engine.stats.snapshot()
            result = problem.engine.evaluate_many_columnar(genotypes)
            delta = problem.engine.stats.snapshot() - before
            assert (
                delta.model_evaluations
                + delta.genotype_cache_hits
                + delta.shared_cache_hits
                == delta.genotype_requests
            )
            if not full_turn:
                reference = private.engine.evaluate_many_columnar(genotypes)
                assert result.objectives.tobytes() == reference.objectives.tobytes()
                assert result.feasible.tolist() == reference.feasible.tolist()
                assert (
                    result.violation_counts.tolist()
                    == reference.violation_counts.tolist()
                )

    def test_invalid_shared_cache_bound_rejected(self):
        with pytest.raises(ValueError):
            SharedGenotypeCache(max_entries=0)

    def test_custom_mac_parameterisation_clears_beacon_attributes(self):
        from repro.dse.problem import csma_mac_parameterisation

        csma = WbsnDseProblem(
            build_csma_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            compression_ratios=self.SMALL["compression_ratios"],
            frequencies_hz=self.SMALL["frequencies_hz"],
            mac_parameterisation=csma_mac_parameterisation(),
        )
        assert csma.payload_bytes is None
        assert csma.order_pairs is None
        beacon = small_problem()
        assert beacon.payload_bytes == SMALL_DOMAINS["payload_bytes"]
        assert beacon.order_pairs == SMALL_DOMAINS["order_pairs"]

    def test_fingerprint_covers_the_node_decode_rule(self):
        """A subclass with a different node decode never shares records."""

        class TwistedNodeProblem(WbsnDseProblem):
            @staticmethod
            def build_node_config(values):
                from repro.shimmer.platform import ShimmerNodeConfig

                # Deliberately ignores the frequency domain value.
                return ShimmerNodeConfig(
                    compression_ratio=values["compression_ratio"],
                    microcontroller_frequency_hz=8e6,
                )

        plain = small_problem()
        twisted = TwistedNodeProblem(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            **SMALL_DOMAINS,
        )
        fp_plain = plain.evaluation_fingerprint()
        fp_twisted = twisted.evaluation_fingerprint()
        assert fp_plain is not None
        assert fp_plain != fp_twisted


class TestSharedCacheLruRecency:
    """Regression: re-storing a hot row must refresh its LRU position."""

    COMPONENTS = ("energy",)

    def _store(self, cache, key: int) -> None:
        """Publish one row under design id ``key`` (its objective is ``key``)."""
        cache.store(
            b"fp",
            np.array([key]),
            self.COMPONENTS,
            np.array([[float(key)]]),
            np.ones(1, dtype=bool),
            np.zeros(1, dtype=np.int64),
        )

    def _held(self, cache, key: int) -> bool:
        hits, _ = cache.lookup(b"fp", np.array([key]), self.COMPONENTS)
        return len(hits) == 1

    def test_refreshed_record_outlives_a_cold_one(self):
        cache = SharedGenotypeCache(max_entries=2)
        hot, cold, newcomer = 0, 1, 2
        self._store(cache, hot)
        self._store(cache, cold)
        # Re-store the hot key (same component set: the row is kept, but
        # the store is a use and must refresh recency).
        self._store(cache, hot)
        self._store(cache, newcomer)
        assert cache.evictions == 1
        # The cold key was evicted, the refreshed hot key survived.
        assert self._held(cache, hot)
        assert not self._held(cache, cold)
        assert self._held(cache, newcomer)

    def test_eviction_order_without_refresh_is_plain_fifo_of_use(self):
        cache = SharedGenotypeCache(max_entries=2)
        self._store(cache, 0)
        self._store(cache, 1)
        self._store(cache, 2)
        assert not self._held(cache, 0)
        assert self._held(cache, 1)
        assert self._held(cache, 2)


class TestDseResultThroughputClamp:
    """Regression: zero-duration runs must serialize as valid strict JSON."""

    def test_zero_duration_reports_zero_not_inf(self):
        import json

        from repro.dse.runner import DseResult

        result = DseResult(front=(), evaluations=128, wall_clock_s=0.0)
        assert result.evaluations_per_second == 0.0
        assert result.model_evaluations_per_second == 0.0
        payload = json.dumps(
            {
                "evaluations_per_second": result.evaluations_per_second,
                "model_evaluations_per_second": result.model_evaluations_per_second,
            },
            allow_nan=False,
        )
        assert "Infinity" not in payload

    def test_positive_duration_unchanged(self):
        from repro.dse.runner import DseResult

        result = DseResult(front=(), evaluations=100, wall_clock_s=2.0)
        assert result.evaluations_per_second == 50.0


class TestSpacesBeyondInt64Ids:
    """A 12-node case-study space holds 2**65 designs: its design ids do not
    fit ``int64`` (``encode_ids`` raises), yet every memo keys it exactly."""

    @staticmethod
    def problem(**engine_options) -> WbsnDseProblem:
        return WbsnDseProblem(
            build_case_study_evaluator(n_nodes=12),
            engine=EvaluationEngine(**engine_options),
        )

    @staticmethod
    def columns(batch):
        return (
            batch.genotypes.tolist(),
            batch.objectives.tolist(),
            batch.feasible.tolist(),
            batch.violation_counts.tolist(),
        )

    def test_space_is_beyond_int64_ids(self):
        space = self.problem().space
        assert space.size == 2**65
        with pytest.raises(ValueError, match="int64"):
            space.encode_ids([])

    def test_nsga2_matches_an_uncached_engine(self):
        settings = Nsga2Settings(population_size=8, generations=3, seed=5)
        cached = run_algorithm(Nsga2(self.problem(), settings))
        uncached = run_algorithm(
            Nsga2(self.problem(genotype_cache=False), settings)
        )
        assert [(d.genotype, d.objectives) for d in cached.front] == [
            (d.genotype, d.objectives) for d in uncached.front
        ]
        assert cached.engine_stats.genotype_cache_hits > 0

    def test_nsga2_front_is_pinned(self):
        """Survivor dedup keys rows by exact design keys, never by
        ``int64`` ids; the front is the one the tuple-set dedup returned."""
        problem = self.problem()
        settings = Nsga2Settings(population_size=8, generations=3, seed=5)
        front = Nsga2(problem, settings).run()
        space = problem.space
        keys = space.design_keys(space.index_matrix([d.genotype for d in front]))
        assert keys.tolist() == [
            12964796469098060102, 11807582471097086288, 12150431679391739678,
            12964774615431388442, 13397375138382188620, 27232173711032619713,
            13086603639182848346, 12964796479835574598,
        ]
        assert problem.engine.stats.genotype_requests == 33

    def test_columnar_batch_with_duplicates_and_memo_hits(self, tmp_path):
        cached = self.problem(cache_dir=tmp_path)
        uncached = self.problem(genotype_cache=False)
        top = [card - 1 for card in cached.space.cardinalities.tolist()]
        genotypes = [tuple(top), (0,) * len(top), tuple(top[:-1] + [0])]
        cached.evaluate_batch_columns(genotypes[:1])  # a column-store hit
        batch = genotypes + genotypes[::-1]  # duplicates and the probe
        result = cached.evaluate_batch_columns(batch)
        assert self.columns(result) == self.columns(
            uncached.evaluate_batch_columns(batch)
        )
        assert result.cached.tolist() == [True, True, False, False, True, True]
        # Exact keys survive a spill and a warm start in a fresh engine.
        cached.engine.close()
        warm = self.problem(cache_dir=tmp_path)
        assert warm.engine.stats.rows_loaded_from_disk == len(genotypes)
        assert self.columns(warm.evaluate_batch_columns(batch)) == self.columns(
            result
        )
        assert warm.engine.stats.model_evaluations == 0
