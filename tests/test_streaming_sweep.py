"""Property suite: the streaming random sweep changes memory, never results.

:class:`~repro.dse.random_search.RandomSearch` defaults to a *streaming*
columnar sweep — distinct genotypes are drawn lazily in chunk-sized blocks
and pruned into a running front, so the full sample list never exists in
memory.  The contract that makes this safe is bitwise parity with the
materialised one-shot path: evaluation consumes no randomness, so the draw
stream is a function of the initial RNG state alone, and the chunked
running-front pruning is order-identical to the one-shot front extraction.

This file pins that contract property-style, across seeds, chunk sizes,
resume-from-checkpoint and both MAC families (beacon-enabled GTS and
unslotted CSMA/CA).  The exhaustive sweep's id-range chunks are pinned the
same way, against its per-chunk object path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.exhaustive import ExhaustiveSearch
from repro.dse.problem import WbsnDseProblem, csma_mac_parameterisation
from repro.dse.random_search import RandomSearch
from repro.dse.runner import run_algorithm
from repro.dse.space import DesignIds
from repro.engine import (
    EvaluationEngine,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    inject_faults,
)
from repro.experiments.casestudy import (
    build_case_study_evaluator,
    build_csma_case_study_evaluator,
)

#: Small two-node spaces (64 configurations) keep the matrix fast.
NODE_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
)


def beacon_problem() -> WbsnDseProblem:
    return WbsnDseProblem(
        build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        payload_bytes=(60, 80),
        order_pairs=((4, 4), (4, 6)),
        engine=EvaluationEngine(),
    )


def csma_problem() -> WbsnDseProblem:
    return WbsnDseProblem(
        build_csma_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        mac_parameterisation=csma_mac_parameterisation(
            payload_bytes=(60, 80),
            backoff_exponent_pairs=((3, 5), (4, 6)),
        ),
        engine=EvaluationEngine(),
    )


FAMILIES = {"beacon": beacon_problem, "csma": csma_problem}


def front_signature(front):
    return [
        (design.genotype, design.objectives, design.feasible)
        for design in front
    ]


class TestDrawStreamParity:
    def test_stream_is_pure_rng_consumption(self):
        """Two same-seed searches stream the identical distinct sequence."""
        problem = beacon_problem()
        first = list(
            RandomSearch(problem, samples=96, seed=11)._draw_stream()
        )
        second = list(
            RandomSearch(problem, samples=96, seed=11)._draw_stream()
        )
        assert first == second
        assert len(set(first)) == len(first)  # distinct, first-draw order

    def test_lazy_interleaved_draws_match_the_eager_list(self):
        """Drawing chunk by chunk *between* evaluations sees the same
        stream as drawing everything up front (evaluation consumes no
        randomness)."""
        eager = list(
            RandomSearch(beacon_problem(), samples=80, seed=3)._draw_stream()
        )
        problem = beacon_problem()
        search = RandomSearch(problem, samples=80, seed=3, chunk_size=8)
        consumed: list[tuple[int, ...]] = []
        original = problem.evaluate_batch_columns

        def recording(genotypes, **kwargs):
            consumed.extend(tuple(g) for g in genotypes)
            return original(genotypes, **kwargs)

        problem.evaluate_batch_columns = recording
        search.run()
        assert consumed == eager

    def test_seen_set_not_the_sample_list_drives_dedup(self):
        """Heavy oversampling yields at most |space| distinct genotypes —
        the dedup is carried by the seen-set alone, never by comparing
        against a materialised sample list."""
        problem = beacon_problem()
        search = RandomSearch(problem, samples=500, seed=0)
        distinct = list(search._draw_stream())
        assert len(distinct) <= problem.space.size
        assert len(set(distinct)) == len(distinct)


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestStreamingFrontParity:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("chunk_size", [1, 5, 16, 1024])
    def test_streaming_matches_materialised_one_shot(
        self, family, seed, chunk_size
    ):
        reference = RandomSearch(
            FAMILIES[family](), samples=60, seed=seed, columnar=False
        ).run()
        streamed = RandomSearch(
            FAMILIES[family](),
            samples=60,
            seed=seed,
            chunk_size=chunk_size,
        ).run()
        assert front_signature(streamed) == front_signature(reference)

    def test_streaming_materialises_only_the_front(self, family):
        problem = FAMILIES[family]()
        result = run_algorithm(
            RandomSearch(problem, samples=60, seed=1, chunk_size=8)
        )
        assert result.engine_stats.designs_materialised == len(result.front)

    def test_scalar_path_still_matches_columnar(self, family):
        columnar = RandomSearch(FAMILIES[family](), samples=40, seed=2).run()
        scalar = RandomSearch(
            FAMILIES[family](), samples=40, seed=2, columnar=False
        ).run()
        assert front_signature(columnar) == front_signature(scalar)


class TestRunnerBackendThreading:
    def test_run_algorithm_threads_the_backend_choice(self):
        """``run_algorithm(array_backend=...)`` recompiles the kernel onto
        the named backend before the run, surfaces the resolved name on the
        result, and changes nothing about the front."""
        reference = run_algorithm(
            RandomSearch(beacon_problem(), samples=40, seed=4)
        )
        result = run_algorithm(
            RandomSearch(beacon_problem(), samples=40, seed=4),
            array_backend="numpy",
        )
        assert result.engine_stats.array_backend == "numpy"
        assert front_signature(result.front) == front_signature(
            reference.front
        )

    def test_backend_choice_needs_a_vectorized_kernel(self):
        problem = WbsnDseProblem(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
            **NODE_DOMAINS,
            payload_bytes=(60, 80),
            order_pairs=((4, 4), (4, 6)),
            engine=EvaluationEngine(),
            vectorized=False,
        )
        with pytest.raises(RuntimeError, match="no compiled vectorized"):
            run_algorithm(
                RandomSearch(problem, samples=10, seed=0),
                array_backend="numpy",
            )

    def test_unknown_backend_fails_before_the_run(self):
        with pytest.raises(KeyError, match="numpy"):
            run_algorithm(
                RandomSearch(beacon_problem(), samples=10, seed=0),
                array_backend="no-such-backend",
            )


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestStreamingResumeParity:
    def test_aborted_streaming_sweep_resumes_bitwise_identically(
        self, family, tmp_path
    ):
        reference = RandomSearch(
            FAMILIES[family](), samples=72, seed=9, columnar=False
        ).run()
        path = tmp_path / "rs.ckpt"
        plan = FaultPlan(
            [FaultSpec(site="checkpoint-saved", action="raise", at=(1,))]
        )
        with inject_faults(plan), pytest.raises(InjectedFault):
            RandomSearch(
                FAMILIES[family](),
                samples=72,
                seed=9,
                chunk_size=8,
                checkpoint_every=1,
                checkpoint_path=str(path),
            ).run()
        resumed = RandomSearch(
            FAMILIES[family](),
            samples=72,
            seed=9,
            chunk_size=8,
            checkpoint_every=1,
            checkpoint_path=str(path),
        ).run()
        assert front_signature(resumed) == front_signature(reference)

    def test_resume_skips_the_consumed_prefix(self, family, tmp_path):
        """The resumed run re-evaluates only post-cursor chunks — the
        checkpoint cursor counts distinct genotypes, and the replay
        discards exactly that prefix of the redrawn stream."""
        path = tmp_path / "rs.ckpt"
        plan = FaultPlan(
            [FaultSpec(site="checkpoint-saved", action="raise", at=(2,))]
        )
        with inject_faults(plan), pytest.raises(InjectedFault):
            run_algorithm(
                RandomSearch(
                    FAMILIES[family](),
                    samples=72,
                    seed=9,
                    chunk_size=8,
                    checkpoint_every=1,
                ),
                checkpoint_path=str(path),
            )
        resumed = run_algorithm(
            RandomSearch(
                FAMILIES[family](),
                samples=72,
                seed=9,
                chunk_size=8,
                checkpoint_every=1,
            ),
            checkpoint_path=str(path),
        )
        # Three chunks were absorbed before the abort; at most the rest of
        # the distinct stream (≤ 64-design space) is recomputed.
        assert resumed.model_evaluations < 64 - 16

    def test_resume_under_a_different_chunking_still_matches(
        self, family, tmp_path
    ):
        """Chunk size is a performance knob, not part of the draw stream:
        resuming with a different chunk size must not change the front."""
        reference = RandomSearch(
            FAMILIES[family](), samples=72, seed=9, columnar=False
        ).run()
        path = tmp_path / "rs.ckpt"
        plan = FaultPlan(
            [FaultSpec(site="checkpoint-saved", action="raise", at=(1,))]
        )
        with inject_faults(plan), pytest.raises(InjectedFault):
            RandomSearch(
                FAMILIES[family](),
                samples=72,
                seed=9,
                chunk_size=8,
                checkpoint_every=1,
                checkpoint_path=str(path),
            ).run()
        resumed = RandomSearch(
            FAMILIES[family](),
            samples=72,
            seed=9,
            chunk_size=16,
            checkpoint_every=1,
            checkpoint_path=str(path),
        ).run()
        assert front_signature(resumed) == front_signature(reference)


#: Chunk sizes of the id-range tests, as offsets from the space size where
#: they depend on it: single rows, a prime, one chunk larger than the
#: space, and the space size itself, one below and five above.
_EXHAUSTIVE_CHUNKS = {
    "1": lambda size: 1,
    "7": lambda size: 7,
    "1000": lambda size: 1000,
    "size-1": lambda size: size - 1,
    "size": lambda size: size,
    "size+5": lambda size: size + 5,
}


def _recording(problem):
    """Record every batch the columnar sweep hands the problem."""
    batches = []
    evaluate = problem.evaluate_batch_columns

    def record(genotypes, **kwargs):
        batches.append(genotypes)
        return evaluate(genotypes, **kwargs)

    problem.evaluate_batch_columns = record
    return batches


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestExhaustiveIdRangeChunks:
    """Columnar sweeps evaluate design-id ranges as checked id batches;
    their fronts match the object path's tuple enumeration bitwise."""

    @pytest.mark.parametrize("chunk", sorted(_EXHAUSTIVE_CHUNKS))
    def test_id_range_chunks_match_the_object_path(self, family, chunk):
        reference = ExhaustiveSearch(
            FAMILIES[family](), chunk_size=16, columnar=False
        ).run()
        problem = FAMILIES[family]()
        size = problem.space.size
        chunk_size = _EXHAUSTIVE_CHUNKS[chunk](size)
        batches = _recording(problem)
        front = ExhaustiveSearch(problem, chunk_size=chunk_size).run()
        assert front_signature(front) == front_signature(reference)
        for batch in batches:
            assert isinstance(batch, DesignIds)
        assert [len(batch) for batch in batches[:-1]] == [chunk_size] * (
            len(batches) - 1
        )
        ids = np.concatenate([batch.values for batch in batches])
        assert ids.tolist() == list(range(size))

    def test_resume_continues_at_the_cursor_under_another_chunk_size(
        self, family, tmp_path
    ):
        reference = ExhaustiveSearch(
            FAMILIES[family](), chunk_size=16, columnar=False
        ).run()
        path = tmp_path / "sweep.ckpt"
        plan = FaultPlan(
            [FaultSpec(site="checkpoint-saved", action="raise", at=(1,))]
        )
        with inject_faults(plan), pytest.raises(InjectedFault):
            ExhaustiveSearch(
                FAMILIES[family](),
                chunk_size=7,
                checkpoint_every=1,
                checkpoint_path=path,
            ).run()
        problem = FAMILIES[family]()
        batches = _recording(problem)
        resumed = ExhaustiveSearch(
            problem, chunk_size=13, checkpoint_every=1, checkpoint_path=path
        ).run()
        assert front_signature(resumed) == front_signature(reference)
        # Two 7-row chunks were absorbed before the abort: the resumed sweep
        # starts at id 14 and never revisits an earlier id.
        ids = np.concatenate([batch.values for batch in batches])
        assert ids.tolist() == list(range(14, problem.space.size))
        assert [len(batch) for batch in batches[:-1]] == [13] * (len(batches) - 1)


def test_columnar_sweep_of_a_space_beyond_int64_ids_fails_before_any_work():
    problem = WbsnDseProblem(
        build_case_study_evaluator(n_nodes=12), engine=EvaluationEngine()
    )
    assert problem.space.size >= 2**63
    before = problem.engine.stats.snapshot()
    search = ExhaustiveSearch(problem, max_configurations=problem.space.size)
    with pytest.raises(ValueError, match="int64"):
        search.run()
    assert (problem.engine.stats.snapshot() - before).genotype_requests == 0
