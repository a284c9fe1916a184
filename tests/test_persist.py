"""Persistent cache tier: segment format, warm-start sweeps, fault injection.

Three layers are covered.  The *format* tests pin the on-disk segment
contract (framing, checksum, byte-determinism, projection, merge rules).
The *warm-start* tests are the tier's acceptance criteria: a sweep re-run
against a spilled segment — in the same process, through the runner, or in
a genuinely fresh process — must produce a front bitwise identical to the
cold run with **zero** model evaluations.  The *fault* tests drive the
``"cache-segment"`` mangle site and the ``"cache-segment-saved"`` fire site
of :mod:`repro.engine.faults`: a corrupted/truncated/foreign segment warns
(:class:`CacheTierWarning`) and cold-starts, and a SIGKILL during the spill
leaves no temporary file behind.

Problems are the small two-node/64-configuration spaces of the fault suite
(:mod:`test_faults`), so the file stays well inside the CI budget.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import textwrap
import threading
import warnings
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro.core.baseline import EnergyDelayBaselineEvaluator
from repro.dse.exhaustive import ExhaustiveSearch
from repro.dse.problem import WbsnDseProblem
from repro.dse.runner import run_algorithm
from repro.engine import (
    CacheSegmentError,
    CacheTierWarning,
    EvaluationEngine,
    FaultPlan,
    FaultSpec,
    SharedGenotypeCache,
    inject_faults,
    load_segment,
    load_segment_if_valid,
    prune_cache_dir,
    save_segment,
    segment_path,
)
from repro.engine import persist
from repro.engine.checkpoint import pack_blob
from repro.engine.persist import (
    SEGMENT_MAGIC,
    SEGMENT_SUFFIX,
    SEGMENT_VERSION,
    list_segments,
    remove_orphaned_tmp_siblings,
    spill_columns,
)
from repro.experiments.casestudy import build_case_study_evaluator

from test_faults import (
    NODE_DOMAINS,
    beacon_problem,
    front_signature,
    reference_front,
)

FP = bytes(range(32))
OTHER_FP = bytes(range(32, 64))
COMPONENTS = ("energy", "quality", "delay")

#: A small hand-written row set: {genotype key: (objectives, feasible, violations)}.
ROWS = {
    (1, 0): ((4.0, 5.0, 6.0), False, 2),
    (0, 1): ((1.0, 2.0, 3.0), True, 0),
    (0, 0): ((7.0, 8.0, 9.0), True, 0),
}


def column_arrays(rows, components=COMPONENTS):
    """Flatten a row mapping into ``save_segment``'s column arrays."""
    keys = list(rows)
    return dict(
        genotypes=np.asarray(keys, dtype=np.int64).reshape(len(keys), -1),
        objectives=np.asarray(
            [rows[key][0] for key in keys], dtype=np.float64
        ).reshape(len(keys), len(components)),
        feasible=np.asarray([rows[key][1] for key in keys], dtype=bool),
        violation_counts=np.asarray(
            [rows[key][2] for key in keys], dtype=np.int64
        ),
    )


def spill(cache_dir, rows, components=COMPONENTS, fingerprint=FP):
    """``spill_columns`` of a row mapping."""
    return spill_columns(
        cache_dir,
        fingerprint=fingerprint,
        components=components,
        **column_arrays(rows, components),
    )


def segment_rows(segment):
    """A segment as a ``genotype key -> (objectives, feasible, violations)``
    mapping."""
    return {
        tuple(genotype): (tuple(objectives), bool(feasible), int(violations))
        for genotype, objectives, feasible, violations in zip(
            segment.genotypes.tolist(),
            segment.objectives.tolist(),
            segment.feasible.tolist(),
            segment.violation_counts.tolist(),
        )
    }


def baseline_problem(engine: EvaluationEngine) -> WbsnDseProblem:
    """The two-node space under the (energy, delay) baseline evaluator.

    Same network model as :func:`test_faults.beacon_problem` — the two
    problems share one evaluation fingerprint and differ only in objective
    components, exactly like the Figure-5 pair.
    """
    return WbsnDseProblem(
        EnergyDelayBaselineEvaluator(
            build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs"))
        ),
        **NODE_DOMAINS,
        payload_bytes=(60, 80),
        order_pairs=((4, 4), (4, 6)),
        engine=engine,
    )


def sweep(engine: EvaluationEngine, problem_factory=beacon_problem):
    """Exhaustive sweep on a problem bound to ``engine``, then close it."""
    with engine:
        return run_algorithm(
            ExhaustiveSearch(problem_factory(engine), chunk_size=16)
        )


def subprocess_env() -> dict[str, str]:
    """Environment for a fresh-process run: src and tests on PYTHONPATH."""
    env = dict(os.environ)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, here, env.get("PYTHONPATH")) if p
    )
    return env


# --------------------------------------------------------------------------
# Segment format: atomic, versioned, checksummed, byte-deterministic.


class TestSegmentFormat:
    def test_roundtrip_sorts_rows_by_genotype(self, tmp_path):
        path = save_segment(
            tmp_path, fingerprint=FP, components=COMPONENTS, **column_arrays(ROWS)
        )
        assert path == segment_path(tmp_path, FP)
        loaded = load_segment(path)
        assert loaded.fingerprint == FP
        assert loaded.components == COMPONENTS
        assert len(loaded) == len(ROWS)
        assert segment_rows(loaded) == ROWS
        # Rows are lexsorted by genotype regardless of insertion order.
        assert loaded.genotypes.tolist() == [[0, 0], [0, 1], [1, 0]]
        # The loaded arrays are read-only views into the file's memory map.
        with pytest.raises(ValueError):
            loaded.objectives[0, 0] = 0.0
        # Atomicity: no temporary file left behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_equal_row_sets_produce_identical_bytes(self, tmp_path):
        reordered = dict(reversed(list(ROWS.items())))
        a = save_segment(
            tmp_path / "a", fingerprint=FP, components=COMPONENTS,
            **column_arrays(ROWS),
        )
        b = save_segment(
            tmp_path / "b", fingerprint=FP, components=COMPONENTS,
            **column_arrays(reordered),
        )
        assert a.read_bytes() == b.read_bytes()

    def test_segment_bytes_are_pinned(self, tmp_path):
        """The column block is shared with the service's wire frames;
        segment files must stay byte-identical to the format's v1 writer."""
        path = save_segment(
            tmp_path,
            fingerprint=bytes(range(32)),
            components=("energy", "delay", "prd"),
            genotypes=(np.arange(30).reshape(5, 6) * 7) % 5,
            objectives=np.arange(15, dtype=float).reshape(5, 3) / 7.0,
            feasible=np.array([True, False, True, True, False]),
            violation_counts=np.array([0, 2, 0, 0, 1]),
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cbb6f75e360cb269a9bf94b4694052ca32be635892db22f7716a6f42da8f26e0"
        )

    def test_rejects_mismatched_column_lengths(self, tmp_path):
        arrays = column_arrays(ROWS)
        arrays["feasible"] = arrays["feasible"][:1]
        with pytest.raises(ValueError, match="row count"):
            save_segment(
                tmp_path, fingerprint=FP, components=COMPONENTS, **arrays
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(CacheSegmentError, match="unreadable"):
            load_segment(tmp_path / "absent.wbsncache")
        # The warm-start loader treats a missing segment as a silent cold
        # start (first run against the cache directory), not a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (
                load_segment_if_valid(
                    tmp_path / "absent.wbsncache", fingerprint=FP
                )
                is None
            )

    def test_empty_file_is_truncated_not_a_crash(self, tmp_path):
        path = tmp_path / "empty.wbsncache"
        path.write_bytes(b"")
        with pytest.raises(CacheSegmentError, match="truncated"):
            load_segment(path)
        with pytest.warns(CacheTierWarning, match="truncated"):
            assert load_segment_if_valid(path, fingerprint=FP) is None

    def test_flipped_payload_byte_fails_the_checksum(self, tmp_path):
        path = save_segment(
            tmp_path, fingerprint=FP, components=COMPONENTS, **column_arrays(ROWS)
        )
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheSegmentError, match="integrity"):
            load_segment(path)

    def test_foreign_magic_and_future_version(self, tmp_path):
        path = save_segment(
            tmp_path, fingerprint=FP, components=COMPONENTS, **column_arrays(ROWS)
        )
        blob = bytearray(path.read_bytes())
        mangled = bytearray(blob)
        mangled[0] ^= 0xFF
        path.write_bytes(bytes(mangled))
        with pytest.raises(CacheSegmentError, match="magic"):
            load_segment(path)
        future = SEGMENT_VERSION + 1
        blob[len(SEGMENT_MAGIC) : len(SEGMENT_MAGIC) + 4] = future.to_bytes(
            4, "little"
        )
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheSegmentError, match="version"):
            load_segment(path)

    def test_unparseable_header_is_rejected(self, tmp_path):
        # A correctly framed blob whose payload is not a segment header.
        path = tmp_path / "junk.wbsncache"
        payload = (64).to_bytes(4, "little") + b"\xff" * 64
        path.write_bytes(pack_blob(SEGMENT_MAGIC, SEGMENT_VERSION, payload))
        with pytest.raises(CacheSegmentError, match="header"):
            load_segment(path)

    def test_fingerprint_mismatch_warns_and_cold_starts(self, tmp_path):
        path = save_segment(
            tmp_path, fingerprint=FP, components=COMPONENTS, **column_arrays(ROWS)
        )
        with pytest.warns(CacheTierWarning, match="fingerprint"):
            assert load_segment_if_valid(path, fingerprint=OTHER_FP) is None
        with pytest.warns(CacheTierWarning, match="fingerprint"):
            assert load_segment_if_valid(path, fingerprint=None) is None

    def test_projection_is_a_column_selection(self, tmp_path):
        path = save_segment(
            tmp_path, fingerprint=FP, components=COMPONENTS, **column_arrays(ROWS)
        )
        segment = load_segment(path)
        assert segment.project(COMPONENTS) is segment.objectives
        projected = segment.project(("energy", "delay"))
        np.testing.assert_array_equal(projected, segment.objectives[:, [0, 2]])
        reordered = segment.project(("delay", "energy"))
        np.testing.assert_array_equal(reordered, segment.objectives[:, [2, 0]])
        # Not a subset: a miss, never a guess.
        assert segment.project(("energy", "latency")) is None


class TestSpillMergeRules:
    def test_empty_rows_write_nothing(self, tmp_path):
        assert (
            spill_columns(
                tmp_path,
                fingerprint=FP,
                components=COMPONENTS,
                genotypes=np.empty((0, 2), dtype=np.int64),
                objectives=np.empty((0, len(COMPONENTS))),
                feasible=np.empty(0, dtype=bool),
                violation_counts=np.empty(0, dtype=np.int64),
            )
            is None
        )
        assert not list(tmp_path.iterdir())

    def test_same_components_union_new_rows_win(self, tmp_path):
        spill(tmp_path, ROWS)
        update = {
            (0, 1): ((9.0, 9.0, 9.0), True, 0),  # conflicting key
            (2, 2): ((0.5, 0.5, 0.5), True, 0),  # fresh key
        }
        path = spill(tmp_path, update)
        merged = segment_rows(load_segment(path))
        assert len(merged) == 4
        assert merged[(0, 1)] == update[(0, 1)]
        assert merged[(0, 0)] == ROWS[(0, 0)]

    def test_richer_spill_replaces_a_narrow_segment(self, tmp_path):
        narrow = {(0, 0): ((1.0, 3.0), True, 0)}
        spill(tmp_path, narrow, components=("energy", "delay"))
        path = spill(tmp_path, ROWS)
        segment = load_segment(path)
        assert segment.components == COMPONENTS
        # Narrow rows cannot be widened: they are dropped with the segment.
        assert segment_rows(segment) == ROWS

    def test_narrower_spill_is_a_noop(self, tmp_path):
        spill(tmp_path, ROWS)
        narrow = {(5, 5): ((1.0, 3.0), True, 0)}
        path = spill(tmp_path, narrow, components=("energy", "delay"))
        segment = load_segment(path)
        assert segment.components == COMPONENTS
        assert segment_rows(segment) == ROWS

    def test_incomparable_spill_is_a_noop(self, tmp_path):
        first = {(0, 0): ((1.0, 3.0), True, 0)}
        spill(tmp_path, first, components=("energy", "delay"))
        other = {(1, 1): ((2.0, 4.0), True, 0)}
        path = spill(tmp_path, other, components=("energy", "quality"))
        segment = load_segment(path)
        assert segment.components == ("energy", "delay")
        assert segment_rows(segment) == first


# --------------------------------------------------------------------------
# Warm-start sweeps: bitwise-identical fronts, zero model evaluations.


class TestWarmStartSweeps:
    def test_warm_engine_reruns_without_model_evaluations(self, tmp_path):
        cold = sweep(EvaluationEngine(cache_dir=tmp_path))
        assert cold.model_evaluations > 0
        assert front_signature(cold.front) == reference_front("beacon")
        segments = list(tmp_path.iterdir())
        assert [p.suffix for p in segments] == [".wbsncache"]
        assert len(load_segment(segments[0])) == 64

        warm_engine = EvaluationEngine(cache_dir=tmp_path)
        warm = sweep(warm_engine)
        assert front_signature(warm.front) == front_signature(cold.front)
        # The acceptance criterion: the warm engine never touched the model
        # — not even for the problem's construction probe.
        assert warm_engine.stats.model_evaluations == 0
        assert warm_engine.stats.rows_loaded_from_disk == 64
        assert warm_engine.stats.persistent_cache_hits >= 64

    def test_runner_cache_dir_plumbs_the_tier(self, tmp_path):
        cold = run_algorithm(
            ExhaustiveSearch(beacon_problem(EvaluationEngine()), chunk_size=16),
            cache_dir=str(tmp_path),
        )
        assert cold.model_evaluations > 0
        assert list(tmp_path.glob("*.wbsncache"))
        warm = run_algorithm(
            ExhaustiveSearch(beacon_problem(EvaluationEngine()), chunk_size=16),
            cache_dir=str(tmp_path),
        )
        assert front_signature(warm.front) == front_signature(cold.front)
        assert warm.model_evaluations == 0
        # The construction probe (computed before the run, outside the tier)
        # is already memoised, so 63 of the 64 rows come off disk.
        assert warm.engine_stats.rows_loaded_from_disk == 63
        assert warm.engine_stats.persistent_cache_hits == 63

    def test_shared_cache_rows_reach_the_segment(self, tmp_path):
        shared = SharedGenotypeCache()
        publisher = beacon_problem(EvaluationEngine(shared_cache=shared))
        genotypes = list(publisher.space.enumerate_genotypes())[:8]
        reference = publisher.evaluate_batch_columns(genotypes)
        publisher.evaluate_batch(genotypes)  # materialising publishes
        consumer = beacon_problem(EvaluationEngine(shared_cache=shared))
        consumer.evaluate_batch_columns(genotypes[:6])
        consumer.evaluate(genotypes[7])
        assert consumer.engine.stats.model_evaluations == 0
        assert consumer.engine.stats.shared_cache_hits == 7  # probe included
        segment = load_segment(consumer.engine.spill_persistent_cache(tmp_path))
        served = genotypes[:6] + genotypes[7:]
        assert segment_rows(segment) == {
            genotype: (tuple(objectives), feasible, violations)
            for genotype, objectives, feasible, violations in zip(
                genotypes,
                reference.objectives.tolist(),
                reference.feasible.tolist(),
                reference.violation_counts.tolist(),
            )
            if genotype in served
        }

    def test_runner_rejects_engineless_problems(self):
        class EnginelessProblem:
            engine = None

        class Algorithm:
            problem = EnginelessProblem()

            def run(self):  # pragma: no cover - never reached
                return []

        with pytest.raises(TypeError, match="cache_dir"):
            run_algorithm(Algorithm(), cache_dir="anywhere")

    def test_cross_process_warm_start(self, tmp_path):
        # The cold sweep runs — and spills — in a genuinely fresh process;
        # this process then warm-starts from nothing but the segment file.
        script = textwrap.dedent(
            f"""
            from test_faults import beacon_problem
            from repro.dse.exhaustive import ExhaustiveSearch
            from repro.dse.runner import run_algorithm
            from repro.engine import EvaluationEngine

            engine = EvaluationEngine(cache_dir={str(tmp_path)!r})
            with engine:
                result = run_algorithm(
                    ExhaustiveSearch(beacon_problem(engine), chunk_size=16)
                )
            assert result.model_evaluations > 0
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=subprocess_env(),
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr

        warm_engine = EvaluationEngine(cache_dir=tmp_path)
        warm = sweep(warm_engine)
        assert front_signature(warm.front) == reference_front("beacon")
        assert warm_engine.stats.model_evaluations == 0
        assert warm_engine.stats.rows_loaded_from_disk == 64

    def test_baseline_warm_starts_from_the_full_models_segment(self, tmp_path):
        # The Figure-5 cross-problem flow, across processes: the full model
        # spills its three-component segment, and the (energy, delay)
        # baseline — same fingerprint — is served column projections of the
        # same floats, without a single model evaluation.
        cold_baseline = run_algorithm(
            ExhaustiveSearch(baseline_problem(EvaluationEngine()), chunk_size=16)
        )
        assert cold_baseline.model_evaluations > 0

        sweep(EvaluationEngine(cache_dir=tmp_path))  # full model spills

        warm_engine = EvaluationEngine(cache_dir=tmp_path)
        warm = sweep(warm_engine, baseline_problem)
        assert front_signature(warm.front) == front_signature(
            cold_baseline.front
        )
        assert warm_engine.stats.model_evaluations == 0

        # The baseline's narrower close-time spill must not have clobbered
        # the richer stored segment (merge rule: narrower is a no-op).
        segment = load_segment(next(tmp_path.glob("*.wbsncache")))
        assert segment.components == COMPONENTS
        assert len(segment) == 64

    def test_out_of_range_genes_cold_start(self, tmp_path):
        # A segment under the problem's real fingerprint whose rows do not
        # fit the bound space (a gene past its domain) is unusable as a
        # whole: warn, load nothing, sweep cold to the reference front.
        probe = beacon_problem(EvaluationEngine())
        genotypes = np.asarray(
            list(probe.space.enumerate_genotypes())[:2], dtype=np.int64
        )
        genotypes[1, 0] = probe.space.domains[0].cardinality
        save_segment(
            tmp_path,
            fingerprint=probe.evaluation_fingerprint(),
            components=COMPONENTS,
            genotypes=genotypes,
            objectives=np.zeros((2, len(COMPONENTS))),
            feasible=np.ones(2, dtype=bool),
            violation_counts=np.zeros(2, dtype=np.int64),
        )

        engine = EvaluationEngine(cache_dir=tmp_path)
        with pytest.warns(CacheTierWarning, match="design space"):
            problem = beacon_problem(engine)
        assert engine.stats.rows_loaded_from_disk == 0
        result = run_algorithm(ExhaustiveSearch(problem, chunk_size=16))
        assert front_signature(result.front) == reference_front("beacon")
        assert engine.stats.model_evaluations == 64


# --------------------------------------------------------------------------
# Fault injection: corrupted segments cold-start, kills leak no tmp files.


class TestSegmentFaultInjection:
    @pytest.mark.parametrize(
        "action, kwargs, fragment",
        [
            ("flip-byte", {}, "integrity"),
            ("truncate", dict(offset=6), "truncated"),
        ],
    )
    def test_mangled_segment_falls_back_to_cold_start(
        self, tmp_path, action, kwargs, fragment
    ):
        plan = FaultPlan([FaultSpec(site="cache-segment", action=action, **kwargs)])
        with inject_faults(plan):
            cold = sweep(EvaluationEngine(cache_dir=tmp_path))
        assert front_signature(cold.front) == reference_front("beacon")

        warm_engine = EvaluationEngine(cache_dir=tmp_path)
        with pytest.warns(CacheTierWarning, match=fragment):
            problem = beacon_problem(warm_engine)  # bind-time load warns
        warm = run_algorithm(ExhaustiveSearch(problem, chunk_size=16))
        assert front_signature(warm.front) == reference_front("beacon")
        # The unusable segment was ignored: a full cold sweep.
        assert warm_engine.stats.model_evaluations == 64
        assert warm_engine.stats.rows_loaded_from_disk == 0
        # Closing spills over the corrupt segment (warning again), healing
        # the cache directory for the next process.
        with pytest.warns(CacheTierWarning, match=fragment):
            warm_engine.close()
        healed_engine = EvaluationEngine(cache_dir=tmp_path)
        healed = sweep(healed_engine)
        assert front_signature(healed.front) == reference_front("beacon")
        assert healed_engine.stats.model_evaluations == 0

    def test_foreign_fingerprint_segment_is_ignored(self, tmp_path):
        probe = beacon_problem(EvaluationEngine())
        fingerprint = probe.evaluation_fingerprint()
        rows = {(0,) * len(probe.space.domains): ((1.0, 2.0, 3.0), True, 0)}
        foreign = spill(tmp_path / "other", rows, fingerprint=OTHER_FP)
        os.replace(foreign, segment_path(tmp_path, fingerprint))

        engine = EvaluationEngine(cache_dir=tmp_path)
        with pytest.warns(CacheTierWarning, match="fingerprint"):
            beacon_problem(engine)
        assert engine.stats.rows_loaded_from_disk == 0

    def test_unservable_components_cold_start(self, tmp_path):
        probe = beacon_problem(EvaluationEngine())
        fingerprint = probe.evaluation_fingerprint()
        genes = len(probe.space.domains)
        save_segment(
            tmp_path,
            fingerprint=fingerprint,
            components=("foo", "bar"),
            genotypes=np.zeros((1, genes), dtype=np.int64),
            objectives=np.zeros((1, 2)),
            feasible=np.ones(1, dtype=bool),
            violation_counts=np.zeros(1, dtype=np.int64),
        )
        engine = EvaluationEngine(cache_dir=tmp_path)
        with pytest.warns(CacheTierWarning, match="cannot serve"):
            beacon_problem(engine)
        assert engine.stats.rows_loaded_from_disk == 0

    def test_sigkill_during_spill_leaks_no_tmp_file(self, tmp_path):
        # The writer is SIGKILL'd right after the segment write; the cache
        # directory must hold exactly the (valid) segment — the atomic-write
        # discipline never leaves a temporary behind.
        script = textwrap.dedent(
            f"""
            from test_faults import beacon_problem
            from repro.dse.exhaustive import ExhaustiveSearch
            from repro.dse.runner import run_algorithm
            from repro.engine import EvaluationEngine, FaultPlan, FaultSpec
            from repro.engine import install_fault_plan

            install_fault_plan(
                FaultPlan([FaultSpec(site="cache-segment-saved", action="kill")])
            )
            engine = EvaluationEngine(cache_dir={str(tmp_path)!r})
            with engine:
                run_algorithm(
                    ExhaustiveSearch(beacon_problem(engine), chunk_size=16)
                )
            raise SystemExit("the spill survived its SIGKILL")
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=subprocess_env(),
            capture_output=True,
            text=True,
        )
        assert completed.returncode == -9, completed.stderr
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 1 and names[0].endswith(".wbsncache"), names
        assert not list(tmp_path.glob("*.tmp"))
        # And the segment the kill raced is whole: a warm start serves it.
        warm_engine = EvaluationEngine(cache_dir=tmp_path)
        warm = sweep(warm_engine)
        assert front_signature(warm.front) == reference_front("beacon")
        assert warm_engine.stats.model_evaluations == 0


# --------------------------------------------------------------------------
# Concurrent spills: every writer's rows survive.

#: A spill writer: evaluates its quarter of the 64-design space, waits until
#: every writer is ready, then spills.  Its segment write waits until every
#: writer has read the segment (or a second has passed), so spills without
#: mutual exclusion all merge into the same stale segment.
_SPILL_WRITER = """
import sys
import time
from pathlib import Path

import numpy as np

from test_faults import beacon_problem
from repro.engine import EvaluationEngine, persist

writer, writers = int(sys.argv[1]), int(sys.argv[2])
cache, barrier = Path(sys.argv[3]), Path(sys.argv[4])


def arrive(stage, timeout_s):
    (barrier / f"{stage}-{writer}").touch()
    deadline = time.monotonic() + timeout_s
    while len(list(barrier.glob(f"{stage}-*"))) < writers:
        if time.monotonic() > deadline:
            return
        time.sleep(0.005)


save_segment = persist.save_segment


def save_after_every_read(*args, **kwargs):
    arrive("read", 1.0)
    return save_segment(*args, **kwargs)


persist.save_segment = save_after_every_read
engine = EvaluationEngine(cache_dir=cache)
problem = beacon_problem(engine)
quarter = problem.space.size // writers
ids = np.arange(writer * quarter, (writer + 1) * quarter)
problem.evaluate_batch_columns(problem.space.decode_ids(ids))
arrive("ready", 60.0)
engine.close()
"""


class TestConcurrentSpills:
    def test_simultaneous_spills_keep_every_writers_rows(self, tmp_path):
        writers = 4
        cache, barrier = tmp_path / "cache", tmp_path / "barrier"
        barrier.mkdir()
        processes = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _SPILL_WRITER,
                    str(writer),
                    str(writers),
                    str(cache),
                    str(barrier),
                ],
                env=subprocess_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for writer in range(writers)
        ]
        for process in processes:
            _, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr
        assert len(list(barrier.glob("read-*"))) == writers

        # A fresh engine loads the union of the four disjoint quarters.
        names = [path.name for path in cache.iterdir()]
        assert len(names) == 1 and names[0].endswith(SEGMENT_SUFFIX), names
        warm_engine = EvaluationEngine(cache_dir=cache)
        warm = sweep(warm_engine)
        assert warm_engine.stats.rows_loaded_from_disk == 64
        assert warm_engine.stats.model_evaluations == 0
        assert front_signature(warm.front) == reference_front("beacon")

    def test_threads_spilling_at_once_keep_every_row(self, tmp_path, monkeypatch):
        # The lock is the directory descriptor's flock, which excludes two
        # threads of one process as well.  Each write again waits until
        # every writer has read (or the barrier times out because the
        # writers are serialised).
        writers = 8
        barrier = threading.Barrier(writers)
        save_segment = persist.save_segment

        def save_after_every_read(*args, **kwargs):
            try:
                barrier.wait(timeout=1.0)
            except threading.BrokenBarrierError:
                pass
            return save_segment(*args, **kwargs)

        monkeypatch.setattr(persist, "save_segment", save_after_every_read)
        rows = [
            {
                (writer, gene): ((float(writer), float(gene), 0.0), True, 0)
                for gene in range(4)
            }
            for writer in range(writers)
        ]
        errors: list[Exception] = []

        def writer_spill(writer_rows):
            try:
                spill(tmp_path, writer_rows)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer_spill, args=(writer_rows,))
            for writer_rows in rows
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        union = {key: row for writer_rows in rows for key, row in writer_rows.items()}
        assert segment_rows(load_segment(segment_path(tmp_path, FP))) == union


# --------------------------------------------------------------------------
# Cache-dir hygiene: segment listing, orphaned-tmp removal at load.


class TestCacheDirHygiene:
    def test_list_segments_filters_foreign_files(self, tmp_path):
        segment = save_segment(
            tmp_path, fingerprint=FP, components=COMPONENTS, **column_arrays(ROWS)
        )
        other = save_segment(
            tmp_path,
            fingerprint=OTHER_FP,
            components=COMPONENTS,
            **column_arrays(ROWS),
        )
        (tmp_path / "notes.txt").write_text("not a segment")
        (tmp_path / f"nothex{SEGMENT_SUFFIX}").write_text("bad stem")
        (tmp_path / f"{FP.hex()}{SEGMENT_SUFFIX}.123.0.tmp").write_bytes(b"x")
        (tmp_path / "sub").mkdir()
        assert list_segments(tmp_path) == sorted([segment, other])

    def test_list_segments_of_a_missing_directory_is_empty(self, tmp_path):
        assert list_segments(tmp_path / "nowhere") == []

    def test_orphaned_tmp_of_a_dead_writer_is_removed_at_load(self, tmp_path):
        path = save_segment(
            tmp_path, fingerprint=FP, components=COMPONENTS, **column_arrays(ROWS)
        )
        # A pid that existed and is gone: a subprocess that already exited.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        orphan = tmp_path / f"{path.name}.{proc.pid}.7.tmp"
        orphan.write_bytes(b"half-written segment bytes")
        segment = load_segment_if_valid(path, fingerprint=FP)
        assert segment is not None and len(segment) == len(ROWS)
        assert not orphan.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_live_writers_tmp_is_left_alone(self, tmp_path):
        path = save_segment(
            tmp_path, fingerprint=FP, components=COMPONENTS, **column_arrays(ROWS)
        )
        in_flight = tmp_path / f"{path.name}.{os.getpid()}.3.tmp"
        in_flight.write_bytes(b"concurrent writer's bytes")
        misnamed = tmp_path / f"{path.name}.not-a-pid.tmp"
        misnamed.write_bytes(b"foreign tmp")
        assert load_segment_if_valid(path, fingerprint=FP) is not None
        assert in_flight.exists()  # its writer (this process) is alive
        assert misnamed.exists()  # not the atomic-write naming scheme
        assert remove_orphaned_tmp_siblings(path) == []

    def test_sigkill_mid_write_leaves_an_orphan_the_next_load_sweeps(
        self, tmp_path
    ):
        # The writer dies *between* the tmp write and the rename — the one
        # window the atomic protocol cannot clean up after.  The next load
        # must sweep the orphan and still serve the previous segment.
        save_segment(
            tmp_path, fingerprint=FP, components=COMPONENTS, **column_arrays(ROWS)
        )
        script = textwrap.dedent(
            f"""
            import os, signal
            import numpy as np
            from repro.engine import checkpoint, save_segment

            def die_before_rename(src, dst):
                os.kill(os.getpid(), signal.SIGKILL)

            checkpoint.os.replace = die_before_rename
            save_segment(
                {str(tmp_path)!r},
                fingerprint=bytes(range(32)),
                components=("energy", "quality", "delay"),
                genotypes=np.zeros((1, 2), dtype=np.int64),
                objectives=np.ones((1, 3)),
                feasible=np.ones(1, dtype=bool),
                violation_counts=np.zeros(1, dtype=np.int64),
            )
            raise SystemExit("the write survived its SIGKILL")
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=subprocess_env(),
            capture_output=True,
            text=True,
        )
        assert completed.returncode == -9, completed.stderr
        orphans = list(tmp_path.glob("*.tmp"))
        assert len(orphans) == 1  # the crash really left one behind
        path = segment_path(tmp_path, FP)
        segment = load_segment_if_valid(path, fingerprint=FP)
        assert segment is not None and len(segment) == len(ROWS)
        assert not list(tmp_path.glob("*.tmp"))
        assert list_segments(tmp_path) == [path]


# --------------------------------------------------------------------------
# Column-memo LRU bound (bugfix): bounded memory, unchanged results.


class TestColumnMemoBound:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="column_memo_max_entries"):
            EvaluationEngine(column_memo_max_entries=0)
        with pytest.raises(ValueError, match="column_memo_max_entries"):
            EvaluationEngine(column_memo_max_entries=-1)

    def test_eviction_is_least_recently_used(self):
        engine = EvaluationEngine(column_memo_max_entries=2)
        problem = beacon_problem(engine)
        # Three genotypes other than the construction probe (all zeros),
        # whose row the store holds from the start.
        first, second, third = list(problem.space.enumerate_genotypes())[1:4]
        problem.evaluate_batch_columns([first])
        problem.evaluate_batch_columns([second])  # evicts the probe
        assert problem.evaluate_batch_columns([first]).cached.tolist() == [True]
        problem.evaluate_batch_columns([third])  # evicts second, the LRU row
        survivors = problem.space.design_keys(
            problem.space.index_matrix([first, third])
        )
        assert set(engine._column_store.export()[0]) == set(survivors.tolist())
        assert engine.stats.column_memo_evictions == 2

    def test_bound_covers_object_path_batches(self):
        engine = EvaluationEngine(column_memo_max_entries=100)
        problem = WbsnDseProblem(build_case_study_evaluator(), engine=engine)
        # 5,000 distinct genotypes, none of them the all-zeros probe.
        genotypes = problem.space.decode_ids(1 + 7919 * np.arange(5000))
        designs = problem.evaluate_batch(genotypes)
        assert [d.genotype for d in designs] == list(map(tuple, genotypes.tolist()))
        assert len(engine._column_store) == engine.genotype_cache_size == 100
        # 5,000 rows plus the probe's went in, 100 stayed.
        assert engine.stats.column_memo_evictions == 5001 - 100

    def test_bounded_sweep_keeps_the_front(self):
        engine = EvaluationEngine(column_memo_max_entries=8)
        result = run_algorithm(
            ExhaustiveSearch(beacon_problem(engine), chunk_size=16)
        )
        assert front_signature(result.front) == reference_front("beacon")
        assert len(engine._column_store) <= 8
        assert engine.stats.column_memo_evictions > 0

    def test_bounded_warm_start_recomputes_evicted_rows(self, tmp_path):
        sweep(EvaluationEngine(cache_dir=tmp_path))
        engine = EvaluationEngine(cache_dir=tmp_path, column_memo_max_entries=8)
        result = sweep(engine)
        # Most loaded rows were evicted before the sweep reached them — the
        # bound trades recomputation for memory, never correctness.
        assert front_signature(result.front) == reference_front("beacon")
        assert engine.stats.column_memo_evictions > 0
        assert engine.stats.model_evaluations > 0


class TestColumnStoreModel:
    """The engine's id-keyed column store against an ``OrderedDict`` model.

    Random sequences of columnar batches, object-path batches, single
    evaluations and segment loads drive a real engine and a plain-Python
    model of the memo semantics side by side: one column-row memo in LRU
    order (a hit refreshes recency, the least recently used rows go first,
    the bound holds after every batch) that starts with the construction
    probe's row, and from-disk flags.  Hits, ``cached`` flags, every cache
    counter and the surviving keys must match the model exactly.
    """

    _truth: dict = {}

    @classmethod
    def truth(cls, genotypes) -> dict:
        """Uncached ``genotype -> (objectives, feasible, violations)``."""
        if not cls._truth:
            problem = beacon_problem(EvaluationEngine(genotype_cache=False))
            batch = problem.evaluate_batch_columns(genotypes)
            cls._truth.update(
                (genotype, (tuple(objectives), feasible, violations))
                for genotype, objectives, feasible, violations in zip(
                    genotypes,
                    batch.objectives.tolist(),
                    batch.feasible.tolist(),
                    batch.violation_counts.tolist(),
                )
            )
        return cls._truth

    @pytest.mark.parametrize("bound", [None, 1, 4, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences_match_the_model(self, tmp_path, seed, bound):
        rng = random.Random(seed)
        engine = EvaluationEngine(column_memo_max_entries=bound)
        problem = beacon_problem(engine)
        space = problem.space
        genotypes = list(space.enumerate_genotypes())
        truth = self.truth(genotypes)
        # genotype -> came off disk; the construction probe's row first.
        store: OrderedDict = OrderedDict({genotypes[0]: False})
        expected = dict(hits=0, persistent=0, evictions=0, loaded=0)
        before = engine.stats.snapshot()

        def store_hit(genotype):
            expected["hits"] += 1
            expected["persistent"] += store[genotype]
            if bound is not None:
                store.move_to_end(genotype)

        def insert(rows, from_disk):
            for genotype in rows:
                store[genotype] = from_disk
                if bound is not None and len(store) > bound:
                    store.popitem(last=False)
                    expected["evictions"] += 1

        for step in range(30):
            choice = rng.random()
            batch = [rng.choice(genotypes) for _ in range(rng.randint(0, 12))]
            if choice < 0.15:
                rows = sorted(set(batch))  # segments are lexsorted
                directory = tmp_path / f"segment-{step}"
                if rows:
                    save_segment(
                        directory,
                        fingerprint=problem.evaluation_fingerprint(),
                        components=COMPONENTS,
                        **column_arrays({row: truth[row] for row in rows}),
                    )
                fresh = [row for row in rows if row not in store]
                insert(fresh, True)
                expected["loaded"] += len(fresh)
                assert engine.load_persistent_cache(directory) == len(fresh)
            elif choice < 0.3:
                genotype = batch[0] if batch else genotypes[-1]
                if genotype in store:
                    store_hit(genotype)
                else:
                    insert([genotype], False)
                design = problem.evaluate(genotype)
                assert (design.objectives, design.feasible) == truth[genotype][:2]
            else:
                # Object and columnar batches share one path: duplicates,
                # then the column store; misses are inserted after the
                # lookups.
                flags: dict = {}
                pending = []
                for genotype in batch:
                    if genotype in flags:
                        expected["hits"] += 1
                        continue
                    flags[genotype] = genotype in store
                    if genotype in store:
                        store_hit(genotype)
                    else:
                        pending.append(genotype)
                insert(pending, False)
                if choice < 0.45:
                    designs = problem.evaluate_batch(batch)
                    assert [(d.objectives, d.feasible) for d in designs] == [
                        truth[genotype][:2] for genotype in batch
                    ]
                else:
                    result = problem.evaluate_batch_columns(batch)
                    assert result.cached.tolist() == [flags[g] for g in batch]
                    assert [
                        (tuple(objectives), feasible, violations)
                        for objectives, feasible, violations in zip(
                            result.objectives.tolist(),
                            result.feasible.tolist(),
                            result.violation_counts.tolist(),
                        )
                    ] == [truth[genotype] for genotype in batch]
            delta = engine.stats.snapshot() - before
            assert delta.genotype_cache_hits == expected["hits"]
            assert delta.persistent_cache_hits == expected["persistent"]
            assert delta.column_memo_evictions == expected["evictions"]
            assert delta.rows_loaded_from_disk == expected["loaded"]
            assert len(engine._column_store) == len(store)
            keys = engine._column_store.export()[0]
            assert set(map(tuple, space.key_genes(keys).tolist())) == set(store)


class TestPruneCacheDir:
    """Cache-directory garbage collection (:func:`prune_cache_dir`)."""

    def _segment(self, directory, fingerprint, *, rows=None, mtime=None):
        path = save_segment(
            directory,
            fingerprint=fingerprint,
            components=COMPONENTS,
            **column_arrays(rows or ROWS),
        )
        if mtime is not None:
            os.utime(path, (mtime, mtime))
        return path

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert prune_cache_dir(tmp_path / "absent", max_bytes=0) == []

    def test_no_budget_removes_nothing(self, tmp_path):
        path = self._segment(tmp_path, FP)
        assert prune_cache_dir(tmp_path) == []
        assert path.exists()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            prune_cache_dir(tmp_path, max_bytes=-1)
        with pytest.raises(ValueError, match="max_age_s"):
            prune_cache_dir(tmp_path, max_age_s=-1.0)

    def test_size_budget_removes_oldest_first(self, tmp_path):
        old = self._segment(tmp_path, FP, mtime=1_000)
        new = self._segment(tmp_path, OTHER_FP, mtime=2_000)
        budget = new.stat().st_size  # room for exactly one segment
        removed = prune_cache_dir(tmp_path, max_bytes=budget)
        assert removed == [old]
        assert not old.exists() and new.exists()

    def test_zero_budget_clears_the_directory(self, tmp_path):
        self._segment(tmp_path, FP, mtime=1_000)
        self._segment(tmp_path, OTHER_FP, mtime=2_000)
        removed = prune_cache_dir(tmp_path, max_bytes=0)
        assert len(removed) == 2
        assert list_segments(tmp_path) == []

    def test_age_budget_removes_stale_segments(self, tmp_path):
        import time as _time

        stale = self._segment(tmp_path, FP, mtime=_time.time() - 3_600)
        fresh = self._segment(tmp_path, OTHER_FP)
        removed = prune_cache_dir(tmp_path, max_age_s=60.0)
        assert removed == [stale]
        assert fresh.exists()

    def test_kept_segments_survive_any_budget(self, tmp_path):
        kept = self._segment(tmp_path, FP, mtime=1_000)  # oldest, but kept
        other = self._segment(tmp_path, OTHER_FP, mtime=2_000)
        removed = prune_cache_dir(
            tmp_path, max_bytes=0, max_age_s=0.0, keep=(kept,)
        )
        assert removed == [other]
        assert kept.exists()

    def test_live_engines_loaded_segment_is_protectable(self, tmp_path):
        sweep(EvaluationEngine(cache_dir=tmp_path))
        engine = EvaluationEngine(cache_dir=tmp_path)
        result = sweep(engine)
        assert engine.loaded_segments  # the warm start consumed the segment
        removed = prune_cache_dir(
            tmp_path, max_bytes=0, keep=engine.loaded_segments
        )
        assert removed == []
        # The engine's mapped rows stay servable after the prune.
        assert front_signature(result.front) == reference_front("beacon")

    def test_orphaned_tmp_siblings_are_swept(self, tmp_path):
        path = self._segment(tmp_path, FP)
        orphan = tmp_path / f"{path.name}.999999.0.tmp"
        orphan.write_bytes(b"dead")
        assert prune_cache_dir(tmp_path) == []
        assert not orphan.exists() and path.exists()

    def test_foreign_files_are_never_touched(self, tmp_path):
        foreign = tmp_path / "README.txt"
        foreign.write_text("not a segment")
        assert prune_cache_dir(tmp_path, max_bytes=0) == []
        assert foreign.exists()
