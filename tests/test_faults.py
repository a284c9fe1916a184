"""Chaos suite: deterministic fault injection against every recovery path.

The fault-tolerance layer is only trustworthy if its failure paths run in
CI, so every scenario here *makes* the failure happen through the seedable
:mod:`repro.engine.faults` harness: checkpoint bytes corrupted or cut short
on their way to disk, whole sweeps aborted or SIGKILL'd between chunks.
The invariant under test is always the same one the clean paths promise —
the final front is bitwise identical (membership and ordering) to an
undisturbed run, or an unusable checkpoint warns and the sweep starts
cold.

Problems are small two-node/64-configuration spaces, so the whole file
stays well under the CI job's two-minute budget.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap

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
    CheckpointError,
    CheckpointWarning,
    EvaluationEngine,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SweepCheckpoint,
    inject_faults,
    load_checkpoint,
    save_checkpoint,
)
from repro.engine import faults
from repro.engine.checkpoint import (
    CHECKPOINT_VERSION,
    MAGIC,
    load_checkpoint_if_valid,
)
from repro.experiments.casestudy import (
    build_case_study_evaluator,
    build_csma_case_study_evaluator,
)

#: Small two-node spaces (64 configurations) keep the sweeps fast.
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


FAMILIES = {"beacon": beacon_problem, "csma": csma_problem}

_REFERENCE_FRONTS: dict[str, list] = {}


def reference_front(family: str) -> list:
    """The undisturbed serial front of a family's exhaustive sweep."""
    if family not in _REFERENCE_FRONTS:
        problem = FAMILIES[family](EvaluationEngine())
        result = run_algorithm(ExhaustiveSearch(problem, chunk_size=16))
        _REFERENCE_FRONTS[family] = front_signature(result.front)
    return _REFERENCE_FRONTS[family]


def front_signature(front):
    return [(design.genotype, design.objectives, design.feasible) for design in front]


# --------------------------------------------------------------------------
# The harness itself: deterministic and seedable.


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="site"):
            FaultSpec(site="", action="raise")
        with pytest.raises(ValueError, match="action"):
            FaultSpec(site="shard", action="explode")
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec(site="shard", action="hang", delay_s=-1.0)

    def test_pinned_invocation_fires_exactly_once(self):
        plan = FaultPlan([FaultSpec(site="shard", action="raise", at=(1,))])
        plan.fire("shard", 0)  # no fault
        with pytest.raises(InjectedFault):
            plan.fire("shard", 1)
        plan.fire("shard", 2)  # already past the pinned submission
        assert plan.fired == [("shard", 1, "raise")]

    def test_unindexed_sites_count_their_own_invocations(self):
        plan = FaultPlan([FaultSpec(site="kernel", action="raise", at=(2,))])
        plan.fire("kernel")
        plan.fire("kernel")
        with pytest.raises(InjectedFault):
            plan.fire("kernel")

    def test_mangle_is_deterministic_for_a_seed(self):
        data = bytes(range(256))
        spec = FaultSpec(site="checkpoint", action="flip-byte")
        first = FaultPlan([spec], seed=7).mangle("checkpoint", data)
        second = FaultPlan([spec], seed=7).mangle("checkpoint", data)
        assert first == second != data
        assert len(first) == len(data)
        # A different seed flips a different byte (for this data length).
        other = FaultPlan([spec], seed=8).mangle("checkpoint", data)
        assert other != first

    def test_mangle_truncate_keeps_a_prefix(self):
        data = bytes(range(64))
        plan = FaultPlan(
            [FaultSpec(site="checkpoint", action="truncate", offset=10)]
        )
        assert plan.mangle("checkpoint", data) == data[:10]

    def test_inject_faults_scopes_the_installation(self):
        plan = FaultPlan([])
        assert faults.installed_fault_plan() is None
        with inject_faults(plan) as installed:
            assert installed is plan
            assert faults.installed_fault_plan() is plan
        assert faults.installed_fault_plan() is None


class TestRetiredSites:
    """Batches compute in the calling process, so no compute path carries
    the former process pool's ``"shard"`` and ``"kernel"`` hooks: a plan
    arming them on every invocation never fires, and each algorithm
    returns its undisturbed front."""

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

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("site", ["shard", "kernel"])
    def test_plan_on_a_retired_site_never_fires(self, site, algorithm):
        run = self.ALGORITHMS[algorithm]
        want = front_signature(run(beacon_problem(EvaluationEngine())).run())
        plan = FaultPlan([FaultSpec(site=site, action="raise")])
        with inject_faults(plan):
            got = front_signature(run(beacon_problem(EvaluationEngine())).run())
        assert got == want
        assert plan.fired == []


# --------------------------------------------------------------------------
# Checkpoint format: atomic, versioned, checksummed — validated on load.


def _checkpoint(tmp_path, **overrides):
    fields = dict(
        algorithm="exhaustive",
        space_size=64,
        cursor=32,
        any_feasible=True,
        genotypes=np.arange(12, dtype=np.int64).reshape(3, 4),
        objectives=np.linspace(0.0, 1.0, 9).reshape(3, 3),
        feasible=np.array([True, False, True]),
        violation_counts=np.array([0, 2, 0], dtype=np.int64),
        rng_state={"state": 123},
        fingerprint=b"fp",
        extra={"samples": 10},
    )
    fields.update(overrides)
    return SweepCheckpoint(**fields)


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        checkpoint = _checkpoint(tmp_path)
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.algorithm == checkpoint.algorithm
        assert loaded.cursor == checkpoint.cursor
        assert loaded.any_feasible is checkpoint.any_feasible
        np.testing.assert_array_equal(loaded.genotypes, checkpoint.genotypes)
        np.testing.assert_array_equal(loaded.objectives, checkpoint.objectives)
        assert loaded.rng_state == checkpoint.rng_state
        assert loaded.fingerprint == checkpoint.fingerprint
        assert loaded.extra == checkpoint.extra
        # Atomicity: no temporary file left behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(tmp_path / "absent.ckpt")
        # The resume-side loader treats a missing file as a silent cold
        # start (first run), not a warning.
        assert (
            load_checkpoint_if_valid(
                tmp_path / "absent.ckpt",
                algorithm="exhaustive",
                space_size=64,
                fingerprint=None,
            )
            is None
        )

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        save_checkpoint(path, _checkpoint(tmp_path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)
        path.write_bytes(blob[:10])  # shorter than the header itself
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_foreign_magic(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        save_checkpoint(path, _checkpoint(tmp_path))
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        save_checkpoint(path, _checkpoint(tmp_path))
        blob = bytearray(path.read_bytes())
        future = CHECKPOINT_VERSION + 1
        blob[len(MAGIC) : len(MAGIC) + 4] = future.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_flipped_payload_byte(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        save_checkpoint(path, _checkpoint(tmp_path))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_foreign_payload_type(self, tmp_path):
        import hashlib

        path = tmp_path / "sweep.ckpt"
        payload = pickle.dumps({"not": "a checkpoint"})
        path.write_bytes(
            MAGIC
            + CHECKPOINT_VERSION.to_bytes(4, "little")
            + hashlib.sha256(payload).digest()
            + payload
        )
        with pytest.raises(CheckpointError, match="SweepCheckpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(algorithm="random-search"), "algorithm"),
            (dict(space_size=65), "space"),
            (dict(fingerprint=b"other"), "fingerprint"),
        ],
    )
    def test_context_mismatches_warn_and_cold_start(
        self, tmp_path, overrides, fragment
    ):
        path = tmp_path / "sweep.ckpt"
        save_checkpoint(path, _checkpoint(tmp_path, **overrides))
        with pytest.warns(CheckpointWarning, match=fragment):
            restored = load_checkpoint_if_valid(
                path, algorithm="exhaustive", space_size=64, fingerprint=b"fp"
            )
        assert restored is None

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(cursor=65), "cursor"),  # past the 64-design space
            (dict(cursor=-1), "cursor"),
            (dict(feasible=np.array([True])), "mismatched row counts"),
            (
                dict(objectives=np.zeros((5, 3)), violation_counts=np.zeros(5)),
                "mismatched row counts",
            ),
        ],
    )
    def test_inconsistent_state_warns_and_cold_starts(
        self, tmp_path, overrides, fragment
    ):
        # The checksum only proves the writer's bytes survived; a writer
        # that serialized nonsense (cursor outside the space, archive
        # columns of different lengths) must still cold-start the resume.
        path = tmp_path / "sweep.ckpt"
        save_checkpoint(path, _checkpoint(tmp_path, **overrides))
        with pytest.warns(CheckpointWarning, match=fragment):
            restored = load_checkpoint_if_valid(
                path, algorithm="exhaustive", space_size=64, fingerprint=b"fp"
            )
        assert restored is None

    def test_tmp_sibling_names_are_unique_per_write(self, tmp_path):
        from repro.engine.checkpoint import _tmp_sibling

        path = tmp_path / "sweep.ckpt"
        names = {_tmp_sibling(path).name for _ in range(4)}
        assert len(names) == 4  # the counter makes every write distinct
        for name in names:
            assert name.startswith("sweep.ckpt.")
            assert name.endswith(".tmp")
            assert f".{os.getpid()}." in name  # and the pid separates processes

    def test_failed_write_keeps_the_previous_file_and_no_tmp(
        self, tmp_path, monkeypatch
    ):
        from repro.engine.checkpoint import atomic_write_bytes

        path = tmp_path / "sweep.ckpt"
        save_checkpoint(path, _checkpoint(tmp_path))
        before = path.read_bytes()

        def refuse(fd):
            raise OSError("injected: disk full")

        monkeypatch.setattr(os, "fsync", refuse)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_bytes(path, b"half-written")
        monkeypatch.undo()
        # The previous checkpoint is untouched and the tmp file is gone.
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


# --------------------------------------------------------------------------
# Checkpoint/resume sweeps: interrupted runs finish bitwise identically.


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestCheckpointedSweeps:
    def test_clean_checkpointed_sweep_matches_reference(self, family, tmp_path):
        path = tmp_path / "sweep.ckpt"
        problem = FAMILIES[family](EvaluationEngine())
        result = run_algorithm(
            ExhaustiveSearch(problem, chunk_size=16, checkpoint_every=1),
            checkpoint_path=str(path),
        )
        assert front_signature(result.front) == reference_front(family)
        assert path.exists()

    def test_resume_of_a_completed_sweep_recomputes_nothing(
        self, family, tmp_path
    ):
        path = tmp_path / "sweep.ckpt"
        run_algorithm(
            ExhaustiveSearch(
                FAMILIES[family](EvaluationEngine()), chunk_size=16
            ),
            checkpoint_path=str(path),
        )
        resumed = run_algorithm(
            ExhaustiveSearch(
                FAMILIES[family](EvaluationEngine()), chunk_size=16
            ),
            checkpoint_path=str(path),
        )
        assert front_signature(resumed.front) == reference_front(family)
        assert resumed.model_evaluations == 0

    def test_aborted_sweep_resumes_bitwise_identically(self, family, tmp_path):
        # An InjectedFault right after the second checkpoint write models a
        # crash at a known persisted state (the SIGKILL variant below kills
        # a real process; this in-process variant runs for both families).
        path = tmp_path / "sweep.ckpt"
        plan = FaultPlan(
            [FaultSpec(site="checkpoint-saved", action="raise", at=(1,))]
        )
        with inject_faults(plan), pytest.raises(InjectedFault):
            run_algorithm(
                ExhaustiveSearch(
                    FAMILIES[family](EvaluationEngine()),
                    chunk_size=16,
                    checkpoint_every=1,
                ),
                checkpoint_path=str(path),
            )
        resumed = run_algorithm(
            ExhaustiveSearch(
                FAMILIES[family](EvaluationEngine()),
                chunk_size=16,
                checkpoint_every=1,
            ),
            checkpoint_path=str(path),
        )
        assert front_signature(resumed.front) == reference_front(family)
        # Two of the four chunks were absorbed before the abort.
        assert resumed.model_evaluations <= 32

    def test_sigkilled_sweep_resumes_bitwise_identically(self, family, tmp_path):
        path = tmp_path / "sweep.ckpt"
        script = textwrap.dedent(
            f"""
            from test_faults import FAMILIES
            from repro.dse.exhaustive import ExhaustiveSearch
            from repro.dse.runner import run_algorithm
            from repro.engine import EvaluationEngine, FaultPlan, FaultSpec
            from repro.engine import install_fault_plan

            install_fault_plan(
                FaultPlan([FaultSpec(site="checkpoint-saved", action="kill", at=(1,))])
            )
            problem = FAMILIES[{family!r}](EvaluationEngine())
            run_algorithm(
                ExhaustiveSearch(problem, chunk_size=16, checkpoint_every=1),
                checkpoint_path={str(path)!r},
            )
            raise SystemExit("the sweep survived its SIGKILL")
            """
        )
        env = dict(os.environ)
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, here, env.get("PYTHONPATH")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert completed.returncode == -9, completed.stderr  # SIGKILL'd mid-sweep
        assert path.exists()
        resumed = run_algorithm(
            ExhaustiveSearch(
                FAMILIES[family](EvaluationEngine()),
                chunk_size=16,
                checkpoint_every=1,
            ),
            checkpoint_path=str(path),
        )
        assert front_signature(resumed.front) == reference_front(family)
        # Only the chunks after the persisted cursor were re-evaluated.
        assert 0 < resumed.model_evaluations <= 32


class TestCheckpointCorruptionEndToEnd:
    def test_fault_mangled_checkpoint_falls_back_to_cold_start(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        plan = FaultPlan([FaultSpec(site="checkpoint", action="flip-byte")])
        with inject_faults(plan):
            first = run_algorithm(
                ExhaustiveSearch(
                    beacon_problem(EvaluationEngine()), chunk_size=16
                ),
                checkpoint_path=str(path),
            )
        assert front_signature(first.front) == reference_front("beacon")
        # Every write was corrupted in flight; the resume detects it, warns
        # and cold-starts — recomputing the full space, same front.
        with pytest.warns(CheckpointWarning, match="integrity"):
            resumed = run_algorithm(
                ExhaustiveSearch(
                    beacon_problem(EvaluationEngine()), chunk_size=16
                ),
                checkpoint_path=str(path),
            )
        assert front_signature(resumed.front) == reference_front("beacon")
        # A cold start recomputes as much as the first (also cold) run did.
        assert resumed.model_evaluations == first.model_evaluations

    def test_fault_truncated_checkpoint_falls_back_to_cold_start(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        plan = FaultPlan(
            [FaultSpec(site="checkpoint", action="truncate", offset=6)]
        )
        with inject_faults(plan):
            run_algorithm(
                ExhaustiveSearch(
                    beacon_problem(EvaluationEngine()), chunk_size=16
                ),
                checkpoint_path=str(path),
            )
        with pytest.warns(CheckpointWarning, match="truncated"):
            resumed = run_algorithm(
                ExhaustiveSearch(
                    beacon_problem(EvaluationEngine()), chunk_size=16
                ),
                checkpoint_path=str(path),
            )
        assert front_signature(resumed.front) == reference_front("beacon")


class TestRandomSearchCheckpointing:
    def test_checkpointed_sweep_matches_the_one_shot_path(self, tmp_path):
        reference = run_algorithm(
            RandomSearch(beacon_problem(EvaluationEngine()), samples=48, seed=5)
        )
        path = tmp_path / "rs.ckpt"
        chunked = run_algorithm(
            RandomSearch(
                beacon_problem(EvaluationEngine()),
                samples=48,
                seed=5,
                chunk_size=8,
                checkpoint_every=1,
            ),
            checkpoint_path=str(path),
        )
        assert front_signature(chunked.front) == front_signature(reference.front)

    def test_aborted_sweep_resumes_bitwise_identically(self, tmp_path):
        reference = run_algorithm(
            RandomSearch(beacon_problem(EvaluationEngine()), samples=48, seed=5)
        )
        path = tmp_path / "rs.ckpt"
        plan = FaultPlan(
            [FaultSpec(site="checkpoint-saved", action="raise", at=(1,))]
        )
        with inject_faults(plan), pytest.raises(InjectedFault):
            run_algorithm(
                RandomSearch(
                    beacon_problem(EvaluationEngine()),
                    samples=48,
                    seed=5,
                    chunk_size=8,
                    checkpoint_every=1,
                ),
                checkpoint_path=str(path),
            )
        resumed_problem = beacon_problem(EvaluationEngine())
        resumed = run_algorithm(
            RandomSearch(
                resumed_problem,
                samples=48,
                seed=5,
                chunk_size=8,
                checkpoint_every=1,
            ),
            checkpoint_path=str(path),
        )
        assert front_signature(resumed.front) == front_signature(reference.front)

    def test_seed_or_budget_change_invalidates_the_checkpoint(self, tmp_path):
        path = tmp_path / "rs.ckpt"
        run_algorithm(
            RandomSearch(
                beacon_problem(EvaluationEngine()),
                samples=48,
                seed=5,
                chunk_size=8,
            ),
            checkpoint_path=str(path),
        )
        with pytest.warns(CheckpointWarning, match="seed or sample budget"):
            run_algorithm(
                RandomSearch(
                    beacon_problem(EvaluationEngine()),
                    samples=48,
                    seed=6,
                    chunk_size=8,
                ),
                checkpoint_path=str(path),
            )


class TestFingerprintlessResume:
    """Without an evaluation fingerprint nothing proves a checkpoint belongs
    to the resuming problem, so it never resumes one."""

    @staticmethod
    def lambda_mac_problem(n_nodes: int, **node_domains) -> WbsnDseProblem:
        from repro.dse.problem import MacParameterisation
        from repro.dse.space import ParameterDomain

        mac = MacParameterisation(
            name="beacon",
            domains=(
                ParameterDomain("mac.payload_bytes", (60, 80)),
                ParameterDomain("mac.orders", ((4, 4), (4, 6))),
            ),
            # A lambda factory does not pickle: no fingerprint.
            config_factory=lambda payload, orders: WbsnDseProblem.build_mac_config(
                payload, orders
            ),
        )
        return WbsnDseProblem(
            build_case_study_evaluator(
                n_nodes=n_nodes, applications=("dwt", "cs")[:n_nodes]
            ),
            mac_parameterisation=mac,
            engine=EvaluationEngine(),
            **node_domains,
        )

    def test_equal_size_spaces_never_splice_fronts(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        one_node = dict(
            compression_ratios=(0.2, 0.3, 0.4, 0.5),
            frequencies_hz=(1e6, 2e6, 4e6, 8e6),
        )
        wide = self.lambda_mac_problem(2, **NODE_DOMAINS)  # 6 genes
        narrow = self.lambda_mac_problem(1, **one_node)  # 4 genes
        assert wide.space.size == narrow.space.size == 64
        assert wide.evaluation_fingerprint() is None
        assert narrow.evaluation_fingerprint() is None
        ExhaustiveSearch(wide, checkpoint_path=path).run()
        with pytest.warns(CheckpointWarning, match="fingerprint"):
            front = ExhaustiveSearch(narrow, checkpoint_path=path).run()
        assert {len(design.genotype) for design in front} == {4}
        cold = ExhaustiveSearch(self.lambda_mac_problem(1, **one_node)).run()
        assert front_signature(front) == front_signature(cold)


class TestRunnerIntegration:
    def test_checkpoint_path_requires_algorithm_support(self):
        class NoCheckpoints:
            problem = None

            def run(self):  # pragma: no cover - never called
                return []

        with pytest.raises(TypeError, match="checkpoint"):
            run_algorithm(NoCheckpoints(), checkpoint_path="x.ckpt")

    def test_object_path_rejects_checkpointing(self):
        problem = beacon_problem(EvaluationEngine())
        with pytest.raises(ValueError, match="columnar"):
            ExhaustiveSearch(problem, columnar=False, checkpoint_path="x.ckpt")
        with pytest.raises(ValueError, match="columnar"):
            RandomSearch(problem, columnar=False, checkpoint_path="x.ckpt")
