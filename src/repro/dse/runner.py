"""Thin orchestration layer around the search algorithms.

The runner times a search run and attributes its evaluation work.  Problems
routed through a shared :class:`~repro.engine.EvaluationEngine` may serve
many designs from cache, so the result distinguishes *designs served* (the
``evaluations`` counter every algorithm consumes) from *model evaluations*
(genotype-cache misses that actually ran the model), and reports both
throughputs; the attached :class:`~repro.engine.EngineStats` delta also
carries the engine's path and recovery counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Protocol

from repro.dse.problem import EvaluatedDesign, OptimizationProblem
from repro.engine import EngineStats

__all__ = ["SearchAlgorithm", "DseResult", "run_algorithm"]


class SearchAlgorithm(Protocol):
    """Anything with a ``run() -> list[EvaluatedDesign]`` method."""

    problem: OptimizationProblem

    def run(self) -> list[EvaluatedDesign]:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class DseResult:
    """Outcome of one exploration run.

    Attributes:
        front: the non-dominated designs returned by the algorithm.
        evaluations: designs served to the algorithm (cache hits included).
        wall_clock_s: host time spent by the run.
        engine_stats: engine counter deltas for this run — cache hit rates,
            worker recovery, disk loads, materialised designs (``None`` when
            the problem is not engine-backed).
    """

    front: tuple[EvaluatedDesign, ...]
    evaluations: int
    wall_clock_s: float
    engine_stats: EngineStats | None = None

    @property
    def evaluations_per_second(self) -> float:
        """Designs served per second of wall-clock time (cache-aware).

        Zero-duration runs (timer resolution on fully cached replays) report
        ``0.0`` rather than ``inf`` — infinities are not representable in
        strict JSON and would corrupt the benchmark artifacts that serialize
        these throughputs (``BENCH_dse_speed.json``).
        """
        if self.wall_clock_s <= 0:
            return 0.0
        return self.evaluations / self.wall_clock_s

    @property
    def model_evaluations(self) -> int:
        """Full model evaluations actually computed during the run."""
        if self.engine_stats is None:
            return self.evaluations
        return self.engine_stats.model_evaluations

    @property
    def model_evaluations_per_second(self) -> float:
        """Raw model evaluations per second of wall-clock time.

        Clamped to ``0.0`` on zero-duration runs, like
        :attr:`evaluations_per_second`.
        """
        if self.wall_clock_s <= 0:
            return 0.0
        return self.model_evaluations / self.wall_clock_s

    @property
    def objective_vectors(self) -> list[tuple[float, ...]]:
        """Objective vectors of the returned front."""
        return [design.objectives for design in self.front]


def run_algorithm(
    algorithm: SearchAlgorithm,
    *,
    close_engine: bool = False,
    checkpoint_path: str | None = None,
    cache_dir: str | None = None,
    array_backend: str | ModuleType | None = None,
    front_callback: Callable[[object, int], None] | None = None,
) -> DseResult:
    """Run a search algorithm and record its cost.

    With ``close_engine=True`` the problem's evaluation engine is closed
    once the run finishes (even on failure), releasing backend worker pools
    and shared-memory segments — use it when the runner owns the last run
    against that engine.  The default leaves the engine open so several
    runs can share its warm caches; close it yourself afterwards (engines
    are context managers).

    ``checkpoint_path`` routes to the algorithm's checkpoint/resume support
    (today the columnar exhaustive and random sweeps): the run periodically
    persists its resumable state to that file and a later call with the
    same path continues an interrupted run bitwise identically (see
    :mod:`repro.engine.checkpoint`).  Algorithms without checkpoint support
    reject the argument with a ``TypeError``.

    ``cache_dir`` routes to the engine's persistent cache tier
    (:mod:`repro.engine.persist`): before the run the engine bulk-memoises
    the problem's on-disk column segment (warm start — a sweep the segment
    fully covers performs zero model evaluations and returns a front
    bitwise identical to a cold run), and after a successful run the
    engine's memos are spilled back, merged into the segment, for the next
    process.  Requires an engine-backed problem (``TypeError`` otherwise);
    an unusable segment warns (:class:`~repro.engine.CacheTierWarning`)
    and the run starts cold.

    ``array_backend`` recompiles the problem's columnar kernel onto the
    named array backend (a registered name or an ``xp``-style namespace
    module, see :mod:`repro.core.array_backend`) before the timed run —
    the backend seam's runner-level entry point.  Requires a problem with
    a compiled vectorized kernel (``TypeError`` otherwise); the resolved
    backend name is surfaced on the result's engine-stats delta.

    ``front_callback`` routes to the algorithm's streaming-front support
    (the columnar exhaustive and random sweeps): the callable receives the
    running archive and the consumed-genotype cursor after every absorbed
    chunk — the DSE service's per-chunk progress and cancellation hook (an
    exception raised by the callback aborts the run between chunks).
    Algorithms without the hook reject the argument with a ``TypeError``.
    """
    if array_backend is not None:
        rebind = getattr(algorithm.problem, "set_array_backend", None)
        if not callable(rebind):
            raise TypeError(
                f"{type(algorithm.problem).__name__} does not support "
                "array-backend selection (no vectorized kernel seam)"
            )
        rebind(array_backend)
    if checkpoint_path is not None:
        if not hasattr(algorithm, "checkpoint_path"):
            raise TypeError(
                f"{type(algorithm).__name__} does not support "
                "checkpoint/resume sweeps"
            )
        algorithm.checkpoint_path = checkpoint_path
    if front_callback is not None:
        if not hasattr(algorithm, "front_callback"):
            raise TypeError(
                f"{type(algorithm).__name__} does not support streaming "
                "front callbacks"
            )
        algorithm.front_callback = front_callback
    problem = algorithm.problem
    engine = problem.engine
    if cache_dir is not None and engine is None:
        raise TypeError(
            "cache_dir needs an engine-backed problem (the persistent cache "
            "tier lives in the evaluation engine)"
        )
    stats_before = engine.stats.snapshot() if engine is not None else None
    evaluations_before = problem.evaluations
    started = time.perf_counter()
    try:
        if cache_dir is not None:
            # Warm-start the engine before the timed run consumes designs
            # (a no-op when the engine already loaded this segment at bind).
            engine.load_persistent_cache(cache_dir)
        front = algorithm.run()
        wall_clock = time.perf_counter() - started
        if cache_dir is not None:
            # Spill outside the timed window: persistence cost benefits the
            # *next* run, not this one.  Only successful runs spill.
            engine.spill_persistent_cache(cache_dir)
    finally:
        if close_engine and engine is not None:
            engine.close()
    return DseResult(
        front=tuple(front),
        evaluations=problem.evaluations - evaluations_before,
        wall_clock_s=wall_clock,
        engine_stats=(
            engine.stats.snapshot() - stats_before if engine is not None else None
        ),
    )
